"""Batch command-line front end.

One executable, six subcommands: ``generate`` synthesizes benchmark
traces, ``sweep`` maps information storage or forecast error over a
parameter grid, ``select-params`` runs the tau/m selection heuristics,
``forecast`` scores a single rolling forecast, ``wpe`` screens
predictability, and ``topology`` drives the witness-complex analyses.

Every command is deterministic given its full flag set (including
``--seed``), every output file starts with ``#`` metadata lines recording
the exact invocation, and the resolved configuration of any run can be
dumped to a plain key=value file with ``--dump-config``. Exit codes:
0 success, 1 validation failure, 2 computation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

import numpy as np

from . import __version__
from .embedding_params import (
    FnnConfig,
    _atau_choice,
    atau_optimal_params,
    estimate_m_fnn,
    fnn_fraction,
    tau_first_min_mi,
    tau_first_zero_autocorr,
)
from .errors import (
    CapacityError,
    DelayKitError,
    SeriesFormatError,
    ValidationError,
)
from .estimators import (
    DEFAULT_MAX_SAMPLES,
    _autocorrelation_at,
    atau_surface,
    permutation_entropy,
    run_grid,
    select_word_length,
    td_mutual_information_curve,
    weighted_permutation_entropy,
)
from .forecast import rolling_evaluate
from .systems import (
    _PARAMETER_WORDS,
    FLOW_DEFAULTS,
    MAP_DEFAULTS,
    FlowSpec,
    MapSpec,
    _parameter_defaults,
    default_initial_state,
    generate_flow_trace,
    generate_map_trace,
)
from .timeseries import (
    delay_reconstruct,
    load_series,
    read_rows,
    save_series,
    write_lines,
)
from .topology import (
    LANDMARK_STRATEGIES,
    betti_numbers,
    build_complex,
    edge_lifespan_diagram,
    epsilon_barcode,
    scaled_epsilon,
    select_landmarks,
)

FLOWS = tuple(FLOW_DEFAULTS)
MAPS = tuple(MAP_DEFAULTS)


# Parsed destinations that dispatch or name output files; every other one
# is a parameter of the run.
_NOT_PARAMS = {"command", "func", "dump_config", "output", "argmax_json",
               "curve_csv", "json", "csv"}


def _run_record(args, params: dict | None = None) -> list[str]:
    """The ``#`` header lines of a run: the command, then its resolved
    parameters as sorted ``key=value`` lines. The same record goes to
    ``--dump-config`` when that is given. ``params`` defaults to the
    parsed flags."""
    if params is None:
        params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    pairs = [f"{key}={params[key]}" for key in sorted(params)]
    if args.dump_config:
        write_lines(args.dump_config, [], [f"command={args.command}", *pairs])
    return [f"delaykit {args.command}", *pairs]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _DefaultsHelp(argparse.ArgumentDefaultsHelpFormatter):
    """Names each flag's default in its help, except a None default, which
    means "not given" and says nothing about the value used."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _parse(convert, text: str, what: str):
    """``convert(text)``, reporting a malformed value as a validation failure."""
    try:
        return convert(text)
    except ValueError:
        raise ValidationError(f"bad {what} {text!r}") from None


def _parse_range(text: str) -> list[int]:
    """'a:b' expands to the inclusive range a..b; a bare integer stands alone."""
    a, colon, b = text.partition(":")
    lo = _parse(int, a, "range start")
    hi = _parse(int, b, "range end") if colon else lo
    if hi < lo:
        raise ValidationError(f"bad range {text!r}: end below start")
    return list(range(lo, hi + 1))


# Flags shared by several subcommands, as argparse parents.
_DUMP_CONFIG = argparse.ArgumentParser(add_help=False)
_DUMP_CONFIG.add_argument("--dump-config", metavar="PATH",
                          help="also write the run's parameters as key=value lines")
_INPUT = argparse.ArgumentParser(add_help=False)
_INPUT.add_argument("-i", "--input", required=True, help="series file")
_GRID = argparse.ArgumentParser(add_help=False)
_GRID.add_argument("--h", type=int, default=1, help="prediction horizon")
_GRID.add_argument("--k", type=int, default=4, help="KSG neighbor count (atau)")
_GRID.add_argument("--max-samples", type=int, default=DEFAULT_MAX_SAMPLES,
                   help="per-cell subsample cap for atau (uniform stride)")
_GRID.add_argument("--jobs", type=int, default=1, help="grid cells run on threads: "
                   "1 = one per usable core; N > 1 = N threads")


def _command(sub, name: str, run, help: str, *parents) -> argparse.ArgumentParser:
    """The parser of subcommand ``name``, which calls ``run`` by name; the
    flags of ``parents``, then ``--dump-config``, come first."""
    p = sub.add_parser(name, help=help, formatter_class=_DefaultsHelp,
                       parents=[*parents, _DUMP_CONFIG])
    p.set_defaults(func=run.__name__)
    return p


# --------------------------------------------------------------------------
# generate

# Sampling flags by the kind of system they apply to, with the value each
# takes when omitted; parameter flags apply only to their own system.
FLOW_SAMPLING = {"dt": 1.0 / 64.0, "steps": 10000, "observed_index": 0}
MAP_SAMPLING = {"n": 10000}


def _add_generate(sub):
    p = _command(sub, "generate", run_generate, "synthesize a benchmark trace")
    p.add_argument("--system", required=True, choices=FLOWS + MAPS)
    # SUPPRESS leaves a flag unset when omitted, so a stray one can be told
    # from a default
    p.add_argument("--dt", type=float, default=argparse.SUPPRESS,
                   help=f"flow time step (default: {FLOW_SAMPLING['dt']})")
    p.add_argument("--steps", type=int, default=argparse.SUPPRESS,
                   help=f"flow sample count (default: {FLOW_SAMPLING['steps']})")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS,
                   help=f"map iterate count (default: {MAP_SAMPLING['n']})")
    p.add_argument("--transient", type=int, default=0,
                   help="leading samples to discard")
    p.add_argument("--observed-index", type=int, default=argparse.SUPPRESS,
                   help="state coordinate to observe (flows) "
                        f"(default: {FLOW_SAMPLING['observed_index']})")
    # parameter flags default to None so that an omitted one can be told
    # from a given one; the help names each system's own default
    for name, owners in _parameter_defaults().items():
        defaults = (str(*owners.values()) if len(owners) == 1 else
                    ", ".join(f"{value} for {system}" for system, value in owners.items()))
        p.add_argument(f"--{name}", type=type(next(iter(owners.values()))),
                       help=f"{'/'.join(owners)} {_PARAMETER_WORDS.get(name, name)} "
                            f"(default: {defaults})")
    p.add_argument("--x0", type=str,
                   help="comma-separated initial state; omit to draw from --seed")
    p.add_argument("--seed", type=int,
                   help="seed for the initial condition (required without --x0)")
    p.add_argument("-o", "--output", required=True)


def _system_settings(args) -> tuple[dict, dict]:
    """The parameters given for ``--system`` and its sampling settings.

    A sampling or parameter flag that belongs to other systems is an error.
    """
    sampling = FLOW_SAMPLING if args.system in FLOWS else MAP_SAMPLING
    names = {**FLOW_DEFAULTS, **MAP_DEFAULTS}[args.system]
    stray = [k for k in [*FLOW_SAMPLING, *MAP_SAMPLING, *_parameter_defaults()]
             if k not in sampling and k not in names
             and getattr(args, k, None) is not None]
    if stray:
        flags = ", ".join("--" + k.replace("_", "-") for k in stray)
        raise ValidationError(f"{args.system} takes no {flags}")
    params = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    return params, {k: getattr(args, k, v) for k, v in sampling.items()}


def run_generate(args) -> int:
    params, sampling = _system_settings(args)
    is_flow = args.system in FLOWS
    if is_flow:
        # validated before drawing x0, which needs a sound K
        spec = FlowSpec(args.system, params, transient=args.transient, **sampling)
        params = spec.params

    if args.x0 is not None:
        x0 = np.array([_parse(float, v, "--x0 entry") for v in args.x0.split(",")])
    elif args.seed is not None:
        x0 = default_initial_state(args.system, params, args.seed)
    else:
        raise ValidationError("provide --x0 or --seed")
    if not is_flow:
        spec = MapSpec(args.system, params, x0=tuple(x0),
                       transient=args.transient, **sampling)

    header = _run_record(args, {
        "system": args.system, **spec.params,
        **{k: sampling[k] for k in sampling if k != "observed_index"},
        "transient": args.transient,
        "x0": ",".join(f"{v:.17g}" for v in x0),
        "seed": args.seed,
    })

    if is_flow:
        series = generate_flow_trace(spec, x0)
    else:
        series = generate_map_trace(spec)
    save_series(series, args.output, header_lines=header)
    print(f"wrote {len(series)} samples to {args.output}")
    return 0


# --------------------------------------------------------------------------
# sweep

def _add_sweep(sub):
    p = _command(sub, "sweep", run_sweep,
                 "grid sweep of information storage or forecast error", _INPUT, _GRID)
    p.add_argument("--mode", required=True, choices=("atau", "mase"))
    p.add_argument("--m", required=True, help="dimension range a:b")
    p.add_argument("--tau", required=True, help="delay range a:b")
    p.add_argument("--split", type=float, default=0.9,
                   help="train fraction for mase mode")
    p.add_argument("--theiler", type=int, default=0,
                   help="temporal exclusion for mase mode")
    p.add_argument("-o", "--output", required=True, help="grid CSV path")
    p.add_argument("--argmax-json", metavar="PATH",
                   help="write the best cell (max for atau, min for mase)")


def _mase_cell(values, m, tau, h, fraction, theiler):
    run = rolling_evaluate(values, fraction, "lma", h=h, m=m, tau=tau,
                           theiler=theiler)
    return run.score.value


def run_sweep(args) -> int:
    m_values = _parse_range(args.m)
    tau_values = _parse_range(args.tau)
    if not 0.0 < args.split < 1.0:
        raise ValidationError("split must lie in (0, 1)")
    series = load_series(args.input)
    header = _run_record(args)

    if args.mode == "atau":
        grid = atau_surface(series, m_values, tau_values, h=args.h, k=args.k,
                            max_samples=args.max_samples, jobs=args.jobs)
    else:
        cell = partial(_mase_cell, h=args.h, fraction=args.split,
                       theiler=args.theiler)
        grid = run_grid(cell, series, m_values, tau_values, args.jobs,
                        {"quantity": "h_mase", "h": args.h})
    # raises, naming the first failed cell, when every cell failed
    best = grid.argbest("max" if args.mode == "atau" else "min")
    if grid.cell_errors:
        (m, tau), reason = next(iter(grid.cell_errors.items()))
        print(f"warning: {len(grid.cell_errors)} of {grid.values.size} cells failed; "
              f"first at m={m} tau={tau}: {reason}", file=sys.stderr)

    write_lines(args.output, header, grid.to_csv_rows())
    if args.argmax_json:
        payload = {"mode": args.mode, "m": best[0], "tau": best[1], "value": best[2]}
        write_lines(args.argmax_json, [], [json.dumps(payload, indent=2)])
    print(f"wrote {len(m_values) * len(tau_values)} cells to {args.output}; "
          f"best cell m={best[0]} tau={best[1]} value={best[2]:.6g}")
    return 0


# --------------------------------------------------------------------------
# select-params

def _add_select(sub):
    p = _command(sub, "select-params", run_select_params,
                 "tau/m selection heuristics", _INPUT, _GRID)
    p.add_argument("--method", required=True,
                   choices=("first_min_mi", "first_zero_autocorr", "fnn",
                            "atau_optimal"))
    p.add_argument("--tau-max", type=int, default=100,
                   help="scan limit for the tau heuristics")
    p.add_argument("--tau", type=int, help="fixed delay for the fnn method")
    p.add_argument("--m-max", type=int, default=10, help="fnn dimension cap")
    p.add_argument("--r-tol", type=float, default=10.0,
                   help="fnn: a neighbor is false when the added coordinate "
                        "separates it by more than this many times its distance")
    p.add_argument("--a-tol", type=float, default=2.0,
                   help="fnn: a neighbor is false when its extended distance "
                        "exceeds this many attractor sizes (series std)")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="acceptable false-neighbor fraction")
    p.add_argument("--m-range", default="1:8", help="atau dimension range a:b")
    p.add_argument("--tau-range", default="1:10", help="atau delay range a:b")
    p.add_argument("--curve-csv", metavar="PATH",
                   help="also write the full selection curve or grid")


def run_select_params(args) -> int:
    if args.method == "atau_optimal":
        m_values, tau_values = map(_parse_range, (args.m_range, args.tau_range))
    series = load_series(args.input)
    header = _run_record(args)

    curve_rows = None
    if args.method == "first_min_mi":
        choice = tau_first_min_mi(series, args.tau_max)
        if args.curve_csv:
            curve = td_mutual_information_curve(series, args.tau_max)
            # rounding can leave the estimate a hair below zero; reports clamp
            curve_rows = ["tau,mi_bits"] + [f"{t},{max(0.0, v)!r}" for t, v in curve]
    elif args.method == "first_zero_autocorr":
        choice = tau_first_zero_autocorr(series, args.tau_max)
        if args.curve_csv:
            autocorr = _autocorrelation_at(series.values)
            curve_rows = ["tau,autocorrelation"] + [
                f"{t},{autocorr(t)!r}" for t in range(args.tau_max + 1)
            ]
    elif args.method == "fnn":
        if args.tau is None:
            raise ValidationError("fnn requires --tau")
        fnn = FnnConfig(r_tol=args.r_tol, a_tol=args.a_tol,
                        fraction_threshold=args.threshold, m_max=args.m_max)
        choice = estimate_m_fnn(series, args.tau, fnn)
        if args.curve_csv:
            curve_rows = ["m,fnn_fraction"] + [
                f"{m},{fnn_fraction(series, m, args.tau, fnn)!r}"
                for m in range(1, choice.m + 1)
            ]
    else:
        atau = dict(h=args.h, k=args.k, max_samples=args.max_samples, jobs=args.jobs)
        if args.curve_csv:
            grid = atau_surface(series, m_values, tau_values, **atau)
            choice = _atau_choice(grid)
            curve_rows = list(grid.to_csv_rows())
        else:
            choice = atau_optimal_params(series, m_values, tau_values, **atau)

    if curve_rows:
        write_lines(args.curve_csv, header, curve_rows)
    print(json.dumps({"method": choice.method, "m": choice.m,
                      "tau": choice.tau, "score": choice.score}))
    return 0


# --------------------------------------------------------------------------
# forecast

def _add_forecast(sub):
    p = _command(sub, "forecast", run_forecast, "rolling forecast of a series file",
                 _INPUT)
    p.add_argument("--method", required=True,
                   choices=("random_walk", "naive", "lma", "ar"))
    p.add_argument("--split", type=float, default=0.9, help="train fraction")
    p.add_argument("--h", type=int, default=1, help="prediction horizon")
    p.add_argument("--m", type=int, help="lma reconstruction dimension")
    p.add_argument("--tau", type=int, help="lma delay")
    p.add_argument("--theiler", type=int, default=0, help="lma temporal exclusion")
    p.add_argument("--order", type=int, default=8, help="ar order")
    p.add_argument("--refit-every", type=int, default=1,
                   help="ar refit cadence, in blocks")
    p.add_argument("--json", metavar="PATH", help="write the summary JSON here")
    p.add_argument("--csv", metavar="PATH",
                   help="write index,prediction,truth rows here")


def run_forecast(args) -> int:
    series = load_series(args.input)
    header = _run_record(args)

    run = rolling_evaluate(series, args.split, args.method, h=args.h,
                           m=args.m, tau=args.tau, theiler=args.theiler,
                           order=args.order, refit_every=args.refit_every)
    summary = {
        "method": run.method,
        "params": {k: v for k, v in run.params.items() if k not in ("h", "fraction")},
        "h": args.h,
        "n_train": run.train_length,
        "n_test": int(run.truth.size),
        "h_mase": run.score.value,
    }
    text = json.dumps(summary)
    if args.json:
        write_lines(args.json, [], [text])
    if args.csv:
        rows = ["index,prediction,truth"] + [
            f"{run.train_length + i},{p:.17g},{c:.17g}"
            for i, (p, c) in enumerate(zip(run.predictions.tolist(),
                                           run.truth.tolist()))
        ]
        write_lines(args.csv, header, rows)
    print(text)
    return 0


# --------------------------------------------------------------------------
# wpe

def _add_wpe(sub):
    p = _command(sub, "wpe", run_wpe, "permutation-entropy predictability screen",
                 _INPUT)
    p.add_argument("--ell", default="auto",
                   help="word length, or 'auto' for the sampling rule")
    p.add_argument("--unnormalized", action="store_true",
                   help="report raw bits instead of the [0,1] normalization")


def run_wpe(args) -> int:
    series = load_series(args.input)
    ell = (select_word_length(len(series)) if args.ell == "auto"
           else _parse(int, args.ell, "--ell"))
    if len(series) < ell:
        raise ValidationError(f"series of length {len(series)} is shorter than ell={ell}")
    normalized = not args.unnormalized
    _run_record(args, {"input": args.input, "ell": ell, "normalized": normalized})
    out = {
        "pe": permutation_entropy(series, ell, normalized=normalized),
        "wpe": weighted_permutation_entropy(series, ell, normalized=normalized),
        "ell": ell,
        "normalized": normalized,
    }
    print(json.dumps(out))
    return 0


# --------------------------------------------------------------------------
# topology

def _add_topology(sub):
    p = _command(sub, "topology", run_topology, "witness-complex homology analyses")
    p.add_argument("--mode", required=True, choices=("barcode", "betti", "lifespan"))
    p.add_argument("--cloud", help="point-cloud CSV (rows of coordinates)")
    p.add_argument("--series", help="series file (reconstructed via --m/--tau)")
    p.add_argument("--m", type=int, help="reconstruction dimension for --series")
    p.add_argument("--m-range", help="dimension range a:b (lifespan mode)")
    p.add_argument("--tau", type=int, help="reconstruction delay")
    p.add_argument("--ell", type=int, default=200, help="landmark count")
    p.add_argument("--landmarks", default="equally_spaced",
                   choices=LANDMARK_STRATEGIES)
    p.add_argument("--seed", type=int, help="seed for random landmarks")
    p.add_argument("--xi", type=float, help="diameter fraction (betti, lifespan)")
    p.add_argument("--xi-grid", type=int, default=100,
                   help="number of scale-grid points (barcode)")
    p.add_argument("--xi-min", type=float, default=2e-4)
    p.add_argument("--xi-max", type=float, default=5e-2)
    p.add_argument("-o", "--output", help="CSV path (barcode, lifespan)")


def _topology_cloud(args) -> np.ndarray:
    if args.cloud and args.series:
        raise ValidationError("give either --cloud or --series, not both")
    if args.cloud:
        return read_rows(args.cloud)
    if args.series:
        if args.m is None or args.tau is None:
            raise ValidationError("--series needs --m and --tau")
        return delay_reconstruct(load_series(args.series), args.m, args.tau).points
    raise ValidationError("topology needs --cloud or --series")


def run_topology(args) -> int:
    header = _run_record(args)

    if args.mode == "lifespan":
        if not (args.series and args.m_range and args.tau is not None
                and args.xi is not None and args.output):
            raise ValidationError(
                "lifespan mode needs --series, --m-range, --tau, --xi and -o")
        if args.landmarks != "equally_spaced" or args.seed is not None:
            raise ValidationError("lifespan mode places its own equally spaced "
                                  "landmarks; drop --landmarks and --seed")
        series = load_series(args.series)
        spans = edge_lifespan_diagram(series, _parse_range(args.m_range),
                                      args.tau, args.xi, args.ell)
        rows = ["i,j,delta_m"]
        for i in range(args.ell):
            for j in range(i + 1, args.ell):
                rows.append(f"{i},{j},{spans[i, j]}")
        write_lines(args.output, header, rows)
        print(f"wrote {len(rows) - 1} edge lifespans to {args.output}")
        return 0

    cloud = _topology_cloud(args)
    landmarks = select_landmarks(cloud, args.ell, strategy=args.landmarks,
                                 seed=args.seed)
    if args.mode == "betti":
        if args.xi is None:
            raise ValidationError("betti mode needs --xi")
        eps = scaled_epsilon(args.xi, cloud)
        snapshot = build_complex(cloud, landmarks, eps)
        b0, b1 = betti_numbers(snapshot)
        print(json.dumps({"beta0": b0, "beta1": b1, "epsilon": eps,
                          "edges": int(snapshot.edges.shape[0]),
                          "triangles": int(snapshot.triangles.shape[0])}))
        return 0

    # barcode
    if not args.output:
        raise ValidationError("barcode mode needs -o")
    # comparisons with nan are false, so this also rejects non-finite ends
    if args.xi_grid < 1 or not 0 < args.xi_min < args.xi_max < np.inf:
        raise ValidationError("need xi_grid >= 1 and 0 < xi_min < xi_max < inf")
    diameter = scaled_epsilon(1.0, cloud)
    if args.xi_grid > 1 and diameter == 0.0:
        raise ValidationError("the cloud has zero diameter, so every scale is 0")
    eps_grid = np.geomspace(args.xi_min, args.xi_max, args.xi_grid) * diameter
    bc0, bc1 = epsilon_barcode(cloud, landmarks, eps_grid)
    rows = list(bc0.to_csv_rows()) + list(bc1.to_csv_rows())[1:]
    write_lines(args.output, header, rows)
    print(f"wrote {len(rows) - 1} intervals to {args.output}")
    return 0


# --------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: a parser is a cycle only gc.collect frees."""
    parser = _Parser(prog="delaykit",
                     description="nonlinear time-series reconstruction, "
                                 "forecasting, and topology toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_sweep(sub)
    _add_select(sub)
    _add_forecast(sub)
    _add_wpe(sub)
    _add_topology(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        # by name at call time, so a replaced ``run_*`` is the one called
        return globals()[args.func](args)
    except (ValidationError, SeriesFormatError, CapacityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DelayKitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
