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
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .embedding_params import (
    FnnConfig,
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
    atau_surface,
    autocorrelation,
    permutation_entropy,
    run_grid,
    select_word_length,
    td_mutual_information_curve,
    weighted_permutation_entropy,
)
from .forecast import rolling_evaluate
from .systems import (
    FLOW_DEFAULTS,
    MAP_DEFAULTS,
    FlowSpec,
    MapSpec,
    default_initial_state,
    generate_flow_trace,
    generate_map_trace,
)
from .timeseries import delay_reconstruct, load_series, read_rows, save_series
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


@dataclass
class ExperimentConfig:
    """Resolved parameters of one command, validated before computation."""

    command: str
    params: dict

    def header_lines(self) -> list[str]:
        lines = [f"delaykit {self.command}"]
        lines += [f"{key}={self.params[key]}" for key in sorted(self.params)]
        return lines

    def dump(self, path: str | None) -> None:
        """Write ``key=value`` lines to ``path``; no path, no file."""
        if not path:
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"command={self.command}\n")
            for key in sorted(self.params):
                fh.write(f"{key}={self.params[key]}\n")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


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


def _write_lines(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(f"{row}\n")


# --------------------------------------------------------------------------
# generate

def _add_generate(sub):
    p = sub.add_parser("generate", help="synthesize a benchmark trace",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--system", required=True, choices=FLOWS + MAPS)
    p.add_argument("--dt", type=float, default=1.0 / 64.0, help="flow time step")
    p.add_argument("--steps", type=int, default=10000, help="flow sample count")
    p.add_argument("--n", type=int, default=10000, help="map iterate count")
    p.add_argument("--transient", type=int, default=0,
                   help="leading samples to discard")
    p.add_argument("--observed-index", type=int, default=0,
                   help="state coordinate to observe (flows)")
    p.add_argument("--sigma", type=float, help="lorenz63 sigma")
    p.add_argument("--rho", type=float, help="lorenz63 rho")
    p.add_argument("--beta", type=float, help="lorenz63 beta")
    p.add_argument("--K", type=int, help="lorenz96 dimension")
    p.add_argument("--F", type=float, help="lorenz96 forcing")
    p.add_argument("--a", type=float, help="rossler/henon a")
    p.add_argument("--b", type=float, help="rossler/henon b")
    p.add_argument("--c", type=float, help="rossler c")
    p.add_argument("--r", type=float, help="logistic r")
    p.add_argument("--x0", type=str,
                   help="comma-separated initial state; omit to draw from --seed")
    p.add_argument("--seed", type=int,
                   help="seed for the initial condition (required without --x0)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dump-config", metavar="PATH")
    p.set_defaults(func=run_generate)


def _system_params(args) -> dict:
    names = {**FLOW_DEFAULTS, **MAP_DEFAULTS}[args.system]
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def run_generate(args) -> int:
    params = _system_params(args)
    is_flow = args.system in FLOWS
    if is_flow:
        # validated before drawing x0, which needs a sound K
        spec = FlowSpec(args.system, params, dt=args.dt, steps=args.steps,
                        transient=args.transient,
                        observed_index=args.observed_index)
        params = spec.params

    if args.x0 is not None:
        x0 = np.array([_parse(float, v, "--x0 entry") for v in args.x0.split(",")])
    elif args.seed is not None:
        x0 = default_initial_state(args.system, params, args.seed)
    else:
        raise ValidationError("provide --x0 or --seed")
    if not is_flow:
        spec = MapSpec(args.system, params, x0=tuple(x0), n=args.n,
                       transient=args.transient)

    config = ExperimentConfig("generate", {
        "system": args.system, **spec.params,
        **({"dt": args.dt, "steps": args.steps} if is_flow else {"n": args.n}),
        "transient": args.transient,
        "x0": ",".join(f"{v:.17g}" for v in x0),
        "seed": args.seed,
    })
    config.dump(args.dump_config)

    if is_flow:
        series = generate_flow_trace(spec, x0)
    else:
        series = generate_map_trace(spec)
    save_series(series, args.output, header_lines=config.header_lines())
    print(f"wrote {len(series)} samples to {args.output}")
    return 0


# --------------------------------------------------------------------------
# sweep

def _add_sweep(sub):
    p = sub.add_parser("sweep", help="grid sweep of information storage or forecast error",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--mode", required=True, choices=("atau", "mase"))
    p.add_argument("-i", "--input", required=True, help="series file")
    p.add_argument("--m", required=True, help="dimension range a:b")
    p.add_argument("--tau", required=True, help="delay range a:b")
    p.add_argument("--h", type=int, default=1, help="prediction horizon")
    p.add_argument("--k", type=int, default=4, help="KSG neighbor count (atau)")
    p.add_argument("--max-samples", type=int, default=20000,
                   help="per-cell subsample cap for atau (uniform stride)")
    p.add_argument("--split", type=float, default=0.9,
                   help="train fraction for mase mode")
    p.add_argument("--theiler", type=int, default=0,
                   help="temporal exclusion for mase mode")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("-o", "--output", required=True, help="grid CSV path")
    p.add_argument("--argmax-json", metavar="PATH",
                   help="write the best cell (max for atau, min for mase)")
    p.add_argument("--dump-config", metavar="PATH")
    p.set_defaults(func=run_sweep)


def _mase_cell(values, m, tau, h, fraction, theiler):
    run = rolling_evaluate(values, fraction, "lma", h=h, m=m, tau=tau,
                           theiler=theiler)
    return run.score.value


def run_sweep(args) -> int:
    m_values = _parse_range(args.m)
    tau_values = _parse_range(args.tau)
    if args.h < 1 or args.k < 1:
        raise ValidationError("h and k must be positive")
    if not 0.0 < args.split < 1.0:
        raise ValidationError("split must lie in (0, 1)")
    series = load_series(args.input)
    config = ExperimentConfig("sweep", {
        "mode": args.mode, "input": args.input, "m": args.m, "tau": args.tau,
        "h": args.h, "k": args.k, "max_samples": args.max_samples,
        "split": args.split, "theiler": args.theiler, "jobs": args.jobs,
    })
    config.dump(args.dump_config)

    if args.mode == "atau":
        grid = atau_surface(series, m_values, tau_values, h=args.h, k=args.k,
                            max_samples=args.max_samples, jobs=args.jobs)
        best = grid.argbest("max")
    else:
        cell = partial(_mase_cell, h=args.h, fraction=args.split,
                       theiler=args.theiler)
        grid = run_grid(cell, series, m_values, tau_values, args.jobs,
                        {"quantity": "h_mase", "h": args.h})
        best = grid.argbest("min")

    _write_lines(args.output, config.header_lines(), grid.to_csv_rows())
    if args.argmax_json:
        payload = {"mode": args.mode, "m": best[0], "tau": best[1], "value": best[2]}
        with open(args.argmax_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(f"wrote {len(m_values) * len(tau_values)} cells to {args.output}; "
          f"best cell m={best[0]} tau={best[1]} value={best[2]:.6g}")
    return 0


# --------------------------------------------------------------------------
# select-params

def _add_select(sub):
    p = sub.add_parser("select-params", help="tau/m selection heuristics",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--method", required=True,
                   choices=("first_min_mi", "first_zero_autocorr", "fnn",
                            "atau_optimal"))
    p.add_argument("-i", "--input", required=True, help="series file")
    p.add_argument("--tau-max", type=int, default=100,
                   help="scan limit for the tau heuristics")
    p.add_argument("--tau", type=int, help="fixed delay for the fnn method")
    p.add_argument("--m-max", type=int, default=10, help="fnn dimension cap")
    p.add_argument("--r-tol", type=float, default=10.0)
    p.add_argument("--a-tol", type=float, default=2.0)
    p.add_argument("--threshold", type=float, default=0.10,
                   help="acceptable false-neighbor fraction")
    p.add_argument("--m-range", default="1:8", help="atau dimension range a:b")
    p.add_argument("--tau-range", default="1:10", help="atau delay range a:b")
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--max-samples", type=int, default=20000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--curve-csv", metavar="PATH",
                   help="also write the full selection curve or grid")
    p.add_argument("--dump-config", metavar="PATH")
    p.set_defaults(func=run_select_params)


def run_select_params(args) -> int:
    series = load_series(args.input)
    config = ExperimentConfig("select-params", {
        "method": args.method, "input": args.input, "tau_max": args.tau_max,
        "tau": args.tau, "m_max": args.m_max, "r_tol": args.r_tol,
        "a_tol": args.a_tol, "threshold": args.threshold,
        "m_range": args.m_range, "tau_range": args.tau_range,
        "h": args.h, "k": args.k,
    })
    config.dump(args.dump_config)

    curve_rows = None
    if args.method == "first_min_mi":
        choice = tau_first_min_mi(series, args.tau_max)
        curve = td_mutual_information_curve(series, args.tau_max)
        # rounding can leave the estimate a hair below zero; reports clamp
        curve_rows = ["tau,mi_bits"] + [f"{t},{max(0.0, v)!r}" for t, v in curve]
    elif args.method == "first_zero_autocorr":
        choice = tau_first_zero_autocorr(series, args.tau_max)
        curve_rows = ["tau,autocorrelation"] + [
            f"{t},{autocorrelation(series, t)!r}"
            for t in range(args.tau_max + 1)
        ]
    elif args.method == "fnn":
        if args.tau is None:
            raise ValidationError("fnn requires --tau")
        fnn = FnnConfig(r_tol=args.r_tol, a_tol=args.a_tol,
                        fraction_threshold=args.threshold, m_max=args.m_max)
        choice = estimate_m_fnn(series, args.tau, fnn)
        curve_rows = ["m,fnn_fraction"] + [
            f"{m},{fnn_fraction(series, m, args.tau, fnn)!r}"
            for m in range(1, choice.m + 1)
        ]
    else:
        choice = atau_optimal_params(series, _parse_range(args.m_range),
                                     _parse_range(args.tau_range), h=args.h,
                                     k=args.k, max_samples=args.max_samples,
                                     jobs=args.jobs)
        if args.curve_csv:
            grid = atau_surface(series, _parse_range(args.m_range),
                                _parse_range(args.tau_range), h=args.h,
                                k=args.k, max_samples=args.max_samples,
                                jobs=args.jobs)
            curve_rows = list(grid.to_csv_rows())

    if args.curve_csv and curve_rows:
        _write_lines(args.curve_csv, config.header_lines(), curve_rows)
    print(json.dumps({"method": choice.method, "m": choice.m,
                      "tau": choice.tau, "score": choice.score}))
    return 0


# --------------------------------------------------------------------------
# forecast

def _add_forecast(sub):
    p = sub.add_parser("forecast", help="rolling forecast of a series file",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--method", required=True,
                   choices=("random_walk", "naive", "lma", "ar"))
    p.add_argument("-i", "--input", required=True, help="series file")
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
    p.add_argument("--dump-config", metavar="PATH")
    p.set_defaults(func=run_forecast)


def run_forecast(args) -> int:
    series = load_series(args.input)
    config = ExperimentConfig("forecast", {
        "method": args.method, "input": args.input, "split": args.split,
        "h": args.h, "m": args.m, "tau": args.tau, "theiler": args.theiler,
        "order": args.order, "refit_every": args.refit_every,
    })
    config.dump(args.dump_config)

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
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.csv:
        rows = ["index,prediction,truth"] + [
            f"{run.train_length + i},{p:.17g},{c:.17g}"
            for i, (p, c) in enumerate(zip(run.predictions, run.truth))
        ]
        _write_lines(args.csv, config.header_lines(), rows)
    print(text)
    return 0


# --------------------------------------------------------------------------
# wpe

def _add_wpe(sub):
    p = sub.add_parser("wpe", help="permutation-entropy predictability screen",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("-i", "--input", required=True, help="series file")
    p.add_argument("--ell", default="auto",
                   help="word length, or 'auto' for the sampling rule")
    p.add_argument("--unnormalized", action="store_true",
                   help="report raw bits instead of the [0,1] normalization")
    p.add_argument("--dump-config", metavar="PATH")
    p.set_defaults(func=run_wpe)


def run_wpe(args) -> int:
    series = load_series(args.input)
    ell = (select_word_length(len(series)) if args.ell == "auto"
           else _parse(int, args.ell, "--ell"))
    if len(series) < ell:
        raise ValidationError(f"series of length {len(series)} is shorter than ell={ell}")
    config = ExperimentConfig("wpe", {
        "input": args.input, "ell": ell, "normalized": not args.unnormalized,
    })
    config.dump(args.dump_config)
    normalized = not args.unnormalized
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
    p = sub.add_parser("topology", help="witness-complex homology analyses",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
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
    p.add_argument("--dump-config", metavar="PATH")
    p.set_defaults(func=run_topology)


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
    config = ExperimentConfig("topology", {
        "mode": args.mode, "cloud": args.cloud, "series": args.series,
        "m": args.m, "m_range": args.m_range, "tau": args.tau,
        "ell": args.ell, "landmarks": args.landmarks, "seed": args.seed,
        "xi": args.xi, "xi_grid": args.xi_grid, "xi_min": args.xi_min,
        "xi_max": args.xi_max,
    })
    config.dump(args.dump_config)

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
        _write_lines(args.output, config.header_lines(), rows)
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
    xis = np.geomspace(args.xi_min, args.xi_max, args.xi_grid)
    eps_grid = [scaled_epsilon(x, cloud) for x in xis]
    bc0, bc1 = epsilon_barcode(cloud, landmarks, eps_grid)
    rows = list(bc0.to_csv_rows()) + list(bc1.to_csv_rows())[1:]
    _write_lines(args.output, config.header_lines(), rows)
    print(f"wrote {len(rows) - 1} intervals to {args.output}")
    return 0


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
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
