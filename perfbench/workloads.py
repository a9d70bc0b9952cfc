"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (``build``), runs one
timed pass through delaykit's public functions (``run``), turns the raw
results into output records after the clock stops (``summarize``), and
checks the records for properties that hold for every seed (``check``).

delaykit receives only inputs generated here from the seed: initial states
come from this module's own generator, never from
``systems.default_initial_state``. Modules are called through their module
attribute (``estimators.atau_surface``, ``cli.main``) so that the traced
pass sees every call.

Sizes are fixed per workload and stated in ``SIZE``; they are the full
workflow scaled so that several passes fit one measured run.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import speed
from checks import mase_oracle, rw_mase_oracle, sha256_of
from delaykit import (
    cli,
    embedding_params,
    estimators,
    forecast,
    systems,
    timeseries,
    topology,
)

DEFAULT_SEED = 0
HELD_OUT_SEED = 1

L96 = {"K": 22, "F": 5.0}
SWEEP_JOBS = 2  # the workflow's sweep; everything else runs at jobs=1


class OpFailed(Exception):
    """An operation raised, exited non-zero, or was skipped after an
    earlier step it depends on failed."""


def _stream(seed: int, workload: str) -> np.random.Generator:
    """The workload's own random stream for ``seed``."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _x0(rng: np.random.Generator, system: str) -> np.ndarray:
    """On-basin initial state for ``system``, drawn from the benchmark's own
    stream. The flows and the logistic map use the library's seeded
    distributions. Hénon states come from the box [-0.1, 0.1]^2, which lies
    inside the basin, instead of the library's 0.1 * N(0, 1): about one
    normal draw in 800 falls outside the basin and diverges."""
    if system == "lorenz96":
        return L96["F"] + 0.1 * rng.standard_normal(L96["K"])
    if system == "lorenz63":
        return np.array([1.0, 1.0, 1.0]) + rng.standard_normal(3)
    if system == "rossler":
        return np.array([10.0, 0.0, 0.0]) + 0.5 * rng.standard_normal(3)
    if system == "henon":
        return rng.uniform(-0.1, 0.1, 2)
    if system == "logistic":
        return np.array([rng.uniform(0.05, 0.95)])
    raise ValueError(system)


def _attempt(raw: dict, name: str, fn, *args, **kwargs):
    """Run one operation, storing its result or its failure under ``name``."""
    try:
        raw[name] = fn(*args, **kwargs)
    except Exception as err:  # a failed operation is counted, not fatal
        raw[name] = OpFailed(f"{type(err).__name__}: {err}")
    speed.boundary()
    return raw[name]


def _ok(value) -> bool:
    return not isinstance(value, OpFailed)


def _done(raw: dict, op: str) -> bool:
    return op in raw and _ok(raw[op])


def _word_length(n: int) -> int:
    """The sampling rule the predictability screen documents:
    largest ell in 2..8 with n >= 100 * ell!."""
    best, fact = 2, 1
    for ell in range(2, 9):
        fact *= ell
        if n >= 100 * fact:
            best = ell
    return best


def _argmax_cell(cells: list[tuple[int, int]], values: list[float]) -> list[int]:
    # ties prefer the smallest m, then the smallest tau
    best = max(values)
    return list(min(c for c, v in zip(cells, values) if v == best))


# --------------------------------------------------------------------------


@dataclass
class CliResult:
    """Standard output of one successful ``cli.main`` call."""

    out: str

    def json(self) -> dict:
        return json.loads(self.out.strip().splitlines()[-1])


def _cli(argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return CliResult(out.getvalue())


def _read_series(path: str) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=1)


def _read_table(path: str) -> np.ndarray:
    """A CSV output without its ``#`` metadata and header row; empty
    fields (missing sweep cells) read as NaN."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if not line.startswith("#")]
    return np.array([[float(v) if v else np.nan for v in row.split(",")]
                     for row in rows[1:]])


class Workload:
    """Interface every workload follows; see the module docstring."""

    name: str
    SIZE: dict

    def close(self) -> None:
        """Remove whatever ``build`` left on disk."""


class L96Workflow(Workload):
    """The README quick start driven through ``cli.main`` with files in a
    scratch directory inside the checkout."""

    name = "l96_workflow"
    SIZE = {"steps": 7000, "transient": 2000, "split": 0.7,
            "sweep_m": "1:4", "sweep_tau": "1:5", "tau_max": 60,
            "ell": 200, "xi": 0.01}
    OPS = ("generate", "wpe", "select_mi", "select_fnn", "sweep",
           "forecast_lma_best", "forecast_lma_heuristic", "forecast_ar",
           "topology_betti")

    def __init__(self, workdir: str):
        self.workdir = workdir

    def build(self, seed: int) -> dict:
        x0 = _x0(_stream(seed, self.name), "lorenz96")
        os.makedirs(self.workdir, exist_ok=True)
        path = lambda name: os.path.join(self.workdir, name)  # noqa: E731
        return {"x0": ",".join(f"{v:.17g}" for v in x0), "path": path}

    def run(self, inp: dict) -> dict:
        s, p = self.SIZE, inp["path"]
        series = p("l96.txt")
        raw: dict = {}
        _attempt(raw, "generate", _cli, [
            "generate", "--system", "lorenz96", "--K", L96["K"], "--F", L96["F"],
            "--dt", 0.015625, "--steps", s["steps"], "--transient", s["transient"],
            "--x0", inp["x0"], "-o", series])
        if not _ok(raw["generate"]):
            return raw
        _attempt(raw, "wpe", _cli, ["wpe", "-i", series])
        _attempt(raw, "select_mi", _cli, [
            "select-params", "--method", "first_min_mi", "-i", series,
            "--tau-max", s["tau_max"]])
        if _done(raw, "select_mi"):
            tau = raw["select_mi"].json()["tau"]
            _attempt(raw, "select_fnn", _cli, [
                "select-params", "--method", "fnn", "--tau", tau, "-i", series])
        _attempt(raw, "sweep", _cli, [
            "sweep", "--mode", "atau", "-i", series, "--m", s["sweep_m"],
            "--tau", s["sweep_tau"], "--jobs", SWEEP_JOBS, "-o", p("grid.csv"),
            "--argmax-json", p("best.json")])
        if _done(raw, "sweep"):
            with open(p("best.json"), encoding="utf-8") as fh:
                best = json.load(fh)
            _attempt(raw, "forecast_lma_best", _cli, [
                "forecast", "--method", "lma", "--m", best["m"], "--tau", best["tau"],
                "--split", s["split"], "-i", series, "--csv", p("lma_best.csv")])
        if _done(raw, "select_fnn"):
            _attempt(raw, "forecast_lma_heuristic", _cli, [
                "forecast", "--method", "lma", "--m", raw["select_fnn"].json()["m"],
                "--tau", tau,
                "--split", s["split"], "-i", series, "--csv", p("lma_heur.csv")])
        _attempt(raw, "forecast_ar", _cli, [
            "forecast", "--method", "ar", "--split", s["split"], "-i", series,
            "--csv", p("ar.csv")])
        if _done(raw, "select_mi"):
            _attempt(raw, "topology_betti", _cli, [
                "topology", "--mode", "betti", "--series", series, "--m", 2,
                "--tau", tau, "--ell", s["ell"], "--xi", s["xi"]])
        return raw

    def summarize(self, inp: dict, raw: dict) -> dict:
        p = inp["path"]
        rec: dict = {}
        if _done(raw, "generate"):
            values = _read_series(p("l96.txt"))
            rec["generate"] = {"samples": int(values.size), "sha256": sha256_of(values)}
        if _done(raw, "wpe"):
            out = raw["wpe"].json()
            rec["wpe"] = {"pe": out["pe"], "wpe": out["wpe"], "ell": out["ell"]}
        if _done(raw, "select_mi"):
            out = raw["select_mi"].json()
            rec["select_mi"] = {"m": out["m"], "tau": out["tau"]}
        if _done(raw, "select_fnn"):
            out = raw["select_fnn"].json()
            rec["select_fnn"] = {"m": out["m"], "tau": out["tau"]}
        if _done(raw, "sweep"):
            grid = _read_table(p("grid.csv"))
            with open(p("best.json"), encoding="utf-8") as fh:
                best = json.load(fh)
            rec["sweep"] = {"cells": [[int(m), int(t)] for m, t, _ in grid],
                            "atau": [float(v) for v in grid[:, 2]],
                            "argmax": [best["m"], best["tau"]]}
        for op in ("forecast_lma_best", "forecast_lma_heuristic", "forecast_ar"):
            if _done(raw, op):
                out = raw[op].json()
                rec[op] = {"mase": out["h_mase"], "n_test": out["n_test"],
                           "params": out["params"]}
        if _done(raw, "topology_betti"):
            out = raw["topology_betti"].json()
            rec["topology_betti"] = {"beta0": out["beta0"], "beta1": out["beta1"],
                                     "edges": out["edges"],
                                     "triangles": out["triangles"]}
        return rec

    def check(self, inp: dict, raw: dict, rec: dict) -> dict:
        s, p = self.SIZE, inp["path"]
        bad: dict = {}
        n = s["steps"] - s["transient"]
        gen = rec.get("generate")
        if gen and gen["samples"] != n:
            bad["generate"] = f"{gen['samples']} samples, expected {n}"
        series = _read_series(p("l96.txt")) if gen else None
        if "wpe" in rec:
            w = rec["wpe"]
            if not (0 <= w["pe"] <= 1 and 0 <= w["wpe"] <= 1):
                bad["wpe"] = "entropy outside [0, 1]"
            elif w["ell"] != _word_length(n):
                bad["wpe"] = f"ell {w['ell']} != sampling rule {_word_length(n)}"
        if "select_mi" in rec and not 1 <= rec["select_mi"]["tau"] <= s["tau_max"]:
            bad["select_mi"] = "tau outside 1..tau_max"
        if "select_fnn" in rec and not 1 <= rec["select_fnn"]["m"] <= 10:
            bad["select_fnn"] = "m outside 1..10"
        if "sweep" in rec:
            sw = rec["sweep"]
            cells = [tuple(c) for c in sw["cells"]]
            if len(cells) != 20 or not np.all(np.isfinite(sw["atau"])):
                bad["sweep"] = "grid incomplete"
            elif sw["argmax"] != _argmax_cell(cells, sw["atau"]):
                bad["sweep"] = f"argmax {sw['argmax']} is not the grid maximum"
        for op, csv in (("forecast_lma_best", "lma_best.csv"),
                        ("forecast_lma_heuristic", "lma_heur.csv"),
                        ("forecast_ar", "ar.csv")):
            if op not in rec or series is None:
                continue
            rows = _read_table(p(csv))
            n_train = int(np.floor(s["split"] * n))
            if not np.array_equal(rows[:, 2], series[n_train:]):
                bad[op] = "truth column does not match the series"
                continue
            oracle = mase_oracle(rows[:, 1], rows[:, 2], series[:n_train])
            if abs(oracle - rec[op]["mase"]) > 1e-9 * oracle:
                bad[op] = f"h_mase {rec[op]['mase']!r} != oracle {oracle!r}"
        if "topology_betti" in rec:
            t = rec["topology_betti"]
            if not (1 <= t["beta0"] <= s["ell"] and t["beta1"] >= 0):
                bad["topology_betti"] = "Betti numbers out of range"
        return bad

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class ParamSelection(Workload):
    """KSG-driven parameter selection on traces built in setup."""

    name = "param_selection"
    SIZE = {"henon_n": 1200, "logistic_n": 1200, "map_transient": 1000,
            "henon_m": range(1, 9), "henon_tau": range(1, 11),
            "logistic_m": range(1, 9), "logistic_tau": range(1, 6),
            "l96_steps": 3500, "l96_transient": 1000, "l96_tau": range(1, 31),
            "tau_max": 60}
    OPS = ("henon_atau", "logistic_atau", "l96_surface", "l96_mi_tau", "l96_fnn_m")

    def build(self, seed: int) -> dict:
        s = self.SIZE
        rng = _stream(seed, self.name)
        henon = systems.generate_map_trace(systems.MapSpec(
            "henon", x0=tuple(_x0(rng, "henon")),
            n=s["henon_n"] + s["map_transient"], transient=s["map_transient"]))
        logistic = systems.generate_map_trace(systems.MapSpec(
            "logistic", x0=tuple(_x0(rng, "logistic")),
            n=s["logistic_n"] + s["map_transient"], transient=s["map_transient"]))
        l96 = systems.generate_flow_trace(systems.FlowSpec(
            "lorenz96", L96, dt=1 / 64, steps=s["l96_steps"],
            transient=s["l96_transient"]), _x0(rng, "lorenz96"))
        return {"henon": henon, "logistic": logistic, "l96": l96}

    def run(self, inp: dict) -> dict:
        s = self.SIZE
        raw: dict = {}
        _attempt(raw, "henon_atau", embedding_params.atau_optimal_params,
                 inp["henon"], s["henon_m"], s["henon_tau"])
        _attempt(raw, "logistic_atau", embedding_params.atau_optimal_params,
                 inp["logistic"], s["logistic_m"], s["logistic_tau"])
        _attempt(raw, "l96_surface", estimators.atau_surface,
                 inp["l96"], [2], s["l96_tau"])
        mi = _attempt(raw, "l96_mi_tau", embedding_params.tau_first_min_mi,
                      inp["l96"], s["tau_max"])
        if _ok(mi):
            _attempt(raw, "l96_fnn_m", embedding_params.estimate_m_fnn,
                     inp["l96"], mi.tau)
        return raw

    def summarize(self, inp: dict, raw: dict) -> dict:
        rec: dict = {}
        for op in ("henon_atau", "logistic_atau"):
            if _ok(raw[op]):
                rec[op] = {"m": raw[op].m, "tau": raw[op].tau, "atau": raw[op].score}
        if _ok(raw["l96_surface"]):
            grid = raw["l96_surface"]
            m, tau, _ = grid.argbest("max")
            rec["l96_surface"] = {"atau": [float(v) for v in grid.values.ravel()],
                                  "argmax": [m, tau]}
        if _ok(raw["l96_mi_tau"]):
            rec["l96_mi_tau"] = {"tau": raw["l96_mi_tau"].tau}
        if _done(raw, "l96_fnn_m"):
            rec["l96_fnn_m"] = {"m": raw["l96_fnn_m"].m}
        return rec

    def check(self, inp: dict, raw: dict, rec: dict) -> dict:
        s = self.SIZE
        bad: dict = {}
        for op, series in (("henon_atau", "henon"), ("logistic_atau", "logistic")):
            if op not in rec:
                continue
            r = rec[op]
            # the selected cell's score is that cell's own estimate
            again = estimators.active_information_storage(
                inp[series], r["m"], r["tau"], max_samples=20000)
            if again != r["atau"]:
                bad[op] = f"score {r['atau']!r} != A_tau at the cell {again!r}"
        if "l96_surface" in rec:
            r = rec["l96_surface"]
            cells = [(2, t) for t in s["l96_tau"]]
            if not np.all(np.isfinite(r["atau"])):
                bad["l96_surface"] = "surface has missing cells"
            elif r["argmax"] != _argmax_cell(cells, r["atau"]):
                bad["l96_surface"] = "argmax is not the surface maximum"
        if "l96_mi_tau" in rec and not 1 <= rec["l96_mi_tau"]["tau"] <= s["tau_max"]:
            bad["l96_mi_tau"] = "tau outside 1..tau_max"
        if "l96_fnn_m" in rec and not 1 <= rec["l96_fnn_m"]["m"] <= 10:
            bad["l96_fnn_m"] = "m outside 1..10"
        return bad


class TraceEnsemble(Workload):
    """Many short traces of every system, each screened for predictability."""

    name = "trace_ensemble"
    SIZE = {"members": 8, "l96_steps": 1000, "l96_transient": 200,
            "l63_steps": 2000, "l63_transient": 200,
            "rossler_steps": 2000, "rossler_transient": 200,
            "map_n": 11000, "map_transient": 1000, "split": 0.9}
    SYSTEMS = ("lorenz96", "lorenz63", "rossler", "henon", "logistic")
    KINDS = ("gen", "pe", "wpe", "rw_mase")

    @property
    def OPS(self):
        return tuple(f"{system}[{i}].{kind}" for i in range(self.SIZE["members"])
                     for system in self.SYSTEMS for kind in self.KINDS)

    def build(self, seed: int) -> dict:
        s = self.SIZE
        rng = _stream(seed, self.name)
        specs = []
        for i in range(s["members"]):
            for system in self.SYSTEMS:
                x0 = _x0(rng, system)
                if system == "lorenz96":
                    spec = systems.FlowSpec(system, L96, dt=1 / 64, steps=s["l96_steps"],
                                            transient=s["l96_transient"])
                elif system == "lorenz63":
                    spec = systems.FlowSpec(system, dt=1 / 64, steps=s["l63_steps"],
                                            transient=s["l63_transient"])
                elif system == "rossler":
                    spec = systems.FlowSpec(system, dt=1 / 16, steps=s["rossler_steps"],
                                            transient=s["rossler_transient"])
                else:
                    spec = systems.MapSpec(system, x0=tuple(x0), n=s["map_n"],
                                           transient=s["map_transient"])
                    x0 = None
                specs.append((f"{system}[{i}]", spec, x0))
        return {"specs": specs}

    def run(self, inp: dict) -> dict:
        raw: dict = {}
        for label, spec, x0 in inp["specs"]:
            if x0 is None:
                series = _attempt(raw, f"{label}.gen", systems.generate_map_trace, spec)
            else:
                series = _attempt(raw, f"{label}.gen", systems.generate_flow_trace,
                                  spec, x0)
            if not _ok(series):
                continue
            ell = estimators.select_word_length(len(series))
            _attempt(raw, f"{label}.pe", estimators.permutation_entropy, series, ell)
            _attempt(raw, f"{label}.wpe", estimators.weighted_permutation_entropy,
                     series, ell)
            _attempt(raw, f"{label}.rw_mase", forecast.rolling_evaluate, series,
                     self.SIZE["split"], "random_walk")
        return raw

    def summarize(self, inp: dict, raw: dict) -> dict:
        rec: dict = {}
        for label, _, _ in inp["specs"]:
            series = raw.get(f"{label}.gen")
            if series is None or not _ok(series):
                continue
            rec[f"{label}.gen"] = {"samples": len(series), "sha256": sha256_of(series.values)}
            ell = estimators.select_word_length(len(series))
            if _ok(raw[f"{label}.pe"]):
                rec[f"{label}.pe"] = {"pe": raw[f"{label}.pe"], "ell": ell}
            if _ok(raw[f"{label}.wpe"]):
                rec[f"{label}.wpe"] = {"wpe": raw[f"{label}.wpe"]}
            if _ok(raw[f"{label}.rw_mase"]):
                rec[f"{label}.rw_mase"] = {"mase": raw[f"{label}.rw_mase"].score.value}
        return rec

    def check(self, inp: dict, raw: dict, rec: dict) -> dict:
        s = self.SIZE
        bad: dict = {}
        for label, spec, x0 in inp["specs"]:
            gen = rec.get(f"{label}.gen")
            if gen is None:
                continue
            n = spec.n - spec.transient if x0 is None else spec.steps - spec.transient
            if gen["samples"] != n:
                bad[f"{label}.gen"] = f"{gen['samples']} samples, expected {n}"
            for kind in ("pe", "wpe"):
                r = rec.get(f"{label}.{kind}")
                if r is not None and not 0.0 <= r[kind] <= 1.0:
                    bad[f"{label}.{kind}"] = "entropy outside [0, 1]"
            pe = rec.get(f"{label}.pe")
            if pe is not None and pe["ell"] != _word_length(n):
                bad[f"{label}.pe"] = "word length breaks the sampling rule"
            if f"{label}.rw_mase" not in rec:
                continue
            series, run = raw[f"{label}.gen"], raw[f"{label}.rw_mase"]
            oracle = rw_mase_oracle(series.values, self.SIZE["split"])
            if abs(run.score.value - oracle) > 1e-9 * oracle:
                bad[f"{label}.rw_mase"] = (f"h_mase {run.score.value!r} != "
                                           f"oracle {oracle!r}")
        return bad


class WitnessTopology(Workload):
    """Witness-complex scale sweeps, dimension sweeps and one large-N
    single-scale query on clouds built in setup."""

    name = "witness_topology"
    SIZE = {"l63_steps": 4500, "l63_transient": 500, "tau_max": 60,
            "barcode_ell": 201, "barcode_landmarks": "max_min",
            "xi_grid": 100, "xi_min": 2e-4, "xi_max": 5e-2,
            "lifespan_m": range(1, 9), "lifespan_ell": 198, "lifespan_xi": 0.0054,
            "large_n": 100_000, "large_ell": 200, "large_xi": 0.01,
            "map_transient": 1000}
    OPS = ("barcode_2d", "barcode_3d", "lifespan", "betti_large")

    def build(self, seed: int) -> dict:
        s = self.SIZE
        rng = _stream(seed, self.name)
        spec = systems.FlowSpec("lorenz63", dt=1 / 64, steps=s["l63_steps"])
        traj = systems.integrate_rk4(spec.field_function(), _x0(rng, "lorenz63"),
                                     spec.dt, spec.steps)[s["l63_transient"]:]
        x = timeseries.ScalarSeries(traj[:, 0], sample_interval=spec.dt)
        tau = embedding_params.tau_first_min_mi(x, s["tau_max"]).tau
        henon = systems.generate_map_trace(systems.MapSpec(
            "henon", x0=tuple(_x0(rng, "henon")),
            n=s["large_n"] + 1 + s["map_transient"], transient=s["map_transient"]))
        return {"series": x, "tau": tau,
                "cloud_2d": timeseries.delay_reconstruct(x, 2, tau).points,
                "cloud_3d": traj,
                "cloud_large": timeseries.delay_reconstruct(henon, 2, 1).points}

    def _barcode(self, cloud):
        s = self.SIZE
        landmarks = topology.select_landmarks(cloud, s["barcode_ell"],
                                              strategy=s["barcode_landmarks"])
        grid = [topology.scaled_epsilon(xi, cloud)
                for xi in np.geomspace(s["xi_min"], s["xi_max"], s["xi_grid"])]
        return grid, topology.epsilon_barcode(cloud, landmarks, grid)

    def _betti_large(self, cloud):
        s = self.SIZE
        landmarks = topology.select_landmarks(cloud, s["large_ell"])
        snapshot = topology.build_complex(
            cloud, landmarks, topology.scaled_epsilon(s["large_xi"], cloud))
        return snapshot, topology.betti_numbers(snapshot)

    def run(self, inp: dict) -> dict:
        s = self.SIZE
        raw: dict = {}
        _attempt(raw, "barcode_2d", self._barcode, inp["cloud_2d"])
        _attempt(raw, "barcode_3d", self._barcode, inp["cloud_3d"])
        _attempt(raw, "lifespan", topology.edge_lifespan_diagram, inp["series"],
                 s["lifespan_m"], inp["tau"], s["lifespan_xi"], s["lifespan_ell"])
        _attempt(raw, "betti_large", self._betti_large, inp["cloud_large"])
        return raw

    def summarize(self, inp: dict, raw: dict) -> dict:
        rec: dict = {}
        for op in ("barcode_2d", "barcode_3d"):
            if _ok(raw[op]):
                grid, (bc0, bc1) = raw[op]
                # compared through count_at on the grid, not as interval lists
                rec[op] = {"beta0_counts": [bc0.count_at(e) for e in grid],
                           "beta1_counts": [bc1.count_at(e) for e in grid]}
        if _ok(raw["lifespan"]):
            spans = np.asarray(raw["lifespan"])
            rec["lifespan"] = {"sha256": sha256_of(spans), "max": int(spans.max()),
                               "nonzero": int(np.count_nonzero(spans))}
        if _ok(raw["betti_large"]):
            snapshot, (b0, b1) = raw["betti_large"]
            rec["betti_large"] = {"beta0": b0, "beta1": b1,
                                  "edges": int(snapshot.edges.shape[0]),
                                  "triangles": int(snapshot.triangles.shape[0])}
        return rec

    def check(self, inp: dict, raw: dict, rec: dict) -> dict:
        s = self.SIZE
        bad: dict = {}
        for op in ("barcode_2d", "barcode_3d"):
            r = rec.get(op)
            if r is None:
                continue
            if not all(1 <= c <= s["barcode_ell"] for c in r["beta0_counts"]) or \
                    min(r["beta1_counts"]) < 0:
                bad[op] = "Betti counts out of range"
        r = rec.get("lifespan")
        if r is not None and not 0 <= r["max"] <= len(s["lifespan_m"]):
            bad["lifespan"] = "lifespan longer than the dimension range"
        r = rec.get("betti_large")
        if r is not None and not (1 <= r["beta0"] <= s["large_ell"] and r["beta1"] >= 0):
            bad["betti_large"] = "Betti numbers out of range"
        # barcode counts against single-scale complexes at three grid scales
        for op, cloud in (("barcode_2d", inp["cloud_2d"]), ("barcode_3d", inp["cloud_3d"])):
            if op not in rec:
                continue
            grid, (bc0, bc1) = raw[op]
            landmarks = topology.select_landmarks(
                cloud, self.SIZE["barcode_ell"], strategy=self.SIZE["barcode_landmarks"])
            for i in (0, len(grid) // 2, len(grid) * 3 // 4):
                b0, b1 = topology.betti_numbers(
                    topology.build_complex(cloud, landmarks, grid[i]))
                if (bc0.count_at(grid[i]), bc1.count_at(grid[i])) != (b0, b1):
                    bad[op] = f"barcode disagrees with the complex at grid[{i}]"
                    break
        if "lifespan" in rec:
            spans = np.asarray(raw["lifespan"])
            if not np.array_equal(spans, spans.T) or np.any(np.diag(spans)):
                bad["lifespan"] = "lifespan matrix not symmetric with empty diagonal"
        return bad


def make(name: str, workdir: str):
    if name == "l96_workflow":
        return L96Workflow(workdir)
    return {"param_selection": ParamSelection, "trace_ensemble": TraceEnsemble,
            "witness_topology": WitnessTopology}[name]()


NAMES = ("l96_workflow", "param_selection", "trace_ensemble", "witness_topology")
