"""One workload in a fresh process: set up, run timed passes, check outputs.

Started by ``run.py``; prints one JSON object as its last stdout line.
Peak memory is this process's high-water mark plus that of its largest
child (the ``--jobs`` pool workers), so each workload is measured in a
process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from delaykit import (  # noqa: E402
    cli,
    embedding_params,
    estimators,
    forecast,
    metrics,
    systems,
    timeseries,
    topology,
)

# Input builds before and after the passes; see IMPORT_PROBES in run.py.
SETUP_REPEATS = (2, 3)
MIN_PASSES = 3
MIN_PAIRS = 2  # a traced run's minimum of untraced/traced pass pairs
DELAYKIT = {"systems": systems, "timeseries": timeseries, "estimators": estimators,
            "embedding_params": embedding_params, "forecast": forecast,
            "metrics": metrics, "topology": topology, "cli": cli}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def load_reference(name: str, seed: int):
    path = HERE / "references.json"
    with open(path, encoding="utf-8") as fh:
        refs = json.load(fh)
    return refs.get(name, {}).get(str(seed))


def json_safe(record):
    """Records as they round-trip through JSON (tuples become lists)."""
    return json.loads(json.dumps(record))


class Checker:
    """Counts operations attempted and failed across passes.

    Pass 1 is checked structurally (properties true for every seed) and
    against the recorded reference when the seed has one; every later pass
    must reproduce the reference, or pass 1 when there is none.
    """

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.first = None
        self.structural_bad: dict = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, raw: dict) -> None:
        record = json_safe(self.workload.summarize(self.inputs, raw))
        if self.first is None:
            self.structural_bad = self.workload.check(self.inputs, raw, record)
            self.first = record
            self._self_test(record)
        expected = self.reference if self.reference is not None else self.first
        for op in self.workload.OPS:
            self.attempted += 1
            problem = None
            if op not in raw:
                problem = "not run: a step it depends on failed"
            elif isinstance(raw[op], workloads.OpFailed):
                problem = str(raw[op])
            elif op not in record:
                problem = "no output"
            elif op in self.structural_bad:
                problem = self.structural_bad[op]
            elif op not in expected:
                problem = "no reference output"
            else:
                mismatch = checks.compare(record[op], expected[op])
                problem = "; ".join(mismatch) if mismatch else None
            if problem is not None:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{op}: {problem}")

    def _self_test(self, record: dict) -> None:
        """A perturbed copy of every output must be reported as wrong."""
        for op, rec in record.items():
            if not checks.compare(checks.perturb(rec), rec):
                raise SystemExit(f"checker self-test: a perturbed {op} output "
                                 "was not detected")


def _timed_pass(workload, inputs, check) -> tuple[float, float, float]:
    """Wall, calibrated and CPU time of one pass; the speed samples'
    time is left out of all three."""
    cpu0 = _cpu_s()
    with speed.Meter() as meter:
        raw = workload.run(inputs)
    cpu = _cpu_s() - cpu0 - meter.sampling
    check(raw)
    return meter.wall, meter.calibrated, cpu


def run_passes(workload, inputs, check, budget_s: float, recorder=None):
    """Repeat passes until their wall times sum to ``budget_s``.

    With a recorder, untraced and traced passes alternate, so drift in the
    shared machine's speed affects both sides of the overhead ratio alike.
    """
    walls, cals, cpus, traced = [], [], [], []
    targets = (tracing.delaykit_targets(recorder, DELAYKIT)
               if recorder is not None else None)
    least = MIN_PASSES if recorder is None else MIN_PAIRS
    while len(walls) < least or sum(walls) + sum(traced) < budget_s:
        wall, cal, cpu = _timed_pass(workload, inputs, check)
        walls.append(wall)
        cals.append(cal)
        cpus.append(cpu)
        if targets is not None:
            with tracing.Patched(targets):
                traced.append(_timed_pass(workload, inputs, check)[0])
    return walls, cals, cpus, traced


def timed_builds(workload, seed: int, count: int):
    """The inputs, and the wall and calibrated time of each build."""
    walls, cals = [], []
    for _ in range(count):
        with speed.Meter() as meter:
            inputs = workload.build(seed)
        walls.append(meter.wall)
        cals.append(meter.calibrated)
    return inputs, walls, cals


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("name", "unknown")),
        "jobs": {"l96_workflow sweep": workloads.SWEEP_JOBS, "everything else": 1},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "note": f"{nproc} cores, shared load",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    load_before = os.getloadavg()
    workload = workloads.make(args.workload, args.workdir)
    try:
        inputs, build_walls, builds = timed_builds(workload, args.seed,
                                                   SETUP_REPEATS[0])
        reference = load_reference(args.workload, args.seed)
        check = Checker(workload, inputs, reference)

        recorder = tracing.Recorder() if args.trace else None
        walls, cals, cpus, traced = run_passes(workload, inputs, check,
                                               args.seconds, recorder)
        _, more_walls, more = timed_builds(workload, args.seed, SETUP_REPEATS[1])
        result = {"build_s": builds + more, "build_walls": build_walls + more_walls,
                  "walls": walls, "cal_walls": cals, "cpus": cpus}
        if recorder is not None:
            layers = tracing.layer_metrics(recorder.spans, len(traced),
                                           statistics.fmean(traced))
            layers["bench.cpu_s"] = statistics.median(cpus)
            layers["bench.trace_overhead_frac"] = (statistics.median(traced)
                                                   / statistics.median(walls) - 1.0)
            result.update(traced_walls=traced, layers=layers)
    finally:
        workload.close()
    result.update(
        peak_rss_mb=_peak_rss_mb(),
        attempted=check.attempted,
        failed=check.failed,
        failures=check.messages,
        reference=("recorded" if reference is not None
                   else "none: structural and cross-pass checks only"),
        environment=environment(),
        loadavg={"before": load_before, "after": os.getloadavg()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
