"""delaykit benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload l96_workflow --seed 0 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another. ``--trace 0``
reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb); ``--trace 1``
reports the per-layer metrics of a traced run. The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("l96_workflow", "param_selection", "trace_ensemble", "witness_topology")
DEFAULT_SEED = 0
# Import probes run partly before and partly after the worker, so that a
# short burst of load on the shared machine cannot reach all of them.
IMPORT_PROBES = (2, 3)
WORKER_TIMEOUT_S = 170
# BLAS on one thread, for the probes and the worker. On two shared cores a
# second OpenBLAS thread bought no speed but spun the other core, and made
# passes hostage to whoever else loads it (see README.md). delaykit's own
# parallelism (cKDTree workers, the --jobs pool) is left as it is.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
# Interpreter start plus the imports a user pays before any work. The
# probe prints when its imports were done: perf_counter is the system-wide
# monotonic clock on Linux, and waiting for the process to exit would
# round the time up, since subprocess polls a child that has a timeout at
# intervals of up to 50 ms.
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "import numpy, scipy.spatial, scipy.special, delaykit, delaykit.cli; "
         "import time; print(time.perf_counter())")
# The same start-up without delaykit: the yardstick for the machine's speed
# at process start, run just before each probe. Each probe's time is
# scaled by REFERENCE_PROBE_S over this one's, the yardstick's median on
# the machine the baseline was measured on (see speed.py).
YARDSTICK = ("import numpy, scipy.spatial, scipy.special; "
             "import time; print(time.perf_counter())")
REFERENCE_PROBE_S = 0.40
# Fixed input sizes: the work a pass does, for the derived throughput line.
WORK_UNITS = {
    "l96_workflow": ("CLI workflow passes (5,000-sample Lorenz-96 trace)", 1),
    "param_selection": ("A_tau cells", 8 * 10 + 8 * 5 + 30),
    "trace_ensemble": ("traces", 40),
    "witness_topology": ("barcode scales (two 100-scale barcodes)", 200),
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def layer_unit(name: str) -> str:
    metric = name.split(".", 1)[1]
    for suffix, unit in (("_s", "s"), ("_frac", "ratio"), ("_share", "ratio"),
                         ("_yield", "ratio"), ("_bytes", "B")):
        if metric.endswith(suffix):
            return unit
    for prefix, unit in (("ns_per_", "ns"), ("us_per_", "us"), ("ms_per_", "ms")):
        if metric.startswith(prefix):
            return unit
    return "count"


def _start_up(code: str) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          cwd=ROOT, env=CHILD_ENV, check=True, timeout=60,
                          stdout=subprocess.PIPE, text=True)
    return float(proc.stdout) - t0


def import_probes(count: int) -> list[tuple[float, float]]:
    """``count`` pairs of (probe, yardstick) start-up times."""
    pairs = []
    for _ in range(count):
        yardstick = _start_up(YARDSTICK)
        pairs.append((_start_up(PROBE), yardstick))
    return pairs


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    probes = import_probes(IMPORT_PROBES[0])
    scratch = ROOT / ".bench_tmp"
    workdir = scratch / f"{name}-{os.getpid()}"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", str(workdir)],
            cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    if proc.returncode != 0:
        raise SystemExit(f"{name}: worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    pairs = probes + import_probes(IMPORT_PROBES[1])
    out["import_walls"] = [probe for probe, _ in pairs]
    out["import_s"] = [probe / yardstick * REFERENCE_PROBE_S for probe, yardstick in pairs]
    out["setup_s"] = statistics.median(out["import_s"]) + statistics.median(out["build_s"])
    out["setup_wall_s"] = (statistics.median(out["import_walls"])
                           + statistics.median(out["build_walls"]))
    out["wall_s"] = statistics.median(out["cal_walls"])
    return out


def report(name: str, seed: int, trace: int, out: dict) -> dict:
    """Print the human-readable lines for one workload and return its
    result object."""
    env = dict(out["environment"], git_commit=git_commit(), loadavg=out["loadavg"])
    print(json.dumps({"workload": name, "seed": seed, "environment": env}))
    print(f"[{name}] seed {seed}: reference {out['reference']}")
    frac = out["failed"] / out["attempted"]
    print(f"[{name}] failed_frac {frac:.6g} ratio ({out['failed']} of "
          f"{out['attempted']} operations)")
    for msg in out["failures"]:
        print(f"[{name}]   failed: {msg}")
    if trace == 0:
        metrics = {k: {"value": out[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        unit, count = WORK_UNITS[name]
        cals, walls = sorted(out["cal_walls"]), out["walls"]
        print(f"[{name}] {len(cals)} passes; wall_s median {out['wall_s']:.4f} "
              f"(min {cals[0]:.4f}, max {cals[-1]:.4f}) at the reference speed; "
              f"as measured: median {statistics.median(walls):.4f} "
              f"(min {min(walls):.4f}, max {max(walls):.4f}), "
              f"setup {out['setup_wall_s']:.4f}; "
              f"cpu_s median {statistics.median(out['cpus']):.4f} (diagnostic)")
        print(f"[{name}] derived: {count / out['wall_s']:.4g} {unit} per second "
              "(not gated)")
    else:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in out["layers"].items()}
        shares = {k.split(".")[0]: round(v, 3) for k, v in out["layers"].items()
                  if k.endswith(".self_share")}
        print(f"[{name}] self-time shares of a traced pass: {json.dumps(shares)}")
    for key, m in metrics.items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "delaykit" / "__init__.py").is_file():
        print(f"error: no delaykit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = report(name, args.seed, args.trace, out)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
