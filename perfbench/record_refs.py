"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py

Writes ``references.json`` for the default and the held-out workload seed.
Run it only at a commit whose outputs are accepted as correct: the file in
the repository was recorded at the commit that added the benchmark, before
any optimisation, and a change that claims a gain must leave it alone.
Outputs that fail the structural checks are refused.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import json_safe  # noqa: E402


def record(name: str, seed: int, workdir: Path) -> dict:
    workload = workloads.make(name, str(workdir))
    try:
        inputs = workload.build(seed)
        raw = workload.run(inputs)
        rec = json_safe(workload.summarize(inputs, raw))
        bad = workload.check(inputs, raw, rec)
    finally:
        workload.close()
    failed = [op for op in workload.OPS
              if op not in rec or op in bad or isinstance(raw.get(op), workloads.OpFailed)]
    if failed:
        raise SystemExit(f"{name} seed {seed}: refusing to record failed outputs "
                         f"{failed[:5]}: {[bad.get(op) or raw.get(op) for op in failed[:5]]}")
    return rec


def main() -> int:
    workdir = HERE.parent / ".bench_tmp" / "record"
    refs: dict = {}
    try:
        for name in workloads.NAMES:
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                refs.setdefault(name, {})[str(seed)] = record(name, seed, workdir)
                print(f"recorded {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
