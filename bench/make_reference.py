"""Regenerate ``bench/reference.json``: per-seed objective and status of
every scheme, and of the ``brute_force`` oracle, for each workload's
scenario set.

    python3 bench/make_reference.py

Each scenario runs once through the workload's own request and checks. The
file is committed; ``run.py`` prints a DRIFT line for any objective that
moves from it by more than 1e-6.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import OUT, SRC

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    bad = 0
    for name, workload in workloads.WORKLOADS.items():
        run_dir = OUT / f"reference-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        ctx = workloads.setup(name, str(run_dir))
        reference[name] = {}
        for seed in workload.seeds:
            outcome = workload.request(ctx, seed, str(run_dir / f"s{seed}"))
            outcome["out_dir"] = str(run_dir / f"s{seed}")
            failures, results, _ = workloads.check(name, ctx, seed, outcome, None)
            for f in failures:
                print(f"FAILED {name} seed {seed}: {f}")
            bad += bool(failures)
            reference[name][str(seed)] = results
            print(name, seed, json.dumps(results, sort_keys=True), flush=True)
        shutil.rmtree(run_dir)
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
