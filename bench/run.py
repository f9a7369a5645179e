"""bhca benchmark: closed-loop planning requests, end-to-end and per layer.

    python3 bench/run.py --workload desk --seed 1 --seconds 25 --trace 0

One client sends one request at a time, the next only after the previous
returns; the solver runs with ``workers=1``. The workload's scenario set is
sent in whole passes, in an order drawn from ``--seed``, until the next pass
would end after ``--seconds``; at least one pass runs. Every output is
checked after the timed pass. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` each scenario is sent twice, untraced
then traced, and the run reports the per-layer metrics. The last line of
standard output is one JSON object; metric names and units come from
``BENCHMARK.json``. See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

# Timed in a fresh interpreter: what every ``bhca run`` pays before planning.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bhca
from bhca.cli import resolve_config_path
bhca.ModcodTable.default()
bhca.load_config(resolve_config_path(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": 1,
        "clients": 1,
    }


def measure_setup(config_arg: str) -> float:
    """Median seconds of import + modcod table + config load in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), config_arg],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def passes(seeds, rng: random.Random, seconds: float, send):
    """Send whole passes over ``seeds`` until the next would end after ``seconds``.

    Returns the wall time of the passes.
    """
    t_start = time.perf_counter()
    done = 0
    while True:
        order = list(seeds)
        rng.shuffle(order)
        for seed in order:
            send(seed)
        done += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / done > seconds:
            return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bhca" / "__init__.py").is_file():
        print(f"bench: no bhca sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    import workloads
    from tracing import Tracer, layer_metrics

    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        raise RuntimeError("BENCHMARK.json and workloads.py name different workloads")
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    name = args.workload
    workload = workloads.WORKLOADS[name]
    with open(Path(__file__).with_name("reference.json"), "r", encoding="utf-8") as fh:
        reference = json.load(fh).get(name, {})

    run_dir = OUT / f"{name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    machine = machine_info()
    print("machine " + json.dumps(machine, sort_keys=True))

    ctx = workloads.setup(name, str(run_dir))
    setup_s = measure_setup(ctx.config_arg) if args.trace == 0 else None

    tracer = Tracer()
    attempts: list[dict] = []   # seed, traced, wall_s, outcome

    def attempt(seed: int, traced: bool) -> None:
        out_dir = str(run_dir / f"r{len(attempts):04d}")
        call = lambda: workload.request(ctx, seed, out_dir)  # noqa: E731
        t0 = time.perf_counter()
        try:
            outcome = tracer.request(call) if traced else call()
        except Exception:
            traceback.print_exc()
            outcome = {"error": traceback.format_exc(limit=1).strip().splitlines()[-1]}
        wall = time.perf_counter() - t0
        outcome["out_dir"] = out_dir
        attempts.append({"seed": seed, "traced": traced, "wall_s": wall, "outcome": outcome})

    rng = random.Random(args.seed)
    if args.trace == 0:
        timed_wall = passes(workload.seeds, rng, args.seconds, lambda s: attempt(s, False))
    else:
        passes(workload.seeds, rng, args.seconds, lambda s: (attempt(s, False), attempt(s, True)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    failed = 0
    scheme_results: dict[int, dict] = {}
    for a in attempts:
        try:
            failures, results, drifts = workloads.check(
                name, ctx, a["seed"], a["outcome"], reference.get(str(a["seed"])))
        except (OSError, KeyError, ValueError) as exc:
            failures, results, drifts = [f"outputs unreadable: {exc!r}"], {}, []
        for d in drifts:
            print(f"DRIFT {name} seed {a['seed']}: {d}")
        for f in failures:
            print(f"FAILED {name} seed {a['seed']}: {f}")
        failed += bool(failures)
        if not failures:
            scheme_results[a["seed"]] = results
        print(f"request seed={a['seed']} traced={int(a['traced'])} wall_s={a['wall_s']:.4f} "
              f"ok={int(not failures)}")
    if not all(str(s) in reference for s in workload.seeds):
        print(f"bench: reference.json lacks some {name} seeds; drift is not checked for them")

    def mean_objective(scheme):
        vals = [r[scheme]["objective"] for r in scheme_results.values() if scheme in r]
        return statistics.fmean(vals) if vals else 0.0

    untraced = [a["wall_s"] for a in attempts if not a["traced"]]
    if args.trace == 0:
        metrics = {
            "setup_s": setup_s,
            "request_s_p50": statistics.median(untraced),
            "requests_per_min": 60.0 * len(untraced) / timed_wall,
            "peak_rss_mb": peak_rss_mb,
            "objective_bh_mean": mean_objective("bh"),
        }
        kind = "end_to_end"
    else:
        metrics, per_request = layer_metrics(tracer.spans)
        traced = [a["wall_s"] for a in attempts if a["traced"]]
        statuses = [r[s]["status"] for r in scheme_results.values() for s in workload.schemes]
        metrics.update({
            "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
            "failed_frac": failed / len(attempts),
            "objective_bhca_mean": mean_objective("bhca"),
            "optimal_frac": statuses.count("optimal") / len(statuses) if statuses else 0.0,
        })
        kind = "per_layer"
        covered = sum(r["layers_s"] for r in per_request) / sum(r["wall_s"] for r in per_request)
        simplex_share = metrics["simplex.solve_s"] * len(per_request) / sum(r["wall_s"] for r in per_request)
        print(f"trace: layer self times cover {100 * covered:.2f}% of traced request wall time; "
              f"simplex.solve_s is {100 * simplex_share:.1f}% of it")
        spans_path = OUT / f"spans-{name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"machine": machine, "spans": tracer.to_json()}) + "\n")
        print(f"trace: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for key in sorted(metrics):
        print(f"metric {key} = {metrics[key]!r} {units[key]}")
    shutil.rmtree(run_dir)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
