"""Benchmark of the vsrhe toolkit.

    python3 perfbench/run.py --workload sr_full --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
./src). The run sets the workload up SETUPS times (the median is setup_s),
runs untimed warm-up rounds (the workload's warmup_s, at least one), then
rounds of ops for --seconds, and finally checks every op's output against
the float64 oracles. With
--trace 0 nothing is wrapped and the end-to-end metrics are reported; with
--trace 1 every second round runs with the tracer installed, the per-layer
metrics come from those rounds, and the others give the untraced baseline
for trace.overhead. The second-to-last stdout line holds the run's details
(machine facts, tail percentile, failures); the last is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SETUPS = 5


def tail(times):
    """(value, percentile, samples): the highest whole percentile with at
    least ten samples beyond it; the maximum when there are under 20."""
    s = sorted(times)
    n = len(s)
    if n < 20:
        return s[-1], 100, n
    p = math.floor(100 * (n - 10) / n)
    return s[math.ceil(p / 100 * n) - 1], p, n


def drift(times):
    """Mean op time of the last quarter over that of the first."""
    q = max(1, len(times) // 4)
    return statistics.fmean(times[-q:]) / statistics.fmean(times[:q])


def machine_facts():
    import numpy
    import scipy
    from perfbench.workloads import mem_available_mb
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_available_mb": mem_available_mb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def measure(wl, seed, seconds, trace, work, out_dir):
    from perfbench.tracer import Tracer, layer_metrics
    from perfbench.workloads import digest

    tracer = Tracer()
    if trace:
        tracer.install()
    setup_times = []
    try:
        for k in range(SETUPS):
            d = work / f"setup{k}"
            d.mkdir()
            t0 = time.perf_counter()
            state = wl.setup(d, seed)
            setup_times.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()

    warmup = []                                 # op times, not measured
    start = time.perf_counter()
    r = 0
    while not warmup or time.perf_counter() - start < wl.warmup_s:
        warmup += [res.seconds for res in wl.run_round(state, r)]
        r += 1
    rounds = []                                 # (traced, wall, results)
    errors = []
    outputs = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        traced = bool(trace) and len(rounds) % 2 == 1
        if traced:
            tracer.op = r
            tracer.install()
        t0 = time.perf_counter()
        try:
            results = wl.run_round(state, r)
        except Exception as e:                  # an op failed: count it, go on
            results = []
            errors.append(f"round {r}: {type(e).__name__}: {e}")
        finally:
            tracer.uninstall()
            tracer.op = None
        rounds.append((traced, time.perf_counter() - t0, results))
        for res in results:             # keep one copy of each distinct output
            res.output = outputs.setdefault(digest(res.output), res.output)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = [res for _, _, rs in rounds for res in rs]
    verdicts = wl.check(state, results)
    first = {}
    for i, res in enumerate(results):
        if first.setdefault(res.key, res.output) != res.output and verdicts[i] is None:
            verdicts[i] = f"{res.key}: output bytes differ from the first op on this input"
    errors += [v for v in verdicts if v is not None]
    attempted = len(results) + sum(1 for _, _, rs in rounds if not rs)
    failed = len(errors)

    plain = [(w, rs) for t, w, rs in rounds if not t]
    wall = sum(w for w, _ in plain)
    times = [res.seconds for _, rs in plain for res in rs]
    if not times:
        raise RuntimeError("no op completed: " + "; ".join(errors[:3]))
    tail_s, tail_p, n = tail(times)
    detail = {"ops": len(results), "rounds": len(rounds), "round_wall_s": wall,
              "op_s_tail": tail_s, "op_s_tail_percentile": tail_p, "op_s_samples": n,
              "drift": drift(warmup + times), "drift_timed": drift(times),
              "warmup_ops": len(warmup), "setup_times_s": setup_times,
              "errors": errors[:5]}
    if not trace:
        units = {k: sum(res.units[k] for res in results) for k in ("out_mpix", "frames", "pairs")}
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s_p50": statistics.median(times),
            "out_mpix_per_s": units["out_mpix"] / wall,
            "frames_per_s": units["frames"] / wall,
            "pairs_per_s": units["pairs"] / wall,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced = [(w, rs) for t, w, rs in rounds if t]
        traced_times = [res.seconds for _, rs in traced for res in rs]
        metrics = layer_metrics(tracer, len(traced_times), sum(w for w, _ in traced), SETUPS)
        metrics["trace.overhead"] = (statistics.median(traced_times) / statistics.median(times)
                                     - 1 if traced_times else 0.0)
        metrics["bench.drift"] = detail["drift"]
        metrics["bench.op_s_tail"] = tail_s
        metrics["error_rate"] = failed / attempted
        detail["traced_ops"] = len(traced_times)
        trace_path = out_dir / f"trace-{wl.name}-{seed}.jsonl"
        tracer.write(trace_path)
        detail["spans"] = str(trace_path)
    return attempted, failed, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    with open(root / "BENCHMARK.json") as f:
        spec = json.load(f)             # metric names and units
    if not (root / "src" / "vsrhe" / "__init__.py").is_file():
        print(f"error: no vsrhe source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS, NotStarted

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    facts = machine_facts()
    try:
        attempted, failed, metrics, detail = measure(wl, args.seed, args.seconds,
                                                     args.trace, work, out_dir)
    except NotStarted as e:
        print(json.dumps({"detail": {"workload": wl.name, "status": "not started",
                                     "reason": str(e), "machine": facts}}))
        print(f"error: {wl.name} not started: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update(workload=wl.name, seed=args.seed, trace=args.trace, machine=facts)
    print(json.dumps({"detail": detail}))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
