"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this process (or, with `all`, each workload in a child
process of its own), prints every metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json; with
--trace 1 untraced and traced rounds alternate, and the metrics are the
per-layer ones (from the traced rounds) plus the tracing overhead.
Exits 1 when any output check fails and 2 when the package source is absent.
Working files go under .perfbench/ at the checkout root; the temporary
inputs are removed, the result summary and span dump are kept.
"""

import os

# one BLAS/OpenMP thread, set for this process before numpy is imported
PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "blas": blas, "threads_pinned": int(PINNED_THREADS),
            "python": platform.python_version()}


def _timing(phase):
    """Median and tail of the per-operation times scaled to the reference
    host speed, in ms. The tail is the highest percentile with TAIL_BEYOND
    samples above it, or the median when there are fewer than twice that
    many samples."""
    ms = sorted(d * 1e3 for d in phase.scaled())
    n = len(ms)
    p50 = statistics.median(ms)
    if n >= 2 * TAIL_BEYOND:
        tail, pct = ms[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = p50, 50.0
    return {"op_ms_p50": p50, "op_ms_tail": tail,
            "tail_percentile": pct, "samples": n,
            "items_per_s": phase.items / (sum(ms) / 1e3),
            "raw_op_ms_p50": statistics.median(phase.durations) * 1e3,
            "host_speed_factor": statistics.median(phase.factors)}


def run_one(args):
    from spans import Tracer
    from workloads import PROBE_REF_S, WORKLOADS, Phase, probe_seconds

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            workdir = os.path.join(tmp, f"setup{i}")
            os.makedirs(workdir)
            factor = PROBE_REF_S / probe_seconds()
            start = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setups.append((time.perf_counter() - start) * factor)
        workload.warm_up(state)

        tracer = None
        if args.trace:
            # one more set-up, traced, for functions that run only there
            setup_tracer = Tracer()
            setup_tracer.install()
            try:
                setup_tracer.begin()
                workload.setup(args.seed, tempfile.mkdtemp(dir=tmp))
                setup_tracer.end()
            finally:
                setup_tracer.uninstall()
            # alternate untraced and traced rounds so that drift in machine
            # speed falls on both sides of the overhead figure alike
            tracer = Tracer()
            plain, traced = Phase(), Phase()
            end = time.perf_counter() + args.seconds
            while time.perf_counter() < end or not traced.durations:
                plain.merge(workload.run(state, 0, None))
                tracer.install()
                try:
                    traced.merge(workload.run(state, 0, tracer))
                finally:
                    tracer.uninstall()
            phases = [plain, traced]
        else:
            plain = workload.run(state, args.seconds, None)
            phases = [plain]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra, failures = workload.finish(state)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for why in failures:
        plain.fail(1, why)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    timing = _timing(plain)
    e2e = {"setup_s": statistics.median(setups), "items_per_s": timing["items_per_s"],
           "op_ms_p50": timing["op_ms_p50"], "op_ms_tail": timing["op_ms_tail"],
           "peak_rss_mb": peak_rss_mb, "failed_ratio": failed / attempted, **extra}
    layers = {}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        traced_timing = _timing(phases[1])
        layers = tracer.layer_metrics(len(phases[1].durations))
        per_setup = setup_tracer.layer_metrics(1)
        layers.update({name: per_setup[name] for name, value in layers.items()
                       if value == 0 and per_setup[name]})
        layers["trace.overhead_ms_p50"] = traced_timing["op_ms_p50"] - timing["op_ms_p50"]
        layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_ms_p50"] / timing["op_ms_p50"]
        tracer.dump(os.path.join(OUT, f"spans-{tag}.jsonl"))

    env = _environment()
    manifest = _manifest()
    units = {"setup_s": "s", "items_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "peak_rss_mb": "MB", "failed_ratio": "ratio", "loss_end": "loss"}
    print(f"workload {args.workload}: closed loop, 1 client, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in e2e.items():
        print(f"  {name:<16} {value:14.6g} {units[name]}")
    print(f"  (items are {workload.item}; op_ms_tail is p{timing['tail_percentile']:.1f} "
          f"of {timing['samples']} operations; {failed} of {attempted} operations failed)")
    print(f"  (times scaled by the host speed probe, median factor "
          f"{timing['host_speed_factor']:.3f}; unscaled op_ms_p50 {timing['raw_op_ms_p50']:.6g} ms)")
    for p in phases:
        for why in p.errors:
            print(f"  FAILED: {why}")
    if tracer is not None:
        print(f"  traced: op_ms_p50 {traced_timing['op_ms_p50']:.6g} ms over "
              f"{traced_timing['samples']} "
              f"operations; spans in {os.path.relpath(OUT, ROOT)}/spans-{tag}.jsonl")
        for name in sorted(tracer.missing):
            print(f"  not traced: {name}")
        by_name = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        for name, value in layers.items():
            if name in by_name:
                print(f"  {name:<44} {value:14.6g} {by_name[name]}")

    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "end_to_end": e2e, "timing": timing,
                   "attempted": attempted, "failed": failed,
                   "errors": [w for p in phases for w in p.errors],
                   "per_layer": layers, "not_traced": sorted(tracer.missing) if tracer else []},
                  f, indent=1)

    values = {**e2e, **layers}
    chosen = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after another; a table at the end."""
    from workloads import WORKLOADS

    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "metrics": {}}
        if proc.returncode != 0 or not results[name]["correct"]:
            code = 1
    names = list(results)
    metric_names = list(dict.fromkeys(m for r in results.values() for m in r["metrics"]))
    print()
    print(f"{'metric':<44}" + "".join(f"{n:>17}" for n in names))
    for m in metric_names:
        cells = [results[n]["metrics"].get(m, {}).get("value") for n in names]
        print(f"{m:<44}" + "".join(f"{c:17.6g}" if c is not None else f"{'-':>17}"
                                   for c in cells))
    print(f"{'correct':<44}" + "".join(f"{str(results[n]['correct']):>17}" for n in names))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "waterfallpose", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
