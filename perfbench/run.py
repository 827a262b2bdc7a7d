"""Benchmark for regbound: `analyze`, `analyze --exact` and `fuzz`, end to
end with tracing off, and per layer from a separate traced run.

    python3 perfbench/run.py --workload analyze-zerodim --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --scale-reference

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; failed instances are listed
on standard error, each with its reason. Metric names and units come from
BENCHMARK.json at the repository root. The program is imported from the
`src/` directory next to this one and runs single-process with `jobs=1`.

A run measures in worker processes started one after another, each doing
its own set-up (imports, inputs, warm-up pass) and then passes over the
corpus for its share of `--seconds`. An end-to-end run uses three workers
with fixed, different string-hash seeds: pass times depend on the hash
seed by a few percent, so a random one per run would add that much noise.
A traced run uses one worker.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from itertools import chain
from time import perf_counter

PROCESS_START = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
END_TO_END_HASH_SEEDS = (1, 2, 3)  # one worker each; setup_s is the median of three set-ups
TRACE_HASH_SEED = 1


def check_sources():
    if not os.path.isfile(os.path.join(SRC, "regbound", "__init__.py")):
        raise SystemExit(f"error: no regbound sources under {SRC}")


def load_program():
    check_sources()
    sys.path.insert(0, SRC)
    import regbound

    if not os.path.abspath(regbound.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported regbound from {regbound.__file__}, not {SRC}")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def timed_passes(workload, failures, seconds):
    """Passes over the corpus while another one fits in `seconds` (at least
    one); returns [(pass wall time, per-instance times)]."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start + passes[-1][0] <= seconds:
        t0 = perf_counter()
        times = workload.run_pass(failures)
        passes.append((perf_counter() - t0, times))
    return passes


def untraced_passes(workload, failures, seconds):
    from tracer import installed_wrappers

    def require_none(when):
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers installed {when} an untraced run: {left}")

    require_none("before")
    passes = timed_passes(workload, failures, seconds)
    require_none("after")
    return passes


def per_layer(workload, failures, seconds):
    """Untraced passes for half the time, traced passes for the other half;
    each layer metric is the median over the traced passes."""
    from tracer import Tracer

    plain = untraced_passes(workload, failures, seconds / 2)
    tracer = Tracer()
    walls, layers = [], []
    start = perf_counter()
    while not walls or perf_counter() - start + walls[-1] <= seconds / 2:
        tracer.reset()
        with tracer:
            t0 = perf_counter()
            workload.run_pass(failures)
            wall = perf_counter() - t0
        if tracer.total_self_s() > wall:
            raise RuntimeError(
                f"layer self times sum to {tracer.total_self_s()} s, over the pass's {wall} s"
            )
        walls.append(wall)
        layers.append(tracer.metrics())
    out = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    out["trace.corpus_s"] = statistics.median(walls)
    out["trace.overhead_frac"] = out["trace.corpus_s"] / statistics.median(w for w, _ in plain) - 1
    return out


def worker(name, seed, seconds, trace, quick):
    """Set up in this process, then measure; returns what the parent needs."""
    from workloads import Failures, make_workload

    load_program()
    references = load_json(os.path.join(HERE, "reference.json"))["digests"]
    workload = make_workload(name, seed, quick, references)
    failures = Failures()
    workload.run_pass(failures)  # warm-up: fills process-wide caches such as the monomial lists
    out = {"setup_s": perf_counter() - PROCESS_START}
    if trace:
        out["layers"] = per_layer(workload, failures, seconds)
    else:
        passes = untraced_passes(workload, failures, seconds)
        out["corpus_s"] = [wall for wall, _ in passes]
        out["instance_p50_s"] = [statistics.median(t) for _, t in passes]
        out["instance_tail_s"] = [workload.tail(t) for _, t in passes]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(attempted=failures.attempted, failed=failures.failed, reasons=failures.reasons)
    return out


def spawn_worker(name, seed, seconds, trace, quick, hash_seed, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(cmd + (["--quick"] if quick else []), cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: worker exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(name, seed, seconds, trace, quick=False):
    """One benchmark run; returns the result object printed as the last line."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    check_sources()
    hash_seeds = (TRACE_HASH_SEED,) if trace else END_TO_END_HASH_SEEDS
    results = [
        spawn_worker(name, seed, seconds / len(hash_seeds), trace, quick, h,
                     timeout=170 / len(hash_seeds))
        for h in hash_seeds
    ]
    if trace:
        values = results[0]["layers"]
        wanted = bench["per_layer"]
    else:
        values = {key: statistics.median(chain.from_iterable(r[key] for r in results))
                  for key in ("corpus_s", "instance_p50_s", "instance_tail_s")}
        for key in ("peak_rss_mb", "setup_s"):
            values[key] = statistics.median(r[key] for r in results)
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for reason in chain.from_iterable(r["reasons"] for r in results):
        print(f"FAILED {reason}", file=sys.stderr)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def self_check():
    """One small instance per workload, untraced and traced: every named
    metric is emitted, layer self times stay within the traced wall time
    (checked inside every traced pass), and no wrapper is installed while
    an untraced pass runs (checked around every untraced run)."""
    from workloads import DEFAULT_SEED, WORKLOAD_NAMES

    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = run(name, DEFAULT_SEED, 0, trace, quick=True)
            if not result["correct"] or result["attempted"] < 1:
                raise SystemExit(f"self-check: {name} trace={trace} gave {result}")
            print(f"self-check {name} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} instances", file=sys.stderr)
    print("self-check ok")


def scale_reference():
    """One traced `analyze --exact` of each ROADMAP baseline instance."""
    from tracer import Tracer
    from workloads import DEFAULT_SEED, SCALE_SHAPES, AnalyzeWorkload, Failures

    load_program()
    out = []
    for n, degrees in SCALE_SHAPES:
        workload = AnalyzeWorkload("scale", DEFAULT_SEED, [(n, degrees)], exact=True)
        failures = Failures()
        tracer = Tracer()
        with tracer:
            t0 = perf_counter()
            workload.run_pass(failures)
            wall = perf_counter() - t0
        layers = {k: v for k, v in tracer.metrics().items() if v}
        out.append({"n": n, "degrees": list(degrees), "seed": DEFAULT_SEED, "traced_wall_s": wall,
                    "failures": failures.reasons, "layers": layers})
        print(json.dumps(out[-1]), file=sys.stderr)
    print(json.dumps(out, indent=1))


def main(argv=None):
    from workloads import DEFAULT_SEED, WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one small instance per workload")
    parser.add_argument("--worker", action="store_true",
                        help="measure in this process and print the raw figures")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--scale-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.scale_reference:
        return scale_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.worker:
        print(json.dumps(worker(args.workload, args.seed, args.seconds, args.trace, args.quick)))
        return
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace, args.quick)))


if __name__ == "__main__":
    main()
