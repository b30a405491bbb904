"""likelymat benchmark: one command, four workloads, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 15 --trace 0

The program under test is ``src/likelymat`` of the checkout, put on the
import path of the benchmark and of every child it starts.  Inputs come from
``--seed``; the program sees only the generated documents and specs.

``--trace 0`` measures end to end: a closed loop with one client repeats
whole passes over the workload's ops, at least two and for about
``--seconds`` (the pass boundary nearest to it), and checks every output.
Each op's time is its fastest pass, as ``timeit`` takes it: on a shared
2-vCPU KVM guest, other tenants slow a pure-Python loop by up to 1.8x for
one to several seconds at a time, and a best time keeps those seconds out.
It cannot keep out slower phases that last minutes (up to 40% there), which
move whole runs.
``ops_per_s`` is one pass's op count over the sum of those times,
``latency_p50_ms`` their median; the tail latency uses every sample.
``peak_rss_mb`` is the largest peak of any op's child (from ``wait4``) for
the CLI workloads, the process's own peak for the in-process ones.

``setup_s`` is the median of ``SETUP_PROBES`` fresh benchmark processes, each
timed from its spawn to the end of its set-up: interpreter start, imports
(``import likelymat`` for the in-process workloads), input generation from
the seed and warm-up.  The probes are spread over the timed phase, between
ops, so that a few slow seconds of the host do not decide all of them.

``--trace 1`` replays the ops in-process, alternating two untraced passes
with two passes that wrap every layer boundary in a span recorder, and
reports per-layer self times and counters of the faster traced pass; the
tracing overhead is the difference of the faster passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, the error rate, the tail latency and
the failed ops.  Scratch files and traces go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# One client, no extra threads: pin the numeric libraries before they load,
# here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import corpus  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Env, guarded, import_probe  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 5
TRACED_PASSES = 2
MIN_TAIL_SAMPLES = 20


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (how setup_s is measured)")
    return p.parse_args(argv)


def _checkout() -> Env:
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "likelymat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no likelymat sources under {src}")
    return Env(root, src, root / ".perfbench_work")


def _setup(workload, env: Env, seed: int) -> list:
    items = workload.setup(env, seed)
    workload.warm_up(env)
    return items


def _setup_probe(workload, env: Env, seed: int) -> float:
    """Seconds from a fresh benchmark process's spawn to the end of its set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    t = perf_counter()
    proc = subprocess.Popen(argv, cwd=env.root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        seconds = perf_counter() - t
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}):\n{err}")
    return seconds


def _tail(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < MIN_TAIL_SAMPLES:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n, n


def _summary(results) -> dict:
    """Failed ops over attempted ones; ``results`` holds (op, errors) pairs."""
    failed = [(op.name, errors) for op, errors in results if errors]
    unexpected = sorted({name for name, errors in failed
                         if not corpus.known_defect(name, errors[0])})
    return {
        "correct": not unexpected,
        "attempted": len(results),
        "failed": len(failed),
        "failures": sorted({name: errors[0] for name, errors in failed}.items()),
        "unexpected_failures": unexpected,
    }


def run_end_to_end(workload, env: Env, seed: int, seconds: float):
    items = _setup(workload, env, seed)
    results, setup_times, child_kb = [], [], []
    samples = [[] for _ in items]  # per op, one sample per pass
    start = perf_counter()
    passes = 0
    while True:
        for item, op_samples in zip(items, samples):
            # Probe k is due at k / SETUP_PROBES of the run.
            due = len(setup_times) * seconds <= SETUP_PROBES * (perf_counter() - start)
            if due and len(setup_times) < SETUP_PROBES:
                setup_times.append(_setup_probe(workload, env, seed))
            latency, errors, kb = workload.timed(env, item)
            results.append((item[0], errors))
            op_samples.append(latency)
            child_kb.append(kb)
        passes += 1
        elapsed = perf_counter() - start
        # Stop at the pass boundary nearest to the deadline, after at least
        # two passes, so that every op has a best time.
        if passes >= MIN_PASSES and elapsed + 0.5 * elapsed / passes >= seconds:
            break
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(_setup_probe(workload, env, seed))
    best = [min(s) for s in samples]
    if workload.children:
        peak_kb = max(child_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = _summary(results)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(best), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    extra = {"error_rate": summary["failed"] / summary["attempted"], "passes": passes,
             "timed_s": perf_counter() - start, "setup_probes_s": setup_times}
    tail = _tail([lat for s in samples for lat in s])
    if tail is not None:
        extra["latency_tail_ms"] = {"value": 1e3 * tail[0], "percentile": tail[1],
                                    "samples": tail[2]}
    return summary, metrics, extra


def _replay(workload, env: Env, items, tracer):
    """One in-process pass over the ops; returns (wall seconds, results)."""
    counts = tracer.counts if tracer is not None else Counter()
    call = tracer.run_op if tracer is not None else (lambda body: body())
    start = perf_counter()
    results = [(item[0], guarded(lambda: workload.in_process(env, item, call, counts)))
               for item in items]
    return perf_counter() - start, results


def run_traced(workload, env: Env, seed: int):
    probes = [import_probe(env) for _ in range(3)]
    items = _setup(workload, env, seed)
    untraced, passes = [], []
    for _ in range(TRACED_PASSES):
        untraced.append(_replay(workload, env, items, None)[0])
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            wall, results = _replay(workload, env, items, tracer)
        passes.append((wall, results, tracer))
    untraced_s = min(untraced)

    wall, results, tracer = min(passes, key=lambda p: p[0])
    layers = tracing.layer_metrics(tracer)
    layers["startup.import_s"] = statistics.median(p["import_s"] for p in probes)
    layers["startup.scipy_modules"] = probes[0]["scipy_modules"]
    layers["trace.overhead_s"] = wall - untraced_s

    repeats = {name: [tracing.layer_metrics(t).get(name, 0) for _, _, t in passes]
               for name in tracing.EXACT_COUNTERS if name != "startup.scipy_modules"}
    repeats["startup.scipy_modules"] = [p["scipy_modules"] for p in probes]
    not_repeating = sorted(name for name, vals in repeats.items() if len(set(vals)) > 1)
    nesting = tracing.nesting_errors(tracer.spans)

    trace_file = env.work.parent / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({"spans": tracer.to_json(),
                                      "ops": [op.name for op, _ in results]}))
    summary = _summary(results)
    metrics = {name: (value, "count" if name in tracing.COUNT_METRICS else "s")
               for name, value in sorted(layers.items())}
    extra = {"untraced_s": untraced_s, "traced_s": wall,
             "counters_not_repeating": not_repeating, "nesting_errors": nesting[:5],
             "trace_file": str(trace_file.relative_to(env.root))}
    return summary, metrics, extra


def main(argv=None) -> int:
    args = _parse_args(argv)
    env = _checkout()
    os.chdir(env.root)  # children inherit it: nothing runs outside the checkout
    sys.path.insert(0, str(env.src))
    workload = WORKLOADS[args.workload]
    env.work = env.work / f"{args.workload}-{args.seed}-{os.getpid()}"
    env.work.mkdir(parents=True)
    try:
        if not workload.children or args.trace:
            import likelymat.cli  # noqa: F401  (the modules the tracer wraps)
        if args.setup_probe:
            _setup(workload, env, args.seed)
            print("ready", flush=True)
            return 0
        if args.trace:
            summary, metrics, extra = run_traced(workload, env, args.seed)
        else:
            summary, metrics, extra = run_end_to_end(workload, env, args.seed, args.seconds)
    finally:
        shutil.rmtree(env.work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if "error_rate" in extra:
        print(f"  {'error_rate':28s} {extra['error_rate']:.6g} "
              f"({summary['failed']}/{summary['attempted']} ops failed)")
    if "latency_tail_ms" in extra:
        t = extra["latency_tail_ms"]
        print(f"  {'latency_tail_ms':28s} {t['value']:.6g} ms "
              f"(p{t['percentile']:.1f} of {t['samples']} samples)")
    elif not args.trace:
        print(f"  latency_tail_ms omitted: fewer than {MIN_TAIL_SAMPLES} ops")
    for name, reason in summary["failures"]:
        known = "known defect" if corpus.known_defect(name, reason) else "UNEXPECTED"
        print(f"  failed op {name} ({known}): {reason}")
    for name in extra.get("counters_not_repeating", ()):
        print(f"  counter {name} did not repeat exactly across passes")
    for err in extra.get("nesting_errors", ()):
        print(f"  trace nesting error: {err}")
    print("detail " + json.dumps({"summary": summary, "extra": extra}))
    print(json.dumps({
        "correct": summary["correct"] and not extra.get("nesting_errors"),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
