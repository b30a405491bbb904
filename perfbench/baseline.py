"""Record a baseline: ten seeded runs per workload plus one traced run each.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py [--seeds 1,2,...] [--out perfbench/BASELINE.json]

Runs ``perfbench/run.py`` as ``BENCHMARK.json`` names it, once per seed and
workload with ``--trace 0`` and once per workload with ``--trace 1``.  For
each end-to-end metric it records the median, the quartiles and the spread
(inter-quartile distance over the median), and checks the spread against a
third of the metric's bound; it exits 1 when a spread is not.  The machine,
library versions and git commit are recorded with the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# End-to-end metrics reported on every run but kept out of BENCHMARK.json,
# with the reason.
UNBOUNDED_METRICS = {
    "error_rate": "Zero on cli_large, lib_solve and verify, and a BENCHMARK.json metric must "
                  "never be zero; every run reports it as failed/attempted.",
    "latency_tail_ms": "Needs at least 20 samples a run; cli_large takes 12 or 18 (two or three "
                       "passes over six ops), so it cannot be reported on every workload.",
}


def _run(cmd, workload, seed, seconds, trace):
    t = time.perf_counter()
    proc = subprocess.run([*cmd, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return json.loads(lines[-1]), detail, wall


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "runs": values}


def _lscpu() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {}
    fields = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    return {key: fields[name].strip() for key, name in
            (("cpu_model", "Model name"), ("l2", "L2 cache"), ("l3", "L3 cache"))
            if name in fields}


def context(seeds) -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), **_lscpu(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha,
            "seeds": seeds}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    p.add_argument("--out", default=str(ROOT / "perfbench" / "BASELINE.json"))
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    from workloads import WORKLOADS

    record = {"context": context(seeds), "run_seconds": bench["run_seconds"],
              "known_defects": corpus.KNOWN_DEFECTS, "unbounded_metrics": UNBOUNDED_METRICS,
              "workloads": {}}
    steady = True
    for w in bench["workloads"]:
        name = w["name"]
        values, walls, failures = {}, [], {}
        extras = {"error_rate": [], "latency_tail_ms": [], "passes": []}
        for seed in seeds:
            result, detail, wall = _run(bench["command"], name, seed, bench["run_seconds"], 0)
            walls.append(wall)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            extras["error_rate"].append(detail["extra"]["error_rate"])
            extras["passes"].append(detail["extra"]["passes"])
            if "latency_tail_ms" in detail["extra"]:
                extras["latency_tail_ms"].append(detail["extra"]["latency_tail_ms"])
            for op, reason in detail["summary"]["failures"]:
                failures.setdefault(op, {"reason": reason, "seeds": []})["seeds"].append(seed)
            print(f"{name} seed {seed}: {wall:.1f} s, correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        traced, traced_detail, _ = _run(bench["command"], name, seeds[0], bench["run_seconds"], 1)
        end_to_end = {metric: _stats(v) for metric, v in values.items()}
        for metric, s in end_to_end.items():
            ok = s["spread"] < bounds[metric] / 3
            steady &= ok
            print(f"  {metric:16s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[metric]}){'' if ok else '  NOT STEADY'}", flush=True)
        tails = extras["latency_tail_ms"]
        record["workloads"][name] = {
            "why": w["why"],
            "layers": WORKLOADS[name].layers,
            "end_to_end": end_to_end,
            "error_rate": _stats(extras["error_rate"]),
            "latency_tail_ms": ({"median": statistics.median(t["value"] for t in tails),
                                 "percentile": tails[0]["percentile"],
                                 "samples": tails[0]["samples"]} if tails else None),
            "failed_ops": failures,
            "run_wall_s": _stats(walls),
            "passes": extras["passes"],
            "per_layer": {"seed": seeds[0], "correct": traced["correct"],
                          "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                          "untraced_s": traced_detail["extra"]["untraced_s"],
                          "traced_s": traced_detail["extra"]["traced_s"],
                          "counters_not_repeating":
                              traced_detail["extra"]["counters_not_repeating"]},
        }
    record["steady"] = steady
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}; every spread below a third of its bound: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
