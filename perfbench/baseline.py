"""Repeat the benchmark over seeds and record the spread and the baseline.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For each workload it runs run.py once per seed (1..N) with --trace 0,
reports every end-to-end metric's median and quartiles, and its spread
(q3 - q1) / median next to the bound in BENCHMARK.json. Unless --no-trace
is given it then makes one traced run per workload on the default seed.
The JSON written with --out also records the machine (nproc, CPU model,
Python, numpy and OpenBLAS versions, BLAS thread cap) and the src/ line
count, so later runs can be compared like for like.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0))
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": nproc, "src_lines": src_lines}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated, default all")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"machine": machine_info(), "run_seconds": seconds,
                "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    steady = True
    for name in names:
        results = [run(name, seed, seconds, 0) for seed in baseline["seeds"]]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        print(f"{name}: {entry['failed']} failed of {entry['attempted']} ops")
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in results])
            s["bound"] = bound
            entry["end_to_end"][metric] = s
            ok = metric == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            print(f"  {metric:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  bound {bound}"
                  + ("" if ok else "  (above a third of the bound)"))
        if not args.no_trace:
            traced = run(name, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
