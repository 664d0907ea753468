"""Repeat benchmark runs over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--seconds S] [--out perfbench/BENCH_<label>.json]

For every workload and metric it prints the median over the runs and the
quartile spread, (Q3 - Q1) / median with ``statistics.quantiles(n=4)``, next
to the metric's bound from ``BENCHMARK.json``.  For end-to-end runs it also
reports the spread of the raw (uncalibrated) median job time.  Runs are made
one after another.  ``--out`` writes every run's result and the summary under
the key ``end_to_end`` or ``per_layer``, keeping the other key of an existing
file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values) if statistics.median(values) else 0.0


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=str(ROOT))
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    runs, summary = {}, {}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            result, record = run(workload, seed, args.seconds, args.trace)
            results.append({"seed": seed, "result": result, "record": record["record"],
                            "env": record["env"]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        runs[workload] = results
        rows = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in results]
            rows[name] = {"median": statistics.median(values), "spread": spread(values),
                          "min": min(values), "max": max(values), "bound": bounds[name]}
        if not args.trace:
            raw = [r["record"]["raw_job_p50_s"] for r in results]
            rows["raw_job_p50_s"] = {"median": statistics.median(raw), "spread": spread(raw),
                                     "min": min(raw), "max": max(raw), "bound": None}
        summary[workload] = rows
        for name, row in rows.items():
            flag = ""
            if row["bound"] is not None:
                flag = "ok" if row["spread"] <= row["bound"] / 3 else (
                    "within bound" if row["spread"] <= row["bound"] else "TOO WIDE")
            print(f"  {name:24s} median {row['median']:12.6g}  spread {row['spread']:7.4f}"
                  f"  bound {row['bound']}  {flag}", flush=True)
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc["per_layer" if args.trace else "end_to_end"] = {
            "seeds": args.seeds, "seconds": args.seconds, "summary": summary, "runs": runs}
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
