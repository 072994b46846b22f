"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--trace 0|1]
                            [--seconds S]

For every metric prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json, and the same for the
uncalibrated times that bench/run.py prints. The last line of standard
output is the whole summary as JSON, per-run values included.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        raw = next(json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("uncalibrated "))
        runs.append({"seed": seed, **res, "uncalibrated": raw})
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
              file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None,
                         "bound": bounds.get(name), "values": values}
        spread = "n/a" if not med else f"{(q3 - q1) / med:.4f}"
        print(f"{name:48s} median {med:<12.6g} spread {spread:8s} bound {bounds.get(name)}")
    for name in runs[0]["uncalibrated"]:
        values = [r["uncalibrated"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[f"uncalibrated.{name}"] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": (q3 - q1) / med, "values": values}
        print(f"{'uncalibrated ' + name:48s} median {med:<12.6g} spread {(q3 - q1) / med:.4f}")
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "seeds": args.seeds, "all_correct": all(r["correct"] for r in runs),
                      "metrics": summary}))


if __name__ == "__main__":
    main()
