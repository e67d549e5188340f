"""Repeat run.py over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1]
                                [--workload NAME ...] [--out FILE]

Runs are made one after another. For every workload and metric it
reports the median, the quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median, next to the metric's
bound from BENCHMARK.json. With --out the summary is also written as
JSON; perfbench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "trace": args.trace, "workloads": {}}
    status = 0
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict = {}
        record: dict = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            with open(os.path.join(ROOT, ".perfbench_out",
                                   f"{name}-seed{seed}-trace{args.trace}",
                                   "record.json")) as fh:
                record = json.load(fh)
        rows = {"instance": record.get("instance"),
                "environment": record.get("environment")}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else 0.0,
                            "bound": bounds.get(metric), "values": vals}
            print(f"{name:26s} {metric:45s} median {med:<12.6g} spread "
                  f"{rows[metric]['spread']:.4f}  bound {bounds.get(metric)}")
        summary["workloads"][name] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
