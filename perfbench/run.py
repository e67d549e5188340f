"""flowdesign benchmark: one workload, timed in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--topology-seed K]

Run from the repository root (any directory holding src/flowdesign and
BENCHMARK.json). Steps, one after another and each in its own process
with BLAS/OpenMP pinned to one thread:

1. generate the workload's inputs from the seeds (untimed);
2. with --trace 0: repeat the main call for --seconds, time set-up in
   SETUP_SAMPLES fresh processes spread over that time, and report the
   end-to-end metrics named in BENCHMARK.json;
3. with --trace 1: repeat the main call untraced and then traced for
   --seconds/2 each, and report the per-layer metrics plus the tracing
   overhead (traced minus untraced run_s).

run_s and setup_s are the fastest of their samples ("best of N"). Other
tenants of a shared machine only ever add time, in bursts of one to
tens of seconds that can cover most of a run, so the fastest sample is
the steadiest estimate of the program's own cost; the median and the
slowest sample are printed next to it.

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full record, with the
environment and instance sizes, is written to .perfbench_out/.
Exit status: 0 when every check passed, 1 when a check or a main call
failed, 2 when the program or the benchmark's own files are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170  # every step together; the whole run must end within 180 s


class StepFailed(Exception):
    pass


def _worker(deadline: float, step: str, name: str, wdir: str, *args) -> dict:
    """Run one worker step in a fresh process and return its JSON result."""
    result = os.path.join(wdir, f"{step}.json")
    if os.path.exists(result):
        os.remove(result)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    # own session, so a timeout also stops the set-up processes the worker starts
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), step, name, wdir,
         result, *map(str, args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        _out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise StepFailed(f"worker step {step} did not finish within the "
                         f"{DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not os.path.exists(result):
        raise StepFailed(f"worker step {step} exited {proc.returncode}:\n"
                         f"{err[-2000:]}")
    with open(result) as fh:
        return json.load(fh)


def _versions() -> dict:
    out = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    out["threads"] = {var: "1" for var in THREAD_VARS}
    return out


def _fmt(v: float) -> str:
    return format(v, ".6g")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--topology-seed", type=int, default=1, dest="topology_seed")
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "flowdesign", "__init__.py")):
        print("error: src/flowdesign not found; run from a flowdesign checkout",
              file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    wdir = os.path.join(ROOT, ".perfbench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    deadline = time.monotonic() + DEADLINE_S
    try:
        sizes = _worker(deadline, "gen", args.workload, wdir, args.seed,
                        args.topology_seed)
        if args.trace:
            runs = [_worker(deadline, "run", args.workload, wdir,
                            args.seconds / 2, t, 0) for t in (0, 1)]
        else:
            runs = [_worker(deadline, "run", args.workload, wdir, args.seconds,
                            0, SETUP_SAMPLES - 1)]
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # a workload whose every main call failed has no timing to report
    run_s = min(run["run_s"]) if run["run_s"] else None
    if args.trace:
        base = runs[0]["run_s"]
        metrics = dict(run["per_layer"])
        metrics["trace.overhead_s"] = run_s - min(base) if base and run_s else None
    else:
        metrics = {"run_s": run_s, "setup_s": min(run["setup_s"]),
                   "peak_rss_mb": run["peak_rss_mb"]}
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2

    env = _versions()
    print(f"workload {args.workload}  seed {args.seed}  topology_seed "
          f"{args.topology_seed}  trace {args.trace}")
    print("instance " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    print(f"environment nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} threads=1 "
          f"({','.join(THREAD_VARS)})")
    for label, samples in (("run_s", run["run_s"]),
                           ("setup_s", [] if args.trace else run["setup_s"])):
        if samples:
            print(f"{label}: {len(samples)} samples, min {_fmt(min(samples))} "
                  f"median {_fmt(statistics.median(samples))} "
                  f"max {_fmt(max(samples))} s")
    print(f"main calls attempted: {attempted}")
    for name, value in metrics.items():
        print(f"  {name} = {_fmt(value) if value is not None else '-'} {units[name]}")
    if not args.trace:
        if run["flow_periods"] and run_s:
            print(f"  flow_periods_per_s = {_fmt(run['flow_periods'] / run_s)} 1/s "
                  f"(replications x T x n_r = {run['flow_periods']})")
        print(f"  failed_frac = {_fmt(failed / attempted)} ({failed}/{attempted})")
    else:
        print(f"  p_hi percentiles used: {run['p_hi']}; spans recorded "
              f"{run['spans']} -> {os.path.relpath(wdir, ROOT)}/spans.jsonl")
    print(f"checks: {'PASS' if failed == 0 else 'FAIL'}")
    for r in runs:
        for msg in r["failures"]:
            print(f"  {msg}")

    record = {"workload": args.workload, "seed": args.seed,
              "topology_seed": args.topology_seed, "trace": args.trace,
              "seconds": args.seconds, "instance": sizes, "environment": env,
              "attempted": attempted, "failed": failed,
              "run_s_samples": run["run_s"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    if not args.trace:
        record["setup_s_samples"] = run["setup_s"]
    with open(os.path.join(wdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
