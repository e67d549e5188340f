"""One benchmark step in a fresh process; run.py starts it.

    worker.py gen   NAME WDIR RESULT SEED TOPOLOGY_SEED
    worker.py setup NAME WDIR RESULT
    worker.py run   NAME WDIR RESULT SECONDS TRACE SETUPS

``gen`` writes the workload's inputs, ``setup`` times one set-up
(package import included), and ``run`` sets up once and then repeats the
main call until another call would end after SECONDS (but at least
MIN_CALLS times, so that even a 12-second call yields a best of two),
checking every call's outputs outside the timed region. Between main calls,
``run`` also starts SETUPS more ``setup`` steps, one at a time and
spread over the run, so that a few seconds of contention from other
tenants of the machine cannot slow every set-up sample at once. With
TRACE=1 the main calls run under the span tracer. Each step writes its
JSON result to RESULT; stdout and stderr are left to the program under
test.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)
MIN_CALLS = 2


def _setup(name, wdir):
    t0 = time.perf_counter()
    import workloads  # imports numpy; flowdesign is imported by setup()
    ctx = workloads.setup(name, wdir)
    return ctx, time.perf_counter() - t0


def _fresh_setup(name, wdir) -> float:
    result = os.path.join(wdir, "setup.json")
    subprocess.run([sys.executable, os.path.abspath(__file__), "setup", name,
                    wdir, result], check=True, capture_output=True)
    with open(result) as fh:
        return json.load(fh)["setup_s"]


def _run(name, wdir, seconds, trace, setups):
    ctx, setup_s = _setup(name, wdir)
    setup_samples = [setup_s]
    import workloads
    workloads.prepare_checks(ctx)
    outdir = os.path.join(wdir, "out")
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    times, failures = [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        if tracer is not None:
            tracer.run_id = f"call{attempted}"
        t0 = time.perf_counter()
        try:
            result = workloads.main_call(ctx, outdir)
            elapsed = time.perf_counter() - t0
            bad = workloads.check(ctx, result, outdir)
        except Exception:  # a raising main call is a failed operation
            elapsed = time.perf_counter() - t0
            bad = [traceback.format_exc(limit=3)]
        if bad:
            failures.append(f"call {attempted}: " + "; ".join(bad))
        else:
            times.append(elapsed)
        used = time.perf_counter() - start
        while len(setup_samples) - 1 < round(setups * min(1.0, used / seconds)):
            setup_samples.append(_fresh_setup(name, wdir))
        if attempted >= MIN_CALLS and used + elapsed > seconds:
            break
    while len(setup_samples) - 1 < setups:
        setup_samples.append(_fresh_setup(name, wdir))
    out = {"setup_s": setup_samples, "run_s": times, "attempted": attempted,
           "failed": len(failures), "failures": failures[:5],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "flow_periods": ctx.flow_periods}
    if tracer is not None:
        tracer.uninstall()
        import tracing
        per_layer, hi_used = tracing.layer_metrics(
            tracer, attempted, ctx.model_bytes)
        out["per_layer"] = per_layer
        out["p_hi"] = hi_used
        out["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(wdir, "spans.jsonl"))
    return out


def main(argv):
    step, name, wdir, result_path = argv[:4]
    if step == "gen":
        import workloads
        out = workloads.generate(name, wdir, int(argv[4]), int(argv[5]))
    elif step == "setup":
        out = {"setup_s": _setup(name, wdir)[1]}
    elif step == "run":
        out = _run(name, wdir, float(argv[4]), argv[5] == "1", int(argv[6]))
    else:
        raise SystemExit(f"unknown step {step!r}")
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
