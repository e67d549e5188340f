"""Each BENCHMARK.json workload, run once through perfbench's own steps.

Only running the benchmark reaches what it reads of the package: the
dense MeasurementModel views and DesignProblem.lower (set-up and output
checks), the workloads' output checks themselves, and the bindings that
the span tracer patches and observes. So every declared workload is
generated, set up, run and checked here once untraced and once under
perfbench/tracing.py's Tracer, in-process and with no timing, and once
more untraced on topology seed 2.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def perfbench(monkeypatch):
    # workloads imports its sibling reference module by its bare name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    import workloads
    return workloads, tracing


NAMES = [w["name"] for w in SPEC["workloads"]]


def _run_untraced(workloads, name, tmp_path, topology_seed):
    """Generate, set up, run and check workload ``name``; returns its
    context and output directory."""
    wdir, out = str(tmp_path), str(tmp_path / "out")
    workloads.generate(name, wdir, seed=1, topology_seed=topology_seed)
    ctx = workloads.setup(name, wdir)
    workloads.prepare_checks(ctx)
    assert workloads.check(ctx, workloads.main_call(ctx, out), out) == []
    return ctx, out


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_workload_runs_and_passes_its_checks(perfbench, tmp_path, name):
    workloads, tracing = perfbench
    ctx, out = _run_untraced(workloads, name, tmp_path, 1)  # run.py's default

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_id = "call1"
        result = workloads.main_call(ctx, out)
    finally:
        tracer.uninstall()
    assert workloads.check(ctx, result, out) == []
    per_layer, _ = tracing.layer_metrics(tracer, 1, ctx.model_bytes)
    # run.py adds the overhead, then requires exactly the declared names
    assert set(per_layer) | {"trace.overhead_s"} == {
        m["name"] for m in SPEC["per_layer"]}
    entry = {"design": "cli.main", "idealized": "harness.run_idealized",
             "simulate": "harness.run_simulation"}[ctx.kind]
    assert tracer.durations(entry)  # the patched entry point was the one run


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_workload_passes_its_checks_on_topology_seed_2(
        perfbench, tmp_path, name):
    # the output checks on a second topology, as `run.py --topology-seed 2`
    _run_untraced(perfbench[0], name, tmp_path, 2)
