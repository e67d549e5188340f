import numpy as np
import pytest

from flowdesign import (
    build_measurement_model,
    design_problem,
    export_canonical_socp,
    flow_model,
    load_topology,
    serialize_socp,
    solve_classical_E,
    solve_myopic,
    solve_naive,
    solve_steady_state_E,
)
from flowdesign.cli import main


@pytest.fixture()
def bundle(tmp_path):
    d = str(tmp_path / "topo")
    rc = main(["synth", "--kind", "line", "--nodes", "5", "--flows", "3",
               "--budget", "0.02", "--out", d])
    assert rc == 0
    return d


def read_xi(outdir):
    lines = (outdir / "xi.csv").read_text().splitlines()
    assert lines[0] == "# flowdesign xi.csv v1"
    assert lines[1] == "op_id,xi"
    return np.array([float(ln.split(",")[1]) for ln in lines[2:]])


def write_cfg(tmp_path, bundle, **kw):
    vals = {"topology_dir": bundle, "scheme": "steady_state", "horizon": 10,
            "block_size": 5, "replications": 2, "seed": 3}
    vals.update(kw)
    p = tmp_path / "exp.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in vals.items()))
    return str(p)


def test_synth_validate_design_round_trip(bundle, tmp_path, capsys):
    assert main(["validate", "--topology", bundle]) == 0
    assert capsys.readouterr().out.startswith("ok:")

    out = tmp_path / "design"
    rc = main(["design", "--topology", bundle, "--out", str(out)])
    assert rc == 0
    msg = capsys.readouterr().out
    assert msg.startswith("steady_state_E: theta = ")

    spec = load_topology(bundle)
    mm = build_measurement_model(spec)
    fm = flow_model(mm)
    p = design_problem(mm)
    res = solve_steady_state_E(p, fm)
    np.testing.assert_array_equal(read_xi(out), res.xi)
    assert float((out / "theta.txt").read_text()) == res.theta
    assert (out / "socp.txt").read_text() == serialize_socp(
        export_canonical_socp(p, fm))


@pytest.mark.parametrize("scheme,solver", [
    ("naive", lambda p, fm: solve_naive(p)),
    ("classical", lambda p, fm: solve_classical_E(p)),
    ("myopic", lambda p, fm: solve_myopic(p, fm, np.zeros(fm.n_r))),
])
def test_design_scheme_variants(bundle, tmp_path, scheme, solver):
    out = tmp_path / scheme
    assert main(["design", "--topology", bundle, "--scheme", scheme,
                 "--out", str(out)]) == 0
    mm = build_measurement_model(load_topology(bundle))
    fm = flow_model(mm)
    res = solver(design_problem(mm), fm)
    np.testing.assert_array_equal(read_xi(out), res.xi)
    assert not (out / "socp.txt").exists()


def test_simulate_cli_deterministic(bundle, tmp_path):
    cfg = write_cfg(tmp_path, bundle)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    for name in ("metrics.csv", "rates.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert not (a / "flows.csv").exists()
    c = tmp_path / "c"
    assert main(["simulate", "--config", cfg, "--out", str(c),
                 "--flows-dump"]) == 0
    assert (c / "flows.csv").exists()


def test_simulate_seed_overrides(bundle, tmp_path):
    cfg = write_cfg(tmp_path, bundle)
    a, b, c = tmp_path / "s1", tmp_path / "s2", tmp_path / "t2"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()
    assert main(["simulate", "--config", cfg, "--out", str(c), "--seed", "1",
                 "--trace-seed", "99"]) == 0
    assert (a / "metrics.csv").read_bytes() != (c / "metrics.csv").read_bytes()


def test_idealized_cli(bundle, tmp_path, capsys):
    cfg = write_cfg(tmp_path, bundle, mu_mode="true_mu", horizon=50)
    out = tmp_path / "ideal"
    assert main(["idealized", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("idealized[steady_state]:")
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "# flowdesign metrics.csv v1"
    assert len(lines) == 3 + 50


def test_usage_errors_exit_2(bundle, tmp_path, capsys):
    assert main(["design", "--topology", bundle, "--out",
                 str(tmp_path / "x"), "--no-such-flag"]) == 2
    assert main(["design", "--out", str(tmp_path / "x")]) == 2  # missing required
    assert main(["frobnicate"]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    cfg = write_cfg(tmp_path, bundle, horizon="never")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "horizon" in capsys.readouterr().err
    # design flags go through the experiment config's range checks
    for flag, value, field in (("--cap", "2", "cap"), ("--cap", "0", "cap"),
                               ("--cap", "-1", "cap"), ("--cap", "nan", "cap"),
                               ("--tol-theta", "0", "tol_theta"),
                               ("--tol-theta", "nan", "tol_theta")):
        assert main(["design", "--topology", bundle, "--out",
                     str(tmp_path / "x"), flag, value]) == 2
        assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("cfg,flags,field", [
    ({"seed": -1}, [], "'seed'"),
    ({"trace_seed": -1}, [], "'trace_seed'"),
    ({"topology_seed": -2}, [], "'topology_seed'"),
    ({}, ["--seed", "-1"], "'seed'"),
    ({}, ["--trace-seed", "-1"], "'trace_seed'"),
    (None, ["--seed", "-1"], "--seed"),  # synth
])
def test_negative_seeds_exit_2(bundle, tmp_path, capsys, cfg, flags, field):
    if cfg is None:
        argv = ["synth", "--kind", "line", "--nodes", "5",
                "--out", str(tmp_path / "s")]
    else:
        argv = ["simulate", "--config", write_cfg(tmp_path, bundle, **cfg),
                "--out", str(tmp_path / "x")]
    capsys.readouterr()
    assert main(argv + flags) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text,flags,field", [
    ("topology_kind = grid\nrows = 0\ncols = 3\n", [], "rows"),
    ("topology_kind = line\nn_nodes = 5\nbudget = -1\n", [], "budget"),
    ("topology_kind = hypercube\nn_nodes = 4\n", [], "'topology_kind'"),
    (None, ["--kind", "grid", "--rows", "0", "--cols", "3"], "rows"),
    (None, ["--kind", "line", "--nodes", "5", "--budget", "-1"], "budget"),
])
def test_bad_synthetic_topology_exits_2(tmp_path, capsys, text, flags, field):
    if text is None:
        argv = ["synth", "--out", str(tmp_path / "s")] + flags
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text + "horizon = 4\nreplications = 1\n")
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("key,value,dest", [
    ("mu_scale", "-1", "mu_scale"),
    ("mu_scale", "nan", "mu_scale"),
    ("sigma_rel", "0", "sigma_rel"),
    ("budget", "nan", "budget"),
    ("budget", "inf", "budget"),
    ("flow_fraction", "2", "flow_fraction"),
    ("n_flows", "0", "flows"),
    ("n_flows", "99", "flows"),  # a 3-node line has 6 ordered pairs
])
@pytest.mark.parametrize("via", ["config", "synth"])
def test_bad_synth_parameter_is_named(tmp_path, capsys, key, value, dest, via):
    if via == "config":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"topology_kind = line\nn_nodes = 3\n{key} = {value}\n"
                       "horizon = 4\nreplications = 1\n")
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]
    else:
        argv = ["synth", "--kind", "line", "--nodes", "3", "--out",
                str(tmp_path / "s"), "--" + dest.replace("_", "-"), value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config field '{key if via == 'config' else dest}': must be" in err


def test_runtime_errors_exit_1(bundle, tmp_path, capsys):
    assert main(["design", "--topology", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "x")]) == 1
    capsys.readouterr()
    # equal split of 0.02 over two interior interfaces exceeds a 0.001 cap
    assert main(["design", "--topology", bundle, "--scheme", "naive",
                 "--cap", "0.001", "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_bad_bundle_exit_1(bundle, tmp_path, capsys):
    import shutil
    broken = str(tmp_path / "broken")
    shutil.copytree(bundle, broken)
    path = tmp_path / "broken" / "budgets.csv"
    path.write_text("node,b\n")  # wrong header
    assert main(["validate", "--topology", broken]) == 1
    assert "budgets.csv" in capsys.readouterr().err
