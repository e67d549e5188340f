import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import flowdesign
from flowdesign import (
    ConfigError,
    build_measurement_model,
    design_problem,
    export_canonical_socp,
    flow_model,
    load_topology,
    load_trace,
    parse_config,
    save_topology,
    serialize_socp,
    solve_classical_E,
    solve_myopic,
    solve_naive,
    solve_steady_state_E,
    synth_topology,
)
from flowdesign import cli, harness
from flowdesign.cli import main

from oracles import float_texts, socp_text


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
    assert msg.startswith("steady_state: theta = ")

    spec = load_topology(bundle)
    mm = build_measurement_model(spec)
    fm = flow_model(mm)
    p = design_problem(mm)
    res = solve_steady_state_E(p, fm)
    np.testing.assert_array_equal(read_xi(out), res.xi)
    assert float((out / "theta.txt").read_text()) == res.theta
    assert (out / "socp.txt").read_text() == serialize_socp(
        export_canonical_socp(p, fm))


def test_design_files_match_per_value_oracle(tmp_path, monkeypatch):
    bundle = str(tmp_path / "grid")
    save_topology(synth_topology("grid", rows=4, cols=4, budget=0.02, seed=1),
                  bundle)
    seen = {}

    def keep(key, fn):
        def kept(*args, **kw):
            seen[key] = fn(*args, **kw)
            return seen[key]
        return kept

    monkeypatch.setattr(cli, "solve_scheme", keep("res", cli.solve_scheme))
    monkeypatch.setattr(cli, "export_canonical_socp",
                        keep("socp", cli.export_canonical_socp))
    out = tmp_path / "design"
    assert main(["design", "--topology", bundle, "--out", str(out)]) == 0
    res = seen["res"]
    assert (out / "xi.csv").read_bytes().decode().split("\n") == [
        "# flowdesign xi.csv v1", "op_id,xi",
        *(f"{k},{v}" for k, v in enumerate(float_texts(res.xi), 1)), ""]
    assert (out / "theta.txt").read_bytes().decode() == (
        float_texts(res.theta)[0] + "\n")
    text = (out / "socp.txt").read_bytes().decode()
    assert text == socp_text(seen["socp"])
    assert " -0 " in text  # budget cones negate zero entries of R


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
    for scheme in ("steady_state_E", "classical_E", "E"):
        assert main(["design", "--topology", bundle, "--scheme", scheme,
                     "--out", str(tmp_path / "x")]) == 2
        assert "--scheme" in capsys.readouterr().err
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


@pytest.mark.parametrize("key,value", [
    ("topology_seed", "3"), ("n_nodes", "5"), ("rows", "4"), ("cols", "4"),
    ("n_links", "4"), ("n_flows", "2"), ("flow_fraction", "2"),
    ("mu_scale", "500"), ("sigma_rel", "0.1"), ("budget", "-1"),
])
def test_synth_key_next_to_topology_dir_exits_2(bundle, tmp_path, capsys, key, value):
    # the bundle fixes the topology, so the key would silently go unread
    argv = ["simulate", "--config", write_cfg(tmp_path, bundle, **{key: value}),
            "--out", str(tmp_path / "x")]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"config field '{key}': applies only with topology_kind" in (
        capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key,value,flags", [
    ("trace_seed", "77", []), ("trace_floor", "3", []),
    ("trace_seed", None, ["--trace-seed", "9"]),
])
def test_walk_key_next_to_trace_file_exits_2(bundle, tmp_path, capsys, key,
                                            value, flags):
    # the file fixes the trace, so the key would silently go unread
    trace = tmp_path / "walk.csv"
    trace.write_text("t,flow_1,flow_2,flow_3\n"
                     + "".join(f"{t},500,600,700\n" for t in range(1, 11)))
    given = {} if value is None else {key: value}
    argv = ["simulate", "--config",
            write_cfg(tmp_path, bundle, trace_file=str(trace), **given),
            "--out", str(tmp_path / "x")] + flags
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: config field '{key}': applies only without trace_file\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv,key", [
    (["simulate", "topology_dir"], "topology_dir"),
    (["simulate", "trace_file"], "trace_file"),
    (["design", "--topology", "", "--out", "x"], "topology_dir"),
    (["validate", "--topology", ""], "topology_dir"),
])
def test_empty_path_exits_2_naming_its_key(bundle, tmp_path, capsys, argv, key):
    # "" is no path: it must not reach the loader as a missing directory
    if argv[0] == "simulate":
        argv = ["simulate", "--config", write_cfg(tmp_path, bundle, **{argv[1]: ""}),
                "--out", str(tmp_path / "x")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: config field '{key}': must not be empty\n")


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


@pytest.mark.parametrize("settings,key,dest", [
    (dict(topology_kind="random", n_nodes=5, n_links=100), "n_links", "links"),
    (dict(topology_kind="random", n_nodes=5, n_links=3), "n_links", "links"),
    (dict(topology_kind="line", n_nodes=1), "n_nodes", "nodes"),
    (dict(topology_kind="star"), "n_nodes", "nodes"),
    (dict(topology_kind="grid", rows=0, cols=3), "rows", "rows"),
    (dict(topology_kind="grid", cols=3), "rows", "rows"),
    (dict(topology_kind="grid", rows=2, cols=-1), "cols", "cols"),
    (dict(topology_kind="grid", rows=1, cols=1), "cols", "cols"),
    (dict(topology_kind="line", n_nodes=3, sigma_rel=1e200), "sigma_rel",
     "sigma_rel"),
    (dict(topology_kind="line", n_nodes=3, mu_scale=1e308), "mu_scale",
     "mu_scale"),
])
@pytest.mark.parametrize("via", ["config", "synth"])
def test_bad_topology_shape_is_named(tmp_path, capsys, settings, key, dest, via):
    if via == "config":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items())
                       + "horizon = 4\nreplications = 1\n")
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]
        field = key
    else:
        flags = {"topology_kind": "kind", "n_nodes": "nodes",
                 "n_links": "links"}
        argv = ["synth", "--out", str(tmp_path / "s")]
        for k, v in settings.items():
            argv += ["--" + flags.get(k, k).replace("_", "-"), str(v)]
        field = dest
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}': must " in err
    assert "Warning" not in err


@pytest.mark.parametrize("settings,key,dest", [
    # the run this once was: a 9-node grid with 4 flows, and no word
    (dict(topology_kind="grid", rows=3, cols=3, n_nodes=50, n_links=2,
          n_flows=4, flow_fraction=0.9), "n_nodes", "nodes"),
    (dict(topology_kind="line", n_nodes=4, rows=3), "rows", "rows"),
    (dict(topology_kind="star", n_nodes=4, cols=3), "cols", "cols"),
    (dict(topology_kind="line", n_nodes=4, n_links=3), "n_links", "links"),
    (dict(topology_kind="grid", rows=2, cols=2, n_links=3), "n_links", "links"),
    (dict(topology_kind="line", n_nodes=4, n_flows=3, flow_fraction=0.5),
     "flow_fraction", "flow_fraction"),
])
@pytest.mark.parametrize("via", ["config", "synth"])
def test_synth_key_the_topology_never_reads_exits_2(tmp_path, capsys, settings,
                                                    key, dest, via):
    if via == "config":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items())
                       + "horizon = 4\nreplications = 1\n")
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]
        field = key
    else:
        flags = {"topology_kind": "kind", "n_nodes": "nodes",
                 "n_links": "links", "n_flows": "flows"}
        argv = ["synth", "--out", str(tmp_path / "x")]
        for k, v in settings.items():
            argv += ["--" + flags.get(k, k).replace("_", "-"), str(v)]
        field = dest
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}': applies only ")
    assert not (tmp_path / "x").exists()


def test_hash_inside_a_path_value_is_kept(tmp_path, capsys):
    # a `#` with no blank before it is part of the path, not a comment
    topo = str(tmp_path / "run#1" / "topo")
    assert main(["synth", "--kind", "line", "--nodes", "4", "--flows", "2",
                 "--budget", "0.02", "--out", topo]) == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"topology_dir = {topo}  # the first run\n"
                   "scheme = naive # a note\nhorizon = 6\nblock_size = 3\n"
                   "replications = 2\n")
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("simulate[naive]: ")
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "idealized"])
def test_runs_print_the_instance_warnings(tmp_path, capsys, command):
    # b -> b has no link on its path: its flow is unobservable, which the
    # runs now say, as design does, before idealized reports inf
    topo = str(tmp_path / "topo")
    save_topology(flowdesign.TopologySpec(
        nodes=("a", "b", "c"), edges=(("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")),
        flows=(flowdesign.Flow("a", "c", sigma2=100.0, mu=1000.0),
               flowdesign.Flow("b", "b", sigma2=100.0, mu=1000.0)),
        budgets={"a": 0.02, "b": 0.02, "c": 0.02}), topo)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"topology_dir = {topo}\nmu_mode = true_mu\nhorizon = 20\n"
                   "block_size = 5\nreplications = 2\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: flow 1 is unobservable (all-zero J row)\n"
    assert captured.out.startswith(f"{command}[steady_state]: median max MSE ")
    if command == "idealized":
        assert " median max MSE inf " in captured.out


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


def test_design_scheme_spellings_write_same_files(bundle, tmp_path, capsys):
    outs = []
    for spelling in ("steady-state", "steady_state"):
        out = tmp_path / spelling
        assert main(["design", "--topology", bundle, "--scheme", spelling,
                     "--out", str(out)]) == 0
        outs.append(out)
        assert capsys.readouterr().out.startswith("steady_state: theta = ")
    for name in ("xi.csv", "theta.txt", "socp.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_experiments_reject_classical(bundle, tmp_path, capsys):
    cfg = write_cfg(tmp_path, bundle, scheme="classical")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert ("config field 'scheme': must be one of naive, myopic, "
            "steady_state") in err


def test_simulate_rejects_a_fractional_trace_floor(tmp_path, capsys):
    # the walk clamps at trace_floor, so 0.5 must fail as a config error
    # naming its key, not later inside Trace (exit 1)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topology_kind = line\nn_nodes = 3\nsigma_rel = 2.0\n"
                   "horizon = 50\ntrace_floor = 0.5\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "error: config field 'trace_floor': must be integer packet counts\n")
    assert not (tmp_path / "x").exists()


def test_unobservable_flow_is_warned_and_still_exits_0(bundle, tmp_path, capsys):
    # a flow from n1 to n1 crosses no observation point
    flows = os.path.join(bundle, "flows.csv")
    with open(flows) as fh:
        lines = fh.read().splitlines()
    lines.insert(2, "n1,n1,100,1000")
    with open(flows, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    warning = "warning: flow 1 is unobservable (all-zero J row)\n"
    assert main(["validate", "--topology", bundle]) == 0
    out = capsys.readouterr()
    assert out.out.startswith(warning) and out.err == ""
    assert "4 flows" in out.out
    assert main(["design", "--topology", bundle, "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr()
    assert out.err == warning
    assert out.out.startswith("steady_state: theta = 0 over ")
    assert (tmp_path / "d" / "theta.txt").read_text() == "0\n"


def test_validate_accepts_tiny_means(tmp_path, capsys):
    # flow means of 1e-4 packets give J entries near 1e4; an absolute
    # 1e-12 check of J xi used to reject this valid bundle
    d = str(tmp_path / "tiny")
    save_topology(synth_topology("grid", rows=4, cols=4, budget=0.02, seed=1,
                                 mu_scale=1e-4), d)
    assert main(["validate", "--topology", d]) == 0
    assert capsys.readouterr().out.endswith(
        "ok: 16 routers, 48 observation points, 60 flows, 160 measurements\n")


def run_cli(*argv):
    """flowdesign in a fresh interpreter, so an uncaught error shows as a
    traceback on stderr."""
    src = os.path.dirname(os.path.dirname(flowdesign.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "flowdesign.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_non_utf8_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"# caf\xc3\xa9 is UTF-8\nhorizon = 10\nscheme = \xff\n")
    proc = run_cli("idealized", "--config", str(cfg), "--out",
                   str(tmp_path / "x"))
    assert proc.returncode == 2
    assert "config field 'config': bad.cfg: line 3 is not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_utf8_bundle_exits_1(bundle, tmp_path):
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(bundle, broken)
    flows = broken / "flows.csv"
    flows.write_bytes(flows.read_bytes() + b"n1,n\xff,1,1\n")
    proc = run_cli("validate", "--topology", str(broken))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: flows.csv: line 5 is not UTF-8")
    assert "Traceback" not in proc.stderr


def test_non_utf8_trace_exits_1(bundle, tmp_path):
    trace = tmp_path / "walk.csv"
    trace.write_bytes(b"t,flow_1,flow_2,flow_3\n1,5,5,5\n2,5,\xff,5\n")
    cfg = write_cfg(tmp_path, bundle, trace_file=str(trace))
    proc = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: walk.csv: line 3 is not UTF-8")
    assert "Traceback" not in proc.stderr


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some editors write first


def with_bom(path, to=None):
    """Write ``path``'s bytes behind a byte-order mark to ``to`` (default:
    ``path`` itself); returns the path written, as a string."""
    to = pathlib.Path(path if to is None else to)
    to.write_bytes(BOM + pathlib.Path(path).read_bytes())
    return str(to)


def test_config_with_bom_reads_as_without(bundle, tmp_path):
    cfg = write_cfg(tmp_path, bundle)  # topology_dir is its first key
    assert parse_config(with_bom(cfg, tmp_path / "bom.cfg")) == parse_config(cfg)


def test_bundle_with_bom_reads_as_without(bundle, tmp_path):
    import shutil
    marked = tmp_path / "marked"
    shutil.copytree(bundle, marked)
    for name in ("nodes.csv", "links.csv", "flows.csv", "budgets.csv"):
        with_bom(marked / name)
    assert load_topology(str(marked)) == load_topology(bundle)


def test_trace_with_bom_reads_as_without(tmp_path):
    plain = tmp_path / "walk.csv"
    plain.write_bytes(b"t,flow_1,flow_2\n1,5,7\n2,6,8\n")
    marked = load_trace(with_bom(plain, tmp_path / "bom.csv"))
    assert np.array_equal(marked.x, load_trace(str(plain)).x)


@pytest.mark.parametrize("data,line", [
    (b"# caf\xc3\xa9 is UTF-8\nhorizon = 10\nscheme = \xff\n", 3),
    (b"a\n\xff\n", 2),  # the bad byte sits within three bytes of a line end
])
def test_bad_byte_after_bom_keeps_its_line_number(tmp_path, data, line):
    for name, text in (("plain.cfg", data), ("bom.cfg", BOM + data)):
        cfg = tmp_path / name
        cfg.write_bytes(text)
        with pytest.raises(ConfigError,
                           match=f"{name}: line {line} is not UTF-8$"):
            parse_config(str(cfg))


@pytest.mark.parametrize("volume", ["1000.5", "-3", "inf", "nan"])
def test_bad_trace_volume_names_its_line(bundle, tmp_path, capsys, volume):
    rows = [f"{t},1000,1000,1000" for t in range(1, 11)]
    rows[1] = f"2,1000,{volume},1000"
    rows[3] = f"4,{volume},1000,1000"  # the message names the first bad row
    trace = tmp_path / "walk.csv"
    trace.write_text("\n".join(["t,flow_1,flow_2,flow_3"] + rows) + "\n")
    cfg = write_cfg(tmp_path, bundle, trace_file=str(trace))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: walk.csv: line 3: volumes must be integer packet counts >= 0\n")


def test_trace_volume_past_the_count_ceiling_exits_1(bundle, tmp_path):
    # 1e19 is an integer >= 0, but it casts to a negative int64: the run
    # must stop at the file, not in numpy's binomial with a traceback
    rows = [f"{t},1000,1000,1000" for t in range(1, 11)]
    rows[2] = "3,1000,1e19,1000"
    trace = tmp_path / "walk.csv"
    trace.write_text("\n".join(["t,flow_1,flow_2,flow_3"] + rows) + "\n")
    cfg = write_cfg(tmp_path, bundle, trace_file=str(trace))
    proc = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x"))
    assert proc.returncode == 1
    assert proc.stderr == "error: walk.csv: line 4: volumes must be at most 2**53\n"


def test_trace_volume_times_measurements_past_int64_exits_1(
        long_chain, tmp_path, capsys, monkeypatch):
    # every volume is a count <= 2**53, but 2**53 packets times the flow's
    # 1,024 measurements would wrap int64: the run stops with one error
    # line before any packet is drawn
    bundle, trace = long_chain
    drawn = []
    monkeypatch.setattr(harness, "_draw", lambda *args: drawn.append(args))
    cfg = write_cfg(tmp_path, bundle, trace_file=trace(2 ** 53),
                    scheme="naive", horizon=1, replications=1)
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: volumes times measurements per rate exceed int64\n")
    assert drawn == []


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
from flowdesign.cli import main
out = sys.argv[1]
topo, cfg = out + "/topo", out + "/exp.cfg"
assert main(["synth", "--kind", "line", "--nodes", "4", "--flows", "2",
             "--budget", "0.02", "--out", topo]) == 0
assert main(["design", "--topology", topo, "--scheme", "steady_state",
             "--out", out + "/design"]) == 0
for command, mu_mode in (("simulate", "plugin"), ("idealized", "true_mu")):
    with open(cfg, "w") as fh:
        fh.write(f"topology_dir = {topo}\\nmu_mode = {mu_mode}\\n"
                 "horizon = 10\\nblock_size = 5\\nreplications = 2\\n")
    assert main([command, "--config", cfg, "--out", out + "/" + command]) == 0
allowed = set(sys.stdlib_module_names) | {"numpy", "flowdesign"}
# numpy.random's Cython extensions register Cython's shared runtime as
# in-memory modules (cython_runtime, _cython_3_x_y); no file backs them
print(sorted(m for m in set(sys.modules) - before
             if m.partition(".")[0] not in allowed
             and not (m == "cython_runtime" or m.startswith("_cython_"))))
"""


def test_runtime_loads_only_numpy_and_the_standard_library(tmp_path):
    src = os.path.dirname(os.path.dirname(flowdesign.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "design" / "socp.txt").is_file()
    assert proc.stdout.splitlines()[-1] == "[]"
