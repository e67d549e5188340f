import dataclasses

import numpy as np
import pytest

from flowdesign import (
    Flow,
    MeasurementModel,
    RoutingError,
    TopologySpec,
    ValidationError,
    build_measurement_model,
    design_problem,
    flow_model,
    gen_random_walk_trace,
    load_topology,
    load_trace,
    remap_mu,
    route_flows,
    save_topology,
    save_trace,
    solve_naive,
    synth_topology,
)

from flowdesign.network import ParameterError

from oracles import csv_bundle, dense_gls, path_incidence, per_flow_routes


def bidir(links):
    out = []
    for u, v in links:
        out.append((u, v))
        out.append((v, u))
    return tuple(out)


def line_abc(flows, budgets=None):
    return TopologySpec(
        nodes=("a", "b", "c"),
        edges=bidir([("a", "b"), ("b", "c")]),
        flows=tuple(flows),
        budgets=budgets or {"a": 0.1, "b": 0.1, "c": 0.1},
    )


# ------------------------------------------------------------------ routing


def test_line_routing():
    t = line_abc([Flow("a", "c", sigma2=1.0, mu=100.0)])
    assert route_flows(t) == (("a", "b", "c"),)


def test_tie_break_is_lexicographic():
    t = TopologySpec(
        nodes=("a", "b", "c", "d"),
        edges=bidir([("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]),
        flows=(Flow("a", "d", sigma2=1.0, mu=10.0),),
        budgets={n: 0.1 for n in "abcd"},
    )
    assert route_flows(t) == (("a", "b", "d"),)


def test_unreachable_flow_raises():
    t = TopologySpec(
        nodes=("a", "b"), edges=(),
        flows=(Flow("a", "b", sigma2=1.0, mu=10.0),),
        budgets={"a": 0.1, "b": 0.1},
    )
    with pytest.raises(RoutingError, match="flow 0"):
        route_flows(t)


@pytest.mark.parametrize("kind,kw", [
    ("line", dict(n_nodes=6)),
    ("star", dict(n_nodes=7)),
    ("grid", dict(rows=4, cols=5)),
    ("random", dict(n_nodes=12, n_links=20)),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_routes_match_per_flow_bfs(kind, kw, seed):
    # every ordered pair, so most destinations serve several flows
    t = synth_topology(kind, flow_fraction=1.0, seed=seed, **kw)
    assert route_flows(t) == per_flow_routes(t)


@pytest.mark.parametrize("kind,kw,key", [
    ("grid", dict(rows=3, cols=3, n_nodes=50), "n_nodes"),
    ("line", dict(n_nodes=4, rows=2), "rows"),
    ("random", dict(n_nodes=4, cols=2), "cols"),
    ("star", dict(n_nodes=4, n_links=3), "n_links"),
    ("line", dict(n_nodes=4, n_flows=3, flow_fraction=0.9), "flow_fraction"),
])
def test_synth_rejects_what_the_kind_never_reads(kind, kw, key):
    with pytest.raises(ParameterError) as exc:
        synth_topology(kind, **kw)
    assert exc.value.param == key


def test_unset_flow_fraction_keeps_a_quarter_of_the_pairs():
    # 6 nodes: 30 ordered pairs, of which round(0.25 * 30) = 8 are kept
    default = synth_topology("line", n_nodes=6, seed=3)
    assert default == synth_topology("line", n_nodes=6, flow_fraction=0.25, seed=3)
    assert len(default.flows) == 8


def test_unreachable_flow_message_matches_per_flow_bfs():
    t = TopologySpec(
        nodes=("a", "b", "c"), edges=bidir([("a", "b")]),
        flows=(Flow("a", "b", sigma2=1.0, mu=10.0),
               Flow("c", "b", sigma2=1.0, mu=10.0)),
        budgets={n: 0.1 for n in "abc"},
    )
    for route in (route_flows, per_flow_routes):
        with pytest.raises(RoutingError, match=r"^flow 1 \(c->b\) is unreachable$"):
            route(t)


def incidence(t):
    """Path-derived reference: (OPs per flow, traversal matrix)."""
    return path_incidence(t.nodes, t.edges, route_flows(t))


def test_degenerate_flow_has_empty_path():
    t = line_abc([Flow("a", "a", sigma2=1.0, mu=10.0)])
    mm = build_measurement_model(t)
    assert route_flows(t) == (("a",),)
    assert mm.n_g == 0
    assert np.all(mm.J == 0)


# ------------------------------------------------------------------ assembly


def test_single_flow_two_ops():
    # directed-only line: a->b owned by b, b->c owned by c
    t = TopologySpec(
        nodes=("a", "b", "c"),
        edges=(("a", "b"), ("b", "c")),
        flows=(Flow("a", "c", sigma2=1.0, mu=100.0),),
        budgets={"a": 0.2, "b": 0.3, "c": 0.4},
    )
    mm = build_measurement_model(t)
    assert mm.n_g == 2 and mm.n_o == 2 and mm.n_r == 1 and mm.n_v == 3
    assert np.array_equal(mm.L, [[1.0], [1.0]])
    assert np.allclose(mm.J, [[0.01, 0.01]])
    assert np.array_equal(np.argmax(mm.R, axis=0), [1, 2])  # OP owners
    assert np.array_equal(mm.R, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(mm.b, [0.2, 0.3, 0.4])
    assert np.array_equal(incidence(t)[1],
                          [[False, False], [True, False], [False, True]])
    assert np.array_equal(np.any(mm.J > 0, axis=0), [True, True])
    # effective information at xi = (0.01, 0.01): 2e-4
    assert (mm.J @ [0.01, 0.01])[0] == pytest.approx(2e-4)


def test_shared_op_structure():
    t = line_abc([Flow("a", "c", sigma2=1.0, mu=100.0),
                  Flow("a", "b", sigma2=1.0, mu=50.0)])
    mm = build_measurement_model(t)
    # flow-major measurement order: (f0,op a->b), (f0,op b->c), (f1,op a->b)
    k_ab = t.edges.index(("a", "b"))
    k_bc = t.edges.index(("b", "c"))
    assert mm.l_of.tolist() == [0, 0, 1]
    assert mm.k_of.tolist() == [k_ab, k_bc, k_ab]
    assert np.array_equal(mm.L, [[1, 0], [1, 0], [0, 1]])
    assert mm.psi_diag[k_ab, 0] == 1 / 100
    assert mm.psi_diag[k_bc, 1] == 1 / 100
    assert mm.psi_diag[k_ab, 2] == 1 / 50
    assert np.count_nonzero(mm.psi_diag) == 3
    assert mm.n_g == sum(len(ops) for ops in incidence(t)[0])


def test_information_matrix_is_diagonal_and_matches_J():
    rng = np.random.default_rng(0)
    kinds = [("line", dict(n_nodes=5)), ("star", dict(n_nodes=6)),
             ("grid", dict(rows=2, cols=3)),
             ("random", dict(n_nodes=6, n_links=9))]
    for seed in range(10):
        kind, kw = kinds[seed % len(kinds)]
        t = synth_topology(kind, seed=seed, n_flows=6, **kw)
        mm = build_measurement_model(t)
        xi = rng.uniform(0.0, 1.0, size=mm.n_o)
        d_inv = mm.psi_diag.T @ xi
        M = mm.L.T @ (d_inv[:, None] * mm.L)
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) < 1e-14
        assert np.allclose(np.diag(M), mm.J @ xi, atol=1e-12)
        _, diag, M2 = dense_gls(mm.L, d_inv, np.zeros(mm.n_g))
        assert np.allclose(diag, mm.J @ xi, atol=1e-12)


def test_information_is_additive_in_rates():
    t = synth_topology("random", n_nodes=5, n_links=7, n_flows=5, seed=2)
    mm = build_measurement_model(t)
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 0.5, size=mm.n_o)
    b = rng.uniform(0, 0.5, size=mm.n_o)
    lhs = mm.J @ (a + b)
    rhs = mm.J @ a + mm.J @ b
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_J_columns_match_paths():
    t = synth_topology("grid", rows=2, cols=3, n_flows=8, seed=4)
    mm = build_measurement_model(t)
    flow_ops = incidence(t)[0]
    for i, ops in enumerate(flow_ops):
        nz = set(np.flatnonzero(mm.J[i]))
        assert nz == set(ops)
        assert np.allclose(mm.J[i, list(ops)], 1.0 / mm.mu[i])
    for k in range(mm.n_o):
        crossing = {i for i, ops in enumerate(flow_ops) if k in ops}
        assert set(np.flatnonzero(mm.J[:, k])) == crossing


def test_flow_model_view():
    t = line_abc([Flow("a", "c", sigma2=2.5, mu=123.0)])
    fm = flow_model(build_measurement_model(t))
    assert fm.sigma2[0] == 2.5 and fm.mu[0] == 123.0


# ------------------------------------------------------------------ design_problem


def test_design_problem_modes():
    t = line_abc([Flow("a", "c", sigma2=1.0, mu=100.0)])
    mm = build_measurement_model(t)
    p = design_problem(mm)
    assert np.all(p.upper == 1.0)
    assert not p.row_is_equality.any()

    p_eq = design_problem(mm, cap=0.5, constraint_mode="equality_with_zeroing")
    # only routers with a traversed interface become equalities
    traversal = incidence(t)[1]
    traversed_routers = np.any(traversal, axis=1)
    assert np.array_equal(p_eq.row_is_equality, traversed_routers)
    assert p_eq.row_is_equality.sum() == 2
    crossed = np.any(traversal, axis=0)
    assert np.all(p_eq.upper[crossed] == 0.5)
    assert np.all(p_eq.upper[~crossed] == 0.0)

    with pytest.raises(ValidationError):
        design_problem(mm, constraint_mode="soft")


@pytest.mark.parametrize("mode", ["inequality", "equality_with_zeroing"])
@pytest.mark.parametrize("kind, kw", [
    ("grid", dict(rows=3, cols=3)), ("grid", dict(rows=4, cols=5)),
    ("random", dict(n_nodes=8)), ("random", dict(n_nodes=12, n_links=20)),
])
def test_derived_traversal_matches_paths(kind, kw, mode):
    for seed in (1, 2, 3):
        t = synth_topology(kind, seed=seed, **kw)
        # distinct budgets per router, so a misassigned row shows
        t = dataclasses.replace(t, budgets={
            n: 0.01 * (1 + j % 3) for j, n in enumerate(t.nodes)})
        _, traversal = incidence(t)
        p = design_problem(build_measurement_model(t), cap=0.5,
                           constraint_mode=mode)
        traversed_routers = np.any(traversal, axis=1)
        crossed = np.any(traversal, axis=0)
        if mode == "inequality":
            assert not p.row_is_equality.any()
            assert np.all(p.upper == 0.5)
        else:
            assert np.array_equal(p.row_is_equality, traversed_routers)
            assert np.array_equal(p.upper == 0.0, ~crossed)
            assert np.all(p.upper[crossed] == 0.5)
        # naive: each router's budget split equally over its traversed OPs
        xi_ref = np.zeros(len(t.edges))
        for j, n in enumerate(t.nodes):
            if traversed_routers[j]:
                xi_ref[traversal[j]] = t.budgets[n] / traversal[j].sum()
        assert np.array_equal(solve_naive(p).xi, xi_ref)


def test_remap_mu():
    t = line_abc([Flow("a", "c", sigma2=1.0, mu=100.0),
                  Flow("a", "b", sigma2=1.0, mu=50.0)])
    mm = build_measurement_model(t)
    mm2 = remap_mu(mm, [200.0, 25.0])
    assert np.allclose(mm2.J[0][np.flatnonzero(mm2.J[0])], 1 / 200)
    assert np.allclose(mm2.J[1][np.flatnonzero(mm2.J[1])], 1 / 25)
    assert np.array_equal(mm2.J > 0, mm.J > 0)
    assert np.array_equal(mm2.psi_diag > 0, mm.psi_diag > 0)
    assert np.array_equal(mm2.k_of, mm.k_of)
    with pytest.raises(ValidationError):
        remap_mu(mm, [1.0])
    with pytest.raises(ValidationError):
        remap_mu(mm, [0.0, 1.0])


def test_lean_model_stores_no_dense_views():
    t = synth_topology("grid", rows=8, cols=8, budget=0.02, seed=1)
    mm = build_measurement_model(t)
    assert [f.name for f in dataclasses.fields(mm)] == [
        "l_of", "k_of", "J", "R", "b", "mu", "sigma2"]
    stored = [getattr(mm, f.name) for f in dataclasses.fields(mm)]
    nbytes = sum(a.nbytes for a in stored if isinstance(a, np.ndarray))
    assert nbytes < 4e6
    assert mm.n_g == mm.l_of.size
    # the scatter-built J equals the per-flow loop bit for bit
    J_ref = np.zeros((mm.n_r, mm.n_o))
    for i, ops in enumerate(incidence(t)[0]):
        J_ref[i, list(ops)] = 1.0 / mm.mu[i]
    assert np.array_equal(mm.J, J_ref)
    mu2 = mm.mu * np.random.default_rng(0).uniform(0.5, 2.0, mm.n_r)
    t2 = dataclasses.replace(t, flows=tuple(
        dataclasses.replace(f, mu=float(m)) for f, m in zip(t.flows, mu2)))
    assert np.array_equal(remap_mu(mm, mu2).J, build_measurement_model(t2).J)


# ------------------------------------------------------------------ topology spec


@pytest.mark.parametrize(
    "mutate",
    [
        dict(nodes=("a", "a", "b")),
        dict(nodes=("a", " b", "c")),
        dict(nodes=()),
        dict(edges=(("a", "a"),)),
        dict(edges=(("a", "x"),)),
        dict(edges=(("a", "b"), ("a", "b"))),
        dict(flows=(Flow("a", "x", sigma2=1.0, mu=1.0),)),
        dict(flows=(Flow("a", "b", sigma2=0.0, mu=1.0),)),
        dict(flows=(Flow("a", "b", sigma2=1.0, mu=-1.0),)),
        dict(budgets={"a": 0.1, "b": 0.1}),
        dict(budgets={"a": 0.1, "b": 0.1, "c": 0.1, "x": 0.1}),
        dict(budgets={"a": -0.1, "b": 0.1, "c": 0.1}),
    ],
)
def test_topology_spec_validation(mutate):
    base = dict(
        nodes=("a", "b", "c"),
        edges=bidir([("a", "b"), ("b", "c")]),
        flows=(Flow("a", "c", sigma2=1.0, mu=10.0),),
        budgets={"a": 0.1, "b": 0.1, "c": 0.1},
    )
    base.update(mutate)
    with pytest.raises(ValidationError):
        TopologySpec(**base)


# ------------------------------------------------------------------ synthesis


def test_synth_deterministic():
    a = synth_topology("random", n_nodes=6, n_links=9, n_flows=5, seed=5)
    b = synth_topology("random", n_nodes=6, n_links=9, n_flows=5, seed=5)
    assert a == b
    c = synth_topology("random", n_nodes=6, n_links=9, n_flows=5, seed=6)
    assert a != c


def test_synth_edge_counts():
    assert synth_topology("line", n_nodes=5, n_flows=2).n_o == 8
    assert synth_topology("star", n_nodes=7, n_flows=2).n_o == 12
    assert synth_topology("grid", rows=3, cols=4, n_flows=2).n_o == 2 * (3 * 3 + 2 * 4)
    t = synth_topology("random", n_nodes=6, n_links=9, n_flows=2, seed=1)
    assert t.n_o == 18


def test_synth_flows_and_budgets():
    t = synth_topology("line", n_nodes=4, n_flows=5, budget=0.02, seed=3)
    assert t.n_r == 5
    assert all(v == 0.02 for v in t.budgets.values())
    mus = [f.mu for f in t.flows]
    assert all(m > 0 for m in mus)
    # flows are the heaviest candidates: every kept mu is >= the default cut
    t_all = synth_topology("line", n_nodes=4, n_flows=12, seed=3)
    all_mus = sorted((f.mu for f in t_all.flows), reverse=True)
    assert sorted(mus, reverse=True) == all_mus[:5]


def test_synth_every_flow_routable():
    for seed in range(5):
        t = synth_topology("random", n_nodes=7, n_links=10, seed=seed, n_flows=8)
        route_flows(t)  # must not raise


@pytest.mark.parametrize(
    "kind,kw",
    [
        ("hypercube", dict(n_nodes=4)),
        ("line", dict(n_nodes=1)),
        ("grid", dict(rows=1, cols=1)),
        ("random", dict(n_nodes=4, n_links=2)),
        ("random", dict(n_nodes=4, n_links=99)),
        ("line", dict(n_nodes=3, n_flows=0)),
        ("line", dict(n_nodes=3, n_flows=99)),
    ],
)
def test_synth_validation(kind, kw):
    with pytest.raises(ValidationError):
        synth_topology(kind, **kw)


# ------------------------------------------------------------------ bundle I/O


def test_bundle_round_trip(tmp_path):
    t = synth_topology("random", n_nodes=6, n_links=8, n_flows=6, seed=11)
    save_topology(t, str(tmp_path / "topo"))
    back = load_topology(str(tmp_path / "topo"))
    assert back == t  # exact, thanks to 17-digit floats


BUNDLE_FILES = ("nodes.csv", "links.csv", "flows.csv", "budgets.csv")


def written_files(t, dirpath):
    save_topology(t, str(dirpath))
    return {name: (dirpath / name).read_bytes() for name in BUNDLE_FILES}


@pytest.mark.parametrize("kind,kw", [
    ("line", dict(n_nodes=5)), ("star", dict(n_nodes=6)),
    ("grid", dict(rows=3, cols=4)), ("random", dict(n_nodes=7, n_links=10)),
])
@pytest.mark.parametrize("seed", [0, 3])
def test_bundle_bytes_match_csv_writer(tmp_path, kind, kw, seed):
    t = synth_topology(kind, seed=seed, budget=0.02, **kw)
    assert written_files(t, tmp_path) == csv_bundle(t)


def test_bundle_bytes_match_csv_writer_awkward_values(tmp_path):
    # ids that csv.writer leaves unquoted: spaces inside, non-ASCII, a
    # quote-free apostrophe; floats that need all 17 digits, a tiny mean
    # and a negative-zero budget, which writes as -0
    t = TopologySpec(
        nodes=("r 1", "r\u00fc2", "o'3"),
        edges=bidir([("r 1", "r\u00fc2"), ("r\u00fc2", "o'3")]),
        flows=(Flow("r 1", "o'3", sigma2=1 / 3, mu=1e-300),
               Flow("o'3", "r\u00fc2", sigma2=2.0 ** -1074, mu=0.1)),
        budgets={"r 1": -0.0, "r\u00fc2": 1 / 3, "o'3": 1e300})
    files = written_files(t, tmp_path)
    assert files == csv_bundle(t)
    assert files["budgets.csv"].startswith(b"router,b\nr 1,-0\n")
    assert load_topology(str(tmp_path)) == t


def test_node_id_with_quote_is_rejected():
    with pytest.raises(ValidationError, match="bad node id 'a\"b'"):
        TopologySpec(nodes=("a\"b", "c"), edges=bidir([("a\"b", "c")]),
                     flows=(Flow("a\"b", "c", sigma2=1.0, mu=10.0),),
                     budgets={"a\"b": 0.1, "c": 0.1})


def _quoted(line):
    return ",".join(f'"{f}"' for f in line.split(","))


def _spaced(line):
    return ",".join(f"  {f} " for f in line.split(","))


HAND_WRITTEN = {
    "quoted": lambda lines: "\n".join(map(_quoted, lines)) + "\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "blank_lines": lambda lines: "\n \n , \n".join(lines) + "\n\n",
    "spaces": lambda lines: "\n".join(map(_spaced, lines)) + "\n",
}


def _trace_case(tmp_path):
    fm = flow_model(build_measurement_model(synth_topology(
        "line", n_nodes=3, n_flows=2, seed=0)))
    path = tmp_path / "trace.csv"
    save_trace(gen_random_walk_trace(fm, T=4, seed=1), str(path))
    return [path], lambda: load_trace(str(path)).x.tolist()


def _bundle_case(tmp_path):
    save_topology(synth_topology("random", n_nodes=5, n_links=6, n_flows=4,
                                 seed=2), str(tmp_path))
    return ([tmp_path / name for name in BUNDLE_FILES],
            lambda: load_topology(str(tmp_path)))


@pytest.mark.parametrize("case", [_bundle_case, _trace_case])
@pytest.mark.parametrize("style", sorted(HAND_WRITTEN))
def test_hand_written_files_load(tmp_path, case, style):
    paths, load = case(tmp_path)
    expected = load()
    for path in paths:
        path.write_bytes(HAND_WRITTEN[style](
            path.read_text().splitlines()).encode())
    assert load() == expected


@pytest.mark.parametrize("case", [_bundle_case, _trace_case])
def test_short_row_and_bad_header_name_file_and_line(tmp_path, case):
    paths, load = case(tmp_path)
    path = paths[-1]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["", "1"] + lines[2:]) + "\n")
    with pytest.raises(ValidationError,
                       match=rf"^{path.name}: line 4 has 1 fields, expected"):
        load()
    path.write_text("\n".join(["T" + lines[0]] + lines[1:]) + "\n")
    with pytest.raises(ValidationError, match=rf"^{path.name}: line 1: "):
        load()


def test_bundle_missing_file(tmp_path):
    t = synth_topology("line", n_nodes=3, n_flows=2, seed=0)
    save_topology(t, str(tmp_path))
    (tmp_path / "flows.csv").unlink()
    with pytest.raises(ValidationError, match="flows.csv"):
        load_topology(str(tmp_path))


def test_bundle_bad_header(tmp_path):
    t = synth_topology("line", n_nodes=3, n_flows=2, seed=0)
    save_topology(t, str(tmp_path))
    (tmp_path / "budgets.csv").write_text("router,budget\na,0.1\n")
    with pytest.raises(ValidationError, match="budgets.csv"):
        load_topology(str(tmp_path))


def test_bundle_duplicate_budget_row(tmp_path, capsys):
    t = synth_topology("line", n_nodes=3, n_flows=2, seed=0)
    save_topology(t, str(tmp_path))
    with open(tmp_path / "budgets.csv", "a") as fh:
        fh.write("n0,0.5\n")
    with pytest.raises(ValidationError, match="budgets.csv: duplicate router 'n0'"):
        load_topology(str(tmp_path))
    from flowdesign import cli
    assert cli.main(["validate", "--topology", str(tmp_path)]) == 1
    assert "duplicate router 'n0'" in capsys.readouterr().err


def test_bundle_bad_number(tmp_path):
    t = synth_topology("line", n_nodes=3, n_flows=1, seed=0)
    save_topology(t, str(tmp_path))
    path = tmp_path / "flows.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[2] = "not-a-number"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="flows.csv"):
        load_topology(str(tmp_path))


def test_bundle_ragged_row(tmp_path):
    t = synth_topology("line", n_nodes=3, n_flows=1, seed=0)
    save_topology(t, str(tmp_path))
    with open(tmp_path / "links.csv", "a") as fh:
        fh.write("onlyonefield\n")
    with pytest.raises(ValidationError, match="links.csv"):
        load_topology(str(tmp_path))


def test_bundle_not_a_directory(tmp_path):
    with pytest.raises(ValidationError):
        load_topology(str(tmp_path / "nope"))


def test_save_requires_paired_edges(tmp_path):
    t = TopologySpec(
        nodes=("a", "b"), edges=(("a", "b"),),
        flows=(Flow("a", "b", sigma2=1.0, mu=10.0),),
        budgets={"a": 0.1, "b": 0.1},
    )
    with pytest.raises(ValidationError):
        save_topology(t, str(tmp_path))
    # an even number of edges, but (b, c) does not pair with (a, b)
    t = TopologySpec(
        nodes=("a", "b", "c"), edges=(("a", "b"), ("b", "c")),
        flows=(Flow("a", "c", sigma2=1.0, mu=10.0),),
        budgets={"a": 0.1, "b": 0.1, "c": 0.1},
    )
    with pytest.raises(ValidationError):
        save_topology(t, str(tmp_path))
