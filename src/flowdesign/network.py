"""Topology handling and the linear measurement model.

A network is a set of routers (nodes) and directed edges. Every directed
edge is an observation point (OP): the incoming interface of its head
router, where packets can be sampled. Flows are origin/destination pairs
routed on shortest paths; a flow crossing an OP contributes one raw
measurement per period, and stacking all (OP, flow) incidences gives the
linear model

    z = L x + noise,   Cov = D(xi)^-1 on the diagonal,

with L a 0/1 matrix having one 1 per row. Because distinct flows never
share a measurement row, L'D^-1 L is diagonal and the per-flow
information is simply m = J xi with J[i, k] = 1/mu_i when flow i crosses
OP k. Budget rows R xi <= b cap the total sampling rate per router.
The model stores only J and the measurement -> (flow, OP) incidence;
dense L and Psi_k are views built on demand for checks and demos.

Observation points are numbered 1..n_o in files and op_id columns;
arrays here are 0-indexed.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .model import (DesignProblem, FlowDesignError, FlowModel, ValidationError,
                    floats_text, frozen, parse_number, read_csv, write_lines)


CONSTRAINT_MODES = ("inequality", "equality_with_zeroing")
TOPOLOGY_KINDS = ("line", "star", "grid", "random")  # synth_topology's kinds


class RoutingError(FlowDesignError):
    """A flow cannot be routed on the given topology."""


class ParameterError(ValidationError):
    """A bad synth_topology argument; ``param`` is its keyword."""

    def __init__(self, param: str, detail: str):
        self.param, self.detail = param, detail
        super().__init__(f"{param} {detail}")


@dataclass(frozen=True)
class Flow:
    origin: str
    destination: str
    sigma2: float
    mu: float


@dataclass(frozen=True)
class TopologySpec:
    """Declarative network description.

    nodes: router ids: unique, nonempty, no surrounding whitespace, and
           none of `,` `"` CR LF, so a bundle row is its fields joined
           by commas and never needs CSV quoting
    edges: directed (u, v) pairs; edge index = observation point index
    flows: Flow records
    budgets: router id -> per-router sampling budget b_j >= 0
    """

    nodes: tuple
    edges: tuple
    flows: tuple
    budgets: dict

    def __post_init__(self):
        nodes = tuple(str(n) for n in self.nodes)
        if not nodes:
            raise ValidationError("topology needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValidationError("duplicate node ids")
        for n in nodes:
            if not n or any(ch in n for ch in ',"\n\r') or n != n.strip():
                raise ValidationError(f"bad node id {n!r}")
        known = set(nodes)
        edges = tuple((str(u), str(v)) for u, v in self.edges)
        seen = set()
        for u, v in edges:
            if u not in known or v not in known:
                raise ValidationError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise ValidationError(f"self-loop edge at {u}")
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        flows = []
        for idx, f in enumerate(self.flows):
            if f.origin not in known or f.destination not in known:
                raise ValidationError(
                    f"flow {idx} ({f.origin}->{f.destination}) references unknown node")
            if not (np.isfinite(f.sigma2) and f.sigma2 > 0):
                raise ValidationError(f"flow {idx}: sigma2 must be finite and > 0")
            if not (np.isfinite(f.mu) and f.mu > 0):
                raise ValidationError(f"flow {idx}: mu must be finite and > 0")
            flows.append(replace(f, origin=str(f.origin),
                                 destination=str(f.destination)))
        budgets = {str(k): float(v) for k, v in self.budgets.items()}
        missing = known - set(budgets)
        if missing:
            raise ValidationError(f"budgets missing for nodes {sorted(missing)}")
        extra = set(budgets) - known
        if extra:
            raise ValidationError(f"budgets for unknown nodes {sorted(extra)}")
        for k, v in budgets.items():
            if not (np.isfinite(v) and v >= 0):
                raise ValidationError(f"budget for {k} must be finite and >= 0")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "flows", tuple(flows))
        object.__setattr__(self, "budgets", budgets)

    @property
    def n_v(self) -> int:
        return len(self.nodes)

    @property
    def n_o(self) -> int:
        return len(self.edges)

    @property
    def n_r(self) -> int:
        return len(self.flows)


def _adjacency(edges):
    fwd: dict = {}
    rev: dict = {}
    for u, v in edges:
        fwd.setdefault(u, set()).add(v)
        rev.setdefault(v, set()).add(u)
    return fwd, rev


def _distances(rev, dest: str) -> dict:
    """Hop count from every node that can reach ``dest``: one BFS from
    the destination over reversed edges."""
    dist = {dest: 0}
    queue = deque([dest])
    while queue:
        cur = queue.popleft()
        for prev in rev.get(cur, ()):
            if prev not in dist:
                dist[prev] = dist[cur] + 1
                queue.append(prev)
    return dist


def route_flows(t: TopologySpec):
    """Shortest path (node tuple) per flow: fewest hops, then the
    lexicographically smallest node sequence, walked forward by always
    taking the smallest next node still on a shortest path. The hop
    counts left come from one reverse BFS per destination."""
    fwd, rev = _adjacency(t.edges)
    dists = {}
    paths = []
    for idx, f in enumerate(t.flows):
        if f.destination not in dists:
            dists[f.destination] = _distances(rev, f.destination)
        dist = dists[f.destination]
        if f.origin not in dist:
            raise RoutingError(
                f"flow {idx} ({f.origin}->{f.destination}) is unreachable")
        path = [f.origin]
        while path[-1] != f.destination:
            step = dist[path[-1]] - 1
            path.append(min(nb for nb in fwd.get(path[-1], ())
                            if dist.get(nb, -1) == step))
        paths.append(tuple(path))
    return tuple(paths)


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Assembled linear model for one topology and routing.

    Measurements are ordered flow-major: all OPs along flow 0's path,
    then flow 1's, and so on; measurement g observes flow l_of[g] at OP
    k_of[g], and n_g = l_of.size. The dense ``L`` and ``psi_diag`` are
    not stored: they are properties that rebuild the view from l_of,
    k_of and mu on each access, for checks and demos; the runtime never
    calls them. Every array is stored read-only (see model.frozen).
    """

    l_of: np.ndarray       # (n_g,) measurement -> flow index
    k_of: np.ndarray       # (n_g,) measurement -> OP index
    J: np.ndarray          # (n_r, n_o)
    R: np.ndarray          # (n_v, n_o) budget rows, R[j,k]=1 iff router j owns OP k
    b: np.ndarray          # (n_v,)
    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        for name in ("l_of", "k_of", "J", "R", "b", "mu", "sigma2"):
            object.__setattr__(self, name, frozen(getattr(self, name)))

    @property
    def n_r(self) -> int:
        return self.J.shape[0]

    @property
    def n_o(self) -> int:
        return self.J.shape[1]

    @property
    def n_v(self) -> int:
        return self.R.shape[0]

    @property
    def n_g(self) -> int:
        return self.l_of.size

    @property
    def L(self) -> np.ndarray:
        """Dense (n_g, n_r) one-hot view of l_of, built on each access."""
        L = np.zeros((self.n_g, self.n_r))
        L[np.arange(self.n_g), self.l_of] = 1.0
        return L

    @property
    def psi_diag(self) -> np.ndarray:
        """Dense (n_o, n_g) view, row k = diag(Psi_k), built on each access."""
        psi = np.zeros((self.n_o, self.n_g))
        psi[self.k_of, np.arange(self.n_g)] = 1.0 / self.mu[self.l_of]
        return psi


def _information_matrix(l_of, k_of, mu, n_o: int) -> np.ndarray:
    """J[i, k] = 1/mu_i where flow i crosses OP k (a path never crosses
    the same OP twice, so each cell is written at most once)."""
    J = np.zeros((mu.size, n_o))
    J[l_of, k_of] = 1.0 / mu[l_of]
    J.flags.writeable = False  # so frozen keeps it uncopied
    return J


def build_measurement_model(t: TopologySpec) -> MeasurementModel:
    """Route flows and assemble J, R, b."""
    paths = route_flows(t)
    edge_index = {e: k for k, e in enumerate(t.edges)}
    node_index = {n: j for j, n in enumerate(t.nodes)}
    mu = np.array([f.mu for f in t.flows])
    sigma2 = np.array([f.sigma2 for f in t.flows])

    flow_ops = tuple(tuple(edge_index[(a, b)] for a, b in zip(p, p[1:]))
                     for p in paths)
    l_of = np.repeat(np.arange(t.n_r), [len(ops) for ops in flow_ops])
    k_of = np.array([k for ops in flow_ops for k in ops], dtype=int)

    owner = np.array([node_index[v] for _u, v in t.edges], dtype=int)
    R = np.zeros((t.n_v, t.n_o))
    R[owner, np.arange(t.n_o)] = 1.0
    b = np.array([t.budgets[n] for n in t.nodes])
    return MeasurementModel(
        l_of=l_of, k_of=k_of, J=_information_matrix(l_of, k_of, mu, t.n_o),
        R=R, b=b, mu=mu, sigma2=sigma2)


def flow_model(mm: MeasurementModel) -> FlowModel:
    return FlowModel(sigma2=mm.sigma2, mu=mm.mu)


def design_problem(mm: MeasurementModel, cap=1.0,
                   constraint_mode: str = "inequality") -> DesignProblem:
    """DesignProblem view of the model.

    ``cap`` bounds each rate from above (sampling probabilities: 1).
    ``constraint_mode`` is one of CONSTRAINT_MODES: "inequality" keeps
    the budget rows R xi <= b; "equality_with_zeroing" turns them into
    R xi = b and pins rates of uncrossed observation points to 0. Only
    routers with at least one traversed interface (an owned one that some
    flow crosses, J[:, k] > 0) get an equality row; a router nothing
    crosses would make 0 = b_j infeasible, so its row stays an inequality.
    """
    if constraint_mode not in CONSTRAINT_MODES:
        raise ValidationError(
            f"constraint_mode must be one of {', '.join(CONSTRAINT_MODES)}")
    upper = np.broadcast_to(np.asarray(cap, dtype=float), (mm.n_o,)).copy()
    row_is_equality = None
    if constraint_mode == "equality_with_zeroing":
        traversal = (mm.R > 0) & np.any(mm.J > 0, axis=0)
        upper[~np.any(traversal, axis=0)] = 0.0
        row_is_equality = np.any(traversal, axis=1)
    return DesignProblem(J=mm.J, R=mm.R, b=mm.b,
                         row_is_equality=row_is_equality, upper=upper)


def remap_mu(mm: MeasurementModel, mu_new) -> MeasurementModel:
    """Same topology and routing, new mean volumes (plug-in estimates)."""
    mu_new = np.atleast_1d(np.asarray(mu_new, dtype=float))
    if mu_new.shape != (mm.n_r,):
        raise ValidationError("mu must have one entry per flow")
    if np.any(mu_new <= 0) or not np.all(np.isfinite(mu_new)):
        raise ValidationError("mu must be finite and > 0")
    J = _information_matrix(mm.l_of, mm.k_of, mu_new, mm.n_o)
    return replace(mm, J=J, mu=mu_new)


# ---------------------------------------------------------------------------
# synthetic topologies


def _node_names(n: int):
    width = len(str(n - 1))
    return tuple(f"n{i:0{width}d}" for i in range(n))


def _grid_links(rows: int, cols: int):
    links = []
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            if c + 1 < cols:
                links.append((idx, idx + 1))
            if r + 1 < rows:
                links.append((idx, idx + cols))
    return links


def _random_links(n: int, n_links: int, rng):
    max_links = n * (n - 1) // 2
    if not (n - 1 <= n_links <= max_links):
        raise ParameterError("n_links", f"must be in [{n - 1}, {max_links}] "
                                        f"for {n} nodes, got {n_links}")
    order = rng.permutation(n)
    links = set()
    # random spanning tree first so every pair is connected
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a, b = int(order[i]), int(order[j])
        links.add((min(a, b), max(a, b)))
    while len(links) < n_links:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a == b:
            continue
        links.add((min(a, b), max(a, b)))
    return sorted(links)


def synth_topology(kind: str, *, n_nodes=None, rows=None, cols=None,
                   n_links=None, n_flows=None, flow_fraction: float | None = None,
                   mu_scale: float = 1000.0, sigma_rel: float = 0.05,
                   budget: float = 0.01, seed: int = 0) -> TopologySpec:
    """Reproducible synthetic topology with flows and budgets.

    Kinds: line (n_nodes), star (n_nodes), grid (rows x cols),
    random (n_nodes, n_links; a random spanning tree plus extra links).
    Every link becomes two directed edges. Candidate flows are all
    ordered node pairs with lognormal mean volumes; the heaviest
    fraction (default 0.25) or the top ``n_flows`` is kept, mirroring
    how only the largest flows are worth tracking. Innovation std is
    sigma_rel * mu * Uniform(0.5, 1.5) per flow. A size the kind does
    not read (n_nodes for a grid, rows or cols for any other kind,
    n_links for any kind but random), or flow_fraction next to n_flows,
    raises ParameterError rather than going unread.
    """
    for name, value, ok, need in (
            ("mu_scale", mu_scale, mu_scale > 0, "finite and > 0"),
            ("sigma_rel", sigma_rel, sigma_rel > 0, "finite and > 0"),
            ("budget", budget, budget >= 0, "finite and >= 0"),
            ("flow_fraction", flow_fraction,
             flow_fraction is None or 0 < flow_fraction <= 1, "in (0, 1]"),
            ("n_flows", n_flows, n_flows is None or n_flows >= 1, ">= 1")):
        if not (ok and (value is None or np.isfinite(value))):
            raise ParameterError(name, f"must be {need}, got {value!r}")
    if kind not in TOPOLOGY_KINDS:
        raise ParameterError(
            "kind", f"must be one of {', '.join(TOPOLOGY_KINDS)}, got {kind!r}")
    for name, value, read, only in (
            ("n_nodes", n_nodes, kind != "grid", "to line, star and random topologies"),
            ("rows", rows, kind == "grid", "to a grid"),
            ("cols", cols, kind == "grid", "to a grid"),
            ("n_links", n_links, kind == "random", "to a random topology")):
        if value is not None and not read:
            raise ParameterError(name, f"applies only {only}, not to a {kind}")
    if flow_fraction is not None and n_flows is not None:
        raise ParameterError("flow_fraction", "applies only without a flow count")
    rng = np.random.default_rng(seed)
    if kind == "grid":
        for name, value in (("rows", rows), ("cols", cols)):
            if value is None or value < 1:
                raise ParameterError(name, f"must be >= 1 for a grid, got {value!r}")
        if rows * cols < 2:
            raise ParameterError("cols", "must be >= 2 when rows is 1, got 1")
        n, links = rows * cols, _grid_links(rows, cols)
    else:
        if n_nodes is None or n_nodes < 2:
            raise ParameterError(
                "n_nodes", f"must be >= 2 for a {kind} topology, got {n_nodes!r}")
        n = n_nodes
        if kind == "line":
            links = [(i, i + 1) for i in range(n - 1)]
        elif kind == "star":
            links = [(0, i) for i in range(1, n)]
        else:
            if n_links is None:
                n_links = min(2 * n, n * (n - 1) // 2)
            links = _random_links(n, n_links, rng)

    names = _node_names(n)
    edges = [e for a, b in links for e in ((names[a], names[b]), (names[b], names[a]))]

    pairs = [(u, v) for u in names for v in names if u != v]
    keep = n_flows if n_flows is not None else max(
        1, round((flow_fraction or 0.25) * len(pairs)))  # 0 was rejected above
    if keep > len(pairs):
        raise ParameterError("n_flows", f"must be <= {len(pairs)}, got {keep}")
    with np.errstate(over="ignore"):  # a non-finite mu or sigma2 is named below
        mu = mu_scale * rng.lognormal(mean=0.0, sigma=1.0, size=len(pairs))
        spread = rng.uniform(0.5, 1.5, size=len(pairs))
        chosen = np.sort(np.argsort(-mu, kind="stable")[:keep])
        flows = tuple(
            Flow(origin=pairs[i][0], destination=pairs[i][1],
                 sigma2=float((sigma_rel * mu[i] * spread[i]) ** 2),
                 mu=float(mu[i]))
            for i in chosen)
    if not all(0 < f.mu < np.inf for f in flows):
        raise ParameterError("mu_scale", "must give every flow a finite mu > 0, "
                                         f"got {mu_scale!r}")
    if not all(0 < f.sigma2 < np.inf for f in flows):
        raise ParameterError("sigma_rel", "must give every flow a finite sigma2 > 0 "
                                          f"at mu_scale {mu_scale!r}, got {sigma_rel!r}")
    budgets = {name: budget for name in names}
    return TopologySpec(nodes=names, edges=tuple(edges), flows=flows,
                        budgets=budgets)


# ---------------------------------------------------------------------------
# CSV bundle I/O
#
# nodes.csv:   id
# links.csv:   u,v            (each row expands to directed edges u->v, v->u)
# flows.csv:   origin,destination,sigma2,mu
# budgets.csv: router,b


def _read_csv(dirpath, name, header):
    """The (line number, fields) rows of bundle file ``name`` under ``header``."""
    got, rows = read_csv(os.path.join(dirpath, name), "bundle file")
    if got != header:
        raise ValidationError(
            f"{name}: line 1: expected header {','.join(header)}")
    return list(rows)


def _paired_links(edges):
    """Collapse (u,v),(v,u) edge pairs back to links; raises if impossible."""
    if len(edges) % 2:
        raise ValidationError("edge list is not arranged as bidirectional links")
    links = []
    for m in range(0, len(edges), 2):
        u, v = edges[m]
        if edges[m + 1] != (v, u):
            raise ValidationError(
                "edge list is not arranged as bidirectional links")
        links.append((u, v))
    return links


def save_topology(t: TopologySpec, dirpath: str) -> None:
    """Write the four-file CSV bundle. Requires the bundle edge layout
    (consecutive (u,v),(v,u) pairs), which synth_topology and
    load_topology both produce."""
    links = _paired_links(t.edges)
    os.makedirs(dirpath, exist_ok=True)
    texts = iter(floats_text([v for f in t.flows for v in (f.sigma2, f.mu)]
                             + [t.budgets[n] for n in t.nodes]))
    flows = [[f.origin, f.destination, next(texts), next(texts)]
             for f in t.flows]
    budgets = zip(t.nodes, texts)  # the texts after the flows'
    for name, header, rows in (
            ("nodes.csv", "id", zip(t.nodes)), ("links.csv", "u,v", links),
            ("flows.csv", "origin,destination,sigma2,mu", flows),
            ("budgets.csv", "router,b", budgets)):
        write_lines(os.path.join(dirpath, name),
                    chain([header], map(",".join, rows)))


def load_topology(dirpath: str) -> TopologySpec:
    """Read a bundle written by save_topology (or by hand)."""
    if not os.path.isdir(dirpath):
        raise ValidationError(f"topology bundle {dirpath!r} is not a directory")

    nodes = tuple(n for _line, (n,) in _read_csv(dirpath, "nodes.csv", ["id"]))
    edges = [e for _line, (u, v) in _read_csv(dirpath, "links.csv", ["u", "v"])
             for e in ((u, v), (v, u))]
    flows = tuple(
        Flow(origin=o, destination=d, sigma2=parse_number(s2, "flows.csv", line),
             mu=parse_number(m, "flows.csv", line))
        for line, (o, d, s2, m) in _read_csv(
            dirpath, "flows.csv", ["origin", "destination", "sigma2", "mu"]))
    budgets = {}
    for line, (r, bv) in _read_csv(dirpath, "budgets.csv", ["router", "b"]):
        if r in budgets:
            raise ValidationError(f"budgets.csv: duplicate router {r!r}")
        budgets[r] = parse_number(bv, "budgets.csv", line)
    return TopologySpec(nodes=nodes, edges=tuple(edges), flows=flows,
                        budgets=budgets)
