import numpy as np
import pytest

# Acceptance tests register one line each; printing them in the terminal
# summary keeps them visible even though pytest captures stdout of
# passing tests.
_ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def long_chain(tmp_path):
    """A bundle whose one flow crosses 1,024 observation points, and a
    writer of its one-period replay trace: (bundle, trace(volume) ->
    path). 2**53 packets times 1,024 measurements pass int64's largest
    value; 2**53 - 1 packets do not."""
    from flowdesign import Flow, TopologySpec, save_topology

    nodes = tuple(f"n{i}" for i in range(1025))
    save_topology(TopologySpec(
        nodes=nodes,
        edges=tuple(e for u, v in zip(nodes, nodes[1:]) for e in ((u, v), (v, u))),
        flows=(Flow(nodes[0], nodes[-1], sigma2=1.0, mu=5.0),),
        budgets={n: 0.3 for n in nodes}), str(tmp_path / "chain"))

    def trace(volume: int) -> str:
        path = tmp_path / "walk.csv"
        path.write_text(f"t,flow_1\n1,{volume}\n")
        return str(path)

    return str(tmp_path / "chain"), trace
