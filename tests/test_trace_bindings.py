"""perfbench/tracing.py patches each traced function at every flowdesign
module it names as a caller, so each of those modules must keep the name
bound to the function itself. Only a traced benchmark run would notice a
dropped binding otherwise."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_table() -> dict:
    """TRACED, read from the source as a literal (nothing is executed)."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TRACED"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def test_every_traced_name_is_bound_in_its_callers():
    table = traced_table()
    assert table
    missing = []
    for (home, fname), callers in table.items():
        fn = getattr(importlib.import_module(f"flowdesign.{home}"), fname)
        for caller in callers:
            module = importlib.import_module(f"flowdesign.{caller}")
            if getattr(module, fname, None) is not fn:
                missing.append(f"flowdesign.{caller}.{fname}")
    assert missing == []
