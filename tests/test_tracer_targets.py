"""The functions that ``perfbench/tracer.py`` traces still exist.

The tracer names its targets as "module.qualname" strings in ``SPANS`` and
``COUNTS``, and fails only at install time when one is renamed.  This test
reads the two tables from the file's source, without importing it, and
resolves every target in the ``zhangliu`` package.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_resolves_in_the_package():
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        if node.targets[0].id in ("SPANS", "COUNTS")
    }
    targets = [t for name in ("SPANS", "COUNTS") for group in tables[name].values() for t in group]
    assert targets
    missing = []
    for target in targets:
        module_name, *path = target.split(".")
        owner = importlib.import_module(f"zhangliu.{module_name}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(target)
    assert missing == [], f"{len(targets)} traced targets, missing: {missing}"
