import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import quasimode

SRC = Path(quasimode.__file__).resolve().parents[1]


def test_all_lists_every_public_name():
    bound = {
        name
        for name, value in vars(quasimode).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(quasimode.__all__) == bound
    assert len(quasimode.__all__) == len(set(quasimode.__all__))


def test_cli_loads_figures_and_tables_and_figures_uses_public_names():
    probe = "import sys, quasimode.cli; print(sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    loaded = set(ast.literal_eval(done.stdout))
    assert {"quasimode.figures", "quasimode.tables"} <= loaded
    tree = ast.parse((SRC / "quasimode" / "figures.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("quasimode"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
