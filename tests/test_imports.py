"""What a fresh interpreter loads to import lambdadet and set up a run, and
that every module-level import in the package is read."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import lambdadet

SRC = str(Path(lambdadet.__file__).resolve().parent.parent)

SETUP = """
import json, sys
import lambdadet
cfg = lambdadet.parse_config("")
lambdadet.fit_drive_calibration(cfg.params, cfg.omega_d, cfg.get("calibration_anchor"))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_setup_loads_no_scipy():
    """Import, config parse and dBm fit load no scipy module: scipy.sparse
    loads at the first propagation and scipy.optimize in the signal-power
    calibration. A module-level scipy import anywhere in the package fails
    this test."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SETUP], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == []


# names a module imports for others to read: perfbench's tracer looks up
# ``protocols.propagate`` and wraps it there
RE_EXPORTS = {("protocols", "propagate")}


def test_no_unused_imports():
    """Every module-level import of each src/lambdadet module other than
    __init__.py binds a name that the module reads, or is a documented
    re-export. No linter runs in CI, so this stands in for its
    unused-import rule."""
    unused = []
    for path in sorted(Path(lambdadet.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used and (path.stem, name) not in RE_EXPORTS:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []
