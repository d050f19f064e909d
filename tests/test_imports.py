"""What a fresh interpreter loads to import lambdadet and set up a run, that
every module-level import in the package is read, and that every defaulted
parameter of its public functions is passed by some call."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import lambdadet

PACKAGE = Path(lambdadet.__file__).resolve().parent
SRC = str(PACKAGE.parent)
REPO = PACKAGE.parent.parent

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
    for path in sorted(PACKAGE.glob("*.py")):
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


def _defs():
    """(module, def, is_method) of every module-level function and every
    method of the package; ``is_method`` marks a leading ``self`` or ``cls``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.name, node, False
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        static = any(getattr(d, "id", "") == "staticmethod"
                                     for d in fn.decorator_list)
                        yield path.name, fn, not static


def _calls_by_name():
    """Every call in the package, tests, perfbench and tools, keyed by the
    called name (``f(...)`` and ``x.f(...)`` alike)."""
    calls = {}
    for part in ("src", "tests", "perfbench", "tools"):
        for path in sorted((REPO / part).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, name, index):
    """Whether ``call`` passes the parameter ``name``, at positional
    ``index`` (None: keyword-only): by keyword, by position, or through a
    ``*`` or ``**`` argument."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_no_unused_keywords():
    """Every defaulted parameter, and every ``**kwargs``, of a public
    function or method of src/lambdadet is passed by some call of that name
    in src, tests, perfbench or tools: a keyword that nobody sets is a
    constant. No linter runs in CI, so this stands in for such a rule."""
    calls = _calls_by_name()
    unused = []
    for module, fn, is_method in _defs():
        if fn.name.startswith("_"):
            continue
        args = fn.args
        positional = (args.posonlyargs + args.args)[is_method:]
        defaulted = [(a.arg, k) for k, a in enumerate(positional)
                     if k >= len(positional) - len(args.defaults)]
        defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        sites = calls.get(fn.name, [])
        for name, index in defaulted:
            if not any(_passes(call, name, index) for call in sites):
                unused.append(f"{module}: {fn.name}({name})")
        if args.kwarg:
            named = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if not any(kw.arg not in named for call in sites for kw in call.keywords):
                unused.append(f"{module}: {fn.name}(**{args.kwarg.arg})")
    assert unused == []
