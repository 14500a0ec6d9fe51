import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_does_not_load_scipy_stats():
    # a fresh interpreter: other tests import scipy modules in this process
    probe = ("import json, sys, regmarket, regmarket.cli; "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m == 'scipy.stats' or m.startswith('scipy.stats.'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout) == []


def test_package_import_does_not_load_scipy_linalg_signal_or_optimize():
    # the online block loop and the coalition tables run on numpy alone;
    # these subpackages would add their import time to every run
    banned = ("scipy.linalg", "scipy.signal", "scipy.optimize")
    probe = ("import json, sys, regmarket, regmarket.cli; "
             f"banned = {banned!r}; "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m in banned or m.startswith(tuple(b + '.' for b in banned)))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout) == []


# names a module imports for others to read through it, with the reason
REEXPORTS = {
    # the benchmark self-test (benchmarks/test_benchmark.py) reads loss_h1 through online
    "online": {"loss_h1"},
}


def _unused_module_imports(path: Path) -> list[str]:
    """The names ``path`` binds by a module-level import and never reads:
    not as a name anywhere in the module, nor through its ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    name = "regmarket" if path.stem == "__init__" else f"regmarket.{path.stem}"
    read.update(getattr(importlib.import_module(name), "__all__", ()))
    return sorted(bound - read - REEXPORTS.get(path.stem, set()))


def test_no_module_level_import_goes_unused():
    modules = sorted((SRC / "regmarket").glob("*.py"))
    assert len(modules) > 5
    unused = {p.name: names for p in modules if (names := _unused_module_imports(p))}
    assert unused == {}
