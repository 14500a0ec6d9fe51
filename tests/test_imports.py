import ast
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regmarket import losses

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


def _fresh(probe: str, stdin: bytes = b"") -> bytes:
    """Standard output of ``probe`` run in a fresh interpreter on the package in ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, input=stdin, timeout=120).stdout


# prints the scipy modules loaded, leaving out a blocked (None) entry
SCIPY_MODULES = ("print(json.dumps(sorted(m for m, module in sys.modules.items() "
                 "if module is not None and (m == 'scipy' or m.startswith('scipy.')))))")


# clears a quadratic batch, online and out-of-sample market on a small
# online-arx study, then prints the scipy modules loaded
QUADRATIC_MARKETS = """\
import json, sys
{prelude}
import regmarket, regmarket.cli
from regmarket import ScenarioSpec, generate, scenarios
from regmarket.market import clear_batch_market, run_oos_market, run_online_market
spec = ScenarioSpec("online-arx", T=500, seed=3)
dataset, _ = generate(spec)
task = scenarios.task_for_case(spec)
assert task.loss.is_quadratic
for report in (clear_batch_market(dataset, task), run_online_market(dataset, task),
               run_oos_market(dataset, task, model_source="online")):
    assert report.audit["passed"], report.market
""" + SCIPY_MODULES


def test_quadratic_markets_load_no_scipy_module():
    out = _fresh(QUADRATIC_MARKETS.format(prelude=""))
    assert json.loads(out) == []


def test_quadratic_markets_and_cli_run_with_scipy_blocked(tmp_path):
    # a None entry makes every import of scipy raise ImportError
    block = "sys.modules['scipy'] = None"
    assert json.loads(_fresh(QUADRATIC_MARKETS.format(prelude=block))) == []
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nversion = 1\nscenario = online-arx\nrows = 500\nseed = 3\n\n"
                   "[task]\ncentral_agent = a1\nloss = quadratic\nlags_y = 1\n\n"
                   "[ownership]\nx2 = a2\nx3 = a3\nx4 = a3\n")
    out = tmp_path / "out"
    _fresh(f"import sys; {block}; from regmarket.cli import main; "
           f"sys.exit(main(['market', '--mechanism', 'online', '--config', {str(cfg)!r}, "
           f"'--out', {str(out)!r}]))")
    assert json.loads((out / "report.json").read_text())["market"] == "online"


def test_smooth_quantile_spec_loads_no_scipy_module():
    probe = ("import json, sys; from regmarket.losses import LossSpec; "
             f"LossSpec('smooth-quantile'); {SCIPY_MODULES}")
    assert json.loads(_fresh(probe)) == []


# clears the online market of the online-quantile study: warm-start fits on
# 150-row slices, then Newton blocks over eight coalitions
ONLINE_QUANTILE_MARKET = """\
import json, sys
{prelude}
from regmarket import ScenarioSpec, generate, scenarios
from regmarket.market import run_online_market
spec = ScenarioSpec("online-quantile", T=3000, seed=3)
dataset, _ = generate(spec)
task = scenarios.task_for_case(spec)
assert not task.loss.is_quadratic
assert run_online_market(dataset, task).audit["passed"]
""" + SCIPY_MODULES


@pytest.mark.parametrize("prelude", ["", "sys.modules['scipy'] = None"])
def test_online_quantile_market_loads_no_scipy_module(prelude):
    assert json.loads(_fresh(ONLINE_QUANTILE_MARKET.format(prelude=prelude))) == []


def test_derivatives_above_the_bound_load_scipy_special():
    probe = ("import json, sys; import numpy as np; from regmarket import losses; "
             "spec = losses.LossSpec('smooth-quantile'); "
             "losses.loss_derivatives(np.zeros(losses.PY_DERIVATIVES_MAX), spec); "
             "before = 'scipy.special' in sys.modules; "
             "losses.loss_derivatives(np.zeros(losses.PY_DERIVATIVES_MAX + 1), spec); "
             "print(json.dumps([before, 'scipy.special' in sys.modules]))")
    assert json.loads(_fresh(probe)) == [False, True]


# imports the package, clears a small online market and writes its
# artifacts, then prints whether orjson was loaded after each step
ORJSON_PROBE = """\
import json, sys
import regmarket, regmarket.cli
loaded = ["orjson" in sys.modules]
from regmarket import ScenarioSpec, generate, scenarios
from regmarket.artifacts import write_artifacts
from regmarket.market import run_online_market
spec = ScenarioSpec("online-arx", T=300, seed=3)
dataset, _ = generate(spec)
report = run_online_market(dataset, scenarios.task_for_case(spec))
loaded.append("orjson" in sys.modules)
write_artifacts(report, sys.argv[1])
loaded.append("orjson" in sys.modules)
print(json.dumps(loaded))
"""


def test_orjson_is_loaded_by_the_first_write_only(tmp_path):
    # the writers import orjson on their first column: importing the
    # package and clearing a market do not pay for it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", ORJSON_PROBE, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout) == [False, False, True]


# unpickles residuals and specs from standard input, no spec constructed in
# the process, and pickles the bytes of the three loss functions' values
UNPICKLED_SPECS = """\
import pickle, sys
from regmarket import losses
e, specs = pickle.load(sys.stdin.buffer)
assert "scipy" not in sys.modules
sys.stdout.buffer.write(pickle.dumps([
    [a.tobytes() for a in (*losses.loss_terms(e, spec), losses.loss_h1(e, spec),
                           losses.loss_h2(e, spec))]
    for spec in specs]))
"""


def test_unpickled_smooth_quantile_spec_gives_identical_losses():
    e = np.array([-800.0, -3.1, -0.2, -1e-9, 0.0, 1e-9, 0.2, 3.1, 800.0])
    specs = [losses.LossSpec("smooth-quantile", tau=0.3, alpha=0.15, derivative_variant=v)
             for v in (losses.ANALYTIC, losses.PAPER_VERBATIM)]
    expected = [[a.tobytes() for a in (*losses.loss_terms(e, spec), losses.loss_h1(e, spec),
                                       losses.loss_h2(e, spec))]
                for spec in specs]
    out = _fresh(UNPICKLED_SPECS, stdin=pickle.dumps((e, specs)))
    assert pickle.loads(out) == expected


# names a module imports for others to read through it, with the reason
REEXPORTS = {
    # the benchmark self-test (benchmarks/test_benchmark.py) reads loss_h1 through online
    "online": {"loss_h1"},
    # the benchmark harness calls the per-file writers through market, and
    # its tracer probes them there (benchmarks/harness.py, benchmarks/tracing.py)
    "market": {"report_to_json", "write_cumulative_csv", "write_ledger_csv",
               "write_loss_table_csv"},
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


ROOT = SRC.parent


def _definitions(path: Path) -> list[str]:
    """The module-level functions and classes of ``path``, and the
    non-dunder methods of those classes as ``Class.method``."""
    out = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out.append(node.name)
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def _names_read(path: Path) -> set[str]:
    """Every name ``path`` mentions: identifiers, attributes, imported names,
    and string constants that spell a name or a dotted path, such as the
    benchmark tracer's ``"online_step"`` and ``"OnlineSession.step"``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value)):
            names.update(node.value.split("."))
    return names


def test_every_definition_is_reached_outside_tests():
    # a definition only the tests call is API no market, CLI path, demo or
    # benchmark runs: delete it with its tests, or use it
    package = sorted((SRC / "regmarket").glob("*.py"))
    readers = ([p for p in package if p.name != "__init__.py"]
               + sorted((ROOT / "demos").glob("*.py"))
               + sorted((ROOT / "benchmarks").rglob("*.py")))
    read = set().union(*map(_names_read, readers))
    unreached = [f"{p.stem}.{name}" for p in package for name in _definitions(p)
                 if name.rpartition(".")[2] not in read]
    assert len(package) > 5
    assert not unreached, f"reached only from tests: {', '.join(unreached)}"
