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
