"""The package and every pipeline path load numpy only; scipy loads when the
cutting-plane LP runs, and qcqp.lp is the only module that imports it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qcqp

SCRIPT = """
import sys

import numpy as np


def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))


import qcqp.lp

assert loaded("scipy.optimize") == [], loaded("scipy.optimize")

from qcqp.cli import PipelineConfig, run_pipeline
from qcqp.generators import gen_boolean_ls
from qcqp.relax import sdr_bound, spectral_bound

p = gen_boolean_ls(8, 5, seed=0)
for suggest, improve in (("sdr", ("sign", "cd")), ("random", ("admm", "ccp", "cd"))):
    run_pipeline(p, PipelineConfig(suggest=suggest, improve=improve, candidates=2, seed=1))
assert sdr_bound(p).valid
spectral_bound(p)
assert loaded("scipy") == [], loaded("scipy")

# the private HiGHS binding is bound on first read, then stays a plain attribute
highs = qcqp.lp._Highs
assert "_Highs" in vars(qcqp.lp) and "HighsModelStatus" in vars(qcqp.lp)
assert qcqp.lp._Highs is highs

# min y  s.t.  y >= 1, then y >= 2 appended
lp = qcqp.lp.IncrementalLp(qcqp.lp.LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[-1.0]))
assert lp.solve().value == 1.0
lp.add_rows([[-1.0]], [-2.0])
res = lp.solve()
assert res.status is qcqp.lp.LpStatus.OPTIMAL and res.value == 2.0
assert loaded("scipy.optimize"), "the LP ran without scipy.optimize"
"""


def test_package_and_pipelines_load_no_scipy_until_the_lp_runs():
    # a fresh interpreter: this test process may already hold scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcqp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_only_the_lp_module_imports_scipy():
    package = Path(qcqp.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                importers.append(path.name)
    assert importers and set(importers) == {"lp.py"}, importers
