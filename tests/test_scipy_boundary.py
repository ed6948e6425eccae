"""aspo's scipy boundary: ``solvers`` loads three compiled scipy modules
from their files, and nothing else in aspo imports scipy.

The loaded modules must be scipy's own, their LAPACK routines must give
scipy's bits, and a run must not depend on whether the user imported
``scipy.optimize`` before or after ``aspo``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import lapack

from aspo import solvers

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def python(code: str, *argv: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


def test_import_leaves_scipy_packages_unloaded():
    loaded = json.loads(python(
        "import json, sys, aspo, aspo.cli; print(json.dumps(list(sys.modules)))"))
    assert "aspo.cli" in loaded
    for package in ("scipy.optimize", "scipy.linalg", "scipy.sparse"):
        assert package not in loaded


def test_modules_come_from_scipys_files():
    # scipy's own imports, in a process without aspo: in this one aspo may
    # have loaded the modules first, and scipy's import would reuse them
    scipys = json.loads(python(
        "import json, scipy.linalg, scipy.optimize as o; print(json.dumps(["
        "scipy.linalg._flapack.__file__, o._lbfgsb.__file__,"
        " o._slsqplib.__file__]))"))
    assert [solvers._flapack.__file__, solvers.setulb.__self__.__file__,
            solvers.slsqp.__self__.__file__] == scipys


def test_scipys_private_modules_import_after_aspo():
    # aspo's loads leave no sys.modules entry that scipy's packages lack
    out = python(
        "import json, aspo, numpy as np\n"
        "import scipy.linalg._flapack, scipy.optimize._lbfgsb\n"
        "from scipy.optimize import minimize\n"
        "K = np.array([[4.0, 2.0], [2.0, 3.0]])\n"
        "L = scipy.linalg._flapack.dpotrf(K, lower=1)[0]\n"
        "f = lambda x: float((x - 0.25) @ (x - 0.25))\n"
        "xs = [minimize(f, np.zeros(2), method=m).x.round(6).tolist()"
        " for m in ('SLSQP', 'L-BFGS-B')]\n"
        "print(json.dumps([L.tolist(), aspo.solvers.dpotrf(K, lower=1)[0]"
        ".tolist(), xs]))")
    L, ours, xs = json.loads(out)
    assert L == ours == [[2.0, 0.0], [1.0, 2.0 ** 0.5]]
    assert xs == [[0.25, 0.25]] * 2


def test_missing_module_raises_import_error_naming_it():
    with pytest.raises(ImportError, match="scipy.linalg._nosuch") as info:
        solvers._compiled("linalg", "_nosuch")
    assert info.value.name == "scipy.linalg._nosuch"


def same_bits(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [10, 39])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lapack_routines_match_scipys_bit_for_bit(n, seed):
    rng = np.random.default_rng([n, seed])
    A = rng.normal(size=(n, n))
    K = A @ A.T + n * np.eye(n)             # symmetric positive definite
    b, B = rng.normal(size=n), rng.normal(size=(n, 7))
    ours = solvers.dpotrf(K, lower=1, clean=1)
    same_bits(ours, lapack.dpotrf(K, lower=1, clean=1))
    L = ours[0]
    for rhs in (b, B):
        same_bits(solvers.dpotrs(L, rhs, lower=1),
                  lapack.dpotrs(L, rhs, lower=1))


RUN = """
import sys
if sys.argv[1] == "before":
    import scipy.optimize
import aspo
from aspo import assets
if sys.argv[1] == "after":
    import scipy.optimize
root = assets.asset_root()
rc = aspo.RunConfig(space_file=str(root / "spaces/boom.json"),
                    model_file=str(root / "models/boom.json"),
                    constraint_file=str(root / "constraints/boom.json"),
                    budget_iterations=3, seed=0)
aspo.emit_report(aspo.run_optimization(rc), sys.argv[2])
"""


def test_reports_do_not_depend_on_scipy_import_order(tmp_path):
    reports = {}
    for order in ("before", "after"):
        python(RUN, order, str(tmp_path / order))
        reports[order] = [(tmp_path / order / name).read_bytes()
                          for name in ("report.jsonl", "report.csv")]
    assert reports["before"] == reports["after"]
    assert reports["before"][0].count(b"\n") > 3    # history and summary
