"""Start-up cost: importing the package and the CLI, or counting, does not
load scipy, and a converging oracle solve loads no scipy.optimize."""

import json
import os
import subprocess
import sys
from pathlib import Path

import likelymat

PROBE = """
import json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import likelymat, likelymat.cli
at_import = scipy_loaded()
from likelymat import MarginalConstraint, ProblemSpec, Shape, log10_realizations, numeric_maxent
log10_realizations([[5.0, 1e-20]])  # a small real cell takes no special function of scipy's
after_count = scipy_loaded()
spec = ProblemSpec.of(Shape(2, 2), (MarginalConstraint("row", 0, "equal", 7.0),
                                     MarginalConstraint("row", 1, "equal", 3.0)))
result = numeric_maxent(spec, "H", tol=1e-10)
print(json.dumps({"at_import": at_import, "after_count": after_count,
                  "after_oracle": len(scipy_loaded()),
                  "optimize_loaded": "scipy.optimize" in sys.modules,
                  "converged": result.converged, "matrix": result.matrix.tolist()}))
"""


def test_import_loads_no_scipy_and_the_oracle_loads_it_on_demand():
    src = str(Path(likelymat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    report = json.loads(out.stdout)
    assert report["at_import"] == report["after_count"] == []
    assert report["after_oracle"] > 0
    # a converging solve calls LAPACK alone; linprog loads scipy.optimize
    # only once a solve fails
    assert report["optimize_loaded"] is False
    assert report["converged"] is True
    for got, want in zip(sum(report["matrix"], []), [3.5, 3.5, 1.5, 1.5]):
        assert abs(got - want) <= 1e-6


SOLVE_PROBE = """
import contextlib, io, json, sys
import likelymat.cli
def numpy_modules():
    return {m for m in sys.modules if m == "numpy" or m.startswith("numpy.")}
before = numpy_modules()
codes = []
for doc in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(likelymat.cli.main(["solve", doc]))
print(json.dumps({"codes": codes, "added": sorted(numpy_modules() - before)}))
"""


def test_solve_loads_no_further_numpy_module():
    # np.unique without index outputs imports numpy.ma (numpy 2), about 15 ms
    # of a CLI solve; numpy 1.24 imports it with numpy, so the set is taken
    # after importing the CLI.  The documents reach the constraint evaluator
    # of every solve payload and both water-fills.
    golden = Path(__file__).parent / "golden"
    docs = [str(golden / f"{stem}.json") for stem in
            ("gravity", "row_bounds", "total_row_bounds", "row_elem_bounds", "sym_3d")]
    src = str(Path(likelymat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SOLVE_PROBE, *docs], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == {"codes": [0] * len(docs), "added": []}
