"""Solver invariants raise typed errors, also under ``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import likelymat
from likelymat import BracketFailure, FixedBlock, InvariantViolation
from likelymat import symmetric
from likelymat.symmetric import (
    RootProblem,
    solve_root_lambda,
    solve_sym_block_diagonal,
    solve_sym_fixed_diagonal,
)
from likelymat.waterfill import _find_k

# Four equal ratios: the bracket is guaranteed and its lower end is the
# branch point, so f there comes from ``f_at_branch_point``.
EQUAL_FOUR = RootProblem(r=(0.25, 0.25, 0.25, 0.25), m=4)


class TestBracketSignConditions:
    def test_positive_lower_end(self, monkeypatch):
        assert EQUAL_FOUR.guaranteed
        monkeypatch.setattr(RootProblem, "f_at_branch_point", lambda self: 1.0)
        with pytest.raises(BracketFailure, match="lower end"):
            solve_root_lambda(EQUAL_FOUR)

    def test_nonpositive_upper_end(self, monkeypatch):
        monkeypatch.setattr(RootProblem, "f", lambda self, lam: -1.0)
        with pytest.raises(BracketFailure, match="upper end"):
            solve_root_lambda(EQUAL_FOUR)


class TestBoundModeFactors:
    def test_fixed_diagonal_factor_above_one(self, monkeypatch):
        monkeypatch.setattr(symmetric, "branch_factors", lambda p, lam: np.full(p.m, -0.9))
        u = [40.0, 20.0, 30.0, 40.0]
        with pytest.raises(InvariantViolation, match="bound-mode factors"):
            solve_sym_fixed_diagonal(u, 130.0, 4, [0.0] * 4, bounds_mode=True)

    def test_block_factor_above_one(self, monkeypatch):
        monkeypatch.setattr(symmetric, "branch_factors", lambda p, lam: np.full(p.m, -0.9))
        u = [40.0, 20.0, 30.0, 40.0]
        blocks = [FixedBlock((i,), ((0.0,),)) for i in range(4)]
        with pytest.raises(InvariantViolation, match="bound-mode factors"):
            solve_sym_block_diagonal(u, blocks, 130.0, bounds_mode=True)

    def test_solvers_pass_without_the_patch(self):
        u = [40.0, 20.0, 30.0, 40.0]
        solve_sym_fixed_diagonal(u, 130.0, 4, [0.0] * 4, bounds_mode=True)
        blocks = [FixedBlock((i,), ((0.0,),)) for i in range(4)]
        solve_sym_block_diagonal(u, blocks, 130.0, bounds_mode=True)


class TestCountInvariants:
    def test_slack_increasing(self):
        # bounds out of ascending order make the slack rise from j = 1 to 2
        with pytest.raises(InvariantViolation, match="nonincreasing"):
            _find_k(np.array([6.0]), np.array([[5.0, 1.0]]), 2)


def test_invariant_survives_python_dash_o():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from likelymat.waterfill import _find_k\n"
        "try:\n"
        "    _find_k(np.array([6.0]), np.array([[5.0, 1.0]]), 2)\n"
        "except Exception as e:\n"
        "    print(sys.flags.optimize, type(e).__name__)\n"
    )
    src = str(Path(likelymat.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    assert out.stdout.split() == ["1", "InvariantViolation"]


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips assert statements, so a runtime check must raise
    package = Path(likelymat.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
