"""Command-line interface: subcommands, formats, exit codes, determinism."""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import likelymat
from likelymat import (
    LikelymatError, MarginalConstraint, ProblemSpec, Shape, SolverCase, classify)
from likelymat.cli import (
    _build_parser, _dumps, _emit, _oracle_objective, _residuals, load_problem, main)
from likelymat.oracle import _fixes_total
from conftest import make_spec, records

TEN_BOUNDS = [20, 20, 24, 30, 30, 36, 36, 36, 36, 40]
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

ROW_BOUND_PROBLEM = {
    "shape": {"rows": 10, "cols": 10},
    "row_sums": {"kind": "upper", "values": TEN_BOUNDS},
}

ZERO_DIAGONAL_PROBLEM = {
    "shape": {"rows": 4, "cols": 4},
    "row_sums": {"kind": "equal", "values": [40, 20, 30, 40]},
    "fixed_blocks": {"diagonal_prefix": 4, "values": [0, 0, 0, 0]},
    "symmetric": True,
}


# Every fixed group has zero unfixed mass: the root comes from the tail alone.
ZERO_UNFIXED_GROUP = {
    "shape": {"rows": 4, "cols": 4},
    "row_sums": {"kind": "equal", "values": [0.001, 400000, 300000, 300000]},
    "fixed_blocks": [{"indices": [0], "matrix": [[0.001]]}],
    "symmetric": True,
}

# Nothing is left unfixed: the fixed diagonal is the only feasible matrix.
NOTHING_UNFIXED = {
    "shape": {"rows": 2, "cols": 2},
    "row_sums": {"kind": "equal", "values": [3, 5]},
    "fixed_blocks": {"diagonal_prefix": 2, "values": [3, 5]},
    "symmetric": True,
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strict_json(text):
    """Parse JSON that must not hold NaN or +-Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


class TestSolve:
    def test_row_bounds_problem(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ROW_BOUND_PROBLEM)
        code, doc = run_json(capsys, ["solve", path])
        assert code == 0
        assert doc["case"] == "row_bounds"
        assert abs(doc["log10_realizations"] - 549.2) <= 0.1
        matrix = np.array(doc["matrix"])
        np.testing.assert_allclose(matrix, np.outer(TEN_BOUNDS, np.ones(10)) / 10)
        assert doc["residuals"]["max_equality"] <= 1e-9

    def test_zero_diagonal_problem_reports_root(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ZERO_DIAGONAL_PROBLEM)
        code, doc = run_json(capsys, ["solve", path, "--series-order", "2"])
        assert code == 0
        assert doc["case"] == "sym_fixed_diagonal"
        assert doc["xi"] == pytest.approx(2.88018, abs=1e-4)
        assert doc["series"]["value"] == pytest.approx(2.8861, abs=1e-3)
        got = np.array(doc["matrix"])
        np.testing.assert_allclose(got.sum(axis=1), [40, 20, 30, 40], rtol=1e-9)

    def test_two_sided_bounds_at_a_float_tie(self, tmp_path, capsys):
        # the leftover after the two smallest column bounds ties the second
        # bound exactly in floating point
        rows, cols = [1.9, 2.0], [0.3, 1.8, 6.0]
        doc = {"shape": {"rows": 2, "cols": 3},
               "row_sums": {"kind": "upper", "values": rows},
               "col_sums": {"kind": "upper", "values": cols}}
        code, out = run_json(capsys, ["solve", write(tmp_path, "p.json", doc)])
        assert code == 0
        X = np.array(out["matrix"])
        np.testing.assert_allclose(X.sum(axis=1), rows, rtol=1e-12)
        assert np.all(X.sum(axis=0) <= np.array(cols) + 1e-9)
        assert out["residuals"]["max_bound_violation"] <= 1e-9

    @pytest.mark.parametrize("flags", [[], ["--series-order", "2"]])
    def test_zero_unfixed_mass_in_every_fixed_group(self, tmp_path, capsys, flags):
        path = write(tmp_path, "p.json", ZERO_UNFIXED_GROUP)
        code = main(["solve", path, *flags])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        out = strict_json(captured.out)
        X = np.array(out["matrix"])
        np.testing.assert_allclose(X.sum(axis=1), [0.001, 4e5, 3e5, 3e5], rtol=1e-12)
        assert np.array_equal(X, X.T) and X[0, 0] == 0.001
        assert out["lambda"] == pytest.approx(1.0, abs=1e-6)
        assert ("series" in out) == bool(flags)

    @pytest.mark.parametrize("flags", [[], ["--series-order", "2"]])
    def test_nothing_left_unfixed(self, tmp_path, capsys, flags):
        path = write(tmp_path, "p.json", NOTHING_UNFIXED)
        code = main(["solve", path, *flags])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        out = strict_json(captured.out)
        assert out["matrix"] == [[3.0, 0.0], [0.0, 5.0]]
        assert (out["lambda"], out["xi"]) == (None, None)
        assert "series" not in out and "notes" not in out

    @pytest.mark.parametrize("doc", [ZERO_UNFIXED_GROUP, NOTHING_UNFIXED])
    def test_zero_unfixed_mass_checks(self, tmp_path, capsys, doc):
        code = main(["check", write(tmp_path, "p.json", doc)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert strict_json(captured.out)["valid"] is True

    @pytest.mark.filterwarnings("error")
    def test_gravity_with_sums_far_apart(self, tmp_path, capsys):
        # the power of two that brings the products 2^-55 to 2^-1420 into
        # range would overflow the sum 1.5e197; the solve divides first
        doc = {"shape": {"rows": 2, "cols": 2},
               "row_sums": {"kind": "equal",
                            "values": [1.495020541582441e+197, 1.7909524719882387e-214]},
               "col_sums": {"kind": "equal", "values": [None, 1.7909524719882387e-214]}}
        path = write(tmp_path, "p.json", doc)
        assert main(["solve", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert strict_json(captured.out)["residuals"]["max_equality"] <= 1e-9
        for command in ("check", "oracle"):
            assert main([command, path]) == 0
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("col_sums", [None, [0, None, None]], ids=["no_cols", "some_cols"])
    def test_gravity_with_zero_row_sums(self, col_sums, tmp_path, capsys):
        # a zero total has no product factors; none may come out as nan
        doc = {"shape": {"rows": 2, "cols": 3}, "row_sums": {"kind": "equal", "values": [0, 0]}}
        if col_sums is not None:
            doc["col_sums"] = {"kind": "equal", "values": col_sums}
        code = main(["solve", write(tmp_path, "p.json", doc)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        out = strict_json(captured.out)
        assert out["matrix"] == [[0.0] * 3] * 2 and "multipliers" not in out

    def test_infeasible_exits_one(self, tmp_path, capsys):
        bad = dict(ROW_BOUND_PROBLEM, total={"kind": "equal", "value": 309})
        path = write(tmp_path, "p.json", bad)
        assert main(["solve", path]) == 1
        assert "InfeasibleMarginals" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", dict(ROW_BOUND_PROBLEM, surprise=1))
        assert main(["solve", path]) == 2

    def test_byte_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ZERO_DIAGONAL_PROBLEM)
        main(["solve", path])
        first = capsys.readouterr().out
        main(["solve", path])
        second = capsys.readouterr().out
        assert first == second

    def test_csv_output(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ROW_BOUND_PROBLEM)
        out = tmp_path / "m.csv"
        assert main(["solve", path, "--format", "csv", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 10
        assert [float(v) for v in rows[0].split(",")] == [2.0] * 10

    def test_solution_roundtrips_at_full_precision(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ZERO_DIAGONAL_PROBLEM)
        _, doc = run_json(capsys, ["solve", path])
        from likelymat import solve
        from likelymat.cli import load_problem
        ref = solve(load_problem(ZERO_DIAGONAL_PROBLEM)).matrix
        assert np.array_equal(np.array(doc["matrix"]), ref)


class TestCount:
    def test_problem_file_counts(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ROW_BOUND_PROBLEM)
        code, doc = run_json(capsys, ["count", path])
        assert code == 0
        assert math.isclose(float(doc["feasible_under_bounds"]), 2.412e89, rel_tol=1e-3)
        assert math.isclose(float(doc["feasible_saturated"]), 2.201e83, rel_tol=1e-3)

    def test_matrix_document(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [[3, 4], [2, 1]])
        code, doc = run_json(capsys, ["count", path])
        assert code == 0
        assert doc["exact"] == 12600
        assert doc["log10_realizations"] == pytest.approx(math.log10(12600))

    def test_solve_then_count_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ZERO_DIAGONAL_PROBLEM)
        _, solved = run_json(capsys, ["solve", path])
        mpath = write(tmp_path, "m.json", {"matrix": solved["matrix"]})
        _, counted = run_json(capsys, ["count", mpath])
        assert abs(counted["log10_realizations"] - solved["log10_realizations"]) <= 1e-9

    def test_3d_solve_then_count_round_trip(self, tmp_path, capsys):
        problem = {
            "shape": {"rows": 4, "cols": 4, "slices": 2},
            "row_sums": {"kind": "equal",
                         "values": [[10, 5], [5, 2.5], [7.5, 3.75], [10, 5]]},
            "symmetric": True,
        }
        path = write(tmp_path, "p.json", problem)
        _, solved = run_json(capsys, ["solve", path])
        assert len(solved["slices"]) == 2 and len(solved["xi"]) == 2
        mpath = write(tmp_path, "m.json", {"slices": solved["slices"]})
        _, counted = run_json(capsys, ["count", mpath])
        assert abs(counted["log10_realizations"] - solved["log10_realizations"]) <= 1e-9

    @pytest.mark.parametrize("cols", [False, True])
    def test_symmetric_spec_is_refused(self, cols, tmp_path, capsys):
        # symmetric information admits 2 of the 4 matrices row sums [1, 1] allow
        doc = {"shape": {"rows": 2, "cols": 2},
               "row_sums": {"kind": "equal", "values": [1, 1]}, "symmetric": True}
        if cols:
            doc["col_sums"] = doc["row_sums"]
        assert main(["count", write(tmp_path, "p.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: count on a problem file needs a row-sums-only spec\n"

    @pytest.mark.parametrize("doc, code", [
        ({"shape": {"rows": 2, "cols": 3}, "row_sums": {"kind": "upper", "values": [2, 3]}}, 0),
        # the transpose of the row-bounds document: count reads rows as stated
        ({"shape": {"rows": 3, "cols": 2}, "col_sums": {"kind": "upper", "values": [2, 3]}}, 2),
        ({"shape": {"rows": 2, "cols": 2, "slices": 2},
          "row_sums": {"kind": "equal", "values": [[2, 3], [2, 3]]}, "symmetric": True}, 2),
    ], ids=["row_bounds", "col_sums_only", "3d"])
    def test_row_sums_only(self, doc, code, tmp_path, capsys):
        # a symmetric document is refused too: test_symmetric_spec_is_refused
        assert main(["count", write(tmp_path, "p.json", doc)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == \
                "usage error: count on a problem file needs a row-sums-only spec\n"
        else:
            assert set(json.loads(captured.out)) == {"feasible_saturated", "feasible_under_bounds"}

    def test_exact_count_above_the_int_to_str_digit_limit(self, tmp_path, capsys):
        X = np.random.default_rng(0).integers(0, 51, size=(20, 20))
        expected = math.factorial(int(X.sum()))
        for v in X.ravel():
            expected //= math.factorial(int(v))
        path = write(tmp_path, "m.json", X.tolist())
        code, doc = run_json(capsys, ["count", path, "--exact"])
        assert code == 0
        assert len(str(doc["exact"])) > 4300
        assert doc["exact"] == expected


class TestCountPastTheDigitLimit:
    """Counts that once ran for a minute, without end, or into a traceback:
    the exact count's digits are estimated first, and past the limit it is
    left out, or with --exact refused."""

    @pytest.mark.parametrize("X", [[[1e300, 1e300]], [[1e6, 1e6]], [[1e9, 1e9]]])
    def test_matrix(self, X, tmp_path, capsys):
        path = write(tmp_path, "m.json", X)
        start = time.perf_counter()
        code, doc = run_json(capsys, ["count", path])
        assert (code, sorted(doc)) == (0, ["log10_realizations", "total"])
        assert doc["log10_realizations"] > 6e5
        assert main(["count", path, "--exact"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: CountOverflow: the exact count has about ")
        assert time.perf_counter() - start < 2.0

    def test_row_sums_spec(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {"shape": {"rows": 1, "cols": 10**6},
                                          "row_sums": {"kind": "equal", "values": [10**6]}})
        start = time.perf_counter()
        assert main(["count", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: CountOverflow: the exact count has about ")
        assert time.perf_counter() - start < 2.0


class TestCheck:
    def test_valid_spec(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ZERO_DIAGONAL_PROBLEM)
        code, doc = run_json(capsys, ["check", path])
        assert code == 0
        assert doc["valid"] and doc["consistency"]["ok"]

    def test_half_total_violation_names_the_set(self, tmp_path, capsys):
        bad = {
            "shape": {"rows": 3, "cols": 3},
            "row_sums": {"kind": "equal", "values": [5, 2, 3]},
            "fixed_blocks": {"diagonal_prefix": 1, "values": [0]},
            "symmetric": True,
        }
        path = write(tmp_path, "p.json", bad)
        code = main(["check", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "[0]" in captured.err
        doc = json.loads(captured.out)
        assert doc["consistency"]["violations"][0]["indices"] == [0]

    @pytest.mark.parametrize("row_sums", [None, [5, None, 7]], ids=["no_rows", "partial_rows"])
    def test_fixed_blocks_without_every_row_sum(self, row_sums, tmp_path, capsys):
        # no solver takes these, and the half-total check has no total to use
        doc = {
            "shape": {"rows": 3, "cols": 3},
            "fixed_blocks": {"diagonal_prefix": 2, "values": [1, 2]},
            "symmetric": True,
        }
        if row_sums is not None:
            doc["row_sums"] = {"kind": "equal", "values": row_sums}
        code = main(["check", write(tmp_path, "p.json", doc)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert strict_json(captured.out) == {"valid": True, "case": "unsupported"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("doc, indices", [
        ({"shape": {"rows": 4, "cols": 4, "slices": 2}, "symmetric": True,
          "fixed_blocks": {"diagonal_prefix": 4, "values": [0] * 4},
          "row_sums": {"kind": "equal", "values": [[9, 1], [1, 1], [1, 1], [1, 1]]}}, [0]),
        ({"shape": {"rows": 4, "cols": 4}, "symmetric": True,
          "fixed_blocks": [{"indices": [0, 1], "matrix": [[0, 0], [0, 0]]},
                           {"indices": [2, 3], "matrix": [[0, 0], [0, 0]]}],
          "row_sums": {"kind": "equal", "values": [1e308, 1e308, 1e308, 1]}}, [0, 1]),
    ], ids=["3d_first_slice", "sums_past_the_float_range"])
    def test_check_agrees_with_solve(self, tmp_path, capsys, doc, indices):
        # the first document breaks the check in slice 0 only; the second
        # has a block sum of inf, which the check reports as null
        path = write(tmp_path, "p.json", doc)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConsistencyViolation: index set {tuple(indices)}: ")
        assert main(["check", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"consistency violation at index set {indices}")
        violation = strict_json(captured.out)["consistency"]["violations"][0]
        assert violation["indices"] == indices

    @pytest.mark.parametrize("doc", [
        {"shape": {"rows": 3, "cols": 3}, "symmetric": True,
         "fixed_blocks": {"diagonal_prefix": 3, "values": 0},
         "row_sums": {"kind": "equal", "values": [3, 4, 5]}},
        {"shape": {"rows": 3, "cols": 3}, "symmetric": True,
         "fixed_blocks": {"diagonal_prefix": 1, "values": [2]},
         "row_sums": {"kind": "equal", "values": [1, 4, 5]}},
        {"shape": {"rows": 3, "cols": 3, "slices": 2}, "symmetric": True,
         "fixed_blocks": {"diagonal_prefix": 3, "values": 0},
         "row_sums": {"kind": "equal", "values": [[1, 3], [1, 4], [1, 5]]}},
    ], ids=["lopsided_zero_diagonal", "fixed_value_over_its_sum", "3d_second_slice"])
    def test_check_raises_what_solve_raises_past_the_half_total_check(
            self, tmp_path, capsys, doc):
        # each passes the half-total check; the first has no root (its top
        # node would sit on the large root), the second fixes more than a
        # node's sum, the third is the first as a 3-D document's slice 1
        path = write(tmp_path, "p.json", doc)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("error: BracketFailure: ", "error: InfeasibleMarginals: "))
        assert main(["check", path]) == 1
        assert capsys.readouterr() == ("", err)

    def test_an_unsupported_spec_is_not_bracketed(self, tmp_path, capsys):
        # the lopsided zero diagonal as bounds, under a total that its
        # saturated rows break: solve refuses the case, so check does not
        # bracket its root
        doc = {"shape": {"rows": 3, "cols": 3}, "symmetric": True,
               "fixed_blocks": {"diagonal_prefix": 3, "values": 0},
               "row_sums": {"kind": "upper", "values": [3, 4, 5]},
               "total": {"kind": "equal", "value": 10}}
        assert main(["check", write(tmp_path, "p.json", doc)]) == 0
        assert strict_json(capsys.readouterr().out)["case"] == "unsupported"

    @pytest.mark.parametrize("doc", [
        {"shape": {"rows": 3, "cols": 2}, "row_sums": {"kind": "upper", "values": [1, None, 2]}},
        {"shape": {"rows": 3, "cols": 2}, "row_sums": {"kind": "upper", "values": [1, None, 2]},
         "col_sums": {"kind": "upper", "values": [None, 3]}},
        {"shape": {"rows": 2, "cols": 2}, "row_sums": {"kind": "upper", "values": [1, None]},
         "element_bounds": [{"i": 1, "j": 0, "ub": 1}]},
        {"shape": {"rows": 4, "cols": 4}, "symmetric": True,
         "row_sums": {"kind": "equal", "values": [3, 4, 5, 6]},
         "fixed_blocks": [{"indices": [0, 1], "matrix": [[0, 1], [0.5, 0]]},
                          {"indices": [2], "matrix": [[0]]}, {"indices": [3], "matrix": [[0]]}]},
    ], ids=["unbounded_row", "no_complete_side", "row_without_bound_or_caps",
            "block_rows_differ_from_its_cols"])
    def test_check_refuses_what_the_solver_refuses(self, tmp_path, capsys, doc):
        # each takes a case, and its solver refuses it: check says what solve says
        path = write(tmp_path, "p.json", doc)
        assert classify(load_problem(doc)) is not SolverCase.UNSUPPORTED
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InfeasibleMarginals: ")
        assert main(["check", path]) == 1
        assert capsys.readouterr() == ("", err)


class TestOracleAndBrute:
    def test_oracle_agrees(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ZERO_DIAGONAL_PROBLEM)
        code, doc = run_json(capsys, ["oracle", path])
        assert code == 0
        assert doc["linf_gap"] <= 1e-6
        assert doc["kkt_ok"]

    def test_brute_small_instance(self, tmp_path, capsys):
        problem = {
            "shape": {"rows": 2, "cols": 2},
            "row_sums": {"kind": "equal", "values": [7, 3]},
        }
        path = write(tmp_path, "p.json", problem)
        code, doc = run_json(capsys, ["brute", path])
        assert code == 0
        assert doc["n_feasible"] == 32
        assert doc["max_realizations"] == 12600
        assert len(doc["argmax"]) == 4

    def test_oracle_total_row_bounds_emits_strict_json(self, tmp_path, capsys):
        problem = {
            "shape": {"rows": 6, "cols": 6},
            "row_sums": {"kind": "upper",
                         "values": [85.5157, 1.7083, 16.8252, 8.8261, 94.4045, 35.9431]},
            "total": {"kind": "equal", "value": 129.0048},
        }
        path = write(tmp_path, "p.json", problem)
        assert main(["oracle", path]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["case"] == "total_row_bounds"
        assert doc["converged"] is True and doc["kkt_ok"] is True
        assert doc["linf_gap"] <= 1e-6

    def test_known_total_over_partial_row_bounds(self, tmp_path, capsys):
        # row 1 states no bound and takes the mass that row 0's bound cannot
        problem = {
            "shape": {"rows": 2, "cols": 2},
            "row_sums": {"kind": "upper", "sparse": [{"index": 0, "value": 1}]},
            "total": {"kind": "equal", "value": 5},
        }
        path = write(tmp_path, "p.json", problem)
        code, doc = run_json(capsys, ["solve", path])
        assert code == 0
        assert doc["matrix"] == [[0.5, 0.5], [2.0, 2.0]]
        code, doc = run_json(capsys, ["oracle", path])
        assert code == 0
        assert doc["kkt_ok"] is True and doc["linf_gap"] <= 1e-9

    @pytest.mark.filterwarnings("error")
    def test_brute_past_the_int64_range_hits_the_guard(self, tmp_path, capsys):
        # [[1e19]] is the one feasible matrix; its caps once overflowed int64
        problem = {"shape": {"rows": 1, "cols": 1},
                   "row_sums": {"kind": "equal", "values": [1e19]}}
        path = write(tmp_path, "p.json", problem)
        assert main(["brute", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SearchSpaceTooLarge: search space above the 10000000 guard\n"

    @pytest.mark.parametrize("bound, symmetric", [(55, False), (40, False), (43, True)])
    def test_brute_stops_at_its_node_guard(self, tmp_path, capsys, bound, symmetric):
        # every estimate passes the 10^7 guard; the searches take 0.7 to 2.6 million nodes
        problem = {"shape": {"rows": 2, "cols": 2}, "symmetric": symmetric,
                   "row_sums": {"kind": "upper", "values": [bound, bound]}}
        path = write(tmp_path, "p.json", problem)
        start = time.perf_counter()
        assert main(["brute", path]) == 1
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: SearchSpaceTooLarge: enumeration past the "
                                "262144-node guard\n")

    def test_missing_file_exits_two(self, capsys):
        assert main(["solve", "/nonexistent/problem.json"]) == 2

    def test_objective_is_the_oracles_rule_on_golden_documents(self):
        # H exactly when the equalities fix the total; stored outputs agree
        seen = 0
        for path in sorted(GOLDEN.glob("*.json")):
            doc = json.loads(path.read_text())
            if "shape" not in doc or path.stem.startswith("err_"):
                continue
            spec = load_problem(doc)
            case = classify(spec)
            if case is SolverCase.UNSUPPORTED:
                continue  # oracle solves first, and fails there
            objective = _oracle_objective(spec, case)
            assert objective == ("H" if _fixes_total(spec) else "G"), path.name
            stored = GOLDEN / f"{path.stem}.oracle.out"
            if stored.exists():
                assert json.loads(stored.read_text())["objective"] == objective, path.name
                seen += 1
        assert seen == 3

    def test_upper_rows_under_an_equal_total_take_h(self, tmp_path, capsys):
        # fixed diagonal, row bounds and a total equal to their sum: the
        # total is fixed, so the oracle maximizes H
        problem = {"shape": {"rows": 4, "cols": 4}, "symmetric": True,
                   "row_sums": {"kind": "upper", "values": [3, 4, 5, 6]},
                   "total": {"kind": "equal", "value": 18},
                   "fixed_blocks": {"diagonal_prefix": 2, "values": [0.5, 1.0]}}
        code, doc = run_json(capsys, ["oracle", write(tmp_path, "p.json", problem)])
        assert code == 0
        assert (doc["objective"], doc["converged"]) == ("H", True)
        assert doc["linf_gap"] <= 1e-9


class TestFlags:
    """Each flag belongs to the subcommand that reads it."""

    @pytest.mark.parametrize("command, flags", [
        ("check", ["--exact"]), ("count", ["--series-order", "1"]),
        ("oracle", ["--tol", "1e-6"]), ("brute", ["--format", "csv"]),
        ("solve", ["--tol", "1e-12"]), ("solve", ["--exact"])])
    def test_flag_of_another_subcommand_exits_two(self, command, flags, tmp_path, capsys):
        path = write(tmp_path, "p.json", ROW_BOUND_PROBLEM)
        assert main([command, path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert "Traceback" not in captured.err

    def test_readme_commands_parse(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
        assert len(commands) >= 8
        for argv in commands:
            assert argv[0] == "likelymat"
            args = _build_parser().parse_args(argv[1:])
            assert args.command == argv[1]


MALFORMED = {
    "element_bound_without_j": json.dumps(dict(
        ROW_BOUND_PROBLEM, element_bounds=[{"i": 0, "ub": 1.0}])),
    "fractional_rows": json.dumps(dict(
        ROW_BOUND_PROBLEM, shape={"rows": 9.5, "cols": 10})),
    "string_rows": json.dumps(dict(
        ROW_BOUND_PROBLEM, shape={"rows": "ten", "cols": 10})),
    "overflowing_total": json.dumps(dict(
        ROW_BOUND_PROBLEM, total={"kind": "upper", "value": 10**400})),
    "total_without_value": json.dumps(dict(
        ROW_BOUND_PROBLEM, total={"kind": "equal"})),
    "nan_row_sum": '{"shape": {"rows": 2, "cols": 2}, '
                   '"row_sums": {"kind": "equal", "values": [NaN, 1]}}',
    "infinite_row_sum": '{"shape": {"rows": 2, "cols": 2}, '
                        '"row_sums": {"kind": "equal", "values": [1e400, 1]}}',
    "infinite_total": '{"shape": {"rows": 2, "cols": 2}, '
                      '"total": {"kind": "upper", "value": Infinity}}',
    "unindexable_shape_with_total": json.dumps(
        {"shape": {"rows": 10**400, "cols": 2}, "total": {"kind": "equal", "value": 3}}),
    "unindexable_shape_with_sparse_rows": json.dumps(
        {"shape": {"rows": 10**400, "cols": 2},
         "row_sums": {"kind": "equal", "sparse": [{"index": 0, "value": 1}]}}),
    "unindexable_3d_shape": json.dumps(
        {"shape": {"rows": 2**32, "cols": 2**31, "slices": 2},
         "total": {"kind": "equal", "value": 3}}),
    # wrongly typed values: a string is no list or number, true is no number
    "string_row_sums": json.dumps(
        {"shape": {"rows": 2, "cols": 2}, "row_sums": {"kind": "equal", "values": "57"}}),
    "string_total": json.dumps(
        {"shape": {"rows": 2, "cols": 2}, "total": {"kind": "equal", "value": "12"}}),
    "boolean_rows": json.dumps(dict(ROW_BOUND_PROBLEM, shape={"rows": True, "cols": 10})),
    "boolean_cap_row": json.dumps(dict(
        ROW_BOUND_PROBLEM, element_bounds=[{"i": True, "j": 0, "ub": 1.0}])),
    "string_symmetric": json.dumps(
        {"shape": {"rows": 2, "cols": 3}, "row_sums": {"kind": "upper", "values": [1, 2]},
         "symmetric": "false"}),
    # a kind other than equal or upper, anywhere
    "lower_row_sums": json.dumps(
        {"shape": {"rows": 2, "cols": 2}, "row_sums": {"kind": "lower", "values": [1, 2]}}),
    "lower_total": json.dumps(
        {"shape": {"rows": 2, "cols": 2}, "total": {"kind": "lower", "value": 3}}),
    "row_sums_without_values": json.dumps(
        {"shape": {"rows": 2, "cols": 2}, "row_sums": {"kind": "equal"}}),
    "diagonal_prefix_longer_than_values": json.dumps(
        {"shape": {"rows": 2, "cols": 2}, "symmetric": True,
         "fixed_blocks": {"diagonal_prefix": 2, "values": [1]}}),
    "array_document": "[1, 2]",
    "truncated_document": '{"shape": {"rows": 3,',
}


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_solve_exits_two(self, name, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(MALFORMED[name])
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")

    @pytest.mark.parametrize(
        "text", ['[[1, Infinity]]', '{"rows": [[1]]}', '[[1, "a"]]', f"[[1, {10**400}]]",
                 '[[1, "2"], [true, 3]]'])
    def test_count_matrix_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(text)
        assert main(["count", str(path)]) == 2
        assert capsys.readouterr().err.startswith("usage error:")

    def test_non_finite_result_is_an_error_not_json(self):
        args = argparse.Namespace(format="json", out=None)
        with pytest.raises(LikelymatError, match="non-finite"):
            _emit({"value": math.inf}, args)

    @pytest.mark.parametrize("value", [
        -math.inf, math.nan, [1.0, math.nan], np.array([[1.0, math.nan]]),
        np.array([[[0.5, -math.inf]]])])
    def test_non_finite_array_is_an_error_not_json(self, value):
        args = argparse.Namespace(format="json", out=None)
        with pytest.raises(LikelymatError, match="non-finite"):
            _emit({"matrix": value}, args)

    def test_unindexable_shape_with_full_col_sums_exits_two(self, tmp_path):
        """Once grew without bound; the child runs under a 1 GiB address-space cap."""
        path = write(tmp_path, "p.json", {"shape": {"rows": 10**400, "cols": 2},
                                          "col_sums": {"kind": "equal", "values": [1, 2]}})

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(likelymat.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", "import sys; from likelymat.cli import main; sys.exit(main())",
             "solve", path], env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap_memory,
            capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("usage error: shape has more than")

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_huge_scalar_diagonal_prefix_names_the_first_node_past_the_shape(
            self, command, tmp_path):
        """Its scalar value once became 10^9 cells; the child runs under a
        1 GiB address-space cap and the 2-s deadline."""
        path = write(tmp_path, "p.json", {
            "shape": {"rows": 2, "cols": 2}, "symmetric": True,
            "row_sums": {"kind": "equal", "values": [1, 1]},
            "fixed_blocks": {"diagonal_prefix": 10**9, "values": 0}})

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(likelymat.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", "import sys; from likelymat.cli import main; sys.exit(main())",
             command, path], env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap_memory, capture_output=True, text=True, timeout=2)
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == "error: IndexOutOfRange: fixed block index 2 outside 0..1\n"

    def test_memory_error_is_one_line(self, tmp_path):
        """The 20000 x 20000 row-bounds matrix takes 2.98 GiB; the child runs
        under a 2 GiB address-space cap."""
        path = write(tmp_path, "p.json", {"shape": {"rows": 20000, "cols": 20000},
                                          "row_sums": {"kind": "upper", "values": [1.0] * 20000}})

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = str(Path(likelymat.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", "import sys; from likelymat.cli import main; sys.exit(main())",
             "solve", path], env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap_memory, capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr.startswith("error: MemoryError: ")
        assert out.stderr.count("\n") == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_count_overflow_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {"shape": {"rows": 2, "cols": 2},
                                          "row_sums": {"kind": "equal", "values": [1e308, 1e308]}})
        assert main(["solve", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: CountOverflow: ")

    @pytest.mark.filterwarnings("error")
    def test_bounds_past_the_float_range_exit_one_on_the_count(self, tmp_path, capsys):
        # both sides are bounded, though each side's total overflows
        path = write(tmp_path, "p.json", {
            "shape": {"rows": 2, "cols": 2},
            "row_sums": {"kind": "upper", "values": [1.7e308, 1.7e308]},
            "col_sums": {"kind": "upper", "values": [1.7e308, 1.7e308]}})
        assert main(["solve", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: CountOverflow: ")


def _sparse(*entries):
    return {"kind": "equal", "sparse": [dict(zip(("index", "value", "slice"), e)) for e in entries]}


class TestFirstFault:
    """A document with faults is refused for the first of them in document
    order, type and sign faults alike, as a walk over its values would."""

    SQUARE = {"rows": 2, "cols": 2}

    @pytest.mark.parametrize("doc, err", [
        ({"row_sums": {"kind": "equal", "values": [-1, "x"]}},
         "error: NegativeValue: row 0: marginal value -1.0 < 0"),
        ({"row_sums": {"kind": "equal", "values": ["x", -1]}},
         "usage error: wrongly typed value 'x' in problem document"),
        ({"row_sums": {"kind": "equal", "values": [1, None]},
          "col_sums": {"kind": "equal", "values": [None, -2]}},
         "error: NegativeValue: col 1: marginal value -2.0 < 0"),
        ({"row_sums": _sparse((0, 1.0, 0))}, "error: ShapeMismatch: slice_index given for a 2-D spec"),
        ({"row_sums": _sparse((5, 1.0), (0, 1.0), (0, 1.0))},
         "error: IndexOutOfRange: row index 5 outside 0..1"),
        ({"row_sums": _sparse((0, 1.0), (0, 1.0), (5, 1.0))},
         "error: ShapeMismatch: duplicate constraint for row 0"),
        ({"row_sums": _sparse((10**30, 1.0))},
         f"error: IndexOutOfRange: row index {10**30} outside 0..1"),
        ({"element_bounds": [{"i": 0, "j": 1, "ub": 1}, {"i": 0, "j": 1, "ub": 2}]},
         "error: ShapeMismatch: duplicate element bound for (0,1)"),
        ({"element_bounds": [{"i": 0, "j": 1, "ub": -1}, {"i": "0", "j": 1, "ub": 2}]},
         "error: NegativeValue: element bound at (0,1) is negative"),
        ({"symmetric": True, "fixed_blocks": [{"indices": [10**30], "matrix": [[0]]}]},
         f"error: IndexOutOfRange: fixed block index {10**30} outside 0..1"),
        ({"symmetric": True, "fixed_blocks": [{"indices": [1], "matrix": [[0]]},
                                              {"indices": [0, 1], "matrix": [[0, 0], [0, 0]]}]},
         "error: ShapeMismatch: fixed blocks overlap at index 1"),
        ({"row_sums": _sparse((0, -1.0))}, "error: NegativeValue: row 0: marginal value -1.0 < 0"),
    ])
    def test_first_fault_is_named(self, doc, err, tmp_path, capsys):
        path = write(tmp_path, "p.json", {"shape": self.SQUARE, **doc})
        assert main(["solve", path]) == (2 if err.startswith("usage") else 1)
        assert capsys.readouterr().err == err + "\n"

    def test_a_3d_sum_needs_its_slice(self, tmp_path, capsys):
        doc = {"shape": {"rows": 2, "cols": 2, "slices": 2}, "symmetric": True,
               "row_sums": _sparse((0, 1.0, 1), (1, 1.0))}
        assert main(["solve", write(tmp_path, "p.json", doc)]) == 1
        assert capsys.readouterr().err == (
            "error: IndexOutOfRange: row 1: slice index None outside 0..1\n")


ZERO_DIAGONAL = {"diagonal_prefix": 3, "values": [0, 0, 0]}


class TestSparseMarginals:
    """A spec states only what it knows: one row sum of 10^9 rows must not
    cost memory per row in classification, ``check`` or ``solve``."""

    DOC = {"shape": {"rows": 10**9, "cols": 1},
           "row_sums": {"kind": "equal", "sparse": [{"index": 3, "value": 2.5}]}}
    PEAK = 4 << 20  # bytes; one float per row would be 8 GB

    def traced_peak(self, fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_classify_reads_counts(self):
        spec = load_problem(self.DOC)
        case, peak = self.traced_peak(lambda: classify(spec))
        assert case is SolverCase.UNSUPPORTED and peak < self.PEAK

    # The command runs in a child under a 2 GiB address-space cap, so a
    # per-row array fails it with MemoryError instead of exhausting the host.
    CHILD = ("import sys, tracemalloc; from likelymat.cli import main; tracemalloc.start(); "
             "code = main(sys.argv[1:]); "
             "print(f'peak {tracemalloc.get_traced_memory()[1]}', file=sys.stderr); "
             "sys.exit(code)")

    @pytest.mark.parametrize("command, expected", [("check", 0), ("solve", 1)])
    def test_cli_exit_codes(self, command, expected, tmp_path):
        path = write(tmp_path, "p.json", self.DOC)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = str(Path(likelymat.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", self.CHILD, command, path],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap_memory, capture_output=True, text=True, timeout=60)
        assert "Traceback" not in out.stderr, out.stderr
        err, _, peak = out.stderr.rpartition("peak ")
        assert (out.returncode, int(peak) < self.PEAK) == (expected, True)
        if expected:
            assert err.startswith("error: UnsupportedCase")
        else:
            assert json.loads(out.stdout) == {"case": "unsupported", "valid": True}


class TestFixedEntriesPastTheFloatRange:
    """A fixed-entry total past the float range solves without a numpy
    warning and without NaN.  3 x 1e308 splits into entries of 5e307, but
    the realization count overflows, so solve exits 1 with CountOverflow as
    gravity does at that size; the other two break the half-total check."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("doc, err", [
        ({"shape": {"rows": 3, "cols": 3}, "symmetric": True, "fixed_blocks": ZERO_DIAGONAL,
          "row_sums": {"kind": "equal", "values": [1e308] * 3}},
         "error: CountOverflow: "),
        ({"shape": {"rows": 6, "cols": 6, "slices": 3}, "symmetric": True,
          "fixed_blocks": {"diagonal_prefix": 6, "values": [0] * 6},
          "row_sums": {"kind": "equal", "values": [[1e308, 1, 1]] * 2 + [[1, 1, 1]] * 4}},
         "error: ConsistencyViolation: index set (0,): outgoing traffic 1e+308 "),
        ({"shape": {"rows": 4, "cols": 4}, "symmetric": True,
          "fixed_blocks": [{"indices": [0, 1], "matrix": [[0, 0], [0, 0]]},
                           {"indices": [2, 3], "matrix": [[0, 0], [0, 0]]}],
          "row_sums": {"kind": "equal", "values": [1e308, 1e308, 1e308, 1]}},
         "error: ConsistencyViolation: index set (0, 1): outgoing traffic inf "),
    ], ids=["fixed_diagonal", "3d", "blocks"])
    def test_solve_fails_cleanly(self, tmp_path, capsys, doc, err):
        assert main(["solve", write(tmp_path, "p.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err)

    @pytest.mark.filterwarnings("error")
    def test_oracle_fails_cleanly(self, tmp_path, capsys):
        # the oracle solves the program scaled into range and matches the
        # closed form; its entropy, below -1.7e308, cannot be printed
        doc = {"shape": {"rows": 3, "cols": 3}, "symmetric": True, "fixed_blocks": ZERO_DIAGONAL,
               "row_sums": {"kind": "equal", "values": [1e308] * 3}}
        assert main(["oracle", write(tmp_path, "p.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: LikelymatError: result has a non-finite number")


def _residuals_per_marginal(spec, X):
    """One full axis sum per marginal: the reference for ``_residuals``."""
    eq_res, bound_res = 0.0, 0.0
    stated = records(spec)
    for c in stated.marginals:
        ax = 1 if c.axis == "row" else 0
        if spec.shape.is_3d:
            val = float(X[:, :, c.slice_index].sum(axis=ax)[c.index])
        else:
            val = float(X.sum(axis=ax)[c.index])
        scale = max(1.0, abs(c.value))
        if c.kind == "equal":
            eq_res = max(eq_res, abs(val - c.value) / scale)
        else:
            bound_res = max(bound_res, (val - c.value) / scale)
    if spec.total is not None:
        val = float(X.sum())
        scale = max(1.0, abs(spec.total.value))
        if spec.total.kind == "equal":
            eq_res = max(eq_res, abs(val - spec.total.value) / scale)
        else:
            bound_res = max(bound_res, (val - spec.total.value) / scale)
    for e in stated.element_bounds:
        bound_res = max(bound_res, (float(X[e.i, e.j]) - e.ub) / max(1.0, e.ub))
    return {"max_equality": eq_res, "max_bound_violation": max(0.0, bound_res)}


class TestResiduals:
    def test_2d_matches_per_marginal_sums(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, m = rng.integers(1, 30, size=2)
            X = rng.uniform(0.0, 10.0, size=(n, m))
            row = [float(v) if rng.random() < 0.7 else None
                   for v in X.sum(axis=1) * rng.uniform(0.99, 1.01, n)]
            col = [float(v) if rng.random() < 0.5 else None
                   for v in X.sum(axis=0) * rng.uniform(0.99, 1.01, m)]
            spec = make_spec(
                n, m,
                row=(rng.choice(["equal", "upper"]), row),
                col=(rng.choice(["equal", "upper"]), col),
                total=("upper", float(X.sum()) * 0.99),
                elements=[(int(rng.integers(n)), int(rng.integers(m)), 5.0)],
            )
            assert _residuals(spec, X) == _residuals_per_marginal(spec, X)

    def test_3d_matches_per_slice_sums(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n, K = int(rng.integers(2, 15)), int(rng.integers(1, 5))
            X = rng.uniform(0.0, 10.0, size=(n, n, K))
            marginals = tuple(
                MarginalConstraint(axis, i, str(rng.choice(["equal", "upper"])),
                                   float(rng.uniform(0.0, 100.0)), k)
                for axis in ("row", "col") for i in range(n) for k in range(K)
                if rng.random() < 0.6
            )
            spec = ProblemSpec.of(Shape(n, n, K), marginals, symmetric=True)
            assert _residuals(spec, X) == _residuals_per_marginal(spec, X)


def dumps_reference(o) -> str:
    """The encoder ``_dumps`` replaces, on the ``tolist()`` form of arrays."""
    def plain(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return v
    return json.dumps(plain(o), indent=2, sort_keys=True, allow_nan=False)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308, 0.1, 1 / 3, -2.5]


class TestDumps:
    @pytest.mark.parametrize("o", [
        {}, [], {"a": {}, "b": []}, [[], [[]]], None, True, False, 0, -7, 1.5, "x",
        EDGE_FLOATS,
        {"z": 1, "a": [1, 2.0, None, True], "m": {"y": "a, b", "x": ", "}, "e": []},
        {"s": 'quote " and \\ and \u00e9 and ", "', "t": ("tuple", 1)},
        np.array(EDGE_FLOATS),
        np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]),
        np.arange(24, dtype=float).reshape(2, 3, 4) / 7,
        np.zeros((0,)), np.zeros((2, 0)), np.zeros((0, 3)),
        np.arange(6).reshape(2, 3), np.array([True, False]), np.array(2.5),
        np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32),
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        np.arange(12.0).reshape(3, 4)[:, ::2],
        {"matrix": np.full((3, 3), 0.1), "nested": [{"k": np.array([1.0, -0.0])}]},
    ])
    def test_matches_json_dumps(self, o):
        assert _dumps(o) == dumps_reference(o)

    def test_int_past_the_digit_limit(self):
        n = 7 ** 6000  # about 5070 digits
        sys.set_int_max_str_digits(0)  # as ``main`` does; the autouse fixture restores it
        assert _dumps({"exact": n, "v": [n]}) == dumps_reference({"exact": n, "v": [n]})

    def test_random_matrices_with_repeated_values(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            shape = tuple(int(v) for v in rng.integers(1, 12, int(rng.integers(1, 4))))
            pool = np.concatenate([rng.uniform(-1e3, 1e3, 5), EDGE_FLOATS])
            X = rng.choice(pool, shape)
            assert _dumps({"m": X, "s": [X, X]}) == dumps_reference({"m": X, "s": [X, X]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_the_json_message(self, bad):
        for o in ({"x": [1.0, bad, math.nan]}, {"x": np.array([[1.0, bad], [math.nan, 2.0]])}):
            with pytest.raises(ValueError) as want:
                dumps_reference(o)
            with pytest.raises(ValueError) as got:
                _dumps(o)
            assert str(got.value) == str(want.value)
