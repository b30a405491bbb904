"""Tests of the benchmark itself: its checks, its traces and its exit paths.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Env, guarded  # noqa: E402


@pytest.fixture
def env(tmp_path):
    import likelymat.cli  # noqa: F401
    return Env(ROOT, ROOT / "src", tmp_path)


def _small_items(env, names):
    items = WORKLOADS["cli_small"].setup(env, 0)
    return [item for item in items if item[0].name in names]


def _solve_output(env, item) -> str:
    from likelymat.cli import main
    out = env.work / "out.json"
    assert main([*item[1], "--out", str(out)]) == 0
    return out.read_text()


def test_correct_output_passes(env):
    (item,) = _small_items(env, {"solve.sym_blocks"})
    assert checks.cli_errors(item[0], 0, _solve_output(env, item)) == []


def test_perturbed_row_sum_is_a_failed_op(env):
    (item,) = _small_items(env, {"solve.sym_blocks"})
    payload = json.loads(_solve_output(env, item))
    payload["matrix"][3][0] *= 1 + 1e-6
    errors = checks.cli_errors(item[0], 0, json.dumps(payload))
    assert any(e.startswith("row 3") for e in errors)
    summary = run._summary([(item[0], errors)])
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (1, 1, False)


def test_wrong_exit_code_is_a_failed_op(env):
    (item,) = _small_items(env, {"solve.sym_blocks"})
    errors = checks.cli_errors(item[0], 2, "", "usage error: bad input\n")
    assert errors == ["exit 2, expected 0: usage error: bad input"]
    summary = run._summary([(item[0], errors), (item[0], [])])
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (2, 1, False)


def test_known_defect_counts_as_failed_but_keeps_the_run_correct():
    op = corpus.Op("count_exact.20x20", "count", "{}", "count_matrix")
    reason = ("exit 1, expected 0: ValueError: Exceeds the limit (4300 digits) for integer "
              "string conversion")
    summary = run._summary([(op, [reason])])
    assert (summary["failed"], summary["correct"]) == (1, True)
    # The same op failing for another reason is not the known defect, even
    # with the same exit code.
    for other in ("exact count differs from s!/prod(x!)",
                  "exit 1, expected 0: error: NotConverged: no root",
                  "exit 1, expected 0: "):
        summary = run._summary([(op, [other])])
        assert (summary["failed"], summary["correct"]) == (1, False), other


def test_known_defects_reproduce_with_their_signature(env):
    """Each listed defect fails, in-process as in a child, with its reason."""
    ops = [op for op in corpus.cli_small(6) if op.name in corpus.KNOWN_DEFECTS]
    assert {op.name for op in ops} == set(corpus.KNOWN_DEFECTS)
    items = {item[0].name: item for item in WORKLOADS["cli_small"].setup(env, 6)}
    workload = WORKLOADS["cli_small"]
    for name in ("count_exact.20x20", "defect.nonfinite_row_sum",
                 "defect.element_bound_without_j", "oracle.total_row_bounds"):
        errors = workload.in_process(env, items[name], lambda body: body(), Counter())
        assert errors and corpus.known_defect(name, errors[0]), (name, errors)
    _, errors, _ = workload.timed(env, items["defect.element_bound_without_j"])
    assert errors and corpus.known_defect("defect.element_bound_without_j", errors[0]), errors


def test_raising_op_is_a_failed_op():
    assert guarded(lambda: 1 / 0) == ["raised ZeroDivisionError: division by zero"]
    assert guarded(lambda: []) == []


def test_non_finite_json_is_rejected():
    with pytest.raises(ValueError):
        checks.strict_json('{"a": Infinity}')
    assert checks.strict_json('{"a": 1.5}') == {"a": 1.5}


def test_asymmetric_matrix_is_rejected():
    doc = {"shape": {"rows": 2, "cols": 2}, "symmetric": True,
           "row_sums": {"kind": "upper", "values": [3.0, 3.0]}}
    assert checks.solution_errors(doc, [[1.0, 1.0], [1.0, 1.0]]) == []
    errors = checks.solution_errors(doc, [[1.0, 1.0], [1.0 + 1e-12, 1.0]])
    assert errors == ["sheet 0 is not exactly symmetric"]


def _traced_pass(env, workload, items):
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        run._replay(workload, env, items, tracer)
    return tracer


def test_spans_nest_and_self_times_sum_to_op_time(env):
    workload = WORKLOADS["cli_small"]
    items = _small_items(env, {"readme.zero_diagonal", "solve.row_elem_bounds",
                               "oracle.total_row_bounds", "check.sym_blocks"})
    tracer = _traced_pass(env, workload, items)
    assert tracing.nesting_errors(tracer.spans) == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.parse", "solve", "symmetric", "symmetric.root",
            "waterfill", "counting.log10", "oracle.maxent"} <= names
    layers = tracing.layer_metrics(tracer)
    total = sum(layers[m] for m in tracing.SELF_TIME_METRICS.values())
    assert math.isclose(total, layers["trace.op_s"], rel_tol=1e-9)
    assert layers["symmetric.root_f_evals"] > 0 and layers["waterfill.calls"] > 0


def test_nesting_check_catches_a_child_outside_its_parent():
    spans = [tracing.Span(0, 0, None, "op", 0.0, 1.0),
             tracing.Span(0, 1, 0, "solve", 0.5, 1.5)]
    assert len(tracing.nesting_errors(spans)) == 1


def test_instrumentation_is_removed_after_the_block():
    import likelymat.cli
    import likelymat.symmetric as sym
    before = (likelymat.cli.main, sym.RootProblem.f, likelymat.solve)
    with tracing.instrumented(tracing.Tracer()):
        assert likelymat.cli.main is not before[0]
    assert (likelymat.cli.main, sym.RootProblem.f, likelymat.solve) == before


def test_exact_counters_repeat(env):
    workload = WORKLOADS["cli_small"]
    items = WORKLOADS["cli_small"].setup(env, 0)[:8]
    first, second = (tracing.layer_metrics(_traced_pass(env, workload, items))
                     for _ in range(2))
    for name in tracing.EXACT_COUNTERS[:-1]:
        assert first[name] == second[name], name


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert corpus.cli_small(3) == corpus.cli_small(3)
    assert corpus.lib_solve(3) == corpus.lib_solve(3)
    assert corpus.cli_large(3) != corpus.cli_large(4)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
