"""Correctness checks on program outputs, recomputed from the input document.

Each check returns a list of failure reasons; an empty list means the output
is correct.  Nothing here calls into ``likelymat``: marginals, bounds,
symmetry and counts are recomputed from the document the program was given.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager

import numpy as np

REL_TOL = 1e-9
GAP_TOL = 1e-6


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@contextmanager
def _big_ints():
    """Allow ints of any length while parsing exact counts."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def strict_json(text: str):
    """Parse strict JSON: NaN and +-Infinity are rejected."""
    with _big_ints():
        return json.loads(text, parse_constant=_reject_constant)


def _scale(v: float) -> float:
    return max(1.0, abs(v))


# ----------------------------------------------------------------------
# Constraint recomputation
# ----------------------------------------------------------------------


def _marginals(doc: dict, axis: str, is_3d: bool):
    """Yield (index, slice, kind, value) for one axis of a document."""
    spec = doc.get(f"{axis}_sums")
    if spec is None:
        return
    kind = spec["kind"]
    if "values" in spec:
        for i, v in enumerate(spec["values"]):
            if is_3d:
                for k, vk in enumerate(v):
                    if vk is not None:
                        yield i, k, kind, float(vk)
            elif v is not None:
                yield i, None, kind, float(v)
    else:
        for e in spec["sparse"]:
            yield int(e["index"]), e.get("slice"), kind, float(e["value"])


def _fixed_cells(doc: dict):
    blocks = doc.get("fixed_blocks")
    if blocks is None:
        return
    if isinstance(blocks, dict):
        m = int(blocks["diagonal_prefix"])
        vals = blocks.get("values", 0.0)
        vals = vals if isinstance(vals, list) else [vals] * m
        for i, v in enumerate(vals):
            yield i, i, float(v)
        return
    for b in blocks:
        for a, i in enumerate(b["indices"]):
            for c, j in enumerate(b["indices"]):
                yield i, j, float(b["matrix"][a][c])


def solution_errors(doc: dict, X) -> list[str]:
    """Check a matrix (n x m) or array (n x n x K) against its document."""
    sh = doc["shape"]
    n, m, K = sh["rows"], sh["cols"], sh.get("slices")
    X = np.asarray(X, dtype=float)
    want = (n, m) if K is None else (n, m, K)
    if X.shape != want:
        return [f"shape {X.shape}, expected {want}"]
    errors = []
    if not np.all(np.isfinite(X)):
        return ["non-finite entries"]
    if np.any(X < 0):
        errors.append("negative entries")

    def check(label, got, kind, value):
        if kind == "equal" and abs(got - value) > REL_TOL * _scale(value):
            errors.append(f"{label}: sum {got!r} != {value!r}")
        elif kind == "upper" and got > value + REL_TOL * _scale(value):
            errors.append(f"{label}: sum {got!r} exceeds bound {value!r}")

    sheets = [X] if K is None else [X[:, :, k] for k in range(K)]
    row_sums = [S.sum(axis=1) for S in sheets]
    col_sums = [S.sum(axis=0) for S in sheets]
    for axis, sums in (("row", row_sums), ("col", col_sums)):
        for i, k, kind, value in _marginals(doc, axis, K is not None):
            check(f"{axis} {i}/{k}", float(sums[k or 0][i]), kind, value)
    if "total" in doc:
        check("total", float(X.sum()), doc["total"]["kind"], float(doc["total"]["value"]))
    for e in doc.get("element_bounds", ()):
        got = float(X[e["i"], e["j"]])
        if got > e["ub"] + REL_TOL * _scale(e["ub"]):
            errors.append(f"element ({e['i']},{e['j']}) {got!r} exceeds {e['ub']!r}")
    if doc.get("symmetric"):
        for k, S in enumerate(sheets):
            if not np.array_equal(S, S.T):
                errors.append(f"sheet {k} is not exactly symmetric")
    for i, j, v in _fixed_cells(doc):
        for k, S in enumerate(sheets):
            if S[i, j] != v:
                errors.append(f"fixed cell ({i},{j}) sheet {k} is {S[i, j]!r}, not {v!r}")
    return errors[:5]


def multinomial(X) -> int:
    """s! / prod(x!) for an integer matrix, by factorials."""
    flat = [int(v) for v in np.asarray(X).ravel()]
    out = math.factorial(sum(flat))
    for v in flat:
        out //= math.factorial(v)
    return out


# ----------------------------------------------------------------------
# Per-command output checks
# ----------------------------------------------------------------------


def _payload_matrix(payload: dict):
    if "slices" in payload:
        return np.stack([np.asarray(s, dtype=float) for s in payload["slices"]], axis=2)
    return np.asarray(payload["matrix"], dtype=float)


def _check_solve(op, text):
    payload = strict_json(text)
    errors = [] if payload.get("case") == op.case else [f"case {payload.get('case')!r}"]
    return errors + solution_errors(op.doc, _payload_matrix(payload))


def _check_csv(op, text):
    rows = [[float(v) for v in line.split(",")] for line in text.splitlines() if line]
    return solution_errors(op.doc, rows)


def _check_check(op, text):
    payload = strict_json(text)
    errors = []
    if payload.get("valid") is not True or payload.get("case") != op.case:
        errors.append(f"check reported {payload.get('valid')!r} / {payload.get('case')!r}")
    if payload.get("consistency", {"ok": True}).get("ok") is not True:
        errors.append("consistency not ok")
    return errors


def _check_count_spec(op, text):
    payload = strict_json(text)
    m = op.doc["shape"]["cols"]
    u = [int(v) for v in op.doc["row_sums"]["values"]]
    saturated = math.prod(math.comb(v + m - 1, m - 1) for v in u)
    under = math.prod(math.comb(v + m, m) for v in u)
    errors = []
    if int(payload.get("feasible_saturated", -1)) != saturated:
        errors.append("feasible_saturated differs from the recomputed count")
    if int(payload.get("feasible_under_bounds", -1)) != under:
        errors.append("feasible_under_bounds differs from the recomputed count")
    return errors


def _check_count_matrix(op, text):
    payload = strict_json(text)
    X = np.asarray(op.doc["matrix"])
    exact = multinomial(X)
    errors = []
    with _big_ints():
        if int(payload.get("exact", -1)) != exact:
            errors.append("exact count differs from s!/prod(x!)")
    want = (math.lgamma(X.sum() + 1) - sum(math.lgamma(v + 1) for v in X.ravel())) / math.log(10)
    if abs(payload.get("log10_realizations", math.inf) - want) > 1e-9 * _scale(want):
        errors.append("log10_realizations differs from the recomputed value")
    return errors


def oracle_errors(gap: float, kkt_ok) -> list[str]:
    errors = [] if gap <= GAP_TOL else [f"oracle L-inf gap {gap!r} > {GAP_TOL}"]
    if kkt_ok is not None and not kkt_ok:
        errors.append("KKT check failed")
    return errors


def _check_oracle(op, text):
    payload = strict_json(text)
    errors = [] if payload.get("case") == op.case else [f"case {payload.get('case')!r}"]
    return errors + oracle_errors(payload["linf_gap"], payload.get("kkt_ok"))


def brute_errors(doc: dict, argmax, max_count: int, n_feasible: int) -> list[str]:
    if not argmax:
        return ["no argmax"]
    errors = []
    for M in argmax:
        M = np.asarray(M, dtype=float)
        if not np.array_equal(M, np.rint(M)):
            errors.append("non-integer argmax")
        errors += solution_errors(doc, M)
        if multinomial(np.rint(M)) != max_count:
            errors.append("argmax count differs from the reported maximum")
    if n_feasible < len(argmax):
        errors.append("fewer feasible matrices than argmax matrices")
    return errors[:5]


def _check_brute(op, text):
    payload = strict_json(text)
    return brute_errors(op.doc, payload["argmax"], int(payload["max_realizations"]),
                        payload["n_feasible"])


OUTPUT_CHECKS = {
    "solve": _check_solve,
    "csv": _check_csv,
    "check": _check_check,
    "count_spec": _check_count_spec,
    "count_matrix": _check_count_matrix,
    "oracle": _check_oracle,
    "brute": _check_brute,
    "none": lambda op, text: [],
}


def _last_line(stderr: str) -> str:
    lines = [line.strip() for line in stderr.splitlines() if line.strip()]
    return lines[-1][:160] if lines else ""


def cli_errors(op, exit_code: int, text: str, stderr: str = "") -> list[str]:
    """Check one CLI op: its exit code, then (on success) its output.

    A wrong exit code's reason carries what identifies the failure: the last
    line of standard error (the exception or error message) after a failing
    exit, or why the output is not strict JSON after an unexpected success.
    """
    if exit_code != op.expect_exit:
        reason = f"exit {exit_code}, expected {op.expect_exit}"
        if exit_code != 0:
            return [f"{reason}: {_last_line(stderr)}"]
        try:
            strict_json(text)
        except ValueError as e:
            return [f"{reason}: output has {e}"]
        return [reason]
    if exit_code != 0:
        return []
    try:
        return OUTPUT_CHECKS[op.check](op, text)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return [f"unreadable output: {type(e).__name__}: {str(e)[:120]}"]
