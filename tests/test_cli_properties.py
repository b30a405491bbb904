"""The CLI's exit-code contract over drawn documents.

Every subcommand, on any document, exits 0, 1 or 2 with no traceback and
no RuntimeWarning, and within two seconds.
Documents run from well-formed problems to malformed ones: numbers from
5e-324 to 1.7e308, negative and missing values, integers past the float
range, shapes with up to 10^6 columns for ``count`` and ``check``, and
large-integer matrices for ``count``.  ``check`` and ``solve`` refuse the
same problems, with the same message unless the refusal is ``check``'s
half-total report.
"""

import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from likelymat.cli import main

NUMBER = st.one_of(
    st.integers(0, 50),
    st.floats(5e-324, 1.7e308),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1.7e308]),
)
# What a malformed or infeasible document may hold in place of a number.
BAD = st.sampled_from([-1, -1e300, "2", True, 10**400, [1]])


@st.composite
def problems(draw):
    """A problem document over a small shape, in one of the closed forms'
    patterns or any mix of sums, a total, element caps, a fixed diagonal and
    symmetry; one document in ten has a malformed or negative value."""
    rows = draw(st.integers(1, 4))
    pattern = draw(st.sampled_from(["rows", "gravity", "rows_total", "sym", "sym_diagonal",
                                    "caps", "3d", "any"]))
    symmetric = pattern in ("sym", "sym_diagonal", "3d") or (
        pattern == "any" and draw(st.booleans()))
    cols = rows if symmetric else draw(st.integers(1, 4))
    slices = draw(st.integers(1, 2)) if pattern == "3d" else None
    doc = {"shape": {"rows": rows, "cols": cols, "slices": slices}, "symmetric": symmetric}
    kind = draw(st.sampled_from(["equal", "upper"]))

    def sums(n):
        values = [[draw(NUMBER) for _ in range(slices)] if slices else draw(st.none() | NUMBER)
                  for _ in range(n)]
        return {"kind": "equal" if pattern == "gravity" else kind, "values": values}

    def some(name):
        return name == pattern or pattern == "any" and draw(st.booleans())

    if pattern != "any" or draw(st.booleans()):
        doc["row_sums"] = sums(rows)
    if some("gravity"):
        doc["col_sums"] = sums(cols)
    if some("rows_total") or pattern == "sym" and draw(st.booleans()):
        doc["total"] = {"kind": draw(st.sampled_from(["equal", "upper"])), "value": draw(NUMBER)}
    if some("caps"):
        doc["element_bounds"] = [{"i": draw(st.integers(0, rows - 1)),
                                  "j": draw(st.integers(0, cols - 1)), "ub": draw(NUMBER)}
                                 for _ in range(draw(st.integers(1, 3)))]
    if some("sym_diagonal") or pattern == "3d":
        m = rows if pattern == "3d" else draw(st.integers(1, min(rows, cols)))
        values = 0 if pattern == "3d" else [draw(NUMBER) for _ in range(m)]
        doc["fixed_blocks"] = {"diagonal_prefix": m, "values": values}
    if "row_sums" in doc and not draw(st.integers(0, 9)):
        doc["row_sums"]["values"][0] = draw(BAD)
    return doc


@st.composite
def wide_row_sums(draw):
    """A row-sums-only document with up to 10^6 columns."""
    rows = draw(st.integers(1, 3))
    return {"shape": {"rows": rows, "cols": draw(st.integers(1, 10**6))},
            "row_sums": {"kind": draw(st.sampled_from(["equal", "upper"])),
                         "values": [draw(NUMBER) for _ in range(rows)]}}


CELL = st.one_of(st.integers(0, 60), st.integers(0, 10**12), st.integers(0, 10**400), NUMBER, BAD)


@st.composite
def matrices(draw):
    """A matrix document, its cells integers of any size or floats."""
    cols = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(CELL, min_size=cols, max_size=cols), min_size=1, max_size=3))
    return draw(st.sampled_from([rows, {"matrix": rows}]))


RUNS = st.one_of(
    st.tuples(st.sampled_from([["solve"], ["solve", "--format", "csv"],
                               ["solve", "--series-order", "2"], ["check"], ["oracle"],
                               ["count"]]), problems()),
    st.tuples(st.sampled_from([["count"], ["check"]]), wide_row_sums()),
    st.tuples(st.sampled_from([["count"], ["count", "--exact"]]), matrices()),
)


def run_command(tmp_path_factory, argv, doc) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command on ``doc``; no RuntimeWarning."""
    path = tmp_path_factory.getbasetemp() / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([argv[0], str(path), *argv[1:]])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue()


def exits_cleanly(tmp_path_factory, argv, doc) -> None:
    code, out, err = run_command(tmp_path_factory, argv, doc)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert out and not err
    else:
        prefix = "usage error: " if code == 2 else ("error: ", "consistency violation")
        assert err.startswith(prefix)


@settings(max_examples=150, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(RUNS)
def test_every_run_exits_cleanly(tmp_path_factory, run):
    exits_cleanly(tmp_path_factory, *run)


@settings(max_examples=25, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_brute_exits_cleanly(tmp_path_factory, doc):
    exits_cleanly(tmp_path_factory, ["brute"], doc)


# solve's refusals of a spec that check passes: the answer cannot be printed,
# or no case covers the spec
UNPRINTABLE = ("error: CountOverflow: ", "error: LikelymatError: result has a non-finite number",
               "error: UnsupportedCase: ")


@settings(max_examples=100, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_check_refuses_what_solve_refuses(tmp_path_factory, doc):
    (check, check_out, check_err), (solve, _, solve_err) = (
        run_command(tmp_path_factory, [command], doc) for command in ("check", "solve"))
    assert (check == 2) == (solve == 2)
    if check == 2:
        assert check_err == solve_err
    elif check_err.startswith("consistency violation at index set "):
        first = json.loads(check_out)["consistency"]["violations"][0]
        assert solve == 1
        if not first.get("slice"):  # else solve may refuse an earlier 3-D slice first
            indices = tuple(first["indices"])
            assert solve_err.startswith((f"error: ConsistencyViolation: index set {indices}: ",
                                         "error: UnsupportedCase: "))
    elif solve_err.startswith(UNPRINTABLE):
        assert check == 0
    else:
        assert check == solve
        if check == 1:
            assert (check_out, check_err) == ("", solve_err)
