"""The spec's marginals as arrays (``ProblemSpec.sums``) against a walk over
the records the spec was built from, and the spec -> JSON document -> spec
round trip."""

import json
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, strategies as st

from likelymat import (
    ElementBound,
    FixedBlock,
    LikelymatError,
    MarginalConstraint,
    ProblemSpec,
    Shape,
    TotalConstraint,
    validate_spec,
)
from likelymat.cli import load_problem
from conftest import walk_sums


@st.composite
def stated_specs(draw, mixed: bool):
    """A spec stating sums of a drawn nonnegative matrix, its document, and
    the marginal records it was built from.

    2-D or 3-D, symmetric or not.  Each axis states a drawn subset of its
    sums, exact (``equal``) or above the matrix's (``upper``), listed
    unsorted, or in index order when the document lists them densely; a
    symmetric spec may spell out its columns.  With ``mixed`` some sums
    change kind, which no document can say, and the document is None.
    There may be a total, element caps and a fixed diagonal.  Sums of the
    other kind, a total below its mark or a fixed diagonal can make a spec
    infeasible; both routes must then fail alike.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["rect", "symmetric", "3d"]))
    three_d, symmetric = form == "3d", form != "rect"
    n = draw(st.integers(1, 5))
    m = n if symmetric else draw(st.integers(1, 5))
    slices = draw(st.integers(1, 3)) if three_d else None
    X = rng.uniform(0.0, 10.0, (n, m, slices or 1)) * (rng.random((n, m, slices or 1)) > 0.2)
    if symmetric:
        X = (X + X.transpose(1, 0, 2)) / 2.0
    dense = draw(st.booleans())
    doc: dict = {"shape": {"rows": n, "cols": m, **({"slices": slices} if three_d else {})}}
    marginals = []
    for axis in ("row", "col"):
        if axis == "col" and symmetric:
            if marginals and draw(st.booleans()):  # the columns spelled out, as the rows
                mirror = [MarginalConstraint("col", c.index, c.kind, c.value, c.slice_index)
                          for c in marginals]
                marginals += mirror
                doc["col_sums"] = dict(doc["row_sums"])
            break
        kind = draw(st.sampled_from(["equal", "upper"]))
        sums = X.sum(axis=1 if axis == "row" else 0)  # (size, slices)
        places = [(i, k) for i in range(sums.shape[0]) for k in range(sums.shape[1])]
        stated = [p for p, keep in zip(places, rng.random(len(places)) < 0.7) if keep]
        if not dense:
            stated = [stated[t] for t in rng.permutation(len(stated))]
        slack = 1.0 if kind == "equal" else float(rng.uniform(1.0, 2.0))
        axis_marginals = [
            MarginalConstraint(axis, i, kind, float(sums[i, k]) * slack, k if three_d else None)
            for i, k in stated]
        marginals += axis_marginals
        if not stated:
            continue
        if dense:
            values = np.full(sums.shape, None, dtype=object)
            for c in axis_marginals:
                values[c.index, c.slice_index or 0] = c.value
            values = values.tolist() if three_d else values[:, 0].tolist()
            doc[f"{axis}_sums"] = {"kind": kind, "values": values}
        else:
            doc[f"{axis}_sums"] = {"kind": kind, "sparse": [
                {"index": c.index, "value": c.value,
                 **({} if c.slice_index is None else {"slice": c.slice_index})}
                for c in axis_marginals]}
    total = None
    total_kind = draw(st.sampled_from([None, "equal", "upper"]))
    if total_kind is not None:
        total = TotalConstraint(total_kind, float(X.sum()) * float(rng.uniform(0.9, 1.5)))
        doc["total"] = {"kind": total.kind, "value": total.value}
    caps = []
    if not three_d and draw(st.booleans()):
        cells = [(i, j) for i in range(n) for j in range(m) if rng.random() < 0.4]
        caps = [ElementBound(i, j, float(X[i, j, 0]) * float(rng.uniform(1.0, 2.0)))
                for i, j in cells]
        doc["element_bounds"] = [{"i": e.i, "j": e.j, "ub": e.ub} for e in caps]
    blocks = []
    if symmetric and draw(st.booleans()):
        blocks = [FixedBlock((i,), ((0.0 if three_d else float(X[i, i, 0]),),))
                  for i in range(n) if rng.random() < 0.6]
        doc["fixed_blocks"] = [{"indices": list(b.index_set), "matrix": [list(b.matrix[0])]}
                               for b in blocks]
    if symmetric or draw(st.booleans()):
        doc["symmetric"] = symmetric
    if mixed and marginals:
        flip = rng.random(len(marginals)) < 0.3
        marginals = [MarginalConstraint(c.axis, c.index, ("upper", "equal")[c.kind == "upper"],
                                        c.value, c.slice_index) if f else c
                     for c, f in zip(marginals, flip)]
    spec = ProblemSpec.of(Shape(n, m, slices), marginals, total, caps, blocks, symmetric)
    return spec, None if mixed else doc, marginals


def validated_or_error(build):
    try:
        return build()
    except LikelymatError as e:
        return type(e), str(e)


def assert_view_is_the_walk(spec, axis, marginals):
    """The view of ``axis`` holds the records of that axis, in their order."""
    view = spec.sums[axis]
    stated = [c for c in marginals if c.axis == axis]
    assert list(zip(view.index.tolist(), view.slice.tolist(), view.value.tolist(),
                    view.equal.tolist())) == [
        (c.index, c.slice_index or 0, c.value, c.kind == "equal") for c in stated]
    values, kinds = walk_sums(spec, axis)
    assert view.values().tobytes() == values.tobytes()
    assert view.kinds == kinds
    places = {(c.index, c.slice_index) for c in stated}
    assert view.complete == (len(places) == math.prod(values.shape) == len(stated))
    assert view.known == (view.complete and kinds == {"equal"})


@given(stated_specs(mixed=True))
def test_the_view_is_a_walk_over_the_marginals(drawn):
    spec, _, marginals = drawn
    for axis in ("row", "col"):
        assert_view_is_the_walk(spec, axis, marginals)
    valid = validated_or_error(lambda: validate_spec(spec))
    if isinstance(valid, tuple):
        return
    # validation sorts each axis by slice, then index
    ordered = sorted(marginals, key=lambda c: (c.slice_index or 0, c.index))
    assert_view_is_the_walk(valid, "row", ordered)
    if valid.symmetric:
        assert valid.sums["col"] is valid.sums["row"]
        assert_view_is_the_walk(replace(valid, validated=False), "col", ordered)
    else:
        assert_view_is_the_walk(valid, "col", ordered)


@given(stated_specs(mixed=False))
def test_a_spec_survives_its_json_document(drawn):
    spec, doc, _ = drawn
    want = validated_or_error(lambda: validate_spec(spec))
    got = validated_or_error(lambda: load_problem(json.loads(json.dumps(doc))))
    assert got == want
    if isinstance(got, ProblemSpec):
        assert got.validated and got.symmetric is spec.symmetric
