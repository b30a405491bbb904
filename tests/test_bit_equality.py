"""The numpy solver core and oracle against the loops they replaced, bit for bit.

The references below are the loop code that ``RootProblem``, the root
solver, ``branch_factors``, ``series_approx_xi``, the fixed-entry root
problem and factors (``_root_problem``, ``_factors``) and the water-fill ran
before they were vectorised, and the oracle's program build, dual solve,
product-form fit and KKT check as they were when they walked every cell in
Python, and the fixed-entry solvers, the half-total check and the root
factors as they were when they walked ``FixedBlock`` objects.
They are kept verbatim apart from names, and apart from one rule the
water-fill loops took with the code they check: a target at or above the
bound total saturates every bound (it used to go to the k-scan, whose
sorted prefix sum could end an ulp above the target and give k = n - 1).
The vectorised code promises the same floating-point operations in the
same order, so those comparisons are ``==``, never a tolerance.

The oracle's dual solve and product-form fit are the exception: they now
work on incidence lists and the normal equations instead of dense
matrices, so their sums run in another order.  Their results are held to
tolerances against the dense references kept here; the programs they work
on are still compared bit for bit.  The oracle's program is now arrays
only, and ``walk_form`` and ``array_form`` turn one form into the other:
the programs are compared member by member, target by target and fixed
cell by fixed cell.  The arrays keep no constraint labels, so a label is
compared only where an error message names it.

The G objective (free total) was once maximized by a line search over
the total: a linear program for the largest feasible total, a slope probe
just inside it and a bisection, each step an H program with the total
inserted.  It is kept as the reference for the minorize-maximize rounds
that replaced it, through the oracle's own dual solve; the two agree to the
dual solve's tolerance.

The bound cases' matrices were once assembled case by case: two-sided
bounds sorted the columns and scattered them back, a known total tiled its
water-filled rows, gravity moved its known columns to the front, and the
symmetric total built four blocks.  Those assemblies are kept as references
for the one water-fill-then-gravity construction that replaced them.  It
writes the same bits wherever it uses the same expression; the symmetric
total, whose cells are now x_i x_j / sum(x), stays within 1e-15 relative.

The dual solve's L-BFGS-B round once called scipy's ``minimize``.  It is
kept as the reference for the loop that now drives scipy's compiled
routine itself: the same points, evaluations and iteration counts, bit
for bit.

The oracle's triangular solves once went through scipy's
``solve_triangular``, and ``matvec`` always scattered its sums into zeros.
Both are kept as references for the direct LAPACK calls and the no-copy
path that replaced them, which match them bit for bit.

The row water-fill once sorted, summed and scanned every cell of every
row, +inf ones too, and gravity wrote its columns through boolean column
masks.  Both are kept as references: the water-fill that now reads only
the finite caps, and the whole-matrix gravity passes, match them bit for
bit.

The fixed-entry solvers once bisected each slice's root on its own, by a
scalar loop, and assembled each slice as scale * np.outer(f, f).  That
slice-by-slice construction is kept as the reference for the lockstep
bisection and the block-of-rows assembly: every byte, root and note the
same, or the same first error.

``classify`` once ran three nested classifiers, one per form, with a bare
return for each refusal.  They are kept as the reference for the case
table that replaced them: the same case, or the same error, for every spec
of a feature grid and for drawn specs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CASE_GENERATORS,
    _ratios_below_third,
    caps_of,
    find_k,
    make_spec,
    random_sym_blocks,
    random_sym_fixed_diagonal,
    records,
    walk_sums,
    zero_diagonal_blocks,
)
from likelymat import (
    BracketFailure,
    ConsistencyViolation,
    ElementBound,
    FixedBlock,
    InfeasibleMarginals,
    InvariantViolation,
    LikelymatError,
    MarginalConstraint,
    NegativeValue,
    RootProblem,
    Shape,
    SolverCase,
    TotalConstraint,
    classify,
    consistency_check_blocks,
    solve,
    solve_bounded_total_row_bounds,
    solve_row_bounds,
    solve_row_col_bounds,
    solve_sym_3d_fixed_diagonal,
    solve_sym_block_diagonal,
    solve_sym_fixed_diagonal,
    solve_sym_total_row_col_bounds,
    solve_total_row_bounds,
)
from likelymat import oracle
from likelymat.cli import _oracle_objective
from likelymat.constraints import (
    REL_TOL,
    ConsistencyReport,
    FixedCells,
    ProblemSpec,
    close,
    is_column_form,
    transpose,
    validate_spec,
)
from likelymat.errors import Infeasible, InvariantViolation, NotConverged
from likelymat.oracle import ZERO_REPORT, KktReport
from likelymat.rect import _gravity
from likelymat.solution import Solution, TensorSolution
from likelymat.symmetric import (
    _bisect,
    _bracket,
    _factors,
    _root_problem,
    branch_factors,
    series_approx_xi,
    solve_root_lambda,
)
from likelymat.waterfill import waterfill_bounded_sum, waterfill_rows

SIZES = (1, 7, 8, 9, 127, 128, 129, 2000)
# the reference root's upward scan stops here
SCAN_LIMIT = 64.0


# ----------------------------------------------------------------------
# Reference: the scalar loops
# ----------------------------------------------------------------------


class LoopRootProblem:
    def __init__(self, r, m):
        self.r = tuple(r)
        self.m = m

    @property
    def sigma(self):
        return float(sum(self.r))

    @property
    def r_max(self):
        return max(self.r[: self.m]) if self.m > 0 else max(self.r)

    @property
    def tail(self):
        return float(sum(self.r[self.m :]))

    @property
    def bracket(self):
        return 2.0 * math.sqrt(self.r_max), 4.0 * math.sqrt(self.sigma) / 3.0

    @property
    def guaranteed(self):
        sigma = self.sigma
        if sigma <= 0 or not all(0 < v < sigma / 3 for v in self.r):
            return False
        if self.m == len(self.r):
            return self.m >= 3
        return len(self.r) >= 3 and close(sigma, 1.0)

    def f(self, lam):
        lam2 = lam * lam
        acc = 0.0
        for v in self.r[: self.m]:
            acc += math.sqrt(max(0.0, 1.0 - 4.0 * v / lam2))
        return acc - 2.0 * self.tail / lam2 - (self.m - 2)

    def f_prime(self, lam):
        lam2 = lam * lam
        acc = 4.0 * self.tail / (lam2 * lam)
        for v in self.r[: self.m]:
            g = 1.0 - 4.0 * v / lam2
            if g > 0:
                acc += 4.0 * v / (lam2 * lam * math.sqrt(g))
        return acc

    def f_at_branch_point(self):
        r_fixed = self.r[: self.m]
        r_top = max(r_fixed)
        acc = 0.0
        for v in r_fixed:
            if v != r_top:
                acc += math.sqrt(max(0.0, 1.0 - v / r_top))
        return acc - self.tail / (2.0 * r_top) - (self.m - 2)


def loop_solve_root_lambda(p, tol=1e-12):
    lo, hi = p.bracket
    branch = loop_fixed_branch_point(p)
    flo = p.f_at_branch_point() if branch is not None and lo == branch else p.f(lo)
    fhi = p.f(hi)
    if p.guaranteed and not flo <= 0.0:
        raise AssertionError("lower end")
    if p.guaranteed and not fhi > 0.0:
        raise AssertionError("upper end")
    if flo == 0.0:
        return lo
    if not (flo < 0.0 < fhi):
        lo, hi = loop_scan_for_sign_change(p)
        if lo == hi:
            return lo
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if p.f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    lam = lo
    fv = p.f(lam)
    if fv != 0.0 and abs(fv) > tol:
        d = p.f_prime(lam)
        if d > 0 and math.isfinite(d):
            cand = lam - fv / d
            if 0.0 < cand <= SCAN_LIMIT and abs(p.f(cand)) < abs(fv):
                lam = cand
    return lam


def loop_fixed_branch_point(p):
    r_fixed = p.r[: p.m]
    if not r_fixed or max(r_fixed) <= 0:
        return None
    return 2.0 * math.sqrt(max(r_fixed))


def loop_scan_for_sign_change(p):
    branch = loop_fixed_branch_point(p)
    if branch is not None:
        base = branch
        fb = p.f_at_branch_point()
        if fb == 0.0:
            return base, base
        if fb > 0.0:
            raise AssertionError("no root")
    else:
        base = 1e-9
        if p.f(base) > 0.0:
            raise AssertionError("no root")
    lo = base
    lam = base
    while lam < SCAN_LIMIT:
        lam = max(lam * 1.05, lam + 1e-9)
        if p.f(lam) > 0.0:
            return lo, lam
        lo = lam
    raise AssertionError("no sign change")


def loop_branch_factors(p, lam):
    m = p.m
    lam2 = lam * lam
    q = np.empty(m)
    for i in range(m):
        q[i] = math.sqrt(max(0.0, 1.0 - 4.0 * p.r[i] / lam2))
    r_fixed = p.r[:m]
    r_top = max(r_fixed, default=0.0)
    if r_top > 0:
        ties = [i for i in range(m) if r_fixed[i] == r_top]
        others = sum(q[i] for i in range(m) if r_fixed[i] != r_top)
        residual = (m - 2) + 2.0 * p.tail / lam2 - others
        q[ties] = min(1.0, max(0.0, residual / len(ties)))
    return q


def loop_series(p, xi0, order):
    r_fixed = p.r[: p.m]
    args = [1.0 - v * xi0 for v in r_fixed]
    rho = tuple(math.sqrt(a) for a in args)
    tail = p.tail
    delta = sum(rho) - (tail / 2.0) * xi0 - (p.m - 2)
    d1 = -sum(v / (2.0 * q) for v, q in zip(r_fixed, rho)) - tail / 2.0
    d2 = -sum(v * v / (4.0 * q**3) for v, q in zip(r_fixed, rho))
    t1 = -delta / d1
    t2 = -d2 / (2.0 * d1**3) * delta * delta
    return rho, delta, (xi0, t1, t2)


def loop_root_factors(r, groups, tol):
    grouped = np.zeros(r.size, dtype=bool)
    grouped[[i for g in groups for i in g]] = True
    tail = np.flatnonzero(~grouped)
    rl = r.tolist()
    r_group = [rl[g[0]] if len(g) == 1 else sum(rl[i] for i in g) for g in groups]
    problem = LoopRootProblem(r=tuple(r_group) + tuple(r[tail].tolist()), m=len(r_group))
    lam = loop_solve_root_lambda(problem, tol)
    q = loop_branch_factors(problem, lam)
    f_group = 2.0 * np.array(r_group) / (lam * (1.0 + q))
    factors = np.zeros(r.size)
    factors[tail] = r[tail] / lam
    for g, rg, fg in zip(groups, r_group, f_group.tolist()):
        if len(g) == 1:
            factors[g[0]] = fg
        elif rg > 0:
            factors[list(g)] = r[list(g)] * fg / rg
    return problem, lam, factors


def root_factors(r, nodes, block):
    """The fixed-entry construction's root and factors for one slice."""
    problem = _root_problem(r, nodes, block)
    lam = solve_root_lambda(problem)
    return problem, lam, _factors(problem, lam, r, nodes, block)


def loop_find_k_vector(a, b_sorted):
    b = np.asarray(b_sorted, dtype=float)
    n = b.size
    total = float(b.sum())
    if a > total and not a <= total * (1 + 1e-9):
        raise AssertionError("infeasible")
    a = min(a, total)
    k = 0
    prefix = 0.0
    prev_phi = a
    for j in range(1, n + 1):
        bj = float(b[j - 1])
        if math.isinf(bj):
            break
        prefix += bj
        phi = a - prefix - (n - j) * bj
        if not phi <= prev_phi + 1e-12 * max(1.0, abs(a)):
            raise InvariantViolation("slack must be nonincreasing")
        prev_phi = phi
        if phi >= 0:
            k = j
    return k


def loop_waterfill_equal_sum(a, b):
    b = np.asarray(b, dtype=float)
    n = b.size
    total = float(b.sum())
    a = min(a, total)
    order = np.argsort(b, kind="stable")
    bs = b[order]
    if a >= total:
        return b.copy(), n, 0.0, tuple(int(i) for i in order)
    if a == 0.0:
        return np.zeros(n), 0, 0.0, tuple(int(i) for i in order)
    k = loop_find_k_vector(a, bs)
    xs = np.empty(n)
    xs[:k] = bs[:k]
    if k < n:
        mu = (a - float(bs[:k].sum())) / (n - k)
        xs[k:] = mu
    else:
        mu = 0.0
    x = np.empty(n)
    x[order] = xs
    return x, k, mu, tuple(int(i) for i in order)


def loop_waterfill_bounded_sum(a, b):
    b = np.asarray(b, dtype=float)
    total = float(b.sum())
    if a >= total:
        order = np.argsort(b, kind="stable")
        return b.copy(), b.size, 0.0, tuple(int(i) for i in order)
    return loop_waterfill_equal_sum(a, b)


# ----------------------------------------------------------------------
# Random problems
# ----------------------------------------------------------------------


def bits(a) -> bytes:
    """Exact bit pattern, so that -0.0 and 0.0 count as different."""
    return np.asarray(a, dtype=float).tobytes()


def random_ratios(rng, n):
    """Fixed-diagonal-like ratios: n nodes, some fixed, ties and zeros in the tail."""
    u = rng.uniform(1.0, 100.0, n)
    if n > 3 and rng.random() < 0.5:
        u[rng.integers(0, n, 3)] = u.max()  # tied largest ratios
    m = int(rng.integers(1, n + 1))
    w = u[:m] * rng.uniform(0.0, 0.2, m)
    s = float(u.sum())
    r = u / s
    r[:m] = (u[:m] - w) / s
    if m < n and rng.random() < 0.3:
        r[m + rng.integers(0, n - m)] = 0.0
    return r, m


def root_cases(rng):
    for n in SIZES:
        for _ in range(3 if n == 2000 else 8):
            r, m = random_ratios(rng, n)
            yield tuple(r.tolist()), m
    yield (0.25,) * 4, 4  # guaranteed bracket
    yield (0.5, 0.375, 0.375), 3  # root on the branch point
    yield (0.45, 0.45, 0.1), 2  # bracket without a sign change: scans


class TestRootEvaluators:
    def test_f_and_f_prime(self, rng):
        for r, m in root_cases(rng):
            new, ref = RootProblem(r=r, m=m), LoopRootProblem(r, m)
            assert (new.sigma, new.tail, new.r_max) == (ref.sigma, ref.tail, ref.r_max)
            assert new.bracket == ref.bracket and new.guaranteed == ref.guaranteed
            lo, hi = ref.bracket
            for lam in np.linspace(lo, 2 * hi, 25).tolist()[1:] + [hi]:
                assert bits(new.f(lam)) == bits(ref.f(lam))
            if ref.r_max > 0:
                assert bits(new.f_at_branch_point()) == bits(ref.f_at_branch_point())

    def test_root_and_factors(self, rng):
        solved = 0
        for r, m in root_cases(rng):
            new, ref = RootProblem(r=r, m=m), LoopRootProblem(r, m)
            try:
                ref_lam = loop_solve_root_lambda(ref)
            except AssertionError:  # no root: the loop code failed its bracket
                with pytest.raises(BracketFailure):
                    solve_root_lambda(new)
                continue
            lam = solve_root_lambda(new)
            assert bits(lam) == bits(ref_lam)
            assert bits(branch_factors(new, lam)) == bits(loop_branch_factors(ref, lam))
            solved += 1
        assert solved >= 40

    def test_series(self, rng):
        # few-term problems too, where one rounding of a term reaches the result
        few = [(tuple(rng.uniform(0.01, 0.4, 4).tolist()), int(rng.integers(1, 4)))
               for _ in range(300)]
        for r, m in [*root_cases(rng), *few]:
            new, ref = RootProblem(r=r, m=m), LoopRootProblem(r, m)
            xi0 = float(rng.uniform(0.1, 0.99)) / ref.r_max
            state = series_approx_xi(new, xi0, 2)
            rho, delta, terms = loop_series(ref, xi0, 2)
            assert bits(state.rho) == bits(rho)
            assert bits(state.delta) == bits(delta) and bits(state.terms) == bits(terms)

    def test_root_factors_over_groups(self, rng):
        solved = 0
        for n in SIZES:
            for _ in range(2 if n == 2000 else 6):
                u = rng.uniform(1.0, 100.0, n)
                nodes = rng.permutation(n).tolist()
                cut = sorted(rng.choice(n + 1, size=min(n, 4), replace=False).tolist())
                groups = [tuple(sorted(nodes[a:b])) for a, b in zip(cut, cut[1:]) if b > a]
                if not groups:
                    groups = [(nodes[0],)]
                r = u / u.sum()
                for g in groups:  # fixed mass takes a share of each group
                    r[list(g)] *= rng.uniform(0.05, 0.5)
                nodes = np.array([i for g in groups for i in g], dtype=np.intp)
                block = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
                try:
                    ref = loop_root_factors(r, groups, 1e-12)
                except AssertionError:
                    with pytest.raises(Exception):
                        root_factors(r, nodes, block)
                    continue
                problem, lam, factors = root_factors(r, nodes, block)
                assert bits(problem.r) == bits(ref[0].r) and problem.m == ref[0].m
                assert bits(lam) == bits(ref[1]) and bits(factors) == bits(ref[2])
                solved += 1
        assert solved >= 30


def random_caps(rng, rows, n):
    """Caps with ties, +inf, zeros, and targets that are zero, saturating or exact."""
    W = rng.choice([0.5, 1.0, 2.5, 7.0], (rows, n)) * rng.integers(1, 4, (rows, n))
    W = np.where(rng.random((rows, n)) < 0.5, rng.uniform(0.0, 10.0, (rows, n)), W)
    W[rng.random((rows, n)) < 0.1] = np.inf
    W[rng.random((rows, n)) < 0.05] = 0.0
    finite_total = np.where(np.isfinite(W), W, 0.0).sum(axis=1)
    a = finite_total * rng.uniform(0.0, 1.3, rows)
    kind = rng.integers(0, 6, rows)
    a[kind == 0] = 0.0
    a[kind == 1] = W[kind == 1].sum(axis=1)  # exactly the cap total
    a[kind == 2] *= 3.0  # saturates unless a cap is infinite
    return np.where(np.isfinite(a), a, finite_total), W


class TestWaterfill:
    def test_rows_against_one_row_loops(self, rng):
        for n in SIZES:
            rows = 4 if n == 2000 else 60
            a, W = random_caps(rng, rows, n)
            x, k, mu, ranked = waterfill_rows(a, caps_of(W), n)
            # each row's finite bounds in stable order, then its +inf columns
            ends = np.cumsum(np.isfinite(W).sum(axis=1))
            for i, finite in enumerate(np.split(ranked, ends[:-1])):
                order = finite.tolist() + np.flatnonzero(np.isinf(W[i])).tolist()
                rx, rk, rmu, rorder = loop_waterfill_bounded_sum(float(a[i]), W[i])
                assert bits(x[i]) == bits(rx)
                assert (int(k[i]), bits(mu[i]), tuple(order)) == (rk, bits(rmu), rorder)

    def test_one_row_functions(self, rng):
        for n in SIZES:
            a, W = random_caps(rng, 3 if n == 2000 else 20, n)
            for ai, b in zip(a.tolist(), W):
                res = waterfill_bounded_sum(ai, b)
                ref = loop_waterfill_bounded_sum(ai, b)
                assert (bits(res.x), res.k, bits(res.mu), res.permutation) == (
                    bits(ref[0]), ref[1], bits(ref[2]), ref[3])
                if math.isfinite(ai) and ai <= float(b.sum()):
                    ref = loop_waterfill_equal_sum(ai, b)
                    assert (bits(res.x), res.k, bits(res.mu), res.permutation) == (
                        bits(ref[0]), ref[1], bits(ref[2]), ref[3])
                bs = np.sort(b)
                target = min(ai, float(bs.sum()))
                assert find_k(target, bs) == loop_find_k_vector(target, bs)

    def test_unsorted_bounds_fail_alike(self, rng):
        for _ in range(200):
            b = rng.uniform(0.0, 5.0, int(rng.integers(2, 10)))
            b[rng.random(b.size) < 0.2] = np.inf
            a = float(rng.uniform(0.0, 1.0)) * float(np.where(np.isfinite(b), b, 0).sum())
            try:
                expected = loop_find_k_vector(a, b)
            except InvariantViolation:
                with pytest.raises(InvariantViolation, match="nonincreasing"):
                    find_k(a, b)
            else:
                assert find_k(a, b) == expected

    def test_blocks_of_rows_agree_with_one_block(self, rng):
        # 400 rows of 200 columns span two blocks of about 2^16 cells
        a, W = random_caps(rng, 400, 200)
        x, k, mu, order = waterfill_rows(a, caps_of(W), 200)
        for i in (0, 1, 327, 328, 399):
            one = waterfill_rows(a[i:i + 1], caps_of(W[i:i + 1]), 200)
            assert bits(x[i]) == bits(one[0][0]) and k[i] == one[1][0]
            assert bits(mu[i]) == bits(one[2][0])


# ----------------------------------------------------------------------
# Reference: the dense row water-fill and the masked gravity assembly
# ----------------------------------------------------------------------


def dense_find_k(a, bs):
    rows, n = bs.shape
    if n == 0:
        return np.zeros(rows, dtype=np.intp)
    live = np.logical_and.accumulate(np.isfinite(bs), axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        phi = a[:, None] - np.cumsum(bs, axis=1) - np.arange(n - 1, -1, -1) * bs
        prev = np.concatenate((a[:, None], phi[:, :-1]), axis=1)  # phi(0) = a
        rising = ~(phi <= prev + 1e-12 * np.maximum(1.0, np.abs(a))[:, None])
    if np.any(rising & live):
        raise InvariantViolation("slack must be nonincreasing")
    hit = (phi >= 0) & live
    return np.where(hit.any(axis=1), n - np.argmax(hit[:, ::-1], axis=1), 0)


def dense_equal_sum_rows(a, B, order):
    rows, n = B.shape
    x = np.zeros((rows, n))
    k = np.zeros(rows, dtype=np.intp)
    mu = np.zeros(rows)
    live = np.flatnonzero(a != 0.0)
    if live.size == 0:
        return x, k, mu
    a, bs, order = a[live], np.take_along_axis(B[live], order[live], axis=1), order[live]
    k_live = dense_find_k(a, bs)
    mu_live = np.zeros(live.size)
    for kv in np.unique(k_live[k_live < n]).tolist():
        at = np.flatnonzero(k_live == kv)
        mu_live[at] = (a[at] - bs[at, :kv].sum(axis=1)) / (n - kv)
    xs = np.where(np.arange(n) < k_live[:, None], bs, mu_live[:, None])
    x_live = np.empty_like(xs)
    np.put_along_axis(x_live, order, xs, axis=1)
    x[live], k[live], mu[live] = x_live, k_live, mu_live
    return x, k, mu


def dense_waterfill_rows(a, B):
    """The row water-fill that sorted, summed and scanned every cell of
    every row, +inf ones too, in blocks of about 2^16 cells."""
    a = np.asarray(a, dtype=float)
    B = np.ascontiguousarray(B, dtype=float)
    rows, n = B.shape
    x = np.empty((rows, n))
    k = np.empty(rows, dtype=np.intp)
    mu = np.empty(rows)
    order = np.empty((rows, n), dtype=np.intp)
    step = max(1, (1 << 16) // max(n, 1))
    for lo in range(0, rows, step):
        rs = slice(lo, lo + step)
        Bb = B[rs]
        total = Bb.sum(axis=1)
        order[rs] = np.argsort(Bb, axis=1, kind="stable")
        full = a[rs] >= total
        x[rs][full], k[rs][full], mu[rs][full] = Bb[full], n, 0.0
        part = ~full
        if part.any():
            x[rs][part], k[rs][part], mu[rs][part] = dense_equal_sum_rows(
                a[rs][part], Bb[part], order[rs][part]
            )
    return x, k, mu, order


def masked_gravity(u, v, given):
    """The gravity assembly that wrote given and other columns through
    boolean column masks; past the float range, at a power of two."""
    n, m = u.size, given.size
    s = float(u.sum())
    X = np.empty((n, m))
    ell = int(np.count_nonzero(given))
    if s == 0.0 or ell == 0:
        X[:] = 0.0 if s == 0.0 else (u / m)[:, None]
        return X
    cols = slice(None) if ell == m else given
    v_given = v[given]
    if math.isfinite(float(u.max()) * float(v_given.max())):
        X[:, cols] = np.outer(u, v_given) / s
    else:  # any power of two that brings the products into range gives these bits
        unit = 2.0**512
        X[:, cols] = np.outer(u / unit, v_given / unit) / (s / unit) * unit
    if ell < m:
        X[:, ~given] = np.outer(u / s, v[~given])
    return X


def assert_rows_match_dense(a, B):
    x, k, mu, ranked = waterfill_rows(a, caps_of(B), B.shape[1])
    rx, rk, rmu, rorder = dense_waterfill_rows(a, B)
    assert (bits(x), bits(mu)) == (bits(rx), bits(rmu))
    assert np.array_equal(k, rk)
    # the dense order lists each row's finite bounds first, in the same order
    count = np.isfinite(B).sum(axis=1)
    assert np.array_equal(ranked, rorder[np.arange(B.shape[1]) < count[:, None]])


CAP = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]) | st.floats(0.0, 10.0) | st.just(math.inf)


@st.composite
def capped_rows(draw):
    """Rows of caps with ties, zeros and +inf; some rows have no finite cap
    and some only finite ones, among them rows at a target of +inf.  Each
    other target is zero, a share of the finite cap total, that total
    exactly, three times it, or +inf."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    B = np.array(draw(st.lists(CAP, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    kind = np.array(draw(st.lists(st.sampled_from(["mixed", "uncapped", "capped", "inf"]),
                                  min_size=rows, max_size=rows)))
    B[kind == "uncapped"] = math.inf
    capped = (kind == "capped") | (kind == "inf")
    B[capped[:, None] & np.isinf(B)] = draw(st.sampled_from([0.0, 1.0, 2.5]))
    finite_total = np.where(np.isfinite(B), B, 0.0).sum(axis=1)
    share = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 3.0, math.inf]) | st.floats(0.0, 1.0),
                                   min_size=rows, max_size=rows)))
    share[kind == "inf"] = math.inf
    a = np.multiply(share, finite_total, out=np.full(rows, math.inf), where=share < math.inf)
    return a, B


@given(capped_rows())
def test_rows_match_the_dense_water_fill(problem):
    assert_rows_match_dense(*problem)


def test_rows_of_every_cap_count_match_the_dense_water_fill(rng):
    # 600 rows of 300 columns, holding from no finite cap to 300, padded
    # to the widest row and across blocks of about 2^16 cells
    rows, n = 600, 300
    B = rng.uniform(0.0, 10.0, (rows, n))
    ties = rng.random((rows, n)) < 0.2
    B[ties] = rng.choice([1.0, 2.5], np.count_nonzero(ties))
    B[rng.random((rows, n)) >= rng.permutation(np.linspace(0.0, 1.0, rows))[:, None]] = np.inf
    finite_total = np.where(np.isfinite(B), B, 0.0).sum(axis=1)
    a = finite_total * rng.uniform(0.0, 1.2, rows)
    a[::7] = np.inf
    assert_rows_match_dense(a, B)


@st.composite
def gravity_marginals(draw):
    """Row sums u, the given columns and a full column marginal v whose
    other columns share one level: no column given, every column, or some.
    Values come from a drawn seed, some of them 0; near 1e300 they take the
    overflow branch."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    given = np.array(draw(st.sampled_from([[False] * m, [True] * m])
                          | st.lists(st.booleans(), min_size=m, max_size=m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e300]))
    u, v = (rng.uniform(1e-3, 1e3, size) * (rng.random(size) > 0.2) * scale for size in (n, m))
    v[~given] = v[np.argmin(given)]
    return u, v, given


@given(gravity_marginals())
def test_gravity_matches_the_masked_assembly(marginals):
    u, v, given = marginals
    assert bits(_gravity(u, v, given)) == bits(masked_gravity(u, v, given))


def test_gravity_rejects_columns_not_given_at_different_levels():
    given = np.array([True, False, False])
    with pytest.raises(InvariantViolation):
        _gravity(np.array([1.0, 2.0]), np.array([1.0, 0.5, 1.5]), given)


# ----------------------------------------------------------------------
# Reference: the bound cases' assembly before they shared one construction
# ----------------------------------------------------------------------


def tile_total_row_bounds(s, u, m):
    """Known total over row bounds: each water-filled row tiled across."""
    wf = waterfill_bounded_sum(min(s, float(u.sum())), u)
    return np.tile((wf.x / m)[:, None], (1, m))


def scatter_row_col_bounds(u, v):
    """Two-sided bounds with the smaller total on the rows: the columns
    sorted, the saturated block and the level block built, then scattered."""
    n, m = u.size, v.size
    u_total = float(u.sum())
    order = np.argsort(v, kind="stable")
    vs = v[order]
    k = loop_find_k_vector(u_total, vs)
    leftover = max(0.0, u_total - float(vs[:k].sum()))
    Xs = np.empty((n, m))
    if u_total == 0.0:
        Xs[:] = 0.0
    else:
        if k > 0:
            Xs[:, :k] = np.outer(u, vs[:k]) / u_total
        Xs[:, k:] = (leftover / (m - k)) * (u / u_total)[:, None]
    X = np.empty((n, m))
    X[:, order] = Xs
    return X, k


def scatter_gravity(spec):
    """Gravity with the known columns moved to the front, then scattered."""
    n, m = spec.shape.rows, spec.shape.cols
    u = walk_sums(spec, "row")[0]
    col_map = {c.index: c.value for c in records(spec).marginals if c.axis == "col"}
    cols = sorted(col_map)
    v = np.array([col_map[j] for j in cols])
    s, ell = float(u.sum()), len(cols)
    Xs = np.zeros((n, m))
    if s > 0:
        if ell > 0:
            Xs[:, :ell] = np.outer(u, v) / s
        if ell == 0:
            Xs[:] = (u / m)[:, None]
        elif ell < m:
            Xs[:, ell:] = (max(0.0, s - float(v.sum())) / (m - ell)) * (u / s)[:, None]
    X = np.empty((n, m))
    X[:, cols + [j for j in range(m) if j not in col_map]] = Xs
    return X


def blocks_sym_total(s, u):
    """Symmetric total over bounds: a gravity block, two strips and a
    constant block over the sorted bounds, scattered back."""
    n = u.size
    s = min(s, float(u.sum()))
    k = waterfill_bounded_sum(s, u).k
    order = np.argsort(u, kind="stable")
    us = u[order]
    Xs = np.zeros((n, n))
    if s > 0 and k == n:
        Xs = np.outer(us, us) / s
    elif s > 0:
        leftover = s - float(us[:k].sum())
        Xs[:k, :k] = np.outer(us[:k], us[:k]) / s
        Xs[:k, k:] = (leftover * us[:k] / ((n - k) * s))[:, None]
        Xs[k:, :k] = Xs[:k, k:].T
        Xs[k:, k:] = leftover**2 / ((n - k) ** 2 * s)
    X = np.empty((n, n))
    X[np.ix_(order, order)] = Xs
    return X


def random_bounds(rng, n):
    """Bounds with ties, zeros and a few +inf."""
    b = np.where(rng.random(n) < 0.3, rng.choice([1.0, 2.5, 4.0], n), rng.uniform(0.0, 10.0, n))
    b[rng.random(n) < 0.05] = 0.0
    return b


class TestAssembly:
    """The shared water-fill-then-gravity construction against the
    per-case assembly it replaced: the same bits wherever the expressions
    are the same, the last bits elsewhere."""

    def test_known_and_bounded_totals(self, rng):
        for n in SIZES:
            u = random_bounds(rng, n)
            m = int(rng.integers(1, 9))
            for s in (0.0, float(u.sum()) * rng.uniform(0.05, 1.0), float(u.sum())):
                ref = tile_total_row_bounds(s, u, m)
                assert bits(solve_total_row_bounds(s, u, m).matrix) == bits(ref)
                if s < float(u.sum()):
                    assert bits(solve_bounded_total_row_bounds(s, u, m).matrix) == bits(ref)
            ref = np.tile((u / m)[:, None], (1, m))  # every row saturates
            assert bits(solve_row_bounds(u, m).matrix) == bits(ref)
            for ubar in (float(u.sum()), math.inf):
                assert bits(solve_bounded_total_row_bounds(ubar, u, m).matrix) == bits(ref)

    def test_two_sided_bounds(self, rng):
        informative = 0
        for n in SIZES:
            for _ in range(3 if n == 2000 else 15):
                m = int(rng.integers(1, 2 * n + 2))
                u, v = random_bounds(rng, n), random_bounds(rng, m)
                v[rng.random(m) < 0.1] = np.inf
                scale = float(u.sum()) / float(v[np.isfinite(v)].sum() or 1.0)
                v *= scale * rng.uniform(0.8, 3.0)
                if not float(u.sum()) < float(v.sum()):
                    continue
                sol = solve_row_col_bounds(u, v)
                ref, k = scatter_row_col_bounds(u, v)
                assert sol.k == k
                if k > 0:
                    assert bits(sol.matrix) == bits(ref)
                    informative += 1
                else:  # exactly u_i / m, where the strips took (u_total / m)(u_i / u_total)
                    assert bits(sol.matrix) == bits(np.tile((u / m)[:, None], (1, m)))
                    assert np.all(np.abs(sol.matrix - ref) <= 1e-15 * np.abs(ref))
                if u.sum() > 0:  # equal totals: every column given
                    tie = solve_row_col_bounds(u, u[::-1] * 1.0)
                    assert bits(tie.matrix) == bits(np.outer(u, u[::-1]) / float(u.sum()))
        assert informative >= 50

    def test_gravity_in_input_order(self, rng):
        for _ in range(200):
            spec = CASE_GENERATORS[SolverCase.GRAVITY_PARTIAL_COLS](rng)
            if not is_column_form(validate_spec(spec)):
                assert bits(solve(spec).matrix) == bits(scatter_gravity(spec))

    def test_symmetric_total_moves_in_the_last_bits(self, rng):
        for n in SIZES:
            for _ in range(2 if n == 2000 else 10):
                u = random_bounds(rng, n)
                s = float(u.sum()) * float(rng.choice([rng.uniform(0.05, 1.0), 1.0]))
                X = solve_sym_total_row_col_bounds(s, u).matrix
                ref = blocks_sym_total(s, u)
                assert np.array_equal(X, X.T)
                assert np.all(np.abs(X - ref) <= 1e-15 * np.abs(ref))


# ----------------------------------------------------------------------
# Reference: the oracle's per-cell walks
# ----------------------------------------------------------------------


@dataclass
class WalkProgram:
    shape: tuple[int, ...]
    cells: list[tuple[int, ...]]  # free cells, row-major
    index: dict[tuple[int, ...], int]
    fixed: dict[tuple[int, ...], float]
    eq: list[tuple[list[int], float, str]]
    ub: list[tuple[list[int], float, str]]

    @property
    def n(self) -> int:
        return len(self.cells)

    def assemble(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape)
        for cell, v in self.fixed.items():
            out[cell] = v
        for cell, v in zip(self.cells, x):
            out[cell] = v
        return out


def walk_build_program(spec: ProblemSpec) -> WalkProgram:
    spec = validate_spec(spec)
    stated = records(spec)
    sh = spec.shape
    shape = (sh.rows, sh.cols, sh.slices) if sh.is_3d else (sh.rows, sh.cols)

    fixed: dict[tuple[int, ...], float] = {}
    if sh.is_3d:
        for i in range(sh.rows):
            for k in range(sh.slices):
                fixed[(i, i, k)] = 0.0
    for b in stated.fixed_blocks:
        if sh.is_3d:
            continue  # only the zero diagonal, already pinned above
        for a, i in enumerate(b.index_set):
            for c, j in enumerate(b.index_set):
                fixed[(i, j)] = float(b.matrix[a][c])
    # Zero element caps pin the cell outright; keeping them as inequality
    # constraints would push the dual to infinity.
    for e in stated.element_bounds:
        if e.ub == 0.0:
            if fixed.get((e.i, e.j), 0.0) != 0.0:
                raise Infeasible(f"cell ({e.i},{e.j}) is fixed above its zero cap")
            fixed[(e.i, e.j)] = 0.0

    cells = [c for c in np.ndindex(*shape) if c not in fixed]
    index = {c: i for i, c in enumerate(cells)}

    eq: list[tuple[list[int], float, str]] = []
    ub: list[tuple[list[int], float, str]] = []

    def _add(kind: str, members: list[int], target: float, label: str) -> None:
        if target < -REL_TOL:
            raise Infeasible(f"{label}: fixed values exceed the stated sum")
        target = max(target, 0.0)
        (eq if kind == "equal" else ub).append((members, target, label))

    def _axis_cells(axis: str, idx: int, slice_idx) -> tuple[list[int], float]:
        members, pinned = [], 0.0
        for cell in np.ndindex(*shape):
            i, j = cell[0], cell[1]
            if sh.is_3d and cell[2] != slice_idx:
                continue
            if (axis == "row" and i != idx) or (axis == "col" and j != idx):
                continue
            if cell in fixed:
                pinned += fixed[cell]
            else:
                members.append(index[cell])
        return members, pinned

    places = {(c.axis, c.index, c.slice_index) for c in stated.marginals}
    for c in stated.marginals:
        members, pinned = _axis_cells(c.axis, c.index, c.slice_index)
        _add(c.kind, members, c.value - pinned, f"{c.axis} {c.index}/{c.slice_index}")
        if spec.symmetric:
            other = "col" if c.axis == "row" else "row"
            if (other, c.index, c.slice_index) not in places:
                members, pinned = _axis_cells(other, c.index, c.slice_index)
                _add(c.kind, members, c.value - pinned, f"{other} {c.index}/{c.slice_index} (mirror)")

    if spec.total is not None:
        pinned = sum(fixed.values())
        _add(
            spec.total.kind,
            list(range(len(cells))),
            spec.total.value - pinned,
            "total",
        )

    for e in stated.element_bounds:
        if e.ub > 0.0 and math.isfinite(e.ub) and (e.i, e.j) in index:
            ub.append(([index[(e.i, e.j)]], e.ub, f"element ({e.i},{e.j})"))

    return WalkProgram(shape, cells, index, fixed, eq, ub)


def walk_dual_solve(program: WalkProgram, extra_eq=None, theta0=None, tol: float = 1e-9):
    """Maximize entropy over the program's constraints via the dual.

    The stationary primal point is x_c = exp(-1 - sum of multipliers over
    constraints containing c); the dual is smooth and convex with bound
    constraints only (inequality multipliers stay nonnegative), solved by
    L-BFGS-B and polished with a projected Newton step.  Returns the primal
    vector, the multipliers, the KKT residual, and the iteration count.
    """
    from scipy.optimize import minimize  # loaded on first use, not at import

    eq = program.eq + (extra_eq or [])
    ub = program.ub
    n = program.n
    n_eq, n_ub = len(eq), len(ub)
    rows = []
    targets = np.empty(n_eq + n_ub)
    for i, (members, target, _) in enumerate(eq + ub):
        rows.append(np.asarray(members, dtype=int))
        targets[i] = target
    M = np.zeros((n_eq + n_ub, n))
    for i, members in enumerate(rows):
        M[i, members] = 1.0

    def primal(theta: np.ndarray) -> np.ndarray:
        return np.exp(np.clip(-1.0 - M.T @ theta, -700.0, 700.0))

    def value_grad(theta: np.ndarray):
        x = primal(theta)
        return float(x.sum() + theta @ targets), targets - M @ x

    def kkt_residual(theta: np.ndarray) -> float:
        _, g = value_grad(theta)
        res = float(np.max(np.abs(g[:n_eq]), initial=0.0))
        for j in range(n_ub):
            gj = g[n_eq + j]
            res = max(res, abs(gj) if theta[n_eq + j] > 1e-14 else max(0.0, -gj))
        return float(res)  # a numpy scalar here would leak into OracleResult

    theta = np.zeros(n_eq + n_ub) if theta0 is None else np.asarray(theta0, float)
    bounds = [(None, None)] * n_eq + [(0.0, None)] * n_ub
    res = minimize(
        value_grad,
        theta,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 500, "maxfun": 5000, "ftol": 1e-16, "gtol": 1e-12},
    )
    theta = res.x
    iters = int(res.nit)

    best = theta.copy()
    best_res = kkt_residual(theta)
    for _ in range(40):
        if best_res <= tol * 1e-3:
            break
        x = primal(theta)
        grad = targets - M @ x
        active = np.zeros(theta.size, dtype=bool)
        for j in range(n_ub):
            if theta[n_eq + j] <= 1e-14 and grad[n_eq + j] >= 0:
                active[n_eq + j] = True
        free = ~active
        H = (M[free] * x) @ M[free].T
        step = np.zeros_like(theta)
        step[free] = np.linalg.lstsq(H, -grad[free], rcond=None)[0]
        alpha, improved = 1.0, False
        for _ in range(30):
            cand = theta + alpha * step
            cand[n_eq:] = np.maximum(cand[n_eq:], 0.0)
            cand_res = kkt_residual(cand)
            if cand_res < best_res:
                theta, best, best_res, improved = cand, cand.copy(), cand_res, True
                break
            alpha *= 0.5
        iters += 1
        if not improved:
            break
    return primal(best), best, best_res, iters


def walk_max_total(program: WalkProgram) -> float:
    """Largest feasible total of the free cells (linear program)."""
    from scipy.optimize import linprog  # loaded on first use, not at import

    n = program.n
    if n == 0:
        return 0.0
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for members, target, _ in program.ub:
        row = np.zeros(n)
        row[members] = 1.0
        A_ub.append(row)
        b_ub.append(target)
    for members, target, _ in program.eq:
        row = np.zeros(n)
        row[members] = 1.0
        A_eq.append(row)
        b_eq.append(target)
    res = linprog(
        -np.ones(n),
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 3:
        raise Infeasible("the total sum is unbounded under these constraints")
    if not res.success:
        raise Infeasible(f"no feasible matrix: {res.message}")
    return float(-res.fun)


def walk_verify_kkt(solution, spec: ProblemSpec, tol: float = 1e-6) -> KktReport:
    """Check a solution against the optimality structure of its spec.

    Verifies (a) feasibility of every stated constraint, (b) the product
    form: the log of each positive free entry is a sum of one factor per
    constraint touching it, (c) reported bound multipliers lie in (0, 1],
    and (d) complementary slackness: a slack bound carries multiplier 1.
    """
    spec = validate_spec(spec)
    stated = records(spec)
    program = walk_build_program(spec)
    X = solution.values if isinstance(solution, TensorSolution) else solution.matrix
    X = np.asarray(X, dtype=float)
    violations: list[str] = []
    max_res = 0.0

    def scale(v: float) -> float:
        return max(1.0, abs(v))

    if np.any(X < -tol):
        violations.append("negative entries")

    for cell, v in program.fixed.items():
        err = abs(X[cell] - v)
        max_res = max(max_res, err)
        if err > tol * scale(v):
            violations.append(f"fixed cell {cell}: {X[cell]} != {v}")

    achieved: dict[tuple, float] = {}
    for c in stated.marginals:
        ax = 1 if c.axis == "row" else 0
        if spec.shape.is_3d:
            sub = X[:, :, c.slice_index]
            val = float(sub.sum(axis=ax)[c.index])
        else:
            val = float(X.sum(axis=ax)[c.index])
        achieved[(c.axis, c.index, c.slice_index)] = val
        err = val - c.value
        if c.kind == "equal":
            max_res = max(max_res, abs(err))
            if abs(err) > tol * scale(c.value):
                violations.append(f"{c.axis} {c.index}: sum {val} != {c.value}")
        elif err > tol * scale(c.value):
            max_res = max(max_res, err)
            violations.append(f"{c.axis} {c.index}: sum {val} > bound {c.value}")
    if spec.total is not None:
        val = float(X.sum())
        err = val - spec.total.value
        if spec.total.kind == "equal":
            max_res = max(max_res, abs(err))
            if abs(err) > tol * scale(spec.total.value):
                violations.append(f"total {val} != {spec.total.value}")
        elif err > tol * scale(spec.total.value):
            violations.append(f"total {val} > bound {spec.total.value}")
    for e in stated.element_bounds:
        if X[e.i, e.j] > e.ub + tol * scale(e.ub):
            violations.append(f"element ({e.i},{e.j}) exceeds its bound")
    feasible = not violations

    product_form, pf_res = walk_product_form_ok(spec, program, X, tol)
    if not product_form:
        violations.append(f"product form residual {pf_res}")
    max_res = max(max_res, pf_res)

    multiplier_range, slackness = True, True
    if isinstance(solution, Solution):
        for axis, mult in (("row", solution.row_multipliers), ("col", solution.col_multipliers)):
            if mult is None:
                continue
            kinds = {c.kind for c in stated.marginals if c.axis == axis}
            if spec.symmetric and not kinds:
                kinds = {c.kind for c in stated.marginals if c.axis == "row"}
            if kinds != {"upper"}:
                continue
            bounds = walk_sums(spec, "row" if spec.symmetric else axis)[0].tolist()
            for i, f in enumerate(np.asarray(mult, dtype=float)):
                if not 0.0 < f <= 1.0 + tol:
                    multiplier_range = False
                    violations.append(f"{axis} {i}: multiplier {f} outside (0, 1]")
                bound = bounds[i]
                if not math.isfinite(bound):
                    continue
                key = (axis, i, None)
                real = achieved.get(key)
                if real is None and spec.symmetric:
                    real = float(X.sum(axis=1 if axis == "row" else 0)[i])
                if real is None:
                    continue
                slack = bound - real
                if slack > tol * scale(bound) and abs(f - 1.0) > tol:
                    slackness = False
                    violations.append(
                        f"{axis} {i}: slack bound but multiplier {f} != 1"
                    )

    return KktReport(
        feasible=feasible,
        product_form=product_form,
        multiplier_range=multiplier_range,
        complementary_slackness=slackness,
        max_residual=max_res,
        violations=tuple(violations),
    )


def walk_product_form_ok(spec, program: WalkProgram, X: np.ndarray, tol: float):
    """Least-squares fit of log-entries on per-constraint indicators."""
    features: list[tuple] = []
    stated = records(spec)
    for c in stated.marginals:
        features.append(("m", c.axis, c.index, c.slice_index))
        if spec.symmetric:
            other = "col" if c.axis == "row" else "row"
            features.append(("m", other, c.index, c.slice_index))
    features = sorted(set(features))
    if spec.total is not None:
        features.append(("total",))
    for e in stated.element_bounds:
        # only a finite cap that the entry sits at (or over) has a factor of its own
        if math.isfinite(e.ub) and X[e.i, e.j] - e.ub >= -tol * max(1.0, e.ub):
            features.append(("e", e.i, e.j))
    fidx = {f: i for i, f in enumerate(features)}

    rows, rhs = [], []
    for cell in program.cells:
        v = X[cell]
        if v <= ZERO_REPORT:
            continue
        i, j = cell[0], cell[1]
        sl = cell[2] if len(cell) == 3 else None
        row = np.zeros(len(features))
        for f in (("m", "row", i, sl), ("m", "col", j, sl), ("total",), ("e", i, j)):
            if f in fidx:
                row[fidx[f]] = 1.0
        rows.append(row)
        rhs.append(math.log(v))
    if not rows:
        return True, 0.0
    A = np.array(rows)
    b = np.array(rhs)
    theta, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.max(np.abs(A @ theta - b)))
    return resid <= max(tol, 1e-7), resid


# ----------------------------------------------------------------------
# Oracle programs and results
# ----------------------------------------------------------------------


def outcome(fn, *args):
    """A result's fields, floats and arrays by bit pattern, or the error raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)
    return tuple(bits(v) if isinstance(v, (float, np.ndarray)) else v
                 for v in dataclasses.astuple(result))


def result_or_error(fn, *args):
    """The result, or the error raised as (type, message)."""
    try:
        return fn(*args)
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)


def assert_close_results(new, ref):
    """Two oracle results agree to the dual solve's tolerance, or fail alike."""
    if isinstance(ref, tuple) or isinstance(new, tuple):
        assert new == ref
        return
    assert (new.objective, new.converged) == (ref.objective, ref.converged)
    assert new.matrix.shape == ref.matrix.shape
    assert np.all(np.abs(new.matrix - ref.matrix) <= 1e-9 * np.maximum(1.0, np.abs(ref.matrix)))
    assert math.isclose(new.objective_value, ref.objective_value, rel_tol=1e-12)


def random_blocks(rng, n, sizes, scale):
    """Symmetric blocks over disjoint, shuffled index sets (not sorted, not prefixes)."""
    nodes = rng.permutation(n).tolist()
    blocks, start = [], 0
    for size in sizes:
        W = rng.uniform(0.0, scale, (size, size))
        W = (W + W.T) / 2.0
        blocks.append(FixedBlock(tuple(nodes[start:start + size]),
                                 tuple(tuple(row) for row in W.tolist())))
        start += size
    return tuple(blocks)


def oracle_specs(rng):
    """Every case, plus the corners of the program build."""
    for gen in CASE_GENERATORS.values():
        for _ in range(3):
            yield gen(rng)
    yield random_sym_fixed_diagonal(rng, "upper")  # the G objective
    yield random_sym_blocks(rng, "upper")
    for spec in (random_sym_blocks(rng, "equal"), random_sym_fixed_diagonal(rng, "upper")):
        # columns spelled out: no mirror constraints
        yield dataclasses.replace(spec, col_sums=spec.row_sums)
    u = rng.uniform(10.0, 20.0, 6).tolist()
    yield make_spec(6, 6, row=("equal", u), symmetric=True,
                    blocks=random_blocks(rng, 6, (2, 1), 1.0))  # unsupported
    yield make_spec(6, 6, row=("upper", u), col=("upper", u), symmetric=True,
                    total=("equal", 40.0))
    yield make_spec(4, 5, row=("upper", [3.0, 4.0, 5.0, 6.0]),
                    elements=[(0, 1, 0.0), (1, 1, 2.0), (2, 3, 0.0), (3, 0, math.inf),
                              (3, 4, 1.5)])  # zero, finite and infinite caps
    yield make_spec(4, 4, row=("equal", [8.0, 9.0, 10.0, 11.0]), symmetric=True,
                    blocks=zero_diagonal_blocks(4), elements=[(1, 1, 0.0), (0, 2, 0.0)])
    yield make_spec(5, 4, row=("equal", [None, 5.0, 6.0, None, 7.0]),
                    col=("equal", [9.0, 8.0, 4.0, 7.0]))  # rows of a transposed gravity
    yield make_spec(6, 6, row=("equal", (rng.uniform(20.0, 30.0, (6, 2))).tolist()),
                    symmetric=True, slices=2, blocks=zero_diagonal_blocks(6))


def large_specs(rng):
    """Programs only: rows of 8 and more pinned values, sparse columns, 3-D."""
    u = rng.uniform(50.0, 90.0, 40).tolist()
    yield make_spec(40, 40, row=("equal", u), symmetric=True,
                    blocks=random_blocks(rng, 40, (12, 9, 1, 10), 3.0))
    yield make_spec(40, 40, row=("upper", u), total=("upper", 1500.0), symmetric=True,
                    blocks=random_blocks(rng, 40, (16, 8), 2.0))
    cols = [float(v) if rng.random() < 0.3 else None for v in rng.uniform(1.0, 9.0, 25)]
    yield make_spec(30, 25, row=("equal", rng.uniform(10.0, 20.0, 30).tolist()),
                    col=("equal", cols))
    yield make_spec(12, 12, row=("equal", rng.uniform(5.0, 9.0, (12, 3)).tolist()),
                    symmetric=True, slices=3, blocks=zero_diagonal_blocks(12))


def corruptions(rng, sol, program):
    """The solution, and copies that break feasibility, product form or multipliers."""
    yield sol
    if isinstance(sol, TensorSolution):
        bad = sol.values.copy()
        bad[0, 1, 0] += 0.1
        yield dataclasses.replace(sol, values=bad)
        yield dataclasses.replace(sol, values=sol.values * rng.uniform(0.5, 2.0, bad.shape))
        return
    X = sol.matrix
    for change in ("bump", "fixed", "skew", "nan"):
        bad = X.copy()
        if change == "bump":
            bad[0, -1] += 0.1
        elif change == "fixed":
            for cell in program.fixed:
                bad[cell] += 0.25
        elif change == "skew":
            bad *= rng.uniform(0.5, 2.0, bad.shape)
        else:
            bad[-1, 0] = math.nan
        yield dataclasses.replace(sol, matrix=bad)
    for name in ("row_multipliers", "col_multipliers"):
        mult = getattr(sol, name)
        if mult is not None:
            yield dataclasses.replace(sol, **{name: np.where(np.arange(mult.size) % 2, 1.5, mult)})


def walk_form(program):
    """An array program's fixed cells as a dict and its constraints as
    (members, target, label) lists, equalities then bounds: the walk's form.
    The arrays keep no labels, so each label is empty."""
    M, targets = program.incidence, program.targets.tolist()
    fixed = dict(zip(zip(*(a.tolist() for a in program.fixed)), program.fixed_values.tolist()))
    cons = [(M.cell[M.con == t].tolist(), targets[t], "") for t in range(M.k)]
    return SimpleNamespace(n=program.n, fixed=fixed, eq=cons[:program.n_eq],
                           ub=cons[program.n_eq:])


def array_form(walk):
    """A walk program as the oracle's arrays; element caps are its last bounds."""
    cons = walk.eq + walk.ub
    con = np.repeat(np.arange(len(cons)), [len(m) for m, _, _ in cons])
    cell = np.array([c for m, _, _ in cons for c in m], dtype=np.intp)
    ndim = len(walk.shape)
    return oracle._Program(
        walk.shape, np.array(walk.cells, dtype=np.intp).reshape(-1, ndim),
        tuple(np.array(list(walk.fixed), dtype=np.intp).reshape(-1, ndim).T),
        np.array(list(walk.fixed.values()), dtype=float),
        oracle._Incidence(con, cell, len(cons), walk.n),
        np.array([t for _, t, _ in cons], dtype=float), len(walk.eq),
        sum(label.startswith("element") for _, _, label in walk.ub))


def assert_same_program(spec):
    program, ref = oracle._build_program(spec), walk_build_program(spec)
    new = walk_form(program)
    assert program.shape == ref.shape
    assert program.cells.shape == (len(ref.cells), len(ref.shape))
    assert [tuple(c) for c in program.cells.tolist()] == ref.cells
    assert list(new.fixed) == list(ref.fixed)
    assert bits(list(new.fixed.values())) == bits(list(ref.fixed.values()))
    for got, want in ((new.eq, ref.eq), (new.ub, ref.ub)):
        assert [m for m, _, _ in got] == [m for m, _, _ in want]
        assert bits([t for _, t, _ in got]) == bits([t for _, t, _ in want])
    return ref


class TestOracle:
    """The oracle against the per-cell walks and dense solves it replaced:
    programs bit for bit, results to the dual solve's tolerance.  No spec
    here has a zero bound, the one place where ``verify_kkt`` has since
    departed from the walk: it requires that bound's factor to be 0."""

    def test_programs(self, rng):
        for spec in [*oracle_specs(rng), *large_specs(rng)]:
            assert_same_program(spec)

    def test_infeasible_fixed_values_fail_alike(self):
        over = (FixedBlock((0,), ((2.0,),)),)
        for spec in (
            make_spec(3, 3, row=("equal", [1.0, 5.0, 5.0]), symmetric=True, blocks=over),
            make_spec(3, 3, row=("upper", [5.0, 5.0, 5.0]), total=("equal", 1.0),
                      symmetric=True, blocks=over),
            make_spec(3, 3, row=("equal", [4.0, 5.0, 5.0]), symmetric=True, blocks=over,
                      elements=[(0, 0, 0.0)]),
        ):
            new, ref = outcome(oracle._build_program, spec), outcome(walk_build_program, spec)
            assert ref[0] is Infeasible and new == ref

    def test_results(self, rng, monkeypatch):
        def walk_dual(program, reward=0.0, theta0=None, tol=1e-9, warm=False):
            # The walk maximizes entropy alone.  With a reward r on every
            # cell, the maximizer is e^r times the entropy maximizer at the
            # targets over e^r, with the same multipliers.  It always starts
            # with L-BFGS-B, warm or not.
            c = math.exp(reward)
            x, theta, residual, iters = walk_dual_solve(
                walk_form(dataclasses.replace(program, targets=program.targets / c)), None,
                theta0, tol / c)
            return x * c, theta, residual * c, iters

        def walk_maxent(spec, objective):
            with monkeypatch.context() as m:
                m.setattr(oracle, "_build_program", lambda s: array_form(walk_build_program(s)))
                m.setattr(oracle, "_dual_solve", walk_dual)
                return result_or_error(oracle.numeric_maxent, spec, objective)

        reports = 0
        for spec in oracle_specs(rng):
            program = assert_same_program(spec)
            case = classify(spec)
            objective = _oracle_objective(spec, case)
            new = result_or_error(oracle.numeric_maxent, spec, objective)
            assert_close_results(new, walk_maxent(spec, objective))
            if case is SolverCase.UNSUPPORTED:
                continue
            for sol in corruptions(rng, solve(spec), program):
                new, ref = oracle.verify_kkt(sol, spec), walk_verify_kkt(sol, spec)
                X = sol.values if isinstance(sol, TensorSolution) else sol.matrix
                for name in ("product_form", "multiplier_range", "complementary_slackness"):
                    assert getattr(new, name) == getattr(ref, name), name
                if np.isfinite(X).all():
                    assert (new.feasible, new.ok) == (ref.feasible, ref.ok)
                else:  # the walk let a nan entry pass as feasible
                    assert not new.feasible and not new.ok
                    assert "non-finite entries" in new.violations
                    assert new.max_residual == math.inf
                reports += 1
        assert reports >= 150

    def test_product_form_at_size(self, rng):
        # tens of thousands of logs, fitted through the normal equations
        u = rng.uniform(1.0, 100.0, 100)
        cols = [float(v) if j % 4 else None for j, v in enumerate(rng.uniform(1.0, 30.0, 80))]
        U = np.stack([_ratios_below_third(rng, 30) * 50.0 for _ in range(3)], axis=1)
        for spec in (
            make_spec(100, 80, row=("equal", u.tolist()), col=("equal", cols)),
            make_spec(80, 80, row=("equal", (_ratios_below_third(rng, 80) * 500.0).tolist()),
                      symmetric=True, blocks=zero_diagonal_blocks(80)),
            make_spec(30, 30, row=("equal", U.tolist()), symmetric=True, slices=3,
                      blocks=zero_diagonal_blocks(30)),
        ):
            sol = solve(spec)
            X = sol.values if isinstance(sol, TensorSolution) else sol.matrix
            for Y in (X, X * rng.uniform(0.9, 1.1, X.shape)):
                assert_fit_matches_the_walk(spec, Y)

    def test_product_form_rank_deficient(self, rng):
        # Normal equations with a null space: the pivoted Cholesky fit drops
        # the pivoted-out multipliers, lstsq (the walk's) takes the minimum norm.
        caps = [(0, j, 0.5 + 0.25 * j) for j in range(5)] + [(2, 1, 0.3), (3, 4, math.inf)]
        full_cols = rng.uniform(5.0, 9.0, 5)
        u = rng.uniform(10.0, 20.0, 6).tolist()
        zero_cols = [float(v) if j % 2 else None for j, v in enumerate(rng.uniform(1.0, 9.0, 6))]
        zero_cols[3] = 0.0
        for spec, frozen in (
            # row 0's every cell sits at its cap, so no cell of row 0 is in the fit
            (make_spec(4, 5, row=("upper", [9.0, 4.0, 5.0, 6.0]), elements=caps), [0]),
            # row 1 and column 3 hold only zeros, at or below ZERO_REPORT
            (make_spec(5, 6, row=("equal", [7.0, 0.0, 5.0, 6.0, 8.0]), col=("equal", zero_cols)),
             [1]),
            (make_spec(4, 3, row=("upper", [2.0, 0.0, 3.0, 1.0]), col=("upper", [3.0, 2.0, 1.0])),
             [1]),
            # every row and column sum: the gauge shifts rows against columns
            (make_spec(4, 5, row=("equal", (full_cols.sum() * rng.dirichlet(np.ones(4))).tolist()),
                       col=("equal", full_cols.tolist())), []),
            # symmetric: mirrored rows and columns, with the total on top
            (make_spec(6, 6, row=("upper", u), col=("upper", u), symmetric=True,
                       total=("equal", 40.0)), []),
            (random_sym_blocks(rng, "equal"), []),
            (random_sym_fixed_diagonal(rng, "upper"), []),
        ):
            sol = solve(spec)
            noise = rng.uniform(0.9, 1.1, sol.matrix.shape)
            noise[frozen] = 1.0  # the frozen rows keep their caps or zeros
            for Y in (sol.matrix, sol.matrix * noise):
                assert_fit_matches_the_walk(spec, Y)
            G = self.fit_gram(spec, sol.matrix)
            assert np.linalg.matrix_rank(G) < len(G)

    @staticmethod
    def fit_gram(spec, X):
        """The normal equations' matrix of the fit of ``X``, over the
        marginal and total rows."""
        program = oracle._build_program(spec)
        M, rows = program.incidence, program.incidence.k - program.n_caps
        values = X[tuple(program.cells.T)]
        keep = values > ZERO_REPORT
        cell, cap = M.cell[M.cell.size - program.n_caps:], program.targets[rows:]
        keep[cell[values[cell] - cap >= -1e-6 * np.maximum(1.0, cap)]] = False
        return M.gram(keep.astype(float))[:rows, :rows]


def assert_fit_matches_the_walk(spec, Y):
    """The product-form fit of ``Y`` against the walk's dense least squares:
    the same verdict, and the residual to 1e-9 relative or 1e-12 absolute."""
    program = oracle._build_program(spec)
    walk = SimpleNamespace(cells=[tuple(c) for c in program.cells.tolist()])
    ok, resid = oracle._product_form_ok(program, Y, 1e-6)
    want_ok, want = walk_product_form_ok(spec, walk, Y, 1e-6)
    assert ok == want_ok
    assert abs(resid - want) <= max(1e-9 * abs(want), 1e-12), (resid, want)


class TestProgramReuse:
    """One program per spec object: built by the first oracle call, then
    read, read-only, by every later one, bit for bit as a fresh build."""

    # Small integer specs, which brute force enumerates (it refuses the drawn ones)
    INTEGER_SPECS = (
        make_spec(2, 3, row=("equal", [2.0, 3.0]), col=("equal", [1.0, 2.0, 2.0])),
        make_spec(2, 3, row=("upper", [3.0, 2.0]), elements=[(0, 1, 0.0), (1, 2, 1.0)]),
    )

    @staticmethod
    def every_entry_point(spec):
        """The outcome of every oracle entry point on ``spec``, in turn."""
        brute = result_or_error(oracle.brute_force_most_likely, spec)
        if isinstance(brute, oracle.BruteForceResult):
            brute = bits(np.stack(brute.argmax)), brute.count, brute.n_feasible
        return (outcome(oracle.numeric_maxent, spec, "H"),
                outcome(oracle.numeric_maxent, spec, "G"),
                outcome(oracle.verify_kkt, solve(spec), spec),
                brute)

    def specs(self, rng, draws):
        """``draws`` specs from each of criterion 7's generators, then the integer ones."""
        for generator in CASE_GENERATORS.values():
            for _ in range(draws):
                yield generator(rng)
        yield from (dataclasses.replace(spec) for spec in self.INTEGER_SPECS)

    @pytest.fixture
    def builds(self, monkeypatch):
        """The spec of every program build, in order."""
        out, build = [], oracle._new_program
        monkeypatch.setattr(oracle, "_new_program", lambda spec: out.append(spec) or build(spec))
        return out

    def test_one_build_per_spec(self, rng, builds):
        for spec in self.specs(rng, 1):
            self.every_entry_point(spec)
            self.every_entry_point(spec)
            assert len(builds) == 1 and builds[0] is spec
            builds.clear()

    def test_a_build_that_raises_keeps_nothing(self, builds):
        over = (FixedBlock((0,), ((2.0,),)),)
        spec = make_spec(3, 3, row=("equal", [1.0, 5.0, 5.0]), symmetric=True, blocks=over)
        for _ in range(2):
            with pytest.raises(Infeasible):
                oracle.numeric_maxent(spec)
        assert len(builds) == 2 and "_oracle_program" not in spec.__dict__

    def test_cached_arrays_are_read_only(self, rng):
        for spec in self.specs(rng, 1):
            oracle.verify_kkt(solve(spec), spec)  # the fit fills the pair lists
            program = oracle._build_program(spec)
            M = program.incidence
            M.matvec(np.ones(M.n))  # and the segments
            for a in (program.cells, *program.fixed, program.fixed_values, program.targets,
                      M.con, M.cell, *M._pairs, *M._segments):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0

    def test_reused_program_matches_a_fresh_one(self, rng):
        for spec in self.specs(rng, 3):
            first = self.every_entry_point(spec)
            assert self.every_entry_point(spec) == first
            assert self.every_entry_point(dataclasses.replace(spec)) == first


# ----------------------------------------------------------------------
# Reference: the G objective by a line search over the total
# ----------------------------------------------------------------------


def search_program(program, total):
    """The program with "the free cells sum to ``total``" inserted after its
    equalities."""
    M, n_eq = program.incidence, program.n_eq
    at = np.searchsorted(M.con, n_eq)
    con = np.concatenate([M.con[:at], np.full(program.n, n_eq), M.con[at:] + 1])
    cell = np.concatenate([M.cell[:at], np.arange(program.n), M.cell[at:]])
    return dataclasses.replace(program, incidence=oracle._Incidence(con, cell, M.k + 1, program.n),
                               targets=np.insert(program.targets, n_eq, total), n_eq=n_eq + 1)


def line_search_maxent(spec, tol: float = 1e-9):
    """The G objective as the oracle maximized it before its minorize-maximize
    rounds.  The value of G restricted to a total S is concave in S with
    derivative ln S + 1 + (total multiplier); a linear program gives the
    largest feasible total, a solve just inside it gives the slope there,
    and a negative slope starts a bisection.  Each solve is the H program
    with the total inserted, warm-started through L-BFGS-B by the last one's
    multipliers; the dual solve is the oracle's own."""
    program = oracle._build_program(spec)
    e = oracle._exponent(program)
    scaled = oracle._scaled(program, e)
    s_hi = walk_max_total(walk_form(scaled))
    if s_hi <= 0:
        return oracle.OracleResult(program.assemble(np.zeros(program.n)), "G", 0.0, True, 0, 0.0)

    theta_warm, iters_total = None, 0

    def solve_at(s: float):
        nonlocal theta_warm, iters_total
        x, theta, residual, iters = oracle._dual_solve(search_program(scaled, s), theta0=theta_warm,
                                                       tol=tol)
        theta_warm = theta
        iters_total += iters
        return x, residual, math.log(s) + 1.0 + theta[program.n_eq]

    # At the largest total the active bounds tile every cell and the total
    # multiplier is not unique, so the slope is probed just inside it.
    s_probe = s_hi * (1.0 - 1e-9)
    _, _, slope = solve_at(s_probe)
    if slope >= -tol:
        x, residual, _ = solve_at(s_hi)
    else:
        lo, hi = s_hi * 1e-9, s_probe
        x, residual, slope_lo = solve_at(lo)
        if slope_lo > 0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                x_mid, res_mid, slope_mid = solve_at(mid)
                if slope_mid >= 0:
                    lo = mid
                    x, residual = x_mid, res_mid
                else:
                    hi = mid
    if residual > 1e3 * tol:
        raise NotConverged(f"dual residual {residual} above tolerance {tol}", residual)
    X = program.assemble(np.ldexp(np.where(x < oracle.ZERO_REPORT, 0.0, x), e))
    return oracle.OracleResult(X, "G", oracle._objective_value("G", X, e), residual <= tol,
                               iters_total, residual)


def random_staircase(rng):
    """Bounds on some rows and on some columns, and a zero cap on each cell
    that neither bounds: every cell is bounded, and the best total can lie
    below the largest feasible one (x + y <= 1 and y + z <= 1 take the total
    2 at y = 0, but G peaks at y = 1 - 1/sqrt 2)."""
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    rows = [float(v) if rng.random() < 0.6 else None for v in rng.uniform(0.5, 4.0, n)]
    cols = [float(v) if rng.random() < 0.6 else None for v in rng.uniform(0.5, 4.0, m)]
    caps = [(i, j, 0.0) for i in range(n) for j in range(m) if rows[i] is None and cols[j] is None]
    return make_spec(n, m, row=("upper", rows), col=("upper", cols), elements=caps)


G_GENERATORS = [CASE_GENERATORS[case] for case in (
    SolverCase.ROW_BOUNDS, SolverCase.BOUNDED_TOTAL_ROW_BOUNDS, SolverCase.ROW_COL_BOUNDS,
    SolverCase.ROW_BOUNDS_ELEM_BOUNDS)] + [
    lambda rng: random_sym_fixed_diagonal(rng, "upper"),
    lambda rng: random_sym_blocks(rng, "upper"), random_staircase]


@given(st.sampled_from(G_GENERATORS), st.integers(0, 2**32 - 1))
def test_minorize_maximize_matches_the_line_search(generator, seed):
    spec = generator(np.random.default_rng(seed))
    assert_close_results(result_or_error(oracle.numeric_maxent, spec, "G"),
                         result_or_error(line_search_maxent, spec))


def test_the_best_total_inside_the_largest():
    spec = make_spec(2, 2, row=("upper", [1.0, None]), col=("upper", [None, 1.0]),
                     elements=[(1, 0, 0.0)])
    res = oracle.numeric_maxent(spec, "G")
    a = 1.0 - math.sqrt(0.5)
    assert np.all(np.abs(res.matrix - [[1.0 - a, a], [0.0, 1.0 - a]]) <= 1e-12)
    assert_close_results(res, line_search_maxent(spec))


# ----------------------------------------------------------------------
# Reference: L-BFGS-B through scipy's minimize
# ----------------------------------------------------------------------


def minimize_lbfgsb(value_grad, theta0, n_eq, gtol, maxiter=500, maxfun=5000):
    """The dual solve's global phase as it was: scipy's ``minimize`` with the
    options it passed.  Returns the last point, the iteration count and the
    stop message."""
    from scipy.optimize import minimize

    res = minimize(value_grad, theta0, jac=True, method="L-BFGS-B",
                   bounds=[(None, None)] * n_eq + [(0.0, None)] * (theta0.size - n_eq),
                   options={"maxiter": maxiter, "maxfun": maxfun, "ftol": 1e-16, "gtol": gtol})
    return res.x, res.nit, res.message


def random_dual(rng, n_eq: int, n_ub: int):
    """The entropy dual over 5-40 cells of random 0/1 constraints, the first
    ``n_eq`` equalities, with targets near a random matrix's sums (so the
    equalities may disagree and the dual fall without bound).  Returns its
    value-and-gradient and the list of points it is evaluated at."""
    n = int(rng.integers(5, 41))
    M = (rng.random((n_eq + n_ub, n)) < rng.uniform(0.2, 0.7)).astype(float)
    targets = M @ rng.exponential(1.0, n) * rng.uniform(0.9, 1.1, n_eq + n_ub)
    points = []

    def value_grad(theta):
        points.append(theta.tobytes())
        x = np.exp(np.clip(-1.0 - M.T @ theta, -700.0, 700.0))
        return float(x.sum() + theta @ targets), targets - M @ x

    return value_grad, points


def assert_same_lbfgsb(rng, n_eq, n_ub, gtol, **limits):
    """``oracle._lbfgsb`` and ``minimize`` on one drawn dual: the same last
    point, iteration count and evaluation points, bit for bit.  A start of
    random sign is clipped to the bounds first.  Returns the stop message."""
    value_grad, points = random_dual(rng, n_eq, n_ub)
    theta0 = rng.normal(0.0, 1.0, n_eq + n_ub) if rng.random() < 0.5 else np.zeros(n_eq + n_ub)
    x, nit, message = minimize_lbfgsb(value_grad, theta0, n_eq, gtol, **limits)
    ref_points = points[:]
    points.clear()
    new_x, new_nit = oracle._lbfgsb(value_grad, theta0, n_eq, gtol)
    assert (new_x.tobytes(), new_nit) == (x.tobytes(), nit)
    assert points == ref_points
    return message


class TestLbfgsb:
    """The dual solve drives scipy's L-BFGS-B routine itself; ``minimize``
    called it with the same constants, so every iterate is the same."""

    @pytest.mark.parametrize("n_eq, n_ub", [(6, 0), (0, 6), (3, 5)])
    def test_against_minimize(self, rng, n_eq, n_ub):
        messages = set()
        for _ in range(25):
            gtol = float(rng.choice([1e-12, 1e-4, 1e-2]))
            messages.add(assert_same_lbfgsb(rng, n_eq, n_ub, gtol))
        assert any(m.startswith("CONVERGENCE") for m in messages)

    def test_at_the_limits(self, rng, monkeypatch):
        monkeypatch.setattr(oracle, "LBFGSB_MAXITER", 3)
        for _ in range(5):
            message = assert_same_lbfgsb(rng, 3, 5, 1e-12, maxiter=3)
            assert message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        monkeypatch.setattr(oracle, "LBFGSB_MAXITER", 500)
        monkeypatch.setattr(oracle, "LBFGSB_MAXFUN", 2)
        for _ in range(5):
            message = assert_same_lbfgsb(rng, 3, 5, 1e-12, maxfun=2)
            assert message == "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT"


# ----------------------------------------------------------------------
# Reference: the triangular solves through scipy.linalg.solve_triangular
# ----------------------------------------------------------------------


def solve_triangular_psd(G, b):
    """``oracle._psd_solve`` as it was: its two triangular solves through
    ``scipy.linalg.solve_triangular``."""
    from scipy.linalg import solve_triangular
    from scipy.linalg.lapack import dpstrf

    L, piv, rank, _ = dpstrf(G, lower=1, tol=-1.0)
    kept, L = piv[:rank] - 1, L[:rank, :rank]
    z = solve_triangular(L, b[kept], lower=True, check_finite=False)
    y = np.zeros(b.size)
    y[kept] = solve_triangular(L, z, lower=True, trans="T", check_finite=False)
    return y


def random_psd(rng, k: int, rank: int):
    """A k x k positive semidefinite G = A A^T of the given rank, entries of
    random scale, and a right-hand side in its range."""
    A = rng.normal(0.0, 1.0, (k, rank)) @ rng.normal(0.0, 1.0, (rank, k + 2))
    A *= np.exp(rng.uniform(-3.0, 3.0, (k, 1)))
    return A @ A.T, A @ rng.normal(0.0, 1.0, k + 2)


def scatter_matvec(M, x):
    """``_Incidence.matvec`` as it was for every incidence: the sums
    scattered into zeros."""
    nonempty, start = M._segments
    out = np.zeros(M.k)
    if nonempty.size:
        out[nonempty] = np.add.reduceat(x[M.cell], start)
    return out


class TestTriangularSolves:
    """``_psd_solve`` calls LAPACK's ``dtrtrs`` as ``solve_triangular`` calls
    it: the leading block itself at full rank (F-contiguous), its transpose
    with ``lower`` and ``trans`` flipped below it.  The bytes are the same."""

    def test_drawn_systems(self, rng):
        branches = set()
        for _ in range(200):
            k = int(rng.integers(1, 16))
            rank = k if rng.random() < 0.5 else int(rng.integers(1, k + 1))
            G, b = random_psd(rng, k, rank)
            y = oracle._psd_solve(G, b)
            assert y.tobytes() == solve_triangular_psd(G, b).tobytes()
            branches.add(np.linalg.matrix_rank(G) == k)
        assert branches == {True, False}

    def test_rank_zero(self):
        # no triangular solve at all: dtrtrs would refuse the empty block
        G, b = np.zeros((3, 3)), np.ones(3)
        assert oracle._psd_solve(G, b).tobytes() == solve_triangular_psd(G, b).tobytes()

    def test_program_systems(self, rng):
        """The Gram systems of the Newton steps and the product-form fit,
        gauge null space included."""
        for generator in CASE_GENERATORS.values():
            for _ in range(3):
                M = oracle._build_program(generator(rng)).incidence
                G = M.gram(rng.uniform(0.1, 10.0, M.n))
                b = rng.normal(0.0, 1.0, M.k)
                assert oracle._psd_solve(G, b).tobytes() == solve_triangular_psd(G, b).tobytes()

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_a_zero_diagonal_raises(self, rng, monkeypatch, rank_deficient):
        import scipy.linalg.lapack

        dpstrf = scipy.linalg.lapack.dpstrf

        def zero_pivot(G, **kwargs):  # the factor as dpstrf gives it, one diagonal entry 0
            L, piv, rank, info = dpstrf(G, **kwargs)
            L[1, 1] = 0.0
            return L, piv, rank, info

        monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", zero_pivot)
        G, b = random_psd(rng, 5, 3 if rank_deficient else 5)
        with pytest.raises(np.linalg.LinAlgError) as want:
            solve_triangular_psd(G, b)
        with pytest.raises(np.linalg.LinAlgError) as got:
            oracle._psd_solve(G, b)
        assert str(got.value) == str(want.value)

    def test_the_rounds_shift_is_kept_read_only(self, rng):
        M = oracle._build_program(CASE_GENERATORS[SolverCase.TOTAL_ROW_BOUNDS](rng)).incidence
        ones = np.ones(M.n)
        w = M.shift
        assert w.tobytes() == solve_triangular_psd(M.gram(ones), M.matvec(ones)).tobytes()
        assert M.shift is w and not w.flags.writeable


class TestMatvec:
    """``matvec`` returns the segment sums themselves when every constraint
    has a member, and scatters them into zeros otherwise."""

    def test_fast_path_matches_the_scatter(self, rng):
        for generator in CASE_GENERATORS.values():
            M = oracle._build_program(generator(rng)).incidence
            assert M._segments[0].size == M.k
            x = rng.exponential(1.0, M.n)
            assert M.matvec(x).tobytes() == scatter_matvec(M, x).tobytes()

    def test_an_empty_constraint(self, rng):
        con, cell = np.array([0, 0, 0, 2, 2, 3]), np.array([0, 1, 2, 1, 3, 2])
        M = oracle._Incidence(con, cell, 4, 4)  # constraint 1 has no member
        x = rng.exponential(1.0, 4)
        got = M.matvec(x)
        assert got.tobytes() == scatter_matvec(M, x).tobytes()
        assert got[1] == 0.0
        packed = oracle._Incidence(np.where(con > 1, con - 1, con), cell, 3, 4)
        assert np.delete(got, 1).tobytes() == packed.matvec(x).tobytes()


# ----------------------------------------------------------------------
# Reference: the fixed-entry solvers as they walked the blocks
# ----------------------------------------------------------------------


def walk_row_sums(b):
    return tuple(sum(row) for row in b.matrix)


def walk_col_sums(b):
    return tuple(sum(row[j] for row in b.matrix) for j in range(len(b.index_set)))


def walk_value_sum(b):
    return sum(sum(row) for row in b.matrix)


def walk_consistency_check_blocks(u, blocks, s):
    violations = []
    for b in blocks:
        u_block = sum(u[i] for i in b.index_set)
        limit = s / 2.0 + walk_value_sum(b) / 2.0
        if not u_block < limit:
            violations.append((b.index_set, u_block, limit))
    return ConsistencyReport(ok=not violations, violations=tuple(violations))


def walk_require_block_consistency(u, blocks, s):
    report = walk_consistency_check_blocks(u, blocks, s)
    if not report.ok:
        index_set, u_block, limit = report.first_violation
        raise ConsistencyViolation(
            f"index set {index_set}: outgoing traffic {u_block} is not strictly "
            f"below {limit} (half the total plus half the intra-set traffic)"
        )


def walk_root_factors(r, groups, tol):
    grouped = np.zeros(r.size, dtype=bool)
    grouped[[i for g in groups for i in g]] = True
    tail = np.flatnonzero(~grouped)
    rl = r.tolist()
    r_group = [rl[g[0]] if len(g) == 1 else sum(rl[i] for i in g) for g in groups]
    problem = RootProblem(r=tuple(r_group) + tuple(r[tail].tolist()), m=len(r_group))
    if problem.sigma == 0.0:
        return None, math.nan, np.zeros(r.size)
    lam = solve_root_lambda(problem)
    q = branch_factors(problem, lam)
    f_group = 2.0 * np.array(r_group) / (lam * (1.0 + q))
    factors = np.zeros(r.size)
    factors[tail] = r[tail] / lam
    for g, rg, fg in zip(groups, r_group, f_group.tolist()):
        if len(g) == 1:
            factors[g[0]] = fg
        elif rg > 0:
            factors[list(g)] = r[list(g)] * fg / rg
    return problem, lam, factors


def walk_solve_sym_block_diagonal(u, blocks, s, bounds_mode=False, tol=1e-12):
    u = np.asarray(u, dtype=float)
    n = u.size
    blocks = tuple(blocks)
    if np.any(u < 0):
        raise NegativeValue("sums must be nonnegative")
    covered = [i for b in blocks for i in b.index_set]
    if not covered or len(set(covered)) != len(covered) or not set(covered) <= set(range(n)):
        raise InfeasibleMarginals("fixed blocks must be one or more disjoint sets of nodes")
    if not close(s, float(u.sum())):
        raise InfeasibleMarginals(f"total {s} disagrees with the sum total {u.sum()}")
    for b in blocks:
        if any(
            not close(rs, cs)
            for rs, cs in zip(walk_row_sums(b), walk_col_sums(b))
        ):
            raise InfeasibleMarginals(
                f"block {b.index_set}: fixed row and column sums differ, so the "
                "shared row/column totals cannot both hold"
            )
    walk_require_block_consistency(u, blocks, s)

    w_rows = [w for b in blocks for w in walk_row_sums(b)]
    for i, w in zip(covered, w_rows):
        if w > u[i] * (1 + REL_TOL):
            raise InfeasibleMarginals(f"node {i}: fixed values in its block exceed its sum")
    r = u / s
    r[covered] = (u[covered] - w_rows) / s
    problem, lam, factors = walk_root_factors(
        np.maximum(0.0, r), [b.index_set for b in blocks], tol
    )
    if bounds_mode and not np.all(factors <= 1.0 + 1e-9):
        raise InvariantViolation("bound-mode factors must stay in (0, 1]")

    X = s * np.outer(factors, factors)
    X[
        [i for b in blocks for i in b.index_set for _ in b.index_set],
        [j for b in blocks for _ in b.index_set for j in b.index_set],
    ] = [w for b in blocks for row in b.matrix for w in row]
    singletons = all(len(b.index_set) == 1 for b in blocks)
    return Solution(
        X,
        SolverCase.SYM_FIXED_DIAGONAL if singletons else SolverCase.SYM_BLOCK_DIAGONAL,
        total=float(X.sum()),
        row_multipliers=factors,
        col_multipliers=factors.copy(),
        lam=lam,
        xi=4.0 / (lam * lam),
        notes=() if problem is None or problem.guaranteed
        else ("outside guaranteed bracket regime",),
        root=problem,
    )


def walk_solve_sym_fixed_diagonal(u, s, m_fixed, w_diag, bounds_mode=False, tol=1e-12):
    w_diag = [float(w) for w in np.ravel(w_diag)]
    n = np.size(u)
    if not 0 < m_fixed <= n:
        raise InfeasibleMarginals(f"fixed prefix {m_fixed} outside 1..{n}")
    if len(w_diag) != m_fixed:
        raise InfeasibleMarginals(
            f"{len(w_diag)} diagonal values for a fixed prefix of {m_fixed}"
        )
    blocks = [FixedBlock((i,), ((w,),)) for i, w in enumerate(w_diag)]
    return walk_solve_sym_block_diagonal(u, blocks, s, bounds_mode=bounds_mode, tol=tol)


def walk_solve_sym_3d_fixed_diagonal(u, s, tol=1e-12):
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise InfeasibleMarginals(f"section sums must be 2-D (n x K), got {u.shape}")
    if np.any(u < 0):
        raise NegativeValue("section sums must be nonnegative")
    n, K = u.shape
    if not close(s, float(u.sum())):
        raise InfeasibleMarginals(f"total {s} disagrees with the section total {u.sum()}")

    zero_diagonal = [FixedBlock((i,), ((0.0,),)) for i in range(n)]
    groups = [(i,) for i in range(n)]
    values = np.zeros((n, n, K))
    lams = []
    xis = []
    notes = []
    for k in range(K):
        slice_total = float(u[:, k].sum())
        if slice_total == 0.0:
            lams.append(math.nan)
            xis.append(math.nan)
            continue
        walk_require_block_consistency(u[:, k], zero_diagonal, slice_total)
        problem, lam, factors = walk_root_factors(u[:, k] / s, groups, tol)
        sheet = s * np.outer(factors, factors)
        np.fill_diagonal(sheet, 0.0)
        values[:, :, k] = sheet
        lams.append(lam)
        xis.append(4.0 / (lam * lam))
        if problem is not None and not problem.guaranteed:
            notes.append(f"slice {k}: outside guaranteed bracket regime")
    return TensorSolution(
        values,
        SolverCase.SYM_3D_FIXED_DIAGONAL,
        total=float(values.sum()),
        lam=tuple(lams),
        xi=tuple(xis),
        notes=tuple(notes),
    )


def fixed_entry_bits(result):
    """Every field of a fixed-entry solution by bit pattern, or the error raised."""
    if isinstance(result, tuple):
        return result
    if isinstance(result, TensorSolution):
        return (bits(result.values), result.case, bits(result.total), bits(result.lam),
                bits(result.xi), result.notes)
    root = result.root
    return (bits(result.matrix), result.case, bits(result.total), result.k,
            bits(result.row_multipliers), bits(result.col_multipliers), bits(result.lam),
            bits(result.xi), result.permutation, result.notes,
            None if root is None else (bits(root.r), root.m))


def report_bits(report):
    return report.ok, [(index_set, bits(u_block), bits(limit))
                       for index_set, u_block, limit in report.violations]


def random_block_problem(rng, n):
    """Node sums and fixed blocks for a block solve of n nodes.

    The blocks come in no particular order over shuffled index sets: some
    singletons, some of more than 8 nodes (their row sums add more than 8
    terms), some all zero; with probability 1/2 some nodes stay uncovered.
    """
    nodes = rng.permutation(n)
    covered = n if rng.random() < 0.5 else int(rng.integers(1, n + 1))
    u = rng.uniform(1.0, 100.0, n)
    blocks, start = [], 0
    while start < covered:
        k = min(covered - start, int(rng.choice([1, 1, 2, 3, 9, 12])))
        idx = nodes[start:start + k]
        start += k
        W = rng.uniform(0.0, 0.3, (k, k)) * float(u[idx].min()) / k
        W = np.zeros((k, k)) if rng.random() < 0.2 else (W + W.T) / 2.0
        u[idx] += W.sum(axis=1)
        blocks.append(FixedBlock(tuple(idx.tolist()), tuple(map(tuple, W.tolist()))))
    return u, tuple(blocks)


class TestFixedEntries:
    """The fixed-entry solvers over index arrays against the block walks they
    replaced: every field bit for bit, or the same error and message."""

    def test_block_solver(self, rng):
        solved = 0
        for n in SIZES:
            for _ in range(2 if n == 2000 else 12):
                u, blocks = random_block_problem(rng, n)
                s = float(u.sum())
                bounds_mode = bool(rng.random() < 0.3)
                ref = result_or_error(walk_solve_sym_block_diagonal, u, blocks, s, bounds_mode)
                new = result_or_error(solve_sym_block_diagonal, u, blocks, s, bounds_mode)
                assert fixed_entry_bits(new) == fixed_entry_bits(ref)
                solved += not isinstance(ref, tuple)
                report = consistency_check_blocks(u.tolist(), blocks, s)
                assert report_bits(report) == report_bits(
                    walk_consistency_check_blocks(u.tolist(), blocks, s))
        assert solved >= 40

    def test_through_solve(self, rng):
        solved = 0
        for n in SIZES:
            for _ in range(1 if n == 2000 else 6):
                u, blocks = random_block_problem(rng, n)
                kind = "upper" if rng.random() < 0.3 else "equal"
                spec = validate_spec(make_spec(n, n, row=(kind, u.tolist()), blocks=blocks,
                                               symmetric=True))
                if classify(spec) not in (SolverCase.SYM_FIXED_DIAGONAL,
                                          SolverCase.SYM_BLOCK_DIAGONAL):
                    continue
                ref = result_or_error(walk_solve_sym_block_diagonal, u, records(spec).fixed_blocks,
                                      float(u.sum()), kind == "upper")
                assert fixed_entry_bits(result_or_error(solve, spec)) == fixed_entry_bits(ref)
                solved += not isinstance(ref, tuple)
        assert solved >= 15

    def test_fixed_diagonal(self, rng):
        for n in SIZES:
            for _ in range(2 if n == 2000 else 6):
                u = rng.uniform(1.0, 100.0, n)
                m = int(rng.integers(1, n + 1))
                w = rng.uniform(0.0, 0.5, m) * u[:m]
                w[rng.random(m) < 0.3] = 0.0
                args = (u, float(u.sum()), m, w, bool(rng.random() < 0.3))
                assert fixed_entry_bits(result_or_error(solve_sym_fixed_diagonal, *args)) == \
                    fixed_entry_bits(result_or_error(walk_solve_sym_fixed_diagonal, *args))

    def test_three_d(self, rng):
        for n in SIZES:
            K = 1 if n == 2000 else 3
            for _ in range(1 if n == 2000 else 4):
                u = rng.uniform(1.0, 100.0, (n, K))
                u[:, rng.random(K) < 0.3] = 0.0  # slices with total 0
                if n > 1 and rng.random() < 0.3:
                    u[0, 0] = u[1:, 0].sum() * 1.5  # one node outweighs its slice
                args = (u, float(u.sum()))
                assert fixed_entry_bits(result_or_error(solve_sym_3d_fixed_diagonal, *args)) == \
                    fixed_entry_bits(result_or_error(walk_solve_sym_3d_fixed_diagonal, *args))

    def test_errors(self):
        u = [10.0, 12.0, 14.0, 16.0]
        one = FixedBlock((0,), ((1.0,),))
        cases = [
            (solve_sym_block_diagonal, ([-1.0, 2.0], [one], 1.0)),
            (solve_sym_block_diagonal, (u, [], 52.0)),
            (solve_sym_block_diagonal, (u, [FixedBlock((0, 1), ((0.0, 0.0), (0.0, 0.0))),
                                            FixedBlock((1,), ((0.0,),))], 52.0)),
            (solve_sym_block_diagonal, (u, [FixedBlock((4,), ((0.0,),))], 52.0)),
            (solve_sym_block_diagonal, (u, [one], 60.0)),
            (solve_sym_block_diagonal, (u, [FixedBlock((2, 0), ((0.0, 1.0), (2.0, 0.0)))],
                                        52.0)),
            (solve_sym_block_diagonal, (u, [FixedBlock((3, 2, 1), ((0.0,) * 3,) * 3)], 52.0)),
            (solve_sym_block_diagonal, (u, [FixedBlock((2,), ((15.0,),))], 52.0)),
            (solve_sym_fixed_diagonal, (u, 52.0, 0, [])),
            (solve_sym_fixed_diagonal, (u, 52.0, 2, [1.0])),
            (solve_sym_fixed_diagonal, (u, 52.0, 2, [1.0, -1.0])),
            (solve_sym_3d_fixed_diagonal, (np.ones(3), 3.0)),
            (solve_sym_3d_fixed_diagonal, (-np.ones((3, 2)), -6.0)),
            (solve_sym_3d_fixed_diagonal, (np.ones((3, 2)), 7.0)),
            (solve_sym_3d_fixed_diagonal, (np.array([[9.0], [1.0], [1.0]]), 11.0)),
        ]
        walks = {solve_sym_block_diagonal: walk_solve_sym_block_diagonal,
                 solve_sym_fixed_diagonal: walk_solve_sym_fixed_diagonal,
                 solve_sym_3d_fixed_diagonal: walk_solve_sym_3d_fixed_diagonal}
        for fn, args in cases:
            ref = result_or_error(walks[fn], *args)
            assert isinstance(ref, tuple), (fn.__name__, args)
            assert result_or_error(fn, *args) == ref


# ----------------------------------------------------------------------
# Reference: the fixed-entry construction one slice at a time
# ----------------------------------------------------------------------


def loop_bisect(p: RootProblem) -> float:
    """The scalar bisection on the one bracket, with f as a loop."""
    r_fixed, tail = p.r[: p.m].tolist(), p.tail

    def f(lam):
        lam2 = lam * lam
        acc = 0.0
        for v in r_fixed:
            acc += math.sqrt(max(0.0, 1.0 - 4.0 * v / lam2))
        return acc - 2.0 * tail / lam2 - (p.m - 2)

    if p.sigma == 0.0:
        raise BracketFailure("the saturation equation has no root: every ratio is zero")
    lo, hi = 2.0 * math.sqrt(p.r_max), 2.0 * math.sqrt(p.sigma)
    flo = p.f_at_branch_point() if p.r_max > 0 else -math.inf
    if p.guaranteed:
        if not flo <= 0.0:
            raise BracketFailure(f"bracket lower end violates sign condition: f({lo})={flo}")
        upper = p.bracket[1]
        f_upper = f(upper)
        if not f_upper > 0.0:
            raise BracketFailure(
                f"bracket upper end violates sign condition: f({upper})={f_upper}")
    if flo == 0.0:
        return lo
    if flo > 0.0:
        raise BracketFailure(
            "the saturation equation has no root: the function is already "
            f"positive at its branch point {lo}"
        )
    if hi == math.inf:
        raise BracketFailure("the saturation equation has no finite bracket: "
                             "the ratios sum past the float range")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid


def slice_in_range(u, s, what):
    total = slice_total(u)
    if not close(s, total):
        raise InfeasibleMarginals(f"total {s} disagrees with the {what} total {total}")
    if math.isfinite(s):
        return u, s, 1.0
    unit = 2.0 ** u.size.bit_length()
    return u / unit, slice_total(u / unit), unit


def slice_half_total(u, c, total, unit):
    report = consistency_check_blocks(u, c, total)
    if unit == 1.0:
        return report
    return ConsistencyReport(report.ok, tuple(
        (index_set, u_block * unit, limit * unit) for index_set, u_block, limit in report.violations))


def slice_fixed_entries(u, c, total, scale, unit):
    report = slice_half_total(u, c, total, unit)
    if not report.ok:
        index_set, u_block, limit = report.first_violation
        raise ConsistencyViolation(
            f"index set {index_set}: outgoing traffic {u_block} is not strictly "
            f"below {limit} (half the total plus half the intra-set traffic)"
        )
    un, w = u[c.nodes], c.row_sums()
    over = np.flatnonzero(w > un * (1 + REL_TOL))
    if over.size:
        raise InfeasibleMarginals(
            f"node {c.nodes[over[0]]}: fixed values in its block exceed its sum")
    r = u / scale
    r[c.nodes] = (un - w) / scale
    r = np.maximum(0.0, r)
    problem = _root_problem(r, c.nodes, c.block)
    if problem is None:
        lam, factors = math.nan, np.zeros(r.size)
    else:
        lam = loop_bisect(problem)
        factors = _factors(problem, lam, r, c.nodes, c.block)
    X = scale * np.outer(factors, factors)
    X[c.nodes[c.rows], c.nodes[c.cols]] = c.values
    if unit != 1.0:
        X *= unit
    return X, factors, problem, lam


def slice_total(x):
    with np.errstate(over="ignore"):
        return float(x.sum())


def slice_solve_sym_3d_fixed_diagonal(u, s):
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise InfeasibleMarginals(f"section sums must be 2-D (n x K), got {u.shape}")
    if np.any(u < 0):
        raise NegativeValue("section sums must be nonnegative")
    n, K = u.shape
    u, s, unit = slice_in_range(u, s, "section")
    at = np.arange(n)
    zero_diagonal = FixedCells(at, at, at, at, np.zeros(n))
    values = np.zeros((n, n, K))
    lams, xis, notes = [], [], []
    for k in range(K):
        total = float(u[:, k].sum())
        if total == 0.0:
            lams.append(math.nan)
            xis.append(math.nan)
            continue
        values[:, :, k], _, problem, lam = slice_fixed_entries(
            u[:, k], zero_diagonal, total, s, unit)
        lams.append(lam)
        xis.append(4.0 / (lam * lam))
        if problem is not None and not problem.guaranteed:
            notes.append(f"slice {k}: outside guaranteed bracket regime")
    return TensorSolution(values, SolverCase.SYM_3D_FIXED_DIAGONAL, total=slice_total(values),
                          lam=tuple(lams), xi=tuple(xis), notes=tuple(notes))


def slice_solve_sym_block_diagonal(u, blocks, s, bounds_mode=False):
    u = np.asarray(u, dtype=float)
    c = FixedCells.of(blocks)
    if np.any(u < 0):
        raise NegativeValue("sums must be nonnegative")
    nodes = c.nodes
    if (not nodes.size or nodes.min() < 0 or nodes.max() >= u.size
            or np.bincount(nodes).max() > 1):
        raise InfeasibleMarginals("fixed blocks must be one or more disjoint sets of nodes")
    u, s, unit = slice_in_range(u, s, "sum")
    with np.errstate(over="ignore", invalid="ignore"):
        rs, cs = c.row_sums(), np.bincount(c.cols, c.values, minlength=nodes.size)
        differ = ~((rs == cs) | np.isfinite(rs) & np.isfinite(cs)
                   & (np.abs(rs - cs) <= REL_TOL * np.maximum(1.0, np.maximum(rs, cs))))
    if differ.any():
        raise InfeasibleMarginals(
            f"block {c.index_set(int(c.block[np.argmax(differ)]))}: fixed row and column "
            "sums differ, so the shared row/column totals cannot both hold"
        )
    c = dataclasses.replace(c, values=c.values / unit)
    X, factors, problem, lam = slice_fixed_entries(u, c, s, s, unit)
    if bounds_mode and not np.all(factors <= 1.0 + 1e-9):
        raise InvariantViolation("bound-mode factors must stay in (0, 1]")
    singletons = c.values.size == nodes.size
    return Solution(
        X,
        SolverCase.SYM_FIXED_DIAGONAL if singletons else SolverCase.SYM_BLOCK_DIAGONAL,
        total=slice_total(X), row_multipliers=factors, col_multipliers=factors.copy(),
        lam=lam, xi=4.0 / (lam * lam),
        notes=() if problem is None or problem.guaranteed
        else ("outside guaranteed bracket regime",),
        root=problem,
    )


def drawn_scale(rng, top):
    """1, 2^k with |k| <= 40, or a factor that takes a maximum of ``top``
    near the top of the float range, where the sums overflow."""
    pick = rng.random()
    if pick < 0.15:
        return 1.7e308 / (top or 1.0) * float(rng.uniform(0.5, 1.0))
    return 2.0 ** int(rng.integers(-40, 41)) if pick < 0.7 else 1.0


def drawn_sums(rng, shape):
    """Node sums of one family: spread, tied, with a node over half its
    slice, or with -0.0 cells; then scaled by :func:`drawn_scale`."""
    family = rng.integers(4)
    u = rng.choice([1.0, 2.0, 3.0], shape) if family == 1 else rng.uniform(1.0, 100.0, shape)
    if family == 2 and shape[0] > 1:
        u[0] = u[1:].sum(axis=0) * rng.uniform(0.9, 1.5)
    if family == 3:
        u[rng.random(shape) < 0.2] = -0.0
    return u * drawn_scale(rng, float(u.max()))


class TestLockstep:
    """The fixed-entry cases against the slice-by-slice references above."""

    def test_roots_match_the_scalar_bisection(self, rng):
        solved = 0
        for _ in range(60):
            K, m = int(rng.integers(1, 11)), int(rng.integers(0, 40))
            n = m + int(rng.integers(0 if m else 1, 20))
            problems = []
            for _ in range(K):
                r = rng.choice([0.0, 0.5, 1.0, 2.0], n) if rng.random() < 0.3 \
                    else rng.uniform(0.0, 1.0, n)
                problems.append(RootProblem(r=r * 2.0 ** int(rng.integers(-40, 41)), m=m))
            problems = [p for p in problems if p.sigma > 0.0
                        and (p.r_max == 0.0 or p.f_at_branch_point() <= 0.0)]
            lams = _bisect(problems, [_bracket(p) for p in problems])
            assert bits(lams) == bits([loop_bisect(p) for p in problems])
            assert [solve_root_lambda(p) for p in problems] == lams
            solved += len(problems)
        assert solved >= 150

    def test_three_d(self, rng):
        solved = 0
        for _ in range(80):
            n = int(np.exp(rng.uniform(0.0, np.log(300.0))))
            K = int(rng.integers(1, 11))
            u = drawn_sums(rng, (n, K))
            u[:, rng.random(K) < 0.2] = 0.0  # slices with total 0
            args = (u, slice_total(u))
            ref = result_or_error(slice_solve_sym_3d_fixed_diagonal, *args)
            new = result_or_error(solve_sym_3d_fixed_diagonal, *args)
            assert fixed_entry_bits(new) == fixed_entry_bits(ref)
            solved += not isinstance(ref, tuple)
        assert solved >= 30

    def test_blocks(self, rng):
        solved = 0
        for _ in range(120):
            n = int(np.exp(rng.uniform(0.0, np.log(300.0))))
            u, blocks = random_block_problem(rng, n)
            if rng.random() < 0.2:
                u[rng.random(n) < 0.3] = -0.0
            scale = drawn_scale(rng, float(u.max()))
            blocks = [FixedBlock(b.index_set, tuple(tuple(v * scale for v in row)
                                                    for row in b.matrix)) for b in blocks]
            u = u * scale
            args = (u, blocks, slice_total(u), bool(rng.random() < 0.3))
            ref = result_or_error(slice_solve_sym_block_diagonal, *args)
            new = result_or_error(solve_sym_block_diagonal, *args)
            assert fixed_entry_bits(new) == fixed_entry_bits(ref)
            solved += not isinstance(ref, tuple)
        assert solved >= 40

    def test_negative_zero_rows_keep_their_sign(self):
        # einsum would write +0.0 where the outer product writes -0.0
        u, zero_diagonal = np.array([-0.0, 3.0, 3.0, 3.0]), zero_diagonal_blocks(4)
        sol = solve_sym_block_diagonal(u, zero_diagonal, 9.0)
        assert np.signbit(sol.matrix[0, 1:]).all() and np.signbit(sol.matrix[1:, 0]).all()
        assert bits(sol.matrix) == bits(slice_solve_sym_block_diagonal(u, zero_diagonal,
                                                                       9.0).matrix)


# ----------------------------------------------------------------------
# Reference: classify as nested classifiers
# ----------------------------------------------------------------------


def nested_classify(spec: ProblemSpec) -> SolverCase:
    """``classify`` as it was: three nested classifiers, one per form."""
    if not spec.validated:
        spec = validate_spec(spec)

    if spec.shape.is_3d:
        return nested_classify_3d(spec)
    if spec.symmetric:
        return nested_classify_symmetric(spec)
    return nested_classify_rect(spec)


def nested_classify_3d(spec: ProblemSpec) -> SolverCase:
    if spec.element_caps[2].size:
        return SolverCase.UNSUPPORTED
    if spec.total is not None and spec.total.kind != "equal":
        return SolverCase.UNSUPPORTED
    if spec.fixed_cells and not nested_blocks_are_zero_diagonal(spec):
        return SolverCase.UNSUPPORTED
    if spec.sums["row"].known and nested_total_admits_saturation(spec):
        return SolverCase.SYM_3D_FIXED_DIAGONAL
    return SolverCase.UNSUPPORTED


def nested_total_admits_saturation(spec: ProblemSpec) -> bool:
    t = spec.total
    if t is None:
        return True
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        s = float(spec.sums["row"].values().sum())
    return close(t.value, s) if t.kind == "equal" else t.value >= s * (1 - 1e-12)


def nested_blocks_are_zero_diagonal(spec: ProblemSpec) -> bool:
    # validated blocks are disjoint and in range: n singletons cover every node
    c = spec.fixed_cells
    return c.nodes.size == len(c) == spec.shape.rows and not c.values.any()


def nested_classify_symmetric(spec: ProblemSpec) -> SolverCase:
    rows = spec.sums["row"]
    row_kinds = rows.kinds
    if spec.element_caps[2].size:
        return SolverCase.UNSUPPORTED

    if spec.fixed_cells:
        if not (rows.complete and len(row_kinds) == 1):
            return SolverCase.UNSUPPORTED
        if not nested_total_admits_saturation(spec):
            return SolverCase.UNSUPPORTED
        covered = spec.fixed_cells.nodes.size  # disjoint and in range, once validated
        if covered == len(spec.fixed_cells):
            return SolverCase.SYM_FIXED_DIAGONAL
        if covered == spec.shape.rows:
            return SolverCase.SYM_BLOCK_DIAGONAL
        return SolverCase.UNSUPPORTED

    if (
        spec.total is not None
        and spec.total.kind == "equal"
        and row_kinds == {"upper"}
    ):
        return SolverCase.SYM_TOTAL_ROW_COL_BOUNDS
    if rows.known and (spec.total is None or spec.total.kind == "equal"):
        # Symmetric gravity: both marginals known and equal.
        return SolverCase.GRAVITY_PARTIAL_COLS
    if row_kinds == {"upper"} and spec.total is None:
        return SolverCase.ROW_COL_BOUNDS
    return SolverCase.UNSUPPORTED


def nested_classify_rect(spec: ProblemSpec) -> SolverCase:
    if is_column_form(spec):
        return nested_classify_rect(transpose(spec))
    rows = spec.sums["row"]
    row_kinds, col_kinds = rows.kinds, spec.sums["col"].kinds
    total = spec.total

    if spec.fixed_cells:
        # Fixed entries are only solvable under symmetric information.
        return SolverCase.UNSUPPORTED
    if spec.element_caps[2].size:
        if col_kinds or total is not None or "equal" in row_kinds:
            return SolverCase.UNSUPPORTED
        return SolverCase.ROW_BOUNDS_ELEM_BOUNDS

    if rows.known:
        if col_kinds in (set(), {"equal"}) and (total is None or total.kind == "equal"):
            return SolverCase.GRAVITY_PARTIAL_COLS
        return SolverCase.UNSUPPORTED

    bound_axes = ("upper" in row_kinds) + ("upper" in col_kinds)
    if "equal" in row_kinds or "equal" in col_kinds:
        return SolverCase.UNSUPPORTED

    if bound_axes == 2:
        if total is not None:
            return SolverCase.UNSUPPORTED
        return SolverCase.ROW_COL_BOUNDS
    if bound_axes == 1 or (bound_axes == 0 and total is not None):
        if total is None:
            return SolverCase.ROW_BOUNDS
        if total.kind == "equal":
            return SolverCase.TOTAL_ROW_BOUNDS
        return SolverCase.BOUNDED_TOTAL_ROW_BOUNDS
    return SolverCase.UNSUPPORTED


GRID_SUMS = [[5.0, 1.0], [6.0, 2.0], [7.0, 3.0], [8.0, 4.0]]
# how an axis states its sums: (kind, every row or all but the last); "mixed"
# knows the first and bounds the rest
GRID_KINDS = [None] + [(kind, complete) for kind in ("equal", "upper", "mixed")
                       for complete in (True, False)]
# a total's kind and value, as a multiple of every stated sum's sum
GRID_TOTALS = [None, ("equal", 1.0), ("equal", 0.75), ("upper", 1.0), ("upper", 1.5),
               ("upper", 0.75)]
GRID_LAYOUTS = [
    (),
    zero_diagonal_blocks(4),
    (FixedBlock((0,), ((1.0,),)), FixedBlock((1,), ((1.0,),))),  # part of the diagonal
    tuple(FixedBlock((i,), ((1.0,),)) for i in range(4)),
    (FixedBlock((0, 1), ((0.0, 1.0), (1.0, 0.0))),) + zero_diagonal_blocks(4)[2:],
    (FixedBlock((0, 1), ((0.0, 1.0), (1.0, 0.0))), FixedBlock((2,), ((0.0,),))),  # 3 free
]
# a non-symmetric spec with blocks is unsupported whatever they are
RECT_LAYOUTS = GRID_LAYOUTS[:2] + GRID_LAYOUTS[5:]


def grid_marginals(axis, how, slices):
    if how is None:
        return []
    kind, complete = how
    return [MarginalConstraint(axis, i, kind if kind != "mixed" else ("upper", "equal")[i == 0],
                               GRID_SUMS[i][k], k if slices else None)
            for i in range(4 if complete else 3) for k in range(slices or 1)]


def classify_grid():
    """Every valid 4 x 4 spec of the grid: 2-D, 2-D symmetric or 3-D (two
    slices), by row kinds, column kinds (a symmetric spec's mirror the rows
    or are not spelled out), total, one cap or none, and block layout."""
    for slices, symmetric in ((None, False), (None, True), (2, True)):
        full = sum(GRID_SUMS[i][k] for i in range(4) for k in range(slices or 1))
        for rows in GRID_KINDS:
            for cols in GRID_KINDS if not symmetric else (None, rows):
                for total in GRID_TOTALS:
                    for caps in ((), [ElementBound(0, 1, 100.0)]):
                        for blocks in GRID_LAYOUTS if symmetric else RECT_LAYOUTS:
                            spec = ProblemSpec.of(
                                Shape(4, 4, slices),
                                grid_marginals("row", rows, slices)
                                + grid_marginals("col", cols, slices),
                                total=total and TotalConstraint(total[0], total[1] * full),
                                element_bounds=caps, fixed_blocks=blocks, symmetric=symmetric)
                            try:
                                yield validate_spec(spec)
                            except LikelymatError:
                                continue


@st.composite
def classify_specs(draw):
    """A small spec of drawn form, kinds per row and column, total and
    blocks; validation may refuse it."""
    n = draw(st.integers(1, 5))
    slices = draw(st.sampled_from([None, None, 1, 2]))
    symmetric = slices is not None or draw(st.booleans())
    m = n if symmetric else draw(st.integers(1, 5))
    value = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    u = [[draw(value) for _ in range(slices or 1)] for _ in range(n)]
    marginals = []
    for axis, size in (("row", n), ("col", 0 if symmetric else m)):
        for i in range(size):
            kind = draw(st.sampled_from([None, "equal", "upper"]))
            if kind is not None:
                marginals += [MarginalConstraint(axis, i, kind, draw(value) if axis == "col"
                                                 else u[i][k], k if slices else None)
                              for k in range(slices or 1)]
    s = float(np.sum(u))
    total = draw(st.sampled_from([None, "equal", "upper"]))
    total = total and TotalConstraint(total, draw(st.sampled_from([s, s, 0.5 * s, 2.0 * s])))
    caps = [ElementBound(draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)), 4.0)
            for _ in range(draw(st.integers(0, 2)))]
    covered = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    pair = 2 if len(covered) >= 2 and draw(st.booleans()) else 0
    zero = draw(st.booleans())
    blocks = [FixedBlock(tuple(covered[:2]), ((0.0, 0.5), (0.5, 0.0)))] if pair else []
    blocks += [FixedBlock((i,), ((0.0 if zero else 1.0,),)) for i in covered[pair:]]
    return ProblemSpec.of(Shape(n, m, slices), marginals, total=total, element_bounds=caps,
                          fixed_blocks=blocks, symmetric=symmetric)


class TestCaseTable:
    """``classify``'s case table against the nested classifiers it replaced."""

    def test_the_grid(self):
        specs = list(classify_grid())
        cases = [classify(spec) for spec in specs]
        assert cases == [nested_classify(spec) for spec in specs]
        assert set(cases) == set(SolverCase)  # every case, and unsupported, occurs
        assert len(specs) > 1500

    @settings(max_examples=250)
    @given(classify_specs())
    def test_drawn_specs(self, spec):
        assert result_or_error(classify, spec) == result_or_error(nested_classify, spec)
