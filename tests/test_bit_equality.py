"""The numpy solver core against the scalar loops it replaced, bit for bit.

The reference below is the loop code that ``RootProblem``, the root solver,
``branch_factors``, ``series_approx_xi``, ``_root_factors`` and the
water-fill ran before they were vectorised, kept verbatim apart from names.
The vectorised code promises the same floating-point operations in the same
order, so every comparison here is ``==``, never a tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from likelymat import BoundedVectorProblem, BracketFailure, InvariantViolation, RootProblem
from likelymat.constraints import close
from likelymat.symmetric import (
    SCAN_LIMIT,
    _root_factors,
    branch_factors,
    series_approx_xi,
    solve_root_lambda,
)
from likelymat.waterfill import (
    find_k_vector,
    waterfill_bounded_sum,
    waterfill_equal_sum,
    waterfill_rows,
)

SIZES = (1, 7, 8, 9, 127, 128, 129, 2000)


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
    if a > total:
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
                assert bits(new.f_prime(lam)) == bits(ref.f_prime(lam))
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
                try:
                    ref = loop_root_factors(r, groups, 1e-12)
                except AssertionError:
                    with pytest.raises(Exception):
                        _root_factors(r, groups, 1e-12)
                    continue
                problem, lam, factors = _root_factors(r, groups, 1e-12)
                assert problem.r == ref[0].r and problem.m == ref[0].m
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
            x, k, mu, order = waterfill_rows(a, W)
            for i in range(rows):
                rx, rk, rmu, rorder = loop_waterfill_bounded_sum(float(a[i]), W[i])
                assert bits(x[i]) == bits(rx)
                assert (int(k[i]), bits(mu[i]), tuple(order[i].tolist())) == (
                    rk, bits(rmu), rorder)

    def test_one_row_functions(self, rng):
        for n in SIZES:
            a, W = random_caps(rng, 3 if n == 2000 else 20, n)
            for ai, b in zip(a.tolist(), W):
                p = BoundedVectorProblem(ai, tuple(b.tolist()))
                res = waterfill_bounded_sum(p)
                ref = loop_waterfill_bounded_sum(ai, b)
                assert (bits(res.x), res.k, bits(res.mu), res.permutation) == (
                    bits(ref[0]), ref[1], bits(ref[2]), ref[3])
                if math.isfinite(ai) and ai <= float(b.sum()):
                    res = waterfill_equal_sum(p)
                    ref = loop_waterfill_equal_sum(ai, b)
                    assert (bits(res.x), res.k, bits(res.mu), res.permutation) == (
                        bits(ref[0]), ref[1], bits(ref[2]), ref[3])
                bs = np.sort(b)
                target = min(ai, float(bs.sum()))
                assert find_k_vector(target, bs) == loop_find_k_vector(target, bs)

    def test_unsorted_bounds_fail_alike(self, rng):
        for _ in range(200):
            b = rng.uniform(0.0, 5.0, int(rng.integers(2, 10)))
            b[rng.random(b.size) < 0.2] = np.inf
            a = float(rng.uniform(0.0, 1.0)) * float(np.where(np.isfinite(b), b, 0).sum())
            try:
                expected = loop_find_k_vector(a, b)
            except InvariantViolation:
                with pytest.raises(InvariantViolation, match="nonincreasing"):
                    find_k_vector(a, b)
            else:
                assert find_k_vector(a, b) == expected

    def test_blocks_of_rows_agree_with_one_block(self, rng):
        # 400 rows of 200 columns span two blocks of about 2^16 cells
        a, W = random_caps(rng, 400, 200)
        x, k, mu, order = waterfill_rows(a, W)
        for i in (0, 1, 327, 328, 399):
            one = waterfill_rows(a[i:i + 1], W[i:i + 1])
            assert bits(x[i]) == bits(one[0][0]) and k[i] == one[1][0]
            assert bits(mu[i]) == bits(one[2][0])
