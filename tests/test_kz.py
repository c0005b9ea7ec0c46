"""Frobenius solutions, analytic continuation, monodromy, oracle comparisons."""
import copy
import functools
import hashlib
import math
from fractions import Fraction as Q

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dahakz.affine as aw
import dahakz.kz as kz
import dahakz.linalg as la
import dahakz.transport as tr
from dahakz.affine import HEART, HeckeParams
from dahakz.errors import ScopeError
from dahakz.modules import degenerate_fiber, standard_module
from dahakz.rootdata import type_a
from dahakz.scalars import Gaussian, to_mpc
from dahakz.transport import _IntegerBasis

D1 = type_a(1)
D2 = type_a(2)
P1 = HeckeParams.degenerate(Q(1, 2))


def _a1_problem(mu0=(Q(-3, 4),), prec=128):
    fiber = degenerate_fiber(D1, P1, mu0)
    return kz.trig_problem(D1, P1, fiber, prec=prec)


def test_frobenius_scalar_exponential():
    # z f' = (m + z) f has f = z^m e^z, so H_k = 1/k!
    prob = kz.scalar_problem(Q(1, 4), prec=128)
    sol = kz.frobenius_series(prob, 10)
    with mpmath.workprec(128):
        for k in range(1, 11):
            expect = mpmath.mpf(1) / mpmath.factorial(k)
            assert abs(sol.coeffs[(k,)][0, 0] - expect) < mpmath.mpf("1e-30")
        assert sol.residual < mpmath.mpf("1e-30")


def test_frobenius_constant_is_identity():
    with mpmath.workprec(128):
        a0 = [mpmath.matrix([[mpmath.mpf(1) / 3, mpmath.mpf(1)],
                             [mpmath.mpf(0), mpmath.mpf(1) / 7]])]
        prob = kz.ConnectionProblem(a0, prec=128)
        sol = kz.frobenius_series(prob, 6)
        for gamma, mat in sol.coeffs.items():
            if any(gamma):
                assert kz._maxnorm(mat) == 0


def _a1_jet_problem(n, prec=128):
    # parabolic A1 fiber on the orbit of 1/4 with jets of order n; at n = 2
    # xi (hence A_0) has Jordan blocks
    mu0 = (Q(1, 4),)
    points = sorted({tuple(D1.w_act_weight(w, mu0)) for w in range(D1.w_order)})
    fiber = kz.parabolic_fiber(D1, P1, (0,), points, n)
    return kz.trig_problem(D1, P1, fiber, prec=prec)


def test_trig_problem_refuses_leaking_and_aha_modules():
    # a windowed module is no fiber: s_0 moves its longest elements out
    with pytest.raises(ScopeError, match="leaked"):
        kz.trig_problem(D1, P1, standard_module(D1, P1, (Q(1, 4),), window=2))
    aha = HeckeParams.from_exponent(Q(1, 2))
    ell = aw.TorusPoint.from_exponent(D1, (Q(1, 5),))
    with pytest.raises(ScopeError):
        kz.trig_problem(D1, aha, standard_module(D1, aha, ell, side="aha"))


def _a2_deep_problem(prec=128):
    params = HeckeParams.degenerate(Q(1, 3))
    fiber = degenerate_fiber(D2, params, (Q(-4, 5), Q(-6, 7)))
    return kz.trig_problem(D2, params, fiber, prec=prec)


def test_frobenius_fiber_residual_tiny():
    for prob in (_a1_problem(prec=256), _a1_jet_problem(2, prec=256),
                 _a2_deep_problem(prec=128)):
        sol = kz.frobenius_series(prob, 8)
        with mpmath.workprec(prob.prec):
            assert sol.residual < mpmath.mpf("1e-20")


def _per_delta_support(problem, order):
    """{delta: [A_{j,delta} or None per j]}: the series data expanded term by term."""
    support = {}

    def add(delta, j, mat):
        mats = support.setdefault(delta, [None] * problem.rank)
        mats[j] = mat if mats[j] is None else la.mat_add(mats[j], mat)

    for beta, proj in problem.terms_exact:
        for k in range(1, order // sum(beta) + 1):
            for j, bj in enumerate(beta):
                if bj:
                    add(tuple(k * b for b in beta), j,
                        la.mat_scale(proj, problem.h_exact * bj))
    for gamma, mats in problem.extra_exact.items():
        for j, mat in enumerate(mats):
            if mat is not None and 0 < sum(gamma) <= order:
                add(gamma, j, mat)
    return support


def _fraction_sylvester(a0, order, shift, rhs):
    """H with H (shift + A) - A H = rhs over the rationals, by back-substitution
    in a basis order that makes A upper triangular: the oracle of the integer solve."""
    n = len(a0)
    h = la.zeros(n, n)
    for a in reversed(order):
        for b in order:
            acc = rhs[a][b]
            for c in range(n):
                if c != b and a0[c][b]:
                    acc -= h[a][c] * a0[c][b]
                if c != a and a0[a][c]:
                    acc += a0[a][c] * h[c][b]
            h[a][b] = acc / (shift + a0[b][b] - a0[a][a])
    return h


def _per_delta_exact_solve(problem, order):
    """The exact H_gamma with every right-hand side summed delta by delta."""
    support = _per_delta_support(problem, order)
    basis_order = la.triangular_order(problem.a0_exact)
    exact = {(0,) * problem.rank: la.identity(problem.dim)}
    for gamma in kz._multi_indices(problem.rank, order):
        j0 = next(j for j in range(problem.rank) if gamma[j])
        rhs = la.zeros(problem.dim, problem.dim)
        for delta, mats in support.items():
            prev = exact.get(tuple(g - d for g, d in zip(gamma, delta)))
            if prev is not None and mats[j0] is not None:
                rhs = la.mat_add(rhs, la.mat_mul(mats[j0], prev))
        exact[gamma] = _fraction_sylvester(problem.a0_exact[j0], basis_order, gamma[j0], rhs)
    return exact


def _mp_residual(problem, coeffs, order, prec):
    """The Sylvester residual of coeffs, every product evaluated in mpmath at prec."""
    support = _per_delta_support(problem, order)
    with mpmath.workprec(prec):
        a0 = [kz._to_mp(m) for m in problem.a0_exact]
        support_mp = {d: [None if m is None else kz._to_mp(m) for m in mats]
                      for d, mats in support.items()}
        ident = mpmath.eye(problem.dim)
        residual = mpmath.mpf(0)
        for gamma, hg in coeffs.items():
            scale = max(mpmath.mpf(1), kz._maxnorm(hg))
            for j in range(problem.rank):
                rhs = mpmath.zeros(problem.dim)
                for delta, mats in support_mp.items():
                    rest = tuple(g - d for g, d in zip(gamma, delta))
                    if mats[j] is not None and min(rest) >= 0:
                        rhs += mats[j] * (coeffs[rest] if any(rest) else ident)
                res = hg * (gamma[j] * ident + a0[j]) - a0[j] * hg - rhs
                residual = max(residual, kz._maxnorm(res) / scale)
        return residual


def test_series_residual_is_exact_and_not_a_tautology():
    for prob in (_a1_problem(prec=256), _a1_jet_problem(2, prec=256),
                 _a2_deep_problem(prec=128)):
        sol = kz.frobenius_series(prob, 8)
        with mpmath.workprec(prob.prec):
            # the same residual with every product in mpmath, 64 bits wider
            ref = _mp_residual(prob, sol.coeffs, 8, prob.prec + 64)
            assert abs(sol.residual - ref) <= mpmath.mpf("1e-10") * ref
            # perturb the largest entry of the first coefficient by 2^-80, in
            # the rounded entries the residual is formed from
            gamma = next(iter(sol.coeffs))
            hg = [list(row) for row in sol._rounded[gamma]]
            r, c = max(((r, c) for r in range(prob.dim) for c in range(prob.dim)),
                       key=lambda rc: abs(mpmath.mpf(hg[rc[0]][rc[1]])))
            hg[r][c] = (mpmath.mpf(hg[r][c]) * (1 + mpmath.ldexp(1, -80)))._mpf_
            bumped = dict(sol._rounded)
            bumped[gamma] = hg
            assert kz._series_residual(prob, bumped) > mpmath.mpf("1e-26")


def test_series_residual_follows_precision():
    for prec in (64, 128, 256, 512):
        for prob in (kz.scalar_problem(Q(1, 4), prec=prec), _a1_problem(prec=prec)):
            sol = kz.frobenius_series(prob, 8)
            with mpmath.workprec(prec):
                assert sol.residual < mpmath.ldexp(1, -(prec - 12))


def test_running_sums_keep_the_coefficients():
    prob = _a2_deep_problem(prec=128)
    sol = kz.frobenius_series(prob, 6)
    exact = _per_delta_exact_solve(prob, 6)
    with mpmath.workprec(prob.prec):
        for gamma, mat in sol.coeffs.items():
            for r in range(prob.dim):
                for c in range(prob.dim):
                    assert mat[r, c] == kz.to_mpc(exact[gamma][r][c])


def _dense_rhs(problem, coeffs, sums, gamma, js, ring):
    """The series right-hand sides as products of whole matrices, term by term."""
    mul, add, weighted, extra = ring
    runs = {}
    for k, (beta, _) in enumerate(problem.terms_exact):
        rest = tuple(g - b for g, b in zip(gamma, beta))
        if rest in coeffs:
            runs[k] = sums[k][gamma] = coeffs[rest] if rest not in sums[k] \
                else add(coeffs[rest], sums[k].pop(rest))
    out = []
    for j in js:
        out.append([mul(weighted[k][j], run) for k, run in runs.items()
                    if problem.terms_exact[k][0][j]])
        for delta, mat in extra[j]:
            rest = tuple(g - d for g, d in zip(gamma, delta))
            if rest in coeffs:
                out[-1].append(mul(mat, coeffs[rest]))
    return out


def _dense_mul(a, b):
    """Product of integer matrices."""
    cols = list(zip(*b))
    return [[sum(map(int.__mul__, row, col)) for col in cols] for row in a]


def _dense_comb(*terms):
    """The sum of c M over the pairs (c, M), M an integer matrix."""
    return [[sum(c * m[r][col] for c, m in terms) for col in range(len(row))]
            for r, row in enumerate(terms[0][1])]


def _dense_residual(problem, coeffs):
    """The exact series residual with dense integer products.

    The same statement as kz._series_residual: the dyadic coefficients over
    one 2^F and the data over one denominator, the largest square over
    gamma and j, and one rounding at the end.
    """
    n, rank, basis = problem.dim, problem.rank, _IntegerBasis(problem)
    raw = {g: [[mpmath.mpf(x.real)._mpf_ for x in row] for row in m.tolist()]
           for g, m in coeffs.items()}
    f = max([0] + [-e for m in raw.values() for row in m for _, man, e, _ in row if man])
    hint = {g: [[(1 - 2 * sign) * (man << (e + f)) for sign, man, e, _ in row] for row in m]
            for g, m in raw.items()}
    hint[(0,) * rank] = [[int(r == c) << f for c in range(n)] for r in range(n)]
    hn, hd = problem.h_exact.numerator, problem.h_exact.denominator
    ring = (_dense_mul, lambda a, b: _dense_comb((1, a), (1, b)),
            [[_dense_comb((hn * bj, basis.mats[rank + k])) for bj in beta]
             for k, (beta, _) in enumerate(problem.terms_exact)],
            [[(d, _dense_comb((hd, basis.mats[b]))) for d, b in basis.extra_of[j] if any(d)]
             for j in range(rank)])
    sums, worst = [{} for _ in problem.terms_exact], (0, 1)
    for gamma in sorted(coeffs, key=sum):
        hg = hint[gamma]
        scale = max([1 << 2 * f] + [x * x for row in hg for x in row])
        for j, parts in enumerate(_dense_rhs(problem, hint, sums, gamma, range(rank), ring)):
            a = basis.mats[j]
            res = _dense_comb((hd * gamma[j] * basis.den, hg), (hd, _dense_mul(hg, a)),
                              (-hd, _dense_mul(a, hg)), *((-1, p) for p in parts))
            top = max(x * x for row in res for x in row)
            if top * worst[1] > worst[0] * scale:
                worst = (top, scale)
    return mpmath.sqrt(mpmath.mpf(worst[0]) / (worst[1] * (basis.den * hd) ** 2))


def _check_series_exact(prob, order):
    """frobenius_series against the per-delta exact solve and the dense residual.

    Every coefficient is to_mpc of the exact H_gamma, bit for bit; every
    integer form in sol.exact is gcd-reduced and equal to H_gamma; and the
    residual equals the dense one exactly.
    """
    sol = kz.frobenius_series(prob, order)
    exact = _per_delta_exact_solve(prob, order)
    indices = kz._multi_indices(prob.rank, order)
    assert list(sol.coeffs) == indices and list(sol.exact) == [(0,) * prob.rank] + indices
    for gamma in indices:
        d, m = sol.exact[gamma]
        assert d > 0 and math.gcd(d, *(x for row in m for x in row)) == 1
        for r in range(prob.dim):
            for c in range(prob.dim):
                assert Q(m[r][c], d) == exact[gamma][r][c]
    with mpmath.workprec(prob.prec):
        for gamma, mat in sol.coeffs.items():
            for r in range(prob.dim):
                for c in range(prob.dim):
                    want = kz.to_mpc(exact[gamma][r][c])
                    assert mpmath.mpc(mat[r, c])._mpc_ == want._mpc_
        assert sol.residual._mpf_ == _dense_residual(prob, sol.coeffs)._mpf_
    return sol


def test_integer_series_matches_the_exact_solve():
    # Jordan blocks in A_0, a long A1 series, and a direct sum whose third
    # summand has an extra coefficient other than 1
    third = kz.ConnectionProblem([[[Q(2, 3)]]], prec=128, extra={(1,): [[[Q(-1, 3)]]]})
    apart = kz.direct_sum(kz.direct_sum(kz.scalar_problem(Q(1, 4), prec=128),
                                        kz.scalar_problem(Q(-2, 5), prec=128)), third)
    for prob, order in ((_a1_jet_problem(2, prec=128), 16),
                        (_a1_problem(prec=256), 20), (apart, 12)):
        sol = _check_series_exact(prob, order)
        assert sol.residual < mpmath.ldexp(1, -(prob.prec - 16))


def test_a2_series_exact_fingerprint():
    # the integer forms of the A2 deep fiber's series (mu0 = (-4/5, -6/7),
    # h = 1/3, order 8) are fixed by the mathematics, whatever computes them;
    # they are hashed as (d, M, None), the layout that once had room for an
    # imaginary part, so that the digest stays comparable
    sol = kz.frobenius_series(_a2_deep_problem(prec=128), 8)
    assert len(sol.exact) == 45
    forms = sorted((g, (d, m, None)) for g, (d, m) in sol.exact.items())
    digest = hashlib.sha256(repr(forms).encode()).hexdigest()
    assert digest == "b5b0fd0fbe19199b31949afd4847e5e250aa4171259aa1f147f1a439c1c23afd"


@st.composite
def _small_problems(draw):
    """A random upper-triangular non-resonant rational problem with a term and an extra."""
    rank, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    # diagonal entries r/5 + j/7 + an integer never differ by an integer
    a0 = [[[Q(r, 5) + Q(j, 7) + draw(st.integers(-2, 2)) if r == c
            else draw(small) if c > r else Q(0) for c in range(n)] for r in range(n)]
          for j in range(rank)]
    roots = [(1,)] if rank == 1 else [(1, 0), (0, 1), (1, 1)]

    def matrix():
        return [[draw(small) for _ in range(n)] for _ in range(n)]

    beta, delta = draw(st.sampled_from(roots)), draw(st.sampled_from(roots + [(2,) * rank]))
    extra = {delta: [matrix() if j == 0 or draw(st.booleans()) else None
                     for j in range(rank)]}
    h = draw(st.fractions(min_value=Q(1, 7), max_value=2, max_denominator=7))
    return kz.ConnectionProblem(a0, terms=[(beta, matrix())], extra=extra, h=h, prec=64)


@settings(max_examples=30, deadline=None)
@given(prob=_small_problems(), order=st.integers(1, 6))
def test_integer_series_matches_the_exact_solve_on_random_problems(prob, order):
    _check_series_exact(prob, order)


def test_frobenius_series_makes_no_mpmath_products(monkeypatch):
    # the residual is exact: no mpmath matrix product may creep back
    prob = _a2_deep_problem(prec=128)
    calls = []
    mul = mpmath.matrix.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(mpmath.matrix, "__mul__", counted)
    sol = kz.frobenius_series(prob, 8)
    assert len(calls) == 0
    assert sol.residual < mpmath.mpf("1e-20")


def test_frobenius_resonance_is_exact():
    from dahakz.errors import ScopeError
    resonant = kz.direct_sum(kz.scalar_problem(Q(1, 4), prec=128),
                             kz.scalar_problem(Q(5, 4), prec=128))
    for order in (1, 4):
        with pytest.raises(ScopeError, match="resonant"):
            kz.frobenius_series(resonant, order)
    # exponents differing by order + 1 are not resonant up to that order
    order = 4
    apart = kz.direct_sum(kz.scalar_problem(Q(1, 4), prec=128),
                          kz.scalar_problem(Q(1, 4) + order + 1, prec=128))
    sol = kz.frobenius_series(apart, order)
    assert sol.residual < mpmath.mpf("1e-30")


def test_frobenius_needs_triangular_constant_term():
    # A_0 = [[0, 1], [1, 0]] has no basis order making it triangular
    from dahakz.errors import ScopeError
    a0 = [[Q(0), Q(1)], [Q(1), Q(0)]]
    extra = {(1,): [[[Q(1), Q(0)], [Q(0), Q(1)]]]}
    prob = kz.ConnectionProblem([a0], extra=extra, prec=128)
    with pytest.raises(ScopeError, match="triangular"):
        kz.frobenius_series(prob, 3)


def test_flatness_of_fiber_connection():
    out = kz.flatness_check(_a1_problem(), npoints=20)
    assert out["ok"]
    assert out["constant_commute"] < mpmath.mpf("1e-30")


def test_flatness_a2():
    params = HeckeParams.degenerate(Q(1, 3))
    fiber = degenerate_fiber(D2, params, (Q(-4, 5), Q(-6, 7)))
    prob = kz.trig_problem(D2, params, fiber, prec=128)
    out = kz.flatness_check(prob, npoints=10)
    assert out["ok"]


def _gauge_problem():
    # G = H z^{A_0} with H = I + x E_01, x = z1 + z1 z2^2, and A_{j0} =
    # diag(d_j, 0), d = (1/2, 5/2): the gauge transform of z^{A_0}, so the
    # problem is flat, with A_j = A_{j0} + (z_j d/dz_j x - d_j x) E_01
    def e01(c):
        return [[Q(0), Q(c)], [Q(0), Q(0)]]

    a0 = [[[Q(1, 2), Q(0)], [Q(0), Q(0)]], [[Q(5, 2), Q(0)], [Q(0), Q(0)]]]
    extra = {(1, 0): [e01(Q(1, 2)), e01(Q(-5, 2))],
             (1, 2): [e01(Q(1, 2)), e01(Q(-1, 2))]}
    return kz.ConnectionProblem(a0, extra=extra, prec=128)


def test_flatness_of_a_gauge_transform_with_noncommuting_terms():
    # [A_1, A_2] != 0 here: the identity that the flat sections
    # z_j d/dz_j G = A_j G need adds it to the derivative terms
    prob = _gauge_problem()
    assert prob.flatness_residual((Q(1, 3), Q(2, 5))) == 0
    assert kz.flatness_check(prob)["ok"]


def test_flatness_check_fails_on_a_perturbed_problem():
    # doubling the projector of one root breaks integrability
    prob = _a2_deep_problem()
    assert kz.flatness_check(prob)["worst"] == 0
    terms = list(prob.terms_exact)
    beta, proj = terms[0]
    terms[0] = (beta, la.mat_scale(proj, 2))
    bad = kz.ConnectionProblem(prob.a0_exact, terms=terms, h=prob.h_exact,
                               prec=prob.prec)
    out = kz.flatness_check(bad, npoints=5)
    assert not out["ok"] and out["worst"] > mpmath.mpf("1e-3")
    # the exact squared scaled residual; its square root, 0.01125329...,
    # is what an mpmath evaluation at 128 bits gives
    assert bad.flatness_residual((Q(1, 3), Q(2, 5))) == Q(67076100, 529673917369)


def _holds_mpmath(x) -> bool:
    if isinstance(x, (mpmath.mpf, mpmath.mpc, mpmath.matrix)):
        return True
    if isinstance(x, dict):
        return any(_holds_mpmath(k) or _holds_mpmath(v) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return any(_holds_mpmath(v) for v in x)
    return False


def _mpmath_constant_term():
    with mpmath.workprec(256):
        return mpmath.matrix([[mpmath.mpf(1) / 3, mpmath.mpf(-2) / 7],
                              [mpmath.mpf(0), mpmath.sqrt(2)]])


def test_problems_keep_no_mpmath_copy():
    for prob in (_a1_problem(), _a2_deep_problem(), _a1_jet_problem(2),
                 kz.ConnectionProblem([_mpmath_constant_term()], prec=256)):
        assert not any(_holds_mpmath(v) for v in vars(prob).values())
        assert all(type(b) is Q for b in prob.base)


def test_constant_problem_keeps_mpmath_input_bit_for_bit():
    a0 = _mpmath_constant_term()
    prob = kz.ConnectionProblem([a0], prec=256)
    with mpmath.workprec(256):
        back = kz._to_mp(prob.a0_exact[0])
        for r in range(2):
            for c in range(2):
                assert mpmath.mpc(back[r, c])._mpc_ == mpmath.mpc(a0[r, c])._mpc_


def test_connection_problem_refuses_non_real_data():
    # the data are real, decided once at construction: a Gaussian entry in
    # A_{j0}, in a projector or in an extra coefficient, or a complex mpmath
    # entry of A_{j0}, is refused before anything is built from it
    i = Gaussian(0, 1)
    one = [[Q(1)]]
    with pytest.raises(ScopeError, match="real: A_00"):
        kz.ConnectionProblem([[[Q(1, 3) + i]]])
    with pytest.raises(ScopeError, match="real: the projector of"):
        kz.ConnectionProblem([[[Q(1, 3)]]], terms=[((1,), [[i]])], h=Q(1, 2))
    with pytest.raises(ScopeError, match="real: the extra coefficient"):
        kz.ConnectionProblem([[[Q(1, 3)]]], extra={(1,): [[[i]]]}, prec=64)
    with pytest.raises(ScopeError, match="real: the extra coefficient"):
        kz.ConnectionProblem([one, one], extra={(1, 0): [None, [[i / 2]]]})
    with mpmath.workprec(64):
        a0 = mpmath.matrix([[mpmath.mpf(1) / 3, mpmath.mpc(1, -2) / 7],
                            [mpmath.mpf(0), mpmath.sqrt(2)]])
    with pytest.raises(ScopeError, match="real: A_00"):
        kz.ConnectionProblem([a0], prec=64)
    # so are a non-real h and a non-real coordinate of the base point
    with pytest.raises(ScopeError, match="real: h"):
        kz.ConnectionProblem([[[Q(1, 3)]]], extra={(1,): [[[Q(1)]]]}, h=i)
    with pytest.raises(ScopeError, match="real: the base point"):
        kz.ConnectionProblem([one, one], base=(Q(1, 2), Q(1, 3) + i))
    # a Gaussian or an mpmath number with no imaginary part is real
    prob = kz.ConnectionProblem([[[Gaussian(Q(1, 3))]]], extra={(1,): [[[mpmath.mpc(1)]]]})
    assert prob.a0_exact == [[[Q(1, 3)]]] and prob.extra_exact == {(1,): [[[Q(1)]]]}
    assert all(type(x) is Q for x in (prob.a0_exact[0][0][0], prob.extra_exact[(1,)][0][0][0]))


def test_transport_empty_path_is_identity():
    prob = kz.scalar_problem(Q(1, 4), prec=128)
    t = kz.continue_transport(prob, [], rtol=1e-9)
    assert abs(t[0, 0] - 1) < mpmath.mpf("1e-25")


def test_scalar_loop_multiplier():
    prob = kz.scalar_problem(Q(1, 4), prec=128)
    t = kz.continue_transport(prob, kz.loop_path(prob.base, 0), rtol=1e-14)
    with mpmath.workprec(128):
        assert abs(t[0, 0] - mpmath.exp(mpmath.pi * 1j / 2)) \
            < mpmath.mpf("1e-12")


def test_transport_concatenation():
    prob = kz.scalar_problem(Q(1, 3), prec=128)
    loop = kz.loop_path(prob.base, 0)
    once = kz.continue_transport(prob, loop, rtol=1e-12)
    twice = kz.continue_transport(prob, loop + loop, rtol=1e-12)
    assert abs(twice[0, 0] - once[0, 0] ** 2) < mpmath.mpf("1e-10")


def test_loop_homotopy_invariance():
    prob = _a1_problem()
    with mpmath.workprec(prob.prec):
        t1 = kz.continue_transport(prob, kz.loop_path(prob.base, 0, nseg=1),
                                   rtol=1e-10)
        t3 = kz.continue_transport(prob, kz.loop_path(prob.base, 0, nseg=3),
                                   rtol=1e-10)
        assert kz._maxnorm(t1 - t3) < mpmath.mpf("1e-8")


def test_direct_sum_blocks():
    p1 = kz.scalar_problem(Q(1, 4), prec=128)
    p2 = kz.scalar_problem(Q(1, 3), prec=128)
    both = kz.direct_sum(p1, p2)
    loop = kz.loop_path(both.base, 0)
    t = kz.continue_transport(both, loop, rtol=1e-10)
    t1 = kz.continue_transport(p1, kz.loop_path(p1.base, 0), rtol=1e-10)
    t2 = kz.continue_transport(p2, kz.loop_path(p2.base, 0), rtol=1e-10)
    with mpmath.workprec(128):
        assert abs(t[0, 1]) < mpmath.mpf("1e-20")
        assert abs(t[1, 0]) < mpmath.mpf("1e-20")
        assert abs(t[0, 0] - t1[0, 0]) < mpmath.mpf("1e-8")
        assert abs(t[1, 1] - t2[0, 0]) < mpmath.mpf("1e-8")


def test_monodromy_relations_a1():
    rep = kz.monodromy(_a1_problem(), order=16, rtol=1e-9)
    with mpmath.workprec(rep["prec"]):
        for v in rep["residuals"].values():
            assert v < mpmath.mpf("1e-8")


def test_y_spectrum_matches_orbit():
    mu0 = (Q(-3, 4),)
    rep = kz.monodromy(_a1_problem(mu0), order=16, rtol=1e-9)
    expected = [aw.TorusPoint.from_exponent(D1, mu0),
                aw.TorusPoint.from_exponent(
                    D1, tuple(D1.w_act_weight(D1.w_simple[0], mu0)))]
    out = kz.y_spectrum_check(rep, expected)
    assert out["ok"]
    # the n = 2 jet fiber: each orbit point has generalized multiplicity 2
    # and one eigenvector, and the multiplicity is part of the check
    rep = kz.monodromy(_a1_jet_problem(2), order=16, rtol=1e-9,
                       check_relations=False)
    expected = [aw.TorusPoint.from_exponent(D1, (mu,))
                for mu in (Q(-1, 4), Q(1, 4)) for _ in range(2)]
    out = kz.y_spectrum_check(rep, expected)
    assert out["ok"] and out["count"] == 2
    assert not kz.y_spectrum_check(rep, expected[::2])["ok"]


def test_joint_weight_vectors_are_exact():
    # xi_j v = lambda_j v exactly; multiplicities add up to the dimension
    cases = ((_a1_problem((Q(3, 4),)), 2), (_a1_jet_problem(2), 2),
             (_a2_deep_problem(), 6))
    for prob, count in cases:
        n = prob.dim
        xis = [[[(prob.rho_tilde[j] if r == c else 0) - a0[r][c]
                 for c in range(n)] for r in range(n)]
               for j, a0 in enumerate(prob.a0_exact)]
        found = kz._joint_weight_vectors(prob)
        assert sum(mult for _, mult, _ in found) == n
        vectors = [(lam, v) for lam, _, basis in found for v in basis]
        assert len(vectors) == count
        for lam, v in vectors:
            assert any(v)
            for xi, lj in zip(xis, lam):
                assert la.mat_vec(xi, v) == [lj * x for x in v]


def test_joint_weights_differing_by_integers_raise():
    # weights 5/2 and -5/2 both exponentiate to -1: the y-eigenspaces merge
    with pytest.raises(ScopeError, match="integer vector"):
        kz._joint_weight_vectors(_a1_problem((Q(5, 2),)))


def test_rank_one_oracle_special_value():
    # b at argument 3/2 equals 3 pi / 8 when h = 1/2
    out = kz.rank_one_oracle(Q(-3, 2), Q(1, 2), prec=128)
    with mpmath.workprec(128):
        assert abs(out["b"] - 3 * mpmath.pi / 8) < mpmath.mpf("1e-16")


def test_rank_one_oracle_pole_guard():
    from dahakz.errors import ScopeError
    with pytest.raises(ScopeError):
        kz.rank_one_oracle(Q(1), Q(1, 2), prec=64)


def test_rank_one_oracle_refuses_every_integer_gamma():
    # a(-gamma) divides by e^{-gamma} - 1, which vanishes at every integer
    # gamma; at the negative ones no Gamma argument has a pole
    for gamma in (-5, -2, -1, 0, 2):
        with pytest.raises(ScopeError):
            kz.rank_one_oracle(Q(gamma), Q(1, 2), prec=64)


def test_rank_one_oracle_evaluates_near_a_pole():
    # 1 - gamma = -1/10^15 is close to the pole at 0 but not on it
    gamma, h = 1 + Q(1, 10**15), Q(1, 2)
    out = kz.rank_one_oracle(gamma, h, prec=128)
    with mpmath.workprec(256):
        z = -mpmath.mpf(gamma.numerator) / gamma.denominator
        want = mpmath.gammaprod([z, 1 + z], [h + z, 1 - h + z])
        assert mpmath.isfinite(out["b"].real)
        assert abs(out["b"] - want) < abs(want) * mpmath.mpf("1e-20")


def test_rank_one_engine_agrees_with_oracle():
    out = kz.rank_one_check(D1, P1, (Q(-3, 4),), prec=128, order=16,
                            rtol=1e-9)
    with mpmath.workprec(128):
        assert out["residual_a"] < mpmath.mpf("1e-8")
        assert out["residual_b"] < mpmath.mpf("1e-8")


@pytest.mark.parametrize("mu", [Q(-3, 4), Q(3, 8), Q(-1, 8), Q(1, 8)])
def test_rank_one_oracle_to_full_precision(mu):
    # neither the transport nor the series start caps the digits, and the
    # Gamma oracle confirms the bits the monodromy reports, less a few that
    # the uncertified composition G^-1 T^-1 S G may lose
    out = kz.rank_one_check(D1, P1, (mu,), prec=256, order=20, rtol=1e-10)
    with mpmath.workprec(256):
        worst = max(out["residual_a"], out["residual_b"])
        assert worst < mpmath.mpf("1e-25")
        assert out["rep"]["accuracy_bits"] <= -mpmath.log(worst, 2) + 16


@pytest.fixture(scope="module")
def a2_deep_rep():
    # one run shared by the tests that read it
    return kz.monodromy(_a2_deep_problem(prec=128), order=16, rtol=1e-9)


def test_a2_deep_fiber_relations_to_full_precision(a2_deep_rep):
    # the Bernstein relation is the one that mixes the closed-form Y_j with
    # T_j, so only it sees an error of G at the base point
    rep = a2_deep_rep
    with mpmath.workprec(128):
        for v in rep["residuals"].values():
            assert v < mpmath.mpf("1e-15")
        bits = rep["accuracy_bits"]
        assert rep["residuals"]["bernstein"] <= mpmath.mpf(2) ** (16 - bits)
    assert bits >= 100


def test_a2_deep_transport_bits_are_pinned(a2_deep_rep):
    # the rank-2 transport (a 6-dimensional fiber, three walls, complex
    # steps) is run by no benchmark workload, so its bits are pinned here:
    # every mantissa and exponent of T and Y, and accuracy_bits
    rep = a2_deep_rep
    parts = [[x._mpc_ if isinstance(x, mpmath.mpc) else (x._mpf_,) for x in m]
             for m in rep["T"] + rep["Y"]]
    digest = hashlib.sha256(repr((parts, rep["accuracy_bits"])).encode()).hexdigest()
    assert rep["accuracy_bits"] == 126
    assert digest == "b4d6217e5ba632709fd3354d7260afb3c42b915980426da171d023005d9118d4"


@pytest.mark.parametrize("make, prec", [
    (lambda p: _a1_problem((Q(-3, 4),), p), 128),
    (lambda p: _a1_problem((Q(1, 8),), p), 128),
    (lambda p: _a1_jet_problem(2, p), 128),
    (lambda p: _a2_deep_problem(p), 64)], ids=["A1-3/4", "A1+1/8", "A1-jets", "A2"])
def test_series_start_bound_is_honest_against_higher_precision(make, prec):
    # G at the base point from the ray series at prec and at 2 prec bits:
    # the two differ by at most the sum of their certified bounds
    low, high = (kz._base_solution(make(p), 16, 1e-9)[0] for p in (prec, 2 * prec))
    with mpmath.workprec(2 * prec + 32):
        assert kz._rownorm(low - high) <= low.error + high.error
    assert low.accuracy_bits >= prec - 16 and low.steps == 1
    assert high.error < low.error * mpmath.mpf(2) ** (16 - prec)


def test_ray_resonance_beyond_the_order_extends_the_series():
    # the gauge problem (_gauge_problem): no A_{j0} is resonant, but A =
    # diag(3, 0) is at k = 3: there the ray recurrence leaves h_3 = base_1
    # base_2^2 E_01 free, and only the series of total degree 3 > order = 2
    # fixes it
    prob = _gauge_problem()
    g, series = kz._base_solution(prob, 2, 1e-9)
    assert series.order == 3
    b1, b2 = prob.base
    with mpmath.workprec(160):
        want = mpmath.matrix([[mpmath.sqrt(b1) * mpmath.power(b2, 2.5), b1 + b1 * b2 ** 2],
                              [0, 1]])
        assert kz._rownorm(g - want) <= g.error
    assert g.accuracy_bits >= 112


def test_ray_start_refuses_what_it_cannot_certify():
    # a base coordinate beyond 1 puts the wall z = 1 inside the ray's disc
    fiber = degenerate_fiber(D1, P1, (Q(-3, 4),))
    far = kz.trig_problem(D1, P1, fiber, base=(Q(3, 2),), prec=64)
    with pytest.raises(ScopeError, match="stops the series"):
        kz.monodromy(far, order=8, rtol=1e-9)


def test_monodromy_runs_one_series_and_one_transport_per_reflection(monkeypatch):
    # the start is the ray series, with no radial path: rank reflection
    # paths are transported and the Frobenius series is solved once; one
    # fixed-point series routine sums the ray and every Taylor step
    calls = {"series": 0, "transport": 0, "steps": 0, "sums": 0}
    series, transport, sums = kz.frobenius_series, kz.continue_transport, tr._series_sums

    def counted_series(*args):
        calls["series"] += 1
        return series(*args)

    def counted_transport(*args, **kwargs):
        calls["transport"] += 1
        out = transport(*args, **kwargs)
        calls["steps"] += out.steps
        return out

    def counted_sums(*args):
        calls["sums"] += 1
        return sums(*args)

    monkeypatch.setattr(kz, "frobenius_series", counted_series)
    monkeypatch.setattr(kz, "continue_transport", counted_transport)
    monkeypatch.setattr(tr, "_series_sums", counted_sums)
    for prob in (_a1_problem(prec=64), _a2_deep_problem(prec=64)):
        calls.update(series=0, transport=0, steps=0, sums=0)
        kz.monodromy(prob, order=8, rtol=1e-9, check_relations=False)
        assert calls["series"] == 1 and calls["transport"] == prob.rank
        assert calls["steps"] > 0 and calls["sums"] == 1 + calls["steps"]


def test_monodromy_inverts_one_matrix_per_reflection(monkeypatch):
    # T_j = F^-1 S_j conj(F) with F = P G: G itself is never inverted
    calls = []
    inverse = type(mpmath.mp).inverse

    def counted(ctx, a, **kwargs):
        calls.append(a.rows)
        return inverse(ctx, a, **kwargs)

    monkeypatch.setattr(type(mpmath.mp), "inverse", counted)
    monkeypatch.setattr(mpmath, "inverse", lambda a, **kwargs: counted(mpmath.mp, a, **kwargs))
    for prob in (_a1_problem(prec=64), _a2_deep_problem(prec=64)):
        calls.clear()
        kz.monodromy(prob, order=8, rtol=1e-9)
        assert calls == [prob.dim] * prob.rank


def _a2_h25_problem(prec):
    params = HeckeParams.degenerate(Q(2, 5))
    fiber = degenerate_fiber(D2, params, (Q(3, 11), Q(-5, 13)))
    return kz.trig_problem(D2, params, fiber, prec=prec)


@pytest.mark.parametrize("make", [lambda prec: _a1_problem((Q(-3, 4),), prec=prec),
                                  _a2_h25_problem], ids=["A1-3/4", "A2-h2/5"])
def test_composed_t_holds_its_bits_against_higher_precision(make):
    # the uncertified composition F^-1 S_j conj(F), formed with guard bits
    # and rounded once, loses at most 16 of the bits the monodromy reports
    low = kz.monodromy(make(128), order=16, rtol=1e-9, check_relations=False)
    high = kz.monodromy(make(256), order=16, rtol=1e-9, check_relations=False)
    with mpmath.workprec(256):
        for lo, hi in zip(low["T"], high["T"]):
            bound = mpmath.ldexp(max(1, kz._rownorm(hi)), 16 - low["accuracy_bits"])
            assert kz._rownorm(lo - hi) <= bound


def test_monodromy_rounds_no_series_coefficient(monkeypatch):
    # monodromy reads only the exact series: no coefficient is rounded and
    # no series residual formed; a FundamentalSolution rounds its
    # coefficients once, at the first read of the residual or of coeffs,
    # and forms its residual once, from the rounded entries with no
    # mpmath matrix
    calls = {"residual": 0, "coeffs": 0, "rounded": 0}
    residual = kz._series_residual

    def counted_residual(*args):
        calls["residual"] += 1
        return residual(*args)

    def counted(name):
        func = getattr(kz.FundamentalSolution, name).func

        def wrapped(self):
            calls[name.strip("_")] += 1
            return func(self)
        prop = functools.cached_property(wrapped)
        prop.__set_name__(kz.FundamentalSolution, name)
        monkeypatch.setattr(kz.FundamentalSolution, name, prop)

    monkeypatch.setattr(kz, "_series_residual", counted_residual)
    counted("coeffs")
    counted("_rounded")
    for prob in (_a1_problem(prec=64), _a2_deep_problem(prec=64)):
        rep = kz.monodromy(prob, order=8, rtol=1e-9)
        assert calls == {"residual": 0, "coeffs": 0, "rounded": 0}
        assert "series_residual" not in rep
    sol = kz.frobenius_series(_a2_deep_problem(prec=64), 8)
    first = sol.residual
    assert calls == {"residual": 1, "coeffs": 0, "rounded": 1}
    assert sol.residual is first and calls["residual"] == 1
    sol.coeffs
    assert calls == {"residual": 1, "coeffs": 1, "rounded": 1}


def test_integer_basis_is_built_once_per_problem(monkeypatch):
    # the problem is immutable: the series, its residual, the ray step and
    # every transport read one integer basis
    built, make = [], kz._IntegerBasis
    monkeypatch.setattr(kz, "_IntegerBasis", lambda prob: built.append(prob) or make(prob))
    for prob in (_a1_problem(prec=64), _a1_jet_problem(2, prec=64)):
        kz.monodromy(prob, order=8, rtol=1e-9, check_relations=False)
        kz.continue_transport(prob, kz.loop_path(prob.base, 0), rtol=1e-9)
        assert built == [prob] and prob.integer_basis is prob.integer_basis
        built.clear()


def test_monodromy_operators_are_rounded_to_the_working_precision():
    # Y_j is formed with guard bits like T_j, and like T_j rounded once to
    # prec after y_j is formed from it: no returned operator carries
    # uncertified guard bits
    rep = kz.monodromy(_a1_problem((Q(-3, 4),), prec=64), order=8, rtol=1e-9,
                       check_relations=False)
    for key in ("Y", "y", "T", "t"):
        for mat in rep[key]:
            for x in mat:
                parts = x._mpc_ if isinstance(x, mpmath.mpc) else (x._mpf_,)
                assert max(bc for _, _, _, bc in parts) <= 64, (key, parts)


def test_monodromy_precision_stability():
    rep1 = kz.monodromy(_a1_problem(prec=96), order=14, rtol=1e-9,
                        check_relations=False)
    rep2 = kz.monodromy(_a1_problem(prec=160), order=18, rtol=1e-11,
                        check_relations=False)
    with mpmath.workprec(160):
        for key in ("y", "t"):
            d = kz._maxnorm(mpmath.matrix(rep1[key][0].tolist())
                            - rep2[key][0])
            assert d < mpmath.mpf("1e-7"), key


def test_closed_form_y_matches_transported_loop():
    # an independent numeric witness for the closed-form Y_j: the coweight
    # loop transported at the base point, taken to the G-basis by G(base);
    # the n = 2 jet fiber has a Jordan block in A_0
    for prob in (_a1_problem((Q(1, 8),)), _a1_jet_problem(2)):
        rep = kz.monodromy(prob, order=16, rtol=1e-10, check_relations=False)
        with mpmath.workprec(prob.prec):
            g = rep["g_base"]
            for j in range(prob.rank):
                loop = kz.continue_transport(prob, kz.loop_path(prob.base, j),
                                             rtol=1e-10)
                y_loop = g ** -1 * loop ** -1 * g
                assert kz._maxnorm(y_loop - rep["Y"][j]) < mpmath.mpf("1e-8")


def test_transport_failures_name_where():
    from dahakz.errors import ScopeError, ToleranceError
    prob = _a1_problem()
    # a loop inside the 1e-3 margin around z = 0
    with pytest.raises(ScopeError, match=r"hyperplane \(segment 0, t = 0\.0, "
                                         r"\|z_0\| = 0\.0001\)"):
        kz.continue_transport(prob, kz.loop_path([mpmath.mpf("1e-4")], 0))
    # a loop grazing the unit circle, after a constant segment, meets the
    # wall of the simple root
    with pytest.raises(ScopeError, match=r"wall z\^\(1,\) = 1 \(segment 1, "
                                         r"t = 0\.0, \|1 - z\^beta\| = 0\.0001"):
        kz.continue_transport(prob, kz.log_linear_path(prob.base, [0])
                              + kz.loop_path([1 - mpmath.mpf("1e-4")], 0))
    # an unreachable step budget
    with pytest.raises(ToleranceError, match=r"\(segment 0, t = .*, nearest "
                                             r"wall z\^\(.*\) = 1 at "
                                             r"\|1 - z\^beta\| = "):
        kz.continue_transport(prob, kz.loop_path(prob.base, 0), rtol=1e-60)


def test_monodromy_detour_sides_agree():
    # lower detour pairs with the scalar -1 and lands on the same t
    prob = _a1_problem()
    up = kz.monodromy(prob, order=16, rtol=1e-9, detour="upper",
                      check_relations=False)
    low = kz.monodromy(prob, order=16, rtol=1e-9, detour="lower",
                       check_relations=False)
    with mpmath.workprec(prob.prec):
        res = kz._relation_residuals(prob, low["y"], low["t"], low["zeta"])
        for v in res.values():
            assert v < mpmath.mpf("1e-8")
        # both satisfy the same quadratic, with eigenvalues {zeta, -1}
        for rep in (up, low):
            t = rep["t"][0]
            q = (t - rep["zeta"] * mpmath.eye(2)) * (t + mpmath.eye(2))
            assert kz._maxnorm(q) < mpmath.mpf("1e-8")


def test_parabolic_identify_without_J_has_no_jets():
    # J = () identifies the standard fiber, which has no jet order to
    # raise: an n other than 1 would be ignored
    for n in (2, 3):
        with pytest.raises(ScopeError):
            kz.parabolic_identify(D1, P1, (), (Q(1, 8),), n=n, prec=64, order=4)


@pytest.mark.parametrize("make", [lambda prec: _a1_problem((Q(1, 8),), prec=prec),
                                  lambda prec: _a2_deep_problem(prec=prec),
                                  lambda prec: _a1_jet_problem(2, prec=prec)],
                         ids=["a1", "a2-deep", "a1-jets"])
def test_closed_form_exponentials_match_expm(make):
    # Y_j = exp(-2 pi i A_{j0}), base^{A_0} and y_alpha^-1 on the exact
    # weight basis against the general-purpose exponential at twice the
    # precision; the jet fiber's A_0 has Jordan blocks
    prec = 256
    prob = make(prec)
    n, rank = prob.dim, prob.rank
    e_alpha = [[int(prob.datum.cartan_pairing(root, prob.datum.coroot_of(simple)))
                for root in prob.datum.simple_roots] for simple in prob.datum.simple_roots]

    def exponents():
        # each exponent as one matrix, at the working precision
        turn = 2j * mpmath.pi
        xis = [mpmath.eye(n) * to_mpc(rho) - kz._to_mp(a)
               for a, rho in zip(prob.a0_exact, prob.rho_tilde)]
        out = {("Y", j): kz._to_mp(a) * -turn for j, a in enumerate(prob.a0_exact)}
        out["base"] = sum((kz._to_mp(a) * mpmath.log(to_mpc(b))
                           for a, b in zip(prob.a0_exact, prob.base)), mpmath.zeros(n))
        for i, e in enumerate(e_alpha):
            out["y_alpha_inv", i] = sum((xi * (-turn * ej) for xi, ej in zip(xis, e)),
                                        mpmath.zeros(n))
        return out

    with mpmath.workprec(prec):
        turn = -2j * mpmath.pi
        got = {("Y", j): prob.exp_a0([turn if k == j else 0 for k in range(rank)])
               for j in range(rank)}
        got["base"] = prob.exp_a0([mpmath.log(to_mpc(b)) for b in prob.base])
    got.update({("y_alpha_inv", i): kz._y_alpha_inv(prob, i) for i in range(rank)})
    with mpmath.workprec(2 * prec):
        for key, x in exponents().items():
            want = mpmath.expm(x)
            assert kz._maxnorm(got[key] - want) < \
                mpmath.ldexp(kz._maxnorm(want), -(prec - 8)), key


@pytest.mark.parametrize("make", [lambda prec: _a1_problem((Q(1, 8),), prec=prec),
                                  lambda prec: _a2_deep_problem(prec=prec)],
                         ids=["a1", "a2-deep"])
def test_perturbed_y_is_caught(make):
    # each weight in turn off by 1/N in its first coordinate, N the common
    # denominator of the weights, so that the wrong y still has roots of
    # unity of the same order as its spectrum; the Bernstein relation, with
    # y_alpha^-1 from the same wrong weights, sees every one
    prob = make(128)
    rep = kz.monodromy(prob, order=16, rtol=1e-9)
    assert max(rep["residuals"].values()) < mpmath.mpf("1e-8")
    blocks = prob.weight_blocks
    big_n = math.lcm(*(x.denominator for blk in blocks for x in blk.weight))
    for b, blk in enumerate(blocks):
        bad = copy.copy(prob)
        weight = (blk.weight[0] + Q(1, big_n),) + blk.weight[1:]
        bad.weight_blocks = blocks[:b] + [blk._replace(weight=weight)] + blocks[b + 1:]
        with mpmath.workprec(prob.prec):
            turn = 2j * mpmath.pi
            ys = [bad.exp_a0([-turn if k == j else 0 for k in range(prob.rank)],
                             turn * to_mpc(rho))
                  for j, rho in enumerate(prob.rho_tilde)]
            res = kz._relation_residuals(bad, ys, rep["t"], rep["zeta"])
            assert res["bernstein"] > mpmath.mpf("1e-8"), b
