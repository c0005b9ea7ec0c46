"""Taylor-series transport on polygonal paths: witnesses, certified bounds, geometry."""
import hashlib
import math
import time
from fractions import Fraction as Q

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dahakz.kz as kz
import dahakz.transport as tr
from dahakz.affine import HeckeParams
from dahakz.errors import ScopeError, ToleranceError
from dahakz.modules import degenerate_fiber, parabolic_fiber
from dahakz.rootdata import type_a
from dahakz.scalars import Gaussian, to_mpc

D1 = type_a(1)
D2 = type_a(2)
D3 = type_a(3)
P1 = HeckeParams.degenerate(Q(1, 2))
P2 = HeckeParams.degenerate(Q(1, 3))


def _problem(datum, params, mu0, prec=128):
    return kz.trig_problem(datum, params, degenerate_fiber(datum, params, mu0),
                           prec=prec)


def _a1(prec=128):
    return _problem(D1, P1, (Q(-3, 4),), prec)


def _a2(prec=128):
    return _problem(D2, P2, (Q(-4, 5), Q(-6, 7)), prec)


@pytest.mark.parametrize("prec", [128, 256])
def test_closed_form_witness_follows_precision(prec):
    # z f' = (m + z) f has f = z^m e^z: a radial piece from z0 to z1, then a
    # loop around 0 at z1, multiply values by (z1/z0)^m e^(z1 - z0) e^(2 pi i m)
    m = Q(1, 3)
    prob = kz.scalar_problem(m, prec=prec)
    z0 = Q(3, 10)
    with mpmath.workprec(prec):
        radial = kz.log_linear_path([z0], [mpmath.log(2)])
        z1 = radial[-1][-1][0]
        t = kz.continue_transport(prob, radial + kz.loop_path([z1], 0),
                                  rtol=1e-30)
    with mpmath.workprec(prec + 64):
        a, b, mm = to_mpc(z0), to_mpc(z1), to_mpc(m)
        want = (b / a) ** mm * mpmath.exp(b - a) * mpmath.exp(2j * mpmath.pi * mm)
        assert abs(t[0, 0] - want) <= t.error
    assert t.accuracy_bits >= prec - 16


def _scalar_exact(m, z0, z1, turns=0):
    # transport of z f' = (m + z) f from z0 to z1 along a path winding
    # turns times around 0: (z1/z0)^m e^(z1 - z0) e^(2 pi i m turns)
    a, b, mm = to_mpc(z0), to_mpc(z1), to_mpc(m)
    return (b / a) ** mm * mpmath.exp(b - a) \
        * mpmath.exp(2j * mpmath.pi * mm * turns)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_closed_form_bound_holds_toward_and_away_from_the_pole(prec):
    # radial pieces toward z = 0 and away from it, where the centre of a
    # step is nearer the pole than its left end or farther from it, and a
    # loop in three pieces around it
    m = Q(1, 3)
    prob = kz.scalar_problem(m, prec=prec)
    rtol = mpmath.mpf(2) ** (16 - prec)
    with mpmath.workprec(prec):
        toward = kz.log_linear_path([Q(2)], [mpmath.log(Q(3, 20))])
        away = kz.log_linear_path([Q(3, 10)], [mpmath.log(Q(20, 3))])
    cases = [(toward, 0), (away, 0), (kz.loop_path([Q(1, 2)], 0, nseg=3), 1)]
    for path, turns in cases:
        z0, z1 = path[0][0][0], path[-1][-1][0]
        t = kz.continue_transport(prob, path, rtol=rtol)
        with mpmath.workprec(prec + 64):
            assert abs(t[0, 0] - _scalar_exact(m, z0, z1, turns)) <= t.error
        assert t.accuracy_bits >= prec - 16
        assert t.steps > 0 and t.terms > t.steps


@pytest.mark.parametrize("datum, prec", [("A1", 128), ("A2", 64)])
def test_reflection_bound_is_honest_against_higher_precision(datum, prec):
    # the same polygon at prec and at prec + 64 bits: the low-precision
    # transport, with its computed step inverses, is within its own bound
    make = _a1 if datum == "A1" else _a2
    low, high = make(prec), make(prec + 64)
    path = tr.reflection_path(low, 0)
    t_low = tr.continue_transport(low, path, rtol=1e-9)
    t_high = tr.continue_transport(high, path, rtol=1e-9)
    with mpmath.workprec(prec + 96):
        assert tr._rownorm(t_low - t_high) <= t_low.error + t_high.error
    assert t_low.accuracy_bits >= prec - 16
    assert t_high.error < t_low.error * mpmath.mpf(2) ** -48


def test_centred_steps_halve_the_terms():
    # the A1 mu0 = -3/4 problem at 256 bits: steps expanded at their left
    # end took 1598 terms on the radial path from base/10 to the base point
    # and 3469 on the reflection path; centred steps take under half of
    # either
    prob = _problem(D1, P1, (Q(-3, 4),), 256)
    with mpmath.workprec(256):
        start = [b / 10 for b in prob.base]
        path = kz.log_linear_path(start, [mpmath.log(10)] * prob.rank,
                                  pos_roots=[b for b, _ in prob.terms_exact])
        path[-1][-1] = tr._base_point(prob)
        radial = tr.continue_transport(prob, path, rtol=1e-10)
        reflection = tr.continue_transport(prob, tr.reflection_path(prob, 0),
                                           rtol=1e-10)
    assert radial.terms <= 779
    assert reflection.terms <= 1683
    assert radial.accuracy_bits >= 254 and reflection.accuracy_bits >= 254


def test_series_sums_at_an_ordinary_point():
    # t h' = t h (A = 0, N = t, Q = 1): h = e^t, so E = cosh 1 and O = sinh 1
    wbits, nterms = 200, 60
    even, odd = tr._series_sums([[1 << wbits]], [([[1]], [[0]])], [], 1, nterms)
    with mpmath.workprec(wbits + 32):
        for (re, im), want in ((even, mpmath.cosh(1)), (odd, mpmath.sinh(1))):
            assert im is None  # real data give a real sum
            assert abs(mpmath.ldexp(re[0], -wbits) - want) <= nterms * mpmath.ldexp(1, -wbits)


def test_series_sums_at_a_regular_singular_point():
    # t h' = N h + [A, h] with A = diag(1/2, 0) and N = t E_01 is solved by
    # h = I + 2 t E_01: h_1 = 2 E_01 comes from the Sylvester solve of
    # (1 - ad_A) h_1 = E_01, and every later h_k is 0
    wbits, nterms = 100, 12
    one = 1 << wbits
    even, odd = tr._series_sums([[one, 0, 0, one]], [([[0, 2], [0, 0]], [[0, 0], [0, 0]])],
                                [], 2, nterms, [[1, 0], [0, 0]], [0, 1])
    for (re, _), want in ((even, [one, 0, 0, one]), (odd, [0, 2 * one, 0, 0])):
        assert all(abs(x - y) <= nterms for x, y in zip(re, want))


def test_reflection_paths_cross_only_their_own_wall():
    # at the default base, the path to s_j(base) meets z^alpha_j = 1 at
    # s = 1/2, where z_j = 1, and no other wall: decided in rationals
    for prob in (_a1(), _a2()):
        for j in range(prob.rank):
            with mpmath.workprec(prob.prec):
                crossings = tr._reflection_line(prob, j)[3]
            alpha_j = tuple(int(i == j) for i in range(prob.rank))
            assert crossings == [(alpha_j, mpmath.mpf(1) / 2)]


def test_zero_free_disc_against_known_roots():
    def poly(roots):
        p = [Gaussian(1)]
        for r in roots:
            p = [Gaussian(0)] + p
            p = [x - r * y for x, y in zip(p, p[1:] + [Gaussian(0)])]
        return p

    outside = [Gaussian(2), Gaussian(0, Q(3, 2)), Gaussian(Q(-4, 5), Q(4, 5))]
    assert tr._zero_free_disc(poly(outside))
    # a zero on the unit circle, inside it, or at 0 is not zero-free
    for bad in (Gaussian(Q(3, 5), Q(4, 5)), Gaussian(0, Q(-1, 2)), Gaussian(0)):
        assert not tr._zero_free_disc(poly(outside + [bad]))
    assert tr._zero_free_disc([Gaussian(3)])


def _fraction_zero_free_disc(p):
    # the Schur-Cohn test as it ran on Fraction pairs (re, im), step by step:
    # the reference for the integer form
    def trim(q):
        while len(q) > 1 and q[-1] == (0, 0):
            q.pop()
        return q

    p = trim([(x.re, x.im) for x in p])
    while len(p) > 1:
        (ar, ai), (dr, di) = p[0], p[-1]
        if ar * ar + ai * ai <= dr * dr + di * di:
            return False
        rev = [(x, -y) for x, y in reversed(p)]
        # conj(a0) x - ad y, y the conjugate of the reversed coefficient
        p = trim([(ar * xr + ai * xi - (dr * yr - di * yi),
                   ar * xi - ai * xr - (dr * yi + di * yr))
                  for (xr, xi), (yr, yi) in zip(p, rev)][:-1])
    return p[0] != (0, 0)


def _fraction_root_radius(p):
    # _root_radius as it ran on Fractions, with the reference disc test
    norms = [x.norm() for x in p]
    if len(p) == 2:
        return float(norms[0] / norms[1]) ** 0.5 * (1 - 2.0 ** -40)

    def certified(r):
        return _fraction_zero_free_disc([x * r ** k for k, x in enumerate(p)])

    lo = tr._dyadic_below(0.5 / max(float(x / norms[0]) ** (0.5 / k)
                                    for k, x in enumerate(norms) if k))
    while not certified(lo):
        lo *= Q(7, 8)
    hi = float(norms[0] / norms[-1]) ** (0.5 / (len(p) - 1))
    for _ in range(8):
        mid = tr._dyadic_below(float(lo * hi) ** 0.5)
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


_UNIT_ROOTS = [Gaussian(1), Gaussian(0, 1), Gaussian(-1), Gaussian(Q(3, 5), Q(-4, 5))]
_gaussians = st.builds(Gaussian, st.fractions(-3, 3, max_denominator=12),
                       st.fractions(-3, 3, max_denominator=12))


@given(st.lists(st.one_of(st.sampled_from(_UNIT_ROOTS), _gaussians), min_size=1, max_size=6),
       st.one_of(st.sampled_from(_UNIT_ROOTS[1:]), _gaussians.filter(bool)),
       st.integers(1, 255), st.integers(0, 12))
@settings(max_examples=120, deadline=None)
def test_integer_schur_cohn_matches_the_fraction_one(roots, lead, u, shift):
    # random Gaussian-rational polynomials of degree 1-6 through their roots,
    # some on |t| = 1, under a random dyadic scaling t -> r t: the integer
    # decision is the Fraction one, and so is the radius found by bisection
    p = [lead]
    for z in roots:
        p = [Gaussian(0)] + p
        p = [x - z * y for x, y in zip(p, p[1:] + [Gaussian(0)])]
    r = Q(u, 1 << shift)
    scaled = [x * r ** k for k, x in enumerate(p)]
    assert tr._zero_free_disc(scaled) == _fraction_zero_free_disc(scaled)
    if p[0]:
        assert tr._root_radius(p) == _fraction_root_radius(p)


def test_integer_schur_cohn_sees_zeros_on_the_circle():
    one, i = Gaussian(1), Gaussian(0, 1)
    on_circle = [i, -(one + i), one]  # (t - 1)(t - i)
    assert not tr._zero_free_disc(on_circle)
    assert not _fraction_zero_free_disc(on_circle)
    assert tr._zero_free_disc([x * Q(15, 16) ** k for k, x in enumerate(on_circle)])


@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.integers(2, 1 << 40),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_series_sums_ignore_a_common_factor(n, depth, real, factor, rng):
    # den, N_m and Q_m times one integer are the same rationals N_m / den and
    # Q_m / den: every floor, and so both sums, stay as they were
    def entry():
        return rng.randrange(-50, 51)

    nfin = [([[entry() for _ in range(n)] for _ in range(n)],
             [[0 if real else entry() for _ in range(n)] for _ in range(n)])
            for _ in range(depth)]
    qfin = [(entry(), 0 if real else entry()) for _ in range(rng.randrange(depth + 1))]
    den = rng.randrange(1, 60)
    one = [1 << 64 if r == c else 0 for r in range(n) for c in range(n)]
    want = tr._series_sums([one], nfin, qfin, den, 14)
    got = tr._series_sums([one], [tuple([[factor * x for x in row] for row in mat] for mat in m)
                                  for m in nfin],
                          [(factor * a, factor * b) for a, b in qfin], factor * den, 14)
    assert got == want
    # real data give real sums, im None
    assert (want[0][1] is None) == (not any(x for _, ni in nfin for row in ni for x in row)
                                    and not any(b for _, b in qfin))
    cf = tr._content_free(factor * den, [tuple([[factor * x for x in row] for row in mat]
                                               for mat in m) for m in nfin],
                          [(factor * a, factor * b) for a, b in qfin])
    assert tr._series_sums([one], cf[1], cf[2], cf[0], 14) == want


def _dense_series(prefix, nfin, qfin, den, nterms, amat=None, border=()):
    # the recurrence of _series_sums on every entry of every term, with
    # complex entries as (re, im) pairs: h_0..h_{nterms-1}, row-major
    n = math.isqrt(len(prefix[0]))
    hs = [[(x, 0) for x in h] for h in prefix]
    for k in range(len(prefix), nterms):
        r, s = [[0, 0] for _ in range(n * n)], [0] * (n * n)
        for m in range(1, k + 1):
            nr, ni = nfin[m - 1] if m <= len(nfin) else ([[0] * n] * n, [[0] * n] * n)
            qr, qi = qfin[m - 1] if m <= len(qfin) else (0, 0)
            old = hs[k - m]
            for i in range(n):
                for j in range(n):
                    for c in range(n):
                        ar = nr[i][c] - (k - m) * qr * (c == i)
                        ai = ni[i][c] - (k - m) * qi * (c == i)
                        xr, xi = old[c * n + j]
                        r[i * n + j][0] += ar * xr - ai * xi
                        r[i * n + j][1] += ar * xi + ai * xr
                    s[i * n + j] += qr * old[i * n + j][0]
        if amat is None:
            hs.append([(a // (den * k), b // (den * k)) for a, b in r])
            continue
        h, u = [0] * (n * n), s[:]
        for a in reversed(border):
            for b in border:
                div = den * (k * den + amat[b][b] - amat[a][a])
                if div:
                    acc = den * r[a * n + b][0] + (amat[a][a] - amat[b][b]) * s[a * n + b]
                    acc += sum(amat[a][c] * u[c * n + b] for c in range(n) if c != a)
                    acc -= sum(u[a * n + c] * amat[c][b] for c in range(n) if c != b)
                    h[a * n + b] = acc // div
                    u[a * n + b] += den * h[a * n + b]
        hs.append([(x, 0) for x in h])
    return hs


@given(st.integers(1, 5), st.integers(1, 3), st.booleans(), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_series_sums_skip_only_structural_zeros(n, depth, real, with_a, rng):
    # block-triangular data, the blocks in a random order: the sums run only
    # on the zero pattern P of the solution, the prefix's entries closed
    # under N_m (real or imaginary part) and, on the ray, A on either side;
    # they must equal the dense recurrence's bit for bit, which is 0 off P
    real = real or with_a
    level = [rng.randrange(3) for _ in range(n)]

    def entry(r, c):
        return rng.randrange(-9, 10) if level[r] >= level[c] and rng.random() < 0.4 else 0

    nfin = [([[entry(r, c) for c in range(n)] for r in range(n)],
             [[0 if real else entry(r, c) for c in range(n)] for r in range(n)])
            for _ in range(depth)]
    qfin = [(rng.randrange(-9, 10), 0 if real else rng.randrange(-9, 10))
            for _ in range(rng.randrange(depth + 1))]
    den = rng.randrange(1, 30)
    prefix = [[1 << 64 if r == c else 0 for r in range(n) for c in range(n)]]
    if rng.random() < 0.5:
        prefix.append([entry(r, c) << 60 for r in range(n) for c in range(n)])
    amat, border = None, ()
    if with_a:
        border = rng.sample(range(n), n)
        after = {a: border[border.index(a):] for a in range(n)}
        amat = [[rng.randrange(-20, 21) if c == r or c in after[r] and rng.random() < 0.4
                 else 0 for c in range(n)] for r in range(n)]
    hs = _dense_series(prefix, nfin, qfin, den, 12, amat, border)
    real = not any(b for _, b in qfin) and not any(x for _, ni in nfin for row in ni for x in row)
    want = tuple(tuple(None if real and part else
                       [sum(h[e][part] for h in hs[parity::2]) for e in range(n * n)]
                       for part in (0, 1)) for parity in (0, 1))
    assert tr._series_sums(prefix, nfin, qfin, den, 12, amat, border) == want
    pattern = {(r, c) for h in prefix for r in range(n) for c in range(n) if h[r * n + c]}
    while True:
        grown = pattern | {(r, j) for c, j in pattern for r in range(n)
                           if any(nr[r][c] or ni[r][c] for nr, ni in nfin)
                           or amat and amat[r][c]}
        grown |= {(r, j) for r, c in pattern for j in range(n) if amat and amat[c][j]}
        if grown == pattern:
            break
        pattern = grown
    assert all(h[r * n + c] == (0, 0) for h in hs for r in range(n) for c in range(n)
               if (r, c) not in pattern)


def test_jet_fiber_transport_bits_are_pinned():
    # the A1 fiber with jets of order 3 (dimension 6): its series run on 21
    # of 36 entries; every mantissa and exponent of T and Y, and
    # accuracy_bits, are those of the dense recurrence
    points = sorted({tuple(D1.w_act_weight(w, (Q(1, 4),))) for w in range(D1.w_order)})
    problem = kz.trig_problem(D1, P1, parabolic_fiber(D1, P1, (0,), points, 3), prec=128)
    rep = kz.monodromy(problem, order=16)
    parts = [[x._mpc_ if isinstance(x, mpmath.mpc) else (x._mpf_,) for x in m]
             for m in rep["T"] + rep["Y"]]
    digest = hashlib.sha256(repr((parts, rep["accuracy_bits"])).encode()).hexdigest()
    assert rep["accuracy_bits"] == 126
    assert digest == "f2be2cbfeb7c6a68124414bd7eb3dd3a83090f2046a22f62b52f9550395f0be9"


def _geometry_cases(prec=128, coordinates=None):
    for prob in (_a1(prec), _a2(prec)):
        for j in coordinates or range(prob.rank):
            yield prob, tr.reflection_path(prob, j)
            for nseg in (1, 3):
                yield prob, tr.loop_path(prob.base, j, nseg)


def _chord_inside_disc(v, w, roots):
    # the chord v + t (w - v), t in [0, 1], misses every zero of z_i and of
    # 1 - z^beta along it: linear factors directly, the rest by Schur-Cohn
    d = [b - a for a, b in zip(v, w)]
    for a, di in zip(v, d):
        if di and not a.norm() > di.norm():
            return False
    for beta in roots:
        p = tr._wall_poly(v, d, beta)
        if len(p) == 2 and not p[0].norm() > p[1].norm():
            return False
        if len(p) > 2 and not tr._zero_free_disc(p):
            return False
    return True


def test_path_chords_lie_in_certified_discs():
    for prob, path in _geometry_cases():
        roots = [beta for beta, _ in prob.terms_exact]
        for piece in path:
            for v, w in zip(piece, piece[1:]):
                assert _chord_inside_disc(v, w, roots)


def _with_midpoints(path):
    out = []
    for piece in path:
        refined = [piece[0]]
        for v, w in zip(piece, piece[1:]):
            refined += [tuple((a + b) * Q(1, 2) for a, b in zip(v, w)), w]
        out.append(refined)
    return out


def test_midpoints_leave_transport_unchanged():
    # at 64 bits and j = 0 only: the bounds are then near 1e-17, and the
    # A2 cases stay quick
    for prob, path in _geometry_cases(prec=64, coordinates=[0]):
        t1 = tr.continue_transport(prob, path)
        t2 = tr.continue_transport(prob, _with_midpoints(path))
        with mpmath.workprec(prob.prec + 32):
            assert tr._rownorm(t1 - t2) <= t1.error + t2.error


def test_transport_evaluates_no_connection_matrix(monkeypatch):
    # the steps read the exact data only, and the A1 reflection path at
    # 128 bits takes a bounded number of them
    calls = {"a": 0, "steps": 0}
    a_matrix, step = kz.ConnectionProblem.a_matrix, tr._taylor_step

    def counted_a(self, j, z):
        calls["a"] += 1
        return a_matrix(self, j, z)

    def counted_step(*args):
        calls["steps"] += 1
        return step(*args)

    monkeypatch.setattr(kz.ConnectionProblem, "a_matrix", counted_a)
    monkeypatch.setattr(tr, "_taylor_step", counted_step)
    prob = _a1()
    tr.continue_transport(prob, tr.reflection_path(prob, 0), rtol=1e-9)
    assert 0 < calls["steps"] <= 24
    kz.monodromy(prob, order=16, rtol=1e-9)
    assert calls["a"] == 0


def test_path_bound_is_demanded_by_rtol():
    prob = _a1()
    path = tr.reflection_path(prob, 0)
    t = tr.continue_transport(prob, path, rtol=1e-30)
    assert t.accuracy_bits >= 112
    with pytest.raises(ToleranceError, match="above rtol"):
        tr.continue_transport(prob, path, rtol=mpmath.mpf(2) ** -140)


def test_chord_through_a_wall_stops_at_the_margin():
    # with no walls to detour around, the straight chord 1/2 -> 2 runs into
    # z = 1: the steps shrink towards it until a step centre is within the
    # margin
    prob = _a1()
    with mpmath.workprec(128):
        path = tr.log_linear_path([Q(1, 2)], [mpmath.log(4)])
    with pytest.raises(ScopeError, match=r"wall z\^\(1,\) = 1 \(segment 0, "):
        tr.continue_transport(prob, path)


def _pairing(datum, j):
    coroot = datum.coroot_of(datum.simple_roots[j])
    return [int(datum.cartan_pairing(datum.simple_roots[i], coroot))
            for i in range(datum.rank)]


def _sigma(z, p, j):
    # sigma_j(z) = conj(s_j z), with (s_j z)_i = z_i z_j^(-p_i), exactly
    return tuple((zi * z[j] ** -pi).conjugate() for zi, pi in zip(z, p))


@pytest.mark.parametrize("datum", [D1, D2, D3])
def test_reflection_path_runs_from_the_base_to_a_mirror_fixed_point(datum):
    # the half path starts exactly at the base point and ends at a point
    # that sigma_j fixes exactly, for every j
    prob = kz.ConnectionProblem([[[Q(0)]]] * datum.rank, datum=datum, prec=128)
    base = tuple(Gaussian(b) for b in prob.base)
    with mpmath.workprec(prob.prec):
        for j in range(datum.rank):
            p = _pairing(datum, j)
            path = tr.reflection_path(prob, j)
            assert path[0][0] == base
            assert all(a[-1] == b[0] for a, b in zip(path, path[1:]))
            end = path[-1][-1]
            assert _sigma(end, p, j) == end
            # the end lies off the real torus, above it: z_j =
            # base_j^(-2 i r) at s = 1/2 + i r, and base_j < 1
            assert end[j].im and end[j].im > 0


def test_reflection_path_refuses_a_base_on_its_wall():
    prob = kz.ConnectionProblem([[[Q(0)]]] * 2, datum=D2, base=(Q(1, 2), 1))
    with pytest.raises(ScopeError, match="wall z_1 = 1"):
        tr.reflection_path(prob, 1)


def _jet_problem(prec=128):
    points = [(Q(-1, 4),), (Q(1, 4),)]
    return kz.trig_problem(D1, P1, parabolic_fiber(D1, P1, (0,), points, n=2),
                           prec=prec)


@pytest.mark.parametrize("case", ["A1 h=1/2", "A1 h=1/3", "A2 j=0", "A2 j=1", "A1 jets"])
def test_mirror_half_transport_is_the_conjugate_by_symmetry(case):
    # the second half of the path from the base to s_j(base) is the reversed
    # sigma_j-image of the first, so its transport is S_j conj(P)^-1 S_j^-1,
    # P the transport along the first half: the W-equivariance and the
    # reality of the connection.  Transported along the image built here
    # from exact vertices, within both bounds, with conj(P)^-1 bounded by
    # |X|^2 eps / (1 - |X| eps), X the inverse of the computed conj(P)
    prob, j = {"A1 h=1/2": (_problem(D1, P1, (Q(1, 8),)), 0),
               "A1 h=1/3": (_problem(D1, P2, (Q(-2, 7),)), 0),
               "A2 j=0": (_a2(), 0), "A2 j=1": (_a2(), 1),
               "A1 jets": (_jet_problem(), 0)}[case]
    p = _pairing(prob.datum, j)
    with mpmath.workprec(prob.prec):
        half = tr.reflection_path(prob, j)
    mirror = [[_sigma(v, p, j) for v in reversed(piece)] for piece in reversed(half)]
    t_half = tr.continue_transport(prob, half, rtol=1e-9)
    t_mirror = tr.continue_transport(prob, mirror, rtol=1e-9)
    with mpmath.workprec(prob.prec + 64):
        s = kz._to_mp(prob.s_exact[j])
        s_inv = s ** -1
        x = t_half.conjugate() ** -1
        nx, eps = tr._rownorm(x), t_half.error
        assert nx * eps < mpmath.mpf(1) / 2
        bound = t_mirror.error \
            + tr._rownorm(s) * tr._rownorm(s_inv) * nx ** 2 * eps / (1 - nx * eps)
        gap = tr._rownorm(t_mirror - s * x * s_inv)
        assert gap <= bound * (1 + mpmath.mpf(2) ** -32)


def test_short_prefix_gives_up_cleanly():
    # at order 2 the A3 deep fiber's ray bound needs millions of terms: it
    # once ran for minutes and died with an OverflowError in the float
    # bound; the term cap now ends it with a ToleranceError naming the prefix
    problem = _problem(D3, P2, (Q(-4, 5), Q(-6, 7), Q(-8, 11)), prec=64)
    start = time.process_time()
    with pytest.raises(ToleranceError, match="exact prefix of 2 terms"):
        kz.monodromy(problem, order=2)
    assert time.process_time() - start < 60


def test_step_growth_beyond_the_float_range_is_a_tolerance_error():
    # at h = 1001/3 the first step's majorant bounds yhat(1) by e^434, whose
    # square leaves the float range: an OverflowError escaped the step
    params = HeckeParams.degenerate(Q(1001, 3))
    problem = kz.trig_problem(D1, params, degenerate_fiber(D1, params, (Q(1, 7),)), prec=64)
    with pytest.raises(ToleranceError, match="float range"):
        tr.continue_transport(problem, tr.reflection_path(problem, 0), rtol=1e-9)


def test_neumann_sum_fits_the_float_range():
    # the plain float sum wherever the powers fit, no OverflowError past them
    assert tr._neumann_sum(3.0, 7.0, 5) == sum(3.0 ** i / 7.0 ** (i + 1) for i in range(5))
    assert tr._neumann_sum(0.0, 2.0, 3) == 0.5
    assert 0 < tr._neumann_sum(2.0, 1e8, 47) < 1.1e-8
    assert 0 < tr._neumann_sum(0.0, 1e8, 47) < 1.1e-8
    assert tr._neumann_sum(1e300, 1e8, 47) == math.inf
