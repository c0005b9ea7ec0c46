"""Parallel transport of the KZ connection: Taylor series on polygons.

A path is a list of pieces, and a piece is a polygon: a list of vertices,
each a tuple of Gaussian-rational coordinates, joined by straight chords.
loop_path, log_linear_path and reflection_path build them; the rule they
keep is that every chord lies inside the certified disc of its first
vertex v, the disc |t| < rho of the complex line v + t (w - v) that the
divisor does not meet, so that the chord, t in [0, 1], meets no wall and
no coordinate hyperplane (_chord_certified decides it exactly).  A
reflection path is only the first half of the path from the base point to
s_j(base), up to an exact fixed point of sigma_j(z) = conj(s_j z): the
whole path is its own sigma_j-image, so the second half's transport
follows from the first's (kz.monodromy).

One fixed-point recurrence sums every series here (_series_sums): that of
Q t h' = N h + [A, Q h], with Q scalar and N matrix polynomials of exact
integer coefficients over one denominator (_integer_data), from a prefix
of known coefficients, on Python-int mantissas.  continue_transport
covers each chord by centred steps, a step's half-width a fraction of the
certified distance from its centre to the divisor along the chord.  A step
is an ordinary point: A = 0, the prefix g_0 = I, and the Taylor series
G(tau) of the flat section about the centre.  It is summed once, its even
part E and odd part O apart, which gives both ends at no extra cost: G(1)
= E + O and G(-1) = E - O, and the step's transport is G(1) G(-1)^-1.
The number of terms comes from a majorant, which also bounds G(-1)^-1;
the computed inverse is certified by its residual, formed exactly.  So
each step returns a bound on its error, and the path's bound is propagated
through the mpmath products that compose the steps.  The monodromy starts
at the origin, a regular singular point: _ray_step sums H(t base), t from
0 to 1, with A = sum_j A_{j0} and the exact Frobenius coefficients as
prefix, and bounds its tail and rounding with the regular-singular
majorant.  The functions read a kz.ConnectionProblem: its exact matrices
(a0_exact, terms_exact, extra_exact, h_exact), dim, rank, prec, the exact
base point base, and datum for reflection paths, and integer_basis:
those matrices, rational since the problem refuses any other, as integer
matrices over one denominator (_IntegerBasis), built once per problem.
With their sparse rows and the integer products over them (_products),
they also serve the Frobenius series in kz.

The exact data are integers from the vertices to the recurrence.  A
vertex coordinate is a Gaussian rational in integer form (scalars), so
the poles, the wall polynomials and L and N of a step are integer
arithmetic with one gcd per operation.  The Schur-Cohn decisions of
_chord_certified and _root_radius run on Gaussian-integer coefficient
lists with the content of each reduced polynomial divided out
(_schur_cohn); _integer_data reads the integer forms directly, and a
Taylor step divides the common content out of its recurrence data
(_content_free), which leaves the same rationals and so the same floors.
The data of a step on the real line are real, and its series sums, its
inverse and its transport stay real (an imaginary part None).
"""
from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Dict, List, Sequence

import mpmath

from .errors import ConfigError, InternalCheckError, ScopeError, ToleranceError
from .scalars import Gaussian, _poly_mul, to_mpc

__all__ = ["Transport", "continue_transport", "loop_path", "log_linear_path",
           "reflection_path"]

mp = mpmath.mp


# -- polygonal paths ------------------------------------------------------------------

_LOOP_CHORDS = 12   # chords of one full coweight loop
_VERTEX_BITS = 24   # significant bits of an interior polygon vertex


def _mpf_exact(x) -> Q:
    man, exp = x.man_exp
    if x < 0:
        man = -man
    return Q(man << exp) if exp >= 0 else Q(man, 1 << -exp)


def _exact(x) -> Gaussian:
    """x as an exact Gaussian rational; an mpmath number converts bit for bit."""
    if isinstance(x, Gaussian):
        return x
    if isinstance(x, (int, Q)):
        return Gaussian(x)
    x = mpmath.mpmathify(x)
    if isinstance(x, mpmath.mpc):
        return Gaussian(_mpf_exact(x.real), _mpf_exact(x.imag))
    return Gaussian(_mpf_exact(x))


def _rounded(z) -> Gaussian:
    """A Gaussian rational near z with _VERTEX_BITS significant bits."""
    with mpmath.workprec(_VERTEX_BITS):
        return _exact(+to_mpc(z))


def _base_point(problem) -> tuple:
    """The base point as a vertex: a tuple of Gaussian rationals."""
    return tuple(Gaussian(b) for b in problem.base)


def _zpow(z, expo):
    """z^expo in the arithmetic of the coordinates of z (exact for exact z)."""
    out = 1
    for zi, e in zip(z, expo):
        if e:
            out = out * zi ** int(e)
    return out


def _line_power(c, d, expo) -> list:
    """z^expo on the line z = c + t d, as coefficients in t, constant first."""
    out = [Gaussian(1)]
    for ci, di, e in zip(c, d, expo):
        for _ in range(int(e)):
            out = _poly_mul(out, [ci, di] if di else [ci])
    return out


def _wall_poly(c, d, beta) -> list:
    """1 - z^beta on the line z = c + t d, constant first."""
    p = _line_power(c, d, beta)
    return [1 - p[0]] + [-x for x in p[1:]]


def _gaussian_integers(p) -> list:
    """The Gaussian-rational coefficients of p times the lcm of their
    denominators, as (re, im) integer pairs."""
    big = math.lcm(*(x.d for x in p))
    return [(x.a * (big // x.d), x.b * (big // x.d)) for x in p]


def _zero_free_disc(p) -> bool:
    """Whether p has no zero in the closed unit disc, decided exactly.

    Schur-Cohn: with p* the reciprocal polynomial, |p(0)| > |lead(p)| and
    the lower-degree conj(p(0)) p - lead(p) p* zero-free on the closed disc
    hold exactly when p is (Rouche on the unit circle, where |p*| = |p|).
    It runs on the Gaussian-integer multiple of p (_schur_cohn).
    """
    return _schur_cohn(_gaussian_integers(p))


def _schur_cohn(p) -> bool:
    """_zero_free_disc of the polynomial with (re, im) integer coefficients p.

    A positive factor changes none of the comparisons, so each reduced
    polynomial has its content, the gcd of its parts, divided out.
    """
    while len(p) > 1 and p[-1] == (0, 0):
        p.pop()
    while len(p) > 1:
        (ar, ai), (dr, di) = p[0], p[-1]
        if ar * ar + ai * ai <= dr * dr + di * di:
            return False
        # conj(p_0) p_k - p_d conj(p_{d-k}) for k < d
        p = [(ar * xr + ai * xi - dr * yr - di * yi, ar * xi - ai * xr - di * yr + dr * yi)
             for (xr, xi), (yr, yi) in zip(p[:-1], p[:0:-1])]
        g = math.gcd(*(v for x in p for v in x))
        if g > 1:
            p = [(x // g, y // g) for x, y in p]
        while len(p) > 1 and p[-1] == (0, 0):
            p.pop()
    return p[0] != (0, 0)


def _moving(d, expo) -> bool:
    return any(e and di for e, di in zip(expo, d))


def _chord_certified(v, w, roots) -> bool:
    """Whether the chord v -> w lies in the certified disc of v, exactly."""
    d = [b - a for a, b in zip(v, w)]
    for a, di in zip(v, d):
        if di and a.norm() <= di.norm():
            return False
    return all(_zero_free_disc(_wall_poly(v, d, beta))
               for beta in roots if _moving(d, beta))


def _certified_polygon(vertex_at, params, first, last, roots) -> list:
    """Vertices along a curve, bisected until every chord is certified.

    vertex_at maps a curve parameter in [0, 1] to a vertex; params are the
    parameters the polygon must contain, from 0 to 1.  ScopeError when no
    bisection down to 2^-20 certifies a chord: the curve meets the divisor.
    """
    done = [(0.0, first)]
    todo = [(1.0, last)] + [(x, vertex_at(x)) for x in reversed(params[1:-1])]
    while todo:
        (x0, v0), (x1, v1) = done[-1], todo[-1]
        if _chord_certified(v0, v1, roots):
            done.append(todo.pop())
        elif x1 - x0 < 2.0 ** -20:
            raise ScopeError("path meets the divisor near curve parameter %s"
                             % mpmath.nstr(x0, 8))
        else:
            xm = (x0 + x1) / 2
            todo.append((xm, vertex_at(xm)))
    return [v for _, v in done]


def loop_path(base, j: int, nseg: int = 1) -> List[list]:
    """Counterclockwise coweight loop around z_j = 0 through base, in nseg pieces.

    A polygon of at least _LOOP_CHORDS chords with vertices near the circle
    |z_j| = |base_j|; it starts and ends exactly at base.
    """
    start = tuple(_exact(b) for b in base)
    chords = -(-_LOOP_CHORDS // nseg)
    pieces = []
    for k in range(nseg):
        piece = []
        for m in range(chords + 1):
            turn = Q(k * chords + m, nseg * chords)
            zj = start[j] if turn.denominator == 1 else _rounded(
                to_mpc(start[j]) * mpmath.exp(2j * mpmath.pi * to_mpc(turn)))
            piece.append(start[:j] + (zj,) + start[j + 1:])
        pieces.append(piece)
    return pieces


def _half_s_pieces(crossings: Sequence[mpmath.mpf]):
    """Path in the s-plane from 0 to the top of the detour at s = 1/2.

    crossings are those of the whole segment [0, 1], symmetric about 1/2
    with one at 1/2; every detour is a semicircle of one radius r above the
    real segment.  The path runs along the real segment around the
    crossings below 1/2 and ends on a quarter circle about 1/2 at 1/2 + i r.
    Returns the pieces and r.
    """
    cs = sorted(crossings)
    half = mpmath.mpf(1) / 2
    gaps = [cs[0], mpmath.mpf(1) - cs[-1]]
    gaps += [cs[i + 1] - cs[i] for i in range(len(cs) - 1)]
    r = min(mpmath.mpf("0.2"), min(gaps) / 2)
    if r <= 0:
        raise ScopeError("wall crossings too close to each other or to a path end")
    pieces = []
    pos = mpmath.mpf(0)
    for c in cs:
        if c < half:
            pieces += [("line", pos, c - r), ("arc", c, r, mpmath.pi, mpmath.mpf(0))]
            pos = c + r
    pieces += [("line", pos, half - r), ("arc", half, r, mpmath.pi, mpmath.pi / 2)]
    return pieces, r


def _log_linear_polygon(start, end, u, roots, spieces) -> List[list]:
    """Polygons along z_i(s) = start_i exp(s u_i), s on an s-plane path, ending at end.

    spieces are the lines ("line", a, b) and arcs ("arc", c, r, th0, th1)
    of the s-plane path, one polygon each.  Every chord is certified
    against the walls z^beta = 1, beta in roots, the last one to end too.
    Interior vertices are rounded to _VERTEX_BITS bits.
    """
    base = [to_mpc(b) for b in start]
    spieces = [p for p in spieces if p[0] == "arc" or p[2] > p[1]]
    pieces = []
    first = start
    for k, piece in enumerate(spieces):
        if piece[0] == "line":
            _, a, b = piece

            def s_at(x, a=a, b=b):
                return a + (b - a) * x
            params = [0.0, 1.0]
        else:
            _, c, r, th0, th1 = piece

            def s_at(x, c=c, r=r, th0=th0, th1=th1):
                return c + r * mpmath.exp(1j * (th0 + (th1 - th0) * x))
            params = [0.0, 0.5, 1.0]

        def vertex_at(x, s_at=s_at):
            s = s_at(x)
            return tuple(_rounded(bb * mpmath.exp(s * uu)) for bb, uu in zip(base, u))

        last = end if k == len(spieces) - 1 else vertex_at(1.0)
        pieces.append(_certified_polygon(vertex_at, params, first, last, roots))
        first = last
    return pieces


def log_linear_path(base, u, pos_roots=()) -> List[list]:
    """Polygonal path near z_i(s) = base_i exp(s u_i) from s=0 to s=1.

    It starts exactly at base and ends at base exp(u) evaluated in the
    working precision; its chords are certified against the walls z^beta =
    1, beta in pos_roots, and it does not go around them: a chord that
    meets one raises ScopeError.
    """
    start = tuple(_exact(b) for b in base)
    u = [to_mpc(x) for x in u]
    end = tuple(_exact(to_mpc(b) * mpmath.exp(x)) for b, x in zip(start, u))
    return _log_linear_polygon(start, end, u, [tuple(b) for b in pos_roots],
                               [("line", mpmath.mpf(0), mpmath.mpf(1))])


def _reflection_line(problem, j: int) -> tuple:
    """(u, pairing, walls, crossings) of the curve from the base point to s_j(base).

    The curve is z_i(s) = base_i exp(s u_i), u_i = -log(base_j) p_i with
    p_i = <alpha_i, alpha_j-vee> (pairing), and it ends at s_j(base)_i =
    base_i base_j^(-p_i).  walls are the positive roots, and crossings
    lists (beta, s) for each wall z^beta = 1 that the curve meets at 0 < s
    < 1.  The base is positive and rational, so z(s)^beta = X Y^-s with X
    = base^beta and Y = base_j^<beta, alpha_j-vee> is real and meets 1 only
    at s = log X / log Y, inside (0, 1) exactly when X lies strictly
    between 1 and Y: decided in rationals.  The value of s is -c0/c1 in
    mpmath, c0 = sum beta_i log base_i and c1 = sum beta_i u_i.
    """
    datum = problem.datum
    if datum is None:
        raise ScopeError("reflection paths need a root datum")
    base = _base_point(problem)
    logs = [mpmath.log(to_mpc(b)) for b in base]
    alpha_j_vee = tuple(Q(c) for c in datum.coroot_of(datum.simple_roots[j]))
    pairing = [int(datum.cartan_pairing(datum.simple_roots[i], alpha_j_vee))
               for i in range(datum.rank)]
    u = [-logs[j] * c for c in pairing]
    walls = [tuple(b) for b in datum.positive_roots]
    crossings = []
    for beta in walls:
        x = _zpow(problem.base, beta)
        y = problem.base[j] ** sum(b * c for b, c in zip(beta, pairing))
        if min(1, y) < x < max(1, y):
            c0 = sum(b * l for b, l in zip(beta, logs))
            c1 = sum(b * v for b, v in zip(beta, u))
            crossings.append((beta, mpmath.re(-c0 / c1)))
    return u, pairing, walls, crossings


def reflection_path(problem, j: int) -> List[list]:
    """First half of the path from the base point to s_j(base), up to a sigma_j-fixed point.

    The curve z(s) of _reflection_line has s_j z(s) = z(1 - s) and, the
    base being real, conj z(s) = z(conj s), so sigma_j(z) = conj(s_j z)
    maps z(s) to z(1 - conj s): the path from the base to s_j(base) that
    detours above every crossing is its own sigma_j-image, reversed.  This
    is its half from s = 0 to the top s = 1/2 + i r of the detour around
    the alpha_j-wall, crossed at s = 1/2, going above the crossings below
    1/2.  The side is frozen, calibrated once against the rank-one
    structure constants; the path below the walls is this one conjugated
    vertex by vertex, and would give conj(T_j) = T_j^-1 (S_j^2 = I).  It
    ends at an exact sigma_j-fixed point m near z(1/2 + i r): m_i = t_i
    w^(p_i), with w a Gaussian rational of _VERTEX_BITS bits near exp(-i r
    log base_j), t_j = 1/|w|^2 (so m_j = w / conj w) and t_i > 0 a rational
    near base_i base_j^(-p_i/2) / |w|^(p_i); the last chord, to m, is
    certified like the others.  InternalCheckError unless sigma_j(m) = m
    exactly; ScopeError when base_j = 1, on the alpha_j-wall.  kz.monodromy
    obtains the second half's transport from this one's by the symmetry.
    """
    if problem.base[j] == 1:
        raise ScopeError("the base point lies on the wall z_%d = 1" % j)
    u, pairing, walls, crossings = _reflection_line(problem, j)
    spieces, r = _half_s_pieces([s for _, s in crossings])
    base = problem.base
    w = _rounded(mpmath.exp(-1j * r * mpmath.log(base[j])))
    bj, mw = to_mpc(base[j]).real, _modulus(w.norm())
    t = [Q(1) / w.norm() if i == j else _rounded(
        to_mpc(b).real * bj ** (-p / mpmath.mpf(2)) / mw ** p).re
        for i, (b, p) in enumerate(zip(base, pairing))]
    m = tuple(ti * w ** p for ti, p in zip(t, pairing))
    if tuple((mi * m[j] ** -p).conjugate() for mi, p in zip(m, pairing)) != m:
        raise InternalCheckError("the end of reflection path %d is not fixed by "
                                 "sigma_%d" % (j, j))
    return _log_linear_polygon(_base_point(problem), m, u, walls, spieces)


# -- Taylor-series transport ----------------------------------------------------------
#
# On a step z(tau) = c + tau d, tau in [-1, 1] about the centre c, the flat
# sections satisfy G' = M(tau) G with M = sum_j A_j(z) d_j / z_j.  A moving
# coordinate gives d_j / z_j = 1/(tau - sigma_j), sigma_j = -c_j/d_j, and a
# wall beta met by a moving coordinate the denominator p_beta = 1 - z^beta,
# so with L = prod_sigma (tau - sigma) prod_beta p_beta (one factor per
# distinct sigma) the system is L G' = N G with L and N polynomial and
# exact.  Its Taylor recurrence,
#     (k+1) l_0 g_{k+1} = sum_m N_m g_{k-m} - sum_{m>=1} (k+1-m) l_m g_{k+1-m},
# is that of the ray at the origin with A = 0, Q = L / l_0 and N_m / l_0 as
# its N_{m+1}: _series_sums runs both.

# a step's half-width is at most this fraction of the certified radius at its
# centre (and, as a first guess, at its left end), so both ends lie within
# half the radius of convergence of the centred series
_STEP_FRACTION = Q(1, 2)
_TAIL_GUARD = 8           # a step's tail is below 2^-(prec + _TAIL_GUARD) / yhat(1)^2
_COMPOSE_GUARD = 32       # extra bits of the step inverses and of the products
_RTOL = "1e-13"           # the default demanded bound of a path, relative to max(1, |T|)
_MARGIN = Q(1, 1000)      # a step left end or centre nearer the divisor is refused
_MARGIN2 = _MARGIN * _MARGIN
_LN2 = math.log(2)
_UP = 1 + 2.0 ** -40      # a float bound times this stays a bound
_RAY_TERM_FACTOR = 64     # the ray's term cap, in multiples of its predicted count


class Transport(mpmath.matrix):
    """Transport matrix of a path, with the error its steps certify.

    error bounds the max-row-sum norm of this matrix minus the exact
    transport along the path's polygon (series tails, fixed-point
    rounding, composition and the final rounding to the working
    precision); accuracy_bits is -log2(error / max(1, |T|)), rounded down.
    steps and terms count the Taylor steps of the path and the series terms
    they summed.  For a reflection path these describe its half
    (reflection_path); kz.monodromy does not bound the mirror half it
    forms from it.  kz's G at the base point, one step of the ray series
    from the origin, carries the same fields.
    """


def _where(index: int, t) -> str:
    return "segment %d, t = %s" % (index, mpmath.nstr(to_mpc(t).real, 8))


def _modulus(norm: Q) -> mpmath.mpf:
    """|x| from the exact |x|^2."""
    return mpmath.sqrt(to_mpc(norm).real)


def _nearest_wall(problem, z) -> str:
    """Message suffix naming the wall z^beta = 1 nearest to z and |1 - z^beta|."""
    dists = [((1 - _zpow(z, beta)).norm(), beta)
             for beta, _ in problem.terms_exact]
    if not dists:
        return ""
    d, beta = min(dists)
    return ", nearest wall z^%s = 1 at |1 - z^beta| = %s" \
        % (beta, mpmath.nstr(_modulus(d), 8))


def _margin_check(problem, z, where: str):
    """ScopeError when |z_i| or |1 - z^beta| is below _MARGIN, decided exactly."""
    for i, zi in enumerate(z):
        if zi.norm() < _MARGIN2:
            raise ScopeError("path too close to a coordinate hyperplane "
                             "(%s, |z_%d| = %s)"
                             % (where, i, mpmath.nstr(_modulus(zi.norm()), 8)))
    for beta, _ in problem.terms_exact:
        w = 1 - _zpow(z, beta)
        if w.norm() < _MARGIN2:
            raise ScopeError("path too close to the wall z^%s = 1 "
                             "(%s, |1 - z^beta| = %s)"
                             % (beta, where, mpmath.nstr(_modulus(w.norm()), 8)))


def _root_radius(p) -> float:
    """A lower bound on the moduli of the zeros of p, p(0) != 0, certified exactly.

    Exact for a linear p.  Otherwise the largest r found by bisection in
    log r, between Fujiwara's lower bound 1/(2 max_k |p_k/p_0|^(1/k)) and
    the geometric mean |p_0/p_d|^(1/d) of the moduli, at which
    _zero_free_disc certifies p(r t).
    """
    ints = _gaussian_integers(p)
    norms = [x * x + y * y for x, y in ints]  # |p_k|^2 times one square
    if len(p) == 2:
        return (norms[0] / norms[1]) ** 0.5 * (1 - 2.0 ** -40)
    deg = len(p) - 1

    def certified(r):
        # v^deg p(u t / v) has the integer coefficients p_k u^k v^(deg - k)
        u, v = r.numerator, r.denominator
        return _schur_cohn([(x * u ** k * v ** (deg - k), y * u ** k * v ** (deg - k))
                            for k, (x, y) in enumerate(ints)])

    lo = _dyadic_below(0.5 / max((x / norms[0]) ** (0.5 / k)
                                 for k, x in enumerate(norms) if k))
    while not certified(lo):
        lo *= Q(7, 8)
    hi = (norms[0] / norms[-1]) ** (0.5 / deg)
    for _ in range(8):
        mid = _dyadic_below(float(lo * hi) ** 0.5)
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def _dyadic_below(x: float) -> Q:
    """A dyadic rational of at most 8 significant bits, at most x > 0."""
    q = Q(x)
    shift = q.numerator.bit_length() - 8
    return Q(q.numerator >> shift << shift, q.denominator) if shift > 0 else q


def _poly_prod(polys) -> list:
    out = [Gaussian(1)]
    for p in polys:
        out = _poly_mul(out, p)
    return out


def _poly_add(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _sparse(mat):
    """Per row of an integer matrix, (columns, values) of its nonzero entries;
    None for a zero matrix."""
    rows = [(tuple(c for c, x in enumerate(row) if x), tuple(x for x in row if x))
            for row in mat]
    return rows if any(vals for _, vals in rows) else None


class _IntegerBasis:
    """The exact matrices of a problem as integer matrices over one denominator.

    mats lists A_{j0} (index j), then 1 - s_beta per term (index rank + k),
    then the extra coefficients; extra_of[j] lists (gamma, index) of A_j's.
    The problem's data are rational (kz.ConnectionProblem), so each is one
    integer matrix.  sparse holds the same matrices as _sparse rows, and
    unit the identity so; dim is their size.
    """

    def __init__(self, problem):
        exact = problem.a0_exact + [proj for _, proj in problem.terms_exact]
        self.extra_of = [[] for _ in range(problem.rank)]
        for gamma, mats in problem.extra_exact.items():
            for j, m in enumerate(mats):
                if m is not None:
                    self.extra_of[j].append((gamma, len(exact)))
                    exact.append(m)
        den = math.lcm(*(x.denominator for m in exact for row in m for x in row))
        self.den, self.dim = den, problem.dim
        self.mats = [[[x.numerator * (den // x.denominator) for x in row] for row in m]
                     for m in exact]
        self.sparse = [_sparse(m) for m in self.mats]
        self.unit = _sparse([[int(r == c) for c in range(problem.dim)]
                             for r in range(problem.dim)])


def _products(terms, n: int) -> list:
    """The integer matrix sum c X M over (c, X, M), X as _sparse rows (None
    for zero) and M dense.  Entry (r, col) is one dot product over the
    nonzero entries of row r of every X."""
    terms = [t for t in terms if t[1]]
    out = []
    for r in range(n):
        coefs = [c * v for c, x, _ in terms for v in x[r][1]]
        rows = [m[i] for _, x, m in terms for i in x[r][0]]
        out.append([sum(map(int.__mul__, coefs, col)) for col in zip(*rows)]
                   if rows else [0] * n)
    return out


def _top(mat) -> int:
    """The largest square of the entries of an integer matrix."""
    return max(x * x for row in mat for x in row)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _step_factors(problem, c, delta):
    """The factors of L on the line c + t delta, with bounds on their zeros.

    Returns (poles, walls): poles maps each distinct sigma = -c_j/delta_j to
    the coordinates j sharing it; walls lists (term index, 1 - z^beta in t,
    a lower bound on the moduli of its zeros) for every wall that a moving
    coordinate meets.  The chord parameter t is the unit.
    """
    poles: Dict[Gaussian, List[int]] = {}
    for j, (cj, dj) in enumerate(zip(c, delta)):
        if dj:
            poles.setdefault(-cj / dj, []).append(j)
    walls = []
    for k, (beta, _) in enumerate(problem.terms_exact):
        if _moving(delta, beta):
            p = _wall_poly(c, delta, beta)
            walls.append((k, p, _root_radius(p)))
    return poles, walls


def _series_terms(nhat, radii, tail_log2: float):
    """Terms and majorant data of a Taylor step.

    M(tau) = N(tau)/L(tau) is majorized by Mhat = Nhat(tau) prod_i 1/(1 -
    tau/rho_i), with Nhat the norms of N_m/l_0 and rho_i lower bounds on the
    moduli of the zeros of L (a moving coordinate gives at least one); G is
    then majorized by yhat = exp(int_0^tau Mhat), and for 1 < r < min rho_i
    the tail sum_{k>=K} |g_k| at tau = 1 is at most yhat(r) r^-K r/(r - 1).
    The integral is bounded above by a right-endpoint sum of the increasing
    Mhat on a grid uniform in -log(1 - s/rho_min).  Returns (K, log2 of the
    tail bound, log yhat(1), prod_i 1/(1 - 1/rho_i)), with K the fewest
    terms over a few r whose tail is below 2^tail_log2 / yhat(1)^2: a
    centred step inverts the series at one end, and the bound of its
    transport (_step_transport) carries the tail times powers of yhat(1).
    """
    rho0 = min(radii)

    def mhat(s):
        out = sum(a * s ** m for m, a in enumerate(nhat))
        for rho in radii:
            out /= 1 - s / rho
        return out

    def log_yhat(r):
        top = -math.log(1 - r / rho0)
        grid = [rho0 * (1 - math.exp(-top * k / 24)) for k in range(25)]
        return sum(mhat(b) * (b - a) for a, b in zip(grid, grid[1:]))

    log_y1 = log_yhat(1.0)
    rs = [1 + (rho0 - 1) * th for th in (0.5, 0.7, 0.8, 0.88, 0.94, 0.97)]
    best = None
    for r in rs:
        lr = math.log(r)
        head = log_yhat(r) + math.log(r / (r - 1))
        k = max(1, int(-((tail_log2 * _LN2 - 2 * log_y1 - head) // lr)))
        if best is None or k < best[0]:
            best = (k, (head - k * lr) / _LN2)
    lam1 = 1.0
    for rho in radii:
        lam1 /= 1 - 1 / rho
    return best[0], best[1], log_y1, lam1


def _integer_data(basis: _IntegerBasis, ell, qs) -> tuple:
    """The series data of L h' = N h over one denominator: (den, nfin, qfin).

    ell lists the scalar polynomial L and qs maps an index of basis.mats to
    the polynomial q_b of N = sum_b q_b M_b, constant terms first, with
    Gaussian-rational coefficients and ell[0] != 0.  With big the lcm of their
    denominators, l_0 = big ell[0] and c = conj(l_0), or the sign of l_0
    when it is real, den = basis.den c l_0 is a positive integer; nfin[m] is
    (re, im) of the integer matrix c big basis.den N_m and qfin[m - 1] that
    of the integer c big basis.den ell[m], so that N_m / ell[0] and ell[m] /
    ell[0] are nfin[m] / den and qfin[m - 1] / den: the nfin and qfin of
    _series_sums, from m = 0 on for N.
    """
    big = math.lcm(*(x.d for x in ell), *(x.d for q in qs.values() for x in q))

    def gint(x):
        f = big // x.d
        return (x.a * f, x.b * f)

    l0 = gint(ell[0])
    cj = (l0[0], -l0[1]) if l0[1] else (1 if l0[0] > 0 else -1, 0)
    den = basis.den * _cmul(cj, l0)[0]
    qfin = [tuple(basis.den * v for v in _cmul(cj, gint(x))) for x in ell[1:]]
    n = basis.dim
    nfin = []
    for m in range(max(map(len, qs.values()), default=0)):
        nr = [[0] * n for _ in range(n)]
        ni = [[0] * n for _ in range(n)]
        for b, q in qs.items():
            if m < len(q) and q[m]:
                qr, qi = _cmul(cj, gint(q[m]))
                for r, row in enumerate(basis.mats[b]):
                    for col, x in enumerate(row):
                        if x:
                            nr[r][col] += qr * x
                            ni[r][col] += qi * x
        nfin.append((nr, ni))
    return den, nfin, qfin


def _content_free(den: int, nfin, qfin) -> tuple:
    """(den, nfin, qfin) of _integer_data with the gcd of all their integers
    divided out: the same rationals N_m / l_0 and ell[m] / l_0."""
    g = math.gcd(den, *(v for q in qfin for v in q),
                 *(v for mats in nfin for mat in mats for row in mat for v in row))
    if g == 1:
        return den, nfin, qfin
    return (den // g,
            [tuple([[v // g for v in row] for row in mat] for mat in mats) for mats in nfin],
            [tuple(v // g for v in q) for q in qfin])


def _series_sums(prefix, nfin, qfin, den: int, nterms: int, amat=None, border=()):
    """The even and odd parts of h_0 + ... + h_{nterms-1}, from h_0..h_K, in fixed point.

    h(t) = sum_k h_k t^k solves Q t h' = N h + [A, Q h], with the scalar Q
    = 1 + Q_1 t + ... and N = N_1 t + N_2 t^2 + ..., so that
        (k - ad_A) h_k = r_k + [A, S_k],  r_k = sum_{m>=1} (N_m - (k - m) Q_m) h_{k-m},
    with S_k = sum_{m>=1} Q_m h_{k-m}.  nfin[m-1] = (re, im) of the integer
    matrix den N_m and qfin[m-1] = (re, im) of the integer den Q_m, den >
    0.  prefix lists h_0..h_K, real, as row-major ints scaled by 2^W.  A
    column j of h_{k-1}, h_{k-2}, ... is held as its real parts then its
    imaginary parts per term and stacked, so that entry (i, j) of den r_k is
    two dot products of row i of [N_m^re | -N_m^im]_m and [N_m^im |
    N_m^re]_m with the stack, over the positions where either row is
    nonzero; the Q-part is folded into the diagonal of those rows, term by
    term.  When every N_m and Q_m is real, so is every h_k: a column is then
    its real parts alone, and each entry one dot product with row i of
    [N_m^re]_m.

    With A = 0 (amat None), an ordinary point, h_k is the floor of the exact
    quotient of den r_k by den k, column by column.  Otherwise the data are
    real, amat is the integer den A, upper triangular in the basis order
    border, den S_k is one more dot product over the diagonal slots, and h_k
    is solved entry by entry in the order of kz._solve_sylvester, the
    series' integer back-substitution: with U = den (S_k + h_k) over the
    entries solved so far, entry (a, b) of the recurrence times den^2 reads
        den (k den + A_bb - A_aa) h_ab = den r_ab + (A_aa - A_bb) S_ab
                                         + sum_{c!=a} A_ac U_cb - sum_{c!=b} U_ac A_cb
    (den r, den S and den A here), and h_ab is the floor of the exact
    quotient, which is floor(r_ab / (den k)) again when A = 0.  Past the
    prefix a zero divisor is an entry between blocks that nothing links,
    which stays 0.  Each h_k goes to the sum of its parity, so that the
    series at t = 1 and t = -1 is E + O and E - O.  Returns ((re, im) of E,
    (re, im) of O), each row-major, with im None when the data are real.
    """
    n = math.isqrt(len(prefix[0]))
    mul = int.__mul__
    depth = max(len(nfin), len(qfin))
    real = not any(qi for _, qi in qfin) and not any(
        x for _, ni in nfin for row in ni for x in row)
    width = n if real else 2 * n
    zero = [[0] * n for _ in range(n)]
    rows = []  # per row: kept positions, its rows there (im None if real), diagonal slots
    for i in range(n):
        ra, rb = [], []
        for m in range(depth):
            nr, ni = nfin[m] if m < len(nfin) else (zero, zero)
            if real:
                ra += nr[i]
            else:
                ra += nr[i] + [-x for x in ni[i]]
                rb += ni[i] + nr[i]
        diag = [m * width + i for m in range(len(qfin))]
        keep = sorted({p for p, x in enumerate(ra) if x or (rb and rb[p])}
                      | set(diag) | (set() if real else {p + n for p in diag}))
        slot = {p: q for q, p in enumerate(keep)}
        # a row that keeps every position reads the stack itself (keep None)
        rows.append((None if len(keep) == len(ra) else keep, [ra[p] for p in keep],
                     None if real else [rb[p] for p in keep],
                     [(slot[p], ra[p]) if real else
                      (slot[p], slot[p + n], ra[p], ra[p + n], rb[p], rb[p + n])
                      for p in diag]))
    if amat is not None:
        right = [[(c, amat[a][c]) for c in range(n) if c != a and amat[a][c]]
                 for a in range(n)]
        left = [[(c, amat[c][b]) for c in range(n) if c != b and amat[c][b]]
                for b in range(n)]
    last = len(prefix) - 1
    sums = tuple(([0] * (n * n), [0] * (n * n)) for _ in range(2))
    for k, h in enumerate(prefix):
        sums[k & 1][0][:] = map(int.__add__, sums[k & 1][0], h)
    stacks = [[prefix[last - m][r * n + j] if m <= last and r < n else 0
               for m in range(depth) for r in range(width)] for j in range(n)]
    for k in range(last + 1, nterms):
        for m, (qr, qi) in enumerate(qfin[:k]):
            sr, si = (k - 1 - m) * qr, (k - 1 - m) * qi
            for _, va, vb, diag in rows:
                if real:
                    qa, ar = diag[m]
                    va[qa] = ar - sr
                else:
                    qa, qb, ar, ai, br, bi = diag[m]
                    va[qa], va[qb] = ar - sr, ai + si
                    vb[qa], vb[qb] = br - si, bi - sr
        if amat is None:
            div, cols = den * k, []
            for st in stacks:
                col_re, col_im = [], []
                for keep, va, vb, _ in rows:
                    x = st if keep is None else list(map(st.__getitem__, keep))
                    col_re.append(sum(map(mul, va, x)) // div)
                    if vb is not None:
                        col_im.append(sum(map(mul, vb, x)) // div)
                cols.append((col_re, col_im))
        else:
            rv, sv = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
            for j, st in enumerate(stacks):
                for i, (keep, va, _, diag) in enumerate(rows):
                    x = st if keep is None else list(map(st.__getitem__, keep))
                    rv[i][j] = sum(map(mul, va, x))
                    sv[i][j] = sum(qm * x[q] for (q, _), (qm, _) in zip(diag, qfin))
            h, u = [[0] * n for _ in range(n)], [row[:] for row in sv]
            for a in reversed(border):
                for b in border:
                    div = den * (k * den + amat[b][b] - amat[a][a])
                    if div:
                        acc = den * rv[a][b] + (amat[a][a] - amat[b][b]) * sv[a][b]
                        for c, x in right[a]:
                            acc += x * u[c][b]
                        for c, x in left[b]:
                            acc -= u[a][c] * x
                        h[a][b] = acc // div
                        u[a][b] += den * h[a][b]
            cols = [([h[r][j] for r in range(n)], []) for j in range(n)]
        sum_re, sum_im = sums[k & 1]
        for j, (col_re, col_im) in enumerate(cols):
            stacks[j] = col_re + col_im + stacks[j][:-width]
            for i, x in enumerate(col_re):
                sum_re[i * n + j] += x
            for i, x in enumerate(col_im):
                sum_im[i * n + j] += x
    if real:
        return tuple((sum_re, None) for sum_re, _ in sums)
    return sums


# A fixed-point complex matrix is a pair (re, im) of row-major int lists: the
# n x n matrix (re + i im) 2^-bits, the scale bits held by the caller.  A real
# one has im None.


def _fixed_mul(a, b, n: int):
    """The exact product of two fixed-point matrices, both real or both
    complex; the scales add."""
    (ar, ai), (br, bi) = a, b
    re, im = [0] * (n * n), [0] * (n * n)
    for i in range(n):
        for k in range(n):
            xr = ar[i * n + k]
            if ai is None:
                if xr:
                    for j in range(n):
                        re[i * n + j] += xr * br[k * n + j]
                continue
            xi = ai[i * n + k]
            if xr or xi:
                for j in range(n):
                    yr, yi = br[k * n + j], bi[k * n + j]
                    re[i * n + j] += xr * yr - xi * yi
                    im[i * n + j] += xr * yi + xi * yr
    return re, None if ai is None else im


def _fixed_norm(a, n: int, bits: int) -> mpmath.mpf:
    """An upper bound on the max-row-sum norm of a fixed-point matrix."""
    re, im = a
    if im is None:
        size = max(sum(abs(re[k]) + 1 for k in range(i * n, i * n + n)) for i in range(n))
    else:
        size = max(sum(math.isqrt(re[k] ** 2 + im[k] ** 2) + 1
                       for k in range(i * n, i * n + n)) for i in range(n))
    return mpmath.ldexp(size, -bits)


def _fixed_inverse(b, n: int, wbits: int, xbits: int):
    """An approximate inverse of B = b 2^-wbits, as ints scaled by 2^xbits >= 2^wbits.

    Gauss-Jordan with partial pivoting on rounded fixed-point entries; the
    rounding is not tracked, the caller certifies the result by its
    residual.  The inverse of a real B is real: its imaginary parts stay 0,
    and the result has im None.
    """
    one, shift = 1 << xbits, xbits - wbits
    bi = [0] * (n * n) if b[1] is None else b[1]
    rows = [[(b[0][i * n + j] << shift, bi[i * n + j] << shift) for j in range(n)]
            + [(one if i == j else 0, 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: rows[i][k][0] ** 2 + rows[i][k][1] ** 2)
        rows[k], rows[p] = rows[p], rows[k]
        pr, pi = rows[k][k]
        norm = pr * pr + pi * pi
        rows[k] = [(((x * pr + y * pi) << xbits) // norm,
                    ((y * pr - x * pi) << xbits) // norm) for x, y in rows[k]]
        for i in range(n):
            fr, fi = rows[i][k]
            if i != k and (fr or fi):
                rows[i] = [(x - ((fr * u - fi * v) >> xbits),
                            y - ((fr * v + fi * u) >> xbits))
                           for (x, y), (u, v) in zip(rows[i], rows[k])]
    return ([x for row in rows for x, _ in row[n:]],
            None if b[1] is None else [y for row in rows for _, y in row[n:]])


def _fixed_matrix(a, n: int, bits: int) -> mpmath.matrix:
    """A fixed-point matrix as an mpmath matrix at the working precision;
    its entries are real (mpf) when its imaginary part is None."""
    re, im = a
    out = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            x = mpmath.mpf((re[i * n + j], -bits))
            out[i, j] = x if im is None else mpmath.mpc(x, mpmath.mpf((im[i * n + j], -bits)))
    return out


def _step_transport(plus, minus, n: int, wbits: int, eps, log2_y1: float):
    """G(1) G(-1)^-1 from fixed-point G(1) and G(-1), each within eps, and its bound.

    K = G(-1)^-1 solves K' = -K M on the step, so the step's own majorant
    bounds it: |K| <= yhat(1).  X, an approximate inverse of the computed
    B ~ G(-1) (_fixed_inverse, _COMPOSE_GUARD bits finer than B), is
    certified by R = I - X B, formed exactly: with beta = |X| / (1 - |R|)
    >= |B^-1|, |X - K| <= |X - B^-1| + |B^-1 - K| <= beta (|R| + eps yhat(1)).
    The product A X, A the computed G(1), is formed exactly and rounded
    once to the working precision of the caller.  Returns the matrix and
    the bound on its max-row-sum error.
    """
    xbits = wbits + _COMPOSE_GUARD
    x = _fixed_inverse(minus, n, wbits, xbits)
    xb = _fixed_mul(x, minus, n)
    one = 1 << (wbits + xbits)
    residual = ([(one if k % (n + 1) == 0 else 0) - v for k, v in enumerate(xb[0])],
                None if xb[1] is None else [-v for v in xb[1]])
    r = _fixed_norm(residual, n, wbits + xbits)
    if r >= 0.5:
        raise ToleranceError("step inverse not certified (|I - X B| = %s)"
                             % mpmath.nstr(r, 3))
    phi = _fixed_matrix(_fixed_mul(plus, x, n), n, wbits + xbits)
    na, nx = _fixed_norm(plus, n, wbits), _fixed_norm(x, n, xbits)
    beta = nx / (1 - r)
    dx = beta * (r + eps * mpmath.mpf(2) ** log2_y1)
    err = eps * nx + (na + eps) * dx + mpmath.ldexp(na * nx, 1 - mp.prec)
    return phi, err


def _taylor_step(problem, basis: _IntegerBasis, c, delta,
                 step: Q, poles, walls):
    """Transport over z = c + tau step delta, tau from -1 to 1, and its error bound.

    Builds L and N exactly around the centre c, takes the number of terms
    from the majorant (_series_terms) so that the tail is below
    2^-(prec + _TAIL_GUARD) / yhat(1)^2, and the fixed-point width W so that
    the rounding, propagated by the same majorant, is below a quarter of
    that: sum_k |eta_k| yhat(1)^2 Lambda(1) with |eta_k| <= sqrt(2) n 2^-W
    per term (the propagation of a fresh error through L G' - N G = l_0
    eta' by variation of constants).  The bounds hold at tau = 1 and at
    tau = -1 alike, since they come from absolute values.  One run of the
    recurrence gives G(1) = E + O and G(-1) = E - O (_series_sums, with
    the data of _integer_data, A = 0 and the prefix g_0 = I); the
    step's transport is G(1) G(-1)^-1 (_step_transport), whose inverse
    costs the factor yhat(1)^2 that the targets are raised by.  Returns the
    matrix, the bound on its max-row-sum error and the number of terms.
    """
    n = problem.dim
    d = tuple(step * x for x in delta)
    sigmas = [(sigma / step, js) for sigma, js in poles.items()]
    scaled = [(k, [x * step ** m for m, x in enumerate(p)], radius / float(step))
              for k, p, radius in walls]
    lin = [[-s, Gaussian(1)] for s, _ in sigmas]
    wall_prod = _poly_prod([p for _, p, _ in scaled])
    ell = _poly_mul(_poly_prod(lin), wall_prod)
    qs: Dict[int, list] = {}

    def add(b, poly):
        qs[b] = _poly_add(qs[b], poly) if b in qs else poly

    for s, (_, js) in enumerate(sigmas):
        pi_s = _poly_prod(lin[:s] + lin[s + 1:])
        pw = _poly_mul(pi_s, wall_prod)
        for j in js:
            add(j, pw)
            for gamma, b in basis.extra_of[j]:
                add(b, _poly_mul(pw, _line_power(c, d, gamma)))
        for k, p, _ in scaled:
            coeff = problem.h_exact * sum(problem.terms_exact[k][0][j] for j in js)
            if coeff:
                zb = [1 - p[0]] + [-x for x in p[1:]]
                others = _poly_prod([p2 for k2, p2, _ in scaled if k2 != k])
                add(problem.rank + k, [coeff * x for x in
                                       _poly_mul(_poly_mul(pi_s, zb), others)])
    den, nfin, qfin = _content_free(*_integer_data(basis, ell, qs))
    densq = den * den
    nhat = [max(sum(((nr[r][col] ** 2 + ni[r][col] ** 2) / densq) ** 0.5
                    for col in range(n)) for r in range(n)) * (1 + 2.0 ** -40)
            for nr, ni in nfin]
    radii = [float(s.norm()) ** 0.5 * (1 - 2.0 ** -40) for s, _ in sigmas]
    for _, p, radius in scaled:
        radii += [radius] * (len(p) - 1)
    target = -(problem.prec + _TAIL_GUARD)
    nterms, tail_log2, log_y1, lam1 = _series_terms(nhat, radii, target)
    log2_y1 = log_y1 / _LN2
    amp = math.exp(2 * log_y1) * lam1 * nterms * 1.5 * n
    wbits = -target + 2 + int(math.log(amp, 2) + 2 * log2_y1 + 1)
    one = [1 << wbits if r == c else 0 for r in range(n) for c in range(n)]
    even, odd = _series_sums([one], nfin, qfin, den, nterms)
    plus = tuple(None if ep is None else [e + o for e, o in zip(ep, op)]
                 for ep, op in zip(even, odd))
    minus = tuple(None if ep is None else [e - o for e, o in zip(ep, op)]
                  for ep, op in zip(even, odd))
    eps = mpmath.mpf(2) ** tail_log2 + mpmath.ldexp(mpmath.mpf(amp), -wbits)
    phi, err = _step_transport(plus, minus, n, wbits, eps, log2_y1)
    return phi, err, nterms


def _ray_data(problem, basis: _IntegerBasis):
    """The recurrence data of the ray series and the data of its majorant.

    Returns (nfin, qfin, amat, den, poles, terms): den N_m and den Q_m (m >=
    1) as _integer_data gives them, the integer den A of _series_sums, and
    the parts of the majorant bhat of B - A, (c, w, ht) per wall, c w
    t^ht/(1 - w t^ht) with c = |h| ht |1 - s_beta| and w = |base^beta|, and
    (c, d) per extra coefficient C_gamma, c t^d with c = |C_gamma|
    |base^gamma| and d = |gamma|.  ScopeError when a wall has w >= 1: the
    series in t would not reach t = 1.
    """
    n, rank, base = problem.dim, problem.rank, problem.base
    walls = [(rank + k, sum(beta), _zpow(base, beta))
             for k, (beta, _) in enumerate(problem.terms_exact)]
    if any(abs(w) >= 1 for _, _, w in walls):
        raise ScopeError("a wall |base^beta| >= 1 stops the series on the ray "
                         "from the origin before the base point")
    extras = [(b, sum(gamma), _zpow(base, gamma)) for j in range(rank)
              for gamma, b in basis.extra_of[j] if any(gamma)]
    polys = [[Q(1)] + [Q(0)] * (ht - 1) + [-w] for _, ht, w in walls]
    qpoly = _poly_prod(polys)
    qs = {}  # basis index -> its polynomial coefficient in N(t) / t
    for i, (b, ht, w) in enumerate(walls):
        others = _poly_prod(polys[:i] + polys[i + 1:])
        qs[b] = [Gaussian(0)] * (ht - 1) + [problem.h_exact * ht * w * x for x in others]
    for b, d, w in extras:
        qs[b] = [Gaussian(0)] * (d - 1) + [w * x for x in qpoly]
    den, nfin, qfin = _integer_data(basis, qpoly, qs)
    amat = [[den // basis.den * sum(basis.mats[j][r][c] for j in range(rank))
             for c in range(n)] for r in range(n)]
    poles = [(abs(float(problem.h_exact)) * ht * _norm(basis.mats[b], basis.den),
              float(abs(w)) * _UP, ht) for b, ht, w in walls]
    terms = [(_norm(basis.mats[b], basis.den) * float(abs(w)) * _UP, d)
             for b, d, w in extras]
    return nfin, qfin, amat, den, poles, terms


def _norm(mat, scale) -> float:
    """An upper bound on the max-row-sum norm of the integer matrix mat / scale."""
    return max(sum(abs(x) for x in row) for row in mat) / scale * _UP


def _ray_prefix(forms, base, n: int, length: int) -> list:
    """h_k = sum_{|gamma| = k} H_gamma base^gamma for k <= length, exactly.

    forms are the integer forms (d, M) of the H_gamma, H_gamma = M/d; each
    h_k is returned as (d_k, integer matrix), h_k = matrix / d_k.
    """
    parts = [[] for _ in range(length + 1)]
    for gamma, (d, m) in forms.items():
        if sum(gamma) <= length:
            parts[sum(gamma)].append((Q(_zpow(base, gamma)) / d, m))
    out = []
    for part in parts:
        dk = math.lcm(*(c.denominator for c, _ in part))
        mat = [[0] * n for _ in range(n)]
        for c, m in part:
            f = c.numerator * (dk // c.denominator)
            for r in range(n):
                for col in range(n):
                    mat[r][col] += f * m[r][col]
        out.append((dk, mat))
    return out


def _ray_bounds(exact, nfin, qfin, amat, den: int, block, poles, terms,
                target: int) -> tuple:
    """Terms, tail bound and rounding amplification of the ray series.

    The regular-singular majorant (van der Hoeven 2001, Mezzarobba 2019),
    kept as a sequence.  Past the prefix exact (_ray_prefix), |(k -
    ad_A)^-1| <= c_k: a Neumann series over the off-diagonal part of A,
    with delta_k the least |k + A_bb - A_aa| over the index pairs of one
    block, or 1/(k - 2|A|) once k > 2|A|.  B - A is majorized through its
    partial fractions by bhat (poles and terms of _ray_data) and 1/Q by
    qhat = prod 1/(1 - w t^ht); bhat, qhat and their products with a
    sequence are geometric recurrences, one per wall.  So |h_k| <= mu_k,
    mu_k = |h_k| up to the prefix and c_k (bhat mu)_k after it.  Past N >
    2|A|, k c_k <= kappa = N/(N - 2|A|), and the tail u = sum_{k>=N} |h_k|
    t^k satisfies t u' <= kappa (bhat u + (bhat mu_{<N})_{>=N}); with
    yhat = exp(kappa int_0^t bhat(s)/s ds), _series_terms' majorant for
    Mhat = kappa bhat(t)/t, that gives at t = 1
        sum_{k>=N} |h_k| <= yhat(1) kappa/N sum_{j<N} mu_j sum_{m>=N-j} bhat_m,
    in closed form, and N is the first with this below 2^target.  The
    error of the fixed-point coefficients solves the recurrence driven by
    the defects theta_j of the rounded prefix and of each floor (below |k +
    A_bb - A_aa| units per entry, n of them per row), divided by Q, so that
    |e_k| <= c_k ((bhat e)_k + (theta qhat)_k) past the prefix and |e_k| <=
    n units in it.  Returns (N, the tail bound, sum_{k<N} |e_k| in units).

    A short prefix leaves c_k large at its first floors, and the bound then
    needs far more terms than the walls' decay predicts: -target bits at
    -log2 rho bits per term, rho = max_beta |base^beta|^(1/ht beta) (one
    bit per term without walls).  Past _RAY_TERM_FACTOR times that count,
    beyond the prefix and 2|A|, ToleranceError names the prefix length.
    Far out, the powers in the Neumann sum of c_k leave the float range;
    _neumann_sum then takes them from logs.
    """
    n = len(amat)
    length = len(exact) - 1
    a_norm = _norm(amat, den)
    nu = 2 * _norm([[x if r != c else 0 for c, x in enumerate(row)]
                    for r, row in enumerate(amat)], den)
    nhat = [_norm(nm, den) for nm, _ in nfin]
    qabs = [abs(q) / den for q, _ in qfin]
    shifts = {amat[b][b] - amat[a][a] for a in range(n) for b in range(n)
              if block[a] == block[b]}  # den (A_bb - A_aa)
    log_y1 = _UP * (sum(-c / ht * math.log(1 - w) for c, w, ht in poles)
                    + sum(c / d for c, d in terms))

    rho = max((w ** (1 / ht) for _, w, ht in poles), default=0.0)
    predicted = math.ceil(-target / -math.log2(rho)) if 0 < rho < 1 else -target
    cap = max(length, math.ceil(2 * a_norm)) + _RAY_TERM_FACTOR * predicted

    def inverse_bound(k):
        delta = min(abs(k * den + d) for d in shifts) / den / _UP
        c = _neumann_sum(nu, delta, 2 * n - 1)
        return min(c, 1 / (k - 2 * a_norm) * _UP) if k > 2 * a_norm else c

    def convolve(seq, run, k):
        """(bhat seq)_k, with run[i][k] = sum_{m>=1} w^m seq_{k - m ht} per wall."""
        out = 0.0
        for (c, w, ht), sums in zip(poles, run):
            sums.append(w * (seq[k - ht] + sums[k - ht]) if k >= ht else 0.0)
            out += c * sums[k]
        return out + sum(c * seq[k - d] for c, d in terms if d <= k)

    # theta_j in units: the rounded prefix's defect, then the floors'
    theta = [0.0] + [n * (j + 2 * a_norm + sum(
        (nhat[m - 1] if m <= len(nhat) else 0) + (qabs[m - 1] if m <= len(qabs) else 0)
        * (2 * a_norm + j - m) for m in range(1, j + 1))) for j in range(1, length + 1)]
    mu = [_norm(mat, dk) for dk, mat in exact]
    err = [float(n)] * (length + 1)
    mu_run, err_run = [[] for _ in poles], [[] for _ in poles]
    chain = [[] for _ in poles]  # theta qhat, one wall after another
    tails = [[0.0] for _ in poles]  # sum_{j<k} mu_j w^ceil((k - j)/ht)
    k = 0
    while True:
        if k >= cap:
            raise ToleranceError(
                "ray series from the origin: the tail bound is above 2^%d after "
                "%d terms, the cap for an exact prefix of %d terms (raise order)"
                % (target, k, length))
        if k > length:
            theta.append(n * (k + 2 * a_norm))
        zq = theta[k]
        for (_, w, ht), z in zip(poles, chain):
            zq += w * z[k - ht] if k >= ht else 0.0
            z.append(zq)
        bmu, berr = convolve(mu, mu_run, k), convolve(err, err_run, k)
        if k > length:
            c = inverse_bound(k)
            mu.append(c * bmu)
            err.append(c * (berr + zq))
        k += 1
        for (_, w, ht), tail in zip(poles, tails):
            tail.append(w * (tail[k - ht] + sum(mu[k - ht:k])) if k >= ht
                        else w * sum(mu[:k]))
        if k > length and k > 2 * a_norm:
            kappa = k / (k - 2 * a_norm) * _UP
            rest = sum(c / (1 - w) * tail[k] for (c, w, _), tail in zip(poles, tails))
            rest += sum(c * sum(mu[max(0, k - d):k]) for c, d in terms)
            bound = math.exp(kappa * log_y1) * kappa / k * rest * _UP
            if bound <= 2.0 ** target:
                return k, bound, sum(err)


def _neumann_sum(nu: float, delta: float, terms: int) -> float:
    """sum_{i < terms} nu^i / delta^(i+1) for delta > 0.

    The float sum wherever the powers fit the float range; past it each
    term comes from logs, and is inf if it is past the range too.
    """
    try:
        return sum(nu ** i / delta ** (i + 1) for i in range(terms))
    except OverflowError:
        total = 0.0
        for i in range(terms if nu else 1):  # 0^i = 0 for i > 0
            x = (i * math.log(nu) if i else 0.0) - (i + 1) * math.log(delta)
            total += math.exp(x) if x < 709 else math.inf
        return total


def _ray_step(problem, forms, length: int, border, block):
    """h(1) on the ray z = t base from the origin, and a bound on its error.

    h(t) = H(t base) solves t h' = B(t) h - h A, h(0) = I, with B(t) =
    sum_j A_j(t base) and A = sum_j A_{j0}.  The walls give Q(t) = prod_beta
    (1 - base^beta t^{ht beta}), so that N = Q (B - A) is a polynomial with
    N(0) = 0 and Q t h' = N h + [A, Q h]: the recurrence of _series_sums.
    Its first coefficients h_k, k <= length, are exact, from forms
    (kz.frobenius_series's integer forms of the H_gamma, _ray_prefix), and
    rounded once; the rest run in fixed point, as many as _ray_bounds asks
    for the tail to fall below 2^-(prec + _TAIL_GUARD), at a width that
    keeps the rounding below a quarter of that.  ScopeError as _ray_data
    raises it.  Call it at a working precision above prec: the sum is
    rounded to it.  Returns h(1) as an mpmath matrix, the bound on its max-row-sum
    error and the number of terms.
    """
    n = problem.dim
    nfin, qfin, amat, den, poles, terms = _ray_data(problem, problem.integer_basis)
    exact = _ray_prefix(forms, problem.base, n, length)
    target = -(problem.prec + _TAIL_GUARD)
    nterms, tail, amp = _ray_bounds(exact, nfin, qfin, amat, den, block, poles,
                                    terms, target)
    wbits = -target + 2 + math.ceil(math.log2(amp))
    prefix = [[(x << wbits) // dk for row in mat for x in row] for dk, mat in exact]
    even, odd = _series_sums(prefix, nfin, qfin, den, nterms, amat, border)
    h1 = _fixed_matrix(([e + o for e, o in zip(even[0], odd[0])], None), n, wbits)
    return h1, mpmath.mpf(tail) + mpmath.ldexp(mpmath.mpf(amp), -wbits), nterms


def _rownorm(a) -> mpmath.mpf:
    return max(sum(abs(a[i, j]) for j in range(a.cols)) for i in range(a.rows))


def _radius(poles, walls) -> float:
    """The certified distance, in chord parameter, to the nearest zero of L."""
    return min([float(s.norm()) ** 0.5 for s in poles] + [r for _, _, r in walls])


def _tolerance(rtol) -> mpmath.mpf:
    """rtol as an mpf, _RTOL when None; ConfigError unless it is finite and
    > 0, since a bound check err > rtol * max(1, |T|) with a NaN, infinite
    or non-positive rtol never fires or always does."""
    tol = mpmath.mpf(_RTOL if rtol is None else rtol)
    if not (mpmath.isfinite(tol) and tol > 0):
        raise ConfigError("rtol must be finite and > 0, got %r" % (rtol,))
    return tol


def continue_transport(problem, path: Sequence[list],
                       rtol=None) -> Transport:
    """Parallel transport along a polygonal path: solution values map as f -> T f.

    Taylor series on polygons, in centred steps.  Every chord of every
    piece is covered by steps; a step from the left end c, at chord
    parameter t, has half-width h = min((1 - t)/2, _STEP_FRACTION rho(c))
    (rho the certified distance to the divisor along the chord), shrunk
    until h <= _STEP_FRACTION rho(m) at its centre m = c + h delta.  The
    series of the flat section is expanded once at m and used at both ends
    (_taylor_step), so that a step reaches twice as far as one expanded at
    c, and a chord far from the divisor is one step.  The steps are
    composed in mpmath with _COMPOSE_GUARD extra bits, their bounds
    propagated through the products, and the result is rounded to the
    working precision.  At each step's left end and centre, ScopeError is
    raised when |z_i| or |1 - z^beta| is below _MARGIN (1e-3), decided
    exactly; ToleranceError when the path's bound exceeds
    rtol * max(1, |T|) (default rtol 1e-13; ConfigError unless rtol is
    finite and > 0).  The result carries the bound and the counts of steps
    and terms (Transport).
    """
    prec = problem.prec
    n = problem.dim
    rtol = _tolerance(rtol)
    basis = problem.integer_basis
    steps = terms = 0
    with mpmath.workprec(prec + _COMPOSE_GUARD):
        total = mpmath.eye(n)
        err = mpmath.mpf(0)
        for index, piece in enumerate(path):
            chords = len(piece) - 1
            for k, (v, w) in enumerate(zip(piece, piece[1:])):
                delta = tuple(b - a for a, b in zip(v, w))
                if not any(delta):
                    _margin_check(problem, v, _where(index, Q(k, chords)))
                    continue
                t = Q(0)
                while t < 1:
                    c = tuple(a + t * x for a, x in zip(v, delta)) if t else v
                    _margin_check(problem, c, _where(index, (k + t) / chords))
                    half = min((1 - t) / 2, _dyadic_below(
                        float(_STEP_FRACTION) * _radius(*_step_factors(
                            problem, c, delta))))
                    while True:
                        mid = tuple(a + half * x for a, x in zip(c, delta))
                        poles, walls = _step_factors(problem, mid, delta)
                        rho = _radius(poles, walls)
                        if half <= _STEP_FRACTION * rho:
                            break
                        half = _dyadic_below(float(_STEP_FRACTION) * rho)
                    here = _where(index, (k + t + half) / chords)
                    _margin_check(problem, mid, here)
                    phi, eps, nterms = _taylor_step(problem, basis, mid, delta,
                                                    half, poles, walls)
                    steps += 1
                    terms += nterms
                    nphi, ntot = _rownorm(phi), _rownorm(total)
                    total = phi * total
                    err = nphi * err + eps * (ntot + err) \
                        + mpmath.ldexp(8 * n * nphi * ntot, -(prec + _COMPOSE_GUARD))
                    ntot = _rownorm(total)
                    if err + mpmath.ldexp(ntot, 1 - prec) > rtol * max(1, ntot):
                        raise ToleranceError(
                            "transport error bound %s above rtol %s (%s%s)"
                            % (mpmath.nstr(err, 3), mpmath.nstr(rtol, 3), here,
                               _nearest_wall(problem, mid)))
                    t += 2 * half
        return _finish(total, err, prec, steps, terms)


def _finish(total, err, prec: int, steps: int, terms: int) -> Transport:
    """total rounded to prec, as a Transport whose error adds that rounding to err."""
    n = total.rows
    ntot = _rownorm(total)
    err += mpmath.ldexp(ntot, 1 - prec)
    out = Transport(n, n)
    with mpmath.workprec(prec):
        for i in range(n):
            for j in range(n):
                out[i, j] = +total[i, j]
    out.error = err
    out.accuracy_bits = int(mpmath.floor(-mpmath.log(err / max(1, ntot), 2)))
    out.steps, out.terms = steps, terms
    return out
