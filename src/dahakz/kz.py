"""Trigonometric Knizhnik-Zamolodchikov connection on finite module fibers.

The connection is d - sum_j A_j(z) dz_j/z_j with
A_j(z) = rho~_j - xi_j + sum_{beta>0} h beta_j z^beta/(1-z^beta) (1 - s_beta)
acting on a finite-dimensional fiber with exact generator matrices.  The
sign of the reflection term is the one for which the connection commutes
with the W-structure of the fiber (S_j A(z) + A(s_j z) J_j S_j = 0 with
J_j the chain-rule reindexing), which is also the sign that reproduces
the expected y-spectrum and the Gamma-function structure constants.  This
module builds the Frobenius fundamental solution G = H z^{A_0} at the
origin and takes it to the base point with one series on the ray z = t
base, t from 0 to 1, whose first coefficients are the exact Frobenius ones
and whose tail and rounding are certified (transport._ray_step); the
transport steps sum their Taylor series with the same fixed-point
recurrence, at A = 0.  It continues G along the first half of each
reflection path, which avoids the singular divisor, assembles the
monodromy operators Y_j (coweight loops, in closed form: exp(-2 pi i
A_{j0}) in the G-basis) and T_j (the half path P transported, the other
half by symmetry, so T_j = F^-1 S_j conj(F) with F = P G), rescales them
to affine-Hecke generators, and identifies the resulting representation
among torus-point standard modules.  The continuation is Taylor series
on polygons (the transport module): each path is a polygon with
Gaussian-rational vertices, each step sums the series of the flat section
to the working precision with a certified error bound, and a monodromy
reports the bits that G at the base point and its paths certify as
accuracy_bits.

A ConnectionProblem keeps only the exact data it is built from, which are
rational (a non-real entry is refused when the problem is built, so no
exact kernel carries an imaginary part; only the paths are complex), the
same data as integer matrices over one denominator (integer_basis), and the
exact spectral decomposition of the commuting triangular A_{j0}
(weight_blocks: projectors E_lambda and nilpotent parts on the exact
weight basis), each built once.  A matrix is converted to mpmath where it
is used, with _to_mp (to_mpc entry by entry, each rounded once) at the
precision of that use, as the fiber matrix of s_j in T_j.  Every
exponential of the A_{j0} (Y_j = exp(-2 pi i A_{j0}), base^{A_0} in G = H
z^{A_0}, y_alpha^-1 in the Bernstein relation) is the closed form exp_a0,
a finite sum of those exact matrices times scalar exponentials.  The
series coefficients H_gamma are solved on integers end to end: the
right-hand sides are integer products over the data's sparse integer
rows, the back-substitution is fraction-free, each entry an integer
numerator over an lcm of the denominators it reads times its divisor, with
one lcm and one gcd per H_gamma (_solve_sylvester), and each H_gamma is
kept as one integer matrix over one denominator, all that the monodromy
reads; the rounded coefficients and their check, the exact residual of
the rounded coefficients, are formed at their first read
(FundamentalSolution).
The transport steps and the flatness check read the exact data too.
Only the ray series and the transport and what is built from
them (G at the base point, T_j, relation residuals) are numeric.
Identification is exact on the y-side (y_j = e^{xi_j} in the G-basis, so
joint weights and eigenvectors come from the exact xi_j) and numeric only
in cyclicity.

All exponentials of weights use the convention e^z = exp(2*pi*i*z).
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as Q
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional

import mpmath
from mpmath.libmp import fzero

from . import affine as aw
from . import arrangements as arr
from . import linalg as la
from .errors import InternalCheckError, ScopeError, ToleranceError
from .hecke import intertwiner_element
from .modules import degenerate_fiber, parabolic_fiber
from .rootdata import RootDatum
from .scalars import rational_mpf, root_of_unity, to_mpc
from .transport import (_COMPOSE_GUARD, _exact, _finish, _IntegerBasis, _modulus,
                        _products, _ray_step, _rownorm, _sparse, _tolerance, _top,
                        _zpow, continue_transport, log_linear_path, loop_path,
                        reflection_path)

__all__ = [
    "ConnectionProblem", "FundamentalSolution",
    "trig_problem", "scalar_problem", "direct_sum",
    "parabolic_fiber",
    "frobenius_series", "continue_transport",
    "loop_path", "reflection_path", "log_linear_path",
    "monodromy", "rank_one_oracle", "rank_one_check",
    "identify", "parabolic_identify", "theorem41_check",
    "flatness_check",
]


def _maxnorm(a) -> mpmath.mpf:
    return max((abs(x) for x in a), default=mpmath.mpf(0))


def _e2pi(x):
    """e^x under the convention e^x = exp(2*pi*i*x)."""
    return mpmath.exp(2j * mpmath.pi * to_mpc(x))


def _maxnorm2(mat):
    """The largest x^2 over the entries of a rational matrix, exactly."""
    return max((x * x for row in mat for x in row), default=Q(0))


def _to_mp(mat) -> mpmath.matrix:
    """mpc matrix of an exact matrix (list of rows)."""
    return mpmath.matrix([[to_mpc(x) for x in row] for row in mat])


# -- the exact weight basis of the A_{j0} -------------------------------------------


class _WeightBlock(NamedTuple):
    """One joint generalized weight space of commuting triangular matrices A_j.

    weight is lambda (lambda_j the eigenvalue of A_j), vectors the canonical
    basis V_lambda of la.triangular_weight_basis, nilpotent the matrices
    D_j - lambda_j with A_j V_lambda = V_lambda D_j, and terms the pairs (m,
    entries) of the nonzero exact matrices prod_j N_j^{m_j} E_lambda / m!,
    entries as (row, column, value) with value != 0, with E_lambda =
    V_lambda (V^-1)_lambda the projector and N_j = (A_j - lambda_j) E_lambda.
    """
    weight: tuple
    vectors: list
    nilpotent: list
    terms: list


def _weight_blocks(mats) -> List[_WeightBlock]:
    """The _WeightBlock of each joint weight of the commuting triangular mats.

    V, the basis vectors of every weight as columns, is unit upper
    triangular in la.triangular_order, so its inverse is a
    back-substitution; (V^-1)_lambda is its rows at I_lambda.  D_j[c][b] is
    (A_j v_b)[c] at c in I_lambda, and N_j^{m_j} E_lambda = V_lambda (D_j -
    lambda_j)^{m_j} (V^-1)_lambda, so every term is a product of
    |I_lambda|-square matrices between V_lambda and (V^-1)_lambda.  The N_j
    commute and are nilpotent, so only |m| < |I_lambda| can be nonzero.
    """
    n, rank = len(mats[0]), len(mats)
    spaces = la.triangular_weight_basis(mats)
    vmat = la.zeros(n, n)
    for _, idx, vecs in spaces:
        for b, v in zip(idx, vecs):
            for r, x in enumerate(v):
                vmat[r][b] = x
    winv = la.unit_triangular_inverse(vmat, la.triangular_order(mats))
    out = []
    for lam, idx, vecs in spaces:
        size = len(idx)
        nil = []
        for a, lj in zip(mats, lam):
            av = [la.mat_vec(a, v) for v in vecs]
            nil.append([[av[i][c] - (lj if c == b else 0) for i, b in enumerate(idx)]
                        for c in idx])
        terms = []
        for m in itertools.product(range(size), repeat=rank):
            if sum(m) >= size:
                continue
            k = la.identity(size)
            for d, mj in zip(nil, m):
                for i in range(1, mj + 1):
                    k = la.mat_scale(la.mat_mul(k, d), Q(1, i))
            mat = la.mat_mul(la.mat_mul(la.transpose(vecs), k), [winv[b] for b in idx])
            entries = [(r, c, x) for r, row in enumerate(mat) for c, x in enumerate(row) if x]
            if entries:
                terms.append((m, entries))
        out.append(_WeightBlock(lam, vecs, nil, terms))
    return out


# -- the connection ---------------------------------------------------------------


class ConnectionProblem:
    """Immutable exact data of the connection d - sum_j A_j(z) dz_j/z_j.

    Built from exact real matrices (lists of rows of Fractions): a0[j] is
    the constant part A_{j0}; terms is a list of (beta, proj) with beta a
    positive root (integer exponent vector) and proj the matrix 1 - s_beta,
    contributing +h*beta_j * z^beta/(1-z^beta) * proj to A_j; extra maps a
    monomial exponent to one polynomial coefficient matrix (or None) per j
    for custom problems that are not of root-reflection shape; s lists the
    fiber matrices of the simple reflections.  The data are real, decided
    here once: a non-real entry of a0, of a projector or of an extra
    coefficient, a non-real h or a non-real coordinate of base raises
    ScopeError, so that every exact kernel downstream works on rationals.
    They are kept as a0_exact, terms_exact, extra_exact, h_exact and
    s_exact, every entry of the first three a Fraction, with no numeric
    copy: the numeric layer converts a matrix with _to_mp at prec where it
    reads it.  integer_basis holds the same matrices as integer matrices
    over one denominator, built at the first use and shared by the series,
    its residual, the ray step and every transport.  base is the exact base
    point, rationals (default 3/10, 5/10, ...).  a0 may be given as mpmath
    matrices of real entries; they are stored as exact rationals, bit for
    bit.  weight_blocks is the exact spectral decomposition of the A_{j0},
    built at the first use, and exp_a0 evaluates exp(shift + sum_j c_j
    A_{j0}) from it.
    """

    def __init__(self, a0, terms=(), extra=None, h=0, s=None, base=None,
                 prec: int = 256, datum: Optional[RootDatum] = None,
                 rho_tilde=None):
        def real(x, what):
            if isinstance(x, (int, Q)):
                return x if type(x) is Q else Q(x)
            x = _exact(x)
            if x.im:
                raise ScopeError("the connection data must be real: %s" % what)
            return x.re

        def real_matrix(m, what):
            what += " has a non-real entry"
            return [[real(x, what) for x in row]
                    for row in (m.tolist() if isinstance(m, mpmath.matrix) else m)]

        self.a0_exact = [real_matrix(m, "A_%d0" % j) for j, m in enumerate(a0)]
        self.terms_exact = [(tuple(beta), real_matrix(proj, "the projector of %s" % (beta,)))
                            for beta, proj in terms]
        self.extra_exact = {
            gamma: [None if m is None else
                    real_matrix(m, "the extra coefficient of z^%s" % (gamma,))
                    for m in mats]
            for gamma, mats in (extra or {}).items()}
        self.h_exact = real(h, "h is not real")
        self.s_exact = s
        self.rank = len(self.a0_exact)
        self.dim = len(self.a0_exact[0])
        self.prec = prec
        self.datum = datum
        self.rho_tilde = rho_tilde  # exact rho~_j list when built from a fiber
        self.base = tuple(Q(3 + 2 * i, 10) for i in range(self.rank)) \
            if base is None else tuple(real(b, "the base point is not real") for b in base)

    # -- exact evaluation at a point z (a tuple of Fractions or Gaussians) ---------

    def a_matrix(self, j: int, z):
        a = self.a0_exact[j]
        for beta, proj in self.terms_exact:
            bj = beta[j]
            if bj:
                zb = _zpow(z, beta)
                a = la.mat_add(a, la.mat_scale(proj, self.h_exact * bj * zb / (1 - zb)))
        for gamma, mats in self.extra_exact.items():
            m = mats[j]
            if m is not None:
                a = la.mat_add(a, la.mat_scale(m, _zpow(z, gamma)))
        return a

    def a_zderiv(self, j: int, k: int, z):
        """z_k d/dz_k of A_j at z (closed form)."""
        d = la.zeros(self.dim, self.dim)
        for beta, proj in self.terms_exact:
            bj = beta[j]
            if bj and beta[k]:
                zb = _zpow(z, beta)
                d = la.mat_add(d, la.mat_scale(
                    proj, self.h_exact * bj * beta[k] * zb / (1 - zb) ** 2))
        for gamma, mats in self.extra_exact.items():
            m = mats[j]
            if m is not None and gamma[k]:
                d = la.mat_add(d, la.mat_scale(m, gamma[k] * _zpow(z, gamma)))
        return d

    def flatness_residual(self, z):
        """Squared scaled residual of the integrability identity at z, exactly.

        The largest |R_jk|^2 / max(1, |A_j|^2 |A_k|^2) over j < k, with
        R_jk = z_k d/dz_k A_j - z_j d/dz_j A_k + [A_j, A_k] and |.| the
        largest entry modulus; 0 exactly when the identity holds at z.  It
        is the one that the flat sections z_j d/dz_j G = A_j G need: z_k
        d/dz_k and z_j d/dz_j commute on G.
        """
        worst = Q(0)
        amats = [self.a_matrix(j, z) for j in range(self.rank)]
        for j, k in itertools.combinations(range(self.rank), 2):
            aj, ak = amats[j], amats[k]
            res = la.mat_add(la.mat_sub(self.a_zderiv(j, k, z), self.a_zderiv(k, j, z)),
                             la.mat_sub(la.mat_mul(aj, ak), la.mat_mul(ak, aj)))
            worst = max(worst, _maxnorm2(res) / max(1, _maxnorm2(aj) * _maxnorm2(ak)))
        return worst

    @cached_property
    def integer_basis(self) -> _IntegerBasis:
        """The exact matrices as integer matrices over one denominator, built once."""
        return _IntegerBasis(self)

    @cached_property
    def weight_blocks(self) -> List[_WeightBlock]:
        """The exact spectral decomposition of the A_{j0} (_weight_blocks), built once."""
        return _weight_blocks(self.a0_exact)

    def exp_a0(self, c, shift=0) -> mpmath.matrix:
        """exp(shift + sum_j c_j A_{j0}) in closed form, at the working precision.

        On the weight block of lambda, sum_j c_j A_{j0} is c.lambda plus the
        commuting nilpotent sum_j c_j N_j, so the exponential is the finite
        sum over lambda and m of e^{shift + c.lambda} prod_j c_j^{m_j} times
        the exact prod_j N_j^{m_j} E_lambda / m! of weight_blocks: one sum of
        exact matrices times scalars.  c and shift are numbers.
        """
        out = mpmath.zeros(self.dim)
        for blk in self.weight_blocks:
            e = mpmath.exp(shift + mpmath.fsum(cj * to_mpc(lj)
                                               for cj, lj in zip(c, blk.weight) if cj))
            for m, entries in blk.terms:
                s = e
                for cj, k in zip(c, m):
                    if k:
                        s *= cj ** k
                for r, col, x in entries:
                    out[r, col] += s * to_mpc(x)
        return out

    def commuting_constant_check(self):
        """The largest squared entry modulus of [A_{j0}, A_{k0}], exactly."""
        return max((_maxnorm2(la.mat_sub(la.mat_mul(a, b), la.mat_mul(b, a)))
                    for a, b in itertools.combinations(self.a0_exact, 2)),
                   default=Q(0))


def trig_problem(datum: RootDatum, params, fiber, base=None,
                 prec: int = 256) -> ConnectionProblem:
    """Connection problem of a finite degenerate-side fiber.

    fiber is a WeightModule of modules.parabolic_fiber (degenerate_fiber is
    its standard case); its exact s_i and xi_j matrices give S and A_{j0}.
    ScopeError when the s_i action leaks out of the fiber, and on an
    AHA-side module, which has no s_i.
    """
    s = []
    for i in range(datum.rank):
        mat, leaked = fiber.s_matrix(i)
        if leaked:
            raise ScopeError("fiber action leaked: not a finite module")
        s.append(mat)
    dim = fiber.dimension
    h = Q(params.h)
    rho_tilde = [h / 2 * sum(b[j] for b in datum.positive_roots)
                 for j in range(datum.rank)]
    xis = [fiber.xi_matrix(j) for j in range(datum.rank)]
    a0 = [[[(rho_tilde[j] if r == c else 0) - xi[r][c] for c in range(dim)]
           for r in range(dim)] for j, xi in enumerate(xis)]
    ident = la.identity(dim)
    terms = []
    for beta in datum.positive_roots:
        smat = ident
        for i in datum.w_words[datum.reflection_index(beta)]:
            smat = la.mat_mul(smat, s[i])
        terms.append((tuple(beta), la.mat_sub(ident, smat)))
    return ConnectionProblem(a0, terms=terms, h=h, s=s, base=base, prec=prec,
                             datum=datum, rho_tilde=rho_tilde)


def scalar_problem(m, prec: int = 256) -> ConnectionProblem:
    """One-dimensional rank-one problem A(z) = m + z, m rational."""
    return ConnectionProblem([[[m]]], extra={(1,): [[[Q(1)]]]}, prec=prec)


def direct_sum(p1: ConnectionProblem, p2: ConnectionProblem) -> ConnectionProblem:
    """Block-diagonal direct sum of two exact problems over the same base torus."""
    if p1.rank != p2.rank:
        raise ScopeError("direct sum needs problems of equal rank")
    t1, t2 = dict(p1.terms_exact), dict(p2.terms_exact)
    if set(t1) != set(t2) or p1.h_exact != p2.h_exact:
        raise ScopeError("direct sum needs matching reflection terms")

    def blk(m1, m2):
        return la.block_diagonal([la.zeros(p.dim, p.dim) if m is None else m
                                  for m, p in ((m1, p1), (m2, p2))])

    a0 = [blk(a, b) for a, b in zip(p1.a0_exact, p2.a0_exact)]
    terms = [(beta, blk(t1[beta], t2[beta])) for beta in sorted(t1)]
    none = [None] * p1.rank
    extra = {gamma: [blk(m1, m2) for m1, m2 in
                     zip(p1.extra_exact.get(gamma, none),
                         p2.extra_exact.get(gamma, none))]
             for gamma in set(p1.extra_exact) | set(p2.extra_exact)}
    s = None
    if p1.s_exact is not None and p2.s_exact is not None:
        s = [blk(a, b) for a, b in zip(p1.s_exact, p2.s_exact)]
    return ConnectionProblem(a0, terms=terms, extra=extra, h=p1.h_exact, s=s,
                             base=p1.base, prec=p1.prec, datum=p1.datum,
                             rho_tilde=p1.rho_tilde)


# -- Frobenius series at the origin ------------------------------------------------


class FundamentalSolution:
    """Truncated normalized solution G = H z^{A_0} with H(0) = Id, through total degree order.

    exact holds the integer forms (d, M) of the H_gamma, H_gamma = M/d with
    M an integer matrix, d the lcm of the entries' denominators and gcd(d,
    M) = 1, and H_0 = Id; with no terms and no extra it holds only H_0.
    The data are real, so is every H_gamma.  coeffs and residual are built
    from exact at their first read, at the problem's precision, from one
    cached rounding: each entry of the H_gamma, gamma != 0, rounded once as
    to_mpc rounds it (rational_mpf) to a libmp mpf.  coeffs wraps those as
    mpmath matrices, and residual is the exact Sylvester residual of the
    same rounded coefficients, rounded once (_series_residual).
    monodromy evaluates H only through the ray series, which starts from
    exact, and reads neither.
    """

    def __init__(self, problem: ConnectionProblem, order: int, exact: Dict[tuple, tuple]):
        self.problem = problem
        self.order = order
        self.exact = exact

    @cached_property
    def _rounded(self) -> Dict[tuple, list]:
        """The H_gamma, gamma != 0, as rows of libmp mpfs, each entry rounded once."""
        n = self.problem.dim
        if len(self.exact) == 1:
            return {g: [[fzero] * n for _ in range(n)]
                    for g in _multi_indices(self.problem.rank, self.order)}
        with mpmath.workprec(self.problem.prec):
            return {gamma: [[rational_mpf(x, d) for x in row] for row in m]
                    for gamma, (d, m) in list(self.exact.items())[1:]}

    @cached_property
    def coeffs(self) -> Dict[tuple, mpmath.matrix]:
        """The rounded H_gamma as mpmath matrices, by total degree."""
        n = self.problem.dim
        make_mpc = mpmath.mp.make_mpc
        out = {}
        for gamma, rows in self._rounded.items():
            # one pass over the rows into the matrix's own store of nonzero
            # entries, which __setitem__ would fill one entry per call
            mat = out[gamma] = mpmath.matrix(n, n)
            mat._matrix__data.update(
                ((r, c), make_mpc((x, fzero)))
                for r, row in enumerate(rows) for c, x in enumerate(row) if x != fzero)
        return out

    @cached_property
    def residual(self) -> mpmath.mpf:
        """The exact residual of coeffs, rounded once (_series_residual)."""
        with mpmath.workprec(self.problem.prec):
            return _series_residual(self.problem, self._rounded)


def _multi_indices(rank: int, order: int) -> List[tuple]:
    """Exponents gamma with 0 < |gamma| <= order, by total degree, then lexicographic."""
    return sorted((g for g in itertools.product(range(order + 1), repeat=rank)
                   if 0 < sum(g) <= order), key=sum)


def _coupled_blocks(problem: ConnectionProblem) -> List[int]:
    """A block label per basis index: the finest direct-sum splitting of problem.

    Two indices share a block when a nonzero entry of some matrix of the
    problem (an A_{j0}, a projector or an extra coefficient) links them.
    """
    label = list(range(problem.dim))

    def root(a):
        while label[a] != a:
            a = label[a]
        return a

    mats = problem.a0_exact + [proj for _, proj in problem.terms_exact] + [
        m for ms in problem.extra_exact.values() for m in ms if m is not None]
    for m in mats:
        for r, row in enumerate(m):
            for c, x in enumerate(row):
                if x and r != c:
                    label[root(r)] = root(c)
    return [root(a) for a in range(problem.dim)]


def _integer_gaps(diag) -> list:
    """(r, s, k) for every pair of the rational entries diag with diag[s] -
    diag[r] = k a positive integer."""
    out = []
    for r, s in itertools.product(range(len(diag)), repeat=2):
        k = diag[s] - diag[r]
        if k.denominator == 1 and k >= 1:
            out.append((r, s, int(k)))
    return out


def _check_nonresonant(problem: ConnectionProblem, order: int):
    """ScopeError if two exponents of some A_{j0} differ by a positive integer k.

    The exponents are the diagonal entries, which are the eigenvalues once
    A_{j0} is triangular.  Within one block of the problem (_coupled_blocks)
    a resonance may need a logarithmic term at any k, and a series that
    stops before k would hide it and give a wrong monodromy, so every k is
    refused.  Between blocks that nothing links (a direct sum) the solution
    is block diagonal with no logarithm, and only k <= order is refused,
    where the exact solve would divide by zero.
    """
    block = _coupled_blocks(problem)
    for j, a0 in enumerate(problem.a0_exact):
        for r, s, k in _integer_gaps([a0[i][i] for i in range(problem.dim)]):
            if k <= order or block[r] == block[s]:
                raise ScopeError("resonant exponents in coordinate %d: eigenvalues "
                                 "%s and %s differ by the nonzero integer %d"
                                 % (j, a0[r][r], a0[s][s], k))


def _sylvester_plan(amat, order: List[int]) -> list:
    """The entries of H in the solve order of _solve_sylvester, for A = amat
    upper triangular in order: per entry (a, b), rows bottom-up and columns
    left to right, (a n + b, A[b][b] - A[a][a], deps), deps the pairs (flat
    index, coefficient) of the entries that (a, b) reads: H[a][c] times
    -A[c][b] for c != b, each solved earlier in row a, and H[c][b] times
    A[a][c] for c != a, each in a row solved before.  It depends only on A
    and order, so one plan serves every solve with the same A_{j0}."""
    n = len(amat)
    plan = []
    for a in reversed(order):
        for b in order:
            deps = [(a * n + c, -amat[c][b]) for c in range(n) if c != b and amat[c][b]] \
                + [(c * n + b, amat[a][c]) for c in range(n) if c != a and amat[a][c]]
            plan.append((a * n + b, amat[b][b] - amat[a][a], deps))
    return plan


def _solve_sylvester(plan, shift: int, rhs, rden: int) -> tuple:
    """The integer form (d, M) of H with H (shift + A) - A H = rhs / rden.

    plan is _sylvester_plan of the integer matrix A, upper triangular in
    its order, rhs an integer matrix, and shift and rden > 0 integers.
    Fraction-free (Bareiss 1968): entry (a, b) is kept as an integer
    numerator over rden lambda_ab, where lambda_ab is the lcm of the lambda
    of the nonzero entries it reads times its divisor shift + A[b][b] -
    A[a][a], a small integer that may be negative; a zero entry has lambda
    1.  One lcm over the lambda and one gcd over d and M then give the
    canonical form: d > 0, gcd(d, M) = 1, so d is the lcm of the entries'
    reduced denominators.  InternalCheckError on a zero divisor, which
    _check_nonresonant leaves unreachable.
    """
    n = len(rhs)
    rhs = [x for row in rhs for x in row]
    num, lam = [0] * (n * n), [1] * (n * n)
    for i, diff, deps in plan:
        div = shift + diff
        if not div:
            raise InternalCheckError("zero divisor in the Sylvester solve at entry "
                                     "(%d, %d)" % divmod(i, n))
        s, big = rhs[i], 1
        for k, x in deps:
            v = num[k]
            if v:
                lk = lam[k]
                if lk == big:
                    s += x * v
                elif big == 1:
                    s, big = s * lk + x * v, lk
                else:
                    common = math.lcm(big, lk)
                    s = s * (common // big) + x * v * (common // lk)
                    big = common
        if s:
            num[i], lam[i] = s, big * div
    big = math.lcm(*lam)
    m = [v * (big // lk) for v, lk in zip(num, lam)]
    d = rden * big
    g = math.gcd(d, *m)
    if g != 1:
        d //= g
        m = [v // g for v in m]
    return d, [m[r * n:(r + 1) * n] for r in range(n)]


def _form_sum(a, b) -> tuple:
    """The sum of two integer forms (d, M) over the lcm of their denominators."""
    d = math.lcm(a[0], b[0])
    u, v = d // a[0], d // b[0]
    return d, [[u * x + v * y for x, y in zip(r, s)] for r, s in zip(a[1], b[1])]


def _series_rhs(problem, basis, forms, sums, gamma, js) -> list:
    """Per j in js, (L, parts): rhs_j(gamma) = sum A_{j,delta} H_{gamma-delta} is
    _products(parts) / (hd den L), with h = hn/hd, den = basis.den and forms
    the integer forms (d, M) of the H solved so far, H = M/d.
    As z^beta/(1-z^beta) = sum_{m>=1} z^{m beta}, term k gives h beta_j (1 -
    s_beta) S_k(gamma), with the running sum S_k(gamma) = H_{gamma-beta} +
    S_k(gamma-beta): one per (gamma, k), its summand dropped from sums[k]."""
    runs, rank, h = {}, problem.rank, problem.h_exact
    for k, (beta, _) in enumerate(problem.terms_exact):
        rest = tuple(g - b for g, b in zip(gamma, beta))
        if rest in forms:
            run = forms[rest]
            if rest in sums[k]:
                run = _form_sum(run, sums[k].pop(rest))
            runs[k] = sums[k][gamma] = run
    out = []
    for j in js:
        parts = [(h.numerator * problem.terms_exact[k][0][j], basis.sparse[rank + k], run)
                 for k, run in runs.items() if problem.terms_exact[k][0][j]]
        for delta, b in basis.extra_of[j]:
            rest = tuple(g - d for g, d in zip(gamma, delta))
            if any(delta) and rest in forms:
                parts.append((h.denominator, basis.sparse[b], forms[rest]))
        big = math.lcm(*(form[0] for _, _, form in parts))
        out.append((big, [(c * (big // form[0]), x, form[1]) for c, x, form in parts]))
    return out


def _series_residual(problem: ConnectionProblem, raw) -> mpmath.mpf:
    """Exact Sylvester residual of the converted coefficients H~, rounded once.

    raw maps gamma to H~_gamma as rows of libmp mpfs, the rounded entries
    (FundamentalSolution._rounded).  The residual is as frobenius_series
    states it, with H~_0 = Id.  H~ is lifted from those mpfs straight to
    integer forms over one 2^F, so that den hd 2^F times a residual, hd H~
    (gamma_j den + A) - hd A H~ (A = den A_{j0}) less the parts of
    _series_rhs, is one _products call; only the final square root of its
    largest square is rounded."""
    n, rank, basis = problem.dim, problem.rank, problem.integer_basis
    hd = problem.h_exact.denominator
    f = max([0] + [-e for m in raw.values() for row in m
                   for _, man, e, _ in row if man])
    forms = {(0,) * rank: (1 << f, [[int(r == c) << f for c in range(n)]
                                    for r in range(n)])}
    for g, m in raw.items():
        forms[g] = (1 << f, [[(1 - 2 * sign) * (man << (e + f)) for sign, man, e, _ in row]
                             for row in m])
    sums, worst = [{} for _ in problem.terms_exact], (0, 1)
    for gamma in sorted(raw, key=sum):
        hg = forms[gamma][1]
        scale = max(1 << 2 * f, _top(hg))
        rows = _sparse(hg)
        for j, (_, parts) in enumerate(_series_rhs(problem, basis, forms, sums, gamma,
                                                   range(rank))):
            top = _top(_products(parts + [
                (hd, basis.sparse[j], hg), (-hd, rows, basis.mats[j]),
                (-hd * gamma[j] * basis.den, basis.unit, hg)], n))
            if top * worst[1] > worst[0] * scale:
                worst = (top, scale)
    return mpmath.sqrt(mpmath.mpf(worst[0]) / (worst[1] * (basis.den * hd) ** 2))


def frobenius_series(problem: ConnectionProblem, order: int) -> FundamentalSolution:
    """Solve the recursive Sylvester equations for H up to total degree order.

    For each exponent gamma, H_gamma (gamma_j + A_{j0}) - A_{j0} H_gamma =
    rhs_j(gamma) (_series_rhs) must hold for every j.  With the data as
    sparse integer rows over one denominator den (transport._IntegerBasis)
    and each H_gamma as one gcd-reduced integer form (d, M) over one
    denominator, sums and right-hand sides are integer dot products
    (_products).  H_gamma is solved exactly at the first j with gamma_j > 0,
    by fraction-free back-substitution with den A_{j0} (_solve_sylvester)
    in a basis order that makes every A_{j0} upper triangular (ScopeError
    if there is none, and on resonance, _check_nonresonant); the solve
    returns the form, d the lcm of the entries' denominators.  The entries
    each solve reads depend only on A_{j0} and that order, so they are
    listed once per j0 and call (_sylvester_plan).  Only these exact forms
    are built; coeffs and residual (FundamentalSolution) are rounded from
    them at their first read.  With no terms and no extra, H = Id.
    """
    indices = _multi_indices(problem.rank, order)
    n, rank = problem.dim, problem.rank
    forms = {(0,) * rank: (1, [[int(r == c) for c in range(n)] for r in range(n)])}
    if not (problem.terms_exact or problem.extra_exact):
        return FundamentalSolution(problem, order, forms)
    basis_order = la.triangular_order(problem.a0_exact)
    _check_nonresonant(problem, order)
    basis, sums = problem.integer_basis, [{} for _ in problem.terms_exact]
    hd = problem.h_exact.denominator
    plans = {}
    for gamma in indices:
        j0 = next(j for j in range(rank) if gamma[j])
        if j0 not in plans:
            plans[j0] = _sylvester_plan(basis.mats[j0], basis_order)
        (big, parts), = _series_rhs(problem, basis, forms, sums, gamma, [j0])
        forms[gamma] = _solve_sylvester(plans[j0], gamma[j0] * basis.den,
                                        _products(parts, n), hd * big)
    return FundamentalSolution(problem, order, forms)


# -- monodromy ---------------------------------------------------------------------


def _base_solution(problem: ConnectionProblem, order: int, rtol) -> tuple:
    """G at the base point, normalized by G = H z^{A_0} near the origin, with its bound.

    On the ray z = t base, G(t base) = h(t) t^A base^{A_0} with A = sum_j
    A_{j0} and h(t) = H(t base) (transport._ray_step), so that G(base) =
    h(1) base^{A_0}.  The ray recurrence fixes h_k from the lower
    coefficients unless k is a ray resonance, a positive integer difference
    A_aa - A_bb within one block (_coupled_blocks); there only the
    r-variable H fixes h_k, and A can have one where no A_{j0} has (3/2 +
    3/2 = 3).  So the series is solved to total degree max(order, the
    largest such k), summed exactly up to there, and the recurrence runs
    past it.  base^{A_0} = exp(sum_j A_{j0} log base_j), the closed form
    problem.exp_a0, and the product are formed with _COMPOSE_GUARD extra
    bits.  Returns G(base) as a Transport of one step, with the ray's terms
    and certified error, and the series; ToleranceError when the error
    exceeds rtol * max(1, |G|) (default rtol as for a path; ConfigError
    unless rtol is finite and > 0, transport._tolerance).
    """
    n, prec = problem.dim, problem.prec
    with mpmath.workprec(prec + _COMPOSE_GUARD):
        rtol = _tolerance(rtol)
    block = _coupled_blocks(problem)
    diag = [sum(m[i][i] for m in problem.a0_exact) for i in range(n)]
    length = max([order] + [k for r, s, k in _integer_gaps(diag) if block[r] == block[s]])
    series = frobenius_series(problem, length)
    with mpmath.workprec(prec + _COMPOSE_GUARD):
        h1, eps, nterms = _ray_step(problem, series.exact, length,
                                    la.triangular_order(problem.a0_exact), block)
        ebase = problem.exp_a0([mpmath.log(to_mpc(b)) for b in problem.base])
        nh, ne = _rownorm(h1), _rownorm(ebase)
        err = eps * ne + mpmath.ldexp(8 * n * nh * ne, -(prec + _COMPOSE_GUARD))
        g = _finish(h1 * ebase, err, prec, 1, nterms)
        if g.error > rtol * max(1, _rownorm(g)):
            raise ToleranceError("series start bound %s above rtol %s (ray from the "
                                 "origin, %d terms)" % (mpmath.nstr(g.error, 3),
                                                        mpmath.nstr(rtol, 3), nterms))
    return g, series


def monodromy(problem: ConnectionProblem, order: int = 30, rtol=None,
              check_relations: bool = True) -> dict:
    """Monodromy operators and the rescaled affine-Hecke generators.

    Y_j, the monodromy of the coweight loop in the G-basis, is
    exp(-2 pi i A_{j0}), evaluated with _COMPOSE_GUARD extra bits as the
    closed form problem.exp_a0 on the exact weight basis of the A_{j0}; no
    loop is transported and no matrix exponential is summed.  y_j =
    e^{rho~_j} Y_j is formed from that guarded Y_j, and then Y_j is
    rounded once to the working precision, as T_j is.  T_j is the
    transport to the reflected base point (above the walls) composed with
    the fiber action S_j of s_j, taken to the G-basis by G at the base point
    (the ray series of _base_solution, whose prefix is the Frobenius series
    of total degree order, or more at a ray resonance).  Only the first half
    of the path is transported, P along transport.reflection_path: the
    connection is W-equivariant, and real on the real torus since a
    ConnectionProblem has real data, so the second half, the reversed
    image of the first under sigma_j(z) =
    conj(s_j z), has the transport S_j conj(P)^-1 S_j^-1, and T_j = G^-1
    P^-1 S_j conj(P) G, conj entrywise.  G is real too, so with F = P G,
    T_j = F^-1 S_j conj(F): one mpmath inverse per reflection and none of
    G, formed with _COMPOSE_GUARD extra bits and rounded once to the
    working precision.  accuracy_bits is the least of the bits certified
    for G at the base point, tail and rounding of the ray series included,
    and for the transported half paths (Transport); the composition F^-1
    S_j conj(F) is not part of it.  The generators y_j = e^{rho~_j} Y_j and
    t_j = zeta_j T_j are returned with their relation residuals.  The scalar
    zeta_j on t_j and the side of the wall detours are calibrated jointly
    against the rank-one Gamma-function structure constants and then
    frozen: with this pairing the quadratic, braid and Bernstein relations
    hold and b(3/2) = 3 pi / 8 at h = 1/2 is reproduced.
    """
    with mpmath.workprec(problem.prec):
        if problem.datum is None or problem.s_exact is None:
            raise ScopeError("monodromy needs a root-datum fiber problem")
        g_base, _ = _base_solution(problem, order, rtol)
        rank = problem.rank
        ts, big_t = [], []
        bits = g_base.accuracy_bits
        zeta_half = _e2pi(Q(problem.h_exact, 2))
        zeta = _e2pi(problem.h_exact)
        with mpmath.workprec(problem.prec + _COMPOSE_GUARD):
            turn = -2j * mpmath.pi
            # The z_j-loop at the base deforms through the loops at t*base,
            # t in (0, 1], to a small loop near the origin without meeting
            # the divisor: positive roots have non-negative exponents, so no
            # wall z^beta = 1 meets the open unit polydisc.  There
            # G = H z^{A_0} with H single-valued, so the loop monodromy in
            # the G-basis is exp(-2 pi i A_{j0}); the sign is the one the
            # transported loop G^-1 T_loop^-1 G reproduces (A1,
            # mu0 = 1/8, prec 128, order 16: 1.2e-25 against 1.41 for
            # +2 pi i).
            big_y = [problem.exp_a0([turn if k == j else 0 for k in range(rank)])
                     for j in range(rank)]
        ys = [yj * _e2pi(rho) for yj, rho in zip(big_y, problem.rho_tilde)]
        big_y = [yj.apply(lambda x: +x) for yj in big_y]
        for j in range(rank):
            half = continue_transport(
                problem, reflection_path(problem, j), rtol=rtol)
            bits = min(bits, half.accuracy_bits)
            with mpmath.workprec(problem.prec + _COMPOSE_GUARD):
                # G is real (real data, positive rational base): conj(P G) = conj(P) G
                f = half * g_base
                tj = mpmath.inverse(f) * _to_mp(problem.s_exact[j]) * f.conjugate()
            tj = tj.apply(lambda x: +x)
            big_t.append(tj)
            ts.append(tj * zeta)
        out = {
            "Y": big_y, "T": big_t, "y": ys, "t": ts,
            "zeta": zeta, "zeta_half": zeta_half,
            "prec": problem.prec, "accuracy_bits": bits,
            "g_base": g_base, "problem": problem,
        }
        if check_relations:
            out["residuals"] = _relation_residuals(problem, ys, ts, zeta)
        return out


def _relation_residuals(problem: ConnectionProblem, ys, ts, zeta) -> dict:
    """The largest entry of each relation's residual: quadratic, braid, Bernstein.

    ys and ts are the generators y_j and t_j.  In the Bernstein relation
    t_i y_{omega_i} - y_{s_i omega_i} t_i = (zeta - 1) theta(y_{omega_i}),
    y_{s_i omega_i} = y_{omega_i} y_alpha^-1, and theta(y_{omega_i}) =
    (y_omega - y_{s_i omega}) / (1 - y_alpha^-1) is y_{omega_i} itself,
    since <omega_i, alpha_i-vee> = 1 and the y's commute.  y_alpha^-1 =
    exp(-2 pi i sum_j e_j xi_j), e_j = <alpha_j, alpha_i-vee>, is the
    closed form _y_alpha_inv, so no y is inverted.
    """
    datum = problem.datum
    ident = mpmath.eye(problem.dim)
    quad = [_maxnorm((t - ident * zeta) * (t + ident)) for t in ts]
    braid = mpmath.mpf(0)
    for i in range(datum.rank):
        for j in range(i + 1, datum.rank):
            cij = datum.cartan[i][j]
            if cij == 0:
                braid = max(braid, _maxnorm(ts[i] * ts[j] - ts[j] * ts[i]))
            elif cij == -1:
                tij = ts[i] * ts[j]
                braid = max(braid, _maxnorm(tij * ts[i] - ts[j] * tij))
    bernstein = mpmath.mpf(0)
    for i in range(datum.rank):
        # t_i y_om - y_om y_alpha^-1 t_i = (zeta - 1) y_om
        y_om = ys[i]
        res = ts[i] * y_om - y_om * _y_alpha_inv(problem, i) * ts[i] - y_om * (zeta - 1)
        bernstein = max(bernstein, _maxnorm(res))
    return {"quadratic": max(quad), "braid": braid, "bernstein": bernstein}


def _y_alpha_inv(problem: ConnectionProblem, i: int) -> mpmath.matrix:
    """y_{alpha_i}^-1 = exp(-2 pi i sum_j e_j xi_j), e_j = <alpha_j, alpha_i-vee>,
    in closed form (problem.exp_a0 with _COMPOSE_GUARD extra bits)."""
    datum = problem.datum
    alpha_vee = tuple(Q(c) for c in datum.coroot_of(datum.simple_roots[i]))
    e = [int(datum.cartan_pairing(root, alpha_vee)) for root in datum.simple_roots]
    with mpmath.workprec(problem.prec + _COMPOSE_GUARD):
        turn = 2j * mpmath.pi
        # xi_j = rho~_j - A_{j0}
        return problem.exp_a0([turn * ej for ej in e], -turn * to_mpc(
            sum(ej * rho for ej, rho in zip(e, problem.rho_tilde))))


# -- the rank-one oracle ------------------------------------------------------------


def rank_one_oracle(gamma, h, prec: int = 256) -> dict:
    """Structure constants of the rank-one monodromy, from Gamma functions.

    Returns a(-gamma), under the convention e^x = exp(2 pi i x), and
    b(-gamma), with b(z) = Gamma(z) Gamma(1+z) / (Gamma(h+z) Gamma(1-h+z)).
    gamma and h are rationals, so a pole is decided exactly: ScopeError when
    gamma is an integer (a pole of Gamma(-gamma) or Gamma(1-gamma) for
    gamma >= 0, and a zero of the denominator e^{-gamma} - 1 of a(-gamma)
    for every integer), or when h-gamma or 1-h-gamma is an integer <= 0.
    """
    gamma, h = Q(gamma), Q(h)
    if gamma.denominator == 1 or any(x.denominator == 1 and x <= 0
                                     for x in (h - gamma, 1 - h - gamma)):
        raise ScopeError("Gamma argument at a pole")
    with mpmath.workprec(prec):
        z = -to_mpc(gamma)
        hv = to_mpc(h)
        b = mpmath.gamma(z) * mpmath.gamma(1 + z) \
            / (mpmath.gamma(hv + z) * mpmath.gamma(1 - hv + z))
        zeta_half = _e2pi(h / 2)
        a = (zeta_half - 1 / zeta_half) / (_e2pi(gamma) ** -1 - 1)
        return {"a": a, "b": b}


def rank_one_check(datum: RootDatum, params, mu0, prec: int = 256,
                   order: int = 30, rtol=None) -> dict:
    """Full-engine structure constants against the Gamma oracle (rank one).

    Works in the basis psi_e = 1 (x) 1, psi_s = phi'_s (x) 1 of the standard
    fiber.  In that basis the monodromy generator acts by
    t psi_e = -zeta^{1/2} (a(-gamma) psi_e + b(-gamma)/(h - gamma) psi_s)
    with gamma = (mu0 : alpha-vee); the engine entries are unwound to the
    bare a(-gamma), b(-gamma) before comparison, so the returned residuals
    measure the Gamma-function values directly.  They fixed the side of the
    wall detours: the other side gives conj(T), which they do not match.
    """
    if datum.rank != 1:
        raise ScopeError("the oracle comparison is a rank-one statement")
    mu0 = tuple(Q(c) for c in mu0)
    with mpmath.workprec(prec):
        fiber = degenerate_fiber(datum, params, mu0)
        problem = trig_problem(datum, params, fiber, prec=prec)
        rep = monodromy(problem, order=order, rtol=rtol, check_relations=False)
        # change of basis: columns are psi_e, psi_s in the {w (x) 1} basis
        elem = intertwiner_element(datum, params,
                                   aw.simple_reflection(datum, 0))
        col = {w: Q(0) for w in range(datum.w_order)}
        for (tr, w), p in elem.terms.items():
            if any(tr):
                raise InternalCheckError("finite intertwiner grew a translation")
            col[w] += p.evaluate(mu0)
        cmat = [[Q(1), col[0]], [Q(0), col[1]]]
        t_psi = _to_mp(la.inverse(cmat)) * rep["t"][0] * _to_mp(cmat)
        gamma = datum.pairing(mu0, (Q(1),))
        h_exact = Q(params.h)
        oracle = rank_one_oracle(gamma, h_exact, prec=prec)
        scale = -1 / rep["zeta_half"]
        engine_a = scale * t_psi[0, 0]
        engine_b = scale * to_mpc(h_exact - gamma) * t_psi[1, 0]
        return {
            "gamma": gamma,
            "engine_a": engine_a, "engine_b": engine_b,
            "oracle_a": oracle["a"], "oracle_b": oracle["b"],
            "residual_a": abs(engine_a - oracle["a"]),
            "residual_b": abs(engine_b - oracle["b"]),
            "rep": rep,
        }


# -- identification -----------------------------------------------------------------


def _candidate_values(cand) -> tuple:
    return cand.values if isinstance(cand, aw.TorusPoint) else tuple(cand)


def _orthonormal_complement_step(basis: List[mpmath.matrix], vec, tol):
    v = vec.copy()
    for b in basis:
        coef = sum(mpmath.conj(b[i]) * v[i] for i in range(v.rows))
        v -= b * coef
    nrm = mpmath.sqrt(sum(abs(x) ** 2 for x in v))
    return v / nrm if nrm > tol else None


def _is_cyclic(generators: List[mpmath.matrix], vec, tol) -> bool:
    n = vec.rows
    nrm = mpmath.sqrt(sum(abs(x) ** 2 for x in vec))
    basis = [vec / nrm]
    frontier = [basis[0]]
    while frontier and len(basis) < n:
        new_frontier = []
        for v in frontier:
            for g in generators:
                cand = _orthonormal_complement_step(basis, g * v, tol)
                if cand is not None:
                    basis.append(cand)
                    new_frontier.append(cand)
        frontier = new_frontier
    return len(basis) == n


def _joint_weight_vectors(problem: ConnectionProblem) -> List[tuple]:
    """(weight, multiplicity, eigenvector basis) per joint weight of the xi_j, exactly.

    xi_j = rho~_j - A_{j0} is the fiber's xi-matrix, and y_j = e^{xi_j} in
    the G-basis.  The xi_j have the weight blocks of the A_{j0}
    (problem.weight_blocks): the same triangular order, index sets and
    vectors, with weight rho~ - lambda.  So the joint eigenvectors of a
    weight are V_lambda x for x in the nullspace of the stacked nilpotent
    parts D_j - lambda_j, with V_lambda the canonical basis of the
    generalized weight space.  Two weights that differ by an element of
    Z^r have the same e^lambda, so their y-eigenspaces merge: ScopeError.
    """
    spaces = [(tuple(r - x for r, x in zip(problem.rho_tilde, blk.weight)), blk)
              for blk in problem.weight_blocks]
    for (lam, _), (mu, _) in itertools.combinations(spaces, 2):
        if all((a - b).denominator == 1 for a, b in zip(lam, mu)):
            raise ScopeError("joint weights %s and %s differ by an integer "
                             "vector: their y-eigenspaces merge" % (lam, mu))
    out = []
    for lam, blk in spaces:
        basis = la.transpose(blk.vectors)
        out.append((lam, len(blk.vectors),
                    [la.mat_vec(basis, x)
                     for x in la.nullspace([row for d in blk.nilpotent for row in d])]))
    return out


def _column(vec) -> mpmath.matrix:
    return mpmath.matrix([to_mpc(x) for x in vec])


def _eigenvector_records(rep: dict, spaces: List[tuple]) -> List[dict]:
    """Exact joint eigenvectors of the y operators, each with a numeric witness.

    One record per basis vector of each joint weight space in spaces (as
    _joint_weight_vectors returns them): the weight lambda, the exact
    values e^{lambda_j}, the exact vector v and the witness
    max_j |y_j v - e^{lambda_j} v| / |v| read from rep["y"].
    """
    with mpmath.workprec(rep["prec"]):
        out = []
        for lam, _, basis in spaces:
            values = tuple(root_of_unity(c) for c in lam)
            for vec in basis:
                v = _column(vec)
                witness = max(_maxnorm(y * v - v * to_mpc(val))
                              for y, val in zip(rep["y"], values)) / _maxnorm(v)
                out.append({"weight": lam, "values": values, "vector": vec,
                            "witness": witness})
        return out


def identify(rep: dict, candidates) -> dict:
    """Match the monodromy representation to a torus-point standard module.

    Takes the exact joint y-eigenvectors, keeps the ones that are cyclic
    under the numeric y and t (the one numeric test), and declares the
    representation isomorphic to the standard module at every candidate
    whose torus values equal, exactly, a cyclic eigenvector's values.  The
    distance of a match is that eigenvector's numeric witness.
    """
    with mpmath.workprec(rep["prec"]):
        gens = list(rep["y"]) + list(rep["t"])
        records = []
        for e in _eigenvector_records(rep, _joint_weight_vectors(rep["problem"])):
            cyc = _is_cyclic(gens, _column(e["vector"]), mpmath.mpf("1e-6"))
            records.append({"weight": e["weight"], "values": e["values"],
                            "cyclic": cyc, "witness": e["witness"]})
        matches = []
        for k, cand in enumerate(candidates):
            pt = _candidate_values(cand)
            for rec in records:
                if rec["cyclic"] and rec["values"] == pt:
                    matches.append({"candidate": k, "point": pt,
                                    "distance": rec["witness"]})
        if not matches:
            raise ToleranceError(
                "no candidate matched a cyclic joint y-eigenvector; "
                "weight records: %s"
                % [[str(c) for c in r["weight"]] + [r["cyclic"]] for r in records])
        best = min(matches, key=lambda m: m["distance"])
        return {"eigenvectors": records, "matches": matches, "best": best}


def y_spectrum_check(rep: dict, expected_points, tol=None) -> dict:
    """Exact joint y-spectrum, with multiplicity, against an expected multiset.

    ok when the values e^lambda of the joint generalized weights match the
    expected points one to one, exactly, and the worst numeric witness of
    the exact eigenvectors is below tol.
    """
    with mpmath.workprec(rep["prec"]):
        if tol is None:
            tol = mpmath.mpf("1e-8")
        spaces = _joint_weight_vectors(rep["problem"])
        got = [tuple(root_of_unity(c) for c in lam)
               for lam, mult, _ in spaces for _ in range(mult)]
        want = [_candidate_values(pt) for pt in expected_points]
        # multisets counted with ==, which promotes to a common field (a
        # Cyclotomic's hash agrees with it, but counting needs no hash)
        same = len(got) == len(want) \
            and all(got.count(v) == want.count(v) for v in got)
        eig = _eigenvector_records(rep, spaces)
        worst = max(e["witness"] for e in eig)
        ok = same and worst < tol
        return {"ok": bool(ok), "worst": worst, "count": len(eig)}


# -- theorem-level pipelines ---------------------------------------------------------


def _chamber_domain_of_w(datum: RootDatum, chamber, w: int):
    """The chamber domain containing the w-image of the dominant cone.

    The chamber walls are linear and rho is regular, so w rho lies in that
    cell.
    """
    signs = arr.sign_vector(datum, chamber["walls"], datum.w_act_weight(w, datum.rho))
    for dom in chamber["domains"]:
        for cid in dom["cells"]:
            if chamber["cells"][cid].signs == signs:
                return dom
    raise InternalCheckError("w rho not in any chamber cell")


def predicted_finite_elements(datum: RootDatum, lam0, h0: Q,
                              g: aw.AffineWeylElement) -> List[int]:
    """Finite w with the affine domain of g equal to the dagger image of w's.

    Returns every finite Weyl element whose chamber domain maps to the
    affine domain containing the alcove of g; empty when that domain is not
    in the image of the injection.
    """
    census = arr.domain_census(datum, lam0, h0)
    ell = aw.TorusPoint.from_exponent(datum, tuple(Q(c) for c in lam0))
    zeta = root_of_unity(Q(h0))
    chamber = arr.chamber_domains(datum, ell, zeta)
    mapping = arr.dagger(datum, chamber, census)
    target = arr.domain_of_alcove(datum, census, g)
    preimages = [dom_id for dom_id, e in mapping.items()
                 if e["id"] == target["id"]]
    if not preimages:
        return []
    return [w for w in range(datum.w_order)
            if _chamber_domain_of_w(datum, chamber, w)["id"] in preimages]


def theorem41_check(datum: RootDatum, params, lam0, h0: Q, word,
                    prec: int = 256, order: int = 30, rtol=None) -> dict:
    """Identify the monodromy of a standard fiber against the orbit of e^lam0.

    word is a reduced word (entries in I plus the affine letter) for the
    group element moving lam0; the identified torus point is cross-checked
    against the finite element predicted by the domain injection.
    """
    lam0 = tuple(Q(c) for c in lam0)
    g = aw.element_from_word(datum, word)
    mu0 = tuple(aw.act_weight(datum, g, lam0))
    fiber = degenerate_fiber(datum, params, mu0)
    problem = trig_problem(datum, params, fiber, prec=prec)
    rep = monodromy(problem, order=order, rtol=rtol)
    ell = aw.TorusPoint.from_exponent(datum, lam0)
    candidates = [ell.act_w(w) for w in range(datum.w_order)]
    result = identify(rep, candidates)
    out = {
        "mu0": mu0,
        "deep": all(datum.pairing(mu0, tuple(Q(c) for c in bv)) < 0
                    for bv in datum.positive_coroots),
        "identified_w": result["best"]["candidate"],
        "identified_point": result["best"]["point"],
        "distance": result["best"]["distance"],
        "residuals": rep["residuals"],
        "rep": rep,
        "identify": result,
    }
    predicted = predicted_finite_elements(datum, lam0, h0, g)
    out["predicted_w"] = predicted
    out["prediction_match"] = (out["identified_w"] in predicted
                               if predicted else None)
    return out


def _deepness_report(datum: RootDatum, J: tuple, points) -> list:
    warnings = []
    jset = set(J)
    for p in points:
        p = tuple(Q(c) for c in p)
        for beta in datum.positive_roots:
            if set(i for i, c in enumerate(beta) if c) <= jset:
                continue
            v = datum.pairing(p, tuple(Q(c) for c in datum.coroot_of(beta)))
            if not v < 0:
                warnings.append(
                    "point %s pairs with %s-vee to %s (not negative); "
                    "identification is non-authoritative" % (p, beta, v))
    return warnings


def parabolic_identify(datum: RootDatum, params, J, mu0, n: int = 1,
                       prec: int = 256, order: int = 30, rtol=None,
                       tol=None) -> dict:
    """Monodromy of a parabolic fiber against the parabolic torus module.

    Builds the finite fiber on the W_J-orbit of mu0 with jet order n, runs
    the monodromy, and verifies the defining relations of the target:
    t_j acts by zeta on the cyclic vector for j in J and the n-th power of
    the orbit ideal annihilates it.  J = () reduces to plain identification
    of the standard fiber, which has no jets: ScopeError unless n = 1.
    """
    J = tuple(J)
    if not J and n != 1:
        raise ScopeError("J = () identifies the standard fiber: jet order n must be 1")
    mu0 = tuple(Q(c) for c in mu0)
    with mpmath.workprec(prec):
        if tol is None:
            tol = mpmath.mpf("1e-6")
        if not J:
            fiber = degenerate_fiber(datum, params, mu0)
            problem = trig_problem(datum, params, fiber, prec=prec)
            rep = monodromy(problem, order=order, rtol=rtol)
            ell = aw.TorusPoint.from_exponent(datum, mu0)
            candidates = [ell.act_w(w) for w in range(datum.w_order)]
            return {"identify": identify(rep, candidates), "rep": rep,
                    "warnings": [], "authoritative": True}
        # W_J-orbit of mu0
        orbit = {mu0}
        frontier = [mu0]
        while frontier:
            p = frontier.pop()
            for j in J:
                q = tuple(datum.w_act_weight(datum.w_simple[j], p))
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        points = sorted(orbit)
        warnings = _deepness_report(datum, J, points)
        fiber = parabolic_fiber(datum, params, J, points, n=n)
        problem = trig_problem(datum, params, fiber, prec=prec)
        rep = monodromy(problem, order=order, rtol=rtol)
        dim = problem.dim
        # identify the cyclic vector: a joint zeta-eigenvector of the t_j,
        # j in J, that generates the fiber (the flat trivialization mixes
        # jet directions, so no coordinate vector can be used directly)
        zeta = rep["zeta"]
        blocks = [rep["t"][j] - mpmath.eye(dim) * zeta for j in J]
        stack = mpmath.matrix([[b[r, c] for c in range(dim)]
                               for b in blocks for r in range(dim)])
        _, svals, vmat = mpmath.svd(stack)
        null = []
        for k in range(svals.rows):
            if svals[k] < tol:
                null.append(mpmath.matrix(
                    [mpmath.conj(vmat[k, c]) for c in range(dim)]))
        gens = list(rep["y"]) + list(rep["t"])
        trials = list(null)
        if len(null) > 1:
            mix = mpmath.zeros(dim, 1)
            for k, v in enumerate(null):
                mix += v * (mpmath.mpf(2 * k + 3) / 7)
            trials.append(mix)
        psi1 = next((v for v in trials if _is_cyclic(gens, v, tol)), None)
        cyclic = psi1 is not None
        if psi1 is None:
            psi1 = null[0] if null else mpmath.zeros(dim, 1)
            if not null:
                psi1[0] = mpmath.mpf(1)
        t_res = mpmath.mpf(0)
        for j in J:
            t_res = max(t_res, _maxnorm(rep["t"][j] * psi1 - psi1 * zeta))
        # orbit ideal relation: prod_m (y_j - m_j)^n kills the cyclic vector
        torus_orbit = [aw.TorusPoint.from_exponent(datum, p).values
                       for p in points]
        jet_res = mpmath.mpf(0)
        ident = mpmath.eye(dim)
        for j in range(datum.rank):
            op = ident.copy()
            for vals in torus_orbit:
                op = op * (rep["y"][j] - ident * to_mpc(vals[j]))
            acc = psi1
            for _ in range(n):
                acc = op * acc
            jet_res = max(jet_res, _maxnorm(acc))
        expected = []
        for p in points:
            expected += [aw.TorusPoint.from_exponent(datum, p).values] \
                * (dim // len(points))
        spec = y_spectrum_check(rep, expected, tol=tol)
        return {
            "points": points,
            "dimension": dim,
            "rep": rep,
            "t_cyclic_residual": t_res,
            "jet_residual": jet_res,
            "cyclic": cyclic,
            "spectrum": spec,
            "warnings": warnings,
            "authoritative": not warnings,
            "ok": bool(cyclic and t_res < tol and jet_res < tol),
        }


# -- invariants ----------------------------------------------------------------------


def flatness_check(problem: ConnectionProblem, npoints: int = 20,
                   seed: int = 20260823) -> dict:
    """Integrability of the connection, decided exactly at seeded rational points.

    The points lie in (1/5, 4/5)^rank, off the divisor: positive roots have
    non-negative exponents, so no wall z^beta = 1 meets the open unit
    polydisc.  ok iff the exact residual (flatness_residual) is 0 at every
    point.  worst, the largest scaled residual, and constant_commute, the
    largest entry modulus of [A_{j0}, A_{k0}], are rounded once to mpmath.
    """
    rng = random.Random(seed)
    worst = Q(0)
    for _ in range(npoints):
        z = tuple(Q(rng.randrange(201, 800), 1000) for _ in range(problem.rank))
        worst = max(worst, problem.flatness_residual(z))
    with mpmath.workprec(problem.prec):
        return {"worst": _modulus(worst), "ok": worst == 0,
                "constant_commute": _modulus(problem.commuting_constant_check())}
