"""Coordinate rings S', R, S, their Demazure operators, and jets.

S' = Sym(X-vee) in the variables xi_j = xi_{omega_j-vee}; R = k[Y] spanned by
x_beta for beta in the root lattice; S = k[X-vee] spanned by y_{lambda-vee}
for lambda-vee in the coweight lattice.  All coefficients are exact scalars.

One JetAlgebra serves both module sides: S'/[E]^n at a finite set E of
weights (degenerate side) and S/[E]^n at a finite set of torus points (affine
Hecke side).  It reduces a polynomial to its jets, lifts a jet back, and
holds the idempotents that split the product of local rings.

Polynomials, Laurent polynomials and jets are one dict ring (_DictRing); a
LocalJet drops the terms of total degree >= its order.  One substitution
x_j -> images[j] serves the Weyl action, reduce and lift.

A polynomial's `+` copies its term dict, so a loop that sums k polynomials
with `+` makes O(k^2) copies.  Such loops sum in place instead: `add_terms`
adds a term dict into an accumulator dict, zero entries stay, and the
polynomial is built (and cleaned) once at the end; `add_product` adds a
product of two term dicts the same way.  An accumulator always starts as a
fresh dict, never as another polynomial's `terms`: memoized images would be
mutated through the alias.
"""
from __future__ import annotations

import heapq
import itertools
from fractions import Fraction as Q
from operator import add
from typing import Dict, Tuple

from .errors import InternalCheckError, ScopeError
from .rootdata import RootDatum

Monomial = Tuple[int, ...]

__all__ = [
    "XiPolynomial", "XLaurent", "YLaurent",
    "xi_linear", "xi_variable", "xi_apply_w", "x_monomial", "x_apply_w",
    "y_monomial", "y_apply_w", "coweight_coords", "neg_simple_coroot",
    "demazure_xi", "demazure_x", "bernstein_theta", "add_terms", "add_product",
    "LocalJet", "JetAlgebra",
]


def _clean(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v}


def add_terms(acc: dict, terms: dict, c=None) -> None:
    """acc += terms (times the scalar c, if given), in place; zeros stay in acc."""
    for k, v in terms.items():
        if c is not None:
            v = c * v
        acc[k] = acc[k] + v if k in acc else v


def add_product(acc: dict, p: dict, q: dict) -> None:
    """acc += p * q for term dicts keyed by exponent vectors, in place; zeros stay in acc."""
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = tuple(map(add, k1, k2))
            acc[k] = acc[k] + v1 * v2 if k in acc else v1 * v2


class _DictRing:
    """Shared dict-backed arithmetic for the three coordinate rings and the jets."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, object]):
        self.terms = _clean(terms)

    def _make(self, terms):
        return type(self)(terms)

    def __add__(self, other):
        if isinstance(other, (int, Q)):
            other = self._const(other)
        out = dict(self.terms)
        add_terms(out, other.terms)
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        return self._make({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Q)):
            other = self._const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        if not c:
            return self._make({})
        return self._make({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            return self.scale(other)
        out: dict = {}
        add_product(out, self.terms, other.terms)
        return self._make(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Q)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Q)):
            if not self.terms:
                return not other
            other = self._const(other)
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant == its scalar, so it hashes as that scalar
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1:
            [(k, v)] = self.terms.items()
            if not any(k):
                return hash(v)
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        if not e:
            return self._const(Q(1))
        result = None
        acc = self
        while e:  # square-and-multiply
            if e & 1:
                result = acc if result is None else result * acc
            e >>= 1
            if e:
                acc = acc * acc
        return result

    def evaluate(self, values):
        """Value at the point where the j-th variable takes values[j]."""
        total = 0
        for k, v in self.terms.items():
            for x, e in zip(values, k):
                if e:
                    v = v * x ** e
            total = total + v
        return total

    def substitute(self, images, inverses=None):
        """Algebra map x_j -> images[j] into the images' ring.

        A negative exponent of x_j reads inverses[j], the inverse of images[j].
        """
        make = images[0]._make
        one = (0,) * len(images)
        acc: dict = {}
        for k, v in self.terms.items():
            prod = make({one: v})
            for j, e in enumerate(k):
                if e:
                    factor = images[j] if e > 0 else inverses[j]
                    for _ in range(abs(e)):
                        prod = prod * factor
            add_terms(acc, prod.terms)
        return make(acc)

    @classmethod
    def constant(cls, c, rank: int):
        """The constant c in rank variables."""
        return cls({(0,) * rank: c} if c else {})

    def _const(self, c):
        """The constant c at the rank of self.

        The zero polynomial has no rank: a nonzero c raises ValueError, since
        a product with a rank-0 constant truncates every monomial to rank 0.
        """
        if not c:
            return self._make({})
        for k in self.terms:
            return self._make({(0,) * len(k): c})
        raise ValueError("the zero polynomial has no rank for a nonzero constant")


class XiPolynomial(_DictRing):
    """Element of S': finitely supported map from exponent vectors to scalars."""


class XLaurent(_DictRing):
    """Element of R = k[Y]: finitely supported map from Y-vectors to scalars."""


class YLaurent(_DictRing):
    """Element of S = k[X-vee]: map from coweight-coordinate vectors to scalars."""


# -- constructors ----------------------------------------------------------

def xi_variable(datum: RootDatum, j: int) -> XiPolynomial:
    key = tuple(1 if i == j else 0 for i in range(datum.rank))
    return XiPolynomial({key: Q(1)})


def coroot_omega_coords(datum: RootDatum, lam_vee: Tuple[Q, ...]) -> Tuple[Q, ...]:
    """Coordinates of a coweight in the fundamental-coweight basis: (alpha_j : .)."""
    return tuple(
        datum.pairing(tuple(Q(x) for x in datum.simple_roots[j]), lam_vee)
        for j in range(datum.rank)
    )


def xi_linear(datum: RootDatum, lam_vee: Tuple[Q, ...], const: Q = Q(0)) -> XiPolynomial:
    """xi_{lambda-vee} + const as an element of S' (lambda-vee in coroot coords)."""
    coeffs = coroot_omega_coords(datum, lam_vee)
    terms: dict = {}
    for j, c in enumerate(coeffs):
        if c:
            terms[tuple(1 if i == j else 0 for i in range(datum.rank))] = c
    if const:
        terms[(0,) * datum.rank] = const
    return XiPolynomial(terms)


def xi_apply_w(datum: RootDatum, w: int, p: XiPolynomial) -> XiPolynomial:
    """^w p for finite w: determined by ^w xi_{lambda-vee} = xi_{w lambda-vee}."""
    images = tuple(
        xi_linear(datum, datum.w_act_coweight(w, datum.fundamental_coweight(j)))
        for j in range(datum.rank)
    )
    return p.substitute(images)


def x_monomial(datum: RootDatum, beta, coeff=Q(1)) -> XLaurent:
    return XLaurent({tuple(int(b) for b in beta): coeff})


def x_apply_w(datum: RootDatum, w: int, f: XLaurent) -> XLaurent:
    wmap = datum.w_maps[w]
    return XLaurent({wmap(k): v for k, v in f.terms.items()})


def y_monomial(datum: RootDatum, coords, coeff=Q(1)) -> YLaurent:
    return YLaurent({tuple(int(c) for c in coords): coeff})


def y_apply_w(datum: RootDatum, w: int, p: YLaurent) -> YLaurent:
    # w permutes the monomials, so no two keys meet
    wmap = datum.w_coweight_maps[w]
    return YLaurent({wmap(k): v for k, v in p.terms.items()})


def coweight_coords(datum: RootDatum, lam_vee: Tuple[Q, ...]) -> Tuple[int, ...]:
    coords = coroot_omega_coords(datum, lam_vee)
    if any(c.denominator != 1 for c in coords):
        raise ScopeError("not a coweight lattice vector")
    return tuple(int(c) for c in coords)


def neg_simple_coroot(datum: RootDatum, i: int) -> Tuple[int, ...]:
    """The coweight coordinates of -alpha_i-vee, the exponent of y_{-alpha_i-vee}.

    Memoized on the datum per i.
    """
    key = ("neg_coroot", i)
    hit = datum.memo.get(key)
    if hit is None:
        av = tuple(Q(x) for x in datum.coroot_of(datum.simple_roots[i]))
        hit = datum.memo[key] = tuple(-c for c in coweight_coords(datum, av))
    return hit


# -- Demazure operators ----------------------------------------------------

def demazure_xi(datum: RootDatum, p: XiPolynomial, beta_vee) -> XiPolynomial:
    """theta_{beta-vee}(p) = (p - ^{s_beta}p) / xi_{beta-vee}, exact."""
    beta = tuple(int(b) for b in beta_vee)  # simply-laced: root = coroot coords
    w = datum.reflection_index(beta)
    num = p - xi_apply_w(datum, w, p)
    den = xi_linear(datum, tuple(Q(b) for b in beta_vee))
    return _divide_by_linear(datum, num, den)


def _divide_by_linear(datum: RootDatum, num: XiPolynomial, den: XiPolynomial) -> XiPolynomial:
    """Exact division of num by an affine-linear den; raises on nonzero remainder."""
    r = datum.rank
    pivot = None
    for k, v in den.terms.items():
        if sum(k) == 1:
            pivot = (k.index(1), v)
            break
    if pivot is None:
        raise InternalCheckError("division by a constant form")
    j, c = pivot
    rest = den - XiPolynomial({tuple(1 if i == j else 0 for i in range(r)): c})
    # split num by degree in xi_j
    by_deg: Dict[int, dict] = {}
    for k, v in num.terms.items():
        d = k[j]
        k0 = k[:j] + (0,) + k[j + 1:]
        by_deg.setdefault(d, {})[k0] = v
    if not by_deg:
        return XiPolynomial({})
    top = max(by_deg)
    layers = [XiPolynomial(by_deg.get(d, {})) for d in range(top + 1)]
    xi_j = xi_variable(datum, j)
    quot = XiPolynomial({})
    for d in range(top, 0, -1):
        qd = layers[d].scale(1 / c)
        quot = quot + qd * (xi_j ** (d - 1) if d > 1 else XiPolynomial.constant(Q(1), r))
        layers[d - 1] = layers[d - 1] - qd * rest
        layers[d] = XiPolynomial({})
    if layers[0]:
        raise InternalCheckError("nonzero remainder in Demazure division")
    return quot


def _binomial_divide(terms: dict, shift: Tuple[int, ...], key_fn) -> dict:
    """Exact division of sum(terms) by (1 - x^shift), key_fn strictly decreasing along shift.

    Each step moves the monomial of largest (key, exponent) into the quotient
    and carries its coefficient to exponent + shift.  The monomials wait in a
    heap, each keyed once; a cancelled one leaves a stale entry that is skipped.
    """
    def entry(k):
        return (-key_fn(k), tuple(-e for e in k), k)

    num = dict(terms)
    heap = [entry(k) for k in num]
    heapq.heapify(heap)
    quot: dict = {}
    steps = 0
    while num:
        k = heapq.heappop(heap)[2]
        if k not in num:
            continue
        steps += 1
        if steps > 100000:
            raise InternalCheckError("binomial division does not terminate")
        v = quot[k] = num.pop(k)
        k2 = tuple(a + b for a, b in zip(k, shift))
        if k2 in num:
            num[k2] += v
            if not num[k2]:
                del num[k2]
        else:
            num[k2] = v
            heapq.heappush(heap, entry(k2))
    return quot


def demazure_x(datum: RootDatum, f: XLaurent, beta) -> XLaurent:
    """theta_beta(f) = (f - ^{s_beta}f) / (1 - x_{-beta}), exact Laurent quotient."""
    beta = tuple(int(b) for b in beta)
    w = datum.reflection_index(beta)
    num = f - x_apply_w(datum, w, f)
    if not num:
        return XLaurent({})
    # (x : beta-vee) as an integer form on exponents: c_j = sum_i beta-vee_i a_ij
    bvee = datum.coroot_of(beta)
    form = [sum(bvee[i] * datum.cartan[i][j] for i in range(datum.rank))
            for j in range(datum.rank)]

    def key_fn(k):
        return sum(c * e for c, e in zip(form, k))

    shift = tuple(-b for b in beta)
    return XLaurent(_binomial_divide(num.terms, shift, key_fn))


def bernstein_theta(datum: RootDatum, p: YLaurent, i: int) -> YLaurent:
    """(p - ^{s_i}p) / (1 - y_{-alpha_i-vee}) as a Laurent polynomial."""
    w = datum.w_simple[i]
    num = p - y_apply_w(datum, w, p)
    if not num:
        return YLaurent({})
    shift = neg_simple_coroot(datum, i)

    def key_fn(k):
        return k[i]  # (alpha_i : lambda-vee) for lambda-vee = sum k_j omega_j-vee

    return YLaurent(_binomial_divide(num.terms, shift, key_fn))


# -- jets --------------------------------------------------------------------

class LocalJet(_DictRing):
    """Truncated power series in r local variables, total degree < order."""

    __slots__ = ("rank", "order")

    def __init__(self, rank: int, order: int, terms: Dict[Monomial, object]):
        self.rank = rank
        self.order = order
        self.terms = {k: v for k, v in terms.items() if v and sum(k) < order}

    def _make(self, terms):
        return LocalJet(self.rank, self.order, terms)

    def _const(self, c):
        return LocalJet.constant(c, self.rank, self.order)

    @staticmethod
    def constant(c, rank: int, order: int) -> "LocalJet":
        return LocalJet(rank, order, {(0,) * rank: c} if c else {})

    def inverse(self) -> "LocalJet":
        """Inverse of a unit (nonzero constant term) via the geometric series."""
        c = self.terms.get((0,) * self.rank, 0)
        if not c:
            raise ZeroDivisionError("jet is not a unit")
        cinv = 1 / c if not isinstance(c, int) else Q(1, c)
        nil = self.scale(cinv) - 1
        # 1/(1+nil) = sum (-nil)^m, finite since nil is nilpotent in the jet ring
        out = power = self._const(1)
        for _ in range(1, self.order):
            power = power * (-nil)
            if not power:
                break
            out = out + power
        return out.scale(cinv)


def _jet_monomials(rank: int, order: int):
    return sorted((m for m in itertools.product(range(order), repeat=rank) if sum(m) < order),
                  key=lambda m: (sum(m), m))


class _Inverses(dict):
    """The inverses of a point's variable jets, each built at its first read
    (a weight coordinate can be 0, and its variable jet is then no unit)."""

    def __init__(self, jets):
        self.jets = jets

    def __missing__(self, j):
        inv = self[j] = self.jets[j].inverse()
        return inv


class JetAlgebra:
    """A product of local jet rings: S'/[E]^n at weights, or S/[E]^n at torus points.

    ring is XiPolynomial (E a finite set of weights in root coordinates) or
    YLaurent (E a finite set of torus points, given by the values of the
    y_{omega_j-vee}).  Distinctness is checked with ==, which promotes
    values of different cyclotomic fields.  The regular scope is the
    module's to decide: check_regular for modules with an affine group part.
    """

    def __init__(self, ring, datum: RootDatum, points, order: int = 1):
        pts = [tuple(p) for p in points]
        if order < 1:
            raise ScopeError("jet order must be >= 1")
        if any(p == q for i, p in enumerate(pts) for q in pts[:i]):
            raise ScopeError("points must be pairwise distinct")
        self.ring = ring
        self.datum = datum
        self.points = pts
        self.order = order
        self.rank = datum.rank
        self.monomials = _jet_monomials(self.rank, self.order)
        self._zero = (0,) * self.rank
        # the local variables e_j = pt_j + m_j at each point; their inverses
        # are built at the first negative exponent
        self._var_jets = [tuple(
            LocalJet(self.rank, self.order, {
                self._zero: pt[j], tuple(int(i == j) for i in range(self.rank)): Q(1)})
            for j in range(self.rank)) for pt in self.points]
        self._inv_jets = [_Inverses(jets) for jets in self._var_jets]
        self._idempotents: dict = {}

    def check_regular(self):
        """Reject weights with nontrivial affine stabilizer (regular scope)."""
        for p in self.points:
            for w in range(1, self.datum.w_order):
                diff = tuple(a - b for a, b in zip(p, self.datum.w_act_weight(w, p)))
                if all(d.denominator == 1 for d in diff):
                    raise ScopeError("non-regular point: nontrivial stabilizer")

    def reduce(self, p):
        """Reduction map to the jet algebra: expand e_j = pt_j + m_j at each point.

        At jet order 1 the local ring is the field of constants, and the
        reduction is evaluation at the point.
        """
        if self.order == 1:
            return {pt: LocalJet(self.rank, 1, {self._zero: p.evaluate(pt)})
                    for pt in self.points}
        return {pt: p.substitute(var_jets, inv_jets)
                for pt, var_jets, inv_jets in zip(self.points, self._var_jets, self._inv_jets)}

    def _shifted_variable(self, pt: tuple, j: int):
        """e_j - pt_j in the ring: xi_j - pt_j, or y_j - pt_j."""
        ej = tuple(int(i == j) for i in range(self.rank))
        return self.ring({ej: Q(1), self._zero: -pt[j]})

    def lift(self, pt: tuple, jet: LocalJet):
        """Canonical lift of a jet at pt to the ring: m_j -> e_j - pt_j."""
        return jet.substitute([self._shifted_variable(pt, j) for j in range(self.rank)])

    def idempotent(self, pt: tuple):
        """Element congruent to 1 mod [pt]^n and to 0 mod [qt]^n for qt != pt; memoized."""
        if pt not in self._idempotents:
            u = self.ring({self._zero: Q(1)})
            for qt in self.points:
                if qt == pt:
                    continue
                k = next(i for i in range(self.rank) if pt[i] != qt[i])
                factor = self._shifted_variable(qt, k)
                for _ in range(self.order):
                    u = u * factor
            self._idempotents[pt] = u * self.lift(pt, self.reduce(u)[pt].inverse())
        return self._idempotents[pt]
