"""Affine Weyl group W x| Q-vee: actions, lengths, orbits, stabilizers.

Elements are kept in (translation, finite part) normal form for the semidirect
product acting on weights by x_mu w (lambda) = mu + w lambda.  Translations
are tuples of ints in root coordinates (the simply-laced coroot lattice);
extended elements, with non-integral translations, are out of scope and
translation() rejects them.  Reduced words in the simple affine reflections
s_0..s_{r-1}, s_heart come from an integer alcove walk, made once per
(element, preference) and memoized on the datum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import ceil, gcd
from operator import add, neg
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import ScopeError
from .rings import XiPolynomial, xi_linear
from .rootdata import RootDatum
from .scalars import root_of_unity

HEART = -1  # index of the extra affine simple reflection s_heart = x_theta s_theta

__all__ = [
    "HEART", "AffineWeylElement", "identity", "simple_reflection", "translation",
    "compose", "inverse", "act_weight", "act_xi", "xi_images", "act_affine_coroot",
    "length", "reduced_word", "ball", "orbit", "stabilizer", "lemma13_predicate",
    "integral_coroots", "HeckeParams", "TorusPoint", "parameter_bridge",
    "alcove_sample", "fundamental_sample",
]


@dataclass(frozen=True)
class AffineWeylElement:
    """x_mu w with mu in the coroot lattice (int root coords) and w in W."""

    trans: Tuple[int, ...]
    w: int

    def key(self):
        return (self.trans, self.w)


def identity(datum: RootDatum) -> AffineWeylElement:
    return AffineWeylElement((0,) * datum.rank, datum.w_identity)


def simple_reflection(datum: RootDatum, i: int) -> AffineWeylElement:
    """s_i for i in 0..r-1, or s_heart for i == HEART."""
    if i == HEART:
        return AffineWeylElement(datum.theta, datum.reflection_index(datum.theta))
    return AffineWeylElement((0,) * datum.rank, datum.w_simple[i])


def translation(datum: RootDatum, mu) -> AffineWeylElement:
    """x_mu for mu in the coroot lattice; a non-integral mu is out of scope."""
    mu = tuple(Q(c) for c in mu)
    if any(c.denominator != 1 for c in mu):
        raise ScopeError("translation must lie in the coroot lattice")
    return AffineWeylElement(tuple(int(c) for c in mu), datum.w_identity)


def compose(datum: RootDatum, g: AffineWeylElement, h: AffineWeylElement) -> AffineWeylElement:
    wh = datum.w_maps[g.w](h.trans)
    return AffineWeylElement(tuple(map(add, g.trans, wh)), datum.w_mul[g.w][h.w])


def inverse(datum: RootDatum, g: AffineWeylElement) -> AffineWeylElement:
    winv = datum.w_inv[g.w]
    return AffineWeylElement(tuple(map(neg, datum.w_maps[winv](g.trans))), winv)


def act_weight(datum: RootDatum, g: AffineWeylElement, lam) -> Tuple[Q, ...]:
    """x_mu w (lambda) = mu + w lambda, weights in root coordinates."""
    lam = tuple(Q(c) for c in lam)
    wl = datum.w_act_weight(g.w, lam)
    return tuple(a + b for a, b in zip(g.trans, wl))


def xi_images(datum: RootDatum, g: AffineWeylElement) -> tuple:
    """The images ^g xi_j of the coordinates, which determine act_xi."""
    images = []
    for j in range(datum.rank):
        img_vee = datum.w_act_coweight(g.w, datum.fundamental_coweight(j))
        images.append(xi_linear(datum, img_vee, -datum.pairing(g.trans, img_vee)))
    return tuple(images)


def act_xi(datum: RootDatum, g: AffineWeylElement, p: XiPolynomial) -> XiPolynomial:
    """^{x_mu w} xi_{lambda-vee} = xi_{w lambda-vee} - (mu : w lambda-vee)."""
    return p.substitute(xi_images(datum, g))


def act_affine_coroot(datum: RootDatum, g: AffineWeylElement, beta_hat) -> tuple:
    """Action on affine coroots (beta-vee, r): image (w beta-vee, r - (mu : w beta-vee))."""
    bvee, r = beta_hat
    img = datum.w_act_coweight(g.w, tuple(Q(c) for c in bvee))
    r2 = Q(r) - datum.pairing(g.trans, img)
    return (tuple(img), r2)


def affine_coroot_eval(datum: RootDatum, beta_hat, lam) -> Q:
    bvee, r = beta_hat
    return datum.pairing(tuple(Q(c) for c in lam), tuple(Q(c) for c in bvee)) + Q(r)


# -- alcoves and lengths -----------------------------------------------------

def _sample(datum: RootDatum):
    """(p, n, n p) for the fundamental sample p = rho/K: n = 2K, n p = 2 rho.

    Memoized on the datum.
    """
    hit = datum.memo.get("sample")
    if hit is None:
        k = ceil(datum.pairing(datum.rho, datum.theta_vee)) + 2
        hit = datum.memo["sample"] = (tuple(c / k for c in datum.rho), 2 * k,
                                      tuple(int(2 * c) for c in datum.rho))
    return hit


def fundamental_sample(datum: RootDatum) -> Tuple[Q, ...]:
    """rho/K strictly inside the fundamental alcove, K = ceil((rho:theta-vee)) + 2."""
    return _sample(datum)[0]


def alcove_sample(datum: RootDatum, g: AffineWeylElement) -> Tuple[Q, ...]:
    """Interior point of the alcove A_g = g^{-1} A_+."""
    return act_weight(datum, inverse(datum, g), fundamental_sample(datum))


def _scaled_pairings(datum: RootDatum, g: AffineWeylElement) -> List[int]:
    """n (g p : alpha_i-vee) for each simple coroot, p the fundamental sample.

    Integers: g p = mu + w p, and n p is integral.  The pairing with a coroot
    beta-vee = sum_i b_i alpha_i-vee is sum_i b_i times these, over n.
    """
    _, n, np_ = _sample(datum)
    q = [n * t + c for t, c in zip(g.trans, datum.w_act_root(g.w, np_))]
    return [sum(a * b for a, b in zip(row, q)) for row in datum.cartan]


def length(datum: RootDatum, g: AffineWeylElement) -> int:
    """Number of affine coroot hyperplanes separating A_+ from g(A_+)."""
    n = _sample(datum)[1]
    at_p = _scaled_pairings(datum, identity(datum))
    at_q = _scaled_pairings(datum, g)
    total = 0
    for bvee in datum.positive_coroots:
        a = sum(b * c for b, c in zip(bvee, at_p))
        b = sum(b * c for b, c in zip(bvee, at_q))
        lo, hi = (a, b) if a <= b else (b, a)
        if lo % n == 0 or hi % n == 0:
            raise ScopeError("sample point lies on a wall")
        # integers strictly between lo/n and hi/n: floor(hi/n) - ceil(lo/n) + 1
        total += hi // n + (-lo) // n + 1
    return total


def reduced_word(datum: RootDatum, g: AffineWeylElement,
                 preference: Optional[List[int]] = None) -> Tuple[int, ...]:
    """A reduced word for g in the letters 0..r-1, HEART (alcove walk).

    The optional preference list reorders which descent is stripped first,
    producing genuinely different reduced words for PBW-independence tests.
    Words are memoized on the datum per (element, preference).
    """
    order = tuple(preference) if preference is not None else None
    key = ("word", g.key(), order)
    hit = datum.memo.get(key)
    if hit is None:
        if order is None:
            order = tuple(range(datum.rank)) + (HEART,)
        hit = datum.memo[key] = _alcove_walk(datum, g, order)
    return hit


def _alcove_walk(datum: RootDatum, g: AffineWeylElement,
                 order: Tuple[int, ...]) -> Tuple[int, ...]:
    """Strip descents of g in the given letter order until the identity is left.

    With q = g p and the integers c of _scaled_pairings, s_i is a descent when
    (q : alpha_i-vee) < 0, i.e. c_i < 0, and s_heart when (q : theta-vee) > 1,
    i.e. sum_i theta_i c_i > n.
    """
    n = _sample(datum)[1]
    word: List[int] = []
    cur = g
    while True:
        c = _scaled_pairings(datum, cur)
        found = None
        for i in order:
            if (sum(t * x for t, x in zip(datum.theta_vee, c)) > n if i == HEART
                    else c[i] < 0):
                found = i
                break
        if found is None:
            break
        word.append(found)
        cur = compose(datum, simple_reflection(datum, found), cur)
    if cur.w != datum.w_identity or any(cur.trans):
        raise ScopeError("element is not in the non-extended affine Weyl group")
    return tuple(word)


def element_from_word(datum: RootDatum, word: Iterable[int]) -> AffineWeylElement:
    g = identity(datum)
    for i in word:
        g = compose(datum, g, simple_reflection(datum, i))
    return g


def ball(datum: RootDatum, radius: int) -> List[AffineWeylElement]:
    """All elements of the affine Weyl group with length <= radius (BFS shells)."""
    seen: Dict[tuple, AffineWeylElement] = {}
    e = identity(datum)
    seen[e.key()] = e
    frontier = [e]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for i in list(range(datum.rank)) + [HEART]:
                h = compose(datum, simple_reflection(datum, i), g)
                if h.key() not in seen:
                    seen[h.key()] = h
                    nxt.append(h)
        frontier = nxt
    return sorted(seen.values(), key=lambda g: (g.trans, g.w))


def orbit(datum: RootDatum, lam, window: int):
    """{(g, g lambda)} for length(g) <= window, one shortest g per orbit point."""
    lam = tuple(Q(c) for c in lam)
    best: Dict[tuple, Tuple[int, AffineWeylElement]] = {}
    e = identity(datum)
    frontier = {e.key(): e}
    seen = {e.key()}
    best[lam] = (0, e)
    for ell in range(1, window + 1):
        nxt = {}
        for g in frontier.values():
            for i in list(range(datum.rank)) + [HEART]:
                h = compose(datum, simple_reflection(datum, i), g)
                if h.key() in seen:
                    continue
                seen.add(h.key())
                nxt[h.key()] = h
                pt = act_weight(datum, h, lam)
                if pt not in best:
                    best[pt] = (ell, h)
        frontier = nxt
    return {pt: g for pt, (_, g) in best.items()}


def stabilizer(datum: RootDatum, lam, search_bound: int = 8):
    """All g with g lambda = lambda, with the Lemma-1.3 certificate.

    Returns (elements, certified): elements from the explicit description
    {x_{lambda - w lambda} w ; lambda - w lambda in Y}; certified is True when
    a ball search up to search_bound finds no others (it cannot, by the lemma).
    """
    lam = tuple(Q(c) for c in lam)
    elems = []
    for w in range(datum.w_order):
        wl = datum.w_act_weight(w, lam)
        diff = tuple(a - b for a, b in zip(lam, wl))
        if all(d.denominator == 1 for d in diff):
            elems.append(AffineWeylElement(tuple(int(d) for d in diff), w))
    elem_keys = {g.key() for g in elems}
    certified = True
    for g in ball(datum, search_bound):
        if act_weight(datum, g, lam) == lam and g.key() not in elem_keys:
            certified = False
    return sorted(elems, key=lambda g: (g.trans, g.w)), certified


def lemma13_predicate(datum: RootDatum, lam):
    """(W_lambda, W_{e^lambda}, affine stabilizer, equivalence holds?)."""
    lam = tuple(Q(c) for c in lam)
    w_lam = [w for w in range(datum.w_order) if datum.w_act_weight(w, lam) == lam]
    w_exp = []
    for w in range(datum.w_order):
        diff = tuple(a - b for a, b in zip(lam, datum.w_act_weight(w, lam)))
        if all(d.denominator == 1 for d in diff):
            w_exp.append(w)
    hat, _ = stabilizer(datum, lam, search_bound=0)
    lhs = set(w_lam) == set(w_exp)
    rhs = len(hat) == len(w_lam) and all(
        not any(g.trans) and g.w in w_lam for g in hat
    )
    return w_lam, w_exp, hat, lhs == rhs


def integral_coroots(datum: RootDatum, lam0, h0: Q) -> List[tuple]:
    """{beta-vee : (lambda0 : beta-vee) in Z + Z h0} (the integral coroot system)."""
    lam0 = tuple(Q(c) for c in lam0)
    h0 = Q(h0)
    out = []
    for beta in datum.roots:
        bvee = tuple(Q(c) for c in datum.coroot_of(beta))
        v = datum.pairing(lam0, bvee)
        if _in_z_plus_zh(v, h0):
            out.append(datum.coroot_of(beta))
    return sorted(out)


def _in_z_plus_zh(v: Q, h0: Q) -> bool:
    if h0 == 0:
        return v.denominator == 1
    # Z + Z h0 = (g/q) Z with h0 = p/q, g = gcd(p, q)
    p, q = h0.numerator, h0.denominator
    g = gcd(p, q)
    scaled = v * q / g
    return scaled.denominator == 1


# -- parameters and torus points ---------------------------------------------

@dataclass(frozen=True)
class HeckeParams:
    """Parameters constant on the W-tilde-orbit of simple affine roots.

    Type A has a single orbit: one degenerate parameter h (exact rational),
    one AHA parameter zeta (exact scalar), and tau for the extended action.
    """

    h: Q
    zeta: object = None
    tau: object = None
    zeta_half: object = None

    @staticmethod
    def degenerate(h) -> "HeckeParams":
        return HeckeParams(h=Q(h))

    @staticmethod
    def from_exponent(h0, u0=Q(1)) -> "HeckeParams":
        """AHA parameters from rational exponents: zeta = e^{u0 h0}, tau = e^{u0}."""
        h0, u0 = Q(h0), Q(u0)
        return HeckeParams(
            h=h0,
            zeta=root_of_unity(u0 * h0),
            tau=root_of_unity(u0),
            zeta_half=root_of_unity(u0 * h0 / 2),
        )


class TorusPoint:
    """Point of T-vee given by the exact values of y_{omega_j-vee}."""

    __slots__ = ("datum", "values", "exponent")

    def __init__(self, datum: RootDatum, values, exponent=None):
        self.datum = datum
        self.values = tuple(values)
        if any(not v for v in self.values):
            raise ValueError("torus coordinates must be nonzero")
        self.exponent = exponent  # optional weight lambda with self = e^lambda

    @staticmethod
    def from_exponent(datum: RootDatum, lam) -> "TorusPoint":
        """e^lambda: y_{lambda-vee} value e^{(lambda:lambda-vee)}, convention e^z=exp(2 pi i z)."""
        lam = tuple(Q(c) for c in lam)
        vals = [root_of_unity(lam[j]) for j in range(datum.rank)]
        return TorusPoint(datum, vals, exponent=lam)

    def y_value(self, coords):
        """Value of y_{lambda-vee} for lambda-vee = sum coords_j omega_j-vee."""
        total = None
        for j, c in enumerate(coords):
            if c:
                f = self.values[j] ** int(c)
                total = f if total is None else total * f
        if total is None:
            return Q(1)
        return total

    def act_w(self, w: int) -> "TorusPoint":
        """w(ell): y_{lambda-vee}(w ell) = y_{w^{-1} lambda-vee}(ell)."""
        mat = self.datum.w_coweight_matrices[self.datum.w_inv[w]]
        vals = [self.y_value(mat[j]) for j in range(self.datum.rank)]
        exp = None
        if self.exponent is not None:
            exp = self.datum.w_act_weight(w, self.exponent)
        return TorusPoint(self.datum, vals, exponent=exp)

    def inverse_point(self) -> "TorusPoint":
        vals = [1 / v for v in self.values]
        exp = tuple(-c for c in self.exponent) if self.exponent is not None else None
        return TorusPoint(self.datum, vals, exponent=exp)

    def __eq__(self, other):
        return isinstance(other, TorusPoint) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"TorusPoint({self.values!r})"


def parameter_bridge(datum: RootDatum, h0, lam0, u0, denominator_bound: int = 24):
    """(zeta0, tau0, ell0) with a validity flag for the non-degeneracy condition.

    The condition requires u0 (k + (lambda0 : beta-vee)) to avoid Z \\ {0} for
    every coroot beta-vee (and beta-vee = 0) and every k in Z + sum Z h0; for a
    rational u0 a violation always exists, and the scan reports a witness with
    k-denominators up to the given bound.
    """
    h0, u0 = Q(h0), Q(u0)
    lam0 = tuple(Q(c) for c in lam0)
    params = HeckeParams.from_exponent(h0, u0)
    ell0 = TorusPoint.from_exponent(datum, lam0)
    witness = None
    coroots = [tuple(Q(0) for _ in range(datum.rank))] + [
        tuple(Q(c) for c in datum.coroot_of(b)) for b in datum.roots
    ]
    q = h0.denominator
    step = Q(gcd(h0.numerator, q), q)
    n = 0
    while witness is None and abs(n * step) <= denominator_bound:
        for k in (n * step, -n * step) if n else (Q(0),):
            for bvee in coroots:
                val = u0 * (k + datum.pairing(lam0, bvee))
                if val != 0 and val.denominator == 1:
                    witness = (k, bvee)
                    break
            if witness:
                break
        n += 1
    return params.zeta, params.tau, ell0, witness is None, witness
