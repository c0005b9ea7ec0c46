"""Normal-form arithmetic in the degenerate DAHA and the affine Hecke algebra.

Degenerate side: elements are sums x_beta * w * p(xi) with beta in the root
lattice, w in the finite Weyl group and p in S'; the product is computed by
pushing xi-polynomials through reduced affine words one simple reflection at a
time.  AHA side: Bernstein form, sums t_w * p(y) with w finite and p Laurent;
the Bernstein commutation is kept polynomial via the finite geometric sum.
The two have the same shape, s_i <-> t_i and xi <-> y (Lusztig, JAMS 1989),
and one element class serves both: DahaElement and AhaElement share the
linear structure and state only their coefficient ring, their group keys,
their constructors and their product (daha_mul or aha_mul, looked up by
name).  The intertwiners phi_i = g_i d_i + c are built by one loop.

Both products push coefficients through one simple reflection at a time,
and each push is linear, so it runs on per-letter tables of monomial
images: _push_image holds (^{s_i}xi^m, theta_i(^{s_i}xi^m)) for the
degenerate cross relation p s_i = s_i ^{s_i}p - h theta_i(^{s_i}p), and
_theta_y the Bernstein theta_i(y^k) for the AHA.  A push is then the sum
of c times the image over the terms c xi^m of p, on plain term dicts, and
a polynomial is built once per product.  The tables are held on the datum
(RootDatum.memo) and keyed by (letter, monomial) only, since the images
depend on nothing else; they are filled at the first use of a key and freed
with their datum.  No module, element or product is cached across calls.

Dunkl side: the polynomial representation of H' (x by multiplication, w by
^w, xi_j by the Dunkl operator D_j) runs on integer forms ({monomial: int},
den) over one denominator.  The image D_j(x^m) of each monomial is memoized
as a form; dunkl_apply and polynomial_action convert their input to a form
and their result back to an XLaurent with Fraction values, and
polynomial_rep_check compares forms without building an XLaurent.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from operator import add
from typing import Dict, List, Tuple

from . import affine as aw
from .errors import ScopeError
from .rings import (
    XiPolynomial, XLaurent, YLaurent, add_product, add_terms, bernstein_theta,
    demazure_x, xi_linear, x_monomial, y_monomial,
    neg_simple_coroot, _clean, _divide_by_linear,
)
from .rootdata import RootDatum

__all__ = [
    "DahaElement", "AhaElement", "daha_mul", "aha_mul", "intertwiner_element",
    "dunkl_apply", "dunkl_rho_coeff", "polynomial_action", "polynomial_rep_check",
    "xi_affine_coroot", "act_xi_simple", "demazure_affine",
]

GroupKey = Tuple[Tuple[int, ...], int]  # (translation in Y, finite Weyl index)


class _Element:
    """Normal-form element sum_k k * p_k: group keys k, coefficients p_k in a ring.

    The linear structure is shared.  A subclass states its coefficient ring,
    how its keys stand for affine Weyl group elements (_key, _group), its
    public constructors and its product.
    """

    __slots__ = ("datum", "params", "terms")
    ring = None

    def __init__(self, datum: RootDatum, params: aw.HeckeParams, terms: dict):
        self.datum = datum
        self.params = params
        self.terms = _clean(terms)

    @classmethod
    def zero(cls, datum, params):
        return cls(datum, params, {})

    @classmethod
    def one(cls, datum, params):
        return cls._from_group(datum, params, aw.identity(datum))

    @classmethod
    def _from_ring(cls, datum, params, p):
        """The coefficient p at the identity."""
        return cls(datum, params, {cls._key(aw.identity(datum)): p})

    @classmethod
    def _from_group(cls, datum, params, g: aw.AffineWeylElement):
        """The group element g, with coefficient 1."""
        return cls(datum, params, {cls._key(g): cls.ring.constant(Q(1), datum.rank)})

    def __add__(self, other):
        out = dict(self.terms)
        add_terms(out, other.terms)
        return type(self)(self.datum, self.params, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return type(self)(self.datum, self.params,
                          {k: v.scale(c) for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            return self.scale(other)
        return self._product(other)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


class DahaElement(_Element):
    """Normal-form element sum_{beta,w} x_beta * w * p_{beta,w}(xi) of H'.

    Keys are AffineWeylElement.key() pairs (translation, finite Weyl index).
    """

    __slots__ = ()
    ring = XiPolynomial

    @staticmethod
    def _key(g: aw.AffineWeylElement) -> GroupKey:
        return g.key()

    def _group(self, key: GroupKey) -> aw.AffineWeylElement:
        return aw.AffineWeylElement(*key)

    @classmethod
    def from_poly(cls, datum, params, p: XiPolynomial) -> "DahaElement":
        return cls._from_ring(datum, params, p)

    @classmethod
    def from_group(cls, datum, params, g: aw.AffineWeylElement) -> "DahaElement":
        return cls._from_group(datum, params, g)

    def _product(self, other):
        return daha_mul(self, other)


def xi_affine_coroot(datum: RootDatum, i: int) -> XiPolynomial:
    """xi_{alpha_i-vee}; for the extra affine index, xi = 1 - xi_{theta-vee}."""
    if i == aw.HEART:
        theta_vee = tuple(Q(c) for c in datum.theta_vee)
        return XiPolynomial.constant(Q(1), datum.rank) - xi_linear(datum, theta_vee)
    av = tuple(Q(c) for c in datum.coroot_of(datum.simple_roots[i]))
    return xi_linear(datum, av)


def act_xi_simple(datum: RootDatum, i: int, p: XiPolynomial) -> XiPolynomial:
    """^{s_i} p with the affine action for the extra index.

    The images of the xi_j are memoized on the datum per letter.
    """
    key = ("xi_simple", i)
    hit = datum.memo.get(key)
    if hit is None:
        hit = datum.memo[key] = aw.xi_images(datum, aw.simple_reflection(datum, i))
    return p.substitute(hit)


def demazure_affine(datum: RootDatum, i: int, p: XiPolynomial) -> XiPolynomial:
    """theta_{alpha_i-vee}(p) = (p - ^{s_i}p)/xi_{alpha_i-vee}, affine letters included."""
    num = p - act_xi_simple(datum, i, p)
    if not num:
        return XiPolynomial({})
    return _divide_by_linear(datum, num, xi_affine_coroot(datum, i))


def _push_image(datum: RootDatum, i: int, m: Tuple[int, ...]) -> tuple:
    """(^{s_i}xi^m, theta_{alpha_i-vee}(^{s_i}xi^m)) as term dicts.

    Memoized on the datum per (letter, monomial).
    """
    key = ("push", i, m)
    hit = datum.memo.get(key)
    if hit is None:
        sp = act_xi_simple(datum, i, XiPolynomial({m: Q(1)}))
        hit = datum.memo[key] = (sp.terms, demazure_affine(datum, i, sp).terms)
    return hit


def _poly_times_group(datum: RootDatum, h, p: dict,
                      g: aw.AffineWeylElement, word: Tuple[int, ...],
                      prefix: aw.AffineWeylElement,
                      acc: Dict[GroupKey, dict]) -> None:
    """Add the normal form of prefix * p * g into acc, along a reduced word of g.

    p is a term dict of S' with no zero values; acc maps group keys to term
    dicts, summed in place (rings.add_terms).  One letter s = s_i at a time,
    p s = s ^{s}p - h theta_{alpha_i-vee}(^{s}p): the first term recurses
    with prefix * s, the second with prefix, and both are sums of c times
    the tabled images of p's monomials (_push_image).  A constant p is a
    scalar, central in H', so p g = g p is added at once, exactly what
    pushing it letter by letter would give (^{s}p = p and theta(p) = 0 at
    every letter).
    """
    if not p:
        return
    if not word or not any(map(any, p)):
        left = aw.compose(datum, prefix, g)
        add_terms(acc.setdefault(left.key(), {}), p)
        return
    i = word[0]
    s = aw.simple_reflection(datum, i)
    g2 = aw.compose(datum, s, g)  # g = s * g2
    sp: dict = {}
    corr: dict = {}
    for m, c in p.items():
        img, theta = _push_image(datum, i, m)
        add_terms(sp, img, c)
        if theta:
            add_terms(corr, theta, -h * c)
    _poly_times_group(datum, h, _clean(sp), g2, word[1:],
                      aw.compose(datum, prefix, s), acc)
    _poly_times_group(datum, h, _clean(corr), g2, word[1:], prefix, acc)


def daha_mul(a: DahaElement, b: DahaElement) -> DahaElement:
    datum, h = a.datum, a.params.h
    if b.datum is not datum:
        raise ScopeError("root datum mismatch")
    out: Dict[GroupKey, dict] = {}
    for (beta, w), p in a.terms.items():
        gw = aw.AffineWeylElement(beta, w)
        for (gamma, v), q in b.terms.items():
            g = aw.AffineWeylElement(gamma, v)
            pushed: Dict[GroupKey, dict] = {}
            _poly_times_group(datum, h, p.terms, g, aw.reduced_word(datum, g),
                              gw, pushed)
            for key, terms in pushed.items():
                add_product(out.setdefault(key, {}), _clean(terms), q.terms)
    return DahaElement(datum, a.params,
                       {key: XiPolynomial(terms) for key, terms in out.items()})


# -- affine Hecke algebra ------------------------------------------------------

class AhaElement(_Element):
    """Normal-form element sum_w t_w * p_w(y) of the AHA in Bernstein form.

    Keys are finite Weyl indices w: the group part is finite.
    """

    __slots__ = ()
    ring = YLaurent

    @staticmethod
    def _key(g: aw.AffineWeylElement) -> int:
        return g.w

    def _group(self, key: int) -> aw.AffineWeylElement:
        return aw.AffineWeylElement((0,) * self.datum.rank, key)

    @classmethod
    def from_y(cls, datum, params, p: YLaurent) -> "AhaElement":
        return cls._from_ring(datum, params, p)

    @classmethod
    def from_t(cls, datum, params, w: int) -> "AhaElement":
        return cls(datum, params, {w: YLaurent.constant(Q(1), datum.rank)})

    def _product(self, other):
        return aha_mul(self, other)


def _theta_y(datum: RootDatum, i: int, k: Tuple[int, ...]) -> dict:
    """bernstein_theta(y^k, i) as a term dict.

    Memoized on the datum per (letter, monomial).
    """
    key = ("theta_y", i, k)
    hit = datum.memo.get(key)
    if hit is None:
        hit = datum.memo[key] = bernstein_theta(datum, YLaurent({k: Q(1)}), i).terms
    return hit


def _t_times_letter(datum: RootDatum, params, terms: Dict[int, dict],
                    i: int) -> Dict[int, dict]:
    """Right multiplication of sum t_w p_w by t_i, pushing p_w through first.

    The p_w and the result are term dicts with no zero values.
    """
    zeta = params.zeta
    zeta_1 = zeta - 1
    neg_zeta_1 = -zeta_1
    out: Dict[int, dict] = {}
    si = datum.w_simple[i]
    wmap = datum.w_coweight_maps[si]
    for w, p in terms.items():
        # p t_i = t_i ^{s_i}p - (zeta - 1) theta(^{s_i}p)
        wsi = datum.w_mul[w][si]
        up = datum.w_length(wsi) > datum.w_length(w)
        top = out.setdefault(wsi, {})
        here = out.setdefault(w, {})
        sp = {wmap(k): v for k, v in p.items()}  # ^{s_i} permutes the monomials
        if up:
            add_terms(top, sp)
        else:
            # t_w t_i = zeta t_{w s_i} + (zeta - 1) t_w
            add_terms(top, sp, zeta)
            add_terms(here, sp, zeta_1)
        for k, v in sp.items():
            add_terms(here, _theta_y(datum, i, k), v * neg_zeta_1)
    return {w: t for w, t in ((w, _clean(t)) for w, t in out.items()) if t}


def aha_mul(a: AhaElement, b: AhaElement) -> AhaElement:
    datum, params = a.datum, a.params
    out: Dict[int, dict] = {}
    for v, q in b.terms.items():
        cur = {w: p.terms for w, p in a.terms.items()}
        for i in datum.w_words[v]:
            cur = _t_times_letter(datum, params, cur, i)
        for w, p in cur.items():
            add_product(out.setdefault(w, {}), p, q.terms)
    return AhaElement(datum, params,
                      {w: YLaurent(terms) for w, terms in out.items()})


# -- intertwiners ---------------------------------------------------------------

def _letters(datum: RootDatum, target, side: str) -> Tuple[int, ...]:
    """The letters of target on a side, checked.

    target is an AffineWeylElement (its reduced word), a finite Weyl index
    (its word) or an explicit word.  ScopeError for a side other than
    'degenerate' and 'aha', and for a letter outside 0..r-1 other than
    HEART on the degenerate side: the AHA's group part is finite.
    """
    if side not in ("degenerate", "aha"):
        raise ScopeError("side must be 'degenerate' or 'aha'")
    if isinstance(target, aw.AffineWeylElement):
        word = aw.reduced_word(datum, target)
    elif isinstance(target, int):
        word = datum.w_words[target]
    else:
        word = tuple(target)
    allowed = range(datum.rank) if side == "aha" else (*range(datum.rank), aw.HEART)
    for i in word:
        if i not in allowed:
            raise ScopeError("letter %s is not a simple reflection on the %s side"
                             % ("H" if i == aw.HEART else repr(i), side))
    return word


def intertwiner_element(datum: RootDatum, params: aw.HeckeParams,
                        target, side: str = "degenerate"):
    """phi'_w (degenerate) or phi_w (aha) along a word (see _letters).

    The product of the phi_i = g_i d_i + c over the letters, with
    (g_i, d_i, c) = (s_i, xi_{alpha_i-vee}, -h) on the degenerate side and
    (t_i, y_{-alpha_i-vee} - 1, zeta - 1) on the AHA side.
    """
    word = _letters(datum, target, side)
    if side == "degenerate":
        algebra, c = DahaElement, -params.h

        def coroot(i):
            return xi_affine_coroot(datum, i)
    else:
        algebra, c = AhaElement, params.zeta - 1
        one_y = y_monomial(datum, (0,) * datum.rank)

        def coroot(i):
            return y_monomial(datum, neg_simple_coroot(datum, i)) - one_y
    out = algebra.one(datum, params)
    const = out.scale(c)
    for i in word:
        g = algebra._from_group(datum, params, aw.simple_reflection(datum, i))
        out = out * (g * algebra._from_ring(datum, params, coroot(i)) + const)
    return out


# -- Dunkl operators --------------------------------------------------------------
#
# The polynomial representation runs on integer forms.  A form (terms, den)
# stands for sum_m terms[m]/den x^m: the values are nonzero ints, den > 0,
# and the gcd of den and all values is 1, so each rational polynomial has one
# form and equal forms mean equal polynomials.

Form = Tuple[Dict[Tuple[int, ...], int], int]


def _rational(c) -> Q:
    if not isinstance(c, (int, Q)):
        raise ScopeError("the polynomial representation is over Q: "
                         f"coefficient {c!r} is not rational")
    return c


def _reduce(terms: dict, den: int) -> Form:
    """The normalized form of terms/den: zero entries dropped, gcd divided out."""
    terms = {k: v for k, v in terms.items() if v}
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {k: v // g for k, v in terms.items()}, den // g


def _form(terms: dict) -> Form:
    """The form of a term dict with rational values, over the lcm of their denominators."""
    den = lcm(1, *(_rational(v).denominator for v in terms.values()))
    return _reduce({k: v.numerator * (den // v.denominator)
                    for k, v in terms.items()}, den)


def _laurent(form: Form) -> XLaurent:
    terms, den = form
    return XLaurent({k: Q(v, den) for k, v in terms.items()})


def _rescale(acc: dict, den: int, tden: int, c: int) -> Tuple[int, int]:
    """Bring acc/den to the denominator lcm(den, tden), in place.

    Returns that denominator and the factor by which c * terms/tden is added
    there as integer values.
    """
    if tden != den:
        new = lcm(den, tden)
        if new != den:
            up = new // den
            for k in acc:
                acc[k] *= up
            den = new
        c *= den // tden
    return den, c


def dunkl_rho_coeff(datum: RootDatum, params: aw.HeckeParams, j: int) -> Q:
    """rho-tilde_j = (h/2) * sum of j-th coordinates of the positive roots."""
    return params.h * Q(sum(b[j] for b in datum.positive_roots), 2)


def _dunkl_image(datum: RootDatum, params: aw.HeckeParams, j: int,
                 m: Tuple[int, ...]) -> Form:
    """The form of D_j(x^m), memoized on the datum per (h, j, m)."""
    key = ("dunkl", params.h, j, m)
    hit = datum.memo.get(key)
    if hit is None:
        x = x_monomial(datum, m)
        acc = {m: m[j] + dunkl_rho_coeff(datum, params, j)}
        for beta in datum.positive_roots:
            if beta[j]:
                add_terms(acc, demazure_x(datum, x, beta).terms, -params.h * beta[j])
        hit = datum.memo[key] = _form(acc)
    return hit


def _dunkl_form(datum: RootDatum, params: aw.HeckeParams, j: int,
                form: Form) -> Form:
    """D_j on a form: sum_m f_m D_j(x^m), one memoized image per monomial."""
    terms, den = form
    acc: dict = {}
    acc_den = 1
    for m, c in terms.items():
        img, img_den = _dunkl_image(datum, params, j, m)
        acc_den, c = _rescale(acc, acc_den, img_den, c)
        add_terms(acc, img, c)
    return _reduce(acc, acc_den * den)


def _act(datum: RootDatum, params: aw.HeckeParams, a: DahaElement,
         form: Form) -> Form:
    """a acting on a form: x^beta w p(xi) sends f to x^beta ^w(p(D) f).

    The D_j chain of each xi-monomial runs once per call over the memoized
    images, and is shared by the group terms and by the longer monomials
    it is a prefix of.  Each summand is moved (x^beta w) straight into the
    accumulator over the lcm of the denominators, and the sum is reduced
    once.
    """
    chains = {(0,) * datum.rank: form}

    def chain(mono):
        # p(D) runs D_{r-1} first, so the last D_j applied has the least j
        hit = chains.get(mono)
        if hit is None:
            j = next(j for j, e in enumerate(mono) if e)
            hit = chains[mono] = _dunkl_form(
                datum, params, j, chain(mono[:j] + (mono[j] - 1,) + mono[j + 1:]))
        return hit

    acc: dict = {}
    den = 1
    for (beta, w), p in a.terms.items():
        wmap = datum.w_maps[w]
        shifted = any(beta)
        for mono, coeff in p.terms.items():
            coeff = _rational(coeff)
            terms, g_den = chain(mono)
            den, c = _rescale(acc, den, g_den * coeff.denominator,
                              coeff.numerator)
            for k, v in terms.items():
                k = tuple(map(add, beta, wmap(k))) if shifted else wmap(k)
                acc[k] = acc[k] + c * v if k in acc else c * v
    return _reduce(acc, den)


def dunkl_apply(datum: RootDatum, params: aw.HeckeParams, j: int,
                f: XLaurent) -> XLaurent:
    """D_j f = partial_j f - sum_{beta>0} h beta_j theta_beta(f) + rho-tilde_j f.

    D_j is linear, so D_j f = sum_m f_m D_j(x^m), one memoized image per
    monomial of f.  The sum runs on integer forms; the result has Fraction
    values.  Raises ScopeError if a coefficient of f is not rational.
    """
    return _laurent(_dunkl_form(datum, params, j, _form(f.terms)))


def polynomial_action(datum: RootDatum, params: aw.HeckeParams,
                      a: DahaElement, f: XLaurent) -> XLaurent:
    """The polynomial representation: x acts by multiplication, w by ^w, xi_j by D_j.

    The action runs on integer forms; the result has Fraction values.  H' is
    over Q: raises ScopeError if a coefficient of f or of a's xi-polynomials
    is not rational.
    """
    return _laurent(_act(datum, params, a, _form(f.terms)))


def polynomial_rep_check(datum: RootDatum, params: aw.HeckeParams,
                         samples: List[DahaElement], degree: int) -> dict:
    """Multiplicativity and a faithfulness spot-check of the Dunkl representation.

    Both sides are compared as normalized integer forms.
    """
    monos = [({m: 1}, 1) for m in _laurent_monomials(datum, degree)]
    failures = 0
    zero_actors = 0
    for idx in range(0, len(samples) - 1, 2):
        a, b = samples[idx], samples[idx + 1]
        ab = daha_mul(a, b)
        for f in monos:
            if _act(datum, params, ab, f) != _act(datum, params, a,
                                                  _act(datum, params, b, f)):
                failures += 1
    for a in samples:
        if not a.terms:
            continue
        if all(not _act(datum, params, a, f)[0] for f in monos):
            zero_actors += 1
    return {"pairs": (len(samples) // 2), "monomials": len(monos),
            "failures": failures, "zero_actors": zero_actors}


def _laurent_monomials(datum: RootDatum, degree: int):
    from itertools import product
    rng = range(-degree, degree + 1)
    return [m for m in product(rng, repeat=datum.rank)
            if sum(abs(c) for c in m) <= degree]
