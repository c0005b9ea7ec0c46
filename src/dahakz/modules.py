"""Finite truncations of standard and parabolically induced weight modules.

Both sides are supported, by one code path: modules over the degenerate
double algebra H' (group part affine Weyl elements in a length window)
and over the affine Hecke algebra (group part the finite Weyl group, as
elements with zero translation), times a jet basis at the inducing points.
Both take their jets from one rings.JetAlgebra, over S' at weights or over
S at torus points, split group elements into W_J-cosets the same way, and
act by one deformed parabolic action a ^{s_j}f + b theta_j(f).  The sides
differ only in the algebra: its product and element constructors, the
W-action on the ring and on the points, the constants (a, b, d_j) and
which generators act.

The finite fibers the KZ connection lives on are WeightModules too, built
by parabolic_fiber, the degenerate case of the one finite-module
constructor: finite coset representatives, no window.  degenerate_fiber is
its case J = (), one point, jet order 1.  induce takes a fiber to its
window: the same J and jet algebra over the affine coset representatives,
and the degenerate parabolic_module is built on it.  Characters,
intertwiner matrices with per-weight block determinants and exact
endomorphism algebras are built on top.

Generators act by exact matrices.  The matrix of an algebra element is the
generic normal-form product on each basis vector, except for the
degenerate side's generators.  s_i needs no product: s_i (g L v) =
(s_i g) L v is read off the coset form of s_i g (WeightModule._s_columns).
The column of xi_j at a basis vector with group part g = s_i g' comes from
the columns at g' by the degenerate cross relation
p s_i = s_i ^{s_i}p - h theta_i(^{s_i}p) (Lusztig, JAMS 1989), so only the
columns with g = e need a product (WeightModule.xi_matrix).
"""
from __future__ import annotations

import math
from fractions import Fraction as Q
from itertools import accumulate
from typing import Dict, List

from . import affine as aw
from . import linalg
from .errors import InternalCheckError, ScopeError
from .hecke import (AhaElement, DahaElement, _letters, act_xi_simple,
                    demazure_affine, intertwiner_element)
from .rings import (JetAlgebra, LocalJet, XiPolynomial, YLaurent, add_terms,
                    coweight_coords, neg_simple_coroot, xi_apply_w, xi_linear,
                    xi_variable, y_apply_w, y_monomial)
from .rootdata import RootDatum
from .scalars import Cyclotomic

__all__ = [
    "Character", "WeightModule",
    "standard_module", "parabolic_module", "parabolic_fiber", "degenerate_fiber",
    "induce",
    "character", "intertwiner_matrix", "invertibility",
    "endomorphism_algebra", "composition_check", "triangularity_check",
]


class Character:
    """Multiset of (weight, multiplicity) pairs with a window descriptor."""

    def __init__(self, mults: Dict[tuple, int], window):
        for m in mults.values():
            if m <= 0:
                raise InternalCheckError("character multiplicities must be positive")
        self.mults = dict(mults)
        self.window = window

    def __add__(self, other: "Character") -> "Character":
        out = dict(self.mults)
        for k, v in other.mults.items():
            out[k] = out.get(k, 0) + v
        return Character(out, self.window)

    def __eq__(self, other):
        return isinstance(other, Character) and self.mults == other.mults

    def items(self):
        return sorted(self.mults.items(), key=lambda kv: repr(kv[0]))

    def __repr__(self):
        return f"Character({self.items()!r})"


# -- coset decomposition ----------------------------------------------------

def _length(datum: RootDatum, g: aw.AffineWeylElement, lengths: dict) -> int:
    """aw.length of g, memoized in the dict lengths by g.key()."""
    k = g.key()
    if k not in lengths:
        lengths[k] = aw.length(datum, g)
    return lengths[k]


def _coset(datum: RootDatum, g: aw.AffineWeylElement, J: tuple, lengths: dict):
    """g = v * u with u in the finite parabolic W_J and v of minimal length.

    Returns (v, u_word) where u = s_{j1} ... s_{jk} for u_word = (j1, ..., jk).
    A finite Weyl element is the affine element with zero translation.
    """
    u_word: List[int] = []
    cur = g
    changed = True
    while changed:
        changed = False
        for j in J:
            cand = aw.compose(datum, cur, aw.simple_reflection(datum, j))
            if _length(datum, cand, lengths) < _length(datum, cur, lengths):
                cur = cand
                u_word.insert(0, j)
                changed = True
                break
    return cur, tuple(u_word)


def _minimal_reps(datum: RootDatum, J: tuple, elements):
    """The minimal W_J-coset representatives among elements, by (length, key)."""
    lengths: dict = {}
    reps = [g for g in elements if not _coset(datum, g, J, lengths)[1]]
    reps.sort(key=lambda g: (_length(datum, g, lengths), g.key()))
    return reps


def _letter_coefficients(datum: RootDatum, i: int, j: int):
    """(c, c_0, d) with ^{s_i}xi_j = sum_k c_k xi_k + c_0 and d = theta_i(^{s_i}xi_j).

    c lists the pairs (k, c_k) with c_k nonzero; d is a constant, since
    theta_i lowers the degree.
    """
    zero = (0,) * datum.rank
    sp = act_xi_simple(datum, i, xi_variable(datum, j))
    lin = sorted((mono.index(1), c) for mono, c in sp.terms.items() if mono != zero)
    return lin, sp.terms.get(zero, 0), demazure_affine(datum, i, sp).terms.get(zero, 0)


# -- module container ---------------------------------------------------------

# side -> (its algebra's element class, the finite W-action on its coefficient ring)
_SIDES = {"degenerate": (DahaElement, xi_apply_w), "aha": (AhaElement, y_apply_w)}


class WeightModule:
    """Truncated weight module with exact generator action.

    Basis (group element key, point, jet monomial) over minimal W_J-coset
    representatives, keyed by AffineWeylElement.key() on both sides.
    Degenerate side: affine representatives in a length window, or finite
    ones for a fiber.  AHA side: finite representatives (zero translation;
    no window needed).
    """

    def __init__(self, side, datum, params, J, jetalg, group_list, window):
        self.side = side
        self.datum = datum
        self.params = params
        self.J = tuple(J)
        self.jetalg = jetalg
        self.group_list = group_list
        self.window = window
        self.basis: List[tuple] = [(g.key(), pt, m) for g in group_list
                                   for pt in jetalg.points for m in jetalg.monomials]
        self.index = {b: i for i, b in enumerate(self.basis)}
        self._group_index = {g.key(): g for g in group_list}
        self.algebra, self._apply_w = _SIDES[side]
        self._lengths: dict = {}
        self._letters: dict = {}
        self._lifts: dict = {}
        self._s_cols: dict = {}
        self._xi_cols = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _act_point(self, g: aw.AffineWeylElement, pt: tuple) -> tuple:
        """g(pt): on a weight, or (g finite) on the coordinates of a torus point."""
        if self.side == "degenerate":
            return aw.act_weight(self.datum, g, pt)
        return aw.TorusPoint(self.datum, pt).act_w(g.w).values

    # -- action ---------------------------------------------------------------

    def _lift(self, bidx: int):
        """Algebra element taking the cyclic vector to basis vector bidx.

        Memoized: each generator matrix lifts every basis vector again.
        """
        if bidx not in self._lifts:
            self._lifts[bidx] = self._make_lift(bidx)
        return self._lifts[bidx]

    def _make_lift(self, bidx: int):
        gkey, pt, mono = self.basis[bidx]
        jetalg, g = self.jetalg, self._group_index[gkey]
        lift = jetalg.lift(pt, LocalJet(jetalg.rank, jetalg.order, {mono: Q(1)}))
        if len(jetalg.points) > 1:
            lift = lift * jetalg.idempotent(pt)
        return (self.algebra._from_group(self.datum, self.params, g)
                * self.algebra._from_ring(self.datum, self.params, lift))

    def _letter(self, j: int):
        """(image, a, b, d_j^{-1}) of the deformed action of s_j (see _deform).

        image maps each point to the point equal (==) to its s_j-image; the
        inverse of d_j is one jet per point.  Memoized per letter.
        """
        if j not in self._letters:
            datum, jetalg = self.datum, self.jetalg
            s = aw.simple_reflection(datum, j)
            image = {}
            for pt in jetalg.points:
                spt = self._act_point(s, pt)
                if spt not in jetalg.points:
                    raise ScopeError("points must form a W_J-orbit")
                image[pt] = jetalg.points[jetalg.points.index(spt)]
            if self.side == "degenerate":
                av = tuple(Q(c) for c in datum.coroot_of(datum.simple_roots[j]))
                a, b, d = 1, self.params.h, xi_linear(datum, av)
            else:
                zeta = self.params.zeta
                a, b = zeta, zeta - 1
                d = y_monomial(datum, (0,) * datum.rank) \
                    - y_monomial(datum, neg_simple_coroot(datum, j))
            den = jetalg.reduce(d)
            self._letters[j] = (image, a, b,
                                {pt: den[pt].inverse() for pt in jetalg.points})
        return self._letters[j]

    def _deform(self, j: int, f: dict) -> dict:
        """Quotient action of s_j (t_j on the AHA side) on the jets f at the points.

        f -> a ^{s_j}f + b theta_j(f) with theta_j(f) = (f - ^{s_j}f)/d_j:
        (a, b, d_j) = (1, h, xi_{alpha_j-vee}) on S'/[O']^n and
        (zeta, zeta - 1, 1 - y_{-alpha_j-vee}) on S/[O]^n.  Regularity of
        the orbit makes d_j a unit in every local jet ring.
        """
        image, a, b, dinv = self._letter(j)
        jetalg, w = self.jetalg, self.datum.w_simple[j]
        out = {}
        for pt in jetalg.points:
            spt = image[pt]
            sf = jetalg.reduce(self._apply_w(self.datum, w, jetalg.lift(spt, f[spt])))[pt]
            out[pt] = sf.scale(a) + ((f[pt] - sf) * dinv[pt]).scale(b)
        return out

    def _reduce(self, elem):
        """Coordinates of elem applied to the cyclic vector; returns (coords, leaked).

        Each group term splits as a minimal coset representative times u in
        W_J, and u acts on the reduced jet by the deformed parabolic action.
        A representative outside the module (beyond the window) leaks.
        """
        col: dict = {}
        leaked = False
        for k, p in elem.terms.items():
            vmin, u_word = _coset(self.datum, elem._group(k), self.J, self._lengths)
            if vmin.key() not in self._group_index:
                leaked = True
                continue
            self._place(col, vmin.key(), u_word, self.jetalg.reduce(p))
        return col, leaked

    def _place(self, col: dict, vkey, u_word, f: dict) -> None:
        """Add the coordinates of v u (f) into col: the jets f deformed along
        u's word (the last letter first), at the representative v's basis vectors."""
        for j in reversed(u_word):
            f = self._deform(j, f)
        for qt in self.jetalg.points:
            for m, c in f[qt].terms.items():
                if c:
                    ridx = self.index[(vkey, qt, m)]
                    col[ridx] = col.get(ridx, 0) + c

    def _columns(self, elem):
        """Sparse columns {row: entry} of elem's matrix, and window leakage."""
        cols, leaked = [], False
        for b in range(self.dimension):
            col, lk = self._reduce(elem * self._lift(b))
            cols.append(col)
            leaked = leaked or lk
        return cols, leaked

    def _dense(self, cols):
        """A fresh dense matrix from sparse columns."""
        n = self.dimension
        mat = [[Q(0)] * n for _ in range(n)]
        for b, col in enumerate(cols):
            for r, c in col.items():
                mat[r][b] = c
        return mat

    def matrix_of(self, elem):
        """Exact matrix of an algebra element; also reports window leakage."""
        cols, leaked = self._columns(elem)
        return self._dense(cols), leaked

    # -- generators -------------------------------------------------------------

    def _s_columns(self, i: int):
        """Sparse columns of s_i and their leakage, built once per module.

        A basis vector b = (g, pt, m) is g L v, L the lift of the jet e_m at
        pt (_lift), so s_i b = (s_i g) L v needs no push.  With the coset
        form s_i g = v u (_coset), v a minimal W_J-coset representative and
        u = s_{j1} ... s_{jk} in W_J, the column of b is the jet e_m at pt
        (zero at the other points), deformed by s_{jk} first and s_{j1}
        last (_deform), at v's basis vectors.  A v outside the module
        (beyond the window) leaks, and its column is empty.
        """
        if i not in self._s_cols:
            datum, jetalg = self.datum, self.jetalg
            s = aw.simple_reflection(datum, i)
            zero = {pt: LocalJet(jetalg.rank, jetalg.order, {}) for pt in jetalg.points}
            cols, leaked = [], False
            for gkey, pt, m in self.basis:
                v, u_word = _coset(datum, aw.compose(datum, s, self._group_index[gkey]),
                                   self.J, self._lengths)
                col: dict = {}
                if v.key() in self._group_index:
                    f = dict(zero)
                    f[pt] = LocalJet(jetalg.rank, jetalg.order, {m: Q(1)})
                    self._place(col, v.key(), u_word, f)
                else:
                    leaked = True
                cols.append(col)
            self._s_cols[i] = (cols, leaked)
        return self._s_cols[i]

    def s_matrix(self, i: int):
        """Exact matrix of s_i (a fresh copy) and whether a column leaked."""
        if self.side != "degenerate":
            raise ScopeError("s-generators act on the degenerate side")
        cols, leaked = self._s_columns(i)
        return self._dense(cols), leaked

    def xi_matrix(self, j: int):
        """Exact matrix of xi_j (a fresh copy), by the length recursion.

        A basis vector b = (g, pt, m) is g L v, with L the lift of the jet
        (pt, m) and v the cyclic vector.  For g = e the column is the local
        jet action, read off the generic product.  Otherwise let i be the
        first letter of the reduced word of g, g = s_i g', and
        b' = (g', pt, m), again a basis vector: a left prefix of a minimal
        W_J-coset representative is one.  The degenerate cross relation
        p s_i = s_i ^{s_i}p - h theta_i(^{s_i}p) at p = xi_j, with
        ^{s_i}xi_j = sum_k c_k xi_k + c_0 and the constant
        d = theta_i(^{s_i}xi_j), gives

            col_j(b) = S_i (sum_k c_k col_k(b') + c_0 e_{b'}) - h d e_{b'},

        S_i the matrix of s_i.  Every column of every xi_j comes out of one
        pass over the basis in order of group length; nothing leaks, since
        S_i acts there only on vectors shorter than g.
        """
        if self.side != "degenerate":
            raise ScopeError("xi-generators act on the degenerate side")
        if self._xi_cols is None:
            self._xi_cols = self._xi_recursion()
        return self._dense(self._xi_cols[j])

    def _xi_recursion(self):
        """Sparse columns of every xi_j (see xi_matrix)."""
        datum, h, rank = self.datum, self.params.h, self.datum.rank
        cols = [[None] * self.dimension for _ in range(rank)]
        words = {gkey: aw.reduced_word(datum, g)
                 for gkey, g in self._group_index.items()}
        xis = [DahaElement.from_poly(datum, self.params, xi_variable(datum, j))
               for j in range(rank)]
        steps = {}
        for b in sorted(range(self.dimension),
                        key=lambda b: len(words[self.basis[b][0]])):
            gkey, pt, m = self.basis[b]
            word = words[gkey]
            if not word:
                for j, xi in enumerate(xis):
                    cols[j][b] = self._reduce(xi * self._lift(b))[0]
                continue
            i = word[0]
            if i not in steps:
                steps[i] = (self._s_columns(i)[0],
                            [_letter_coefficients(datum, i, j) for j in range(rank)])
            s_cols, coeffs = steps[i]
            g2 = aw.compose(datum, aw.simple_reflection(datum, i), self._group_index[gkey])
            b2 = self.index[(g2.key(), pt, m)]
            for j, (lin, c0, d) in enumerate(coeffs):
                vec = {b2: c0} if c0 else {}
                for k, ck in lin:
                    add_terms(vec, cols[k][b2], ck)
                col: dict = {}
                for r, c in vec.items():
                    if c:
                        add_terms(col, s_cols[r], c)
                if d:
                    col[b2] = col.get(b2, 0) - h * d
                cols[j][b] = col
        return cols

    def _aha_matrix(self, elem):
        """Exact matrix of an AHA element: the finite group part cannot leak."""
        mat, leaked = self.matrix_of(elem)
        if leaked:
            raise InternalCheckError("finite coset representative missing")
        return mat

    def t_matrix(self, i: int):
        if self.side != "aha":
            raise ScopeError("t-generators act on the AHA side")
        return self._aha_matrix(AhaElement.from_t(
            self.datum, self.params, self.datum.w_simple[i]))

    def y_matrix(self, coords):
        if self.side != "aha":
            raise ScopeError("y-generators act on the AHA side")
        return self._aha_matrix(AhaElement.from_y(
            self.datum, self.params, y_monomial(self.datum, coords)))

    def coordinate_matrix(self, j: int):
        """The j-th coordinate generator: xi_j, or y_j on the AHA side."""
        if self.side == "degenerate":
            return self.xi_matrix(j)
        return self.y_matrix(tuple(1 if i == j else 0 for i in range(self.datum.rank)))

    # -- weights -------------------------------------------------------------------

    def group_length(self, bidx: int) -> int:
        """Length of the group part of basis vector bidx."""
        return _length(self.datum, self._group_index[self.basis[bidx][0]], self._lengths)

    def weight_of(self, bidx: int) -> tuple:
        gkey, pt, _ = self.basis[bidx]
        return self._act_point(self._group_index[gkey], pt)


# -- constructors -----------------------------------------------------------------

def standard_module(datum: RootDatum, params, point, window: int = None,
                    n: int = 1, side: str = "degenerate") -> WeightModule:
    """P(mu) (degenerate) or the finite AHA standard module at a torus point.

    The case J = (), points = [point] of parabolic_module.  Degenerate side:
    point is a weight with trivial affine stabilizer and window is the
    group-length cutoff.  AHA side: point is a TorusPoint (or coordinate
    tuple) with trivial finite stabilizer; no window is needed.
    """
    return parabolic_module(datum, params, (), [point], window, n, side)


def _finite_module(side: str, datum: RootDatum, params, J, points, n: int) -> WeightModule:
    """W^J x points x jets over the finite Weyl group, on either side.

    ScopeError unless the points form a W_J-orbit with trivial finite
    stabilizers: weights (degenerate) or torus points (AHA), given as
    TorusPoints or coordinate tuples.
    """
    J = tuple(J)
    if side == "degenerate":
        jetalg = JetAlgebra(XiPolynomial, datum,
                            [tuple(Q(c) for c in p) for p in points], n)
    else:
        jetalg = JetAlgebra(YLaurent, datum, [
            p.values if isinstance(p, aw.TorusPoint) else p for p in points], n)
    finite = [aw.AffineWeylElement((0,) * datum.rank, w) for w in range(datum.w_order)]
    module = WeightModule(side, datum, params, J, jetalg,
                          _minimal_reps(datum, J, finite), None)
    for pt in jetalg.points:
        if any(module._act_point(g, pt) == pt for g in finite[1:]):
            raise ScopeError("non-regular point: nontrivial finite stabilizer")
    for j in J:
        module._letter(j)  # ScopeError unless the points are closed under s_j
    return module


def parabolic_module(datum: RootDatum, params, J, points, window: int = None,
                     n: int = 1, side: str = "degenerate") -> WeightModule:
    """P_J(O') (degenerate) or P-underbar_J(O) (AHA) with jet order n.

    points must be the full W_J-orbit O' (resp. O) of regular points; on
    the degenerate side the module is induce of parabolic_fiber, and the
    affine stabilizers must be trivial too.
    """
    if side == "degenerate":
        return induce(parabolic_fiber(datum, params, J, points, n), window)
    if side == "aha":
        return _finite_module("aha", datum, params, J, points, n)
    raise ScopeError("side must be 'degenerate' or 'aha'")


def parabolic_fiber(datum: RootDatum, params, J, points, n: int = 1) -> WeightModule:
    """Finite fiber of a parabolically induced module: W^J x points x jets.

    The group part is the minimal coset representatives of W_J in the
    finite Weyl group, so no window is needed, and only finite stabilizers
    are out of scope: points must form a W_J-orbit of weights with trivial
    finite stabilizer.  This is the fiber the KZ connection lives on.
    """
    return _finite_module("degenerate", datum, params, J, points, n)


def degenerate_fiber(datum: RootDatum, params, lam) -> WeightModule:
    """The finite-algebra standard module at lam: basis {w}, exact matrices.

    The case J = (), points = [lam], jet order 1 of parabolic_fiber; its
    generalized weights are the w lam.
    """
    return parabolic_fiber(datum, params, (), [lam])


def induce(fiber: WeightModule, window: int) -> WeightModule:
    """The induction of a finite fiber to the group-length window.

    P_J(O') is the induction of its finite fiber parabolic_fiber(J, O', n):
    the same J, jet algebra, points and idempotents, over the minimal
    W_J-coset representatives of the affine Weyl group of length at most
    window instead of those of the finite Weyl group.  The affine group
    part needs the points' affine stabilizers trivial, not only the finite
    ones the fiber checks.
    """
    if fiber.side != "degenerate":
        raise ScopeError("induction takes a fiber on the degenerate side")
    if window is None:
        raise ScopeError("degenerate modules need a length window")
    datum, jetalg = fiber.datum, fiber.jetalg
    jetalg.check_regular()
    return WeightModule("degenerate", datum, fiber.params, fiber.J, jetalg,
                        _minimal_reps(datum, fiber.J, aw.ball(datum, window)), window)


# -- characters -----------------------------------------------------------------

def character(module: WeightModule) -> Character:
    """Weight multiplicities read off the triangular filtration by length."""
    mults: Dict[tuple, int] = {}
    for b in range(module.dimension):
        w = module.weight_of(b)
        mults[w] = mults.get(w, 0) + 1
    return Character(mults, module.window)


def triangularity_check(module: WeightModule, j: int) -> bool:
    """The j-th coordinate generator is triangular with weight diagonal.

    Group part strictly decreases in length below the diagonal block; within
    a block the jet degree only increases and the diagonal entry is the j-th
    coordinate of the basis weight.
    """
    mat = module.coordinate_matrix(j)
    lengths = [module.group_length(b) for b in range(module.dimension)]
    for col in range(module.dimension):
        gc, ptc, mc = module.basis[col]
        for row in range(module.dimension):
            entry = mat[row][col]
            if not entry:
                continue
            gr, ptr, mr = module.basis[row]
            if gr == gc:
                if ptr != ptc or sum(mr) < sum(mc):
                    return False
                if mr == mc and entry != module.weight_of(col)[j]:
                    return False
            elif lengths[row] >= lengths[col]:
                return False
    return True


# -- intertwiners ------------------------------------------------------------------

def intertwiner_matrix(datum: RootDatum, params, w_elem, point, window: int = None,
                       n: int = 1, side: str = "degenerate"):
    """Matrix of Phi_w from the module at w(point) to the module at point.

    The cyclic vector at w(point) maps to phi_w times the cyclic vector at
    point; the map preserves generalized weights, so the result carries
    per-weight square blocks with their exact determinants.
    """
    phi = intertwiner_element(datum, params, w_elem, side)
    # cutoff bounds the group length of the trusted blocks (see below); the
    # AHA group part is finite, so nothing can leak there
    if side == "degenerate":
        mu = tuple(Q(c) for c in point)
        wmu = tuple(aw.act_weight(datum, w_elem, mu))
        cutoff = (window if window is not None else 0) - aw.length(datum, w_elem) - 1
    else:
        mu = point if isinstance(point, aw.TorusPoint) else aw.TorusPoint(datum, point)
        wmu, cutoff = mu.act_w(w_elem), None
    source = standard_module(datum, params, wmu, window, n, side)
    target = standard_module(datum, params, mu, window, n, side)
    mat = [[Q(0)] * source.dimension for _ in range(target.dimension)]
    leaked = False
    for col in range(source.dimension):
        image, lk = target._reduce(source._lift(col) * phi)
        leaked = leaked or lk
        for r, c in image.items():
            mat[r][col] = c

    # Per-weight blocks in the true generalized weight spaces of the commuting
    # coordinate action (the basis grading is only a filtration, so the exact
    # weight vectors mix basis vectors).  Each space has the canonical basis
    # v_b, b in I, of linalg.triangular_weight_basis: v_b is 1 at b and 0 at
    # the rest of I, so an image in the target space has its coordinates at
    # the target's I.  An image that is not that combination of the target
    # v_b has left the target space, and its block is skipped.  Only interior
    # blocks are trusted: near the window edge the truncated spaces are
    # unreliable, and the image of a long source vector may have left the
    # target window.  The matrix (rows / den) and the vectors (num / e) are
    # integer forms when rational, so both tests are integer dot products
    # and cross-multiplication; a cyclotomic side runs the same code in its
    # field, with den = e = 1.
    den, rows = linalg.sparse_form(mat)
    src_spaces = _generalized_weight_spaces(source)
    tgt_spaces = _generalized_weight_spaces(target)
    blocks = {}
    skipped = []
    for wt, (src_idx, src_vecs) in sorted(src_spaces.items(),
                                          key=lambda kv: repr(kv[0])):
        interior = (cutoff is None or
                    all(source.group_length(c) <= cutoff for c in src_idx))
        tgt_idx, tgt_vecs = tgt_spaces.get(wt, ((), ()))
        if not interior or len(tgt_vecs) != len(src_vecs):
            skipped.append(wt)
            continue
        # the target vectors over one denominator: v_k = tgt[k] / big
        big = math.lcm(*(e for _, e in tgt_vecs))
        tgt = [[(r, y * (big // e)) for r, y in enumerate(num) if y]
               for num, e in tgt_vecs]
        coords, scale = [], 1
        for num, e in src_vecs:
            # img = (den e) mat v, and its coordinates are img at tgt_idx
            img = [sum(x * num[c] for c, x in row if num[c]) for row in rows]
            cs = [img[b] for b in tgt_idx]
            if big != 1:
                img = [x * big for x in img]
            for c, t in zip(cs, tgt):
                if c:
                    for r, y in t:
                        img[r] -= c * y
            if any(img):
                skipped.append(wt)
                break
            coords.append(cs)
            scale *= den * e
        else:
            det = linalg.det(linalg.transpose(coords))
            blocks[wt] = {"det": det / scale if scale != 1 else det,
                          "size": len(src_vecs)}
    if not blocks:
        raise InternalCheckError("window too small: no interior weight blocks")
    return {
        "matrix": mat,
        "source": source,
        "target": target,
        "blocks": blocks,
        "skipped": skipped,
        "singular": any(not b["det"] for b in blocks.values()),
        "leaked": leaked,
    }


def _generalized_weight_spaces(module: WeightModule) -> Dict[tuple, tuple]:
    """weight -> (I, V) for each joint generalized weight space of the module.

    The coordinate action (xi_j, or y_j on the AHA side) is triangular with
    the basis weights on its diagonal.  I lists the basis indices of the
    weight and V the canonical vectors v_b, b in I, of
    linalg.triangular_weight_basis, as the pairs (num, e) of
    linalg.weight_basis_forms; keys are weight_of tuples.
    """
    mats = [module.coordinate_matrix(j) for j in range(module.datum.rank)]
    return {module.weight_of(idx[0]): (idx, forms)
            for _, idx, forms in linalg.weight_basis_forms(mats)}


def invertibility(datum: RootDatum, params, word, point, side: str = "degenerate"):
    """Letter-by-letter invertibility test of phi_w along a reduced word.

    For the letter i after prefix v the criterion is that xi evaluated on
    the coroot v^{-1}(alpha_i-vee) at the point avoids +-h (degenerate) or
    that y on that coroot avoids zeta and its inverse (AHA).  Returns the
    first failing letter position as the witness.  ScopeError for a letter
    the side does not have (hecke._letters).
    """
    word = _letters(datum, word, side)
    if side == "degenerate":
        mu = tuple(Q(c) for c in point)
        excluded = (params.h, -params.h)

        def value(bh):
            return aw.affine_coroot_eval(datum, bh, mu)
    else:
        ell = point if isinstance(point, aw.TorusPoint) else aw.TorusPoint(datum, point)
        excluded = (params.zeta, 1 / params.zeta)

        def value(bh):
            return ell.y_value(coweight_coords(datum, bh[0]))
    v = aw.identity(datum)
    values = []
    for pos, i in enumerate(word):
        if i == aw.HEART:
            base = (tuple(Q(c) for c in datum.theta_vee), Q(1))
        else:
            base = (tuple(Q(c) for c in datum.coroot_of(datum.simple_roots[i])), Q(0))
        val = value(aw.act_affine_coroot(datum, aw.inverse(datum, v), base))
        values.append(val)
        if val in excluded:
            return {"invertible": False, "witness": pos, "values": values}
        v = aw.compose(datum, v, aw.simple_reflection(datum, i))
    return {"invertible": True, "witness": None, "values": values}


# -- endomorphism algebras -----------------------------------------------------------

def _assert_exact(mat):
    for row in mat:
        for x in row:
            if not isinstance(x, (int, Q, Cyclotomic)):
                raise ScopeError("endomorphism algebras require exact module matrices")


def endomorphism_algebra(modules: List[WeightModule]):
    """Exact commutant of the joint action on a direct sum of modules.

    Returns the commutant dimension, its basis, and the Wedderburn simple
    count of the endomorphism algebra.  The generators are the group ones
    (t_i, or s_i with s_heart) and the coordinate ones (coordinate_matrix);
    the y_j^{-1} are left out, since a matrix commutes with y_j exactly when
    it commutes with y_j^{-1}.  The generators act block-diagonally, so XG =
    GX splits into G_a X_ab = X_ab G_b, one system per pair of summands
    (linalg.intertwiner_space); each solution X_ab is placed in its block.
    The commutant is a unital algebra (it contains the identity), so this
    basis goes to linalg.wedderburn_simple_count as it is, with no closure.
    """
    rank = modules[0].datum.rank
    gens = []  # the generators' blocks, per summand
    for m in modules:
        if modules[0].side == "aha":
            group = [m.t_matrix(i) for i in range(rank)]
        else:
            group = [m.s_matrix(i)[0] for i in (*range(rank), aw.HEART)]
        gens.append(group + [m.coordinate_matrix(j) for j in range(rank)])
        for g in gens[-1]:
            _assert_exact(g)
    offsets = list(accumulate((m.dimension for m in modules), initial=0))
    n = offsets[-1]
    comm = []
    for ga, oa in zip(gens, offsets):
        for gb, ob in zip(gens, offsets):
            for x in linalg.intertwiner_space(ga, gb):
                mat = linalg.zeros(n, n)
                for r, row in enumerate(x):
                    mat[oa + r][ob:ob + len(row)] = row
                comm.append(mat)
    return {"dimension": len(comm), "basis": comm,
            **linalg.wedderburn_simple_count(comm)}


# -- composition series at the rho/n family -------------------------------------------

def composition_check(datum: RootDatum, lam0, h0: Q, window: int,
                      weight_bound: Q, ws=None):
    """ch P(w lam0) equals the sum of the simple characters, windowed.

    The standard character is the full orbit with multiplicity one (regular
    scope); the simple characters come from the affine domain census.  Both
    sides are compared on weights mu with |(mu : theta-vee)| <= weight_bound.
    """
    from .arrangements import domain_census, simple_character
    lam0 = tuple(Q(c) for c in lam0)
    census = domain_census(datum, lam0, h0)
    tv = tuple(Q(c) for c in datum.theta_vee)

    def in_window(wt):
        return abs(datum.pairing(wt, tv)) <= weight_bound

    orb = aw.orbit(datum, lam0, window)
    std = Character({wt: 1 for wt in orb if in_window(wt)}, window)
    total: Dict[tuple, int] = {}
    labels = sorted({d["label"] if d["label"] is not None else d["id"]
                     for d in census["domains"]}, key=repr)
    for lb in labels:
        for wt in simple_character(datum, lam0, h0, lb, window, census):
            if in_window(tuple(wt)):
                total[tuple(wt)] = total.get(tuple(wt), 0) + 1
    simple_sum = Character(total, window)
    if ws is None:
        ws = [aw.identity(datum)]
    results = []
    for w in ws:
        wl = tuple(aw.act_weight(datum, w, lam0))
        orb_w = aw.orbit(datum, wl, window)
        std_w = Character({wt: 1 for wt in orb_w if in_window(wt)}, window)
        results.append({"w": w.key(), "equal": std_w == simple_sum})
    return {
        "standard": std,
        "simple_sum": simple_sum,
        "per_w": results,
        "all_equal": all(r["equal"] for r in results),
    }

