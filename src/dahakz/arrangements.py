"""Alcoves, critical arrangements, cells, domains, and the dagger injection.

Cells of a finite arrangement are represented by sign vectors over a
deduplicated wall list, with exact Fourier-Motzkin feasibility and rational
interior witness points.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import List, Optional, Sequence, Tuple

from . import affine as aw
from .errors import InternalCheckError, ScopeError
from .rootdata import RootDatum

__all__ = [
    "critical_arrangement", "walls_of", "sign_vector", "enumerate_cells",
    "domain_census", "family_data", "cell_label", "simple_character",
    "chamber_arrangement", "chamber_domains", "dagger", "domain_of_alcove",
]


# -- Fourier-Motzkin ---------------------------------------------------------
# A constraint is (coeffs, const, strict): sum coeffs[i] x_i + const >= 0 (> 0 if strict).

def _fm_eliminate(cons: List[tuple], var: int) -> List[tuple]:
    lows, ups, keep = [], [], []
    for a, c, s in cons:
        if a[var] > 0:
            lows.append((a, c, s))
        elif a[var] < 0:
            ups.append((a, c, s))
        else:
            keep.append((a, c, s))
    for al, cl, sl in lows:
        for au, cu, su in ups:
            f_l, f_u = -au[var], al[var]
            a = tuple(f_l * x + f_u * y for x, y in zip(al, au))
            keep.append((a, f_l * cl + f_u * cu, sl or su))
    return keep


def fm_feasible(cons: List[tuple], nvars: int) -> bool:
    work = cons
    for var in range(nvars - 1, -1, -1):
        work = _fm_eliminate(work, var)
    for a, c, s in work:
        if any(a):
            continue
        if s and not c > 0:
            return False
        if not s and not c >= 0:
            return False
    return True


def fm_witness(cons: List[tuple], nvars: int) -> Optional[Tuple[Q, ...]]:
    """An exact interior point of a strict system, or None if infeasible."""
    systems = [cons]
    for var in range(nvars - 1, -1, -1):
        systems.append(_fm_eliminate(systems[-1], var))
    for a, c, s in systems[-1]:
        if not any(a):
            if (s and not c > 0) or (not s and not c >= 0):
                return None
    point: List[Q] = []
    for var in range(nvars):
        sys_here = systems[nvars - 1 - var]
        lo, hi = None, None
        for a, c, s in sys_here:
            if not a[var] or any(a[var + 1:]):
                continue
            val = Q(c)
            for i in range(var):
                val += a[i] * point[i]
            bound = -val / a[var]
            if a[var] > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
        if lo is None and hi is None:
            point.append(Q(0))
        elif lo is None:
            point.append(hi - 1)
        elif hi is None:
            point.append(lo + 1)
        else:
            if not lo < hi:
                return None
            point.append((lo + hi) / 2)
    return tuple(point)


# -- arrangements -------------------------------------------------------------

def critical_arrangement(datum: RootDatum, lam, h: Q) -> List[tuple]:
    """H_lambda = {(beta-vee, r) : (lambda:beta-vee) + r = +-h}, r integer."""
    lam = tuple(Q(c) for c in lam)
    h = Q(h)
    out = []
    for beta in datum.roots:
        bvee = datum.coroot_of(beta)
        v = datum.pairing(lam, tuple(Q(c) for c in bvee))
        for target in (h, -h):
            r = target - v
            if r.denominator == 1:
                out.append((bvee, int(r)))
    return sorted(out)


def walls_of(arrangement: Sequence[tuple]) -> List[tuple]:
    """Deduplicate affine coroots into walls: (beta-vee, r) ~ (-beta-vee, -r)."""
    seen = set()
    walls = []
    for bvee, r in arrangement:
        key = (bvee, Q(r))
        neg = (tuple(-c for c in bvee), -Q(r))
        if key in seen or neg in seen:
            continue
        # normalize so that the first nonzero coordinate is positive
        if next(c for c in bvee if c) < 0:
            key = neg
        seen.add(key)
        walls.append(key)
    return sorted(walls, key=lambda w: (w[0], w[1]))


def _wall_constraint(datum: RootDatum, wall, sign: int) -> tuple:
    bvee, r = wall
    coeffs = tuple(
        datum.pairing(tuple(Q(1) if i == j else Q(0) for i in range(datum.rank)),
                      tuple(Q(c) for c in bvee))
        for j in range(datum.rank)
    )
    if sign > 0:
        return (coeffs, Q(r), True)
    return (tuple(-c for c in coeffs), -Q(r), True)


def sign_vector(datum: RootDatum, walls, point) -> Tuple[int, ...]:
    point = tuple(Q(c) for c in point)
    out = []
    for bvee, r in walls:
        v = datum.pairing(point, tuple(Q(c) for c in bvee)) + Q(r)
        if v == 0:
            raise ScopeError("point lies on a wall")
        out.append(1 if v > 0 else -1)
    return tuple(out)


@dataclass(frozen=True)
class Cell:
    signs: Tuple[int, ...]
    sample: Tuple[Q, ...]
    bounded: bool


def enumerate_cells(datum: RootDatum, walls) -> List[Cell]:
    """All realizable sign vectors with witnesses and boundedness flags."""
    n = datum.rank
    cells = []
    for mask in range(1 << len(walls)):
        signs = tuple(1 if (mask >> i) & 1 else -1 for i in range(len(walls)))
        cons = [_wall_constraint(datum, w, s) for w, s in zip(walls, signs)]
        pt = fm_witness(cons, n)
        if pt is None:
            continue
        cells.append(Cell(signs, pt, _is_bounded(datum, walls, signs)))
    return cells


def _is_bounded(datum: RootDatum, walls, signs) -> bool:
    """Bounded iff the recession cone of the cell is {0}."""
    n = datum.rank
    base = []
    for (bvee, _r), s in zip(walls, signs):
        coeffs = tuple(
            datum.pairing(tuple(Q(1) if i == j else Q(0) for i in range(n)),
                          tuple(Q(c) for c in bvee))
            for j in range(n)
        )
        if s < 0:
            coeffs = tuple(-c for c in coeffs)
        base.append((coeffs, Q(0), False))
    for i in range(n):
        for sgn in (1, -1):
            extra = tuple(Q(sgn) if j == i else Q(0) for j in range(n))
            if fm_feasible(base + [(extra, Q(-1), False)], n):
                return False
    return True


# -- the section-6.1 family ----------------------------------------------------

def family_data(datum: RootDatum, lam0, h0: Q):
    """Detect lambda0 = rho/n, h0 = k/n with gcd(k, n) = 1; return (k, a, b, I_k)."""
    n = datum.coxeter_number
    lam0 = tuple(Q(c) for c in lam0)
    h0 = Q(h0)
    if lam0 != tuple(c / n for c in datum.rho):
        return None
    if h0.denominator != n or gcd(h0.numerator, n) != 1:
        return None
    k = h0.numerator
    a, b = divmod(k, n)
    if b == 0:
        return None
    members = []
    for bvee in datum.coroot_level_set(-b):
        members.append(("low", bvee, Q(a)))       # constraint (mu : beta-vee) < a
    for gvee in datum.coroot_level_set(n - b):
        members.append(("high", gvee, Q(1 + a)))  # constraint (mu : gamma-vee) < 1 + a
    return {"k": k, "a": a, "b": b, "members": members}


def cell_label(datum: RootDatum, fam, point) -> frozenset:
    """J(point) = set of family members whose defining inequality holds strictly."""
    point = tuple(Q(c) for c in point)
    label = []
    for kind, bvee, bound in fam["members"]:
        if datum.pairing(point, tuple(Q(c) for c in bvee)) < bound:
            label.append((kind, bvee))
    return frozenset(label)


def domain_census(datum: RootDatum, lam0, h0: Q):
    """Count affine domains; attach D_J labels when the rho/n family is detected."""
    arr = critical_arrangement(datum, lam0, h0)
    walls = walls_of(arr)
    cells = enumerate_cells(datum, walls)
    stab, certified = aw.stabilizer(datum, lam0, search_bound=0)
    if len(stab) != 1:
        raise ScopeError("domain census implemented for trivial stabilizer")
    fam = family_data(datum, lam0, h0)
    out = []
    for idx, cell in enumerate(cells):
        entry = {
            "id": idx,
            "signs": cell.signs,
            "sample": cell.sample,
            "bounded": cell.bounded,
            "label": None,
        }
        if fam is not None:
            lab = cell_label(datum, fam, cell.sample)
            if not lab:
                raise InternalCheckError("empty J-label on a realizable cell")
            entry["label"] = lab
        out.append(entry)
    if fam is not None:
        labels = [e["label"] for e in out]
        if len(set(labels)) != len(labels):
            raise InternalCheckError("J-labels do not separate cells")
    return {"arrangement": arr, "walls": walls, "domains": out, "family": fam}


def domain_of_alcove(datum: RootDatum, census, g: aw.AffineWeylElement):
    """The domain containing the alcove A_g."""
    sample = aw.alcove_sample(datum, g)
    sv = sign_vector(datum, census["walls"], sample)
    for e in census["domains"]:
        if e["signs"] == sv:
            return e
    raise InternalCheckError("alcove sample not in any enumerated cell")


def simple_character(datum: RootDatum, lam0, h0: Q, label, window: int,
                     census=None) -> List[tuple]:
    """Multiset {w lambda0 : A_w inside D_J, length(w) <= window}."""
    if census is None:
        census = domain_census(datum, lam0, h0)
    lam0 = tuple(Q(c) for c in lam0)
    out = []
    for g in aw.ball(datum, window):
        dom = domain_of_alcove(datum, census, g)
        key = dom["label"] if dom["label"] is not None else dom["id"]
        if key == label:
            out.append(aw.act_weight(datum, g, lam0))
    return sorted(out)


# -- chamber (AHA) side ---------------------------------------------------------

def chamber_arrangement(datum: RootDatum, ell: aw.TorusPoint, zeta) -> List[tuple]:
    """H-underbar_ell = {beta-vee : y_{beta-vee}(ell) = zeta or zeta^{-1}}."""
    from .rings import coweight_coords
    zeta_inv = 1 / zeta
    out = []
    for beta in datum.roots:
        bvee = datum.coroot_of(beta)
        coords = coweight_coords(datum, tuple(Q(c) for c in bvee))
        v = ell.y_value(coords)
        if v == zeta or v == zeta_inv:
            out.append(bvee)
    return sorted(out)


def chamber_domains(datum: RootDatum, ell: aw.TorusPoint, zeta):
    """Cells of the linear arrangement and their W_ell-orbits (the domains)."""
    coroots = chamber_arrangement(datum, ell, zeta)
    walls = walls_of([(bvee, 0) for bvee in coroots])
    cells = enumerate_cells(datum, walls)
    w_ell = [w for w in range(datum.w_order) if ell.act_w(w) == ell]
    # group cells into W_ell-orbits
    sv_to_idx = {c.signs: i for i, c in enumerate(cells)}
    assigned = {}
    domains = []
    for i, c in enumerate(cells):
        if i in assigned:
            continue
        orbit_ids = set()
        for w in w_ell:
            q = datum.w_act_weight(w, c.sample)
            orbit_ids.add(sv_to_idx[sign_vector(datum, walls, q)])
        dom_id = len(domains)
        for j in orbit_ids:
            assigned[j] = dom_id
        domains.append({
            "id": dom_id,
            "cells": sorted(orbit_ids),
            "sample": c.sample,
            "signs": c.signs,
        })
    return {"coroots": coroots, "walls": walls, "cells": cells,
            "domains": domains, "w_ell": w_ell}


def dagger(datum: RootDatum, chamber, census):
    """The injection from chamber domains to affine domains (deep-sample map).

    A chamber domain goes to the affine cell holding t q for every large t,
    q its sample.  At the wall (beta-vee, r) the sign of (t q : beta-vee) + r
    is, for large t, the sign of (q : beta-vee), or that of r when
    (q : beta-vee) = 0.  Both vanish only if q lies on a linear wall, which
    cannot happen when the chamber and the census come from the same
    (lambda0, h0).  Requires the affine stabilizer of lambda0 to match
    W_ell, which holds in the regular scope used here (both trivial).
    """
    mapping = {}
    for dom in chamber["domains"]:
        signs = []
        for bvee, r in census["walls"]:
            v = datum.pairing(dom["sample"], tuple(Q(c) for c in bvee)) or Q(r)
            if not v:
                raise InternalCheckError("deep sample stays on a wall")
            signs.append(1 if v > 0 else -1)
        signs = tuple(signs)
        target = next((e for e in census["domains"] if e["signs"] == signs), None)
        if target is None:
            raise InternalCheckError("deep sample not in any affine cell")
        mapping[dom["id"]] = target
    targets = [e["id"] for e in mapping.values()]
    if len(set(targets)) != len(targets):
        raise InternalCheckError("dagger failed to be injective")
    return mapping
