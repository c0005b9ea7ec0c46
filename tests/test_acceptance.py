"""Acceptance suite: one pass/fail line per criterion.

Each test prints "CRITERION k: PASS/FAIL <summary>" before asserting, so a
plain pytest -v -s run yields one status line per criterion.  Exact criteria
use zero tolerance; numeric ones pin 1e-8 at the stated working precision.
"""
import random
from fractions import Fraction as Q

import mpmath
import pytest

import dahakz.affine as aw
import dahakz.arrangements as arr
import dahakz.kz as kz
import dahakz.linalg as la
import dahakz.modules as mods
from dahakz.affine import HEART, HeckeParams, TorusPoint
from dahakz.hecke import (AhaElement, DahaElement, aha_mul, daha_mul,
                          dunkl_apply, polynomial_rep_check)
from dahakz.rings import XiPolynomial, x_monomial, xi_variable, y_monomial
from dahakz.rootdata import type_a

D1 = type_a(1)
D2 = type_a(2)
P1 = HeckeParams.degenerate(Q(1, 2))
P2 = HeckeParams.degenerate(Q(1, 3))
A2 = HeckeParams.from_exponent(Q(1, 3))
TOL = "1e-8"


def report(k: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail})")


def _char_set(label, window, census):
    weights = arr.simple_character(D1, (Q(1, 4),), Q(1, 2), label, window,
                                   census)
    return {int(4 * Q(w[0])) for w in weights}


def test_criterion_1_character_suite():
    # A1, lam0 = rho/2, h0 = 1/2, window |j| <= 19 on weights j/4
    window = 22
    census = arr.domain_census(D1, (Q(1, 4),), Q(1, 2))
    ok = len(census["domains"]) == 3
    sets = {}
    for name, word in (("e", []), ("heart", [HEART]), ("s1", [0])):
        dom = arr.domain_of_alcove(D1, census,
                                   aw.element_from_word(D1, word))
        label = dom["label"] if dom["label"] is not None else dom["id"]
        sets[name] = {j for j in _char_set(label, window, census)
                      if abs(j) <= 19}
    expect_heart = {j for j in (3, 7, 11, 15, 19) for j in (j, -j)}
    expect_s1 = {-1} | {j for j in (5, 9, 13, 17) for j in (j, -j)}
    ok = ok and sets["e"] == {1}
    ok = ok and sets["heart"] == expect_heart
    ok = ok and sets["s1"] == expect_s1
    all_odd = {j for j in range(-19, 20) if j % 2}
    ok = ok and (sets["e"] | sets["heart"] | sets["s1"]) == all_odd
    ok = ok and not (sets["e"] & sets["heart"]) \
        and not (sets["e"] & sets["s1"]) and not (sets["heart"] & sets["s1"])
    report(1, ok, "three simple characters partition the odd weights, exact")
    assert ok


def test_criterion_2_domain_census():
    c1 = arr.domain_census(D1, (Q(1, 4),), Q(1, 2))
    lam2 = tuple(c / 3 for c in D2.rho)
    c2 = arr.domain_census(D2, lam2, Q(1, 3))
    n1, n2 = len(c1["domains"]), len(c2["domains"])
    b1 = sum(d["bounded"] for d in c1["domains"])
    b2 = sum(d["bounded"] for d in c2["domains"])
    ok = (n1, b1, n2, b2) == (3, 1, 7, 1)
    report(2, ok, f"A1: {n1} domains ({b1} bounded), A2: {n2} ({b2} bounded)")
    assert ok


def _random_daha(rng):
    letters = [0, 1, HEART]
    word = [rng.choice(letters) for _ in range(rng.randrange(0, 3))]
    elem = DahaElement.from_group(D2, P2, aw.element_from_word(D2, word))
    poly = XiPolynomial.constant(Q(rng.randrange(-2, 3)), 2)
    for j in range(2):
        if rng.random() < 0.5:
            poly = poly * xi_variable(D2, j)
    if poly:
        elem = elem * DahaElement.from_poly(D2, P2, poly)
    return elem if elem.terms else DahaElement.one(D2, P2)


def _random_aha(rng):
    w = rng.randrange(D2.w_order)
    coords = tuple(rng.randrange(-1, 2) for _ in range(2))
    return aha_mul(AhaElement.from_t(D2, A2, w),
                   AhaElement.from_y(D2, A2, y_monomial(D2, coords)))


def test_criterion_3_algebra_relations():
    rng = random.Random(20260823)
    products = 0
    ok = True
    while products < 200:
        a, b, c = (_random_daha(rng) for _ in range(3))
        ok = ok and daha_mul(daha_mul(a, b), c) == daha_mul(a, daha_mul(b, c))
        x, y, z = (_random_aha(rng) for _ in range(3))
        ok = ok and aha_mul(aha_mul(x, y), z) == aha_mul(x, aha_mul(y, z))
        products += 8

    def dprod(word):
        out = DahaElement.one(D2, P2)
        for i in word:
            out = daha_mul(out, DahaElement.from_group(
                D2, P2, aw.simple_reflection(D2, i)))
        return out

    def aprod(word):
        out = AhaElement.one(D2, A2)
        for i in word:
            out = aha_mul(out, AhaElement.from_t(D2, A2, D2.w_simple[i]))
        return out

    # PBW uniqueness under alternative reduced words
    for w1, w2 in (([0, 1, 0], [1, 0, 1]), ([0, HEART, 0], [HEART, 0, HEART]),
                   ([1, HEART, 1], [HEART, 1, HEART])):
        ok = ok and dprod(w1) == dprod(w2)
    ok = ok and aprod([0, 1, 0]) == aprod([1, 0, 1])
    # defining relations in the Dunkl polynomial representation to degree 5
    samples = [_random_daha(rng) for _ in range(12)]
    rep = polynomial_rep_check(D2, P2, samples, degree=5)
    ok = ok and rep["failures"] == 0
    # commuting Dunkl operators on all monomials of degree <= 5
    for a in range(-2, 3):
        for b in range(-2, 3):
            if abs(a) + abs(b) > 5:
                continue
            f = x_monomial(D2, (a, b))
            ok = ok and (dunkl_apply(D2, P2, 0, dunkl_apply(D2, P2, 1, f))
                         == dunkl_apply(D2, P2, 1, dunkl_apply(D2, P2, 0, f)))
    report(3, ok, "200 exact products, PBW words, Dunkl relations to deg 5")
    assert ok


def test_criterion_4_intertwiner_criterion():
    s1 = aw.simple_reflection(D1, 0)
    # boundary: (lam0 : alpha-vee) = h0 at lam0 = (1/4) with h0 = 1/2
    wall = mods.intertwiner_matrix(D1, P1, s1, (Q(1, 4),), window=12)
    off = mods.intertwiner_matrix(D1, P1, s1, (Q(3, 4),), window=12)
    ok = wall["singular"] and not off["singular"]
    # exact inversion of every interior block off the wall
    for block in off["blocks"].values():
        ok = ok and block["det"] != 0
    # gallery inside one affine domain: a length-2 walk stays invertible
    # (at mu = 7/4 both letter values 9/2, -3/2 avoid +-h)
    x_theta = aw.element_from_word(D1, [HEART, 0])
    gallery = mods.intertwiner_matrix(D1, P1, x_theta, (Q(7, 4),), window=12)
    ok = ok and not gallery["singular"]
    for block in gallery["blocks"].values():
        ok = ok and block["det"] != 0
    letter = mods.invertibility(D1, P1, [HEART, 0], (Q(7, 4),))
    ok = ok and letter["invertible"]
    report(4, ok, "singular exactly on the wall; gallery blocks invert, "
                  "window 12")
    assert ok


def test_criterion_5_gamma_oracle():
    # gamma = (mu0 : alpha-vee) = 2 mu0 runs over ten off-pole values
    mus = [Q(-3, 4), Q(-5, 4), Q(3, 8), Q(-7, 4), Q(1, 8),
           Q(-9, 8), Q(5, 8), Q(-1, 8), Q(7, 8), Q(-3, 8)]
    worst = mpmath.mpf(0)
    ok = True
    special = None
    with mpmath.workprec(256):
        for mu in mus:
            out = kz.rank_one_check(D1, P1, (mu,), prec=256, order=20,
                                    rtol=1e-10)
            worst = max(worst, out["residual_a"], out["residual_b"])
            ok = ok and out["residual_a"] < mpmath.mpf(TOL) \
                and out["residual_b"] < mpmath.mpf(TOL)
            if mu == Q(-3, 4):
                special = abs(out["oracle_b"] - 3 * mpmath.pi / 8)
        ok = ok and special < mpmath.mpf("1e-16")
    report(5, ok, f"10 points at 256-bit, worst residual {mpmath.nstr(worst, 3)}, "
                  "b(3/2) = 3 pi / 8")
    assert ok


def _deep_monodromy_a1():
    fiber = mods.degenerate_fiber(D1, P1, (Q(-3, 4),))
    prob = kz.trig_problem(D1, P1, fiber, prec=128)
    return kz.monodromy(prob, order=16, rtol=1e-9)


def _deep_monodromy_a2():
    mu0 = (Q(-4, 5), Q(-6, 7))
    fiber = mods.degenerate_fiber(D2, P2, mu0)
    prob = kz.trig_problem(D2, P2, fiber, prec=128)
    return mu0, kz.monodromy(prob, order=16, rtol=1e-9)


def test_criterion_6_monodromy_residuals():
    ok = True
    worst = mpmath.mpf(0)
    rep1 = _deep_monodromy_a1()
    with mpmath.workprec(128):
        for v in rep1["residuals"].values():
            worst = max(worst, v)
        expected = [TorusPoint.from_exponent(
            D1, tuple(D1.w_act_weight(w, (Q(-3, 4),))))
            for w in range(D1.w_order)]
        ok = ok and kz.y_spectrum_check(rep1, expected)["ok"]
    mu0, rep2 = _deep_monodromy_a2()
    with mpmath.workprec(128):
        for v in rep2["residuals"].values():
            worst = max(worst, v)
        expected = [TorusPoint.from_exponent(
            D2, tuple(D2.w_act_weight(w, mu0))) for w in range(D2.w_order)]
        ok = ok and kz.y_spectrum_check(rep2, expected)["ok"]
        ok = ok and worst < mpmath.mpf(TOL)
    report(6, ok, f"A1+A2 deep fibers, worst relation residual "
                  f"{mpmath.nstr(worst, 3)}, y-spectra match")
    assert ok


def test_criterion_7_identification():
    # A1 Remark case: the heart-translate identifies as ell0, not ell0^{-1}
    out = kz.theorem41_check(D1, P1, (Q(1, 4),), Q(1, 2), [HEART],
                             prec=128, order=16, rtol=1e-9)
    ell0 = TorusPoint.from_exponent(D1, (Q(1, 4),))
    ok = out["identified_w"] == 0
    ok = ok and out["identified_point"] == ell0.values
    ok = ok and all(m["candidate"] == 0 for m in out["identify"]["matches"])
    ok = ok and bool(out["prediction_match"])
    with mpmath.workprec(128):
        ok = ok and out["distance"] < mpmath.mpf(TOL)
    # A2 smoke at one deep w-hat
    out2 = kz.theorem41_check(D2, P2, (Q(1, 5), Q(1, 7)), Q(1, 3),
                              [0, 1, 0, HEART], prec=128, order=16,
                              rtol=1e-9)
    ok = ok and out2["deep"] and bool(out2["prediction_match"])
    with mpmath.workprec(128):
        ok = ok and out2["distance"] < mpmath.mpf(TOL)
    report(7, ok, "A1: P(heart lam0) -> ell0 (not its inverse); "
                  "A2 deep smoke matches the dagger prediction")
    assert ok


def test_criterion_8_parabolic_identification():
    ok = True
    mu0 = (Q(1, 4),)
    dims = {}
    for n in (1, 2):
        out = kz.parabolic_identify(D1, P1, (0,), mu0, n=n, prec=128,
                                    order=16, rtol=1e-9)
        dims[n] = out["dimension"]
        ok = ok and out["ok"] and out["cyclic"]
        with mpmath.workprec(128):
            ok = ok and out["t_cyclic_residual"] < mpmath.mpf(TOL)
            ok = ok and out["jet_residual"] < mpmath.mpf(TOL)
        # the point set is the full W-orbit of ell0's exponent
        orbit = sorted({tuple(D1.w_act_weight(w, mu0))
                        for w in range(D1.w_order)})
        ok = ok and out["points"] == orbit
        if n == 1:
            ok = ok and out["spectrum"]["ok"]
    ok = ok and dims == {1: 2, 2: 4}
    # M(P_I) fixture: the induced simple matches the parabolic AHA module
    ell0 = TorusPoint.from_exponent(D1, mu0)
    target = mods.parabolic_module(D1, HeckeParams.from_exponent(Q(1, 2)),
                                   (0,), [ell0, ell0.inverse_point()],
                                   side="aha")
    ok = ok and target.dimension == dims[1]
    report(8, ok, "J = I, n in {1, 2}: cyclic zeta-eigenvector and jet "
                  "relations hold; fixture dimensions match")
    assert ok


def test_criterion_9_schur_example():
    from dahakz.cli import schur_example
    params = HeckeParams.from_exponent(Q(1, 2))
    out = schur_example(D1, params, n=2)
    ok = out["simple_count"] == 3
    report(9, ok, f"endomorphism algebra dim {out['algebra_dim']}, "
                  f"radical {out['radical_dim']}, "
                  f"{out['simple_count']} simples")
    assert ok


def test_criterion_10_frobenius_suite():
    ok = True
    with mpmath.workprec(256):
        # scalar e^z case, exact to series order
        sol = kz.frobenius_series(kz.scalar_problem(Q(1, 4), prec=256), 12)
        for k in range(1, 13):
            expect = mpmath.mpf(1) / mpmath.factorial(k)
            ok = ok and abs(sol.coeffs[(k,)][0, 0] - expect) \
                < mpmath.mpf("1e-60")
        # constant-matrix case: H = Id
        a0 = [mpmath.matrix([[mpmath.mpf(1) / 3, mpmath.mpf(1)],
                             [mpmath.mpf(0), mpmath.mpf(1) / 7]])]
        csol = kz.frobenius_series(kz.ConnectionProblem(a0, prec=256), 6)
        for gamma, mat in csol.coeffs.items():
            if any(gamma):
                ok = ok and kz._maxnorm(mat) == 0
        # Sylvester consistency on an A1 fiber at order 8
        fiber = mods.degenerate_fiber(D1, P1, (Q(-3, 4),))
        prob = kz.trig_problem(D1, P1, fiber, prec=256)
        fsol = kz.frobenius_series(prob, 8)
        residual = fsol.residual
        ok = ok and residual < mpmath.mpf("1e-20")
    report(10, ok, f"scalar/constant exact; fiber Sylvester residual "
                   f"{mpmath.nstr(residual, 3)} < 1e-20")
    assert ok
