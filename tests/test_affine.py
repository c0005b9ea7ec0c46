"""Affine Weyl group elements, words, orbits, stabilizers, torus points."""
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dahakz.affine as aw
from dahakz.affine import HEART, HeckeParams, TorusPoint
from dahakz.errors import ScopeError
from dahakz.rootdata import type_a

D1 = type_a(1)
D2 = type_a(2)


def test_simple_reflections_are_involutions():
    for d in (D1, D2):
        for i in list(range(d.rank)) + [HEART]:
            s = aw.simple_reflection(d, i)
            assert aw.compose(d, s, s).key() == aw.identity(d).key()


def test_translation_action():
    t = aw.translation(D2, (Q(1), Q(-2)))
    lam = (Q(1, 5), Q(1, 7))
    assert aw.act_weight(D2, t, lam) == (Q(6, 5), Q(-13, 7))


def test_translation_rejects_non_integral():
    with pytest.raises(ScopeError):
        aw.translation(D2, (Q(1, 2), 0))
    assert aw.translation(D2, (Q(3), -1)).trans == (3, -1)


def test_translations_are_ints():
    elems = list(aw.ball(D2, 3))
    elems += aw.stabilizer(D2, (Q(0), Q(0)))[0]
    elems += aw.stabilizer(D2, (Q(1, 3), Q(2, 3)))[0]
    elems += [aw.compose(D2, g, h) for g in elems[:8] for h in elems[:8]]
    elems += [aw.inverse(D2, g) for g in elems]
    assert all(type(c) is int for g in elems for c in g.trans)


def test_heart_is_x_theta_s_theta():
    s = aw.simple_reflection(D2, HEART)
    lam = (Q(1, 5), Q(1, 7))
    refl = D2.reflect_weight(lam, tuple(D2.theta))
    expected = tuple(r + t for r, t in zip(refl, D2.theta))
    assert aw.act_weight(D2, s, lam) == expected


def test_length_matches_reduced_word():
    for g in aw.ball(D2, 4):
        word = aw.reduced_word(D2, g)
        assert len(word) == aw.length(D2, g)
        assert aw.element_from_word(D2, word).key() == g.key()


def test_inverse_and_compose():
    for g in aw.ball(D2, 3):
        gi = aw.inverse(D2, g)
        assert aw.compose(D2, g, gi).key() == aw.identity(D2).key()
        assert aw.length(D2, gi) == aw.length(D2, g)


def test_ball_sizes_grow():
    sizes = [len(aw.ball(D2, r)) for r in range(4)]
    assert sizes[0] == 1
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_orbit_regular_point_free():
    orb = aw.orbit(D1, (Q(1, 4),), 5)
    # x_mu w acts freely on a point with trivial affine stabilizer
    assert len(orb) == len({g.key() for g in orb.values()})
    assert (Q(1, 4),) in orb


def test_stabilizer_trivial_vs_nontrivial():
    stab, certified = aw.stabilizer(D1, (Q(1, 4),))
    assert len(stab) == 1 and certified
    stab0, _ = aw.stabilizer(D1, (Q(0),))
    assert len(stab0) == 2  # s_alpha fixes 0


def test_lemma13_predicate_generic():
    w_lam, w_exp, hat, ok = aw.lemma13_predicate(D2, (Q(1, 5), Q(1, 7)))
    assert w_lam == [0] and ok


def test_torus_point_action_and_inverse():
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    flip = ell.act_w(D1.w_simple[0])
    assert flip == ell.inverse_point()
    assert ell != flip
    assert ell.act_w(D1.w_identity) == ell


def test_torus_point_y_value_is_multiplicative():
    ell = TorusPoint.from_exponent(D2, (Q(1, 3), Q(1, 4)))
    v = ell.y_value((1, 1))
    assert v == ell.values[0] * ell.values[1]


def test_hecke_params_from_exponent():
    p = HeckeParams.from_exponent(Q(1, 2))
    assert p.zeta == -1
    assert p.zeta_half ** 2 == p.zeta
    assert p.h == Q(1, 2)


def test_parameter_bridge_rational_fails_with_witness():
    zeta, tau, ell, ok, witness = aw.parameter_bridge(
        D1, Q(1, 2), (Q(1, 4),), Q(1))
    assert ok is False
    assert witness is not None
    assert zeta == -1


def test_integral_coroots_at_family_point():
    # lam0 = rho/2, h0 = 1/2: every coroot pairing lies in Z + Z h0
    out = aw.integral_coroots(D1, (Q(1, 4),), Q(1, 2))
    assert out == [(-1,), (1,)]


@given(st.lists(st.sampled_from([0, 1, HEART]), max_size=6))
@settings(max_examples=60, deadline=None)
def test_element_from_word_composes(word):
    g = aw.element_from_word(D2, word)
    h = aw.identity(D2)
    for i in word:
        h = aw.compose(D2, h, aw.simple_reflection(D2, i))
    assert g.key() == h.key()
    assert aw.length(D2, g) <= len(word)


def test_memoized_word_equals_a_fresh_walk():
    order = (0, 1, HEART)
    for g in aw.ball(D2, 4):
        first = aw.reduced_word(D2, g)
        assert aw.reduced_word(D2, g) is first
        assert first == aw._alcove_walk(D2, g, order)


def test_word_memo_keeps_preferences_apart():
    # the longest finite element s0 s1 s0 = s1 s0 s1 has two reduced words
    g = aw.element_from_word(D2, [0, 1, 0])
    for _ in range(2):
        w01 = aw.reduced_word(D2, g, [0, 1, HEART])
        w10 = aw.reduced_word(D2, g, [1, 0, HEART])
        assert w01 != w10
        assert aw.reduced_word(D2, g) == w01
        for word in (w01, w10):
            assert len(word) == 3
            assert aw.element_from_word(D2, word).key() == g.key()


def test_word_memo_per_datum():
    # each datum gets its own words, also when an earlier one is dropped
    for _ in range(2):
        d = type_a(2)
        for g in aw.ball(d, 3):
            word = aw.reduced_word(d, g)
            assert len(word) == aw.length(d, g)
            assert aw.element_from_word(d, word).key() == g.key()
