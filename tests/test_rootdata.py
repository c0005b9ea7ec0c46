"""Root data and finite Weyl group combinatorics for type A."""
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahakz.rootdata import RootDatum, from_cartan_matrix, type_a


@pytest.mark.parametrize("r", [1, 2, 3])
def test_counts(r):
    d = type_a(r)
    assert d.rank == r
    assert len(d.positive_roots) == r * (r + 1) // 2
    assert len(d.roots) == r * (r + 1)
    assert d.w_order == math.factorial(r + 1)
    assert d.coxeter_number == r + 1


@pytest.mark.parametrize("r", [1, 2, 3])
def test_cartan_from_pairing(r):
    d = type_a(r)
    for i in range(r):
        avee = tuple(Q(c) for c in d.coroot_of(d.simple_roots[i]))
        for j in range(r):
            aj = tuple(Q(c) for c in d.simple_roots[j])
            assert d.pairing(aj, avee) == d.cartan[i][j]


def test_rho_pairs_to_one_on_simples():
    for r in (1, 2, 3):
        d = type_a(r)
        for i in range(r):
            avee = tuple(Q(c) for c in d.coroot_of(d.simple_roots[i]))
            assert d.pairing(d.rho, avee) == 1


def test_theta_is_highest():
    d = type_a(2)
    assert tuple(d.theta) == (1, 1)
    tv = tuple(Q(c) for c in d.theta_vee)
    assert d.pairing(tuple(Q(c) for c in d.theta), tv) == 2


def test_reflection_involution_and_roots_permuted():
    d = type_a(2)
    for beta in d.roots:
        lam = (Q(2, 7), Q(-3, 5))
        assert d.reflect_weight(d.reflect_weight(lam, beta), beta) == lam
    for w in range(d.w_order):
        imgs = {d.w_act_root(w, b) for b in d.roots}
        assert imgs == set(d.roots)


def test_word_action_matches_simple_reflections():
    d = type_a(3)
    lam = (Q(1, 2), Q(1, 3), Q(1, 5))
    for w in range(d.w_order):
        out = lam
        for i in reversed(d.w_words[w]):
            out = d.reflect_weight(out, d.simple_roots[i])
        assert out == d.w_act_weight(w, lam)


def test_group_table_consistency():
    d = type_a(2)
    for a in range(d.w_order):
        assert d.w_mul[a][d.w_inv[a]] == d.w_identity
        for b in range(d.w_order):
            lam = (Q(1, 5), Q(1, 7))
            lhs = d.w_act_weight(d.w_mul[a][b], lam)
            rhs = d.w_act_weight(a, d.w_act_weight(b, lam))
            assert lhs == rhs


def test_coroot_level_sets_partition():
    d = type_a(2)
    total = sum(len(d.coroot_level_set(j)) for j in range(-2, 3) if j != 0)
    assert total == len(d.roots)


def test_custom_cartan_rejects_nonsquare():
    with pytest.raises(ValueError):
        from_cartan_matrix(((2, -1),))


def _refused_before_weyl_group(cartan, match, monkeypatch):
    def enumerate_w(self):
        raise AssertionError("the Weyl group was enumerated")
    monkeypatch.setattr(RootDatum, "_build_weyl_group", enumerate_w)
    with pytest.raises(ValueError, match=match):
        from_cartan_matrix(cartan)


@pytest.mark.parametrize("cartan", [((2, -2), (-1, 2)), ((2, -1), (-3, 2))],
                         ids=["B2", "G2"])
def test_custom_cartan_rejects_non_simply_laced(cartan, monkeypatch):
    _refused_before_weyl_group(cartan, "simply-laced", monkeypatch)


def test_custom_cartan_rejects_reducible(monkeypatch):
    # A1 x A1: 4 roots = rank * h, yet the Dynkin graph is disconnected
    _refused_before_weyl_group(((2, 0), (0, 2)), "irreducible", monkeypatch)


@pytest.mark.parametrize("cartan, match", [
    (((2, -3), (-3, 2)), "simply-laced"),
    (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), "positive definite"),
], ids=["symmetric-3", "affine-A2"])
def test_custom_cartan_rejects_indefinite(cartan, match, monkeypatch):
    # W is infinite for both, and its enumeration would never end; the
    # affine A2 cycle is simply-laced and connected, so only the leading
    # principal minors (the last is 0) refuse it
    _refused_before_weyl_group(cartan, match, monkeypatch)


@given(st.integers(0, 23), st.integers(0, 23))
@settings(max_examples=40, deadline=None)
def test_length_subadditive(a, b):
    d = type_a(3)
    a %= d.w_order
    b %= d.w_order
    ab = d.w_mul[a][b]
    assert d.w_length(ab) <= d.w_length(a) + d.w_length(b)
    assert (d.w_length(ab) - d.w_length(a) - d.w_length(b)) % 2 == 0


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_weyl_maps_equal_the_column_matrices(r):
    # each w acts on integer keys and on Fraction weights exactly as its
    # column matrix does, on root and on omega-vee coordinates
    d = type_a(r)
    rng = random.Random(20261020 + r)
    simple = [tuple(Q(int(i == j)) for i in range(r)) for j in range(r)]
    for w in range(d.w_order):
        cols, cocols = d.w_elements[w], d.w_coweight_matrices[w]
        # column j of the coweight matrix: the omega-vee coordinates
        # (alpha_i : w omega_j-vee) of w omega_j-vee
        assert cocols == tuple(
            tuple(d.pairing(simple[i], d.w_act_coweight(w, d.fundamental_coweight(j)))
                  for i in range(r)) for j in range(r))
        for _ in range(6):
            k = tuple(rng.randrange(-6, 7) for _ in range(r))
            lam = tuple(Q(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(r))
            img = tuple(sum(k[j] * cols[j][i] for j in range(r)) for i in range(r))
            assert d.w_act_root(w, k) == d.w_maps[w](k) == img
            assert all(type(c) is int for c in d.w_act_root(w, k))
            want = tuple(sum((lam[j] * cols[j][i] for j in range(r)), Q(0))
                         for i in range(r))
            for weight in (lam, k):
                got = d.w_act_weight(w, weight)
                assert got == d.w_act_coweight(w, weight)
                assert all(type(c) is Q for c in got)
            assert d.w_act_weight(w, lam) == want
            assert d.w_act_weight(w, k) == img
            assert d.w_coweight_maps[w](k) == tuple(
                sum(k[j] * cocols[j][i] for j in range(r)) for i in range(r))


def _column_product(a, b):
    """(a b) for matrices given by their columns: column j is a applied to b's."""
    r = len(a)
    return tuple(tuple(sum(a[k][i] * b[j][k] for k in range(r)) for i in range(r))
                 for j in range(r))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_group_tables_equal_a_brute_force_reference(r):
    # w_mul, w_inv and the reflection table against the matrices: products
    # multiplied out, inverses and reflections found by searching W with
    # Fraction pairings, as the tables were once built
    d = type_a(r)
    elems = d.w_elements
    assert len(set(elems)) == d.w_order
    for a in range(d.w_order):
        for b in range(d.w_order):
            assert elems[d.w_mul[a][b]] == _column_product(elems[a], elems[b])
        assert [b for b in range(d.w_order) if d.w_mul[a][b] == 0] == [d.w_inv[a]]
    simple = [tuple(Q(int(i == j)) for i in range(r)) for j in range(r)]
    for beta in d.roots:
        bvee = tuple(Q(c) for c in d.coroot_of(beta))
        want = [w for w in range(d.w_order)
                if all(d.w_act_root(w, d.simple_roots[j])
                       == tuple(simple[j][i] - d.pairing(simple[j], bvee) * beta[i]
                                for i in range(r))
                       for j in range(r))]
        assert want == [d.reflection_index(beta)]
