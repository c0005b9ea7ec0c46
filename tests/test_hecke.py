"""Normal-form arithmetic in H' and the AHA, intertwiners, Dunkl operators."""
import gc
import hashlib
import random
import weakref
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dahakz.affine as aw
from dahakz import hecke
from dahakz.affine import HEART, HeckeParams
from dahakz.hecke import (AhaElement, DahaElement, act_xi_simple, aha_mul,
                          daha_mul, demazure_affine, dunkl_apply, dunkl_rho_coeff,
                          intertwiner_element, polynomial_action,
                          polynomial_rep_check, xi_affine_coroot)
from dahakz.errors import ScopeError
from dahakz.modules import intertwiner_matrix
from dahakz.rings import (XiPolynomial, XLaurent, YLaurent, add_terms,
                          bernstein_theta, demazure_x, neg_simple_coroot,
                          x_apply_w, x_monomial, xi_apply_w, xi_linear,
                          xi_variable, y_apply_w, y_monomial)
from dahakz.rootdata import type_a
from dahakz.scalars import Cyclotomic, Gaussian, root_of_unity

D1 = type_a(1)
D2 = type_a(2)
P1 = HeckeParams.degenerate(Q(1, 2))
P2 = HeckeParams.degenerate(Q(1, 3))
A1 = HeckeParams.from_exponent(Q(1, 2))
A2 = HeckeParams.from_exponent(Q(1, 3))


def _random_daha(datum, params, rng):
    letters = list(range(datum.rank)) + [HEART]
    word = [rng.choice(letters) for _ in range(rng.randrange(0, 3))]
    elem = DahaElement.from_group(datum, params,
                                  aw.element_from_word(datum, word))
    poly = XiPolynomial.constant(Q(rng.randrange(-2, 3)), datum.rank)
    for j in range(datum.rank):
        if rng.random() < 0.5:
            poly = poly * xi_variable(datum, j)
    if poly:
        elem = elem * DahaElement.from_poly(datum, params, poly)
    return elem if elem.terms else DahaElement.one(datum, params)


def _random_aha(datum, params, rng):
    w = rng.randrange(datum.w_order)
    coords = tuple(rng.randrange(-1, 2) for _ in range(datum.rank))
    return aha_mul(AhaElement.from_t(datum, params, w),
                   AhaElement.from_y(datum, params, y_monomial(datum, coords)))


def test_alcove_walk_runs_once_per_element(monkeypatch):
    datum = type_a(2)  # a fresh datum: none of its words is memoized yet
    walk = aw._alcove_walk
    calls = []

    def counting(d, g, order):
        calls.append((g.key(), order))
        return walk(d, g, order)

    monkeypatch.setattr(aw, "_alcove_walk", counting)
    rng = random.Random(11)
    elems = [_random_daha(datum, P2, rng) for _ in range(6)]
    products = [daha_mul(a, b) for a in elems for b in elems]
    products += [daha_mul(p, q) for p in products[:3] for q in elems]
    assert calls
    assert len(calls) == len(set(calls))


def test_daha_cross_relation():
    # s_i p - ^{s_i}p s_i = h * theta_{alpha_i-vee}(p) in normal form
    from dahakz.rings import demazure_xi
    for i in range(D2.rank):
        s = DahaElement.from_group(D2, P2, aw.simple_reflection(D2, i))
        p = xi_variable(D2, i) * xi_variable(D2, 1 - i) + xi_variable(D2, i)
        avee = tuple(Q(c) for c in D2.coroot_of(D2.simple_roots[i]))
        lhs = daha_mul(s, DahaElement.from_poly(D2, P2, p)) \
            - daha_mul(DahaElement.from_poly(
                D2, P2, xi_apply_w(D2, D2.w_simple[i], p)), s)
        rhs = DahaElement.from_poly(D2, P2, demazure_xi(D2, p, avee)) \
            .scale(P2.h)
        assert lhs == rhs


def test_daha_associativity_random():
    rng = random.Random(20260823)
    for _ in range(30):
        a, b, c = (_random_daha(D2, P2, rng) for _ in range(3))
        assert daha_mul(daha_mul(a, b), c) == daha_mul(a, daha_mul(b, c))


def test_daha_braid_words_agree():
    # products of letter generators along both reduced words of a braid pair
    def prod(word):
        out = DahaElement.one(D2, P2)
        for i in word:
            out = daha_mul(out, DahaElement.from_group(
                D2, P2, aw.simple_reflection(D2, i)))
        return out
    assert prod([0, 1, 0]) == prod([1, 0, 1])
    assert prod([0, HEART, 0]) == prod([HEART, 0, HEART])
    assert prod([1, HEART, 1]) == prod([HEART, 1, HEART])


def test_aha_quadratic_and_braid():
    for d, params in ((D1, A1), (D2, A2)):
        one = AhaElement.one(d, params)
        for i in range(d.rank):
            t = AhaElement.from_t(d, params, d.w_simple[i])
            assert not aha_mul(t - one.scale(params.zeta), t + one).terms
    t0 = AhaElement.from_t(D2, A2, D2.w_simple[0])
    t1 = AhaElement.from_t(D2, A2, D2.w_simple[1])
    lhs = aha_mul(aha_mul(t0, t1), t0)
    rhs = aha_mul(aha_mul(t1, t0), t1)
    assert lhs == rhs


def test_aha_bernstein_relation():
    # t_i y - ^{s_i}y t_i = (zeta - 1) theta_i(y)
    y = y_monomial(D2, (1, 0))
    t0 = AhaElement.from_t(D2, A2, D2.w_simple[0])
    sy = y_apply_w(D2, D2.w_simple[0], y)
    lhs = aha_mul(t0, AhaElement.from_y(D2, A2, y)) \
        - aha_mul(AhaElement.from_y(D2, A2, sy), t0)
    rhs = AhaElement.from_y(D2, A2, bernstein_theta(D2, y, 0)
                            .scale(A2.zeta - 1))
    assert lhs == rhs


def test_aha_associativity_random():
    rng = random.Random(20260823)
    for _ in range(20):
        a, b, c = (_random_aha(D2, A2, rng) for _ in range(3))
        assert aha_mul(aha_mul(a, b), c) == aha_mul(a, aha_mul(b, c))


def test_y_monomials_commute():
    for ca, cb in (((1, 0), (0, 1)), ((1, 1), (2, -1))):
        a = AhaElement.from_y(D2, A2, y_monomial(D2, ca))
        b = AhaElement.from_y(D2, A2, y_monomial(D2, cb))
        assert aha_mul(a, b) == aha_mul(b, a)


def test_intertwiner_closed_form_rank_one():
    # phi' = s xi_{alpha-vee} - h for a single finite letter
    elem = intertwiner_element(D1, P1, aw.simple_reflection(D1, 0))
    s = DahaElement.from_group(D1, P1, aw.simple_reflection(D1, 0))
    xi_avee = DahaElement.from_poly(
        D1, P1, xi_linear(D1, tuple(Q(c) for c in D1.coroot_of(D1.simple_roots[0]))))
    expected = daha_mul(s, xi_avee) - DahaElement.one(D1, P1).scale(P1.h)
    assert elem == expected


def test_intertwiner_conjugates_polynomials():
    # phi_w p = ^w p phi_w on both sides, for every w of W(A2)
    cases = (("degenerate", P2, DahaElement.from_poly, xi_apply_w,
              xi_variable(D2, 0) + xi_variable(D2, 1) * xi_variable(D2, 1)),
             ("aha", A2, AhaElement.from_y, y_apply_w,
              y_monomial(D2, (1, 0)) + y_monomial(D2, (-1, 2), Q(3))))
    for side, params, embed, act, p in cases:
        for w in range(D2.w_order):
            elem = intertwiner_element(D2, params, D2.w_words[w], side)
            lhs = elem * embed(D2, params, p)
            rhs = embed(D2, params, act(D2, w, p)) * elem
            assert lhs == rhs, (side, w)


def test_intertwiner_rejects_letters_outside_the_side():
    # HEART == -1 would index the last finite simple root on the AHA side
    for word in ([HEART], [0, HEART], [2]):
        with pytest.raises(ScopeError):
            intertwiner_element(D2, A2, word, side="aha")
    with pytest.raises(ScopeError):
        intertwiner_element(D2, P2, [2])


def test_dunkl_operators_commute():
    for f_coords in ((1, 0), (0, 1), (1, 1), (-1, 2)):
        f = x_monomial(D2, f_coords)
        ab = dunkl_apply(D2, P2, 0, dunkl_apply(D2, P2, 1, f))
        ba = dunkl_apply(D2, P2, 1, dunkl_apply(D2, P2, 0, f))
        assert ab == ba


def test_dunkl_rho_shift():
    # D_j(1) = rho-tilde_j
    one = x_monomial(D2, (0, 0))
    for j in range(2):
        out = dunkl_apply(D2, P2, j, one)
        assert out == one.scale(dunkl_rho_coeff(D2, P2, j))


def test_polynomial_rep_multiplicative():
    rng = random.Random(7)
    samples = [_random_daha(D2, P2, rng) for _ in range(10)]
    rep = polynomial_rep_check(D2, P2, samples, degree=2)
    assert rep["failures"] == 0
    assert rep["zero_actors"] == 0


def test_polynomial_action_realizes_xi_as_dunkl():
    f = x_monomial(D2, (1, -1)) + x_monomial(D2, (0, 1), Q(2))
    for j in range(2):
        elem = DahaElement.from_poly(D2, P2, xi_variable(D2, j))
        assert polynomial_action(D2, P2, elem, f) == dunkl_apply(D2, P2, j, f)


def test_xi_affine_coroot_heart():
    # xi_{theta-vee} + 1 on the affine letter
    p = xi_affine_coroot(D2, HEART)
    tv = tuple(Q(c) for c in D2.theta_vee)
    assert p == xi_linear(D2, tuple(-c for c in tv), Q(1))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_act_xi_simple_matches_act_xi(data):
    # the memoized images of a letter give the action of its group element
    datum = data.draw(st.sampled_from([D1, D2]))
    i = data.draw(st.sampled_from(list(range(datum.rank)) + [HEART]))
    coeff = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))
    expo = st.tuples(*[st.integers(0, 3)] * datum.rank)
    p = XiPolynomial(data.draw(st.dictionaries(expo, coeff, max_size=4)))
    want = aw.act_xi(datum, aw.simple_reflection(datum, i), p)
    assert act_xi_simple(datum, i, p) == want
    assert act_xi_simple(datum, i, p) == want  # a second call reads the memo


def _dunkl_direct(datum, params, j, f):
    """Reference: D_j applied to f as a whole, operator by operator."""
    out = XLaurent({k: v * k[j] for k, v in f.terms.items()})
    for beta in datum.positive_roots:
        if beta[j]:
            out = out - demazure_x(datum, f, beta).scale(params.h * beta[j])
    return out + f.scale(dunkl_rho_coeff(datum, params, j))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dunkl_apply_matches_direct_formula(data):
    # one datum under two values of h: a memo keyed without h returns the
    # image of the first h under the second
    datum = data.draw(st.sampled_from([D1, D2]))
    j = data.draw(st.integers(0, datum.rank - 1))
    coeff = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))
    expo = st.tuples(*[st.integers(-3, 3)] * datum.rank)
    f = XLaurent(data.draw(st.dictionaries(expo, coeff, max_size=4)))
    for h in (Q(1, 2), Q(-2, 7)):
        params = HeckeParams.degenerate(h)
        assert dunkl_apply(datum, params, j, f) == _dunkl_direct(datum, params, j, f)


def test_constant_times_group_is_one_term():
    # a scalar is central: c * g = g * c, with no pushed correction terms
    c = XiPolynomial.constant(Q(-3, 5), 2)
    for word in ([0], [HEART], [1, HEART, 0], [0, 1, 0, HEART]):
        g = aw.element_from_word(D2, word)
        prod = daha_mul(DahaElement.from_poly(D2, P2, c),
                        DahaElement.from_group(D2, P2, g))
        assert prod.terms == {(tuple(int(x) for x in g.trans), g.w): c}


def test_cancelling_sums_leave_no_zero_terms():
    # (1 + s)(1 - s) p = 0: every per-key sum of the product cancels
    p = xi_variable(D2, 0) * xi_variable(D2, 1) + XiPolynomial.constant(Q(2), 2)
    one = DahaElement.one(D2, P2)
    for i in (0, 1, HEART):
        s = DahaElement.from_group(D2, P2, aw.simple_reflection(D2, i))
        right = daha_mul(one - s, DahaElement.from_poly(D2, P2, p))
        prod = daha_mul(one + s, right)
        assert prod.terms == {}
        mixed = daha_mul(one + s, right + one)
        assert mixed == one + s
        assert all(mixed.terms.values())


def test_memoized_images_are_not_mutated():
    # sums run in accumulators, never in a memoized polynomial's term dict
    rng = random.Random(3)
    samples = [_random_daha(D2, P2, rng) for _ in range(4)]

    def run():
        polynomial_rep_check(D2, P2, samples, degree=2)
        intertwiner_matrix(D1, P1, aw.simple_reflection(D1, 0), (Q(3, 4),),
                           window=4)

    run()  # fill the memos of both data
    before = (repr(D1.memo), repr(D2.memo))
    run()
    assert (repr(D1.memo), repr(D2.memo)) == before


def _fill_memos(n):
    """A weak reference to a fresh datum run through every memoized path."""
    d = type_a(1 + n % 3)
    i = n % d.rank
    e_i = tuple(int(j == i) for j in range(d.rank))
    act_xi_simple(d, HEART, xi_variable(d, i))
    s = DahaElement.from_group(d, P2, aw.simple_reflection(d, i))
    daha_mul(DahaElement.from_poly(d, P2, xi_variable(d, i)), s)
    y = AhaElement.from_y(d, A2, y_monomial(d, e_i))
    aha_mul(y, AhaElement.from_t(d, A2, d.w_simple[i]))
    dunkl_apply(d, P2, i, x_monomial(d, e_i))
    aw.reduced_word(d, aw.translation(d, e_i))
    neg_simple_coroot(d, i)
    aw.alcove_sample(d, aw.simple_reflection(d, i))
    tags = {key if isinstance(key, str) else key[0] for key in d.memo}
    assert tags == {"xi_simple", "push", "theta_y", "dunkl", "word",
                    "neg_coroot", "sample"}
    return weakref.ref(d)


def test_memos_are_freed_with_their_datum():
    # every memo of the exact layer is held on its datum, so a dropped datum
    # is freed with its tables; none keeps it alive
    refs = [_fill_memos(n) for n in range(60)]
    gc.collect()
    alive = sum(ref() is not None for ref in refs)
    assert alive == 0, "%d of %d dropped data alive" % (alive, len(refs))


def _acceptance_rep_samples():
    """The 12 rep samples of the criterion-3 acceptance test, at h = 1/3.

    Same seed and the same draws: 25 rounds of three DAHA and three AHA
    elements come first, then the samples.
    """
    rng = random.Random(20260823)
    for _ in range(25):
        for _ in range(3):
            _random_daha(D2, P2, rng)
        for _ in range(3):
            _random_aha(D2, A2, rng)
    return [_random_daha(D2, P2, rng) for _ in range(12)]


# the rep samples of the exact-algebra benchmark at seed 1: (word, the j of
# the factors xi_j, coefficient), built as g * c prod xi_j at h = 1/3
BENCH_REP_SAMPLES = [([0], (0,), Q(-2, 3)), ([HEART], (1,), Q(-1, 3)),
                     ([1], (0, 1), Q(3, 5)), ([HEART], (), Q(-2, 3)),
                     ([HEART], (1,), Q(1, 5)), ([0], (0,), Q(-3, 2)),
                     ([HEART], (), Q(2, 5)), ([1], (0, 1), Q(-2, 3))]


def _bench_rep_samples():
    out = []
    for word, xis, c in BENCH_REP_SAMPLES:
        poly = XiPolynomial.constant(c, 2)
        for j in xis:
            poly = poly * xi_variable(D2, j)
        out.append(DahaElement.from_group(D2, P2, aw.element_from_word(D2, word))
                   * DahaElement.from_poly(D2, P2, poly))
    return out


def _action_direct(datum, params, a, f):
    """Reference: the action over Fractions, the D_j chain by _dunkl_direct."""
    out = XLaurent({})
    for (beta, w), p in a.terms.items():
        for mono, c in p.terms.items():
            g = f
            for j in range(datum.rank - 1, -1, -1):
                for _ in range(mono[j]):
                    g = _dunkl_direct(datum, params, j, g)
            out = out + x_monomial(datum, beta, c) * x_apply_w(datum, w, g)
    return out


def test_polynomial_action_matches_fraction_reference():
    # the samples and the products the rep check forms, on every monomial
    # of degree <= 5, term for term and with Fraction values
    actors = []
    for samples in (_acceptance_rep_samples(), _bench_rep_samples()):
        actors += samples + [daha_mul(samples[i], samples[i + 1])
                             for i in range(0, len(samples), 2)]
    monos = hecke._laurent_monomials(D2, 5)
    assert len(monos) == 61
    for a in actors:
        for m in monos:
            f = x_monomial(D2, m)
            got = polynomial_action(D2, P2, a, f)
            assert got.terms == _action_direct(D2, P2, a, f).terms
            assert all(type(v) is Q for v in got.terms.values())


def test_dunkl_apply_mixed_denominators():
    f = XLaurent({(2, -1): Q(1, 2), (0, 1): Q(-2, 3), (-1, -1): Q(5, 7),
                  (1, 1): 3, (0, 0): Q(4, 9)})
    for params in (P2, HeckeParams.degenerate(Q(-2, 7))):
        for j in range(2):
            got = dunkl_apply(D2, params, j, f)
            assert got.terms == _dunkl_direct(D2, params, j, f).terms
            assert all(type(v) is Q for v in got.terms.values())


def test_polynomial_rep_check_counts_failures():
    # samples built at h = 1/3 are not a representation at another h: the
    # count pins both the normal form (no false failures) and the equality
    # (no hidden ones)
    samples = _bench_rep_samples()
    assert polynomial_rep_check(D2, P2, samples, degree=2)["failures"] == 0
    for h in (Q(1, 2), Q(-2, 7)):
        rep = polynomial_rep_check(D2, HeckeParams.degenerate(h), samples,
                                   degree=2)
        assert rep["failures"] == 26
        assert rep["zero_actors"] == 0


def test_polynomial_action_is_over_q():
    f = x_monomial(D2, (1, 0))
    for c in (root_of_unity(Q(1, 3)), Gaussian(1, 1)):
        with pytest.raises(ScopeError):
            dunkl_apply(D2, P2, 0, x_monomial(D2, (1, 0), c))
        with pytest.raises(ScopeError):
            polynomial_action(D2, P2, DahaElement.one(D2, P2),
                              x_monomial(D2, (0, 1), c))
        elem = DahaElement.from_poly(D2, P2, XiPolynomial({(1, 0): c}))
        with pytest.raises(ScopeError):
            polynomial_action(D2, P2, elem, f)


def _canonical_terms(elem):
    """An element's terms in an exact, address-free form: each key with its
    polynomial, each coefficient as a Fraction or, for a Cyclotomic, as its
    field order and its Fraction coefficients."""
    def scalar(c):
        if isinstance(c, Cyclotomic):
            return ("cyc", c.field.n, tuple(Q(x) for x in c.coeffs))
        return ("q", Q(c))

    return sorted((repr(key), sorted((mono, scalar(c)) for mono, c in p.terms.items()))
                  for key, p in elem.terms.items())


@pytest.mark.parametrize("seed, pinned", [
    (1, "a59de633d10d73bd"), (2, "8563eb5500643020")])
def test_seeded_exact_products_are_pinned(seed, pinned):
    # the triples of criterion 3 (three DAHA, then three AHA elements per
    # round, 25 rounds): both association orders agree, and the products
    # hash to values taken before the cyclotomic arithmetic moved to
    # integer forms
    rng = random.Random(seed)
    canon = []
    for _ in range(25):
        a, b, c = (_random_daha(D2, P2, rng) for _ in range(3))
        x, y, z = (_random_aha(D2, A2, rng) for _ in range(3))
        dprod, aprod = daha_mul(daha_mul(a, b), c), aha_mul(aha_mul(x, y), z)
        assert dprod == daha_mul(a, daha_mul(b, c))
        assert aprod == aha_mul(x, aha_mul(y, z))
        canon.append((_canonical_terms(dprod), _canonical_terms(aprod)))
    assert hashlib.sha256(repr(canon).encode()).hexdigest()[:16] == pinned


def _xi_polys(datum):
    coeff = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))
    expo = st.tuples(*[st.integers(0, 3)] * datum.rank)
    return st.dictionaries(expo, coeff, max_size=4).map(XiPolynomial)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_push_table_matches_the_letter_maps(data):
    # the tabled images of p's monomials sum to ^{s_i}p and to
    # theta_i(^{s_i}p), affine letter included
    datum = data.draw(st.sampled_from([D1, D2]))
    i = data.draw(st.sampled_from(list(range(datum.rank)) + [HEART]))
    p = data.draw(_xi_polys(datum))
    sp, corr = {}, {}
    for m, c in p.terms.items():
        img, theta = hecke._push_image(datum, i, m)
        add_terms(sp, img, c)
        add_terms(corr, theta, c)
    want = act_xi_simple(datum, i, p)
    assert XiPolynomial(sp) == want
    assert XiPolynomial(corr) == demazure_affine(datum, i, want)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_theta_table_matches_bernstein_theta(data):
    datum = data.draw(st.sampled_from([D1, D2]))
    i = data.draw(st.integers(0, datum.rank - 1))
    coeff = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))
    expo = st.tuples(*[st.integers(-3, 3)] * datum.rank)
    p = YLaurent(data.draw(st.dictionaries(expo, coeff, max_size=4)))
    acc = {}
    for k, c in p.terms.items():
        add_terms(acc, hecke._theta_y(datum, i, k), c)
    assert YLaurent(acc) == bernstein_theta(datum, p, i)


def test_letter_tables_survive_datum_turnover():
    # data made and dropped many times over reuse ids; each datum's push
    # and theta tables must still be its own (they are held on the datum)
    for n in range(400):
        d = type_a(1 + n % 3)
        i = n % d.rank
        m = tuple(int(j == i) for j in range(d.rank))
        img, theta = hecke._push_image(d, i, m)
        sp = act_xi_simple(d, i, xi_variable(d, i))
        assert img == sp.terms
        assert theta == demazure_affine(d, i, sp).terms
        assert hecke._theta_y(d, i, m) == bernstein_theta(d, y_monomial(d, m), i).terms
