"""Polynomial/Laurent rings, Demazure operators, and jet algebras."""
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahakz.affine import TorusPoint
from dahakz.errors import InternalCheckError, ScopeError
from dahakz.rings import (JetAlgebra, LocalJet, XiPolynomial, XLaurent,
                          YLaurent, bernstein_theta, demazure_x, demazure_xi,
                          x_apply_w, x_monomial, xi_apply_w, xi_linear,
                          xi_variable, y_apply_w, y_monomial, _binomial_divide)
from dahakz.rootdata import type_a
from dahakz.scalars import root_of_unity

D1 = type_a(1)
D2 = type_a(2)


def test_xi_ring_basics():
    xi = xi_variable(D2, 0)
    eta = xi_variable(D2, 1)
    p = (xi + eta) * (xi - eta)
    assert p == xi * xi - eta * eta
    assert not (p - p)


def test_power_zero_needs_a_rank():
    xi = xi_variable(D2, 0)
    assert xi ** 0 == XiPolynomial.constant(Q(1), 2)
    assert xi ** 3 == xi * xi * xi
    assert XiPolynomial({}) ** 2 == XiPolynomial({})
    with pytest.raises(ValueError):
        XiPolynomial({}) ** 0


def test_nonzero_scalar_on_the_zero_polynomial_needs_a_rank():
    # a rank-0 constant would truncate every monomial it multiplies:
    # (0 + 1) * xi_0 came out as the rank-0 constant 1
    for zero, var in ((XiPolynomial({}), xi_variable(D2, 0)),
                      (YLaurent({}), y_monomial(D2, (1, 0)))):
        assert zero == 0 and zero + 0 == zero and zero != 1
        for bad in (lambda: zero + 1, lambda: zero - Q(1, 2), lambda: 1 - zero):
            with pytest.raises(ValueError):
                bad()
        assert (zero + var + 1) * var == var * var + var


def test_xi_apply_w_is_action():
    p = xi_variable(D2, 0) * xi_variable(D2, 0) + xi_variable(D2, 1)
    for a in range(D2.w_order):
        for b in range(D2.w_order):
            lhs = xi_apply_w(D2, D2.w_mul[a][b], p)
            rhs = xi_apply_w(D2, a, xi_apply_w(D2, b, p))
            assert lhs == rhs


def test_demazure_xi_twisted_leibniz():
    # theta(pq) = theta(p) q + ^s p theta(q) for the simple coroot
    avee = tuple(Q(c) for c in D2.coroot_of(D2.simple_roots[0]))
    p = xi_variable(D2, 0) * xi_variable(D2, 1)
    q = xi_variable(D2, 0) + xi_variable(D2, 1) * xi_variable(D2, 1)
    w0 = D2.w_simple[0]
    lhs = demazure_xi(D2, p * q, avee)
    rhs = demazure_xi(D2, p, avee) * q \
        + xi_apply_w(D2, w0, p) * demazure_xi(D2, q, avee)
    assert lhs == rhs


def test_demazure_xi_kills_invariants():
    avee = tuple(Q(c) for c in D1.coroot_of(D1.simple_roots[0]))
    xi = xi_variable(D1, 0)
    assert not demazure_xi(D1, xi * xi, avee)  # xi^2 is s-invariant in A1
    assert demazure_xi(D1, xi, avee) == XiPolynomial.constant(Q(1), 1)


def test_demazure_x_on_both_signs():
    alpha = D1.simple_roots[0]
    x = x_monomial(D1, alpha)
    xinv = x_monomial(D1, tuple(-c for c in alpha))
    one = x_monomial(D1, (0,))
    # theta(x_alpha) = x_alpha + 1, theta(x_{-alpha}) = -(x_alpha + 1)
    assert demazure_x(D1, x, alpha) == x + one
    assert demazure_x(D1, xinv, alpha) == (x + one).scale(-1)
    assert not demazure_x(D1, one, alpha)


def test_demazure_x_twisted_leibniz_from_unit():
    # x_alpha * x_{-alpha} = 1 forces the two values above to be consistent
    alpha = D1.simple_roots[0]
    x = x_monomial(D1, alpha)
    xinv = x_monomial(D1, tuple(-c for c in alpha))
    lhs = demazure_x(D1, x * xinv, alpha)
    rhs = demazure_x(D1, x, alpha) * xinv \
        + x_apply_w(D1, D1.w_simple[0], x) * demazure_x(D1, xinv, alpha)
    assert lhs == rhs


def test_bernstein_theta_denominator_clears():
    p = y_monomial(D2, (1, 0))
    out = bernstein_theta(D2, p, 0)
    assert isinstance(out, YLaurent)
    sp = y_apply_w(D2, D2.w_simple[0], p)
    avee = tuple(-c for c in (1, 0))
    # (1 - y^{-alpha-vee}) theta(p) = p - ^s p with alpha-vee in coords (2,-1)
    from dahakz.rings import coweight_coords
    acoords = coweight_coords(D2, tuple(Q(c) for c in D2.coroot_of(D2.simple_roots[0])))
    denom = y_monomial(D2, (0,) * 2) - y_monomial(D2, tuple(-c for c in acoords))
    assert denom * out == p - sp


def test_jet_algebra_truncates():
    jet = JetAlgebra(XiPolynomial, D1, [(Q(1, 4),)], order=2)
    assert jet.order == 2


def _jet_points(ring, datum):
    # two weights, or the two torus points with those exponents
    exps = [(Q(1, 4), Q(-2, 5))[:datum.rank], (Q(-3, 7), Q(1, 3))[:datum.rank]]
    if ring is XiPolynomial:
        return exps
    return [TorusPoint.from_exponent(datum, e).values for e in exps]


@given(st.sampled_from([XiPolynomial, YLaurent]), st.sampled_from([D1, D2]),
       st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_jet_reduce_is_the_local_expansion(ring, datum, order, data):
    # reduce expands e_j = pt_j + m_j at each point (evaluation at order 1):
    # xi_j at weights, y_j (exponents -3..3) at torus points; the reference
    # substitutes the local variables monomial by monomial and inverts the
    # variable jet for each negative power
    low = 0 if ring is XiPolynomial else -3
    coeffs = data.draw(st.dictionaries(
        st.tuples(st.integers(low, 3), st.integers(low, 3)),
        st.integers(-4, 4), max_size=5))
    p = ring({k[:datum.rank]: Q(v) for k, v in coeffs.items()})
    points = _jet_points(ring, datum)
    jets = JetAlgebra(ring, datum, points, order=order)
    got = jets.reduce(p)
    rank = datum.rank
    for pt in points:
        images = [LocalJet(rank, order, {(0,) * rank: pt[j],
                                         tuple(int(i == j) for i in range(rank)): Q(1)})
                  for j in range(rank)]
        ref = LocalJet.constant(0, rank, order)
        for k, v in p.terms.items():
            prod = LocalJet.constant(v, rank, order)
            for j, e in enumerate(k):
                for _ in range(abs(e)):
                    prod = prod * (images[j] if e > 0 else images[j].inverse())
            ref = ref + prod
        assert got[pt].terms == ref.terms
        if ring is XiPolynomial:
            assert all(type(c) is Q for c in got[pt].terms.values())


@pytest.mark.parametrize("ring", [XiPolynomial, YLaurent])
def test_jet_idempotents_split_the_points(ring):
    # at order 2 the idempotent of pt reduces to 1 at pt and 0 at the other point
    points = _jet_points(ring, D2)
    jets = JetAlgebra(ring, D2, points, order=2)
    for pt in points:
        red = jets.reduce(jets.idempotent(pt))
        for qt in points:
            assert red[qt] == (1 if qt == pt else 0)


@pytest.mark.parametrize("ring", [XiPolynomial, YLaurent])
@pytest.mark.parametrize("datum", [D1, D2], ids=["A1", "A2"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_jet_lift_reduces_back_and_units_invert(ring, datum, order):
    # lift(pt, jet) reduces to jet at pt, and a jet with a nonzero constant
    # term (rational, or cyclotomic at a torus point) times its inverse is 1
    rng = random.Random(order)
    points = _jet_points(ring, datum)
    jets = JetAlgebra(ring, datum, points, order=order)
    y0 = ring({tuple(int(j == 0) for j in range(datum.rank)): Q(1)})
    for pt in points:
        for _ in range(3):
            coeffs = {m: Q(rng.randint(-4, 4), rng.randint(1, 5)) for m in jets.monomials}
            jet = LocalJet(datum.rank, order, coeffs)
            assert jets.reduce(jets.lift(pt, jet))[pt] == jet
            coeffs[(0,) * datum.rank] = Q(rng.randint(1, 4))
            unit = LocalJet(datum.rank, order, coeffs)
            assert unit * unit.inverse() == 1
        # the local variable e_0 at pt: a cyclotomic constant term at a torus point
        local = jets.reduce(y0)[pt]
        assert local * local.inverse() == 1


@pytest.mark.parametrize("make", [lambda c: XiPolynomial.constant(c, 2),
                                  lambda c: YLaurent.constant(c, 1),
                                  lambda c: LocalJet.constant(c, 1, 2)],
                         ids=["XiPolynomial", "YLaurent", "LocalJet"])
@pytest.mark.parametrize("c", [Q(0), Q(3), Q(1, 2)], ids=["0", "3", "half"])
def test_a_constant_hashes_as_its_scalar(make, c):
    # a constant == its scalar, so a set holds the two once
    p = make(c)
    assert p == c and len({p, c}) == 1


def test_jet_algebra_scope():
    # order at least 1, and points distinct by value, across fields too
    with pytest.raises(ScopeError):
        JetAlgebra(XiPolynomial, D1, [(Q(1, 4),)], order=0)
    with pytest.raises(ScopeError):
        JetAlgebra(XiPolynomial, D1, [(Q(1, 4),), (Q(1, 4),)])
    i4, z8 = root_of_unity(Q(1, 4)), root_of_unity(Q(1, 8))
    assert len({i4, z8 * z8}) == 1  # i in Q(zeta4) and in Q(zeta8)
    with pytest.raises(ScopeError):
        JetAlgebra(YLaurent, D1, [(i4,), (z8 * z8,)])


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_xlaurent_ring_axioms(a, b, c):
    f = x_monomial(D2, (1, 0), Q(a)) + x_monomial(D2, (0, -1), Q(1))
    g = x_monomial(D2, (-1, 1), Q(b))
    h = x_monomial(D2, (0, 0), Q(c))
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


def test_y_apply_w_respects_group():
    p = y_monomial(D2, (2, -1)) + y_monomial(D2, (0, 1), Q(3))
    for a in range(D2.w_order):
        for b in range(D2.w_order):
            assert y_apply_w(D2, D2.w_mul[a][b], p) == \
                y_apply_w(D2, a, y_apply_w(D2, b, p))


def test_xi_linear_evaluates():
    lam_vee = (Q(1), Q(2))
    p = xi_linear(D2, lam_vee, Q(5))
    val = p.evaluate((Q(1, 3), Q(1, 7)))
    expected = D2.pairing((Q(1, 3), Q(1, 7)), lam_vee) + 5
    assert val == expected


def _laurent(datum, terms):
    f = XLaurent({})
    for exps, c in terms:
        f = f + x_monomial(datum, tuple(exps[:datum.rank]), Q(c))
    return f


@given(st.sampled_from([D1, D2]),
       st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                          st.integers(-4, 4).filter(bool)), max_size=5))
@settings(max_examples=40, deadline=None)
def test_demazure_x_clears_its_denominator(datum, terms):
    # theta_beta(f) (1 - x_{-beta}) = f - ^{s_beta} f, exactly, for every beta > 0
    f = _laurent(datum, terms)
    one = x_monomial(datum, (0,) * datum.rank)
    for beta in datum.positive_roots:
        sf = x_apply_w(datum, datum.reflection_index(beta), f)
        denom = one - x_monomial(datum, tuple(-b for b in beta))
        assert demazure_x(datum, f, beta) * denom == f - sf


def test_binomial_divide_rejects_a_non_multiple():
    # 1 + x is not a multiple of 1 - x: the quotient series never ends
    with pytest.raises(InternalCheckError):
        _binomial_divide({(0,): Q(1), (1,): Q(1)}, (1,), lambda k: -k[0])


def test_cyclotomic_sums_promote_no_rational(monkeypatch):
    # a first-touch sum stores the summand, and an exact 0 adds as the
    # identity, so no rational is promoted into the field
    from dahakz.scalars import Cyclotomic
    promote = Cyclotomic._promote
    promoted = []

    def recording(self, other):
        if isinstance(other, (int, Q)):
            promoted.append(other)
        return promote(self, other)

    monkeypatch.setattr(Cyclotomic, "_promote", recording)
    z = root_of_unity(Q(1, 3))
    p = XiPolynomial({(1, 0): z, (0, 0): Q(1)})
    assert (p * p).terms == {(2, 0): z * z, (1, 0): z + z, (0, 0): Q(1)}
    assert list(y_apply_w(D2, 3, YLaurent({(1, 0): z})).terms.values()) == [z]
    jet = LocalJet(2, 2, {(0, 0): z}) + LocalJet(2, 2, {(1, 0): z})
    assert (jet * jet).terms == {(0, 0): z * z, (1, 0): z * z + z * z}
    assert Q(0) + z is z and z + 0 is z
    assert 0 - z == -z and sum([z, z], Q(0)) == z + z
    assert promoted == []


def test_coweight_action_survives_datum_turnover():
    # a datum made and dropped many times over: ids are reused, and each
    # datum's w must still act on y-monomials by its own coweight matrix,
    # which it holds itself (a table keyed by id(datum) would read a freed
    # datum's matrix)
    for i in range(400):
        d = type_a(1 + i % 3)
        simple = [tuple(Q(int(a == b)) for a in range(d.rank)) for b in range(d.rank)]
        for w in range(min(6, d.w_order)):
            for j in range(d.rank):
                img = d.w_act_coweight(w, d.fundamental_coweight(j))
                col = tuple(int(d.pairing(simple[a], img)) for a in range(d.rank))
                e_j = tuple(int(a == j) for a in range(d.rank))
                assert y_apply_w(d, w, y_monomial(d, e_j)).terms == {col: 1}
