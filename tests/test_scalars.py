"""Exact cyclotomic scalars and the e^x = exp(2*pi*i*x) convention."""
import random
from fractions import Fraction as Q

import mpmath
import pytest
from mpmath.libmp import from_rational, fzero, round_nearest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahakz.scalars import (Cyclotomic, Gaussian, _poly_divmod,
                            cyclotomic_field, root_of_unity, scalar_eq, to_mpc)


def test_root_of_unity_orders():
    assert root_of_unity(Q(1, 2)) == -1
    assert root_of_unity(Q(0)) == 1
    z = root_of_unity(Q(1, 3))
    assert z ** 3 == 1
    assert z != 1 and z ** 2 != 1


def test_root_of_unity_matches_exponential():
    for num, den in [(1, 4), (1, 3), (2, 5), (3, 7), (5, 12)]:
        z = root_of_unity(Q(num, den))
        expected = mpmath.exp(2j * mpmath.pi * mpmath.mpf(num) / den)
        assert abs(to_mpc(z) - expected) < mpmath.mpf("1e-15")


def test_field_promotion_across_orders():
    a = root_of_unity(Q(1, 3))
    b = root_of_unity(Q(1, 4))
    c = a * b
    assert c == root_of_unity(Q(7, 12))
    assert (c ** 12) == 1


def test_inverse_and_division():
    z = root_of_unity(Q(2, 7))
    assert z * z.inverse() == 1
    assert z ** -1 == z.inverse()
    assert (1 / z) * z == 1


def test_minimal_polynomial_reduction():
    # zeta_3 satisfies 1 + x + x^2 = 0
    z = root_of_unity(Q(1, 3))
    assert z * z == -1 - z


@pytest.mark.parametrize("n, phi", [
    (1, (-1, 1)),                        # x - 1
    (2, (1, 1)),                         # x + 1
    (4, (1, 0, 1)),                      # x^2 + 1
    (6, (1, -1, 1)),                     # x^2 - x + 1
    (8, (1, 0, 0, 0, 1)),                # x^4 + 1
    (9, (1, 0, 0, 1, 0, 0, 1)),          # x^6 + x^3 + 1
    (12, (1, 0, -1, 0, 1)),              # x^4 - x^2 + 1
    (15, (1, -1, 0, 1, -1, 1, 0, -1, 1)),  # x^8 - x^7 + x^5 - x^4 + x^3 - x + 1
])
def test_cyclotomic_field_modulus(n, phi):
    field = cyclotomic_field(n)
    assert field.modulus == tuple(Q(c) for c in phi)
    assert field.degree == len(phi) - 1


def test_to_mpc_on_rationals():
    assert to_mpc(Q(3, 4)) == mpmath.mpc(0.75)
    assert scalar_eq(Q(1, 2), Q(2, 4))


def test_to_mpc_rounds_a_rational_once():
    # bit for bit the correctly rounded quotient (libmp's from_rational), on
    # numerators wider than the precision, where rounding the numerator
    # before dividing would round twice
    rng = random.Random(20261019)
    for prec in (53, 128, 256):
        with mpmath.workprec(prec):
            def ref(q):
                return from_rational(q.numerator, q.denominator, prec, round_nearest)

            for _ in range(300):
                d = rng.getrandbits(prec // 2) | 1
                x = Q(rng.getrandbits(prec + 80) - (1 << (prec + 79)), d)
                y = Q(rng.getrandbits(prec + 40), d + 2)
                assert to_mpc(x)._mpc_ == (ref(x), fzero)
                assert to_mpc(Gaussian(x, y))._mpc_ == (ref(x), ref(y))


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
@settings(max_examples=60, deadline=None)
def test_field_ring_axioms(i, j, k):
    f = cyclotomic_field(12)
    a = f.element([Q(i), Q(j), 0, 1])
    b = f.element([Q(k), 1])
    c = f.element([1, Q(i - k)])
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(st.integers(1, 11))
@settings(max_examples=30, deadline=None)
def test_nonzero_invertible(k):
    z = root_of_unity(Q(k, 12))
    one = z * z.inverse()
    assert one == 1


def test_zero_has_no_inverse():
    f = cyclotomic_field(4)
    zero = f.element([0])
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=40, deadline=None)
def test_gaussian_field_operations(a, b, c, d):
    # Q(i) agrees with the cyclotomic field of order 4 and with mpmath
    x, y = Gaussian(a, b), Gaussian(c, d)
    i = root_of_unity(Q(1, 4))
    assert scalar_eq((x * y - x + 1).re + (x * y - x + 1).im * i,
                     (a + b * i) * (c + d * i) - (a + b * i) + 1)
    assert x * x.conjugate() == x.norm()
    if y:
        assert (x / y) * y == x and y ** -2 * y * y == 1
    with mpmath.workprec(128):
        assert to_mpc(x) == mpmath.mpc(mpmath.mpf(a.numerator) / a.denominator,
                                       mpmath.mpf(b.numerator) / b.denominator)


@given(st.sampled_from([3, 5, 8, 12]), st.lists(rationals, min_size=6, max_size=6),
       st.lists(rationals, min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_same_field_arithmetic_is_polynomial_arithmetic(n, xs, ys):
    # coefficients of +, -, neg and * in one field against polynomial
    # arithmetic reduced by the cyclotomic modulus; they stay Fractions
    f = cyclotomic_field(n)
    d = f.degree
    a, b = f.element(xs[:d]), f.element(ys[:d])
    prod = [Q(0)] * (2 * d - 1)
    for i, x in enumerate(xs[:d]):
        for j, y in enumerate(ys[:d]):
            prod[i + j] += x * y
    rem = _poly_divmod(prod, list(f.modulus))[1]
    cases = ((a + b, [x + y for x, y in zip(xs, ys)]),
             (a - b, [x - y for x, y in zip(xs, ys)]),
             (-a, [-x for x in xs]),
             (a * b, rem + [Q(0)] * (d - len(rem))))
    for got, want in cases:
        assert got.coeffs == tuple(want[:d])
        assert all(type(c) is Q for c in got.coeffs)
