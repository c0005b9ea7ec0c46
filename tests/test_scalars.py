"""Exact cyclotomic scalars and the e^x = exp(2*pi*i*x) convention."""
import math
import random
from fractions import Fraction as Q

import mpmath
import pytest
from mpmath.libmp import from_rational, fzero, round_nearest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahakz.scalars import (Cyclotomic, Gaussian, _poly_divmod, cyclotomic_field,
                            rational_mpf, root_of_unity, scalar_eq, to_mpc)


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


def _rational_mpf_cases(prec, rng):
    """(num, den) pairs for rational_mpf at prec: exact ties of both parities,
    den 1 and powers of two, numerators far shorter and far longer than
    prec, and seeded draws, each with both signs."""
    cases = [(1, 1), (4, 1), (3, 8), (6, 4), (1, 3), (2, 3), (7, 2 ** 70)]
    for _ in range(40):
        # m of prec bits: (m + 1/2) is a tie, rounded to even m or m + 1
        m = rng.getrandbits(prec - 1) | (1 << (prec - 1))
        for man in (m & ~1, m | 1):
            k = rng.choice([1, 3, 5, 1 << rng.randrange(1, 9)])
            e = rng.randrange(0, 2 * prec)
            cases += [(2 * man + 1, 2), ((2 * man + 1) * k, 2 * k << e),
                      ((2 * man + 1) << e, 2), (4 * man + 1, 4), (4 * man + 3, 4)]
        cases += [(rng.getrandbits(rng.randrange(1, prec // 2)) | 1, 1),
                  (rng.getrandbits(5 * prec) | 1, 1),
                  (rng.getrandbits(rng.randrange(1, 3 * prec)) | 1,
                   1 << rng.randrange(0, 3 * prec)),
                  (rng.getrandbits(rng.randrange(1, prec // 2)) | 1,
                   rng.getrandbits(rng.randrange(2, 2 * prec)) | 1),
                  (rng.getrandbits(rng.randrange(prec, 6 * prec)) | 1,
                   rng.getrandbits(rng.randrange(1, 2 * prec)) | 1)]
    return cases + [(-num, den) for num, den in cases]


@pytest.mark.parametrize("prec", [53, 64, 128, 256, 512])
def test_rational_mpf_is_libmp_correct_rounding(prec):
    # rational_mpf divides once itself; it must return, bit for bit, the
    # normalized tuple of libmp's correctly rounded from_rational
    rng = random.Random(20261021 + prec)
    with mpmath.workprec(prec):
        assert rational_mpf(0, 7) == fzero
        for num, den in _rational_mpf_cases(prec, rng):
            assert rational_mpf(num, den) == \
                from_rational(num, den, prec, round_nearest), (num, den)


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


# -- the integer form against a Fraction reference ----------------------------

FIELD_ORDERS = (1, 2, 3, 4, 5, 8, 12)


def _ref_reduce(n, poly):
    """A Fraction polynomial reduced modulo the n-th cyclotomic polynomial."""
    mod = cyclotomic_field(n).modulus
    d = len(mod) - 1
    poly = [Q(x) for x in poly] + [Q(0)] * max(0, d - len(poly))
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k]
        if c:
            for i in range(d + 1):
                poly[k - d + i] -= c * mod[i]
    return tuple(poly[:d])


def _ref_mul(n, xs, ys):
    prod = [Q(0)] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            prod[i + j] += x * y
    return _ref_reduce(n, prod)


def _ref_embed(n, m, xs):
    """Coefficients of an element of Q(zeta_n) in Q(zeta_m): zeta_n = zeta_m^(m/n)."""
    poly = [Q(0)] * ((len(xs) - 1) * (m // n) + 1)
    for k, x in enumerate(xs):
        poly[k * (m // n)] += x
    return _ref_reduce(m, poly)


def _draw(rng, n):
    d = cyclotomic_field(n).degree
    xs = [Q(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3, 4, 6, 9]))
          for _ in range(d)]
    if rng.random() < 0.2:
        xs[rng.randrange(d)] = Q(0)
    return cyclotomic_field(n).element(xs), tuple(xs)


def _canonical(x):
    """x's coefficients, after checking its integer form is the canonical one."""
    assert type(x) is Cyclotomic
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert len(x.num) == x.field.degree
    return x.coeffs


def test_integer_form_against_a_fraction_reference():
    rng = random.Random(20261020)
    for n in FIELD_ORDERS:
        for _ in range(25):
            (a, xs), (b, ys) = _draw(rng, n), _draw(rng, n)
            assert _canonical(a) == xs
            assert _canonical(a + b) == tuple(x + y for x, y in zip(xs, ys))
            assert _canonical(a - b) == tuple(x - y for x, y in zip(xs, ys))
            assert _canonical(-a) == tuple(-x for x in xs)
            assert _canonical(a * b) == _ref_mul(n, xs, ys)
            q = Q(rng.randrange(-7, 8), rng.randrange(1, 6))
            for c in (q, q.numerator):
                shift = (c,) + (Q(0),) * (len(xs) - 1)
                assert _canonical(a + c) == _canonical(c + a) == \
                    tuple(x + y for x, y in zip(xs, shift))
                assert _canonical(a - c) == tuple(x - y for x, y in zip(xs, shift))
                assert _canonical(c - a) == tuple(y - x for x, y in zip(xs, shift))
                assert _canonical(a * c) == _canonical(c * a) == \
                    tuple(x * c for x in xs)
                if c:
                    assert _canonical(a / c) == tuple(x / c for x in xs)
            if not b:
                continue
            inv = b.inverse()
            assert _ref_mul(n, _canonical(inv), ys) == _ref_reduce(n, [1])
            assert _canonical(a / b) == _ref_mul(n, xs, inv.coeffs)
            assert _canonical(q / b) == tuple(c * q for c in inv.coeffs)
            for k in range(-3, 5):
                want = _ref_reduce(n, [1])
                for _ in range(abs(k)):
                    want = _ref_mul(n, want, ys if k > 0 else inv.coeffs)
                assert _canonical(b ** k) == want


def test_mixed_fields_promote_to_the_lcm():
    rng = random.Random(20261021)
    for _ in range(60):
        n1, n2 = rng.choice(FIELD_ORDERS), rng.choice(FIELD_ORDERS)
        m = math.lcm(n1, n2)
        (a, xs), (b, ys) = _draw(rng, n1), _draw(rng, n2)
        ea, eb = _ref_embed(n1, m, xs), _ref_embed(n2, m, ys)
        s, p = a + b, a * b
        assert s.field.n == p.field.n == m
        assert _canonical(s) == tuple(x + y for x, y in zip(ea, eb))
        assert _canonical(a - b) == tuple(x - y for x, y in zip(ea, eb))
        assert _canonical(p) == _ref_mul(m, ea, eb)
        assert a == cyclotomic_field(m).element(ea)
        if b:
            assert _canonical((a / b) * b) == ea


def test_hash_agrees_with_equality_across_fields():
    assert root_of_unity(Q(1, 4)) == root_of_unity(Q(1, 8)) ** 2
    assert hash(root_of_unity(Q(1, 4))) == hash(root_of_unity(Q(1, 8)) ** 2)
    rng = random.Random(20261022)
    for _ in range(60):
        n = rng.choice(FIELD_ORDERS)
        m = n * rng.choice([1, 2, 3, 4])
        a, xs = _draw(rng, n)
        big = cyclotomic_field(m).element(_ref_embed(n, m, xs))
        assert big == a and hash(big) == hash(a)
        assert len({a, big}) == 1
    # a rational-valued element hashes as its Fraction, in every field
    for n in FIELD_ORDERS:
        for q in (Q(0), Q(1), Q(-3), Q(5, 7), Q(-2, 9)):
            x = cyclotomic_field(n).element([q])
            assert x == q and hash(x) == hash(q)
            assert {x: 1}[q] == 1
    i = root_of_unity(Q(1, 4))
    assert hash(i * i) == hash(-1) and hash(i + 1 - i) == hash(1)


# -- Gaussian rationals: the integer form against a Fraction-pair reference -----


class _FractionGaussian:
    """Gaussian rational as a pair of Fractions: the reference for Gaussian."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Q(re), Q(im)

    def _of(self, o):
        return o if isinstance(o, _FractionGaussian) else _FractionGaussian(o)

    def __add__(self, o):
        o = self._of(o)
        return _FractionGaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._of(o)
        return _FractionGaussian(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return self._of(o) - self

    def __mul__(self, o):
        o = self._of(o)
        return _FractionGaussian(self.re * o.re - self.im * o.im,
                                 self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._of(o)
        n = o.norm()
        return _FractionGaussian((self.re * o.re + self.im * o.im) / n,
                                 (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, o):
        return self._of(o) / self

    def __pow__(self, e):
        base = self if e >= 0 else 1 / self
        out = _FractionGaussian(1)
        for _ in range(abs(e)):
            out = out * base
        return out

    def conjugate(self):
        return _FractionGaussian(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self):
        return f"Gaussian({self.re}, {self.im})"


def _same(x, ref):
    """x is the canonical integer form of the reference value ref."""
    assert type(x) is Gaussian
    assert all(type(v) is int for v in (x.a, x.b, x.d))
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == (ref.re, ref.im)
    assert type(x.re) is Q and type(x.im) is Q
    assert repr(x) == repr(ref) and hash(x) == hash(ref)
    assert bool(x) == bool(ref.re or ref.im)


small_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=36)
parts = st.one_of(st.integers(-9, 9), small_rationals)


@given(parts, parts, parts, parts, st.one_of(st.integers(-12, 12), small_rationals))
@settings(max_examples=150, deadline=None)
def test_gaussian_integer_form_against_a_fraction_pair_reference(a, b, c, d, q):
    x, y = Gaussian(a, b), Gaussian(c, d)
    rx, ry = _FractionGaussian(a, b), _FractionGaussian(c, d)
    _same(x, rx)
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(-x, _FractionGaussian(-rx.re, -rx.im))
    _same(x * y, rx * ry)
    _same(x.conjugate(), rx.conjugate())
    assert x.norm() == rx.norm() and type(x.norm()) is Q
    # a rational operand on either side
    _same(x + q, rx + q)
    _same(q + x, q + rx)
    _same(x - q, rx - q)
    _same(q - x, q - rx)
    _same(x * q, rx * q)
    _same(q * x, q * rx)
    if q:
        _same(x / q, rx / q)
    else:
        with pytest.raises(ZeroDivisionError):
            x / q
    if y:
        _same(x / y, rx / ry)
        _same(q / y, q / ry)
    else:
        for bad in (lambda: x / y, lambda: q / y, lambda: y ** -1):
            with pytest.raises(ZeroDivisionError):
                bad()
    for e in range(-4, 5):
        if e >= 0 or x:
            _same(x ** e, rx ** e)
    # == and hash against int and Fraction, as for the reference
    for r in (q, Q(a), a if isinstance(a, int) else a.numerator):
        assert (Gaussian(r) == r) and (Gaussian(r, 1) != r)
        assert hash(Gaussian(r)) == hash(r) == hash(Q(r))
        assert (x == r) == (rx.im == 0 and rx.re == r)
    assert (x == y) == ((rx.re, rx.im) == (ry.re, ry.im))
    assert {Gaussian(a): 1}.get(Q(a)) == 1


def test_gaussian_zero_and_one_forms():
    assert (Gaussian().a, Gaussian().b, Gaussian().d) == (0, 0, 1)
    assert Gaussian(Q(2, 4), Q(-1, 6)).d == 6 and not Gaussian(0) and Gaussian(0, 1)
    assert Gaussian(Q(1, 3)) - Q(1, 3) == 0 and (Gaussian(Q(1, 3)) - Q(1, 3)).d == 1
    assert repr(Gaussian(Q(3, 4), -2)) == "Gaussian(3/4, -2)"
    assert Gaussian("1/3", 0.5) == Gaussian(Q(1, 3), Q(1, 2))
    with pytest.raises(ZeroDivisionError):
        Gaussian(1, 1) / Gaussian(0)
    with pytest.raises(ZeroDivisionError):
        Gaussian(0) ** -2
