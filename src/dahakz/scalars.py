"""Exact scalars: rationals, Gaussian rationals, cyclotomic number fields, and float conversion.

An element of Q(zeta_n) is held in integer form: integer numerators of
1, zeta, ..., zeta^(d-1) over one positive denominator, gcd-reduced, the
standard representation of number-field elements (Cohen, A Course in
Computational Algebraic Number Theory, 1993, 4.2).  The n-th cyclotomic
polynomial is monic with integer coefficients, so a product is an integer
convolution reduced by integer power rows, with one gcd per result; a sum
runs over the lcm of the two denominators.  Only the inverse (an extended
Euclid over Q[x]) runs on Fractions.  Equality across fields promotes to
the lcm of the orders, and the hash is the normalized trace Tr(x)/phi(n),
which the embedding of one field in another does not change.

A Gaussian rational, the coordinate type of the transport layer, is held
the same way: integers a, b over one positive denominator d, (a + b i) / d
with gcd(a, b, d) = 1, one gcd per operation.  Its hash is that of the
rational when b = 0, so a Gaussian and an equal int or Fraction are one
dict key.
"""
from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Tuple, Union

import mpmath
from mpmath.libmp import fzero

Rat = Union[int, Q]

__all__ = ["Q", "Gaussian", "Cyclotomic", "cyclotomic_field", "root_of_unity",
           "to_mpc", "scalar_eq"]


def _cyclotomic_poly(n: int) -> Tuple[Q, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial over Q."""
    # x^n - 1 divided by the cyclotomic polynomials of the proper divisors.
    num = [Q(-1)] + [Q(0)] * (n - 1) + [Q(1)]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(_cyclotomic_poly(d)))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(num)


class _CycField:
    """The field Q(zeta_n), elements reduced modulo the n-th cyclotomic polynomial."""

    def __init__(self, n: int):
        self.n = n
        self.modulus = _cyclotomic_poly(n)
        self.degree = len(self.modulus) - 1
        # x^k for k in [degree, 2*degree-2], reduced; used by multiplication.
        # The modulus is monic with integer coefficients, so these are
        # integer rows.
        self._powers = self._reduce_powers()
        # Tr(zeta^k) for k < degree: the trace of multiplication by zeta^k,
        # whose column i is the reduced zeta^(k+i)
        d = self.degree
        self._traces = tuple(sum(_reduced_power(self, k + i)[i] for i in range(d))
                             for k in range(d))
        self._embeddings: dict = {}

    def _reduce_powers(self):
        d = self.degree
        # start with x^d = -(lower part of the monic modulus)
        cur = [-int(c) for c in self.modulus[:d]]
        rows = [tuple(cur)]
        for _ in range(d - 2):
            top = cur[d - 1]
            cur = [0] + cur[: d - 1]
            if top:
                cur = [x + top * y for x, y in zip(cur, rows[0])]
            rows.append(tuple(cur))
        return rows

    def _embedding(self, m: int):
        """The integer coefficients of zeta_n^k in Q(zeta_m), k < degree; memoized."""
        rows = self._embeddings.get(m)
        if rows is None:
            fld, step = cyclotomic_field(m), m // self.n
            rows = self._embeddings[m] = [_reduced_power(fld, k * step)
                                          for k in range(self.degree)]
        return rows

    def element(self, coeffs) -> "Cyclotomic":
        c = [x if isinstance(x, (int, Q)) else Q(x) for x in coeffs][: self.degree]
        c += [0] * (self.degree - len(c))
        den = math.lcm(*(x.denominator for x in c))
        return _reduced(self, [x.numerator * (den // x.denominator) for x in c], den)


_FIELDS: dict = {}


def cyclotomic_field(n: int) -> _CycField:
    if n < 1:
        raise ValueError("field index must be positive")
    if n not in _FIELDS:
        _FIELDS[n] = _CycField(n)
    return _FIELDS[n]


def _reduced(field: _CycField, num, den: int) -> "Cyclotomic":
    """num / den in the field, with den > 0 and the gcd of den and num divided out."""
    g = math.gcd(den, *num)
    if g != 1:
        return Cyclotomic(field, tuple(x // g for x in num), den // g)
    return Cyclotomic(field, tuple(num), den)


class Cyclotomic:
    """Exact element of Q(zeta_n) with decidable equality.

    The element sum_k num[k]/den zeta^k is held as integer numerators over
    one denominator den > 0, with gcd(den, *num) = 1: each element of a
    field has one form, so == within a field is a tuple compare.  A product
    is an integer convolution reduced by the field's integer power rows; a
    sum runs over the lcm of the two denominators.  coeffs is a read-only
    Fraction view of the coefficients.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: _CycField, num: Tuple[int, ...], den: int = 1):
        # num / den must be reduced; _reduced and field.element make one
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> Tuple[Q, ...]:
        """The coefficients of 1, zeta, ..., zeta^(degree-1) as Fractions."""
        return tuple(Q(x, self.den) for x in self.num)

    # -- promotion -------------------------------------------------------
    def _rational(self, q) -> "Cyclotomic":
        """The rational q in the field of self."""
        return Cyclotomic(self.field, (q.numerator,) + (0,) * (self.field.degree - 1),
                          q.denominator)

    def _promote(self, other):
        if isinstance(other, (int, Q)):
            return self, self._rational(other)
        if not isinstance(other, Cyclotomic):
            return None, None
        if other.field is self.field:
            return self, other
        m = math.lcm(self.field.n, other.field.n)
        return self._embed(m), other._embed(m)

    def _embed(self, m: int) -> "Cyclotomic":
        # the power basis of Z[zeta_n] is an integral basis, and Z[zeta_m]
        # meets Q(zeta_n) in Z[zeta_n], so the image keeps gcd 1 with den
        if m == self.field.n:
            return self
        fld = cyclotomic_field(m)
        acc = [0] * fld.degree
        for c, row in zip(self.num, self.field._embedding(m)):
            if c:
                for i, v in enumerate(row):
                    if v:
                        acc[i] += c * v
        return Cyclotomic(fld, tuple(acc), self.den)

    # -- arithmetic ------------------------------------------------------
    def _sum(self, other: "Cyclotomic", sign: int) -> "Cyclotomic":
        """self + sign * other, both in the field of self."""
        da, db = self.den, other.den
        if da == db:
            if sign > 0:
                num = [x + y for x, y in zip(self.num, other.num)]
            else:
                num = [x - y for x, y in zip(self.num, other.num)]
            if da == 1:
                return Cyclotomic(self.field, tuple(num), 1)
            return _reduced(self.field, num, da)
        g = math.gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return _reduced(self.field, [x * fa + y * fb for x, y in zip(self.num, other.num)],
                        da * fa)

    def __add__(self, other):
        if type(other) is Cyclotomic and other.field is self.field:
            return self._sum(other, 1)
        if isinstance(other, (int, Q)) and not other:
            return self  # an exact 0, as sums started at Q(0) add
        a, b = self._promote(other)
        if a is None:
            return NotImplemented
        return a._sum(b, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        if type(other) is Cyclotomic and other.field is self.field:
            return self._sum(other, -1)
        a, b = self._promote(other)
        if a is None:
            return NotImplemented
        return a._sum(b, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scaled(self, p: int, q: int) -> "Cyclotomic":
        """self * p / q for integers p and q > 0."""
        return _reduced(self.field, [x * p for x in self.num], self.den * q)

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            return self._scaled(other.numerator, other.denominator)
        if type(other) is Cyclotomic and other.field is self.field:
            a, b = self, other
        else:
            a, b = self._promote(other)
            if a is None:
                return NotImplemented
        fld = a.field
        d = fld.degree
        den = a.den * b.den
        raw = [0] * (2 * d - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num, i):
                    if y:
                        raw[j] += x * y
        out = raw[:d]
        for k in range(d, 2 * d - 1):
            c = raw[k]
            if c:
                out = [x + c * y for x, y in zip(out, fld._powers[k - d])]
        if den == 1:
            return Cyclotomic(fld, tuple(out), 1)
        return _reduced(fld, out, den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        # extended Euclid in Q[x] against the modulus, on Fractions
        mod = list(self.field.modulus)
        a = list(self.coeffs)
        if not any(a):
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        r0, r1 = mod, _trim(a)
        s0, s1 = [Q(0)], [Q(1)]
        while len(r1) > 1 or r1[0] != 0:
            if len(r1) == 1:
                break
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            r1 = _trim(r1)
        if len(r1) != 1 or r1[0] == 0:
            raise ZeroDivisionError("non-invertible cyclotomic element")
        inv_lead = 1 / r1[0]
        return self.field.element([c * inv_lead for c in s1 + [Q(0)] * self.field.degree])

    def __truediv__(self, other):
        if isinstance(other, (int, Q)):
            if other == 0:
                raise ZeroDivisionError
            p, q = other.denominator, other.numerator
            return self._scaled(p, q) if q > 0 else self._scaled(-p, -q)
        a, b = self._promote(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self._rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ------------------------------------------------------
    def __eq__(self, other):
        if type(other) is Cyclotomic and other.field is self.field:
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Q)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and not any(self.num[1:]))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._promote(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # the normalized trace Tr(x)/phi(n): unchanged by the embedding of
        # Q(zeta_n) in Q(zeta_m), as == is, and equal to x for a rational x
        fld = self.field
        return hash(Q(sum(x * t for x, t in zip(self.num, fld._traces)),
                      self.den * fld.degree))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return f"Cyc({self.field.n}; {list(self.coeffs)})"


def _reduced_power(field: _CycField, k: int) -> Tuple[int, ...]:
    """Integer coefficient vector of x^k mod the field's cyclotomic polynomial."""
    k %= field.n
    d = field.degree
    vec = [0] * d
    if k < d:
        vec[k] = 1
        return tuple(vec)
    vec[0] = 1
    low = field._powers[0]
    for _ in range(k):
        top = vec[d - 1]
        vec = [0] + vec[: d - 1]
        if top:
            vec = [x + top * y for x, y in zip(vec, low)]
    return tuple(vec)


def _gaussian(a: int, b: int, d: int) -> "Gaussian":
    """(a + b i) / d for d > 0, with the gcd of a, b and d divided out."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = object.__new__(Gaussian)
    x.a, x.b, x.d = a, b, d
    return x


class Gaussian:
    """Exact Gaussian rational (a + b i) / d in integer form.

    The transport layer keeps polygon vertices and the data of each Taylor
    step in this form.  Q(i) is also the cyclotomic field of order 4; like
    Cyclotomic, an element is held as integer numerators a, b over one
    denominator d > 0 with gcd(a, b, d) = 1, so that each element has one
    form and every operation is integer arithmetic with one gcd.  re and im
    are read-only Fraction views of the parts; a rational operand (int or
    Fraction) is read as its numerator and denominator.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        # rationals re/p and im/q in lowest terms give a, b over d = lcm(p, q)
        # with gcd(a, b, d) = 1 already
        re = re if isinstance(re, (int, Q)) else Q(re)
        im = im if isinstance(im, (int, Q)) else Q(im)
        p, q = re.denominator, im.denominator
        d = math.lcm(p, q)
        self.a = re.numerator * (d // p)
        self.b = im.numerator * (d // q)
        self.d = d

    @property
    def re(self) -> Q:
        return Q(self.a, self.d)

    @property
    def im(self) -> Q:
        return Q(self.b, self.d)

    def _sum(self, a: int, b: int, d: int) -> "Gaussian":
        """self + (a + b i) / d, d > 0."""
        e = self.d
        if e == d:
            return _gaussian(self.a + a, self.b + b, d)
        g = math.gcd(e, d)
        fs, fo = d // g, e // g
        return _gaussian(self.a * fs + a * fo, self.b * fs + b * fo, e * fs)

    def __add__(self, o):
        if type(o) is Gaussian:
            return self._sum(o.a, o.b, o.d)
        if isinstance(o, (int, Q)):
            return self._sum(o.numerator, 0, o.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is Gaussian:
            return self._sum(-o.a, -o.b, o.d)
        if isinstance(o, (int, Q)):
            return self._sum(-o.numerator, 0, o.denominator)
        return NotImplemented

    def __rsub__(self, o):
        return (-self).__add__(o)

    def __neg__(self):
        return _gaussian(-self.a, -self.b, self.d)

    def __mul__(self, o):
        if type(o) is Gaussian:
            a, b, c, e = self.a, self.b, o.a, o.b
            return _gaussian(a * c - b * e, a * e + b * c, self.d * o.d)
        if isinstance(o, (int, Q)):
            n = o.numerator
            return _gaussian(self.a * n, self.b * n, self.d * o.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _over(self, c: int, e: int, f: int) -> "Gaussian":
        """self / ((c + e i) / f), f > 0."""
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("Gaussian division by zero")
        a, b = self.a, self.b
        return _gaussian((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __truediv__(self, o):
        if type(o) is Gaussian:
            return self._over(o.a, o.b, o.d)
        if isinstance(o, (int, Q)):
            n, m = o.numerator, o.denominator
            if not n:
                raise ZeroDivisionError("Gaussian division by zero")
            if n < 0:
                n, m = -n, -m
            return _gaussian(self.a * m, self.b * m, self.d * n)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, (int, Q)):
            return Gaussian(o)._over(self.a, self.b, self.d)
        return NotImplemented

    def __pow__(self, e: int):
        base = self if e >= 0 else 1 / self
        out = Gaussian(1)
        for _ in range(abs(e)):
            out = out * base
        return out

    def conjugate(self) -> "Gaussian":
        return _gaussian(self.a, -self.b, self.d)

    def norm(self) -> Q:
        """|x|^2, exactly."""
        return Q(self.a * self.a + self.b * self.b, self.d * self.d)

    def __eq__(self, o):
        # one form per element: integer compares
        if type(o) is Gaussian:
            return self.a == o.a and self.b == o.b and self.d == o.d
        if isinstance(o, (int, Q)):
            return not self.b and self.a == o.numerator and self.d == o.denominator
        return NotImplemented

    def __hash__(self):
        # that of the rational when the imaginary part is 0, as == is
        if not self.b:
            return hash(self.a) if self.d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        return f"Gaussian({self.re}, {self.im})"



def _trim(p):
    p = p[:]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num, den):
    num = _trim(num[:])
    den = _trim(den[:])
    if len(num) < len(den):
        return [Q(0)], num
    out = [Q(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return out, _trim(num[: len(den) - 1])


def _poly_mul(a, b):
    out = [0 * a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [Q(0)] * (n - len(a))
    b = b + [Q(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def root_of_unity(exponent: Rat) -> Cyclotomic:
    """e^exponent under the convention e^z = exp(2*pi*i*z), for rational exponent."""
    q = Q(exponent)
    n = q.denominator
    k = q.numerator % n
    fld = cyclotomic_field(n)
    return Cyclotomic(fld, _reduced_power(fld, k))


def rational_mpf(num: int, den: int) -> tuple:
    """num/den, den > 0, rounded once to the working precision, to nearest, as a libmp mpf.

    One shift and one divmod: the quotient is taken to prec + 1 or prec + 2
    bits, the dropped bits and the remainder round it half to even, and its
    trailing zeros are stripped, so the tuple is the normalized one that
    libmp's from_rational(num, den, prec, round_nearest) returns.
    """
    if not num:
        return fzero
    prec = mpmath.mp.prec
    sign = 0
    if num < 0:
        sign, num = 1, -num
    shift = prec + 1 + den.bit_length() - num.bit_length()
    if shift >= 0:
        man, rem = divmod(num << shift, den)
    else:
        man, rem = divmod(num, den << -shift)
    extra = man.bit_length() - prec
    low = man & ((1 << extra) - 1)
    man >>= extra
    half = 1 << (extra - 1)
    if low > half or (low == half and (rem or man & 1)):
        man += 1
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (sign, man, extra + zeros - shift, man.bit_length())


def to_mpc(x) -> mpmath.mpc:
    """One-way exact -> high-precision-complex conversion.

    A rational, or each part of a Gaussian rational, is rounded once to the
    working precision (rational_mpf, the package's one rational -> mpmath
    rounding); a cyclotomic element is its coefficients num[k]/den, so
    rounded, summed in powers of zeta.
    """
    if isinstance(x, Cyclotomic):
        zeta = mpmath.exp(2j * mpmath.pi / x.field.n)
        acc = mpmath.mpc(0)
        for k in range(x.field.degree - 1, -1, -1):
            acc = acc * zeta + mpmath.mp.make_mpc((rational_mpf(x.num[k], x.den), fzero))
        return acc
    if isinstance(x, Gaussian):
        return mpmath.mp.make_mpc((rational_mpf(x.a, x.d), rational_mpf(x.b, x.d)))
    if isinstance(x, Q):
        return mpmath.mp.make_mpc((rational_mpf(x.numerator, x.denominator), fzero))
    return mpmath.mpc(x)


def scalar_eq(a, b) -> bool:
    """Exact equality across the rational/cyclotomic variants."""
    if isinstance(a, Cyclotomic) or isinstance(b, Cyclotomic):
        if not isinstance(a, Cyclotomic):
            a, b = b, a
        return a == b
    return a == b
