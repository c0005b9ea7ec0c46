"""Exact scalars: rationals, Gaussian rationals, cyclotomic number fields, and float conversion."""
from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Tuple, Union

import mpmath
from mpmath.libmp import from_rational, fzero, round_nearest

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
        self._powers = self._reduce_powers()

    def _reduce_powers(self):
        d = self.degree
        rows = []
        cur = [Q(0)] * d
        # start with x^d = -(lower part of modulus)
        for i in range(d):
            cur[i] = -self.modulus[i] / self.modulus[d]
        rows.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [Q(0)] * d
            for i in range(d - 1):
                nxt[i + 1] = cur[i]
            top = cur[d - 1]
            if top:
                for i in range(d):
                    nxt[i] += top * rows[0][i]
            rows.append(tuple(nxt))
            cur = nxt
        return rows

    def element(self, coeffs) -> "Cyclotomic":
        c = [x if type(x) is Q else Q(x) for x in coeffs]
        if len(c) < self.degree:
            c += [Q(0)] * (self.degree - len(c))
        return Cyclotomic(self, tuple(c[: self.degree]))


_FIELDS: dict = {}


def cyclotomic_field(n: int) -> _CycField:
    if n < 1:
        raise ValueError("field index must be positive")
    if n not in _FIELDS:
        _FIELDS[n] = _CycField(n)
    return _FIELDS[n]


class Cyclotomic:
    """Exact element of Q(zeta_n) with decidable equality."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: _CycField, coeffs: Tuple[Q, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- promotion -------------------------------------------------------
    def _promote(self, other):
        if isinstance(other, (int, Q)):
            other = cyclotomic_field(self.field.n).element(
                [other] + [0] * (self.field.degree - 1)
            )
        if not isinstance(other, Cyclotomic):
            return None, None
        if other.field.n == self.field.n:
            return self, other
        m = math.lcm(self.field.n, other.field.n)
        return self._embed(m), other._embed(m)

    def _embed(self, m: int) -> "Cyclotomic":
        if m == self.field.n:
            return self
        step = m // self.field.n
        fld = cyclotomic_field(m)
        acc = [Q(0)] * fld.degree
        for k, c in enumerate(self.coeffs):
            if c:
                mono = _reduced_power(fld, k * step)
                for i, v in enumerate(mono):
                    acc[i] += c * v
        return fld.element(acc)

    # -- arithmetic ------------------------------------------------------
    # Operands in one field take a fast path: their coefficients are
    # Fractions already, and so are the sums and products made of them.
    def __add__(self, other):
        if type(other) is Cyclotomic and other.field is self.field:
            return Cyclotomic(self.field, tuple(
                x + y for x, y in zip(self.coeffs, other.coeffs)))
        if isinstance(other, (int, Q)) and not other:
            return self  # an exact 0, as sums started at Q(0) add
        a, b = self._promote(other)
        if a is None:
            return NotImplemented
        return a.field.element([x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        if type(other) is Cyclotomic and other.field is self.field:
            return Cyclotomic(self.field, tuple(
                x - y for x, y in zip(self.coeffs, other.coeffs)))
        a, b = self._promote(other)
        if a is None:
            return NotImplemented
        return a.field.element([x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            return self.field.element([c * other for c in self.coeffs])
        if type(other) is Cyclotomic and other.field is self.field:
            a, b = self, other
        else:
            a, b = self._promote(other)
            if a is None:
                return NotImplemented
        d = a.field.degree
        raw = [Q(0)] * (2 * d - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    raw[i + j] += x * y
        out = list(raw[:d])
        for k in range(d, 2 * d - 1):
            if raw[k]:
                row = a.field._powers[k - d]
                for i in range(d):
                    out[i] += raw[k] * row[i]
        return Cyclotomic(a.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        # extended Euclid in Q[x] against the modulus
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
            return self.field.element([c / other for c in self.coeffs])
        a, b = self._promote(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.element([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Q)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._promote(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field.n, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"Cyc({self.field.n}; {list(self.coeffs)})"


def _reduced_power(field: _CycField, k: int):
    """Coefficient vector of x^k mod the field's cyclotomic polynomial."""
    k %= field.n
    d = field.degree
    if k < d:
        return tuple(Q(1) if i == k else Q(0) for i in range(d))
    cur = list(field._powers[0]) if k >= d else None
    # iterate: multiply by x, reduce
    vec = [Q(0)] * d
    vec[0] = Q(1)
    for _ in range(k):
        top = vec[d - 1]
        vec = [Q(0)] + vec[: d - 1]
        if top:
            for i in range(d):
                vec[i] += top * field._powers[0][i]
    return tuple(vec)


class Gaussian:
    """Exact Gaussian rational re + im*i with Fraction parts.

    The transport layer keeps polygon vertices and the data of each Taylor
    step in this form.  Q(i) is also the cyclotomic field of order 4, but
    Cyclotomic reaches it through generic polynomial reduction; this class
    is the handful of operations a step needs, on two Fractions.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Q else Q(re)
        self.im = im if type(im) is Q else Q(im)

    def __add__(self, o):
        if isinstance(o, Gaussian):
            return Gaussian(self.re + o.re, self.im + o.im)
        return Gaussian(self.re + o, self.im)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Gaussian):
            return Gaussian(self.re - o.re, self.im - o.im)
        return Gaussian(self.re - o, self.im)

    def __rsub__(self, o):
        return Gaussian(o - self.re, -self.im)

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __mul__(self, o):
        if isinstance(o, Gaussian):
            return Gaussian(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)
        return Gaussian(self.re * o, self.im * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Gaussian):
            n = o.norm()
            return Gaussian((self.re * o.re + self.im * o.im) / n,
                            (self.im * o.re - self.re * o.im) / n)
        return Gaussian(self.re / o, self.im / o)

    def __pow__(self, e: int):
        base = self if e >= 0 else 1 / self
        out = Gaussian(1)
        for _ in range(abs(e)):
            out = out * base
        return out

    def __rtruediv__(self, o):
        return Gaussian(o) / self

    def conjugate(self) -> "Gaussian":
        return Gaussian(self.re, -self.im)

    def norm(self) -> Q:
        """|x|^2, exactly."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, o):
        if isinstance(o, Gaussian):
            return self.re == o.re and self.im == o.im
        if isinstance(o, (int, Q)):
            return self.im == 0 and self.re == o
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

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
    return fld.element(_reduced_power(fld, k))


def rational_mpf(num: int, den: int) -> tuple:
    """num/den rounded once to the working precision, to nearest, as a libmp mpf."""
    return from_rational(num, den, mpmath.mp.prec, round_nearest) if num else fzero


def to_mpc(x) -> mpmath.mpc:
    """One-way exact -> high-precision-complex conversion.

    A rational, or each part of a Gaussian rational, is rounded once to the
    working precision (rational_mpf, the package's one rational -> mpmath
    rounding); a cyclotomic element is its coefficients, so rounded, summed
    in powers of zeta.
    """
    if isinstance(x, Cyclotomic):
        zeta = mpmath.exp(2j * mpmath.pi / x.field.n)
        acc = mpmath.mpc(0)
        for k in range(x.field.degree - 1, -1, -1):
            acc = acc * zeta + to_mpc(x.coeffs[k])
        return acc
    if isinstance(x, (Q, Gaussian)):
        parts = (x.re, x.im) if isinstance(x, Gaussian) else (x, 0)
        return mpmath.mp.make_mpc(tuple(rational_mpf(y.numerator, y.denominator) for y in parts))
    return mpmath.mpc(x)


def scalar_eq(a, b) -> bool:
    """Exact equality across the rational/cyclotomic variants."""
    if isinstance(a, Cyclotomic) or isinstance(b, Cyclotomic):
        if not isinstance(a, Cyclotomic):
            a, b = b, a
        return a == b
    return a == b
