"""Truncated formal power series over exact rationals, plus the generating
functions whose coefficients must reproduce the counting formulas.

A PowerSeries holds coefficients 0..order as integer numerators over one
positive common denominator, kept in lowest terms, so all arithmetic runs
on ints and nothing is ever rounded; `coefficient` and `coefficients`
hand out Fractions. Binary operations truncate to the shorter operand, and
equality compares values coefficientwise up to the shared order, which is
the natural notion for truncated series (and the reason instances are
unhashable).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence, Union

from . import formulas

Scalar = Union[int, Fraction]


def _product(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Terms 0..n of the product of two integer coefficient sequences,
    each a dot product summed in C. Zero terms are not skipped: that saved
    about a millisecond at order 120 and nothing on the dense products
    that dominate at high order."""
    return [sum(map(mul, a[: k + 1], reversed(b[: k + 1]))) for k in range(n + 1)]


def _lowest(num: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """num / den (den > 0) with their common factor divided out."""
    g = gcd(den, *num)
    if g == 1:
        return num, den
    return [c // g for c in num], den // g


def _push(num: list[int], den: int, p: int, q: int) -> int:
    """Append p / q (q != 0) to the numerators `num` over `den`, widening
    the common denominator as little as the new term needs; return it."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    p //= g
    q //= g
    widen = q // gcd(den, q)
    if widen > 1:
        num[:] = map(widen.__mul__, num)
        den *= widen
    num.append(p * (den // q))
    return den


class PowerSeries:
    """A formal power series known exactly up to x**order.

    Coefficient k is `_num[k] / _den`, with `_den` > 0 and no common factor
    of `_den` and all of `_num`.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar]) -> None:
        values = [Fraction(c) for c in coeffs]
        if not values:
            raise ValueError("a series needs at least its constant term")
        # the lcm of denominators in lowest terms leaves no common factor
        den = lcm(*(v.denominator for v in values))
        self._num = tuple(v.numerator * (den // v.denominator) for v in values)
        self._den = den

    @classmethod
    def _of(cls, num: Sequence[int], den: int) -> "PowerSeries":
        """The series num / den (den > 0), brought to lowest terms."""
        ps = object.__new__(cls)
        num, ps._den = _lowest(num, den)
        ps._num = tuple(num)
        return ps

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([0] * (order + 1))

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "PowerSeries":
        return cls([value] + [0] * order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        """The identity series x, truncated at the given order."""
        if order < 1:
            raise ValueError("order must be at least 1 to represent x")
        return cls([0, 1] + [0] * (order - 1))

    @property
    def order(self) -> int:
        return len(self._num) - 1

    def coefficient(self, k: int) -> Fraction:
        """The coefficient of x**k; k must be within the truncation."""
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient {k} outside truncation order {self.order}")
        return Fraction(self._num[k], self._den)

    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    def truncate(self, order: int) -> "PowerSeries":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {order}")
        return PowerSeries._of(self._num[: order + 1], self._den)

    def _coerce(self, other: object) -> "PowerSeries | None":
        if isinstance(other, PowerSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return PowerSeries.constant(other, self.order)
        return None

    def __add__(self, other: object) -> "PowerSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        den = lcm(self._den, rhs._den)
        num = map(
            add,
            map((den // self._den).__mul__, self._num[: n + 1]),
            map((den // rhs._den).__mul__, rhs._num[: n + 1]),
        )
        return PowerSeries._of(list(num), den)

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries._of([-c for c in self._num], self._den)

    def __sub__(self, other: object) -> "PowerSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "PowerSeries":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __mul__(self, other: object) -> "PowerSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return PowerSeries._of(_product(self._num, rhs._num, n), self._den * rhs._den)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # Prefixes need not be in lowest terms, so compare cross products.
        n = min(self.order, rhs.order)
        return list(map(rhs._den.__mul__, self._num[: n + 1])) == list(
            map(self._den.__mul__, rhs._num[: n + 1])
        )

    # Equality is truncation-aware, so instances must not be hashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(str(Fraction(c, self._den)) for c in self._num[:6])
        if self.order > 5:
            shown += ", ..."
        return f"PowerSeries([{shown}], order={self.order})"

    def reciprocal(self) -> "PowerSeries":
        """The series b with self * b == 1; needs a nonzero constant term."""
        a, d = self._num, self._den
        if a[0] == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        # b_0 = 1 / a_0 and b_n = -(sum of a_i b_(n-i), 1 <= i <= n) / a_0;
        # with a = A / d and b = out / den that is b_n = -s / (A_0 den).
        out: list[int] = []
        den = _push(out, 1, d, a[0])
        for n in range(1, self.order + 1):
            s = sum(map(mul, a[1 : n + 1], reversed(out)))
            den = _push(out, den, -s, a[0] * den)
        return PowerSeries._of(out, den)

    def sqrt(self) -> "PowerSeries":
        """The series s with s * s == self; needs constant term 1."""
        a, d = self._num, self._den
        if a[0] != d:
            raise ValueError("sqrt needs constant term 1")
        # s_n = (a_n - sum of s_i s_(n-i), 0 < i < n) / 2
        out, den = [1], 1
        for n in range(1, self.order + 1):
            s = sum(map(mul, out[1:n], reversed(out[1:n])))
            den = _push(out, den, a[n] * den * den - s * d, 2 * d * den * den)
        return PowerSeries._of(out, den)

    def exp(self) -> "PowerSeries":
        """exp of the series; needs constant term 0 so the result is exact."""
        a, d = self._num, self._den
        if a[0] != 0:
            raise ValueError("exp needs constant term 0")
        # e_n = (sum of k a_k e_(n-k), 1 <= k <= n) / n
        ka = [k * c for k, c in enumerate(a)]
        out, den = [1], 1
        for n in range(1, self.order + 1):
            s = sum(map(mul, ka[1 : n + 1], reversed(out)))
            den = _push(out, den, s, n * d * den)
        return PowerSeries._of(out, den)

    def compose(self, inner: "PowerSeries | Iterable[Scalar]") -> "PowerSeries":
        """self(inner(x)) truncated to self.order.

        `inner` is treated as an exact polynomial (missing high terms are
        zero) and must have zero constant term, otherwise the composition
        would need infinitely many terms of self.
        """
        if not isinstance(inner, PowerSeries):
            inner = PowerSeries(inner)
        if inner._num[0] != 0:
            raise ValueError("compose needs an inner polynomial with zero constant term")
        # With self = c / d and inner = q / e on integers, Horner's rule
        # h = h q / e + c_k from the top term down, with h held as integers
        # over hden in lowest terms, leaves self(inner) = h / (hden d).
        order, c, e = self.order, self._num, inner._den
        terms = [(j, qj) for j, qj in enumerate(inner._num[: order + 1]) if qj]
        h, hden = [c[order]] + [0] * order, 1
        for k in range(order - 1, -1, -1):
            hden *= e
            nxt = [c[k] * hden] + [0] * order
            for j, qj in terms:
                nxt[j:] = map(add, nxt[j:], map(qj.__mul__, h[: order + 1 - j]))
            h, hden = _lowest(nxt, hden)
        return PowerSeries._of(h, hden * self._den)


def dump_coefficients(ps: PowerSeries) -> str:
    """One line per coefficient: "k<TAB>num/den", denominator omitted when
    it is 1. This is the CLI's exchange format."""
    lines = []
    for k, c in enumerate(ps.coefficients()):
        if c.denominator == 1:
            lines.append(f"{k}\t{c.numerator}")
        else:
            lines.append(f"{k}\t{c.numerator}/{c.denominator}")
    return "\n".join(lines)


def egf_fubini(order: int) -> PowerSeries:
    """1 / (2 - e^x): coefficient of x^k times k! counts ordered set
    partitions of a k-set, including the empty one at k = 0."""
    x = PowerSeries.x(order)
    return (2 - x.exp()).reciprocal()


def ogf_super_catalan(order: int) -> PowerSeries:
    """(1 + x - sqrt(1 - 6x + x^2)) / 4: coefficient of x^n counts plane
    trees with n leaves and no single-child nodes."""
    x = PowerSeries.x(order)
    root = (1 - 6 * x + x * x).sqrt()
    return (1 + x - root) * Fraction(1, 4)


def ogf_connected_cycle(order: int) -> PowerSeries:
    """Ordinary generating function of the connected-rule cycle counts;
    coefficients at n >= 3 match connected_cycle(n)."""
    x = PowerSeries.x(order)
    root = (1 - 6 * x + x * x).sqrt()
    return (x * x + x - x * root) * (4 * root).reciprocal() + x


def egf_td_cycle(order: int) -> PowerSeries:
    """(x - x e^x + e^x - 1) / (2 - e^x): coefficient of x^n times n!
    counts timed connected-rule trees of the n-cycle."""
    x = PowerSeries.x(order)
    e = x.exp()
    return (x - x * e + e - 1) * (2 - e).reciprocal()


class FunctionalEqCheck(NamedTuple):
    ok: bool
    first_mismatch: int | None


def check_td_path_functional_eq(
    order: int, coefficients: Iterable[int] | None = None
) -> FunctionalEqCheck:
    """Verify 2 P(x) - P(x + x^2) == x up to the given order, where P is
    the ordinary generating function of the timed edge-rule path counts.

    `coefficients` overrides the sequence (index 1 first); that hook exists
    so tests can corrupt a term and watch the check fail. Returns the
    verdict and the first mismatching exponent, if any.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if coefficients is None:
        coeffs = [formulas.td_edge_path(n) for n in range(1, order + 1)]
    else:
        coeffs = list(coefficients)[:order]
        if len(coeffs) < order:
            raise ValueError(f"need at least {order} coefficients, got {len(coeffs)}")
    p = PowerSeries([0, *coeffs])
    lhs = 2 * p - p.compose([0, 1, 1])
    x = PowerSeries.x(order)
    for k in range(order + 1):
        if lhs.coefficient(k) != x.coefficient(k):
            return FunctionalEqCheck(False, k)
    return FunctionalEqCheck(True, None)
