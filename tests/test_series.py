from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asmtree.combinat import count_compositions_1_2, factorial
from asmtree.formulas import (
    connected_cycle,
    fubini,
    super_catalan,
    td_connected_cycle,
)
from asmtree.series import (
    FunctionalEqCheck,
    PowerSeries,
    check_td_path_functional_eq,
    dump_coefficients,
    egf_fubini,
    egf_td_cycle,
    ogf_connected_cycle,
    ogf_super_catalan,
)

from oracles import (
    count_1_2_compositions,
    series_compose,
    series_exp,
    series_product,
    series_reciprocal,
    series_sqrt,
)


# ------------------------------------------------------------ the arithmetic


def test_construction_and_accessors():
    s = PowerSeries([1, Fraction(1, 2), 3])
    assert s.order == 2
    assert s.coefficients() == (1, Fraction(1, 2), 3)
    assert s.coefficient(1) == Fraction(1, 2)
    assert isinstance(s.coefficient(0), Fraction)
    with pytest.raises(ValueError):
        PowerSeries([])
    with pytest.raises(ValueError):
        s.coefficient(3)
    with pytest.raises(ValueError):
        s.coefficient(-1)


def test_named_constructors():
    assert PowerSeries.zero(3).coefficients() == (0, 0, 0, 0)
    assert PowerSeries.constant(7, 2).coefficients() == (7, 0, 0)
    assert PowerSeries.x(4).coefficients() == (0, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        PowerSeries.x(0)


def test_truncate():
    s = PowerSeries([1, 2, 3, 4])
    assert s.truncate(1).coefficients() == (1, 2)
    assert s.truncate(3) == s
    with pytest.raises(ValueError):
        s.truncate(4)
    with pytest.raises(ValueError):
        s.truncate(-1)


def test_basic_arithmetic():
    x = PowerSeries.x(4)
    assert ((1 + x) * (1 - x)).coefficients() == (1, 0, -1, 0, 0)
    assert (x - x) == PowerSeries.zero(4)
    assert (-x).coefficient(1) == -1
    assert (3 * x + 1).coefficients() == (1, 3, 0, 0, 0)
    assert (2 - x).coefficients() == (2, -1, 0, 0, 0)
    assert (x + Fraction(1, 3)).coefficient(0) == Fraction(1, 3)


def test_operations_truncate_to_the_shorter_operand():
    long = PowerSeries([1, 1, 1, 1, 1, 1])
    short = PowerSeries([1, 2, 3])
    assert (long + short).order == 2
    assert (long * short).order == 2
    assert (long * short).coefficients() == (1, 3, 6)


def test_equality_is_truncation_aware():
    assert PowerSeries([1, 2, 3]) == PowerSeries([1, 2])
    assert PowerSeries([1, 2, 3]) != PowerSeries([1, 5])
    assert PowerSeries([5, 0, 0]) == 5
    assert PowerSeries([5, 1]) != 5
    with pytest.raises(TypeError):
        hash(PowerSeries([1]))


def test_reciprocal():
    x = PowerSeries.x(8)
    geometric = (1 - x).reciprocal()
    assert geometric.coefficients() == (1,) * 9
    s = PowerSeries([2, -5, 1, Fraction(3, 7), 0, 2])
    assert s * s.reciprocal() == 1
    with pytest.raises(ValueError):
        PowerSeries.x(3).reciprocal()


def test_sqrt():
    x = PowerSeries.x(6)
    assert ((1 + x) * (1 + x)).sqrt() == 1 + x
    root = (1 - 6 * x + x * x).sqrt()
    assert root.coefficients()[:5] == (1, -3, -4, -12, -44)
    assert root * root == 1 - 6 * x + x * x
    with pytest.raises(ValueError):
        (2 + x).sqrt()


def test_exp():
    x = PowerSeries.x(7)
    e = x.exp()
    assert [e.coefficient(k) for k in range(8)] == [
        Fraction(1, factorial(k)) for k in range(8)
    ]
    assert e * (-x).exp() == 1
    with pytest.raises(ValueError):
        (1 + x).exp()


def test_compose():
    x = PowerSeries.x(6)
    p = 1 + 2 * x + 3 * x * x
    assert p.compose([0, 1]) == p
    assert (x * x).compose([0, 1, 1]).coefficients() == (0, 0, 1, 2, 1, 0, 0)
    assert p.compose(PowerSeries([0, 1, 1])) == p.compose([0, 1, 1])
    with pytest.raises(ValueError):
        p.compose([1, 1])


def test_compose_geometric_with_x_plus_x_squared():
    # 1/(1 - x - x^2): compositions of n into parts 1 and 2
    geometric = (1 - PowerSeries.x(12)).reciprocal()
    composed = geometric.compose([0, 1, 1])
    for n in range(13):
        expected = sum(count_compositions_1_2(n, k) for k in range(n + 1))
        assert composed.coefficient(n) == expected == count_1_2_compositions(n)


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _same_order_series(draw, count):
    order = draw(st.integers(min_value=0, max_value=6))
    return tuple(
        PowerSeries(draw(st.lists(_coeff, min_size=order + 1, max_size=order + 1)))
        for _ in range(count)
    )


@given(_same_order_series(3))
def test_ring_axioms(series):
    a, b, c = series
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a


@given(_same_order_series(1), _coeff.filter(lambda f: f != 0))
def test_inverse_identities(series, const):
    (a,) = series
    tail = a.coefficients()[1:]
    invertible = PowerSeries((const, *tail))
    assert invertible * invertible.reciprocal() == 1
    zero_const = PowerSeries((0, *tail))
    assert zero_const.exp() * (-zero_const).exp() == 1
    unit_const = PowerSeries((1, *tail))
    root = unit_const.sqrt()
    assert root * root == unit_const


# Orders 0..6 and small fractions, signs and denominators included; inner
# polynomials run from shorter than the outer series to longer.
_coeffs = st.lists(_coeff, min_size=1, max_size=7)


def _values(series):
    got = series.coefficients()
    assert all(type(c) is Fraction for c in got)
    return list(got)


@given(_coeffs, _coeffs, _coeff)
def test_arithmetic_matches_the_list_reference(a, b, k):
    sa, sb = PowerSeries(a), PowerSeries(b)
    n = min(len(a), len(b))
    assert _values(sa) == a
    assert _values(sa + sb) == [x + y for x, y in zip(a, b)]
    assert _values(sa - sb) == [x - y for x, y in zip(a, b)]
    assert _values(-sa) == [-x for x in a]
    assert _values(sa * sb) == series_product(a, b)
    assert _values(sa * k) == _values(k * sa) == [k * x for x in a]
    assert _values(sa + k) == [a[0] + k] + a[1:]
    assert _values(k - sa) == [k - a[0]] + [-x for x in a[1:]]
    for order in range(len(a)):
        assert _values(sa.truncate(order)) == a[: order + 1]
    assert (sa == sb) is (a[:n] == b[:n])
    # a prefix of a series equals it, whatever follows in either
    assert sa == PowerSeries(a[:n] + b[n:]) == sa.truncate(n - 1)
    assert (sa == k) is (a == [k] + [0] * (len(a) - 1))


@given(_coeffs, _coeffs)
def test_recurrences_match_the_list_reference(a, b):
    if a[0]:
        assert _values(PowerSeries(a).reciprocal()) == series_reciprocal(a)
    zero_const = [Fraction(0)] + a[1:]
    assert _values(PowerSeries(zero_const).exp()) == series_exp(zero_const)
    unit_const = [Fraction(1)] + a[1:]
    assert _values(PowerSeries(unit_const).sqrt()) == series_sqrt(unit_const)
    inner = [Fraction(0)] + b[1:]
    expected = series_compose(a, inner)
    assert _values(PowerSeries(a).compose(inner)) == expected
    assert _values(PowerSeries(a).compose(PowerSeries(inner))) == expected


# ------------------------------------------------------ generating functions


def test_fubini_generating_function():
    s = egf_fubini(12)
    for k in range(13):
        scaled = s.coefficient(k) * factorial(k)
        assert scaled.denominator == 1
        assert scaled == fubini(k)
    assert s.coefficient(3) == Fraction(13, 6)


def test_super_catalan_generating_function():
    s = ogf_super_catalan(12)
    assert s.coefficient(0) == 0
    for n in range(1, 13):
        c = s.coefficient(n)
        assert c.denominator == 1
        assert c == super_catalan(n)


def test_cycle_generating_function():
    s = ogf_connected_cycle(12)
    assert s.coefficient(0) == 0
    assert s.coefficient(1) == 1
    for n in range(3, 13):
        c = s.coefficient(n)
        assert c.denominator == 1
        assert c == connected_cycle(n)


def test_timed_cycle_generating_function():
    s = egf_td_cycle(12)
    assert s.coefficient(0) == 0
    assert s.coefficients()[:7] == (
        0,
        1,
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(23, 24),
        Fraction(83, 60),
        Fraction(479, 240),
    )
    for n in range(1, 13):
        scaled = s.coefficient(n) * factorial(n)
        assert scaled.denominator == 1
        assert scaled == td_connected_cycle(n)


def test_td_path_functional_equation():
    assert check_td_path_functional_eq(2) == FunctionalEqCheck(True, None)
    assert check_td_path_functional_eq(10) == FunctionalEqCheck(True, None)
    assert check_td_path_functional_eq(15) == FunctionalEqCheck(True, None)


def test_td_path_functional_equation_spots_corruption():
    ok, where = check_td_path_functional_eq(6, [1, 1, 99, 7, 34, 214])
    assert not ok
    assert where == 3


def test_td_path_functional_equation_input_checks():
    with pytest.raises(ValueError):
        check_td_path_functional_eq(1)
    with pytest.raises(ValueError):
        check_td_path_functional_eq(6, [1, 1, 2, 7, 34])


def test_dump_coefficients():
    assert (
        dump_coefficients(PowerSeries([1, Fraction(1, 2), 3]))
        == "0\t1\n1\t1/2\n2\t3"
    )
    assert dump_coefficients(PowerSeries([Fraction(-2, 4)])) == "0\t-1/2"


def test_repr_shows_six_coefficients_and_the_order():
    assert repr(PowerSeries([1, 2, 3, 4, 5, 6, 7])) == (
        "PowerSeries([1, 2, 3, 4, 5, 6, ...], order=6)"
    )
    assert repr(PowerSeries([1])) == "PowerSeries([1], order=0)"
    assert repr(PowerSeries([Fraction(1, 2), 3])) == "PowerSeries([1/2, 3], order=1)"


def test_arithmetic_with_a_non_number_is_refused():
    ps = PowerSeries([1, 2, 3])
    for op in (
        lambda: ps + "a",
        lambda: "a" - ps,
        lambda: ps - "a",
        lambda: ps * None,
    ):
        with pytest.raises(TypeError):
            op()
    assert (ps == "a") is False
    assert ps != "a"
