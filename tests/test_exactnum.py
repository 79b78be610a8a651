"""Exact cyclotomic scalars and three-variable Laurent polynomials."""

import cmath
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from yokohecke import exactnum
from yokohecke.exactnum import Cyclo, LPoly, cyclotomic_polynomial, euler_phi, root_power

# ---------------------------------------------------------------------------
# cyclotomic scalars
# ---------------------------------------------------------------------------


def test_euler_phi_against_sympy():
    for d in range(1, 31):
        assert euler_phi(d) == sympy.totient(d)


def test_zeta_satisfies_minimal_polynomial():
    # the d-th cyclotomic polynomial annihilates zeta_d: reduce it by hand
    for d in range(1, 13):
        poly = sympy.cyclotomic_poly(d, sympy.Symbol("x"))
        coeffs = sympy.Poly(poly, sympy.Symbol("x")).all_coeffs()[::-1]
        acc = Cyclo.zero(d)
        for k, c in enumerate(coeffs):
            acc = acc + Cyclo.zeta(d, k) * Fraction(int(c))
        assert acc.is_zero(), d


X = sympy.Symbol("x")


def _sympy_phi(d):
    return sympy.Poly(sympy.cyclotomic_poly(d, X), X)


def _ascending(poly, length):
    """The integer coefficients of a sympy Poly, ascending, padded to length."""
    coeffs = [int(c) for c in poly.all_coeffs()[::-1]]
    return coeffs + [0] * (length - len(coeffs))


def test_cyclotomic_polynomial_against_sympy():
    # the Moebius product for every d <= 300, and at d = 12000, whose phi is 3200
    for d in [*range(1, 301), 12000]:
        expected = sympy.cyclotomic_poly(d, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(d) == tuple(int(c) for c in expected), d


def test_reduction_modulo_phi_against_sympy():
    # Phi_d, zeta^s and products of random elements against sympy's
    # remainders; s always includes phi(d), the first power that divides
    rng = random.Random(15)
    for d in range(1, 41):
        phi_d = _sympy_phi(d)
        phi = phi_d.degree()
        assert cyclotomic_polynomial(d) == tuple(_ascending(phi_d, phi + 1)), d
        powers = {0, phi, d - 1} | {rng.randrange(d) for _ in range(3)}
        for s in powers:
            rem = sympy.Poly(X**s, X).rem(phi_d)
            assert Cyclo.zeta(d, s).num == tuple(_ascending(rem, phi)), (d, s)
        for _ in range(10):
            da, db = rng.randint(1, 6), rng.randint(1, 6)
            na = [rng.randint(-9, 9) for _ in range(phi)]
            nb = [rng.randint(-9, 9) for _ in range(phi)]
            a = Cyclo(d, [Fraction(n, da) for n in na])
            b = Cyclo(d, [Fraction(n, db) for n in nb])
            prod = sympy.Poly(na[::-1], X) * sympy.Poly(nb[::-1], X)
            rem = _ascending(prod.rem(phi_d), phi)
            assert a * b == Cyclo(d, [Fraction(c, da * db) for c in rem]), (d, na, nb)


def test_reduction_at_a_large_order():
    # d = 4000, phi = 1600: zeta^{d-1} needs 2399 division steps
    d = 4000
    last = Cyclo.zeta(d, d - 1)
    rem = sympy.Poly(X ** (d - 1), X).rem(_sympy_phi(d))
    assert last.num == tuple(_ascending(rem, euler_phi(d)))
    assert last * Cyclo.zeta(d) == Cyclo.one(d)


def test_zeta_power_wraps_modulo_order():
    assert Cyclo.zeta(5, 7) == Cyclo.zeta(5, 2)
    assert Cyclo.zeta(6, 6) == Cyclo.one(6)
    assert Cyclo.zeta(2) == Cyclo.from_rat(2, -1)


def test_root_power_is_group_homomorphism_in_s():
    for d in range(1, 9):
        for a in range(1, d + 1):
            for s in range(0, 2 * d):
                for s2 in range(0, d):
                    lhs = root_power(d, a, s) * root_power(d, a, s2)
                    assert lhs == root_power(d, a, s + s2)


def test_root_orthogonality():
    # sum_{s=0}^{d-1} xi_a^s xi_b^{-s} = d * [a == b]
    for d in range(1, 9):
        for a in range(1, d + 1):
            for b in range(1, d + 1):
                acc = Cyclo.zero(d)
                for s in range(d):
                    acc = acc + root_power(d, a, s) * root_power(d, b, -s)
                expected = Cyclo.from_rat(d, d if a == b else 0)
                assert acc == expected, (d, a, b)


def test_cyclo_stores_ints_where_integral():
    c = Cyclo(3, (Fraction(4, 2), Fraction(1, 2)))
    assert c.coeffs == (2, Fraction(1, 2))
    assert type(c.coeffs[0]) is int
    same = Cyclo(3, (2, Fraction(1, 2)))
    assert c == same
    assert hash(c) == hash(same)
    # arithmetic keeps the normal form: 1/2 + 1/2 is stored as the int 1
    half = Cyclo(3, (Fraction(1, 2), 0))
    assert [type(x) for x in (half + half).coeffs] == [int, int]
    assert [type(x) for x in (half * 2).coeffs] == [int, int]
    assert all(type(x) is int for x in Cyclo.zeta(7, 3).coeffs)


def test_cyclo_converts_other_input_through_fraction():
    # strings, floats and Decimals go through Fraction(...) as before
    from decimal import Decimal

    c = Cyclo(3, ("3/6", 2.0))
    assert c.coeffs == (Fraction(1, 2), 2)
    assert type(c.coeffs[1]) is int
    assert Cyclo(2, (Decimal("0.25"),)).coeffs == (Fraction(1, 4),)
    with pytest.raises(ValueError):
        Cyclo(3, ("one", 0))
    with pytest.raises(TypeError):
        Cyclo(3, (None, 0))


def test_order_one_coefficients_are_rationals():
    # at order 1 the coefficient is the rational itself, whatever built it
    p = LPoly.const(1, Fraction(6, 3)) + LPoly.monomial(1, Cyclo.one(1), 1, 0, 0)
    assert p.terms == {(0, 0, 0): 2, (1, 0, 0): 1}
    assert all(type(c) is int for c in p.terms.values())
    assert type(p.scale(Fraction(1, 2)).coefficient(0, 0, 0)) is int
    assert p.scale(Cyclo.from_rat(1, 3)) == p.scale(3)
    assert LPoly.monomial(1, Fraction(1, 3)).constant_value() == Fraction(1, 3)
    assert type(LPoly.zero(1).coefficient(0, 0, 0)) is int
    assert LPoly.var(3, "u").coefficient(1, 0, 0) == Cyclo.one(3)


def _value(c):
    """The complex value of a field element, as the constant LPoly at u = v = g = 1."""
    return LPoly.const(c.order, c).eval_complex(1, 1, 1)


def _random_cyclo(rng, d):
    """A nonzero element of Q(zeta_d) whose numerators share a denominator > 1."""
    while True:
        den = rng.randrange(2, 13)
        x = Cyclo(d, [Fraction(rng.randrange(-20, 21), den) for _ in range(euler_phi(d))])
        if x and x.den > 1:
            return x


def test_rotation_map_is_multiplication_by_zeta():
    rng = random.Random(71)
    for d in range(1, 13):
        for s in range(d):
            zeta, rows = Cyclo.zeta(d, s), exactnum._zeta_map(d, s)
            for k in range(5):
                x = _random_cyclo(rng, d) if k else Cyclo.zero(d)
                num = tuple(sum(r * a for r, a in zip(row, x.num)) for row in rows)
                assert (num, x.den) == ((x * zeta).num, (x * zeta).den), (d, s, x)
                assert math.gcd(x.den, *num) == 1  # already in lowest terms
                assert any(num) == bool(x)  # zero exactly when the input is
            if d > 1:
                p = LPoly(d, {(e, -e, 2 * e): _random_cyclo(rng, d) for e in range(-2, 3)})
                rotated = p.rotate(s)
                assert rotated.terms == {k: c * zeta for k, c in p.terms.items()}
                assert rotated == p.scale(zeta)


def test_products_with_a_rational_skip_no_coordinate():
    rng = random.Random(79)
    for d in (2, 3, 4, 5, 12):
        for _ in range(10):
            x, q = _random_cyclo(rng, d), Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            expected = Cyclo(d, [c * q for c in x.coeffs])
            assert x * Cyclo.from_rat(d, q) == expected
            assert Cyclo.from_rat(d, q) * x == expected


def test_cyclo_eval_complex_is_primitive_root():
    for d in range(1, 13):
        z = _value(Cyclo.zeta(d))
        assert abs(z - cmath.exp(2j * cmath.pi / d)) < 1e-9


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))])
def test_cyclo_copies_and_pickles(copier):
    c = Cyclo(3, (Fraction(1, 2), -2))
    out = copier(c)
    assert type(out) is Cyclo
    assert out == c and hash(out) == hash(c)
    assert (out.order, out.num, out.den) == (3, (1, -4), 2)


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


# phi = 1 (orders 1, 2), prime and composite orders
ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15)


@st.composite
def cyclos(draw, k):
    """k elements of Q(zeta_d) for one drawn order d."""
    order = draw(st.sampled_from(ORDERS))
    phi = euler_phi(order)
    return [
        Cyclo(order, tuple(draw(st.lists(rationals, min_size=phi, max_size=phi))))
        for _ in range(k)
    ]


@given(cyclos(3))
@settings(max_examples=60, deadline=None)
def test_cyclo_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Cyclo.zero(a.order) == a
    assert a * Cyclo.one(a.order) == a
    assert a - a == Cyclo.zero(a.order)


@given(cyclos(2), rationals)
@settings(max_examples=60, deadline=None)
def test_cyclo_linear_ops_match_fraction_coordinates(ab, q):
    a, b = ab
    # numerators over a shared denominator give the coordinatewise results
    assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
    assert (-a).coeffs == tuple(-x for x in a.coeffs)
    assert (a * q).coeffs == tuple(x * q for x in a.coeffs)
    for c in (a + b, a - b, a * b, a * q):
        assert math.gcd(c.den, *c.num) == 1 and c.den > 0
        assert c == Cyclo(a.order, c.coeffs)


@given(cyclos(2))
@settings(max_examples=40, deadline=None)
def test_cyclo_eval_complex_is_ring_map(ab):
    a, b = ab
    za, zb = _value(a), _value(b)
    assert abs(_value(a + b) - (za + zb)) < 1e-9
    assert abs(_value(a * b) - za * zb) < 1e-9


# ---------------------------------------------------------------------------
# Laurent polynomials in u, v, g
# ---------------------------------------------------------------------------


@st.composite
def lpolys(draw, order=2):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        key = (
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=-3, max_value=3)),
        )
        terms[key] = draw(rationals)
    out = LPoly.zero(order)
    for (eu, ev, eg), c in terms.items():
        out = out + LPoly.monomial(order, c, eu, ev, eg)
    return out


@given(lpolys(), lpolys(), lpolys())
@settings(max_examples=60, deadline=None)
def test_lpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LPoly.zero(2) == a
    assert a * LPoly.one(2) == a
    assert a - a == LPoly.zero(2)


@given(lpolys(), lpolys())
@settings(max_examples=40, deadline=None)
def test_lpoly_eval_complex_is_ring_map(a, b):
    pt = (0.3 + 0.7j, -1.1 + 0.2j, 0.5 - 0.4j)
    za, zb = a.eval_complex(*pt), b.eval_complex(*pt)
    assert abs((a + b).eval_complex(*pt) - (za + zb)) < 1e-9
    assert abs((a * b).eval_complex(*pt) - za * zb) < 1e-9


def test_lpoly_shift_and_monomial_inverse():
    p = LPoly.var(1, "u", 2) + LPoly.var(1, "v")
    assert p.shift(eu=-2) == LPoly.one(1) + LPoly.monomial(1, 1, -2, 1, 0)
    # no inverse, not even of a monomial: negative powers raise
    with pytest.raises(ValueError):
        LPoly.monomial(3, Fraction(2, 3), 1, -2, 5) ** -1


def _naive_product(p, q):
    """The product as the double loop over both term dicts, zeros dropped."""
    out = {}
    for (a1, b1, c1), x in p.terms.items():
        for (a2, b2, c2), y in q.terms.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out[key] + x * y if key in out else x * y
    return {k: c for k, c in out.items() if c}


def _random_lpoly(rng, d, size):
    def scalar():
        if d == 1:
            return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randrange(1, 4))
        return _random_cyclo(rng, d)

    keys = {tuple(rng.randrange(-3, 4) for _ in range(3)) for _ in range(size)}
    return LPoly(d, {k: exactnum.coeff(d, scalar()) for k in keys})


def test_one_term_product_matches_the_double_loop():
    rng = random.Random(73)
    for d in (1, 2, 3, 4, 6):
        for _ in range(15):
            mono, poly = _random_lpoly(rng, d, 1), _random_lpoly(rng, d, rng.randrange(0, 6))
            for p, q in ((mono, poly), (poly, mono), (mono, mono)):
                expected = _naive_product(p, q)
                got = (p * q).terms
                assert got == expected, (d, p, q)
                assert [type(c) for c in got.values()] == [type(expected[k]) for k in got]


def test_lpoly_pow_matches_repeated_product():
    p = LPoly.var(1, "u") + LPoly.one(1)
    q = LPoly.one(1)
    for k in range(5):
        assert p**k == q
        q = q * p


def test_as_order_round_trip():
    p = LPoly.var(1, "u", 2) - LPoly.monomial(1, Fraction(1, 3), 0, 1, -1)
    q = p.as_order(4)
    assert q.order == 4
    assert q.as_order(1) == p
    bad = LPoly.monomial(3, Cyclo.zeta(3))
    with pytest.raises(ValueError):
        bad.as_order(2)


def test_sum_equals_repeated_addition():
    u, v = LPoly.var(3, "u"), LPoly.var(3, "v", -1)
    polys = [u, v.scale(Cyclo.zeta(3)), -u, LPoly.const(3, 2), v]
    expected = LPoly.zero(3)
    for p in polys:
        expected = expected + p
    total = LPoly.sum(3, iter(polys))
    assert total == expected
    assert (0, 0, 0) in total.terms and (1, 0, 0) not in total.terms  # u - u cancels
    assert LPoly.sum(2, []) == LPoly.zero(2)
    with pytest.raises(ValueError, match="order"):
        LPoly.sum(2, [LPoly.one(2), LPoly.one(3)])


def test_constant_value():
    assert LPoly.const(2, 7).constant_value() == Cyclo.from_rat(2, 7)
    with pytest.raises(ValueError):
        (LPoly.var(2, "u") + LPoly.one(2)).constant_value()


# ---------------------------------------------------------------------------
# canonical text and machine formats
# ---------------------------------------------------------------------------


def test_text_golden_examples():
    assert LPoly.zero(1).text() == "0"
    assert LPoly.one(1).text() == "1"
    p = LPoly.monomial(1, 2, 4, 0, -4) - LPoly.monomial(1, 8, 2, 0, -4)
    assert p.text() == "2 * u^4 * g^-4 - 8 * u^2 * g^-4"
    q = LPoly.monomial(1, -1, 4, 0, 0) + LPoly.monomial(1, 2, 2, 0, 0) + LPoly.var(1, "v", 2)
    assert q.text() == "-1 * u^4 + 2 * u^2 + 1 * v^2"


def test_text_orders_terms_descending():
    p = LPoly.var(2, "v") + LPoly.var(2, "u") + LPoly.one(2)
    assert p.text() == "1 * u^1 + 1 * v^1 + 1"


def test_machine_lines_golden():
    p = LPoly.monomial(2, Fraction(1, 2), 1, 0, -1) + LPoly.monomial(2, -3, 0, 2, 0)
    assert p.machine_lines() == ["1 0 -1 1/2", "0 2 0 -3"]
    # order-3 coefficients carry phi(3) = 2 rationals per line
    q = LPoly.monomial(3, Cyclo.zeta(3), 0, 0, 1)
    assert q.machine_lines() == ["0 0 1 0 1"]


@given(lpolys(order=3))
@settings(max_examples=40, deadline=None)
def test_machine_lines_width(p):
    for line in p.machine_lines():
        assert len(line.split()) == 3 + euler_phi(3)
