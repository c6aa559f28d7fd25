"""The fields' vector arithmetic against the per-element route."""

import random
from fractions import Fraction

import pytest

from epwcalc.scalars import GF, QQ

FIELDS = [GF(7), GF(101), GF(2**61 - 1), QQ]


def elementwise_lincomb(F, coeffs, rows):
    acc = [F.zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        acc = [F.add(a, F.mul(F.of(c), F.of(b))) for a, b in zip(acc, row)]
    return acc


def elementwise_dot(F, a, b):
    acc = F.zero
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(F.of(x), F.of(y)))
    return acc


def draws(F, rnd, n, raw):
    """n elements of F, or with `raw` unreduced and negative ints over F_p."""
    if F == QQ:
        return [Fraction(rnd.randint(-50, 50), rnd.randint(1, 9)) for _ in range(n)]
    if raw:
        return [rnd.randint(-3 * F.p, 3 * F.p) for _ in range(n)]
    return [F.random(rnd) for _ in range(n)]


def assert_canonical(F, vec):
    if F == QQ:
        assert all(type(x) is Fraction for x in vec)
    else:
        assert all(type(x) is int and 0 <= x < F.p for x in vec)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
@pytest.mark.parametrize("raw", [False, True], ids=["reduced", "raw"])
def test_vector_ops_match_elementwise_route(F, raw):
    rnd = random.Random(7)
    for _ in range(40):
        k, n = rnd.randint(1, 6), rnd.randint(1, 8)
        rows = [draws(F, rnd, n, raw) for _ in range(k)]
        coeffs = draws(F, rnd, k, raw)
        for i in rnd.sample(range(k), rnd.randint(0, k)):  # some zero coefficients
            coeffs[i] = 0 if F != QQ else Fraction(0)
        got = F.lincomb(coeffs, rows)
        assert got == elementwise_lincomb(F, coeffs, rows)
        assert_canonical(F, got)

        y, x = draws(F, rnd, n, raw), draws(F, rnd, n, raw)
        c = draws(F, rnd, 1, raw)[0]
        got = F.axpy(y, c, x)
        assert got == elementwise_lincomb(F, [1, c], [y, x])
        assert_canonical(F, got)

        got = F.dot(y, x)
        assert got == elementwise_dot(F, y, x)
        assert_canonical(F, [got])


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_lincomb_of_zero_coefficients_is_the_zero_vector(F):
    zero = F.zero
    rows = [[F.of(3), F.of(-4), F.of(5)], [F.of(1), F.of(2), F.of(6)]]
    got = F.lincomb([zero, zero], rows)
    assert got == [0, 0, 0]
    assert_canonical(F, got)
    # a coefficient that is zero only mod p is still zero
    if F != QQ:
        assert F.lincomb([F.p, -F.p], rows) == [0, 0, 0]


def test_qq_dot_on_integer_rows_stays_integer():
    assert type(QQ.dot([2, -3], [5, 7])) is int
    assert QQ.dot([2, -3], [5, 7]) == -11
