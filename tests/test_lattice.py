from fractions import Fraction
from itertools import permutations

import pytest

from epwcalc import lattice
from epwcalc.rng import derive_rng

LAT = lattice.BBLattice()


def test_gram_shape_and_symmetry():
    g = LAT.gram
    assert len(g) == 23 and all(len(r) == 23 for r in g)
    assert all(g[i][j] == g[j][i] for i in range(23) for j in range(23))
    assert all(g[i][i] % 2 == 0 for i in range(23))  # even lattice


def test_determinant_and_signature():
    assert abs(LAT.determinant()) == 2
    assert LAT.signature() == (3, 20)


def test_q_values():
    h = LAT.h
    assert LAT.q(h, h) == 2
    e = LAT.e_minus2
    assert LAT.q(e, e) == -2
    iso = LAT.basis_vector(0)
    assert LAT.q(iso, iso) == 0
    with pytest.raises(ValueError):
        LAT.q(h[:5], h)


def _q_full_sum(a, b):
    return sum(a[i] * LAT.gram[i][j] * b[j] for i in range(23) for j in range(23))


def test_q_equals_the_full_gram_sum():
    basis = [LAT.basis_vector(i) for i in range(23)]
    for a in basis:
        for b in basis:
            assert LAT.q(a, b) == _q_full_sum(a, b)
    rnd = derive_rng(2, "q_sum")
    for _ in range(50):
        a = tuple(rnd.randint(-50, 50) for _ in range(23))
        b = tuple(rnd.randint(-50, 50) for _ in range(23))
        assert LAT.q(a, b) == _q_full_sum(a, b)


def test_quadruple_product_symmetry_and_fujiki():
    rnd = derive_rng(1, "fujiki")
    vs = [tuple(rnd.randint(-3, 3) for _ in range(23)) for _ in range(4)]
    base = LAT.quad_intersection(*vs)
    for perm in permutations(range(4)):
        assert LAT.quad_intersection(*[vs[i] for i in perm]) == base
    for _ in range(20):
        a = tuple(rnd.randint(-4, 4) for _ in range(23))
        assert LAT.quad_intersection(a, a, a, a) == 3 * LAT.q(a, a) ** 2


def test_h4_and_e4():
    h = LAT.h
    assert LAT.quad_intersection(h, h, h, h) == 12
    e = LAT.e_minus2
    assert LAT.quad_intersection(e, e, e, e) == 3 * 4 == 12


def test_polarized_pair_formula():
    rnd = derive_rng(2, "pairs")
    h = LAT.h
    for _ in range(10):
        a = tuple(rnd.randint(-4, 4) for _ in range(23))
        assert (
            LAT.quad_intersection(h, h, a, a)
            == LAT.q(h, h) * LAT.q(a, a) + 2 * LAT.q(h, a) ** 2
        )


def test_verify_deg6_all_basis_vectors():
    assert LAT.verify_deg6()


def test_deg4_independence_witness():
    alpha, v_h2, v_qdual = LAT.deg4_independence_witness()
    assert LAT.q(alpha, alpha) == 0
    assert LAT.q(LAT.h, alpha) != 0
    assert v_h2 == 2 and v_qdual == 0
    scaled = tuple(2 * x for x in alpha)
    assert LAT.quad_intersection(LAT.h, LAT.h, scaled, scaled) == 8
    assert 25 * LAT.q(scaled, scaled) == 0
    # values against h itself, for the record
    assert LAT.quad_intersection(LAT.h, LAT.h, LAT.h, LAT.h) == 12
    assert 25 * LAT.q(LAT.h, LAT.h) == 50


def test_c2_pairing_consistency():
    rnd = derive_rng(3, "c2e2")
    for _ in range(50):
        e = tuple(rnd.randint(-4, 4) for _ in range(23))
        assert LAT.c2_pairing(e, e) == 30 * LAT.q(e, e)


def test_chi_of_class():
    assert lattice.chi_of_class(-2) == 1
    assert lattice.chi_of_class(0) == 3
    assert lattice.chi_of_class(2) == Fraction(1, 2) + Fraction(5, 2) + 3 == 6
    for n in range(-3, 6):
        assert lattice.chi_of_class(2 * n * n) == Fraction(n**4, 2) + Fraction(5 * n**2, 2) + 3
    with pytest.raises(ValueError):
        lattice.chi_of_class(3)


def test_odd_section_count():
    assert lattice.odd_section_count() == 10
    assert lattice.chi_of_class(18) == 66
    assert 56 + lattice.odd_section_count() == 66


def test_signature_reduction_edge_blocks():
    lat = lattice.BBLattice.__new__(lattice.BBLattice)

    def signature_of(gram):
        lat.gram = gram
        lat.rank = len(gram)
        return lattice.BBLattice.signature(lat)

    assert signature_of([[0, 1], [1, 0]]) == (1, 1)  # hyperbolic: no diagonal pivot
    assert signature_of([[0, 0], [0, 0]]) == (0, 0)
    assert signature_of([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]) == (2, 2)
    assert signature_of([[2, 0], [0, -2]]) == (1, 1)
    assert signature_of([[-2]]) == (0, 1)
