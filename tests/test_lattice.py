from fractions import Fraction
from itertools import permutations

import pytest

from epwcalc import chow, lattice
from epwcalc.linalg import Matrix, interpolate_univariate
from epwcalc.rng import derive_rng
from epwcalc.scalars import QQ

MODEL = chow.VarietyModel()
LAT = lattice.BBLattice(MODEL)


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


def test_constants_read_off_the_degree_table():
    """c = deg(h^4)/q(h,h)^2 = 12/4 and C = deg(c2 h^2)/q(h,h) = 60/2, and a
    table with h^4 = 13 gives c = 13/4."""
    assert (LAT.fujiki, LAT.c2_constant, LAT.chi_trivial) == (3, 30, 3)
    table = {**chow.DEGREE_TABLE, ("h", "h", "h", "h"): 13}
    assert lattice.BBLattice(chow.VarietyModel(table)).fujiki == Fraction(13, 4)


def test_chi_of_class_is_riemann_roch_on_multiples_of_h():
    """chi at q(nh) = 2n^2 is chow's Hirzebruch-Riemann-Roch chi(O(n))."""
    for n in range(-3, 6):
        assert LAT.chi_of_class(2 * n * n) == chow.hrr_chi(MODEL, MODEL.line(n))


def test_chi_of_class():
    assert [LAT.chi_of_class(q) for q in (-2, 0, 2, 18)] == [1, 3, 6, 66]
    with pytest.raises(ValueError):
        LAT.chi_of_class(3)


def test_odd_section_count():
    assert LAT.odd_section_count() == 10
    assert 56 + LAT.odd_section_count() == LAT.chi_of_class(18)


def interpolated_charpoly(gram):
    """det(tI - G) interpolated from its values at t = 0..n, each an exact
    QQ determinant."""
    n = len(gram)
    samples = [
        (t, Matrix(QQ, [[t * (i == j) - g for j, g in enumerate(row)] for i, row in enumerate(gram)]).det())
        for t in range(n + 1)
    ]
    return interpolate_univariate(QQ, samples, n)


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def descartes_inertia(gram):
    """(positive, negative) by Descartes' rule of signs, the reference for
    `lattice._inertia` that shares no step with its elimination: a real
    symmetric matrix has only real eigenvalues, so the sign changes of the
    coefficients of det(tI - G) count the positive ones and those of
    det(-tI - G) the negative ones, with multiplicity."""
    chi = interpolated_charpoly(gram)
    return _sign_changes(chi), _sign_changes([-c if i % 2 else c for i, c in enumerate(chi)])


def test_signature_reduction_edge_blocks():
    cases = {
        ((0, 1), (1, 0)): (1, 1),  # hyperbolic: no diagonal pivot
        ((0, 0), (0, 0)): (0, 0),
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)): (2, 2),
        ((2, 0), (0, -2)): (1, 1),
        ((-2,),): (0, 1),
    }
    for gram, sig in cases.items():
        assert lattice._inertia(gram) == descartes_inertia(gram) == sig


def test_signature_of_the_gram_matrix_and_of_its_plus_two_fault():
    """`_inertia` agrees with Descartes' rule on the interpolated
    characteristic polynomial of the Gram matrix and of the same matrix with
    <+2> in place of <-2> (the `gram_invariants` fault), whose signatures
    differ."""
    plus_two = [row[:22] + [2 if i == 22 else 0] for i, row in enumerate(LAT.gram)]
    for gram, sig in ((LAT.gram, (3, 20)), (plus_two, (4, 19))):
        assert lattice._inertia(gram) == descartes_inertia(gram) == sig


def test_signature_against_the_congruence_reduction():
    """`_inertia`, the congruence reduction, agrees with Descartes' rule on
    the blocks and on 60 random symmetric matrices, singular ones among
    them."""
    for gram, sig in ((lattice._U, (1, 1)), (lattice._e8_gram(), (0, 8))):
        assert lattice._inertia(gram) == descartes_inertia(gram) == sig
    rnd = derive_rng(4, "inertia")
    kinds = set()
    for _ in range(60):
        n = rnd.randint(1, 7)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rnd.randint(-3, 3)
        if rnd.random() < 0.3:  # a repeated row and column: singular
            i, j = rnd.sample(range(n), 2) if n > 1 else (0, 0)
            g[j] = list(g[i])
            for row in g:
                row[j] = row[i]
        pos, neg = lattice._inertia(g)
        assert (pos, neg) == descartes_inertia(g), g
        kinds.add((pos + neg < n, pos > 0 and neg > 0))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
