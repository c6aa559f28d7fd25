import pytest
from hypothesis import given
from hypothesis import strategies as st

from epwcalc import oracles, schubert
from epwcalc.rng import derive_rng

CTX = schubert.Context(2, 6)
S = schubert.SchubertClass.sigma
ONE = schubert.SchubertClass.one(CTX)

BOX = sorted(
    {tuple(p for p in (a, b) if p) for a in range(5) for b in range(a + 1)}
)


def complement(lam):
    a, b = (lam + (0, 0))[:2]
    return tuple(x for x in (4 - b, 4 - a) if x)


def sigma1_power(k, x=None):
    out = x or ONE
    for _ in range(k):
        out = schubert.pieri(out, 1)
    return out


def test_partition_box_constraint():
    with pytest.raises(ValueError):
        S(CTX, 5)
    with pytest.raises(ValueError):
        S(CTX, 2, 2, 1)
    with pytest.raises(ValueError):
        S(CTX, 1, 2)
    assert S(CTX, 4, 4).coeffs == {(4, 4): 1}


def test_pieri_basic_products():
    assert schubert.pieri(S(CTX, 1), 1) == S(CTX, 2) + S(CTX, 1, 1)
    assert schubert.pieri(S(CTX, 4, 3), 1) == S(CTX, 4, 4)
    assert schubert.pieri(S(CTX, 2, 1), 1) == S(CTX, 3, 1) + S(CTX, 2, 2)
    # sigma_{1,1} = sigma_1^2 - sigma_2
    assert schubert.mul_by_partition(S(CTX, 1, 1), (1, 1)) == S(CTX, 2, 2)
    assert schubert.mul_by_partition(ONE, (1, 1)) == S(CTX, 1, 1)


def test_pieri_box_truncation():
    assert schubert.pieri(S(CTX, 4, 4), 1).coeffs == {}
    assert schubert.pieri(S(CTX, 4), 1) == S(CTX, 4, 1)


@given(st.integers(0, 2**28))
def test_special_products_commute_and_associate(seed):
    rnd = derive_rng(seed, "pieri")
    ms = [rnd.choice([(1,), (2,), (1, 1), (3,)]) for _ in range(3)]
    start = S(CTX, *rnd.choice(BOX))
    import itertools

    results = set()
    for perm in itertools.permutations(ms):
        x = start
        for parts in perm:
            x = schubert.mul_by_partition(x, parts)
        results.add(x)
    assert len(results) == 1


def test_context_mismatch():
    other = schubert.Context(2, 5)
    with pytest.raises(schubert.ContextMismatch):
        S(CTX, 1) + S(other, 1)


def test_integrate_requires_top_codim():
    assert schubert.integrate(S(CTX, 4, 4)) == 1
    with pytest.raises(ValueError):
        schubert.integrate(S(CTX, 4, 3))


def test_duality_pairing():
    for lam in BOX:
        for mu in BOX:
            if sum(lam) + sum(mu) != 8:
                continue
            val = schubert.integrate(schubert.mul_by_partition(S(CTX, *lam), mu))
            assert val == (1 if mu == complement(lam) else 0), (lam, mu)


def test_plucker_degree_14_with_hook_length_oracle():
    # standard tableaux of the full 2x4 box by the hook length formula
    hooks = [5, 4, 3, 2, 4, 3, 2, 1]
    count = 40320
    for h in hooks:
        count //= h
    assert count == 14
    assert schubert.integrate(sigma1_power(8)) == 14


def test_two_row_ballot_coefficients():
    # lattice-path (ballot) counts behind the line-class reduction:
    # the sigma_{4,3} coefficients of s1^5 s11, s1^3 s22, s1 s33
    assert sigma1_power(5, S(CTX, 1, 1)).coeffs[(4, 3)] == 5
    assert sigma1_power(3, S(CTX, 2, 2)).coeffs[(4, 3)] == 2
    assert sigma1_power(1, S(CTX, 3, 3)).coeffs[(4, 3)] == 1


def test_root_product_oracle_matches_quintic_count():
    # the same expansion on Gr(2,5) must produce the classical 2875
    assert oracles.sym_power_box_class(5, cols=3) == {(3, 3): 2875}


def test_sym6_top_chern_against_oracle():
    cls = schubert.sym6_top_chern()
    assert cls.is_pure(7)
    oracle = oracles.sym_power_box_class(6)
    assert dict(cls.coeffs) == oracle
    assert cls.coeffs[(4, 3)] == 432 * 140 == 60480
    # the only box partition of 7 on Gr(2, 6) is (4, 3)
    assert [p for p in BOX if sum(p) == 7] == [(4, 3)]


def test_sym6_integral_against_line_class():
    cls = schubert.sym6_top_chern()
    val = schubert.integrate(schubert.pieri(cls, 1))
    assert val == cls.coeffs[(4, 3)]


def test_root_product_total_weight():
    # substituting a = b = 1 the seven roots multiply to 6^7
    poly = oracles.sym_power_root_product(6)
    assert sum(poly) == 6**7
