from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epwcalc import chow, suites
from epwcalc.rng import derive_rng

M = chow.VarietyModel()
EMB = chow.EmbeddingModel(M)
H = M.sym("h")
C2 = M.sym("c2")
C4 = M.sym("c4")
Z = M.sym("Z")


def test_formal_class_arithmetic():
    one = M.unit()
    x = H + C2.scale(Fraction(1, 2))
    assert one * x == x
    assert (H**5).is_zero()  # truncation above codimension 4
    assert (H * H * C2).component(4) == H * H * C2
    y = (H.scale(15) * H - C2) * (H * H)
    assert M.degree(y) == 120


def test_substitute():
    expr = C2 * H * H + C2 * C2
    replaced = expr.substitute("c2", H.scale(15) * H - Z.scale(3))
    expected = (H.scale(15) * H - Z.scale(3)) * H * H + (H.scale(15) * H - Z.scale(3)) ** 2
    assert replaced == expected


def test_degree_table_values_and_errors():
    assert M.degree(H**4) == 12
    assert M.degree(Z * Z) == 192
    assert M.degree((H.scale(15) * H - C2) ** 2) == 9 * 192
    with pytest.raises(chow.GradingError):
        M.degree(H**3)  # not top codimension
    with pytest.raises(chow.GradingError):
        M.degree(H**4 + H)  # mixed codimension
    partial = chow.VarietyModel({("h", "h", "h", "h"): 12})
    with pytest.raises(chow.GradingError):
        partial.degree(partial.sym("Z") * partial.sym("Z"))  # missing from the table


def test_table_identities():
    for name, lhs, rhs in chow.table_identities(M):
        assert lhs == rhs, name


def test_ch_from_c_against_integer_chern_roots():
    # splitting-principle oracle: roots 2, 3, 5, 7 on the line-class axis
    e1, e2, e3, e4 = 17, 101, 247, 210
    b = chow.BundleClass(
        M, 4, [H.scale(e1), (H * H).scale(e2), (H**3).scale(e3), (H**4).scale(e4)]
    )
    ch = chow.ch_from_c(b)
    powers = [2**k + 3**k + 5**k + 7**k for k in range(5)]
    assert ch[1] == H.scale(powers[1])
    assert ch[2] == (H * H).scale(Fraction(powers[2], 2))
    assert ch[3] == (H**3).scale(Fraction(powers[3], 6))
    assert ch[4] == (H**4).scale(Fraction(powers[4], 24))


def test_line_bundle_character_is_exponential():
    b = M.line(3)
    ch = chow.ch_from_c(b)
    for k in range(1, 5):
        fact = [1, 1, 2, 6, 24][k]
        assert ch[k] == (H**k).scale(Fraction(3**k, fact))


@given(st.integers(0, 2**30))
def test_c_ch_roundtrip(seed):
    rnd = derive_rng(seed, "roundtrip")

    def r():
        return Fraction(rnd.randint(-9, 9))

    b = chow.BundleClass(
        M,
        rnd.randint(1, 6),
        [
            H.scale(r()),
            (H * H).scale(r()) + C2.scale(r()) + Z.scale(r()),
            (H**3).scale(r()) + (H * C2).scale(r()) + (H * Z).scale(r()),
            (H**4).scale(r()) + C4.scale(r()) + (Z * Z).scale(r()) + (H * H * Z).scale(r()),
        ],
    )
    back = chow.c_from_ch(M, chow.ch_from_c(b), b.rank)
    for i in range(1, 5):
        assert back.c(i) == b.c(i)


def test_todd_symplectic_top_term():
    td = chow.todd_from_c(M.tangent())
    assert td.component(1).is_zero() and td.component(3).is_zero()
    assert td.component(2) == C2.scale(Fraction(1, 12))
    assert td.component(4) == (C2 * C2).scale(Fraction(3, 720)) - C4.scale(Fraction(1, 720))
    triv = chow.BundleClass(M, 3, [M.zero()] * 4)
    assert chow.todd_from_c(triv) == M.unit()


def test_hrr_chi_values():
    assert chow.hrr_chi(M, M.line(0)) == 3
    assert chow.hrr_chi(M, M.line(1)) == 6
    assert chow.hrr_chi(M, M.line(3)) == 66
    for n in range(-3, 6):
        assert chow.hrr_chi(M, M.line(n)) == Fraction(n**4, 2) + Fraction(5 * n**2, 2) + 3


def test_chern_difference():
    tx = M.tangent()
    assert chow.chern_difference(tx, tx).is_zero()
    p5 = chow.BundleClass(M, 5, [H.scale(6), (H * H).scale(15), (H**3).scale(20), (H**4).scale(15)])
    diff = chow.chern_difference(p5, tx)
    assert diff == (H * H).scale(15) - C2
    assert M.degree(diff * H * H) == 120


def test_whitney_solve_cotangent_instance():
    left = M.line(-6).total_chern() * M.tangent().total_chern()
    known = (M.unit() - H) ** 6
    cq = chow.whitney_solve(left, known)
    assert cq.component(1).is_zero()
    assert cq.component(2) == C2 - (H * H).scale(15)
    assert cq.component(3) == (H**3).scale(-70)
    assert cq.component(4) == C4 - (H**4).scale(210) - (H * H * C2).scale(15)
    # a known factor without unit constant term cannot be divided out
    with pytest.raises(chow.GradingError):
        chow.whitney_solve(H + M.unit(), H + C2)


def test_grr_pushforwards():
    det = chow.grr_push(EMB, EMB.ch_det_tangent())
    assert det == Z - (H * Z).scale(Fraction(9, 2)) + (H * H * Z).scale(Fraction(21, 2)) - (
        Z * Z
    ).scale(Fraction(1, 12))
    tan = chow.grr_push(EMB, EMB.ch_tangent())
    assert tan == Z.scale(2) - (H * Z).scale(6) + (H * H * Z).scale(12) - (Z * Z).scale(
        Fraction(7, 6)
    )
    assert chow.grr_push(EMB, EMB.surface.zero()).is_zero()
    # the surface classes come from the generic formulas, which read c3 and c4
    S = EMB.surface
    hz, c2z = S.sym("hZ"), S.sym("c2Z")
    inverse_todd = S.unit() - hz.scale(Fraction(3, 2)) + (hz * hz).scale(Fraction(3, 2)) - c2z.scale(Fraction(1, 12))
    assert EMB.inverse_todd_normal() == inverse_todd
    assert chow.BundleClass(S, 2, [hz, c2z]).c(3).is_zero()


def test_pushforward_chern_classes():
    det = chow.grr_push(EMB, EMB.ch_det_tangent())
    b = chow.c_from_ch(M, [det.component(k) for k in range(5)], 0)
    assert b.c(1).is_zero()
    assert b.c(2) == -Z
    assert b.c(3) == (H * Z).scale(-9)
    assert b.c(4) == Z * Z - (H * H * Z).scale(63)
    tan = chow.grr_push(EMB, EMB.ch_tangent())
    t = chow.c_from_ch(M, [tan.component(k) for k in range(5)], 0)
    assert t.c(2) == Z.scale(-2)
    assert t.c(3) == (H * Z).scale(-12)
    assert t.c(4) == (Z * Z).scale(9) - (H * H * Z).scale(72)


def test_derive_relations_full_replay():
    """The relations are route one minus route two in each codimension.
    Route one's components are pinned by the Whitney test, route two's
    here."""
    r2, r3, r4 = chow.derive_relations(M, EMB)
    assert r2 == C2 + Z.scale(3) - (H * H).scale(15)
    assert r3 == (H * Z).scale(21) - (H**3).scale(70)
    assert r4 == C4 - (Z * Z).scale(12) + (H * H * Z).scale(135) - (H * H * C2).scale(15) - (H**4).scale(210)
    route_two = M.unit()
    for ch in (EMB.ch_det_tangent(), EMB.ch_tangent()):
        pushed = chow.grr_push(EMB, ch)
        route_two = route_two * chow.c_from_ch(M, [pushed.component(k) for k in range(5)], 0).total_chern()
    assert route_two.component(1).is_zero()
    assert route_two.component(2) == Z.scale(-3)
    assert route_two.component(3) == (H * Z).scale(-21)
    assert route_two.component(4) == (Z * Z).scale(12) - (H * H * Z).scale(135)
    route_one = chow.whitney_solve(M.line(-6).total_chern() * M.tangent().total_chern(), (M.unit() - H) ** 6)
    assert (r2, r3, r4) == tuple((route_one - route_two).component(k) for k in (2, 3, 4))


def test_derive_relations_raises_when_the_routes_disagree_in_codimension_1():
    class TangentWithC1(chow.VarietyModel):
        def tangent(self):
            return chow.BundleClass(self, 4, [self.sym("h"), self.sym("c2"), self.zero(), self.sym("c4")])

    model = TangentWithC1()
    with pytest.raises(chow.DerivationError, match="codimension 1"):
        chow.derive_relations(model, chow.EmbeddingModel(model))


def test_derive_relations_catches_bad_table(monkeypatch):
    """The derivation reads no degree table; c2h_equals_5h3 pairs its
    relation with h, so a table with c2h^2 = 61 fails that check."""
    monkeypatch.setattr(chow, "DEGREE_TABLE", {**chow.DEGREE_TABLE, ("c2", "h", "h"): 61})
    by_id = {c.id: c for c in suites.SUITES["chow"](suites.RunConfig(seed=0, trials=2))}
    c2h = by_id["c2h_equals_5h3"]
    assert (c2h.status, c2h.got) == ("fail", "5*h*h*h")
    assert c2h.witness == "degreeCheck=(Fraction(61, 1), Fraction(60, 1))"
    assert by_id["degree_table_identities"].status == "fail"
    assert by_id["c4_combination"].status == "pass"  # c4's degree reads no c2 entry


def test_normal_bundle_canonical_relation():
    two_c1n, six_hz = chow.normal_bundle_canonical_relation(EMB)
    assert two_c1n == six_hz == EMB.surface.sym("hZ", 6)


def test_model_mismatch_is_an_error():
    other = chow.VarietyModel()
    with pytest.raises(chow.GradingError):
        _ = H + other.sym("h")


@given(st.integers(0, 2**30))
def test_formal_class_ring_axioms(seed):
    rnd = derive_rng(seed, "ring")

    def rand_class():
        out = M.zero()
        for s in ("h", "c2", "Z", "c4"):
            if rnd.random() < 0.6:
                out = out + M.sym(s, Fraction(rnd.randint(-5, 5)))
        return out + M.unit().scale(rnd.randint(-2, 2))

    a, b, c = rand_class(), rand_class(), rand_class()
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
