import ast
import contextlib
import functools
import importlib.util
import io
import itertools
import json
import resource
import subprocess
import sys
import types
import weakref
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from epwcalc import chow, cli, epw, fpkernel, incidence, lattice, oracles, quadrics, schubert, suites
from epwcalc.exterior import DIM3, ExteriorVector, SymplecticSpace
from epwcalc.linalg import InterpolationError, Matrix, Subspace
from epwcalc.rng import derive_rng
from epwcalc.scalars import GF, QQ

TRACEABILITY = Path(__file__).resolve().parents[1] / "docs" / "traceability.md"
README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def unit_rows(field, n):
    """The rows of the n x n identity matrix, as tuples."""
    return [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    env.pop("EPW_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "epwcalc", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_passing_suite_exits_zero_and_emits_schema():
    res = run_cli("run", "bbf", "--seed", "3", "--trials", "5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert set(doc) == {"suite", "seed", "prime", "checks", "ms"}
    assert doc["suite"] == "bbf" and doc["seed"] == 3 and doc["prime"] == 10007
    assert doc["ms"] == 0  # deterministic by default
    for c in doc["checks"]:
        assert {"id", "anchor", "status", "expected", "got"} <= set(c)
        assert c["status"] in {"pass", "fail", "skip"}
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_schubert_suite_reports_the_constant_discrepancy():
    res = run_cli("run", "schubert", "--seed", "3", "--trials", "5")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    by_id = {c["id"]: c for c in doc["checks"]}
    assert by_id["sym6_top_chern_oracle"]["status"] == "pass"
    assert by_id["sym6_top_chern_stated_constant"]["status"] == "fail"
    assert "57888" in by_id["sym6_top_chern_stated_constant"]["expected"]
    assert "60480" in by_id["sym6_top_chern_stated_constant"]["got"]


def test_chow_suite_has_the_headline_check():
    res = run_cli("run", "chow", "--seed", "0", "--trials", "5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    by_id = {c["id"]: c for c in doc["checks"]}
    assert by_id["c2h_equals_5h3"]["status"] == "pass"


def _fault_derived_relation(k, shift):
    """Installs a derive_relations whose R_k is off by shift(model)."""

    def install(monkeypatch):
        derive = chow.derive_relations

        def faulty(model, emb):
            rels = list(derive(model, emb))
            rels[k - 2] = rels[k - 2] + shift(model)
            return tuple(rels)

        monkeypatch.setattr(chow, "derive_relations", faulty)

    return install


# R3 - 7h^3: modulo R2 the codimension-3 relation reads c2*h = 4h^3
_fault_c2h_rhs = _fault_derived_relation(3, lambda m: (m.sym("h") ** 3).scale(-7))
# R4 + Z^2: c4 reads as 435h^4 - 180h^2 Z + 11 Z^2, of degree 132
_fault_c4_expression = _fault_derived_relation(4, lambda m: m.sym("Z") ** 2)


def _fault_plus_two_summand(monkeypatch):
    """<+2> in place of <-2> in the Gram matrix: |det| stays 2."""
    block_diag = lattice._block_diag
    monkeypatch.setattr(lattice, "_block_diag", lambda blocks: block_diag([*blocks[:-1], [[2]]]))


def _fault_oracle_coefficient(monkeypatch):
    """The root-product oracle's s[4,3] coefficient off by one."""
    coefficients = oracles.sym_power_schur_coefficients

    def faulty(d):
        out = coefficients(d)
        return {**out, (4, 3): out[(4, 3)] + 1}

    monkeypatch.setattr(oracles, "sym_power_schur_coefficients", faulty)


def _fault_h_cubed_off_by_one(monkeypatch):
    """deg(h^3 b) read one too high for every class b but h. The other bbf
    checks read the quartic form at no such argument."""
    quad = lattice.BBLattice.quad_intersection

    def faulty(self, a1, a2, a3, a4):
        return quad(self, a1, a2, a3, a4) + (a1 == a2 == a3 == self.h != a4)

    monkeypatch.setattr(lattice.BBLattice, "quad_intersection", faulty)


def _fault_degree_one_less(monkeypatch):
    """The degree of each line restriction read one too low, through the
    `poly_degree` that only the degree check looks up in `suites`: a line
    of degree 6 reads as one of degree 5."""
    degree = suites.poly_degree
    monkeypatch.setattr(suites, "poly_degree", lambda field, coeffs: degree(field, coeffs) - 1)


def _fault_pencil_member_off_perp(monkeypatch):
    """member(3, 1) as the core plus a unit vector off perp(core): it still
    meets member(1, 2) in the core, but it is not Lagrangian."""
    member = incidence.LagrangianPencil.member

    def faulty(self, t, s):
        if (t, s) != (3, 1):
            return member(self, t, s)
        perp = self.space.perp(self.core)
        off = next(e for e in unit_rows(perp.field, DIM3) if not perp.contains(e))
        return self.core.with_vector(off)

    monkeypatch.setattr(incidence.LagrangianPencil, "member", faulty)


def _fault_harris_tu_d2(monkeypatch):
    """deg D_2 on 4x4 symmetric forms read as 11."""
    degree = quadrics.harris_tu_degree
    monkeypatch.setattr(quadrics, "harris_tu_degree", lambda n, r: degree(n, r) + ((n, r) == (4, 2)))


def _fault_plucker_quadric(monkeypatch):
    """The Grassmannian quadric plus v0*v1: the sextic of A_+ is not its
    cube, and a generic sextic is still no quadric cube."""
    quadric = epw.plucker_quadric

    def faulty(field, v):
        return field.add(quadric(field, v), field.mul(field.of(v[0]), field.of(v[1])))

    monkeypatch.setattr(epw, "plucker_quadric", faulty)


def _fault_second_bitangent_root(monkeypatch):
    """On every other call, the second root of the residual binary quadratic
    moved by +1: that pair misses a generator's bilinear condition."""
    roots = quadrics._binary_quadratic_roots
    calls = itertools.count()

    def faulty(field, alpha, beta, gamma):
        s1, (a, b) = roots(field, alpha, beta, gamma)
        if next(calls) % 2:
            a = field.add(a, field.one)
        return s1, (a, b)

    monkeypatch.setattr(quadrics, "_binary_quadratic_roots", faulty)


def _fault_canonical_relation_rhs(monkeypatch):
    """The sequence on the surface read as 2 c1(N) = 12 hZ."""
    relation = chow.normal_bundle_canonical_relation

    def faulty(emb):
        two_c1n, six_hz = relation(emb)
        return two_c1n, six_hz.scale(2)

    monkeypatch.setattr(chow, "normal_bundle_canonical_relation", faulty)


def _fault_chi_at_minus_two(monkeypatch):
    """chi of a class of square -2 read as 2. `odd_cubic_sections` reads chi
    at q = 18 only, so it does not move."""
    chi = lattice.BBLattice.chi_of_class
    monkeypatch.setattr(lattice.BBLattice, "chi_of_class", lambda self, q: chi(self, q) + (q == -2))


def _fault_ambient_cubics(monkeypatch):
    """The cubics pulled back from the ambient P^7 counted as C(8,3) + 1."""
    monkeypatch.setattr(lattice, "comb", lambda n, k: comb(n, k) + 1)


def _fault_fiber_dim_plus_one(monkeypatch):
    """dim(F_v ∩ A) read one too high: a point off Y looks like a point of
    Y while its pairing determinant stays nonzero."""
    dim = epw.fiber_intersection_dim
    monkeypatch.setattr(epw, "fiber_intersection_dim", lambda A, v: dim(A, v) + 1)


def _fault_gram_row_zeroed(monkeypatch):
    """The Gram matrix of the form with its first row zeroed."""
    gram = SymplecticSpace.gram

    def faulty(self):
        m = gram(self)
        return Matrix(m.field, [[0] * m.ncols, *m.rows[1:]])

    monkeypatch.setattr(SymplecticSpace, "gram", faulty)


def _fault_gradient_never_zero(monkeypatch):
    """The gradient of det M(v) with its first entry set to 1 wherever it
    would vanish: a singular point of the plane of a decomposable reads as
    smooth. Smooth points keep their gradient, so the proportionality check
    does not move."""
    gradient = epw.gradient_det

    def faulty(A, v0, chart=None):
        g = gradient(A, v0, chart)
        return g if any(g) else (1, *g[1:])

    monkeypatch.setattr(epw, "gradient_det", faulty)


def _fault_tangent_entries_swapped(monkeypatch):
    """Entries 0 and 1 of the tangent covector swapped. The zero pattern
    stays, so the smoothness check, which reads it, does not move."""
    tangent = epw.tangent_functional

    def faulty(A, v0):
        func = tangent(A, v0)
        return func if func is None else (func[1], func[0], *func[2:])

    monkeypatch.setattr(epw, "tangent_functional", faulty)


def _fault_a_minus_is_a_plus(monkeypatch):
    """The mirror Lagrangian built as a second copy of the symmetric one, so
    the two meet in all of A_+ and do not split the 3-vector space."""
    plus = epw.a_plus
    monkeypatch.setattr(epw, "a_minus", lambda space, rng: plus(space, rng))


def _fault_u_wedge_is_random(monkeypatch):
    """A random 3-space of the base space in place of u ^ U, whose wedge
    cube does not lie in A_+."""
    monkeypatch.setattr(suites, "_u_wedge_subspace", suites._random_3_space)


def _fault_chi_of_2h(monkeypatch):
    """chi(O(2)) read one too high: the value at n = 2 leaves the
    Riemann-Roch polynomial."""
    chi = chow.hrr_chi

    def faulty(model, b):
        return chi(model, b) + (b.c(1) == model.sym("h", 2))

    monkeypatch.setattr(chow, "hrr_chi", faulty)


def _fault_sigma_tangent_drops_an_alpha(monkeypatch):
    """The evaluation conditions without their last alpha: 55, 55, 46."""
    space = incidence.sigma_tangent_space
    monkeypatch.setattr(incidence, "sigma_tangent_space", lambda sp, A, alphas: space(sp, A, alphas[:-1]))


def _fault_every_sextic_is_a_quadric_cube(monkeypatch):
    """The triple-quadric identity read as holding for every datum."""
    monkeypatch.setattr(epw, "verify_triple_quadric", lambda A, trials, rng: True)


def _fault_veronese_drops_a_monomial(monkeypatch):
    """The square images of the points without their t3^2 coordinate: nine
    monomials, so no set of 10 points is independent."""

    def faulty(field, points):
        rows = [[field.mul(pt[i], pt[j]) for i in range(4) for j in range(i, 4)][:-1] for pt in points]
        return Matrix(field, rows, ncols=9).rank()

    monkeypatch.setattr(quadrics, "veronese_independence", faulty)


def _fault_minus_sign_dropped(monkeypatch):
    """Scaling by the raw sign -1 leaves the vector as it is, so odd-degree
    pairs commute in place of anticommuting."""
    scale = ExteriorVector.scale
    monkeypatch.setattr(ExteriorVector, "scale", lambda self, c: self if c == -1 else scale(self, c))


def _fault_ch4_drops_c2_squared(monkeypatch):
    """ch4 without its 2 c2^2 / 24 term, which c_from_ch does not undo."""
    ch_from_c = chow.ch_from_c

    def faulty(b):
        ch = ch_from_c(b)
        ch[4] = ch[4] - (b.c(2) * b.c(2)).scale(Fraction(1, 12))
        return ch

    monkeypatch.setattr(chow, "ch_from_c", faulty)


def _fault_nine_alphas_leave_two_forms(monkeypatch):
    """The kernel of exactly nine evaluation conditions read one too large."""
    kernel = incidence.injective_differential_kernel

    def faulty(space, B, u, alphas, require_full=True):
        return kernel(space, B, u, alphas, require_full) + (len(alphas) == 9)

    monkeypatch.setattr(incidence, "injective_differential_kernel", faulty)


def _fault_fourth_power_off_by_one(monkeypatch):
    """deg(x^4) read one too high for every x but the two pinned classes."""
    quad = lattice.BBLattice.quad_intersection

    def faulty(self, a1, a2, a3, a4):
        value = quad(self, a1, a2, a3, a4)
        return value + (a1 == a2 == a3 == a4 and a1 not in (self.h, self.e_minus2))

    monkeypatch.setattr(lattice.BBLattice, "quad_intersection", faulty)


def _fault_gradient_partials_swapped(monkeypatch):
    """The partials d_0 f and d_1 f of the quartic returned in each other's
    place; the scans take their partials through `_mp_partial`, not this."""
    gradient = quadrics.quartic_gradient

    def faulty(web):
        d0, d1, *rest = gradient(web)
        return [d1, d0, *rest]

    monkeypatch.setattr(quadrics, "quartic_gradient", faulty)


def _fault_form_plus_one(monkeypatch):
    """The symplectic form on 3-vectors read one too high: the cubes of two
    3-spaces that meet no longer pair to zero."""
    form = SymplecticSpace.form
    monkeypatch.setattr(SymplecticSpace, "form", lambda self, a, b: self.field.add(form(self, a, b), self.field.one))


def _fault_qq_fiber_drops_a_row(monkeypatch):
    """F_v over QQ without its last canonical row: 9-dimensional, so not
    Lagrangian. Fibers over F_p keep all ten rows."""
    fiber = SymplecticSpace.fiber

    def faulty(self, v):
        fib = fiber(self, v)
        if self.field is not QQ:
            return fib
        return Subspace(fib.field, fib.ambient, fib.basis()[:-1], fib.pivots[:-1])

    monkeypatch.setattr(SymplecticSpace, "fiber", faulty)


def _fault_perp_drops_a_row_off_isotropic(monkeypatch):
    """perp(S) without its last canonical row when S is not isotropic; the
    perp of an isotropic subspace, such as A ∩ B, keeps all its rows."""
    perp = SymplecticSpace.perp

    def faulty(self, s):
        out = perp(self, s)
        if self.is_isotropic(s):
            return out
        return Subspace(out.field, out.ambient, out.basis()[:-1], out.pivots[:-1])

    monkeypatch.setattr(SymplecticSpace, "perp", faulty)


def _fault_join_drops_a_row(monkeypatch):
    """A + B joined without the last canonical row of B."""
    join = Subspace.join

    def faulty(self, other):
        return join(self, Subspace(other.field, other.ambient, other.basis()[:-1], other.pivots[:-1]))

    monkeypatch.setattr(Subspace, "join", faulty)


def _fault_chern_difference_adds_the_inverse(monkeypatch):
    """c(e - f) read as c(e) + c(f)^-1 in place of c(e) c(f)^-1. In
    codimension 2 the two differ by c1(e) c1(f^-1), so the pulled-back
    tangent against T_X, whose c1 is 0, does not see it; the random pair
    does."""
    monkeypatch.setattr(
        chow,
        "chern_difference",
        lambda e, f: (e.total_chern() + chow.series_inverse(f.total_chern())).component(2),
    )


def _fault_two_part_partition_reversed(monkeypatch):
    """A two-part partition with distinct parts multiplied by in reverse,
    (b, a) for (a, b). The top Chern class of Sym^6 multiplies only by
    (1, 1), which stays."""
    mul = schubert.mul_by_partition

    def faulty(x, parts):
        return mul(x, parts[::-1] if len(parts) == 2 and parts[0] != parts[1] else parts)

    monkeypatch.setattr(schubert, "mul_by_partition", faulty)


def _fault_todd_plus_a_degree_zero_class(monkeypatch):
    """td4 plus (Z^2 - 8 c2 Z)/720 on a model that has Z. That class has
    degree 192 - 8 * 24 = 0, so chi(O(n)), which reads td4 through its
    degree, does not move."""
    todd = chow.todd_from_c

    def faulty(b):
        m = b.model
        if "Z" not in m.symbols:
            return todd(b)
        Z = m.sym("Z")
        return todd(b) + (Z * Z - (m.sym("c2") * Z).scale(8)).scale(Fraction(1, 720))

    monkeypatch.setattr(chow, "todd_from_c", faulty)


def _fault_sum_of_two_one_term_classes_doubled(monkeypatch):
    """The sum of two distinct one-term Schubert classes, as s2 + s11, read
    twice over. Of the schubert checks only `pieri_samples` adds two such
    classes: `pieri` adds coefficients in a dict."""
    add = schubert.SchubertClass.__add__

    def faulty(self, other):
        out = add(self, other)
        distinct = len(self.coeffs) == len(other.coeffs) == 1 and self.coeffs.keys() != other.coeffs.keys()
        return out.scale(2) if distinct else out

    monkeypatch.setattr(schubert.SchubertClass, "__add__", faulty)


FAULTS = {
    ("chow", "c2h_equals_5h3"): _fault_c2h_rhs,
    ("chow", "c4_combination"): _fault_c4_expression,
    ("bbf", "gram_invariants"): _fault_plus_two_summand,
    ("schubert", "sym6_top_chern_oracle"): _fault_oracle_coefficient,
    ("bbf", "fujiki_constants"): _fault_h_cubed_off_by_one,
    ("epw", "sextic_degree"): _fault_degree_one_less,
    ("incidence", "pencil_axioms"): _fault_pencil_member_off_perp,
    ("quadrics", "harris_tu_degrees"): _fault_harris_tu_d2,
    ("epw", "triple_quadric"): _fault_plucker_quadric,
    ("quadrics", "bitangent_pairs"): _fault_second_bitangent_root,
    ("chow", "canonical_class_relation"): _fault_canonical_relation_rhs,
    ("bbf", "chi_values"): _fault_chi_at_minus_two,
    ("bbf", "odd_cubic_sections"): _fault_ambient_cubics,
    ("epw", "det_vs_rank_detector"): _fault_fiber_dim_plus_one,
    ("exterior", "gram_nondegenerate"): _fault_gram_row_zeroed,
    ("epw", "smoothness_equivalence"): _fault_gradient_never_zero,
    ("epw", "tangent_functional_proportional"): _fault_tangent_entries_swapped,
    ("epw", "plus_minus_decomposition"): _fault_a_minus_is_a_plus,
    ("epw", "sigma_membership"): _fault_u_wedge_is_random,
    ("quadrics", "veronese_independence"): _fault_veronese_drops_a_monomial,
    ("chow", "riemann_roch_polynomial"): _fault_chi_of_2h,
    ("incidence", "sigma_tangent_dims"): _fault_sigma_tangent_drops_an_alpha,
    ("epw", "triple_quadric_generic_fails"): _fault_every_sextic_is_a_quadric_cube,
    ("exterior", "graded_anticommutativity"): _fault_minus_sign_dropped,
    ("chow", "chern_character_roundtrip"): _fault_ch4_drops_c2_squared,
    ("incidence", "relaxed_nine_conditions"): _fault_nine_alphas_leave_two_forms,
    ("bbf", "fujiki_polarization"): _fault_fourth_power_off_by_one,
    ("quadrics", "adjugate_gradient_identity"): _fault_gradient_partials_swapped,
    ("exterior", "decomposable_orthogonality"): _fault_form_plus_one,
    ("exterior", "fiber_lagrangian"): _fault_qq_fiber_drops_a_row,
    ("exterior", "perp_involution"): _fault_perp_drops_a_row_off_isotropic,
    ("exterior", "perp_meet_join"): _fault_join_drops_a_row,
    ("chow", "pullback_tangent_difference"): _fault_chern_difference_adds_the_inverse,
    ("schubert", "duality"): _fault_two_part_partition_reversed,
    ("chow", "todd_symplectic"): _fault_todd_plus_a_degree_zero_class,
    ("schubert", "pieri_samples"): _fault_sum_of_two_one_term_classes_doubled,
}


@pytest.mark.parametrize("suite, cid", list(FAULTS), ids=[cid for _, cid in FAULTS])
def test_an_injected_fault_fails_exactly_its_check(suite, cid, monkeypatch):
    """Each fault is injected into an input of the check, never into the
    check itself; it turns that check, and no other, from pass to fail."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.SUITES[suite](cfg)}
    FAULTS[suite, cid](monkeypatch)
    after = {c.id: c.status for c in suites.SUITES[suite](cfg)}
    assert (before[cid], after[cid]) == ("pass", "fail")
    assert {k for k in after if after[k] != before[k]} == {cid}


def test_a_fujiki_constant_off_the_table_fails_each_bbf_check_that_reads_it(monkeypatch):
    """With deg(h^4) = 13 in chow's degree table the Fujiki constant reads
    13/4, and every bbf check that reads it fails. `gram_invariants` reads
    only the Gram matrix and passes."""
    cfg = suites.RunConfig(seed=0, trials=2)
    monkeypatch.setitem(chow.DEGREE_TABLE, ("h", "h", "h", "h"), 13)
    after = {c.id: c for c in suites.SUITES["bbf"](cfg)}
    assert after["fujiki_constants"].got == "(13/4, 30)"
    assert {k: c.status for k, c in after.items()} == {
        "gram_invariants": "pass",
        "fujiki_constants": "fail",
        "fujiki_polarization": "fail",
        "chi_values": "fail",
        "odd_cubic_sections": "fail",
    }


def test_a_failed_derivation_fails_both_relation_checks(monkeypatch):
    """When the relation replay raises, both checks it feeds fail under their
    own anchors, with the error as `got`; no other check changes."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.SUITES["chow"](cfg)}

    def raising(model, emb):
        raise chow.DerivationError("injected")

    monkeypatch.setattr(chow, "derive_relations", raising)
    after = {c.id: c for c in suites.SUITES["chow"](cfg)}
    anchors = {(suite, cid): statement for suite, cid, statement, _ in _traceability_rows()}
    for cid in ("c2h_equals_5h3", "c4_combination"):
        assert (before[cid], after[cid].status) == ("pass", "fail")
        assert after[cid].anchor == anchors["chow", cid]
        assert after[cid].got == "error: injected"
    assert list(after) == list(before)
    assert {k for k in after if after[k].status != before[k]} == {"c2h_equals_5h3", "c4_combination"}


POINT_READERS = ("smoothness_equivalence", "tangent_functional_proportional")


def _raising_tangent_functional(monkeypatch):
    """Patch `epw.tangent_functional` to raise; returns the list its calls
    append to."""
    calls = []

    def raising(A, v0):
        calls.append(v0)
        raise RuntimeError("injected")

    monkeypatch.setattr(epw, "tangent_functional", raising)
    return calls


def test_a_fixture_that_raises_fails_each_check_that_reads_it(monkeypatch):
    """The epw point stream reads each sample into its tangent covector as
    it is drawn. When that raises, the fixture is built once and each of
    its two readers fails with the error as `got` and, as the witness, its
    type and the function that raised it; every other check of the run is
    as before."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c for c in cli.run_suites("all", cfg)}
    calls = _raising_tangent_functional(monkeypatch)
    after = {c.id: c for c in cli.run_suites("all", cfg)}
    assert len(calls) == 1
    assert list(after) == list(before)
    readers = {f"epw.{cid}" for cid in POINT_READERS}
    for cid in readers:
        check = after[cid]
        assert (before[cid].status, check.status) == ("pass", "fail")
        assert (check.anchor, check.expected, check.got, check.witness) == (
            before[cid].anchor,
            "no exception",
            "error: injected",
            "RuntimeError in test_cli.raising",
        )
    assert {k: c for k, c in after.items() if k not in readers} == {
        k: c for k, c in before.items() if k not in readers
    }


def test_a_check_that_raises_fails_alone(monkeypatch):
    """A raise inside a check's own body, not in a fixture, fails that check
    and no other; the suite runs to its end. An interrupt is not a failed
    claim: it ends the run."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = suites.SUITES["epw"](cfg)

    def raising(A, w):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(epw, "sigma_membership", raising)
    after = suites.SUITES["epw"](cfg)
    changed = [(b, a) for b, a in zip(before, after) if a != b]
    assert len(after) == len(before) and [a.id for _, a in changed] == ["sigma_membership"]
    [(old, new)] = changed
    assert (old.status, new.status) == ("pass", "fail")
    assert (new.expected, new.got) == ("no exception", "error: injected")
    assert new.witness == "ZeroDivisionError in test_cli.raising"

    def interrupted(A, w):
        raise KeyboardInterrupt

    monkeypatch.setattr(epw, "sigma_membership", interrupted)
    with pytest.raises(KeyboardInterrupt):
        suites.SUITES["epw"](cfg)


def test_fail_fast_stops_right_after_a_check_that_raised(monkeypatch, capsys):
    """Under --fail-fast the report ends at the first check that raised, and
    the run exits 1."""
    _raising_tangent_functional(monkeypatch)
    assert cli.main(["run", "all", "--fail-fast", "--seed", "0", "--trials", "2"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    declared = {f"{suite}.{cid}": anchor for suite, cid, anchor in _declared()}
    first = f"epw.{POINT_READERS[0]}"
    last = list(declared).index(first)
    assert [c["id"] for c in checks] == list(declared)[: last + 1]
    assert {c["status"] for c in checks[:last]} == {"pass"}
    assert checks[-1] == {
        "id": first,
        "anchor": declared[first],
        "status": "fail",
        "expected": "no exception",
        "got": "error: injected",
        "witness": "RuntimeError in test_cli.raising",
    }


def test_a_run_that_raises_in_a_check_writes_its_whole_report(monkeypatch, tmp_path):
    """`run epw --json PATH` with a helper that raises writes a report of
    every declared check and exits 1."""
    _raising_tangent_functional(monkeypatch)
    path = tmp_path / "report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["run", "epw", "--seed", "0", "--trials", "2", "--json", str(path)]) == 1
    checks = json.loads(path.read_text(encoding="utf-8"))["checks"]
    assert [c["id"] for c in checks] == [cid for suite, cid, _ in _declared() if suite == "epw"]
    assert [c["id"] for c in checks if c["status"] != "pass"] == list(POINT_READERS)


def _chow_changes(cfg, before):
    """The chow checks whose status differs from `before`, with their `got`."""
    return {c.id: c.got for c in suites.SUITES["chow"](cfg) if c.status != before[c.id]}


def test_relation_faults_report_what_the_relations_force(monkeypatch):
    """Read modulo R2, the faulty R3 gives c2*h = 4h^3 and the faulty R4 a
    c4 expression of degree 324 - deg Z^2 = 132."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.SUITES["chow"](cfg)}
    with monkeypatch.context() as patch:
        _fault_c2h_rhs(patch)
        assert _chow_changes(cfg, before) == {"c2h_equals_5h3": "4*h*h*h"}
    _fault_c4_expression(monkeypatch)
    assert _chow_changes(cfg, before) == {"c4_combination": "132"}


def test_the_codimension_2_relation_gates_both_relation_checks(monkeypatch):
    """Both relation checks eliminate with R2, so R2 + Z in its place moves
    c2*h = 5h^3 and the c4 expression: both fail, and no other check."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.SUITES["chow"](cfg)}
    _fault_derived_relation(2, lambda m: m.sym("Z"))(monkeypatch)
    assert set(_chow_changes(cfg, before)) == {"c2h_equals_5h3", "c4_combination"}


@pytest.mark.parametrize("k", [4, -4])
def test_normal_data_off_the_sequence_fails_its_checks_in_the_report(k, monkeypatch):
    """An embedding with c1(N) = k hZ, k != 3, contradicts 2 c1(N) = 6 hZ: the
    report fails canonical_class_relation with 2k hZ as `got`, and both
    relation checks, whose pushforwards read c1(N) through the normal Todd
    class; no other chow check changes and the run goes on. At k = -4 the
    hZ term of R3 cancels, so R3 modulo R2 has no c2*h to solve for: that
    fails c2h_equals_5h3 alone, and c4_combination reports its own degree."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.SUITES["chow"](cfg)}

    class OffSequence(chow.EmbeddingModel):
        def __init__(self, ambient):
            super().__init__(ambient)
            self.normal_c1 = self.surface.sym("hZ", k)

    monkeypatch.setattr(chow, "EmbeddingModel", OffSequence)
    changed = _chow_changes(cfg, before)
    relations = {4: ("25/4*h*h*h", "-1236"), -4: ("error: 1*c2*h does not occur in -70*h*h*h", "4524")}
    assert changed == {
        "canonical_class_relation": f"{2 * k}*hZ",
        "c2h_equals_5h3": relations[k][0],
        "c4_combination": relations[k][1],
    }


def test_a_point_search_that_always_misses_skips_both_point_checks(monkeypatch):
    """When every point search runs out of budget, the point stream holds
    only its decomposable samples, which test the singular side alone: the
    two checks that read it report a skip with the reason as its witness,
    and no other check changes status."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.SUITES["epw"](cfg)}

    def exhausted(A, rng, budget=60):
        raise epw.RetryBudgetExhausted("injected")

    monkeypatch.setattr(epw, "find_point_stats", exhausted)
    after = {c.id: c for c in suites.SUITES["epw"](cfg)}
    changed = {
        k: (before[k], c.status, c.expected, c.got, c.witness) for k, c in after.items() if c.status != before[k]
    }
    missed = f"retry budget exhausted on every search (budget_miss={suites.POINT_MIN_SEARCHES})"
    assert changed == {
        "smoothness_equivalence": ("pass", "skip", "", "", missed),
        "tangent_functional_proportional": (
            "pass",
            "skip",
            "",
            "",
            f"no smooth point among 0 found (budget_miss={suites.POINT_MIN_SEARCHES})",
        ),
    }


def test_a_nonsingular_low_rank_point_fails_both_scan_checks(monkeypatch):
    """A rank <= 2 member off the singular locus of the quartic contradicts
    the adjugate argument; both scans gate on their count of such points
    instead of raising inside the scan. The fault adds a constant term to
    every partial, so no gradient the scan reads vanishes anywhere."""
    cfg = suites.RunConfig(seed=0, trials=2)
    partial = quadrics._mp_partial
    monkeypatch.setattr(quadrics, "_mp_partial", lambda field, poly, i: {**partial(field, poly, i), (0, 0, 0, 0): 1})
    by_id = {c.id: c for c in suites.SUITES["quadrics"](cfg)}
    assert by_id["diagonal_scan_census"].status == "fail"
    assert by_id["random_scan"].status == "fail" and int(by_id["random_scan"].got) > 0
    assert by_id["quartic_expansion"].status == "pass"


def test_a_zero_point_draw_is_redrawn(tmp_path):
    """At p = 17 and seed 4776 the Veronese draw meets the zero vector among
    its first ten points; that point is redrawn, and the suite reports every
    check as passing instead of raising."""
    rng = derive_rng(4776, "quadrics.veronese")
    assert [0, 0, 0, 0] in [[rng.randrange(17) for _ in range(4)] for _ in range(10)]
    out = tmp_path / "report.json"
    assert cli.main(["run", "quadrics", "--prime", "17", "--seed", "4776", "--json", str(out)]) == 0
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert len(checks) == 7 and {c["status"] for c in checks} == {"pass"}


def test_a_seed_off_the_chart_is_redrawn(tmp_path):
    """At p = 17 and seed 594 the first 3-space that `sigma_membership`
    draws has its wedge cube in wedge^3 <e_1..e_5>, which no completion
    contains; that 3-space is redrawn, and the suite reports every check as
    passing instead of raising."""
    sp = SymplecticSpace(GF(17))
    rng = derive_rng(594, "epw.sigma")
    cube = sp.decomposable_of(suites._random_3_space(sp.field, rng)).coords
    assert not any(cube[:10])
    with pytest.raises(ValueError):
        sp.lagrangian_completion(Subspace.from_spanning(sp.field, DIM3, [cube]), rng)
    out = tmp_path / "report.json"
    assert cli.main(["run", "epw", "--prime", "17", "--seed", "594", "--json", str(out)]) == 0
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert {c["status"] for c in checks} == {"pass"}


def test_usage_errors_exit_two(tmp_path):
    assert run_cli("run", "nosuchsuite").returncode == 2
    assert run_cli("run", "--suite", "bbf").returncode == 2  # the suite is positional only
    assert run_cli("run", "bbf", "--prime", "10").returncode == 2
    assert run_cli("run", "bbf", "--prime", "13").returncode == 2
    assert run_cli("run", "bbf", "--trials", "0").returncode == 2
    # psi_12: a composite that passes Miller-Rabin to the first 12 prime bases
    assert run_cli("run", "bbf", "--prime", "318665857834031151167461").returncode == 2
    # a report path that cannot be written is refused before any suite runs
    unwritable = tmp_path / "missing" / "report.json"
    res = run_cli("run", "bbf", "--trials", "1", "--json", str(unwritable))
    assert res.returncode == 2 and str(unwritable) in res.stderr
    assert "Traceback" not in res.stderr and "checks," not in res.stderr


def test_report_file_survives_a_run_that_raises(tmp_path, monkeypatch):
    """The report path is opened before the suites run but truncated only
    once the new report is ready: a run that raises leaves the old one."""
    path = tmp_path / "report.json"
    path.write_text("earlier report\n", encoding="utf-8")

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_suites", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "bbf", "--trials", "1", "--json", str(path)])
    assert path.read_text(encoding="utf-8") == "earlier report\n"
    monkeypatch.undo()
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["run", "bbf", "--seed", "3", "--trials", "5", "--json", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == run_cli("run", "bbf", "--seed", "3", "--trials", "5").stdout


def test_seed_resolution_env_and_flag():
    res = run_cli("run", "bbf", "--trials", "2", env_extra={"EPW_SEED": "42"})
    assert json.loads(res.stdout)["seed"] == 42
    res = run_cli("run", "bbf", "--trials", "2", "--seed", "9", env_extra={"EPW_SEED": "42"})
    assert json.loads(res.stdout)["seed"] == 9
    res = run_cli("run", "bbf", "--trials", "2", env_extra={"EPW_SEED": "abc"})
    assert res.returncode == 2 and "EPW_SEED" in res.stderr


def test_single_suite_rerun_is_byte_identical():
    a = run_cli("run", "exterior", "--seed", "5", "--trials", "10")
    b = run_cli("run", "exterior", "--seed", "5", "--trials", "10")
    assert a.stdout == b.stdout


def test_timing_adds_per_suite_and_per_check_cpu_only():
    """--timing adds the CPU milliseconds of each suite and of each check,
    keyed by report check id, and changes nothing else; a suite's time is
    the sum of its checks' times."""
    plain = json.loads(run_cli("run", "bbf", "--seed", "3", "--trials", "5").stdout)
    timed = json.loads(run_cli("run", "bbf", "--seed", "3", "--trials", "5", "--timing").stdout)
    assert set(plain) == {"suite", "seed", "prime", "checks", "ms"}
    assert set(timed) == set(plain) | {"suite_cpu_ms", "check_cpu_ms"}
    assert set(timed["suite_cpu_ms"]) == {"bbf"}
    assert isinstance(timed["suite_cpu_ms"]["bbf"], int)
    assert list(timed["check_cpu_ms"]) == [c["id"] for c in plain["checks"]]
    assert timed["checks"] == plain["checks"]
    every = json.loads(run_cli("run", "all", "--seed", "3", "--trials", "5", "--timing").stdout)
    assert list(every["suite_cpu_ms"]) == ["exterior", "epw", "incidence", "quadrics", "chow", "schubert", "bbf"]
    assert all(isinstance(ms, int) and ms >= 0 for ms in every["suite_cpu_ms"].values())
    assert list(every["check_cpu_ms"]) == [c["id"] for c in every["checks"]]
    assert list(every["check_cpu_ms"]) == [f"{suite}.{cid}" for suite, cid, _ in _declared()]
    assert all(isinstance(ms, int) and ms >= 0 for ms in every["check_cpu_ms"].values())
    for suite, suite_ms in every["suite_cpu_ms"].items():
        ms = [v for cid, v in every["check_cpu_ms"].items() if cid.startswith(f"{suite}.")]
        assert suite_ms == sum(ms), (suite, suite_ms, ms)


@pytest.mark.parametrize("prime", [2147483647, 2305843009213693951], ids=["2^31-1", "2^61-1"])
def test_epw_suite_finishes_at_large_primes(prime):
    """The point search finds roots without a pass over F_p, so the epw
    suite stays within 15 s of CPU even at a 61-bit prime."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    res = run_cli("run", "epw", "--prime", str(prime), "--trials", "4")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["prime"] == prime and doc["checks"]
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert cpu <= 15.0


def _traceability_rows():
    """(suite, check id, statement, fault test) for each table row of the
    traceability doc. A statement may itself hold a `|`, as in `|det|`, so
    each row is split at its first two and its last column separator only."""
    rows = []
    for line in TRACEABILITY.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| ") or line.startswith("| suite |"):
            continue
        suite, cid, rest = line[2:].removesuffix(" |").split(" | ", 2)
        statement, fault = rest.rsplit(" | ", 1)
        rows.append((suite, cid.strip("`"), statement, fault.strip("`")))
    return rows


def _declared():
    """(suite, check id, anchor) of every declared check, in report order."""
    return [(name, run.__name__, anchor) for name, checks in suites.CHECKS.items() for run, anchor, *_ in checks]


def test_traceability_lists_every_check_of_the_report_in_order():
    """The rows are the declared checks in order, read off the declarations
    with no suite run, each statement its check's anchor; the stated
    constant's row adds the discrepancy after the anchor."""
    rows = _traceability_rows()
    declared = _declared()
    assert [(suite, cid) for suite, cid, *_ in rows] == [(suite, cid) for suite, cid, _ in declared]
    for (suite, cid, statement, _), (_, _, anchor) in zip(rows, declared):
        assert statement.startswith(anchor), cid
        if cid != "sym6_top_chern_stated_constant":
            assert statement == anchor, cid
    assert dict(((s, c), st) for s, c, st, _ in rows)[("bbf", "gram_invariants")].startswith("|det| = 2")


def test_traceability_names_each_fault_test():
    """The fault column says `FAULTS` exactly for the checks with an entry
    there, and every other test it names is defined in its test file."""
    rows = _traceability_rows()
    assert {(suite, cid) for suite, cid, _, fault in rows if fault == "FAULTS"} == set(FAULTS)
    for fault in {fault for *_, fault in rows} - {"FAULTS", "—"}:
        path, name = fault.split("::")
        assert f"def {name}(" in (Path(__file__).parent / path).read_text(encoding="utf-8"), fault


def test_readme_library_example_runs():
    """The README's library example runs as written, and the point it finds
    lies on the sextic, smooth there, as its comments say."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    A, v = namespace["A"], namespace["v"]
    func = epw.tangent_functional(A, v)
    assert epw.fiber_intersection_dim(A, v) == 1 and any(not A.field.is_zero(x) for x in func)


def test_fail_fast_stops_at_the_first_failing_check(monkeypatch, capsys):
    first, second, third = cli.SUITE_ORDER[:3]

    def never(cfg):
        raise AssertionError("a suite after the failing check ran")

    monkeypatch.setitem(suites.SUITES, first, lambda cfg: [suites.Check("a", "passes", "pass", "1", "1")])
    monkeypatch.setitem(
        suites.SUITES,
        second,
        lambda cfg: [suites.Check("b", "fails", "fail", "1", "2"), suites.Check("c", "passes", "pass", "1", "1")],
    )
    monkeypatch.setitem(suites.SUITES, third, never)
    checks = cli.run_suites("all", suites.RunConfig(seed=0, trials=2), fail_fast=True)
    assert [(c.id, c.status) for c in checks] == [(f"{first}.a", "pass"), (f"{second}.b", "fail")]
    assert cli.main(["run", "all", "--fail-fast", "--seed", "0", "--trials", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [(c["id"], c["status"]) for c in doc["checks"]] == [(f"{first}.a", "pass"), (f"{second}.b", "fail")]


def test_each_check_returns_the_one_outcome_shape():
    """A check returns outcome(ok, expected, got, witness): a pass or a fail
    by ok, with expected and got (ok unless given) written by str, or a skip
    when ok is None, with the reason as its witness."""
    assert suites.outcome(1 == 1) == ("pass", "True", "True", None)
    assert suites.outcome(False) == ("fail", "True", "False", None)
    assert suites.outcome(2 == 3, 2, 3) == ("fail", "2", "3", None)
    assert suites.outcome(True, (1, 2), {1}, "w") == ("pass", "(1, 2)", "{1}", "w")
    assert suites.outcome(None, witness="why") == ("skip", "", "", "why")


def test_each_suite_reports_exactly_its_declared_checks_in_order():
    """A suite call returns a list with one Check per declared check, with
    the declared id and anchor, in the order of its CHECKS list."""
    cfg = suites.RunConfig(seed=0, trials=1)
    assert list(suites.SUITES) == list(suites.CHECKS) == cli.SUITE_ORDER
    for name, run in suites.SUITES.items():
        checks = run(cfg)
        assert type(checks) is list and all(type(c) is suites.Check for c in checks)
        assert [(name, c.id, c.anchor) for c in checks] == [d for d in _declared() if d[0] == name]


def test_each_check_run_alone_equals_its_check_in_the_suite():
    """Each of the checks, evaluated on its own from a store that holds only
    the run's config, builds the fixtures it reads and draws its own streams
    as in the full suite: its Check is the suite's, at seed 7 and the CLI
    defaults."""
    cfg = suites.RunConfig(seed=7)
    for name, checks in suites.CHECKS.items():
        alone = [
            suites.Check(run.__name__, anchor, *suites.evaluate(dict(vars(cfg)), run, *labels))
            for run, anchor, *labels in checks
        ]
        assert alone == suites.SUITES[name](cfg), name


def test_a_full_run_draws_exactly_the_declared_streams(monkeypatch):
    """The driver is the one caller of derive_rng in the suites: a full run
    derives each label that a check or a fixture declares exactly once, and
    no other; no label is declared twice."""
    declared = [label for checks in suites.CHECKS.values() for _, _, *labels in checks for label in labels]
    declared += [label for labels in suites.FIXTURE_LABELS.values() for label in labels]
    assert len(declared) == len(set(declared))
    tree = ast.parse(Path(suites.__file__).read_text(encoding="utf-8"))
    callers = {
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for n in ast.walk(f)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "derive_rng"
    }
    assert callers == {"evaluate"}
    assert not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(tree))
    drawn = []
    derive = suites.derive_rng
    monkeypatch.setattr(suites, "derive_rng", lambda seed, label: drawn.append(label) or derive(seed, label))
    cli.run_suites("all", suites.RunConfig(seed=7, trials=2))
    assert sorted(drawn) == sorted(declared)


def test_epw_suite_work_counts_at_seed_7(monkeypatch):
    """The epw suite at seed 7 and CLI defaults makes 50 point searches and
    2,444 F_p forward eliminations: one point stream of 60 samples, each
    with one tangent covector (one meet, no solve for its alpha) and one
    gradient, and seven determinants per line a point search or
    det_vs_rank_detector restricts the sextic to."""
    calls = Counter()

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return run

    monkeypatch.setattr(fpkernel, "_forward", counted("forward", fpkernel._forward))
    for name in ("find_point_stats", "tangent_functional", "gradient_det"):
        monkeypatch.setattr(epw, name, counted(name, getattr(epw, name)))
    suites.SUITES["epw"](suites.RunConfig(seed=7))
    assert calls == {"find_point_stats": 50, "forward": 2444, "tangent_functional": 60, "gradient_det": 60}


def _live_data_at_tangent_calls(monkeypatch, trials):
    """The most `EpwLagrangian`s alive at any `tangent_functional` call of
    the epw suite at seed 7."""
    live, seen = weakref.WeakSet(), []
    init, tangent = epw.EpwLagrangian.__init__, epw.tangent_functional

    def tracked(self, *args):
        init(self, *args)
        live.add(self)

    def counted(A, v0):
        seen.append(len(live))
        return tangent(A, v0)

    with monkeypatch.context() as patch:
        patch.setattr(epw.EpwLagrangian, "__init__", tracked)
        patch.setattr(epw, "tangent_functional", counted)
        suites.SUITES["epw"](suites.RunConfig(seed=7, trials=trials))
    return max(seen)


def test_the_epw_point_stream_keeps_one_datum_at_a_time(monkeypatch):
    """Each point-stream sample is read into its covector and gradient as it
    is drawn, so the data alive at a sample do not grow with --trials: 60
    samples hold no more of them than 6 do."""
    assert _live_data_at_tangent_calls(monkeypatch, 10) == _live_data_at_tangent_calls(monkeypatch, 100)


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_small_trial_counts_test_every_check(trials):
    """At --trials 1 to 3 each sampling check still draws a sample and gates
    on at least one: every check but the pinned sym6 constant passes, and
    none is skipped."""
    report = cli.run_suites("all", suites.RunConfig(seed=7, trials=trials))
    statuses = {c.id: c.status for c in report}
    assert statuses.pop("schubert.sym6_top_chern_stated_constant") == "fail"
    assert set(statuses.values()) == {"pass"}, [c for c in report if c.status != "pass"]
    gate = next(c.expected for c in report if c.id == "epw.sextic_degree")
    assert not gate.startswith(">= 0 "), gate


def test_sextic_degree_draws_its_minimum_lines_at_one_trial(tmp_path):
    """At --trials 1 the one line of p = 17, seed 7 has degree below 6;
    the check draws SEXTIC_MIN_LINES lines whatever --trials says, and
    passes."""
    out = tmp_path / "report.json"
    cli.main(["run", "epw", "--seed", "7", "--prime", "17", "--trials", "1", "--json", str(out)])
    check = next(c for c in json.loads(out.read_text(encoding="utf-8"))["checks"] if c["id"] == "sextic_degree")
    assert check["status"] == "pass", check
    assert check["expected"] == f">= 1 of {suites.SEXTIC_MIN_LINES} lines of degree exactly 6"


def test_a_line_of_degree_above_6_fails_sextic_degree_with_its_witness(monkeypatch):
    """A line whose eleven samples admit no polynomial of degree <= 6 fails
    sextic_degree, with the first such line as the witness; the suite draws
    on and reports, and no other epw check changes status. The seven-sample
    restrictions of the other checks go through as before."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c for c in suites.SUITES["epw"](cfg)}
    interpolate, on_line = epw.interpolate_univariate, epw.sextic_on_line
    lines = []

    def raising_once(field, samples, degree_bound):
        if len(samples) == 11 and len(lines) == 1:
            raise InterpolationError("injected")
        return interpolate(field, samples, degree_bound)

    def recorded(*args, **kwargs):
        if args[3] == 11:
            lines.append(args[1:3])
        return on_line(*args, **kwargs)

    monkeypatch.setattr(epw, "interpolate_univariate", raising_once)
    monkeypatch.setattr(epw, "sextic_on_line", recorded)
    after = {c.id: c for c in suites.SUITES["epw"](cfg)}
    check, old = after["sextic_degree"], before["sextic_degree"]
    assert (old.status, check.status) == ("pass", "fail")
    assert (check.expected, check.witness) == (old.expected, f"line 0: base={lines[0][0]} direction={lines[0][1]}: injected")
    assert int(check.got) == int(old.got) - 1
    assert {k for k in after if after[k].status != before[k].status} == {"sextic_degree"}


def test_det_vs_rank_detector_gates_on_points_of_the_sextic(monkeypatch):
    """At p = 10007 the 12 random points of det_vs_rank_detector lie off the
    sextic, so the check also reads four roots of line restrictions, where
    det = 0: with dim(F_v ∩ A) stuck at 0 the check, run alone, fails at
    seeds 0 and 7."""
    monkeypatch.setattr(epw, "fiber_intersection_dim", lambda A, v: 0)
    entry = [e for e in suites.CHECKS["epw"] if e[0] is suites.det_vs_rank_detector]
    for seed in (0, 7):
        [check] = suites.run_checks(entry, suites.RunConfig(seed=seed))
        assert check.status == "fail", seed


def test_det_vs_rank_detector_draws_a_bounded_number_of_lines(monkeypatch):
    """When no line restriction has a root in F_p, det_vs_rank_detector
    draws DETECTOR_LINES lines and fails with the roots it found and the
    lines it drew; the suite runs to its end and no other check changes."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c for c in suites.SUITES["epw"](cfg)}
    lines = []
    monkeypatch.setattr(suites, "smallest_root", lambda coeffs, p: lines.append(coeffs))
    after = {c.id: c for c in suites.SUITES["epw"](cfg)}
    assert len(lines) == suites.DETECTOR_LINES
    check = after.pop("det_vs_rank_detector")
    assert (before.pop("det_vs_rank_detector").status, check.status) == ("pass", "fail")
    assert (check.got, check.witness) == (
        f"error: 0 of 4 roots on {suites.DETECTOR_LINES} lines",
        "RetryBudgetExhausted in suites.det_vs_rank_detector",
    )
    assert after == before


def test_the_point_stream_makes_its_minimum_searches_at_small_trials():
    """At p = 17, --trials 1 and 2 leave trials // 2 at most one search, and
    at seed 16 that one finds no smooth point. The stream makes
    POINT_MIN_SEARCHES searches at the least, so no epw check skips or fails
    over seeds 0-19."""
    for seed in range(20):
        for trials in (1, 2):
            report = suites.SUITES["epw"](suites.RunConfig(seed=seed, prime=17, trials=trials))
            assert {c.status for c in report} == {"pass"}, (seed, trials, [c for c in report if c.status != "pass"])


def test_perp_meet_join_reaches_every_intersection_dimension():
    """B is completed through a k-dimensional slice of A for k = 0..10, so
    at p = 10007 the pairs meet in every dimension 0..10, not only in 0:
    A with a random Lagrangian, with a member through a 9-dimensional core,
    and with itself among them."""
    check = next(c for c in suites.SUITES["exterior"](suites.RunConfig(seed=7, trials=2)) if c.id == "perp_meet_join")
    assert check.status == "pass"
    assert check.got == f"True on dim(A ∩ B) = {list(range(11))}"


SMALL_PRIME_RUNS = [("epw", 17, 1), ("epw", 19, 0), ("epw", 61, 4), ("quadrics", 23, 0), ("quadrics", 43, 2)]


@pytest.mark.parametrize("suite, prime, seed", SMALL_PRIME_RUNS, ids=[f"{s}-p{p}-s{n}" for s, p, n in SMALL_PRIME_RUNS])
def test_small_prime_sampling_accidents_are_not_failures(suite, prime, seed, tmp_path):
    """At these (prime, seed) a share gate failed on a sampling accident:
    89-94 of 100 lines of degree 6 against a gate of 95, or a first 10-point
    set on a common quadric. Both checks gate on existence, so the run exits
    0; the accident itself still happens, so the run tests the gate."""
    out = tmp_path / "report.json"
    argv = ["run", suite, "--prime", str(prime), "--seed", str(seed), "--json", str(out)]
    assert cli.main(argv) == 0
    by_id = {c["id"]: c for c in json.loads(out.read_text(encoding="utf-8"))["checks"]}
    if suite == "epw":
        assert 1 <= int(by_id["sextic_degree"]["got"]) < 95
    else:
        assert by_id["veronese_independence"]["witness"] != "sets=1"


# The benchmark's two gated workloads in a fresh interpreter, each as the
# op perfbench/workloads.py times at the benchmark seed 7: battery is `run all`
# at CLI defaults with a JSON report, rational_qq its exact QQ calls. The
# profiler is on before `import epwcalc`, so import-time code such as the
# building of `suites.SUITES` is seen and no `functools.cache` is warm; -B
# writes no bytecode. Prints the (file, first line, name) of every code
# object that ran, with the (file, first line, name, calls) of its callers.
_WORKLOAD_PROFILE = """
import cProfile, contextlib, importlib.util, io, json, pathlib, sys, tempfile
src, workloads = sys.argv[1:]
sys.path.insert(0, src)
profile = cProfile.Profile()
profile.enable()
spec = importlib.util.spec_from_file_location("perfbench_workloads", workloads)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
with tempfile.TemporaryDirectory() as tmp:
    for name in ("battery", "rational_qq"):
        op = module.make(name, pathlib.Path(tmp) / "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            op.run(op.prepare(7))
profile.disable()
profile.create_stats()
json.dump([[*key, [[*c, v[0]] for c, v in stats[4].items()]] for key, stats in profile.stats.items()], sys.stdout)
"""

# Field methods that both workloads call only on GF(p): generic code calls
# them on whichever field it is handed, and a test reaches each over QQ.
QQ_PROTOCOL = {
    "scalars.RationalField.sub": "interpolate_univariate; over QQ in test_linalg.py::test_interpolation_examples",
    "scalars.RationalField.dot": "SymplecticSpace.form; over QQ in test_exterior.py::test_is_isotropic_agrees_with_the_form_over_both_fields",
    "scalars.RationalField.sqrt": "quadrics._binary_quadratic_roots; over QQ in test_quadrics.py::test_bitangent_pair_over_qq",
}


def _resolved(path):
    return path if path == "~" else str(Path(path).resolve())


@functools.cache
def _workload_profile():
    """{(file, first line, name): {caller (file, first line, name): calls}}
    of every code object that ran under `_WORKLOAD_PROFILE`, run once per
    test session."""
    package = Path(cli.__file__).resolve().parent
    res = subprocess.run(
        [sys.executable, "-B", "-c", _WORKLOAD_PROFILE, str(package.parent), str(WORKLOADS)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    return {
        (_resolved(f), line, name): {(_resolved(cf), cline, cname): n for cf, cline, cname, n in callers}
        for f, line, name, callers in json.loads(res.stdout)
    }


def _definitions(package):
    """(qualified name, file, first line, name, last line) of every def in
    the package, nested ones included. A decorated def's code starts at its
    first decorator."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((prefix + child.name, str(path), first, child.name, child.end_lineno))
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return out


def _classes_named_only_in_their_own_body(package):
    """The classes defined in the package that no Name or Attribute outside
    their own body names (f-strings included). A class the workloads never
    instantiate, such as an exception raised only on bad input, runs no
    code a profile would see; being named is its reachability."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr

    everywhere = Counter(name for _, tree in trees for name in names(tree))
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and everywhere[node.name] == Counter(names(node))[node.name]
    )


def test_every_function_in_the_package_serves_a_benchmark_workload():
    """No unused API, by traffic: every non-dunder def in `src/epwcalc` runs
    under one op of each of the benchmark's gated workloads at seed 7,
    battery (`run all --seed 7 --json`, 100 trials) and rational_qq. The only exemptions are dunders and
    the QQ_PROTOCOL methods, each with the generic caller and the test that
    reaches it over QQ. Every class is named in the package outside its own
    body."""
    package = Path(cli.__file__).resolve().parent
    unnamed = _classes_named_only_in_their_own_body(package)
    assert not unnamed, f"classes named nowhere outside their own body: {unnamed}"
    reached = _workload_profile()
    unreached = {
        qual
        for qual, path, line, name, _ in _definitions(package)
        if not (name.startswith("__") and name.endswith("__")) and (path, line, name) not in reached
    }
    assert set(QQ_PROTOCOL) <= unreached, "QQ_PROTOCOL names a function the workloads reach"
    unserved = sorted(unreached - set(QQ_PROTOCOL))
    assert not unserved, f"no benchmark workload runs: {unserved}"


def _perfbench_patched_module_names():
    """(module, name) of every module attribute of the package that
    `perfbench/spans.py` patches (its `_SPANS` and `_COUNTED` owners)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", WORKLOADS.parent / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(spans)
    finally:
        sys.dont_write_bytecode = dont_write
    hooks = [(owner, attr) for _, owner, attr, _, _ in spans._SPANS] + [(o, a) for _, o, a in spans._COUNTED]
    return {
        (o.__name__.rpartition(".")[2], attr)
        for owner, attr in hooks
        for o in spans._owners(owner)
        if isinstance(o, types.ModuleType)
    }


def _module_names_read_nowhere(package):
    """(module, name) of each module-level assignment and import of the
    package that nothing reads: no load of the name in its own module, no
    `from .module import name` elsewhere, no attribute of that name, and no
    entry of its module's `__all__`."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    attributes = {n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    unread = []
    for module, tree in trees.items():
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        bound, exported = [], set()
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                if names == ["__all__"]:
                    exported = set(ast.literal_eval(node.value))
                bound += names
        unread += [
            (module, name)
            for name in bound
            if not (name.startswith("__") and name.endswith("__"))
            and name not in exported | loads | attributes
            and (module, name) not in imported
        ]
    return unread


def test_every_module_level_name_is_read():
    """No unused module-level name: every module-level assignment and import
    in `src/epwcalc` is read somewhere in the package. The only exemptions
    are dunders, `__all__` entries and the module attributes that
    `perfbench/spans.py` patches, which its tracer looks up by name."""
    package = Path(cli.__file__).resolve().parent
    unread = sorted(set(_module_names_read_nowhere(package)) - _perfbench_patched_module_names())
    assert not unread, f"module-level names that nothing in the package reads: {unread}"


def test_linalg_coerces_no_entry():
    """Scalars are made canonical where they enter the program, and `linalg`
    trusts its entries: under the same two workload ops, no def in
    `linalg.py` calls `PrimeField.of` or `RationalField.of`. A
    comprehension's calls count for the innermost def around it."""
    package = Path(cli.__file__).resolve().parent
    defs = _definitions(package)
    of_quals = ("scalars.PrimeField.of", "scalars.RationalField.of")
    coerce = [(path, line, name) for qual, path, line, name, _ in defs if qual in of_quals]
    assert len(coerce) == 2
    linalg_path = str(package / "linalg.py")
    linalg_defs = [(first, last, qual) for qual, path, first, _, last in defs if path == linalg_path]

    def enclosing(line):
        return max((d for d in linalg_defs if d[0] <= line <= d[1]), default=(0, 0, f"linalg line {line}"))[2]

    profile = _workload_profile()
    calls = Counter()
    for key in coerce:
        for (path, line, _), n in profile.get(key, {}).items():
            if path == linalg_path:
                calls[enclosing(line)] += n
    assert not calls, dict(calls)
