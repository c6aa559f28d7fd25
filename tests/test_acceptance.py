"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 14's line-class multiplicity, the coefficient of s[4,3] in
c7(Sym^6 S*) on Gr(2, 6), has three routes that share no code:
- the Pieri reduction in `schubert`;
- the root-product Schur oracle in `oracles`, which reproduces 2875 on
  Gr(2, 5);
- Bott localization over the 15 torus-fixed points, computed in this file
  with exact Fractions, weight-independent and reproducing 27 and 2875.
All three give 432*140 = 60480; the catalogued 432*134 = 57888 does not
match. The `schubert` suite still records that mismatch as its one
failing check.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from epwcalc import chow, epw, incidence, lattice, oracles, quadrics, schubert
from epwcalc.exterior import DIM3, ExteriorVector, SymplecticSpace
from epwcalc.linalg import Matrix, Subspace, poly_degree
from epwcalc.rng import derive_rng
from epwcalc.scalars import GF, QQ

F = GF(10007)
SP = SymplecticSpace(F)
SQ = SymplecticSpace(QQ)
# sha256 of the stdout of `epwcalc run all --seed 7`
REPORT_SHA256_SEED7 = "8d36a8c4161fdf7206bdd44141310fa54a87fc3fa4453f9105fc03668bcccae4"


def report(num, ok, detail, elapsed=None):
    mark = "PASS" if ok else "FAIL"
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {mark}: {detail}{suffix}")
    return ok


def test_c01_fiber_dimension_and_isotropy():
    t0 = time.monotonic()
    rnd = derive_rng(101, "acc.fiber")
    checked = 0
    ok = True
    for space in (SQ, SP):
        for _ in range(50):
            v = ExteriorVector(space.field, 1, [space.field.random(rnd) for _ in range(6)])
            if v.is_zero():
                v = ExteriorVector.basis(space.field, 0)
            fib = space.fiber(v)
            ok = ok and fib.dim == 10 and space.is_lagrangian(fib)
            checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and checked == 100 and elapsed < 1.0
    assert report(1, ok, f"{checked} fibers of dimension 10, Lagrangian, over QQ and F_10007", elapsed)


def test_c02_sextic_degree_on_lines():
    t0 = time.monotonic()
    rnd = derive_rng(102, "acc.lines")
    total, exact6 = 0, 0
    A = None
    for i in range(100):
        if i % 10 == 0:
            A = epw.random_lagrangian_datum(SP, rnd)
        p = [1] + [F.random(rnd) for _ in range(5)]
        q = [0] + [F.random(rnd) for _ in range(5)]
        if all(F.is_zero(x) for x in q):
            q[1] = F.one
        coeffs = epw.sextic_on_line(A, p, q, 11)  # raises if inconsistent with degree 6
        total += 1
        if poly_degree(F, coeffs) == 6:
            exact6 += 1
    elapsed = time.monotonic() - t0
    ok = total == 100 and exact6 >= 95 and elapsed < 10.0
    assert report(2, ok, f"degree <= 6 on {total} lines, exactly 6 on {exact6}", elapsed)


def test_c03_triple_quadric_identity():
    t0 = time.monotonic()
    rnd = derive_rng(103, "acc.triple")
    ap = epw.a_plus(SP, rnd)
    ok = epw.verify_triple_quadric(ap, 200, rnd)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    assert report(3, ok, "det M(v) q(w)^3 = det M(w) q(v)^3 on 200 sample pairs", elapsed)


def test_c04_plus_minus_direct_sum():
    t0 = time.monotonic()
    rnd = derive_rng(104, "acc.apm")
    ap = epw.a_plus(SP, rnd)
    am = epw.a_minus(SP, rnd)
    ok = (
        ap.subspace.dim == 10
        and am.subspace.dim == 10
        and SP.is_lagrangian(ap.subspace)
        and SP.is_lagrangian(am.subspace)
        and ap.subspace.meet(am.subspace).dim == 0
        and ap.subspace.join(am.subspace).dim == 20
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    assert report(4, ok, "the two construction Lagrangians are a direct sum of the 20-dim space", elapsed)


def test_c05_smoothness_criterion_equivalence():
    t0 = time.monotonic()
    rnd = derive_rng(105, "acc.smooth")
    ok = True
    tested = 0
    while tested < 100:
        if tested % 5 == 4:
            w = _random_3subspace(rnd)
            dec = SP.decomposable_of(w)
            A = epw.EpwLagrangian(
                SP, SP.lagrangian_completion(Subspace.from_spanning(F, DIM3, [dec.coords]), rnd)
            )
            coeffs = [F.random(rnd) for _ in range(3)]
            v = [F.zero] * 6
            for c, row in zip(coeffs, w.basis()):
                v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
            if all(F.is_zero(x) for x in v):
                continue
        else:
            A = epw.random_lagrangian_datum(SP, rnd)
            try:
                v = epw.find_point_stats(A, rnd)[0].coords
            except epw.RetryBudgetExhausted:
                continue
        grad_nonzero = any(not F.is_zero(g) for g in epw.gradient_det(A, v))
        func = epw.tangent_functional(A, v)
        ok = ok and grad_nonzero == (func is not None and any(not F.is_zero(x) for x in func))
        tested += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    assert report(5, ok, f"gradient criterion matches the stratification at {tested} points", elapsed)


def _random_3subspace(rnd):
    while True:
        s = Subspace.from_spanning(F, 6, [[F.random(rnd) for _ in range(6)] for _ in range(3)])
        if s.dim == 3:
            return s


def test_c06_tangent_functional_proportionality():
    t0 = time.monotonic()
    rnd = derive_rng(106, "acc.tangent")
    done = 0
    ok = True
    while done < 50:
        A = epw.random_lagrangian_datum(SP, rnd)
        try:
            v = epw.find_point_stats(A, rnd)[0].coords
        except epw.RetryBudgetExhausted:
            continue
        func = epw.tangent_functional(A, v)
        if func is None or all(F.is_zero(x) for x in func):
            continue
        grad = epw.gradient_det(A, v)
        nz = any(not F.is_zero(x) for x in grad)
        ok = ok and nz and Matrix(F, [func, grad], ncols=6).rank() == 1
        done += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    assert report(6, ok, f"tangent covector proportional to the gradient at {done} smooth points", elapsed)


def test_c07_incidence_dimensions():
    t0 = time.monotonic()
    rnd = derive_rng(107, "acc.incidence")
    ok = True
    for _ in range(20):
        A = SP.random_lagrangian(rnd)
        u = Subspace.from_spanning(F, DIM3, A.basis()[:9])
        pen = incidence.pencil_through(SP, u)
        B = pen.member(1, 1)
        if B == A:
            B = pen.member(1, 2)
        ok = ok and incidence.omega_tangent_dim(SP, A, B) == 65
    for _ in range(50):
        B = SQ.random_lagrangian(rnd)
        u = Subspace.from_spanning(QQ, DIM3, B.basis()[:9])
        alphas = _admissible_alphas(SQ, B, u, rnd)
        ok = ok and incidence.injective_differential_kernel(SQ, B, u, alphas) == 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    assert report(7, ok, "incidence tangent dimension 65 on 20 pairs; kernel 0 on 50 rational inputs", elapsed)


def _admissible_alphas(space, B, u, rnd, count=10):
    """Random vectors of B off u whose coordinates in B are independent; the
    span of the accepted coordinates grows one vector at a time."""
    Fld = space.field
    alphas = []
    span = Subspace.zero(Fld, 10)
    while len(alphas) < count:
        vec = [Fld.zero] * DIM3
        for c, row in zip([Fld.random(rnd) for _ in range(10)], B.basis()):
            vec = [Fld.add(x, Fld.mul(c, y)) for x, y in zip(vec, row)]
        if u.contains(vec):
            continue
        grown = span.with_vector(B.coords_of(vec))
        if grown.dim > span.dim:
            alphas.append(vec)
            span = grown
    return alphas


def test_c08_tangency_scenarios():
    t0 = time.monotonic()
    rnd = derive_rng(108, "acc.scenario")
    ran = 0
    attempts = 0
    while ran < 100 and attempts < 400:
        attempts += 1
        try:
            sc = incidence.tangency_scenario(SP, rnd)
        except incidence.PreconditionError:
            continue
        assert sc.fiber_member_dim >= 2
        ran += 1
    elapsed = time.monotonic() - t0
    ok = ran == 100 and elapsed < 60.0
    assert report(8, ok, f"all four tangency contracts hold on {ran} seeded scenarios", elapsed)


def test_c09_symmetric_degeneracy_degrees():
    t0 = time.monotonic()
    vals = (
        quadrics.harris_tu_degree(4, 2),
        quadrics.harris_tu_degree(4, 3),
        quadrics.harris_tu_degree(3, 1),
    )
    elapsed = time.monotonic() - t0
    ok = vals == (10, 4, 4)
    assert report(9, ok, f"rank-locus degrees (10, 4, 4), got {vals}", elapsed)


def test_c10_bitangent_pairs():
    t0 = time.monotonic()
    rnd = derive_rng(110, "acc.bitangent")
    produced = 0
    ok = True
    while produced < 50:
        try:
            web = _bitangent_fixture(rnd)
            pair = quadrics.bitangent_pair(web)
        except (quadrics.NoRationalRoots, quadrics.DegenerateWeb):
            continue
        produced += 1
        for q in web.qs:
            ok = ok and F.is_zero(quadrics.bilinear(F, q, pair.x, pair.y))
            ok = ok and F.is_zero(quadrics.bilinear(F, q, pair.y, pair.x))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    assert report(10, ok, f"{produced} bitangent pairs satisfy all four bilinear conditions", elapsed)


def _bitangent_fixture(rnd):
    """A web whose first two generators vanish on the line t2 = t3 = 0."""
    qs = []
    for keep_block in (True, True, False, False):
        m = [[F.zero] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                if keep_block and i < 2 and j < 2:
                    continue
                m[i][j] = m[j][i] = F.random(rnd)
        qs.append(Matrix(F, m))
    return quadrics.WebOfQuadrics(F, qs)


def test_c11_degree_table():
    t0 = time.monotonic()
    model = chow.VarietyModel()
    idents = chow.table_identities(model)
    ok = all(l == r for _, l, r in idents)
    values = (12, 60, 828, 324, 40, 24, 192)
    table_vals = tuple(
        int(model.table[k])
        for k in (
            ("h", "h", "h", "h"),
            ("c2", "h", "h"),
            ("c2", "c2"),
            ("c4",),
            ("Z", "h", "h"),
            ("Z", "c2"),
            ("Z", "Z"),
        )
    )
    ok = ok and table_vals == values
    elapsed = time.monotonic() - t0
    assert report(11, ok, "degree table satisfies the three rank-locus identities and chi(O) = 3", elapsed)


def test_c12_relation_replay():
    t0 = time.monotonic()
    model = chow.VarietyModel()
    emb = chow.EmbeddingModel(model)
    r2, r3, r4 = chow.derive_relations(model, emb)  # the classes that vanish
    h = model.sym("h")
    c2 = model.sym("c2")
    Zs = model.sym("Z")
    c4 = model.sym("c4")
    # R3 and R4 modulo R2 = c2 + 3Z - 15h^2, solved for Z and for c2
    r3_mod = r3.substitute("Z", Zs - r2.scale(Fraction(1, 3)))
    r4_mod = r4.substitute("c2", c2 - r2)
    c4_expr = c4 - r4_mod
    ok = (
        r2.terms[("Z",)] == 3
        and r2.terms[("c2",)] == 1
        and r3_mod.scale(1 / r3_mod.terms[("c2", "h")]) == c2 * h - (h**3).scale(5)
        and c4_expr == (h**4).scale(435) - (h * h * Zs).scale(180) + (Zs * Zs).scale(12)
        and (model.degree(c4), model.degree(c4_expr)) == (Fraction(324), Fraction(324))
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    assert report(12, ok, "two-route replay: c2 h = 5h^3 and c4 = 435h^4 - 180h^2Z + 12Z^2 (degree 324)", elapsed)


def test_c13_riemann_roch_values():
    t0 = time.monotonic()
    model = chow.VarietyModel()
    ok = all(
        chow.hrr_chi(model, model.line(n)) == Fraction(n**4, 2) + Fraction(5 * n**2, 2) + 3
        for n in range(-3, 6)
    )
    ok = ok and chow.hrr_chi(model, model.line(3)) == 66
    ok = ok and lattice.BBLattice(model).odd_section_count() == 10
    elapsed = time.monotonic() - t0
    assert report(13, ok, "chi(O(n)) polynomial on -3..5; chi(O(3)) = 66; 10 odd cubic sections", elapsed)


def test_c14_line_class_oracle_and_plucker_degree():
    t0 = time.monotonic()
    cls = schubert.sym6_top_chern()
    oracle = oracles.sym_power_box_class(6)
    ok = dict(cls.coeffs) == oracle
    ok = ok and oracles.sym_power_box_class(5, cols=3) == {(3, 3): 2875}
    ctx = schubert.Context(2, 6)
    x = schubert.SchubertClass.one(ctx)
    for _ in range(8):
        x = schubert.pieri(x, 1)
    ok = ok and schubert.integrate(x) == 14
    elapsed = time.monotonic() - t0
    assert report(14, ok, "line class matches the root-product oracle; integrate(s1^8) = 14", elapsed)


def _bott_top_chern_line_integral(n, d, weights):
    """The integral over Gr(2, n) of c_{d+1}(Sym^d S*) * s1^m, m = 2(n-2) - d - 1,
    by Bott's residue formula (Ellingsrud-Stromme, JAMS 9, 1996).

    The torus with pairwise distinct weights w on the base space fixes the
    C(n, 2) coordinate planes <e_i, e_j>. There S* has weights -w_i, -w_j,
    Sym^d S* the weights -(a w_i + (d-a) w_j) for a = 0..d, s1 = c1(S*)
    restricts to -(w_i + w_j), and the tangent space Hom(S, Q) has the
    weights w_k - w_i, w_k - w_j for k outside {i, j}.
    """
    total = Fraction(0)
    for i, j in combinations(range(n), 2):
        x, y = -weights[i], -weights[j]
        top = 1
        for a in range(d + 1):
            top *= a * x + (d - a) * y
        euler = 1
        for k in range(n):
            if k not in (i, j):
                euler *= (weights[k] - weights[i]) * (weights[k] - weights[j])
        total += Fraction(top * (x + y) ** (2 * (n - 2) - d - 1), euler)
    return total


def test_c14_line_class_stated_constant():
    """The line-class multiplicity, derived outside the program.

    Three routes give 432*140 = 60480 for the coefficient of s[4,3] in
    c7(Sym^6 S*) on Gr(2, 6):
    - the class 432*e1*e2*(10e1^4 + 37e1^2e2 + 16e2^2) of
      `schubert.sym6_top_chern`, integrated against s1 with
      int s11^j s1^(8-2j) = deg Gr(2, 6-j) = 14, 5, 2, 1, gives
      432*(10*5 + 37*2 + 16*1);
    - the Pieri route and the root-product oracle (checked in the test
      above, the oracle reproducing 2875 on Gr(2, 5));
    - Bott localization, computed here. Since s[4,3]*s1 is the point
      class, the coefficient is the integral of c7 * s1. The sum is trusted
      only after it is the same for two weight vectors and it reproduces
      the 27 lines on a cubic surface and the 2875 lines on a quintic
      threefold.
    The catalogued 432*134 = 57888 matches none of them.
    """
    weights = ([0, 1, 3, 7, 12, 20], [2, -5, 11, 4, -1, 9])
    for w in weights:
        assert _bott_top_chern_line_integral(4, 3, w[:4]) == 27
        assert _bott_top_chern_line_integral(5, 5, w[:5]) == 2875
    values = [_bott_top_chern_line_integral(6, 6, w) for w in weights]
    assert values[0] == values[1] == 432 * 140
    stated = values[0]
    got = schubert.sym6_top_chern().coeffs
    ok = got == {(4, 3): stated}
    detail = f"line-class multiplicity {stated} = 432*140 by Bott localization; the catalogued 57888 does not match"
    report(14, ok, detail)
    assert ok, f"sym6_top_chern gives {got}, Bott localization gives {{(4, 3): {stated}}}"


def test_c15_lattice_battery():
    t0 = time.monotonic()
    lat = lattice.BBLattice(chow.VarietyModel())
    h, alpha = lat.h, lat.basis_vector(0)
    ok = (
        lat.quad_intersection(h, h, h, h) == 12
        and lat.chi_of_class(-2) == 1
        and (lat.fujiki, lat.c2_constant) == (3, 30)
        and lat.quad_intersection(h, h, alpha, alpha) != 0 == lat.c2_constant * lat.q(alpha, alpha)
        and lat.signature() == (3, 20)
        and abs(lat.determinant()) == 2
    )
    elapsed = time.monotonic() - t0
    assert report(15, ok, "h^4 = 12, chi(-2) = 1, (c, C) = (3, 30), independence of h^2 and c2, (3,20), |det| 2", elapsed)


def test_c16_cli_determinism_and_budget():
    t0 = time.monotonic()
    runs = []
    for _ in range(2):
        res = subprocess.run(
            [sys.executable, "-m", "epwcalc", "run", "all", "--seed", "7"],
            capture_output=True,
        )
        runs.append(res)
    elapsed = time.monotonic() - t0
    same = runs[0].stdout == runs[1].stdout
    # the refactor guard: the report bytes of seed 7 are fixed
    pinned = hashlib.sha256(runs[0].stdout).hexdigest() == REPORT_SHA256_SEED7
    doc = json.loads(runs[0].stdout)
    schema_ok = set(doc) == {"suite", "seed", "prime", "checks", "ms"} and doc["seed"] == 7
    # the battery honestly carries the one documented failing check
    failing = [c["id"] for c in doc["checks"] if c["status"] == "fail"]
    expected_failures = ["schubert.sym6_top_chern_stated_constant"]
    ok = same and pinned and schema_ok and failing == expected_failures and elapsed < 360.0 and elapsed / 2 < 180.0
    assert report(16, ok, f"byte-identical reruns of the full battery ({elapsed / 2:.0f}s per run)", elapsed)
