import ast
import contextlib
import functools
import io
import itertools
import json
import resource
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from epwcalc import chow, cli, epw, fpkernel, incidence, lattice, oracles, quadrics, suites
from epwcalc.exterior import DIM3, SymplecticSpace
from epwcalc.linalg import Matrix, Subspace
from epwcalc.rng import derive_rng
from epwcalc.scalars import GF

TRACEABILITY = Path(__file__).resolve().parents[1] / "docs" / "traceability.md"
README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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


def _fault_c2_pairing(monkeypatch):
    """c2_pairing off by one on two distinct classes, which the squares of
    c2_pairing_consistency never pair."""
    pairing = lattice.BBLattice.c2_pairing
    monkeypatch.setattr(lattice.BBLattice, "c2_pairing", lambda self, a, b: pairing(self, a, b) + (a != b))


def _fault_sextic_top_coefficient(monkeypatch):
    """The 11-point route with its t^6 coefficient zeroed. The point search
    runs on the factored route, so only the degree check reads this one."""
    sextic = epw.sextic_on_line

    def faulty(A, p, q, chart=None):
        return [*sextic(A, p, q, chart)[:6], A.field.zero]

    monkeypatch.setattr(epw, "sextic_on_line", faulty)


def _fault_pencil_member_off_perp(monkeypatch):
    """member(3, 1) as the core plus a unit vector off perp(core): it still
    meets member(1, 2) in the core, but it is not Lagrangian."""
    member = incidence.LagrangianPencil.member

    def faulty(self, t, s):
        if (t, s) != (3, 1):
            return member(self, t, s)
        perp = self.space.perp(self.core)
        off = next(e for e in Subspace.full(perp.field, DIM3).basis() if not perp.contains(e))
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
        s1, (a, b), double = roots(field, alpha, beta, gamma)
        if next(calls) % 2:
            a = field.add(a, field.one)
        return s1, (a, b), double

    monkeypatch.setattr(quadrics, "_binary_quadratic_roots", faulty)


def _fault_canonical_relation_rhs(monkeypatch):
    """The sequence on the surface read as 2 c1(N) = 12 hZ."""
    relation = chow.normal_bundle_canonical_relation

    def faulty(emb):
        two_c1n, six_hz = relation(emb)
        return two_c1n, six_hz.scale(2)

    monkeypatch.setattr(chow, "normal_bundle_canonical_relation", faulty)


def _fault_chi_at_minus_two(monkeypatch):
    """chi of a class of square -2 read as 2; the odd sections read chi at
    q = 18 only."""
    chi = lattice.chi_of_class
    monkeypatch.setattr(lattice, "chi_of_class", lambda q: chi(q) + (q == -2))


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
    monkeypatch.setattr(epw, "a_minus", lambda space, ubasis, rng: plus(space, ubasis, rng))


def _fault_u_wedge_is_random(monkeypatch):
    """A random 3-space of the base space in place of u ^ U, whose wedge
    cube does not lie in A_+."""
    monkeypatch.setattr(suites, "_u_wedge_subspace", lambda field, rng: suites._random_subspace(field, rng, 6, 3))


FAULTS = {
    ("chow", "c2h_equals_5h3"): _fault_c2h_rhs,
    ("chow", "c4_combination"): _fault_c4_expression,
    ("bbf", "gram_invariants"): _fault_plus_two_summand,
    ("schubert", "sym6_top_chern_oracle"): _fault_oracle_coefficient,
    ("bbf", "deg6_functional"): _fault_c2_pairing,
    ("epw", "sextic_degree"): _fault_sextic_top_coefficient,
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


def test_a_failed_derivation_fails_both_relation_checks(monkeypatch):
    """When the relation replay raises, both checks it feeds fail under their
    own anchors, with the error as `got`; no other check changes."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.run_chow(cfg)}

    def raising(model, emb):
        raise chow.DerivationError("injected")

    monkeypatch.setattr(chow, "derive_relations", raising)
    after = {c.id: c for c in suites.run_chow(cfg)}
    anchors = {(suite, cid): statement for suite, cid, statement, _ in _traceability_rows()}
    for cid in ("c2h_equals_5h3", "c4_combination"):
        assert (before[cid], after[cid].status) == ("pass", "fail")
        assert after[cid].anchor == anchors["chow", cid]
        assert after[cid].got == "error: injected"
    assert list(after) == list(before)
    assert {k for k in after if after[k].status != before[k]} == {"c2h_equals_5h3", "c4_combination"}


def _chow_changes(cfg, before):
    """The chow checks whose status differs from `before`, with their `got`."""
    return {c.id: c.got for c in suites.run_chow(cfg) if c.status != before[c.id]}


def test_relation_faults_report_what_the_relations_force(monkeypatch):
    """Read modulo R2, the faulty R3 gives c2*h = 4h^3 and the faulty R4 a
    c4 expression of degree 324 - deg Z^2 = 132."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.run_chow(cfg)}
    with monkeypatch.context() as patch:
        _fault_c2h_rhs(patch)
        assert _chow_changes(cfg, before) == {"c2h_equals_5h3": "4*h*h*h"}
    _fault_c4_expression(monkeypatch)
    assert _chow_changes(cfg, before) == {"c4_combination": "132"}


def test_the_codimension_2_relation_gates_both_relation_checks(monkeypatch):
    """Both relation checks eliminate with R2, so R2 + Z in its place moves
    c2*h = 5h^3 and the c4 expression: both fail, and no other check."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.run_chow(cfg)}
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
    before = {c.id: c.status for c in suites.run_chow(cfg)}

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
    three checks that read it report a skip with the reason as its witness,
    and no other check changes status."""
    cfg = suites.RunConfig(seed=0, trials=2)
    before = {c.id: c.status for c in suites.run_epw(cfg)}

    def exhausted(A, rng, budget=60):
        raise epw.RetryBudgetExhausted("injected")

    monkeypatch.setattr(epw, "find_point_stats", exhausted)
    after = {c.id: c for c in suites.run_epw(cfg)}
    changed = {
        k: (before[k], c.status, c.expected, c.got, c.witness) for k, c in after.items() if c.status != before[k]
    }
    missed = "retry budget exhausted on every search (budget_miss=1)"
    assert changed == {
        "smoothness_equivalence": ("pass", "skip", "", "", missed),
        "tangent_functional_proportional": ("pass", "skip", "", "", "no smooth point among 0 found (budget_miss=1)"),
        "point_search_retries": ("pass", "skip", "", "", missed),
    }


def test_a_nonsingular_low_rank_point_fails_both_scan_checks(monkeypatch):
    """A rank <= 2 member off the singular locus of the quartic contradicts
    the adjugate argument; both scans gate on their count of such points
    instead of raising inside the scan."""
    cfg = suites.RunConfig(seed=0, trials=2)
    monkeypatch.setattr(quadrics, "_cubic_values", lambda compiled, t, p: [1, 0, 0, 0])
    by_id = {c.id: c for c in suites.run_quadrics(cfg)}
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
    cube = sp.decomposable_of(suites._random_subspace(sp.field, rng, 6, 3)).coords
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


def test_traceability_lists_every_check_of_the_report_in_order():
    report = cli.run_suites("all", suites.RunConfig(seed=0, trials=2))
    rows = _traceability_rows()
    assert [(suite, cid) for suite, cid, *_ in rows] == [tuple(c.id.split(".", 1)) for c in report]
    for (suite, cid, statement, _), check in zip(rows, report):
        assert statement.startswith(check.anchor), check.id
        if cid != "sym6_top_chern_stated_constant":
            assert statement == check.anchor, check.id
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


def test_each_yield_shape_becomes_its_check():
    """A suite yields (id, anchor, ok), (id, anchor, ok, expected, got[,
    witness]) or (id, anchor, None, why) per check. A suite call returns the
    list of Checks, not a generator, so timing the call times the checks."""

    @suites._checks
    def toy(cfg):
        yield "a", "expects True", 1 == 1
        yield "b", "expects True", False
        yield "c", "compares", 2 == 3, 2, 3
        yield "d", "witnessed", True, (1, 2), {1}, "w"
        yield "e", "skipped", None, "why"

    assert toy(None) == [
        suites.Check("a", "expects True", "pass", "True", "True"),
        suites.Check("b", "expects True", "fail", "True", "False"),
        suites.Check("c", "compares", "fail", "2", "3"),
        suites.Check("d", "witnessed", "pass", "(1, 2)", "{1}", "w"),
        suites.Check("e", "skipped", "skip", "", "", "why"),
    ]
    cfg = suites.RunConfig(seed=0, trials=1)
    for run in suites.SUITES.values():
        checks = run(cfg)
        assert type(checks) is list and checks and all(type(c) is suites.Check for c in checks)


def test_epw_suite_work_counts_at_seed_7(monkeypatch):
    """The epw suite at seed 7 and CLI defaults makes 50 point searches and
    1,921 F_p forward eliminations: one point stream of 60 samples, each
    with one tangent covector (one meet, no solve for its alpha) and one
    gradient."""
    calls = Counter()

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return run

    monkeypatch.setattr(fpkernel, "_forward", counted("forward", fpkernel._forward))
    for name in ("find_point_stats", "tangent_functional", "gradient_det"):
        monkeypatch.setattr(epw, name, counted(name, getattr(epw, name)))
    suites.run_epw(suites.RunConfig(seed=7))
    assert calls == {"find_point_stats": 50, "forward": 1921, "tangent_functional": 60, "gradient_det": 60}


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


def test_perp_meet_join_reaches_every_intersection_dimension():
    """B is completed through a k-dimensional slice of A for k = 0..9, so at
    p = 10007 the pairs meet in every dimension 0..9, not only in 0."""
    check = next(c for c in suites.run_exterior(suites.RunConfig(seed=7, trials=2)) if c.id == "perp_meet_join")
    assert check.status == "pass"
    assert check.got == f"True on dim(A ∩ B) = {list(range(10))}"


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
# `suites._checks` decorator is seen and no `functools.cache` is warm; -B
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


def test_linalg_coerces_no_entry_outside_certified_rank_full():
    """Scalars are made canonical where they enter the program, and `linalg`
    trusts its entries: under the same two workload ops, no def in
    `linalg.py` calls `PrimeField.of` or `RationalField.of` but
    `certified_rank_full`, whose reduction mod 10007 is a change of field.
    A comprehension's calls count for the innermost def around it."""
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
    assert set(calls) == {"linalg.certified_rank_full"}, dict(calls)
