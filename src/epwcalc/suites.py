"""Named verification batteries producing machine-readable reports.

Each suite replays the invariants of its module on seeded samples; check
anchors state the mathematical fact being verified. Reports are pure
functions of (seed, prime, trials).

A suite is written as a generator that yields one tuple per check, in
report order: (id, anchor, ok) for a check that expects True,
(id, anchor, ok, expected, got[, witness]) for any other, and
(id, anchor, None, why) for a skip. `_checks` collects the tuples into the
list of `Check`s that the suite function returns, so a call of the suite
runs all of its checks, and stamps each with the process CPU spent since
the previous yield (or the call), which includes the shared state the
suite built for that check.
"""

import time
from dataclasses import dataclass, field as dataclass_field
from functools import wraps
from fractions import Fraction
from math import comb

from . import chow, epw, incidence, lattice, oracles, quadrics, schubert
from .exterior import DIM3, ExteriorVector, SymplecticSpace
from .linalg import InterpolationError, Matrix, ShapeError, Subspace, adjugate, poly_degree
from .rng import derive_rng
from .scalars import GF, QQ


@dataclass(frozen=True)
class Check:
    id: str
    anchor: str
    status: str  # pass / fail / skip
    expected: str
    got: str
    witness: str | None = None
    # process CPU milliseconds since the previous check's yield (or the
    # suite call): left out of json_obj and of equality
    cpu_ms: int = dataclass_field(default=0, compare=False, repr=False)

    def json_obj(self):
        obj = {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "expected": self.expected,
            "got": self.got,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    prime: int = 10007
    trials: int = 100


def _basis_slice(s, part):
    """The span of a slice of s's canonical basis. Each row is 1 at its own
    pivot and 0 at every other, so the rows and their pivots already are the
    span's canonical RREF: nothing is eliminated."""
    return Subspace(s.field, s.ambient, s.basis()[part], s.pivots[part])


def _checks(suite):
    """The suite generator `suite` as a function that returns its checks."""

    @wraps(suite)
    def run(cfg: RunConfig):
        checks = []
        start = time.process_time()
        spent = 0
        for cid, anchor, ok, *rest in suite(cfg):
            # milliseconds off one clock, so a suite's checks sum to its total
            ms = int((time.process_time() - start) * 1000) - spent
            spent += ms
            if ok is None:
                checks.append(Check(cid, anchor, "skip", "", "", *rest, cpu_ms=ms))
            else:
                expected, got, *witness = rest or (True, ok)
                checks.append(Check(cid, anchor, "pass" if ok else "fail", str(expected), str(got), *witness, cpu_ms=ms))
        return checks

    return run


# --------------------------------------------------------------------------


@_checks
def run_exterior(cfg: RunConfig):
    Fp = GF(cfg.prime)
    sp = SymplecticSpace(Fp)
    sq = SymplecticSpace(QQ)

    rng = derive_rng(cfg.seed, "exterior.fiber")
    ok = True
    for i in range(max(cfg.trials // 2, 4)):
        space = sq if i % 10 == 0 else sp
        v = ExteriorVector(space.field, 1, [space.field.random(rng) for _ in range(6)])
        if v.is_zero():
            continue
        fib = space.fiber(v)
        ok = ok and fib.dim == 10 and space.is_lagrangian(fib)
    yield "fiber_lagrangian", "dim F_v = C(5,2) = 10 and F_v is Lagrangian", ok

    rank = sp.gram().rank()
    yield "gram_nondegenerate", "the wedge pairing on 3-vectors has full rank 20", rank == 20, 20, rank

    rng = derive_rng(cfg.seed, "exterior.anticomm")
    ok = True
    for _ in range(24):
        j, k = rng.choice([(1, 1), (1, 2), (2, 1), (3, 3), (2, 2), (1, 3)])
        a = ExteriorVector(Fp, j, [Fp.random(rng) for _ in range(comb(6, j))])
        b = ExteriorVector(Fp, k, [Fp.random(rng) for _ in range(comb(6, k))])
        lhs = a.wedge(b)
        rhs = b.wedge(a).scale((-1) ** (j * k))
        ok = ok and lhs == rhs
    yield "graded_anticommutativity", "a^b = (-1)^{jk} b^a", ok

    rng = derive_rng(cfg.seed, "exterior.perp")
    ok = True
    for _ in range(8):
        d = rng.randrange(0, 12)
        vecs = [[Fp.random(rng) for _ in range(DIM3)] for _ in range(d)]
        s = Subspace.from_spanning(Fp, DIM3, vecs)
        pp = sp.perp(sp.perp(s))
        ok = ok and pp == s and sp.perp(s).dim == DIM3 - s.dim
    yield "perp_involution", "perp(perp(S)) = S and dim perp = 20 - dim S", ok

    # B is completed from the first k rows of A, so A ∩ B has dimension k
    # unless the completion meets A again
    rng = derive_rng(cfg.seed, "exterior.perpsum")
    ok = True
    dims = []
    for k in range(10):
        A = sp.random_lagrangian(rng)
        B = sp.lagrangian_completion(_basis_slice(A, slice(k)), rng)
        meet = A.meet(B)
        dims.append(meet.dim)
        ok = ok and sp.perp(meet) == A.join(B)
    yield (
        "perp_meet_join",
        "perp(A ∩ B) = A + B for Lagrangian pairs",
        ok,
        "True on pairs through isotropic slices of dimension 0..9",
        f"{ok} on dim(A ∩ B) = {dims}",
    )

    rng = derive_rng(cfg.seed, "exterior.decomposable")
    ok = True
    for _ in range(20):
        w1 = _random_3_space(Fp, rng)
        w2 = _random_3_space(Fp, rng)
        d1, d2 = sp.decomposable_of(w1), sp.decomposable_of(w2)
        vanish = Fp.is_zero(sp.form(d1, d2))
        ok = ok and (vanish == (w1.meet(w2).dim > 0))
    # random pairs are transverse but with probability about 1/p, so the
    # direction "= 0 when W ∩ W' != 0" takes pairs that share W's first row
    rng = derive_rng(cfg.seed, "exterior.decomposable.meet")
    for _ in range(20):
        w1 = _random_3_space(Fp, rng)
        while True:
            rows = [w1.basis()[0]] + [[Fp.random(rng) for _ in range(6)] for _ in range(2)]
            w2 = Subspace.from_spanning(Fp, 6, rows)
            if w2.dim == 3:
                break
        d1, d2 = sp.decomposable_of(w1), sp.decomposable_of(w2)
        ok = ok and Fp.is_zero(sp.form(d1, d2)) and w1.meet(w2).dim > 0
    yield "decomposable_orthogonality", "form(cube(W), cube(W')) = 0 iff W ∩ W' is nonzero", ok


def _random_3_space(field, rng):
    """A random 3-space of the 6-dimensional base space: three random rows,
    redrawn until they span."""
    while True:
        s = Subspace.from_spanning(field, 6, [[field.random(rng) for _ in range(6)] for _ in range(3)])
        if s.dim == 3:
            return s


# --------------------------------------------------------------------------


@_checks
def run_epw(cfg: RunConfig):
    Fp = GF(cfg.prime)
    sp = SymplecticSpace(Fp)
    rng = derive_rng(cfg.seed, "epw.generic")
    A = epw.random_lagrangian_datum(sp, rng)

    ok = True
    for _ in range(12):
        v = [Fp.random(rng) for _ in range(6)]
        if all(Fp.is_zero(x) for x in v):
            continue
        d = epw.fiber_intersection_dim(A, v)
        det = epw.pairing_det(A, v)
        ok = ok and ((d == 0) == (not Fp.is_zero(det)))
    yield "det_vs_rank_detector", "det of the pairing vanishes iff the fiber meets the Lagrangian", ok

    rng = derive_rng(cfg.seed, "epw.sextic")
    deg6 = 0
    above = None  # the first line whose samples admit no degree <= 6
    lines = max(cfg.trials, SEXTIC_MIN_LINES)
    for k in range(lines):
        B = epw.random_lagrangian_datum(sp, rng) if rng.random() < 0.2 else A
        base = [1] + [Fp.random(rng) for _ in range(5)]
        direction = [0] + [Fp.random(rng) for _ in range(5)]
        if all(Fp.is_zero(x) for x in direction):
            continue
        try:
            coeffs = epw.sextic_on_line(B, base, direction, chart=0)
        except InterpolationError as exc:
            above = above or f"line {k}: base={base} direction={direction}: {exc}"
            continue
        if poly_degree(Fp, coeffs) == 6:
            deg6 += 1
    # one line of degree 6 shows that the top coefficient, a polynomial in
    # the line, is not identically zero; one of degree above 6 fails
    yield (
        "sextic_degree",
        "line restriction of the pairing determinant has degree <= 6, generically 6",
        above is None and deg6 >= 1,
        f">= 1 of {lines} lines of degree exactly 6",
        deg6,
        above,
    )

    rng = derive_rng(cfg.seed, "epw.triple")
    ap = epw.a_plus(sp, rng)
    am = epw.a_minus(sp, rng)
    yield (
        "triple_quadric",
        "the sextic of the symmetric-construction Lagrangian is the quadric cubed",
        epw.verify_triple_quadric(ap, cfg.trials, rng),
    )
    neg = epw.verify_triple_quadric(A, 8, derive_rng(cfg.seed, "epw.triple.neg"))
    yield "triple_quadric_generic_fails", "a generic sextic is not a quadric cube", not neg, False, neg
    rng_q = derive_rng(cfg.seed, "epw.quadric_points")
    ok = True
    for _ in range(12):
        x = [Fp.random(rng_q) for _ in range(4)]
        y = [Fp.random(rng_q) for _ in range(4)]
        v = epw.wedge2_of_4(Fp, x, y)  # decomposable: on the quadric
        if all(Fp.is_zero(c) for c in v) or Fp.is_zero(v[0]):
            continue
        ok = ok and Fp.is_zero(epw.pairing_det(ap, v, 0))
    yield "quadric_inside_sextic", "the Grassmannian quadric lies inside the sextic", ok

    mm = ap.subspace.meet(am.subspace)
    jj = ap.subspace.join(am.subspace)
    ok = (
        ap.subspace.dim == 10
        and am.subspace.dim == 10
        and mm.dim == 0
        and jj.dim == 20
        and sp.is_lagrangian(ap.subspace)
        and sp.is_lagrangian(am.subspace)
    )
    yield (
        "plus_minus_decomposition",
        "the 3-vector space splits as the direct sum of the two construction Lagrangians",
        ok,
    )

    # one stream of points of the sextic for the three point checks: a point
    # found on a fresh datum per search, then points of the plane P(w) of a
    # datum through a decomposable, each kept as its lines tried (None off
    # the search), its tangent covector and its gradient, read as it is
    # drawn, so that one datum is alive at a time
    rng = derive_rng(cfg.seed, "epw.points")
    points = []
    budget_miss = 0
    for _ in range(max(cfg.trials // 2, POINT_MIN_SEARCHES)):
        B = epw.random_lagrangian_datum(sp, rng)
        try:
            point, tried = epw.find_point_stats(B, rng)
        except epw.RetryBudgetExhausted:
            budget_miss += 1
            continue
        points.append((tried, epw.tangent_functional(B, point.coords), epw.gradient_det(B, point.coords)))
    for _ in range(max(cfg.trials // 10, 1)):
        # a Lagrangian through a decomposable: singular points on the plane
        w, B = _decomposable_datum(sp, rng)
        v = Fp.lincomb([Fp.random(rng) for _ in range(3)], w.basis())
        if not all(Fp.is_zero(x) for x in v):
            points.append((None, epw.tangent_functional(B, v), epw.gradient_det(B, v)))

    def nonzero(vec):
        return vec is not None and any(not Fp.is_zero(x) for x in vec)

    searched = [tried for tried, _, _ in points if tried is not None]
    smooth = [(func, grad) for _, func, grad in points if nonzero(func)]
    # the decomposable samples test only the singular side, so both
    # directions need a searched point
    missed = None, f"retry budget exhausted on every search (budget_miss={budget_miss})"

    ok = all(nonzero(grad) == nonzero(func) for _, func, grad in points)
    yield (
        "smoothness_equivalence",
        "gradient nonzero iff the fiber meets A in one indecomposable line",
        *((ok, True, ok, f"tested={len(points)} budget_miss={budget_miss}") if searched else missed),
    )

    ok = all(nonzero(grad) and Matrix(Fp, [func, grad], ncols=6).rank() == 1 for func, grad in smooth)
    yield (
        "tangent_functional_proportional",
        "the hyperplane covector vol(v0 ^ . ^ a ^ a) is proportional to the gradient",
        *(
            (ok, True, ok, f"tested={len(smooth)}")
            if smooth
            else (None, f"no smooth point among {len(searched)} found (budget_miss={budget_miss})")
        ),
    )

    rng = derive_rng(cfg.seed, "epw.sigma")
    w, B = _decomposable_datum(sp, rng)
    pos = epw.sigma_membership(B, w)
    negs = all(
        not epw.sigma_membership(A, _random_3_space(Fp, rng)) for _ in range(10)
    )
    u_line = epw.sigma_membership(ap, _u_wedge_subspace(Fp, rng))
    yield (
        "sigma_membership",
        "the wedge cube lies in A exactly for the constructed 3-spaces",
        pos and negs and u_line,
        True,
        (pos, negs, u_line),
    )

    yield (
        "point_search_retries",
        "expected number of lines scanned before a rational root (report)",
        *((True, "report only", f"{sum(searched) / len(searched):.2f}") if searched else missed),
    )


def _decomposable_datum(sp, rng):
    """(w, B): a random 3-space w of the 6-space and the datum of a
    Lagrangian completed from the wedge cube of w, so that B contains it.
    w is redrawn while its cube lies in wedge^3 <e_1..e_5>, which no
    completion contains (zero at the ten triples with 0)."""
    while True:
        w = _random_3_space(sp.field, rng)
        cube = sp.decomposable_of(w).coords
        if any(cube[:10]):
            break
    seed = Subspace.from_spanning(sp.field, DIM3, [cube])
    return w, epw.EpwLagrangian(sp, sp.lagrangian_completion(seed, rng))


def _u_wedge_subspace(field, rng):
    """The 3-space u ^ U in the wedge-square model, for a random u."""
    while True:
        s = epw.u_wedge_space(field, [field.random(rng) for _ in range(4)])
        if s is not None:
            return s


# --------------------------------------------------------------------------


@_checks
def run_incidence(cfg: RunConfig):
    Fp = GF(cfg.prime)
    sp = SymplecticSpace(Fp)
    sq = SymplecticSpace(QQ)

    rng = derive_rng(cfg.seed, "incidence.pencil")
    ok = True
    for _ in range(6):
        A = sp.random_lagrangian(rng)
        u = _basis_slice(A, slice(9))
        pen = incidence.pencil_through(sp, u)
        m1, m2 = pen.member(1, 2), pen.member(3, 1)
        ok = ok and sp.is_lagrangian(m1) and sp.is_lagrangian(m2) and m1.meet(m2) == u
    yield "pencil_axioms", "members are Lagrangian and meet exactly in the 9-dim core", ok

    rng = derive_rng(cfg.seed, "incidence.omega")
    dims = set()
    for _ in range(10):
        A = sp.random_lagrangian(rng)
        u = _basis_slice(A, slice(9))
        pen = incidence.pencil_through(sp, u)
        B = pen.member(1, 1)
        if B == A:
            B = pen.member(1, 2)
        dims.add(incidence.omega_tangent_dim(sp, A, B))
    yield (
        "omega_tangent_dim",
        "pairs of forms agreeing on the common core: dimension n + C(n+1,2) = 65",
        dims == {65},
        {65},
        dims,
    )
    free_dim = incidence.omega_unknowns(sp, A, B)
    yield "omega_unconstrained", "two free quadratic forms: dimension 110", free_dim == 110, 110, free_dim

    # a kernel system built with rows of unequal width raises ShapeError;
    # it fails the check that built it, with the error as `got`
    rng = derive_rng(cfg.seed, "incidence.knl")
    try:
        ok = all([_injective_differential_sample(sq if i < 3 else sp, rng) == 0 for i in range(10)])
        got = "0" if ok else "nonzero"
    except ShapeError as exc:
        ok, got = False, f"error: {exc}"
    yield (
        "injective_differential_kernel",
        "forms vanishing on a hyperplane and on 10 independent points off it vanish",
        ok,
        0,
        got,
    )

    rng = derive_rng(cfg.seed, "incidence.knl9")
    try:
        dims = [_injective_differential_sample(sp, rng, count=9) for _ in range(5)]
        ok = all(d == 1 for d in dims)
    except ShapeError as exc:
        ok, dims = False, f"error: {exc}"
    yield (
        "relaxed_nine_conditions",
        "with only 9 evaluation conditions one form survives (54 conditions on 55)",
        ok,
        1,
        dims,
    )

    rng = derive_rng(cfg.seed, "incidence.witness")
    B = sp.random_lagrangian(rng)
    u = _basis_slice(B, slice(9))
    try:
        got = incidence.injective_differential_kernel(sp, B, u, B.basis()[9:], require_full=False)
        ok = got >= 1
    except ShapeError as exc:
        ok, got = False, f"error: {exc}"
    yield (
        "hyperplane_product_witness",
        "alphas inside a second hyperplane leave the product of the two linear forms",
        ok,
        ">= 1",
        got,
    )

    rng = derive_rng(cfg.seed, "incidence.perpsum")
    A = sp.random_lagrangian(rng)
    B2 = sp.random_lagrangian(rng)
    ok = (
        incidence.perp_sum_identity(sp, A, A)
        and incidence.perp_sum_identity(sp, A, B2)
        and incidence.perp_sum_identity(sp, A, incidence.pencil_through(sp, _basis_slice(A, slice(9))).member(2, 3))
    )
    yield "perp_sum_identity", "perp(A ∩ B) = A + B", ok

    rng = derive_rng(cfg.seed, "incidence.scenario")
    failures = 0
    ran = 0
    for _ in range(cfg.trials):
        try:
            incidence.tangency_scenario(sp, rng)
            ran += 1
        except incidence.ScenarioFailure:
            failures += 1
            ran += 1
        except incidence.PreconditionError:
            continue
    yield (
        "tangency_scenarios",
        "everywhere-tangent pair: equal fiber lines, a fiber plane in A+B, and a rank-2 pencil member",
        failures == 0 and ran > 0,
        f"0 failures of {ran}",
        failures,
    )

    rng = derive_rng(cfg.seed, "incidence.sigma_tangent")
    A = sp.random_lagrangian(rng)
    full = incidence.sigma_tangent_space(sp, A, [])
    one = incidence.sigma_tangent_space(sp, A, [A.basis()[0]])
    ten = incidence.sigma_tangent_space(sp, A, list(A.basis()))
    ok = full.dim == 55 and one.dim == 54 and ten.dim == 45
    yield (
        "sigma_tangent_dims",
        "evaluation conditions cut 55 -> 54 -> 45 for 0, 1, 10 independent points",
        ok,
        (55, 54, 45),
        (full.dim, one.dim, ten.dim),
    )


def _injective_differential_sample(space, rng, count=10):
    F = space.field
    B = space.random_lagrangian(rng)
    u = _basis_slice(B, slice(9))
    alphas = []
    span = Subspace.zero(F, 10)  # the coordinates of the alphas in B
    guard = 0
    while len(alphas) < count:
        guard += 1
        if guard > 200:
            raise RuntimeError("could not sample admissible alphas")
        vec = F.lincomb([F.random(rng) for _ in range(10)], B.basis())
        if u.contains(vec):
            continue
        grown = span.with_vector(B.coords_of(vec))
        if grown.dim > span.dim:
            alphas.append(vec)
            span = grown
    return incidence.injective_differential_kernel(
        space, B, u, alphas, require_full=(count == 10)
    )


# --------------------------------------------------------------------------

SEXTIC_MIN_LINES = 40  # lines sextic_degree draws at the least, whatever --trials says
POINT_MIN_SEARCHES = 5  # point searches the epw point stream makes at the least
VERONESE_SETS = 64  # 10-point sets drawn before veronese_independence fails


@_checks
def run_quadrics(cfg: RunConfig):
    Fp = GF(cfg.prime)

    ht = (quadrics.harris_tu_degree(4, 2), quadrics.harris_tu_degree(4, 3), quadrics.harris_tu_degree(3, 1))
    dets = all(quadrics.harris_tu_degree(n, n - 1) == n for n in range(2, 7))
    yield (
        "harris_tu_degrees",
        "rank loci of symmetric forms: deg D_2 = 10 on 4x4, determinant degree n, Veronese degree 4",
        ht == (10, 4, 4) and dets,
        (10, 4, 4),
        ht,
    )

    rng = derive_rng(cfg.seed, "quadrics.web")
    web = _random_web(Fp, rng)
    poly = quadrics.quartic_surface(web)
    ok = True
    for _ in range(50):
        t = [Fp.random(rng) for _ in range(4)]
        ok = ok and quadrics._mp_eval(Fp, poly, t) == web.member(t).det()
    yield "quartic_expansion", "expanded determinant agrees with member determinants", ok

    grads = quadrics.quartic_gradient(web)
    ok = True
    for _ in range(20):
        t = [Fp.random(rng) for _ in range(4)]
        adj = [x for row in adjugate(web.member(t)).rows for x in row]
        for i in range(4):
            # tr(adj Q_i) = sum_ab adj[a][b] Q_i[b][a]
            tr = Fp.dot(adj, [x for row in zip(*web.qs[i].rows) for x in row])
            ok = ok and quadrics._mp_eval(Fp, grads[i], t) == tr
    yield "adjugate_gradient_identity", "each partial of det equals trace(adj(Q) Q_i)", ok

    rng = derive_rng(cfg.seed, "quadrics.bitangent")
    good = 0
    want = max(cfg.trials // 2, 10)
    produced = 0
    attempts = 0
    while produced < want and attempts < want * 40:
        attempts += 1
        try:
            web2, line = _bitangent_fixture(Fp, rng)
            pair = quadrics.bitangent_pair(web2, line)
            produced += 1
            good += all(Fp.is_zero(quadrics.bilinear(Fp, q, pair.x, pair.y)) for q in web2.qs)
        except (quadrics.NoRationalRoots, quadrics.DegenerateWeb):
            continue
    yield (
        "bitangent_pairs",
        "the two marked points on a base-locus line satisfy every generator's bilinear condition",
        produced == want and good == want,
        f"{want} verified pairs",
        f"{good} of {produced}",
    )

    # one 10-point set with independent images shows that the dependent sets
    # form a proper closed subset; a set is dependent with probability at
    # most 1 - (1 - 2/p)^10, so all VERONESE_SETS are with at most
    # (1 - (1 - 2/p)^10)^VERONESE_SETS, below 5e-10 at p >= 17
    rng = derive_rng(cfg.seed, "quadrics.veronese")
    for sets in range(1, VERONESE_SETS + 1):
        pts = [_projective_point(Fp, rng) for _ in range(10)]
        r10 = quadrics.veronese_independence(Fp, pts)
        if r10 == 10:
            break
    r11 = quadrics.veronese_independence(Fp, pts + [_projective_point(Fp, rng)])
    conic_pts = [[1, a % cfg.prime, (a * a) % cfg.prime, 0] for a in range(2, 12)]
    r_conic = quadrics.veronese_independence(Fp, conic_pts)
    ok = r10 == 10 and r11 <= 10 and r_conic <= 9
    yield (
        "veronese_independence",
        "10 generic points have independent square images; a common quadric forces dependence",
        ok,
        f"(10 in one of <= {VERONESE_SETS} sets, <=10, <=9)",
        (r10, r11, r_conic),
        f"sets={sets}",
    )

    scan_p = 61
    diag = quadrics.WebOfQuadrics(
        GF(scan_p),
        [_unit_quadric(GF(scan_p), i) for i in range(4)],
    )
    census = quadrics.field_scan(diag)
    expect = {0: 0, 1: 4, 2: 6 * (scan_p - 1)}
    got = {r: census.rank_counts[r] for r in (0, 1, 2)}
    yield (
        "diagonal_scan_census",
        "diagonal web: the rank <= 2 locus is the six coordinate lines, 6p - 2 points",
        got == expect
        and census.rank_counts[1] + census.rank_counts[2] == 6 * scan_p - 2
        and census.rank2_nonsingular == 0,
        expect,
        got,
    )

    rng = derive_rng(cfg.seed, "quadrics.scan")
    web3 = _random_web(GF(scan_p), rng)
    census3 = quadrics.field_scan(web3)
    band = abs(census3.rank_counts[3] - scan_p * scan_p) <= 40 * scan_p
    yield (
        "random_scan",
        "every rank <= 2 point is singular on the quartic; rank-3 count sits in the surface band",
        census3.rank2_nonsingular == 0 and band,
        "no rank <= 2 point with nonzero gradient",
        census3.rank2_nonsingular,
        f"counts={census3.json_rows()} generic={census3.is_generic()} band_ok={band}",
    )


def _projective_point(field, rng):
    """Four random coordinates, redrawn while all are zero: a point of P^3."""
    while True:
        pt = [field.random(rng) for _ in range(4)]
        if any(pt):
            return pt


def _unit_quadric(field, i):
    rows = [[field.zero] * 4 for _ in range(4)]
    rows[i][i] = field.one
    return Matrix(field, rows)


def _random_symmetric(field, rng, zero_block):
    """A random symmetric 4x4 Matrix, drawn row by row on and above the
    diagonal, that vanishes on its top-left zero_block x zero_block block."""
    m = [[field.zero] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(max(i, zero_block), 4):
            m[i][j] = m[j][i] = field.random(rng)
    return Matrix(field, m)


def _random_web(field, rng):
    while True:
        try:
            return quadrics.WebOfQuadrics(field, [_random_symmetric(field, rng, 0) for _ in range(4)])
        except quadrics.DegenerateWeb:
            continue


def _bitangent_fixture(field, rng):
    """(web, line): a web whose first two generators vanish on the line
    t2 = t3 = 0, and that line."""
    r0, r1 = (1, 0, 0, 0), (0, 1, 0, 0)
    qs = [_random_symmetric(field, rng, 2) for _ in range(2)]
    qs += [_random_symmetric(field, rng, 0) for _ in range(2)]
    return quadrics.WebOfQuadrics(field, qs), (r0, r1)


# --------------------------------------------------------------------------


@_checks
def run_chow(cfg: RunConfig):
    model = chow.VarietyModel()
    emb = chow.EmbeddingModel(model)

    idents = chow.table_identities(model)
    ok = all(l == r for _, l, r in idents)
    yield (
        "degree_table_identities",
        "3 deg(Z m) = deg((15h^2 - c2) m) for m in {h^2, c2, Z}; (1/240)(c2^2 - c4/3) = 3",
        ok,
        "all identities hold",
        [(d, str(l), str(r)) for d, l, r in idents],
    )

    h, c2, Z, c4 = (model.sym(name) for name in ("h", "c2", "Z", "c4"))
    # (ok, expected, got[, witness]) of c2h_equals_5h3 and c4_combination:
    # R3 and R4 read modulo R2, with R2 solved for Z and for c2; a failed
    # elimination fails only its own check
    try:
        r2, r3, r4 = chow.derive_relations(model, emb)
    except chow.DerivationError as exc:
        c2h_result = c4_result = (False, "derivation", f"error: {exc}")
    else:
        try:
            c2h_rhs = _solve(r3.substitute("Z", _solve(r2, Z)), c2 * h)
        except chow.DerivationError as exc:
            c2h_result = (False, "derivation", f"error: {exc}")
        else:
            deg = (model.degree(c2 * h * h), model.degree(c2h_rhs * h))
            c2h_ok = c2h_rhs == (h**3).scale(5) and deg[0] == deg[1]
            c2h_result = (c2h_ok, "5*h^3", repr(c2h_rhs), f"degreeCheck={deg}")
        try:
            c4_expr = _solve(r4.substitute("c2", _solve(r2, c2)), c4)
        except chow.DerivationError as exc:
            c4_result = (False, "derivation", f"error: {exc}")
        else:
            c4_deg = model.degree(c4_expr)
            c4_anchor = (h**4).scale(435) - (h * h * Z).scale(180) + (Z * Z).scale(12)
            c4_result = (c4_expr == c4_anchor and model.degree(c4) == c4_deg == 324, 324, str(c4_deg))
    yield "c2h_equals_5h3", "two routes to the cokernel sheaf force c2 h = 5 h^3", *c2h_result
    yield "c4_combination", "c4 = 435 h^4 - 180 h^2 Z + 12 Z^2, of degree 324", *c4_result

    vals = {n: chow.hrr_chi(model, model.line(n)) for n in range(-3, 6)}
    ok = all(v == Fraction(n**4, 2) + Fraction(5 * n**2, 2) + 3 for n, v in vals.items())
    yield (
        "riemann_roch_polynomial",
        "chi(O(n)) = n^4/2 + 5n^2/2 + 3 for n in -3..5; chi(O) = 3, chi(O(3)) = 66",
        ok and vals[0] == 3 and vals[3] == 66 and vals[1] == 6,
        "polynomial values",
        {n: str(v) for n, v in sorted(vals.items())},
    )

    rng = derive_rng(cfg.seed, "chow.roundtrip")
    ok = True
    for _ in range(10):
        b = _random_bundle(model, rng)
        ch = chow.ch_from_c(b)
        back = chow.c_from_ch(model, ch, b.rank)
        ok = ok and all(back.c(i) == b.c(i) for i in range(1, 5))
    yield "chern_character_roundtrip", "c -> ch -> c is the identity", ok

    tx = model.tangent()
    td = chow.todd_from_c(tx)
    sym_td4 = (c2**2).scale(Fraction(3, 720)) - c4.scale(Fraction(1, 720))
    yield (
        "todd_symplectic",
        "with c1 = c3 = 0 the top Todd piece is (3 c2^2 - c4)/720",
        td.component(4) == sym_td4,
        repr(sym_td4),
        repr(td.component(4)),
    )

    p5 = chow.BundleClass(
        model,
        5,
        [h.scale(6), (h * h).scale(15), (h**3).scale(20), (h**4).scale(15)],
    )
    diff = chow.chern_difference(p5, tx)
    expected = (h * h).scale(15) - c2
    deg = model.degree(diff * h * h)
    yield (
        "pullback_tangent_difference",
        "c2 of the pulled-back ambient tangent minus the tangent is 15h^2 - c2; against h^2: 120",
        diff == expected and deg == 120,
        f"{expected!r}; 120",
        f"{diff!r}; {deg}",
    )

    two_c1n, six_hz = chow.normal_bundle_canonical_relation(emb)
    yield (
        "canonical_class_relation",
        "the rank-stratified sequence forces 2 c1(N) = 6 hZ on the surface",
        two_c1n == six_hz,
        repr(six_hz),
        repr(two_c1n),
    )


def _solve(rel, x):
    """The class that the monomial x equals where rel vanishes."""
    (mono,) = x.terms
    if mono not in rel.terms:
        raise chow.DerivationError(f"{x!r} does not occur in {rel!r}")
    return x - rel.scale(1 / rel.terms[mono])


def _random_bundle(model, rng):
    h = model.sym("h")
    c2 = model.sym("c2")
    Z = model.sym("Z")
    c4 = model.sym("c4")
    def r():
        return Fraction(rng.randint(-9, 9))

    return chow.BundleClass(
        model,
        rng.randint(1, 5),
        [
            h.scale(r()),
            (h * h).scale(r()) + c2.scale(r()) + Z.scale(r()),
            (h**3).scale(r()) + (h * c2).scale(r()) + (h * Z).scale(r()),
            (h**4).scale(r()) + c4.scale(r()) + (Z * Z).scale(r()),
        ],
    )


# --------------------------------------------------------------------------


@_checks
def run_schubert(cfg: RunConfig):
    ctx = schubert.Context(2, 6)
    s = schubert.SchubertClass.sigma

    p = schubert.pieri(s(ctx, 1), 1)
    ok1 = p == s(ctx, 2) + s(ctx, 1, 1)
    p2 = schubert.pieri(s(ctx, 4, 3), 1)
    ok2 = p2 == s(ctx, 4, 4)
    x = schubert.pieri(schubert.pieri(s(ctx, 2, 1), 2), 1)
    y = schubert.pieri(schubert.pieri(s(ctx, 2, 1), 1), 2)
    yield (
        "pieri_samples",
        "s1*s1 = s2 + s11; s43*s1 = s44; special products commute",
        ok1 and ok2 and x == y,
        True,
        (ok1, ok2, x == y),
    )

    ok = True
    box = [tuple(p for p in (a, b) if p) for a in range(5) for b in range(a + 1)]
    box = sorted(set(box))
    for lam in box:
        for mu in box:
            if sum(lam) + sum(mu) != 8:
                continue
            val = schubert.integrate(schubert.mul_by_partition(s(ctx, *lam), mu))
            comp = tuple(x for x in (4 - (lam + (0, 0))[1], 4 - (lam + (0, 0))[0]) if x)
            ok = ok and val == (1 if mu == comp else 0)
    yield "duality", "integrate(s_lam * s_mu) = 1 exactly for complementary box partitions", ok

    power = schubert.SchubertClass.one(ctx)
    for _ in range(8):
        power = schubert.pieri(power, 1)
    deg = schubert.integrate(power)
    yield "plucker_degree", "integrate(s1^8) = 14 on Gr(2,6)", deg == 14, 14, deg

    cls = schubert.sym6_top_chern()
    oracle = oracles.sym_power_box_class(6)
    got = cls.coeffs.get((4, 3), 0)
    yield (
        "sym6_top_chern_oracle",
        "Pieri reduction matches the root-product Schur oracle",
        {(4, 3): got} == oracle,
        oracle,
        dict(cls.coeffs),
    )
    yield (
        "sym6_top_chern_stated_constant",
        "multiplicity of the line class: catalogued value 432*134 = 57888",
        got == 57888,
        "57888*s[4,3]",
        f"{got}*s[4,3]",
        "root-product oracle and Pieri agree on 432*140 = 60480; "
        "the catalogued 57888 does not match either route",
    )


# --------------------------------------------------------------------------


@_checks
def run_bbf(cfg: RunConfig):
    lat = lattice.BBLattice()

    det = lat.determinant()
    sig = lat.signature()
    yield (
        "gram_invariants",
        "|det| = 2 and signature (3, 20) for U^3 + E8(-1)^2 + <-2>",
        abs(det) == 2 and sig == (3, 20),
        "(|det|, sig) = (2, (3, 20))",
        (abs(det), sig),
    )

    h = lat.h
    e = lat.e_minus2
    rng = derive_rng(cfg.seed, "bbf.fujiki")
    ok = lat.quad_intersection(h, h, h, h) == 12 and lat.quad_intersection(e, e, e, e) == 12
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(23))
        ok = ok and lat.quad_intersection(a, a, a, a) == 3 * lat.q(a, a) ** 2
        b = tuple(rng.randint(-3, 3) for _ in range(23))
        c = tuple(rng.randint(-3, 3) for _ in range(23))
        d = tuple(rng.randint(-3, 3) for _ in range(23))
        base = lat.quad_intersection(a, b, c, d)
        ok = ok and lat.quad_intersection(c, a, d, b) == base and lat.quad_intersection(d, c, b, a) == base
    yield (
        "fujiki_polarization",
        "deg(x^4) = 3 q(x,x)^2, fully symmetric; h^4 = 12 and the square -2 class has fourth power 12",
        ok,
    )

    vals = (lattice.chi_of_class(-2), lattice.chi_of_class(0), lattice.chi_of_class(18))
    yield (
        "chi_values",
        "chi = q^2/8 + 5q/4 + 3: values 1, 3, 66 at q = -2, 0, 18",
        vals == (1, 3, 66),
        (1, 3, 66),
        tuple(str(v) for v in vals),
    )

    ok = lat.verify_deg6()
    yield "deg6_functional", "c2 h = 5 h^3 paired against all 23 basis vectors", ok

    alpha, v1, v2 = lat.deg4_independence_witness()
    yield (
        "deg4_independence",
        "an isotropic class meeting h separates h^2 from the dual form",
        v1 != 0 and v2 == 0,
        "(nonzero, 0)",
        (v1, v2),
        f"h-values: ({lat.quad_intersection(h, h, h, h)}, {25 * lat.q(h, h)})",
    )

    rng = derive_rng(cfg.seed, "bbf.c2e2")
    ok = True
    for _ in range(50):
        a = tuple(rng.randint(-4, 4) for _ in range(23))
        ok = ok and lat.c2_pairing(a, a) == 30 * lat.q(a, a)
    yield "c2_pairing_consistency", "deg(c2 e^2) = 30 q(e,e): the dual-form constants are mutually consistent", ok

    odd = lattice.odd_section_count()
    yield (
        "odd_cubic_sections",
        "66 cubic sections upstairs split as 56 pulled back plus 10 anti-invariant",
        odd == 10,
        10,
        odd,
    )


SUITES = {
    "exterior": run_exterior,
    "epw": run_epw,
    "incidence": run_incidence,
    "quadrics": run_quadrics,
    "chow": run_chow,
    "schubert": run_schubert,
    "bbf": run_bbf,
}
