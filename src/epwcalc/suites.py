"""Named verification batteries producing machine-readable reports.

Reports are pure functions of (seed, prime, trials).

Each suite is declared as data: `CHECKS[suite]` lists its checks in report
order, each as (function, anchor, *labels). The function's name is the
check's id and the anchor states the mathematical fact it verifies. The
function's leading parameters take one `derive_rng(seed, label)` stream per
label, in order; each later parameter names a field of the RunConfig
(`seed`, `prime`, `trials`) or a fixture: state that checks share, such as a
field, a symplectic space or a sampled datum, built by the module function
of that name, whose own leading parameters take the streams of its
`FIXTURE_LABELS` entry. A check returns its `outcome`.

`run_checks` is the one driver and `evaluate` its per-check step: it derives
each declared stream, builds each fixture the first time a check of the run
reads it, so building it counts in that check's time, and stamps each check
with its process CPU off one clock, so a suite's checks add up to its total.
`SUITES[suite]` runs `CHECKS[suite]`.

A check that raises fails: the driver reports it with `expected` "no
exception", `got` "error: <message>" and, as its witness, the exception's
type and where it was raised, as in "RuntimeError in epw.tangent_functional",
and goes on to the next check. A fixture that raises fails, in the
same way, each check that reads it; it is built once all the same.
"""

import time
import traceback
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import partial
from math import comb

from . import chow, epw, incidence, lattice, oracles, quadrics, schubert
from .exterior import DIM3, ExteriorVector, SymplecticSpace
from .linalg import InterpolationError, Matrix, Subspace, adjugate_traces, poly_degree, smallest_root
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
    # process CPU milliseconds of the check's call, fixtures it built
    # included: left out of json_obj and of equality
    cpu_ms: int = dataclass_field(default=0, compare=False, repr=False)

    def json_obj(self):
        """The fields in order, without cpu_ms, and without a witness that
        is None."""
        return {k: v for k, v in vars(self).items() if k != "cpu_ms" and v is not None}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    prime: int = 10007
    trials: int = 100


def outcome(ok, expected=True, got=None, witness=None):
    """(status, expected, got, witness) of a check: a skip when ok is None,
    with the reason as its witness, else a pass or a fail by ok, with
    expected and got (ok unless given) written by `str`."""
    if ok is None:
        return "skip", "", "", witness
    return "pass" if ok else "fail", str(expected), str(ok if got is None else got), witness


def evaluate(store, run, *labels):
    """run's value on one derive_rng(seed, label) stream per label, then on
    the fixtures its other parameters name. `store` holds the fields of the
    RunConfig and the fixtures built so far in the run; a fixture not there
    yet, the function of its name with its FIXTURE_LABELS, is built and
    kept. A fixture whose building raised is kept as its exception, which
    is raised again for each check that reads it."""
    code = run.__code__
    names = code.co_varnames[len(labels) : code.co_argcount]
    for name in names:
        if name not in store:
            try:
                store[name] = evaluate(store, globals()[name], *FIXTURE_LABELS.get(name, ()))
            except Exception as exc:
                store[name] = exc
        if isinstance(store[name], Exception):
            raise store[name]
    return run(*[derive_rng(store["seed"], label) for label in labels], *map(store.get, names))


def run_checks(checks, cfg):
    store = dict(vars(cfg))
    out = []
    start = time.process_time()
    spent = 0
    for run, anchor, *labels in checks:
        try:
            result = evaluate(store, run, *labels)
        except Exception as exc:
            # the innermost frame of the traceback: where exc was raised
            *_, (frame, _) = traceback.walk_tb(exc.__traceback__)
            where = f"{frame.f_globals['__name__'].rpartition('.')[2]}.{frame.f_code.co_name}"
            result = outcome(False, "no exception", f"error: {exc}", f"{type(exc).__name__} in {where}")
        # milliseconds off one clock, so a suite's checks sum to its total
        ms = int((time.process_time() - start) * 1000)
        out.append(Check(run.__name__, anchor, *result, cpu_ms=ms - spent))
        spent = ms
    return out


def _basis_slice(s, part):
    """The span of a slice of s's canonical basis. Each row is 1 at its own
    pivot and 0 at every other, so the rows and their pivots already are the
    span's canonical RREF: nothing is eliminated."""
    return Subspace(s.field, s.ambient, s.basis()[part], s.pivots[part])


def _draws(field, rng, n):
    """n random elements of field."""
    return [field.random(rng) for _ in range(n)]


# fixtures: each is built by the function of its name, once per suite run
def Fp(prime):
    return GF(prime)


def sp(Fp):
    return SymplecticSpace(Fp)


def sq():
    return SymplecticSpace(QQ)


# --------------------------------------------------------------------------


def fiber_lagrangian(rng, trials, sp, sq):
    ok = True
    for i in range(max(trials // 2, 4)):
        space = sq if i % 10 == 0 else sp
        v = ExteriorVector(space.field, 1, _draws(space.field, rng, 6))
        if v.is_zero():
            continue
        fib = space.fiber(v)
        ok = ok and fib.dim == 10 and space.is_lagrangian(fib)
    return outcome(ok)


def gram_nondegenerate(sp):
    rank = sp.gram().rank()
    return outcome(rank == 20, 20, rank)


def graded_anticommutativity(rng, Fp):
    ok = True
    for _ in range(24):
        j, k = rng.choice([(1, 1), (1, 2), (2, 1), (3, 3), (2, 2), (1, 3)])
        a = ExteriorVector(Fp, j, _draws(Fp, rng, comb(6, j)))
        b = ExteriorVector(Fp, k, _draws(Fp, rng, comb(6, k)))
        ok = ok and a.wedge(b) == b.wedge(a).scale((-1) ** (j * k))
    return outcome(ok)


def perp_involution(rng, Fp, sp):
    ok = True
    for _ in range(8):
        s = Subspace.from_spanning(Fp, DIM3, [_draws(Fp, rng, DIM3) for _ in range(rng.randrange(0, 12))])
        ok = ok and sp.perp(sp.perp(s)) == s and sp.perp(s).dim == DIM3 - s.dim
    return outcome(ok)


def perp_meet_join(rng, sp):
    # B is completed from the first k rows of A, so A ∩ B has dimension k
    # unless the completion meets A again; at k = 10, B is A itself
    ok = True
    dims = []
    for k in range(11):
        A = sp.random_lagrangian(rng)
        B = sp.lagrangian_completion(_basis_slice(A, slice(k)), rng)
        meet = A.meet(B)
        dims.append(meet.dim)
        ok = ok and sp.perp(meet) == A.join(B)
    return outcome(
        ok, "True on pairs through isotropic slices of dimension 0..10", f"{ok} on dim(A ∩ B) = {dims}"
    )


def decomposable_orthogonality(rng, rng_meet, Fp, sp):
    ok = True
    for _ in range(20):
        w1, w2 = _random_3_space(Fp, rng), _random_3_space(Fp, rng)
        ok = ok and (_cubes_pair_to_zero(sp, w1, w2) == (w1.meet(w2).dim > 0))
    # random pairs are transverse but with probability about 1/p, so the
    # direction "= 0 when W ∩ W' != 0" takes pairs that share W's first row
    for _ in range(20):
        w1 = _random_3_space(Fp, rng_meet)
        while True:
            w2 = Subspace.from_spanning(Fp, 6, [w1.basis()[0], _draws(Fp, rng_meet, 6), _draws(Fp, rng_meet, 6)])
            if w2.dim == 3:
                break
        ok = ok and _cubes_pair_to_zero(sp, w1, w2) and w1.meet(w2).dim > 0
    return outcome(ok)


def _cubes_pair_to_zero(sp, w1, w2):
    return sp.field.is_zero(sp.form(sp.decomposable_of(w1), sp.decomposable_of(w2)))


def _random_3_space(field, rng):
    """A random 3-space of the 6-dimensional base space: three random rows,
    redrawn until they span."""
    while True:
        s = Subspace.from_spanning(field, 6, [_draws(field, rng, 6) for _ in range(3)])
        if s.dim == 3:
            return s


# --------------------------------------------------------------------------


# fixtures
def generic(rng, sp):
    """A generic datum A, and the stream det_vs_rank_detector goes on
    drawing from."""
    return epw.random_lagrangian_datum(sp, rng), rng


def triple(rng, sp):
    """A_+ and A_- of the symmetric construction, and the stream
    triple_quadric goes on drawing from."""
    return epw.a_plus(sp, rng), epw.a_minus(sp, rng), rng


def points(rng, trials, Fp, sp):
    """One stream of points of the sextic for the two point checks: a point
    found on a fresh datum per search, then points of the plane P(w) of a
    datum through a decomposable. Each is read as it is drawn into its
    tangent covector and its gradient, so that one datum is alive at a time.
    Returns the (covector, gradient) samples, the lines each search tried
    and the count of searches that ran out of budget."""
    samples, searched = [], []
    budget_miss = 0
    for _ in range(max(trials // 2, POINT_MIN_SEARCHES)):
        B = epw.random_lagrangian_datum(sp, rng)
        try:
            point, tried = epw.find_point_stats(B, rng)
        except epw.RetryBudgetExhausted:
            budget_miss += 1
            continue
        searched.append(tried)
        samples.append(_covector_and_gradient(B, point.coords))
    for _ in range(max(trials // 10, 1)):
        # a Lagrangian through a decomposable: singular points on the plane
        w, B = _decomposable_datum(sp, rng)
        v = Fp.lincomb(_draws(Fp, rng, 3), w.basis())
        if any(v):
            samples.append(_covector_and_gradient(B, v))
    return samples, searched, budget_miss


def _covector_and_gradient(B, v):
    return epw.tangent_functional(B, v), epw.gradient_det(B, v)


def det_vs_rank_detector(Fp, generic):
    # a random point lies on the sextic with probability about 6/p, so the
    # direction "det = 0 gives a meet" takes roots of line restrictions
    A, rng = generic
    ok = True
    for _ in range(12):
        v = _draws(Fp, rng, 6)
        if not any(v):
            continue
        ok = ok and (epw.fiber_intersection_dim(A, v) == 0) == (not Fp.is_zero(epw.pairing_det(A, v)))
    roots = 0
    for _ in range(DETECTOR_LINES):
        base, direction = [1] + _draws(Fp, rng, 5), [0] + _draws(Fp, rng, 5)
        t = smallest_root(epw.sextic_on_line(A, base, direction, 7, chart=0), Fp.p)
        if t is not None:
            v = Fp.axpy(base, t, direction)
            ok = ok and Fp.is_zero(epw.pairing_det(A, v)) and epw.fiber_intersection_dim(A, v) > 0
            roots += 1
            if roots == 4:
                return outcome(ok)
    raise epw.RetryBudgetExhausted(f"{roots} of 4 roots on {DETECTOR_LINES} lines")


def sextic_degree(rng, trials, Fp, sp, generic):
    deg6 = 0
    above = None  # the first line whose samples admit no degree <= 6
    lines = max(trials, SEXTIC_MIN_LINES)
    for k in range(lines):
        B = epw.random_lagrangian_datum(sp, rng) if rng.random() < 0.2 else generic[0]
        base = [1] + _draws(Fp, rng, 5)
        direction = [0] + _draws(Fp, rng, 5)
        if not any(direction):
            continue
        try:
            coeffs = epw.sextic_on_line(B, base, direction, 11, chart=0)
        except InterpolationError as exc:
            above = above or f"line {k}: base={base} direction={direction}: {exc}"
            continue
        if poly_degree(Fp, coeffs) == 6:
            deg6 += 1
    # one line of degree 6 shows that the top coefficient, a polynomial in
    # the line, is not identically zero; one of degree above 6 fails
    return outcome(above is None and deg6 >= 1, f">= 1 of {lines} lines of degree exactly 6", deg6, above)


def triple_quadric(trials, triple):
    return outcome(epw.verify_triple_quadric(triple[0], trials, triple[2]))


def triple_quadric_generic_fails(rng, generic):
    neg = epw.verify_triple_quadric(generic[0], 8, rng)
    return outcome(not neg, False, neg)


def plus_minus_decomposition(sp, triple):
    ap, am = triple[0].subspace, triple[1].subspace
    return outcome(
        ap.dim == am.dim == 10
        and ap.meet(am).dim == 0
        and ap.join(am).dim == 20
        and sp.is_lagrangian(ap)
        and sp.is_lagrangian(am)
    )


def smoothness_equivalence(points):
    samples, searched, budget_miss = points
    # the decomposable samples test only the singular side, so both
    # directions need a searched point
    if not searched:
        return outcome(None, witness=f"retry budget exhausted on every search (budget_miss={budget_miss})")
    ok = all(_nonzero(grad) == _nonzero(func) for func, grad in samples)
    lines = sum(searched) / len(searched)
    return outcome(ok, witness=f"tested={len(samples)} budget_miss={budget_miss} lines_per_search={lines:.2f}")


def tangent_functional_proportional(Fp, points):
    samples, searched, budget_miss = points
    smooth = [sample for sample in samples if _nonzero(sample[0])]
    if not smooth:
        return outcome(None, witness=f"no smooth point among {len(searched)} found (budget_miss={budget_miss})")
    ok = all(_nonzero(grad) and Matrix(Fp, [func, grad], ncols=6).rank() == 1 for func, grad in smooth)
    return outcome(ok, witness=f"tested={len(smooth)}")


def sigma_membership(rng, Fp, sp, generic, triple):
    w, B = _decomposable_datum(sp, rng)
    got = (
        epw.sigma_membership(B, w),
        all(not epw.sigma_membership(generic[0], _random_3_space(Fp, rng)) for _ in range(10)),
        epw.sigma_membership(triple[0], _u_wedge_subspace(Fp, rng)),
    )
    return outcome(all(got), True, got)


def _nonzero(vec):
    """A covector or gradient that exists and has a nonzero entry."""
    return vec is not None and any(vec)


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
    return w, epw.EpwLagrangian(sp, sp.lagrangian_completion(Subspace.from_spanning(sp.field, DIM3, [cube]), rng))


def _u_wedge_subspace(field, rng):
    """The 3-space u ^ U in the wedge-square model, for a random u."""
    while True:
        s = epw.u_wedge_space(field, _draws(field, rng, 4))
        if s is not None:
            return s


# --------------------------------------------------------------------------


# fixtures
def omega(rng, Fp, sp):
    """Ten pairs (A, B): A a random Lagrangian, B another member of the
    pencil through a random hyperplane of A."""
    pairs = []
    for _ in range(10):
        A = sp.random_lagrangian(rng)
        pen = incidence.pencil_through(sp, incidence.hyperplane(A, _projective_point(Fp, rng, 10)))
        B = pen.member(1, 1)
        pairs.append((A, pen.member(1, 2) if B == A else B))
    return pairs


def pencil_axioms(rng, sp):
    ok = True
    for _ in range(6):
        A = sp.random_lagrangian(rng)
        u = _basis_slice(A, slice(9))
        pen = incidence.pencil_through(sp, u)
        m1, m2 = pen.member(1, 2), pen.member(3, 1)
        ok = ok and sp.is_lagrangian(m1) and sp.is_lagrangian(m2) and m1.meet(m2) == u
    return outcome(ok)


def omega_tangent_dim(sp, omega):
    dims = {incidence.omega_tangent_dim(sp, A, B) for A, B in omega}
    return outcome(dims == {65}, {65}, dims)


def omega_unconstrained(sp, omega):
    free_dim = incidence.omega_unknowns(sp, *omega[-1])
    return outcome(free_dim == 110, 110, free_dim)


def injective_differential_kernel(rng, sp, sq):
    ok = all([_injective_differential_sample(sq if i < 3 else sp, rng) == 0 for i in range(10)])
    return outcome(ok, 0, "0" if ok else "nonzero")


def relaxed_nine_conditions(rng, sp):
    dims = [_injective_differential_sample(sp, rng, count=9) for _ in range(5)]
    return outcome(all(d == 1 for d in dims), 1, dims)


def hyperplane_product_witness(rng, sp):
    B = sp.random_lagrangian(rng)
    u = _basis_slice(B, slice(9))
    got = incidence.injective_differential_kernel(sp, B, u, B.basis()[9:], require_full=False)
    return outcome(got >= 1, ">= 1", got)


def tangency_scenarios(rng, trials, sp):
    failures = ran = 0
    for _ in range(trials):
        try:
            incidence.tangency_scenario(sp, rng)
        except incidence.ScenarioFailure:
            failures += 1
        except incidence.PreconditionError:
            continue
        ran += 1
    return outcome(failures == 0 and ran > 0, f"0 failures of {ran}", failures)


def sigma_tangent_dims(rng, sp):
    A = sp.random_lagrangian(rng)
    dims = tuple(incidence.sigma_tangent_space(sp, A, A.basis()[:k]).dim for k in (0, 1, 10))
    return outcome(dims == (55, 54, 45), (55, 54, 45), dims)


def _injective_differential_sample(space, rng, count=10):
    F = space.field
    B = space.random_lagrangian(rng)
    u = _basis_slice(B, slice(9))
    alphas = []
    span = Subspace.zero(F, 10)  # the coordinates of the alphas in B
    for _ in range(200):
        vec = F.lincomb(_draws(F, rng, 10), B.basis())
        grown = span if u.contains(vec) else span.with_vector(B.coords_of(vec))
        if grown.dim > span.dim:
            alphas.append(vec)
            span = grown
        if len(alphas) == count:
            return incidence.injective_differential_kernel(space, B, u, alphas, require_full=(count == 10))
    raise RuntimeError("could not sample admissible alphas")


# --------------------------------------------------------------------------

SEXTIC_MIN_LINES = 40  # lines sextic_degree draws at the least, whatever --trials says
DETECTOR_LINES = 40  # lines det_vs_rank_detector draws at the most for its four roots
POINT_MIN_SEARCHES = 5  # point searches the epw point stream makes at the least
VERONESE_SETS = 64  # 10-point sets drawn before veronese_independence fails
SCAN_PRIME = 61  # the field of the two scan checks


# fixtures
def web(rng, Fp):
    """A random web and the 70 points it is evaluated at: 50 for
    quartic_expansion, then 20 for adjugate_gradient_identity."""
    return _random_web(Fp, rng), [_draws(Fp, rng, 4) for _ in range(70)]


def harris_tu_degrees():
    degree = quadrics.harris_tu_degree
    ht = (degree(4, 2), degree(4, 3), degree(3, 1))
    dets = all(degree(n, n - 1) == n for n in range(2, 7))
    return outcome(ht == (10, 4, 4) and dets, (10, 4, 4), ht)


def quartic_expansion(Fp, web):
    web, ts = web
    poly = quadrics.quartic_surface(web)
    return outcome(all(quadrics._mp_eval(Fp, poly, t) == web.member(t).det() for t in ts[:50]))


def adjugate_gradient_identity(Fp, web):
    web, ts = web
    grads = quadrics.quartic_gradient(web)
    qs = [[x for row in q.rows for x in row] for q in web.qs]
    ok = True
    for t in ts[50:]:
        traces = adjugate_traces(web.member(t), qs)
        ok = ok and tuple(quadrics._mp_eval(Fp, grad, t) for grad in grads) == traces
    return outcome(ok)


def bitangent_pairs(rng, trials, Fp):
    want = max(trials // 2, 10)
    good = produced = attempts = 0
    while produced < want and attempts < want * 40:
        attempts += 1
        try:
            web = _bitangent_fixture(Fp, rng)
            pair = quadrics.bitangent_pair(web)
            produced += 1
            good += all(Fp.is_zero(quadrics.bilinear(Fp, q, pair.x, pair.y)) for q in web.qs)
        except (quadrics.NoRationalRoots, quadrics.DegenerateWeb):
            continue
    return outcome(produced == want and good == want, f"{want} verified pairs", f"{good} of {produced}")


def veronese_independence(rng, Fp):
    # one 10-point set with independent images shows that the dependent sets
    # form a proper closed subset; a set is dependent with probability at
    # most 1 - (1 - 2/p)^10, so all VERONESE_SETS are with at most
    # (1 - (1 - 2/p)^10)^VERONESE_SETS, below 5e-10 at p >= 17
    for sets in range(1, VERONESE_SETS + 1):
        pts = [_projective_point(Fp, rng) for _ in range(10)]
        r10 = quadrics.veronese_independence(Fp, pts)
        if r10 == 10:
            break
    r11 = quadrics.veronese_independence(Fp, pts + [_projective_point(Fp, rng)])
    r_conic = quadrics.veronese_independence(Fp, [[1, a, a * a, 0] for a in range(2, 12)])
    return outcome(
        r10 == 10 and r11 <= 10 and r_conic <= 9,
        f"(10 in one of <= {VERONESE_SETS} sets, <=10, <=9)",
        (r10, r11, r_conic),
        f"sets={sets}",
    )


def diagonal_scan_census():
    F = GF(SCAN_PRIME)
    units = [Matrix(F, [[int(a == b == i) for b in range(4)] for a in range(4)]) for i in range(4)]
    census = quadrics.field_scan(quadrics.WebOfQuadrics(F, units))
    expect = {0: 0, 1: 4, 2: 6 * (SCAN_PRIME - 1)}
    got = {r: census.rank_counts[r] for r in (0, 1, 2)}
    return outcome(got == expect and census.rank2_nonsingular == 0, expect, got)


def random_scan(rng):
    census = quadrics.field_scan(_random_web(GF(SCAN_PRIME), rng))
    band = abs(census.rank_counts[3] - SCAN_PRIME**2) <= 40 * SCAN_PRIME
    return outcome(
        census.rank2_nonsingular == 0 and band,
        "no rank <= 2 point with nonzero gradient",
        census.rank2_nonsingular,
        f"counts={census.json_rows()} generic={census.is_generic()} band_ok={band}",
    )


def _projective_point(field, rng, n=4):
    """n random coordinates, redrawn while all are zero: a point of P^(n-1)."""
    while True:
        pt = _draws(field, rng, n)
        if any(pt):
            return pt


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
    """A web whose first two generators vanish on the line t2 = t3 = 0."""
    return quadrics.WebOfQuadrics(
        field, [_random_symmetric(field, rng, zero_block) for zero_block in (2, 2, 0, 0)]
    )


# --------------------------------------------------------------------------


# fixtures
def model():
    return chow.VarietyModel()


def emb(model):
    return chow.EmbeddingModel(model)


def relations(model, emb):
    """(R2, R3, R4)."""
    return chow.derive_relations(model, emb)


def degree_table_identities(model):
    idents = chow.table_identities(model)
    return outcome(
        all(l == r for _, l, r in idents), "all identities hold", [(d, str(l), str(r)) for d, l, r in idents]
    )


def c2h_equals_5h3(model, relations):
    h = model.sym("h")
    c2h = model.sym("c2") * h
    rhs = _modulo_r2(relations, 3, "Z", c2h)
    deg = (model.degree(c2h * h), model.degree(rhs * h))
    return outcome(rhs == (h**3).scale(5) and deg[0] == deg[1], "5*h^3", repr(rhs), f"degreeCheck={deg}")


def c4_combination(model, relations):
    h, Z, c4 = map(model.sym, ("h", "Z", "c4"))
    expr = _modulo_r2(relations, 4, "c2", c4)
    deg = model.degree(expr)
    anchor = (h**4).scale(435) - (h * h * Z).scale(180) + (Z * Z).scale(12)
    return outcome(expr == anchor and model.degree(c4) == deg == 324, 324, deg)


def riemann_roch_polynomial(model):
    # chi(O) = 3 and chi(O(3)) = 66 are the polynomial's values at 0 and 3
    vals = {n: chow.hrr_chi(model, model.line(n)) for n in range(-3, 6)}
    ok = all(v == Fraction(n**4, 2) + Fraction(5 * n**2, 2) + 3 for n, v in vals.items())
    return outcome(ok, "polynomial values", {n: str(v) for n, v in vals.items()})


def chern_character_roundtrip(rng, model):
    ok = True
    for _ in range(10):
        b = _random_bundle(model, rng)
        ok = ok and chow.c_from_ch(model, chow.ch_from_c(b), b.rank).cs == b.cs
    return outcome(ok)


def todd_symplectic(model):
    td4 = chow.todd_from_c(model.tangent()).component(4)
    sym_td4 = (model.sym("c2") ** 2).scale(Fraction(3, 720)) - model.sym("c4", Fraction(1, 720))
    return outcome(td4 == sym_td4, repr(sym_td4), repr(td4))


def pullback_tangent_difference(rng, model):
    h = model.sym("h")
    # c(T_P5) = (1 + h)^6, restricted to the 4-fold
    p5 = chow.BundleClass(model, 5, [(h**k).scale(comb(6, k)) for k in range(1, 5)])
    diff = chow.chern_difference(p5, model.tangent())
    expected = (h * h).scale(15) - model.sym("c2")
    deg = model.degree(diff * h * h)
    # and on a random pair, where c1(f) != 0: c2 of the class e - f whose
    # Chern character is ch(e) - ch(f)
    e, f = _random_bundle(model, rng), _random_bundle(model, rng)
    ch = [a - b for a, b in zip(chow.ch_from_c(e), chow.ch_from_c(f))]
    virtual = chow.chern_difference(e, f) == chow.c_from_ch(model, ch, e.rank - f.rank).c(2)
    return outcome(diff == expected and deg == 120 and virtual, f"{expected!r}; 120", f"{diff!r}; {deg}")


def canonical_class_relation(emb):
    two_c1n, six_hz = chow.normal_bundle_canonical_relation(emb)
    return outcome(two_c1n == six_hz, repr(six_hz), repr(two_c1n))


def _modulo_r2(relations, k, name, x):
    """The class that the monomial x equals where R_k vanishes, read modulo
    R2 solved for the symbol `name`."""
    r2 = relations[0]
    return _solve(relations[k - 2].substitute(name, _solve(r2, r2.model.sym(name))), x)


def _solve(rel, x):
    """The class that the monomial x equals where rel vanishes."""
    (mono,) = x.terms
    if mono not in rel.terms:
        raise chow.DerivationError(f"{x!r} does not occur in {rel!r}")
    return x - rel.scale(1 / rel.terms[mono])


def _random_bundle(model, rng):
    """A bundle class of random rank 1..5 whose Chern classes take a random
    coefficient in -9..9 on each monomial of their codimension."""
    h, c2, Z, c4 = map(model.sym, ("h", "c2", "Z", "c4"))
    rank = rng.randint(1, 5)
    monomials = [[h], [h * h, c2, Z], [h**3, h * c2, h * Z], [h**4, c4, Z * Z]]
    return chow.BundleClass(
        model, rank, [sum((m.scale(rng.randint(-9, 9)) for m in ms), model.zero()) for ms in monomials]
    )


# --------------------------------------------------------------------------


# fixtures
def ctx():
    return schubert.Context(2, 6)


def sym6():
    """The Pieri class of sym6_top_chern, its s[4,3] coefficient and the
    root-product oracle."""
    cls = schubert.sym6_top_chern()
    return cls, cls.coeffs.get((4, 3), 0), oracles.sym_power_box_class(6)


def pieri_samples(ctx):
    s, pieri = schubert.SchubertClass.sigma, schubert.pieri
    got = (
        pieri(s(ctx, 1), 1) == s(ctx, 2) + s(ctx, 1, 1),
        pieri(s(ctx, 4, 3), 1) == s(ctx, 4, 4),
        pieri(pieri(s(ctx, 2, 1), 2), 1) == pieri(pieri(s(ctx, 2, 1), 1), 2),
    )
    return outcome(all(got), True, got)


def duality(ctx):
    # the partitions in the 2 x 4 box, as pairs a >= b with zero parts dropped
    box = [(a, b) for a in range(5) for b in range(a + 1)]
    ok = True
    for a, b in box:
        for mu in box:
            if a + b + sum(mu) == 8:
                lam = schubert.SchubertClass.sigma(ctx, a, b)
                val = schubert.integrate(schubert.mul_by_partition(lam, _parts(mu)))
                ok = ok and val == (mu == (4 - b, 4 - a))
    return outcome(ok)


def _parts(pair):
    return tuple(p for p in pair if p)


def plucker_degree(ctx):
    power = schubert.SchubertClass.one(ctx)
    for _ in range(8):
        power = schubert.pieri(power, 1)
    deg = schubert.integrate(power)
    return outcome(deg == 14, 14, deg)


def sym6_top_chern_oracle(sym6):
    cls, got, oracle = sym6
    return outcome({(4, 3): got} == oracle, oracle, dict(cls.coeffs))


def sym6_top_chern_stated_constant(sym6):
    got = sym6[1]
    return outcome(
        got == 57888,
        "57888*s[4,3]",
        f"{got}*s[4,3]",
        "root-product oracle and Pieri agree on 432*140 = 60480; "
        "the catalogued 57888 does not match either route",
    )


# --------------------------------------------------------------------------


# fixtures
def lat(model):
    return lattice.BBLattice(model)


def gram_invariants(lat):
    got = (abs(lat.determinant()), lat.signature())
    return outcome(got == (2, (3, 20)), "(|det|, sig) = (2, (3, 20))", got)


def fujiki_constants(lat):
    c, C, h = lat.fujiki, lat.c2_constant, lat.h
    # c2 h = 5 h^3 as functionals: deg(c2 h b) = C q(h, b) against deg(5 h^3 b)
    functional = all(
        C * lat.q(h, b) == 5 * lat.quad_intersection(h, h, h, b) for b in map(lat.basis_vector, range(lat.rank))
    )
    witness = None if functional else "c2 h != 5 h^3 against a basis vector"
    return outcome((c, C) == (3, 30) and functional, "(3, 30)", f"({c}, {C})", witness)


def fujiki_polarization(rng, lat):
    quad, h, alpha = lat.quad_intersection, lat.h, lat.basis_vector(0)
    # alpha is isotropic and meets h, so deg(h^2 alpha^2) = 2 q(h, alpha)^2 is
    # not 0 = deg(c2 alpha^2): h^2 and c2 are independent functionals
    ok = all(quad(x, x, x, x) == 12 for x in (h, lat.e_minus2))
    ok = ok and quad(h, h, alpha, alpha) != 0 == lat.c2_constant * lat.q(alpha, alpha)
    for _ in range(20):
        a, b, c, d = (_lattice_vector(rng, 3) for _ in range(4))
        ok = (
            ok
            and quad(a, a, a, a) == 3 * lat.q(a, a) ** 2
            and quad(c, a, d, b) == quad(a, b, c, d) == quad(d, c, b, a)
        )
    return outcome(ok)


def chi_values(lat):
    chi = lat.chi_of_class(-2)
    return outcome(chi == 1, 1, chi)


def odd_cubic_sections(lat):
    odd = lat.odd_section_count()
    return outcome(odd == 10, 10, odd)


def _lattice_vector(rng, bound):
    """A class of the 23-dimensional lattice with coordinates in -bound..bound."""
    return tuple(rng.randint(-bound, bound) for _ in range(23))


# the derive_rng labels of the leading parameters of each fixture that draws
FIXTURE_LABELS = {
    "generic": ("epw.generic",),
    "triple": ("epw.triple",),
    "points": ("epw.points",),
    "omega": ("incidence.omega",),
    "web": ("quadrics.web",),
}

# per suite, in report order: (check, anchor, *the derive_rng labels of its
# leading parameters)
CHECKS = {
    "exterior": [
        (fiber_lagrangian, "dim F_v = C(5,2) = 10 and F_v is Lagrangian", "exterior.fiber"),
        (gram_nondegenerate, "the wedge pairing on 3-vectors has full rank 20"),
        (graded_anticommutativity, "a^b = (-1)^{jk} b^a", "exterior.anticomm"),
        (perp_involution, "perp(perp(S)) = S and dim perp = 20 - dim S", "exterior.perp"),
        (perp_meet_join, "perp(A ∩ B) = A + B for Lagrangian pairs", "exterior.perpsum"),
        (
            decomposable_orthogonality,
            "form(cube(W), cube(W')) = 0 iff W ∩ W' is nonzero",
            "exterior.decomposable",
            "exterior.decomposable.meet"
        ),
    ],
    "epw": [
        (det_vs_rank_detector, "det of the pairing vanishes iff the fiber meets the Lagrangian"),
        (
            sextic_degree,
            "line restriction of the pairing determinant has degree <= 6, generically 6",
            "epw.sextic"
        ),
        (triple_quadric, "the sextic of the symmetric-construction Lagrangian is the quadric cubed"),
        (triple_quadric_generic_fails, "a generic sextic is not a quadric cube", "epw.triple.neg"),
        (
            plus_minus_decomposition,
            "the 3-vector space splits as the direct sum of the two construction Lagrangians"
        ),
        (smoothness_equivalence, "gradient nonzero iff the fiber meets A in one indecomposable line"),
        (
            tangent_functional_proportional,
            "the hyperplane covector vol(v0 ^ . ^ a ^ a) is proportional to the gradient"
        ),
        (sigma_membership, "the wedge cube lies in A exactly for the constructed 3-spaces", "epw.sigma"),
    ],
    "incidence": [
        (pencil_axioms, "members are Lagrangian and meet exactly in the 9-dim core", "incidence.pencil"),
        (omega_tangent_dim, "pairs of forms agreeing on the common core: dimension n + C(n+1,2) = 65"),
        (omega_unconstrained, "two free quadratic forms: dimension 110"),
        (
            injective_differential_kernel,
            "forms vanishing on a hyperplane and on 10 independent points off it vanish",
            "incidence.knl"
        ),
        (
            relaxed_nine_conditions,
            "with only 9 evaluation conditions one form survives (54 conditions on 55)",
            "incidence.knl9"
        ),
        (
            hyperplane_product_witness,
            "alphas inside a second hyperplane leave the product of the two linear forms",
            "incidence.witness"
        ),
        (
            tangency_scenarios,
            "everywhere-tangent pair: equal fiber lines, a fiber plane in A+B, and a rank-2 pencil member",
            "incidence.scenario"
        ),
        (
            sigma_tangent_dims,
            "evaluation conditions cut 55 -> 54 -> 45 for 0, 1, 10 independent points",
            "incidence.sigma_tangent"
        ),
    ],
    "quadrics": [
        (
            harris_tu_degrees,
            "rank loci of symmetric forms: deg D_2 = 10 on 4x4, determinant degree n, Veronese degree 4"
        ),
        (quartic_expansion, "expanded determinant agrees with member determinants"),
        (adjugate_gradient_identity, "each partial of det equals trace(adj(Q) Q_i)"),
        (
            bitangent_pairs,
            "the two marked points on a base-locus line satisfy every generator's bilinear condition",
            "quadrics.bitangent"
        ),
        (
            veronese_independence,
            "10 generic points have independent square images; a common quadric forces dependence",
            "quadrics.veronese"
        ),
        (
            diagonal_scan_census,
            "diagonal web: the rank <= 2 locus is the six coordinate lines, 6p - 2 points"
        ),
        (
            random_scan,
            "every rank <= 2 point is singular on the quartic; rank-3 count sits in the surface band",
            "quadrics.scan"
        ),
    ],
    "chow": [
        (
            degree_table_identities,
            "3 deg(Z m) = deg((15h^2 - c2) m) for m in {h^2, c2, Z}; (1/240)(c2^2 - c4/3) = 3"
        ),
        (c2h_equals_5h3, "two routes to the cokernel sheaf force c2 h = 5 h^3"),
        (c4_combination, "c4 = 435 h^4 - 180 h^2 Z + 12 Z^2, of degree 324"),
        (
            riemann_roch_polynomial,
            "chi(O(n)) = n^4/2 + 5n^2/2 + 3 for n in -3..5; chi(O) = 3, chi(O(3)) = 66"
        ),
        (chern_character_roundtrip, "c -> ch -> c is the identity", "chow.roundtrip"),
        (todd_symplectic, "with c1 = c3 = 0 the top Todd piece is (3 c2^2 - c4)/720"),
        (
            pullback_tangent_difference,
            "c2 of the pulled-back ambient tangent minus the tangent is 15h^2 - c2; against h^2: 120",
            "chow.pullback"
        ),
        (canonical_class_relation, "the rank-stratified sequence forces 2 c1(N) = 6 hZ on the surface"),
    ],
    "schubert": [
        (pieri_samples, "s1*s1 = s2 + s11; s43*s1 = s44; special products commute"),
        (duality, "integrate(s_lam * s_mu) = 1 exactly for complementary box partitions"),
        (plucker_degree, "integrate(s1^8) = 14 on Gr(2,6)"),
        (sym6_top_chern_oracle, "Pieri reduction matches the root-product Schur oracle"),
        (sym6_top_chern_stated_constant, "multiplicity of the line class: catalogued value 432*134 = 57888"),
    ],
    "bbf": [
        (gram_invariants, "|det| = 2 and signature (3, 20) for U^3 + E8(-1)^2 + <-2>"),
        (
            fujiki_constants,
            "the chow degree table at q(h,h) = 2 gives the Fujiki constant deg(h^4)/q(h,h)^2 = 3 "
            "and the c2 constant deg(c2 h^2)/q(h,h) = 30; c2 h = 5 h^3 paired against all 23 basis vectors"
        ),
        (
            fujiki_polarization,
            "deg(x^4) = 3 q(x,x)^2, fully symmetric; h^4 = 12 and the square -2 class has fourth power 12; "
            "an isotropic class meeting h separates h^2 from c2",
            "bbf.fujiki"
        ),
        (chi_values, "chi = (c q^2 + C q)/24 + chi(O_X) is 1 at q = -2, the square of the <-2> generator"),
        (odd_cubic_sections, "66 cubic sections upstairs split as 56 pulled back plus 10 anti-invariant"),
    ],
}

SUITES = {name: partial(run_checks, checks) for name, checks in CHECKS.items()}
