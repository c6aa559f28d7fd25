import random
from fractions import Fraction

import pytest

from epwcalc import incidence, linalg, suites
from epwcalc.exterior import DIM3, ExteriorVector, SymplecticSpace
from epwcalc.linalg import Matrix, ShapeError, Subspace
from epwcalc.rng import derive_rng
from epwcalc.scalars import GF, QQ

F = GF(10007)
SP = SymplecticSpace(F)
SQ = SymplecticSpace(QQ)


def unit_rows(field, n):
    """The rows of the n x n identity matrix, as tuples."""
    return [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]


def lag_and_hyperplane(space, rnd):
    A = space.random_lagrangian(rnd)
    u = Subspace.from_spanning(space.field, DIM3, A.basis()[:9])
    return A, u


def random_in(space, sub, rnd, count):
    F = space.field
    out = []
    for _ in range(count):
        vec = [F.zero] * sub.ambient
        for c, row in zip([F.random(rnd) for _ in range(sub.dim)], sub.basis()):
            vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, row)]
        out.append(vec)
    return out


def admissible_alphas(space, B, u, rnd, count=10):
    alphas = []
    span = Subspace.zero(space.field, 10)  # the coordinates of the alphas in B
    while len(alphas) < count:
        vec = random_in(space, B, rnd, 1)[0]
        if u.contains(vec):
            continue
        grown = span.with_vector(B.coords_of(vec))
        if grown.dim > span.dim:
            alphas.append(vec)
            span = grown
    return alphas


def test_pencil_through_fiber_hyperplane(rng):
    v = ExteriorVector.basis(F, 0)
    fib = SP.fiber(v)
    u = Subspace.from_spanning(F, DIM3, fib.basis()[:9])
    pen = incidence.pencil_through(SP, u)
    # the fiber itself is a Lagrangian containing u, hence a pencil member
    assert all(map(fib.contains, u.basis()))
    assert all(map(SP.perp(u).contains, fib.basis()))
    m1, m2 = pen.member(1, 0), pen.member(0, 1)
    assert m1.meet(m2) == u
    assert SP.perp(u).dim == 11


FIELDS = [GF(7), F, GF(2**61 - 1), QQ]
FIELD_IDS = ["GF7", "GF10007", "GF2^61-1", "QQ"]


def pool_pencil(space, u):
    """The reference pencil by elimination: perp(u), then its first basis
    rows off u and off u + x0."""
    pool = space.perp(u)
    x0 = next(r for r in pool.basis() if not u.contains(r))
    x1 = next(r for r in pool.basis() if not u.with_vector(x0).contains(r))
    return incidence.LagrangianPencil(space, u, x0, x1)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_pencil_member_meet_is_core(field, rng, monkeypatch):
    """The pencil is written down with no elimination; its members are
    Lagrangian and meet in u, and x0, x1 span perp(u) modulo u, as the
    reference pair does. Over GF(7) both pencils have the same 8 members."""
    space = SymplecticSpace(field)
    A, u = lag_and_hyperplane(space, rng)
    ref = pool_pencil(space, u)
    calls = []
    for owner, name in ((linalg, "fp_rref"), (linalg, "fp_rank"), (Matrix, "rref"), (Matrix, "kernel_basis")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    pen = incidence.pencil_through(space, u)
    monkeypatch.undo()
    assert calls == []
    pool = space.perp(u)
    assert u.with_vector(pen.x0).with_vector(pen.x1) == pool == u.with_vector(ref.x0).with_vector(ref.x1)
    ms = [pen.member(1, 0), pen.member(0, 1), pen.member(1, 1), pen.member(2, 5)]
    assert len(set(ms)) == 4
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            assert ms[i].meet(ms[j]) == u
    assert all(space.is_lagrangian(m) for m in ms)
    # joins pair up to perp(u)
    assert ms[0].join(ms[1]) == pool
    if field == GF(7):
        params = [(1, t) for t in range(7)] + [(0, 1)]
        members = {pen.member(*ts) for ts in params}
        assert len(members) == 8 and members == {ref.member(*ts) for ts in params}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_pencil_preconditions(field, rng):
    space = SymplecticSpace(field)
    bad_dim = Subspace.from_spanning(field, DIM3, list(space.random_lagrangian(rng).basis()[:5]))
    with pytest.raises(incidence.PreconditionError):
        incidence.pencil_through(space, bad_dim)
    # contains the dual pair e012, e345, so the restricted form is nonzero
    subsets = [(0, 1, 2), (3, 4, 5), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 2, 5), (0, 3, 4)]
    not_iso = Subspace.from_spanning(
        field, DIM3, [ExteriorVector.basis(field, *s).coords for s in subsets]
    )
    assert not_iso.dim == 9 and not space.is_isotropic(not_iso)
    with pytest.raises(incidence.PreconditionError):
        incidence.pencil_through(space, not_iso)
    # 9 rows of L' = wedge^3 <e_1..e_5>: isotropic, but in no graph
    in_lprime = Subspace.from_spanning(field, DIM3, unit_rows(field, DIM3)[10:19])
    assert space.is_isotropic(in_lprime) and in_lprime.pivots[0] == 10
    with pytest.raises(incidence.PreconditionError, match="no graph"):
        incidence.pencil_through(space, in_lprime)


def test_omega_tangent_dim_65(rng):
    for _ in range(4):
        A, u = lag_and_hyperplane(SP, rng)
        pen = incidence.pencil_through(SP, u)
        B = pen.member(1, 1)
        if B == A:
            B = pen.member(1, 2)
        assert incidence.omega_tangent_dim(SP, A, B) == 65
        assert incidence.omega_unknowns(SP, A, B) == 110


def test_omega_unconstrained_fails_when_the_restriction_drops_its_diagonal(rng, monkeypatch):
    """`omega_unconstrained` gates on `omega_unknowns`, the width of the
    agreement system as built. With the diagonal entries (k = l) dropped from
    `_restriction_rows`, each side keeps 45 of its 55 unknowns, and the
    check's 110 is not met."""
    A, u = lag_and_hyperplane(SP, rng)
    pen = incidence.pencil_through(SP, u)
    B = pen.member(1, 1)
    if B == A:
        B = pen.member(1, 2)
    restriction = incidence._restriction_rows
    diagonal = {k * 10 - k * (k - 1) // 2 for k in range(10)}

    def faulty(field, R, i, j):
        return [x for c, x in enumerate(restriction(field, R, i, j)) if c not in diagonal]

    monkeypatch.setattr(incidence, "_restriction_rows", faulty)
    assert incidence.omega_unknowns(SP, A, B) == 90
    # the suite runs to its end: the agreement system is as wide as it was
    # built (90), and the injective systems, whose evaluation rows keep 55
    # entries, fail their checks on rows of unequal width
    by_id = {c.id: c for c in suites.SUITES["incidence"](suites.RunConfig(seed=0, trials=2))}
    assert by_id["omega_unconstrained"].status == "fail" and by_id["omega_unconstrained"].got == "90"
    assert by_id["omega_tangent_dim"].status == "fail"
    for cid in ("injective_differential_kernel", "relaxed_nine_conditions", "hyperplane_product_witness"):
        assert by_id[cid].status == "fail" and by_id[cid].got.startswith("error: system rows of unequal widths")
    assert by_id["sigma_tangent_dims"].status == "pass"


@pytest.mark.parametrize("K", [F, QQ], ids=["GF10007", "QQ"])
def test_kernel_dim_takes_the_width_of_the_rows_it_built(K):
    """The unknowns are counted off the built rows, on both the certified
    and the exact route; rows of unequal width raise ShapeError."""

    def given(field, rows):
        return rows

    assert incidence._kernel_dim(K, given, ([[1, 0, 2, 0], [0, 1, 3, 0]],)) == 2
    assert incidence._kernel_dim(K, given, ([[1, 2, 3], [2, 4, 6]],)) == 2
    with pytest.raises(ShapeError):
        incidence._kernel_dim(K, given, ([[1, 0, 2], [0, 1]],))


def test_omega_tangent_dim_over_qq(rng):
    A, u = lag_and_hyperplane(SQ, rng)
    pen = incidence.pencil_through(SQ, u)
    B = pen.member(1, 1)
    if B == A:
        B = pen.member(1, 2)
    assert incidence.omega_tangent_dim(SQ, A, B) == 65


def test_omega_preconditions(rng):
    A = SP.random_lagrangian(rng)
    with pytest.raises(incidence.PreconditionError):
        incidence.omega_tangent_dim(SP, A, A)
    B = SP.random_lagrangian(rng)
    if A.meet(B).dim != 9:
        with pytest.raises(incidence.PreconditionError):
            incidence.omega_tangent_dim(SP, A, B)


def test_injective_differential_kernel_zero_qq(rng):
    for _ in range(3):
        B, u = lag_and_hyperplane(SQ, rng)
        alphas = admissible_alphas(SQ, B, u, rng)
        assert incidence.injective_differential_kernel(SQ, B, u, alphas) == 0


def test_injective_differential_kernel_zero_fp(rng):
    for _ in range(5):
        B, u = lag_and_hyperplane(SP, rng)
        alphas = admissible_alphas(SP, B, u, rng)
        assert incidence.injective_differential_kernel(SP, B, u, alphas) == 0


def test_injective_differential_relaxed_nine(rng):
    B, u = lag_and_hyperplane(SP, rng)
    alphas = admissible_alphas(SP, B, u, rng, count=9)
    dim = incidence.injective_differential_kernel(SP, B, u, alphas, require_full=False)
    assert dim == 1


def test_injective_differential_preconditions(rng):
    B, u = lag_and_hyperplane(SP, rng)
    alphas = admissible_alphas(SP, B, u, rng)
    inside = random_in(SP, u, rng, 1)[0]
    with pytest.raises(incidence.PreconditionError):
        incidence.injective_differential_kernel(SP, B, u, alphas[:9] + [inside])
    dependent = alphas[:9] + [alphas[0]]
    with pytest.raises(incidence.PreconditionError):
        incidence.injective_differential_kernel(SP, B, u, dependent)
    with pytest.raises(incidence.PreconditionError):
        incidence.injective_differential_kernel(SP, B, u, alphas[:9])  # needs relaxed mode


def test_alphas_in_second_hyperplane_leave_a_witness(rng):
    B, u = lag_and_hyperplane(SP, rng)
    other = Subspace.from_spanning(F, DIM3, B.basis()[1:])
    assert other.dim == 9 and other != u
    alphas = []
    while len(alphas) < 8:
        vec = random_in(SP, other, rng, 1)[0]
        if u.contains(vec):
            continue
        cand = alphas + [vec]
        if Matrix(F, [list(B.coords_of(v)) for v in cand], ncols=10).rank() == len(cand):
            alphas = cand
    # the product of the two hyperplane forms kills every alpha
    dim = incidence.injective_differential_kernel(SP, B, u, alphas, require_full=False)
    assert dim >= 1


def test_sigma_tangent_space_dims(rng):
    A = SP.random_lagrangian(rng)
    assert incidence.sigma_tangent_space(SP, A, []).dim == 55
    assert incidence.sigma_tangent_space(SP, A, [A.basis()[0]]).dim == 54
    assert incidence.sigma_tangent_space(SP, A, list(A.basis())).dim == 45
    outside = [1] + [0] * (DIM3 - 1)
    if not A.contains(outside):
        with pytest.raises(incidence.PreconditionError):
            incidence.sigma_tangent_space(SP, A, [outside])


def test_perp_sum_identity(rng):
    """perp(A ∩ B) = A + B for A with itself, with a random Lagrangian and
    with a member of a pencil through a hyperplane of A."""
    A = SP.random_lagrangian(rng)
    u = Subspace.from_spanning(F, DIM3, A.basis()[:9])
    member = incidence.pencil_through(SP, u).member(3, 4)
    for B in (A, SP.random_lagrangian(rng), member):
        assert SP.perp(A.meet(B)) == A.join(B)


def test_tangency_scenario_fp(rng):
    for _ in range(8):
        sc = incidence.tangency_scenario(SP, rng)
        assert sc.fiber_member_dim >= 2
        assert sc.core.dim == 9
        assert sc.member.meet(sc.A).dim == 9
        fib = SP.fiber(sc.v)
        assert fib.meet(sc.A).dim >= 1  # the point lies on both sextics
        assert fib.meet(sc.B).dim >= 1


def test_tangency_scenario_qq(rng):
    sc = incidence.tangency_scenario(SQ, rng)
    assert sc.fiber_member_dim >= 2


def test_tangency_scenario_gf7_writes_down_its_hyperplane(monkeypatch):
    """Over GF(7) every contract holds, and the hyperplane u is written down
    as its own canonical RREF through alpha. A graph(M) with M[f][f] = 0 is
    pencil member (1, 0), which then cannot be B: the seeds reach that
    branch, where B is member (1, 1)."""
    field = GF(7)
    space = SymplecticSpace(field)
    seeds, pencils = [], []
    completion, through = space.lagrangian_completion, incidence.pencil_through
    monkeypatch.setattr(space, "lagrangian_completion", lambda s, rnd: seeds.append(s) or completion(s, rnd))
    monkeypatch.setattr(incidence, "pencil_through", lambda sp, u: pencils.append(through(sp, u)) or pencils[-1])
    branch = 0
    for seed in range(40):
        sc = incidence.tangency_scenario(space, derive_rng(seed, "gf7.scenario"))
        pen, alpha = pencils[-1], seeds[-1]
        assert sc.fiber_member_dim >= 2 and sc.core == pen.core
        assert pen.core == Subspace.from_spanning(field, DIM3, pen.core.basis())
        assert all(map(pen.core.contains, alpha.basis())) and alpha.dim == 1
        on_a = pen.member(1, 0) == sc.A
        assert sc.B == pen.member(1, 1 if on_a else 0) != sc.A
        branch += on_a
    assert branch > 0


def test_completion_of_nine_dim_core_is_a_pencil_member(rng):
    A = SP.random_lagrangian(rng)
    u = Subspace.from_spanning(F, DIM3, A.basis()[:9])
    L = SP.lagrangian_completion(u, rng)
    assert SP.is_lagrangian(L)
    assert all(map(L.contains, u.basis()))
    assert all(map(SP.perp(u).contains, L.basis()))  # exactly the pencil membership conditions


# -- the kernel systems ------------------------------------------------------

SYM_PAIRS = [(k, l) for k in range(10) for l in range(k, 10)]  # the 55 upper coordinates


def per_entry_restriction(K, R, i, j):
    """The (i, j) restriction row one entry at a time: R_ik R_jk at k = l,
    R_ik R_jl + R_jk R_il at k < l."""
    return [
        K.mul(R[i][k], R[j][k]) if k == l else K.add(K.mul(R[i][k], R[j][l]), K.mul(R[j][k], R[i][l]))
        for k, l in SYM_PAIRS
    ]


def per_entry_evaluation(K, c):
    """q(c) one entry at a time: c_k^2 at k = l, 2 c_k c_l at k < l."""
    return [K.mul(c[k], c[k]) if k == l else K.mul(K.of(2), K.mul(c[k], c[l])) for k, l in SYM_PAIRS]


def coordinate_rows(K, rnd, count):
    """Rows of 10 canonical elements of K, about a fifth of them zero."""
    def entry():
        if rnd.random() < 0.2:
            return K.zero
        if K == QQ:
            return K.of(Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)))
        return K.random(rnd)

    return [tuple(entry() for _ in range(10)) for _ in range(count)]


def typed(vec):
    return [(type(x), x) for x in vec]


@pytest.mark.parametrize("K", [GF(7), F, QQ], ids=repr)
def test_system_rows_equal_the_per_entry_formula(K):
    rnd = random.Random(f"system-rows-{K!r}")
    for _ in range(4):
        R = coordinate_rows(K, rnd, 9)
        R[rnd.randrange(9)] = (K.zero,) * 10
        for i in range(9):
            for j in range(i, 9):
                assert typed(incidence._restriction_rows(K, R, i, j)) == typed(per_entry_restriction(K, R, i, j))
        for c in coordinate_rows(K, rnd, 10) + [(K.zero,) * 10]:
            assert typed(incidence._evaluation_row(K, c)) == typed(per_entry_evaluation(K, c))


def exact_kernel_dim(build, inputs, ncols):
    """The kernel dimension by Bareiss on the QQ system, with no certificate."""
    return ncols - Matrix(QQ, build(QQ, *inputs), ncols=ncols).rank()


def test_qq_kernel_dim_falls_back_when_the_certificate_is_inconclusive():
    """Inputs scaled by 10007 make the restriction rows vanish mod 10007,
    and inputs divided by 10007 do not reduce at all: both systems keep
    their full QQ rank, and the exact elimination must find it."""
    rnd = random.Random("kernel-fallback")
    R, coords = coordinate_rows(QQ, rnd, 9), coordinate_rows(QQ, rnd, 10)
    R2 = coordinate_rows(QQ, rnd, 9)
    scaled = [[x * 10007 for x in row] for row in R]
    divided = [[x / 10007 for x in row] for row in R]
    scaled2 = [[x * 10007 for x in row] for row in R2]
    cases = [
        (incidence._injective_rows, (R, coords), 55, 0, (55, 55)),
        (incidence._injective_rows, (scaled, coords), 55, 0, None),
        (incidence._injective_rows, (divided, coords), 55, 0, None),
        (incidence._injective_rows, (scaled, coords[:9]), 55, 1, None),
        (incidence._omega_rows, (R, R2), 110, 65, (45, 110)),
        (incidence._omega_rows, (scaled, scaled2), 110, 65, None),
        (incidence._omega_rows, (divided, R2), 110, 65, None),
    ]
    for build, inputs, ncols, dim, certified in cases:
        assert incidence.certified_rank_full(build, inputs) == certified
        assert exact_kernel_dim(build, inputs, ncols) == dim
        assert incidence._kernel_dim(QQ, build, inputs) == dim


def _given_rows(field, rows):
    """The system whose rows are its one input, as they are."""
    return rows


def test_certified_rank_full():
    m = Matrix(QQ, [[1, 0, 2], [0, 1, 3]])
    assert incidence.certified_rank_full(_given_rows, [m.rows]) == (2, 3)
    n = Matrix(QQ, [[1, 2, 3], [2, 4, 6]])
    assert incidence.certified_rank_full(_given_rows, [n.rows]) is None


def test_certified_rank_full_is_inconclusive_mod_10007_only():
    """A system of full QQ rank that is singular mod 10007, and one whose
    input has a denominator divisible by 10007: no certificate, though the
    exact rank is full."""
    singular_mod_p = Matrix(QQ, [[1, 0, 2], [0, 10007, 3 * 10007]])
    vanishing_den = Matrix(QQ, [[Fraction(1, 10007), 0, 2], [0, 1, 3]])
    for m in (singular_mod_p, vanishing_den):
        assert m.rank() == 2
        assert incidence.certified_rank_full(_given_rows, [m.rows]) is None


def test_the_omega_check_eliminates_ten_different_systems(monkeypatch):
    """Each of the ten pairs of omega_tangent_dim meets in a random
    hyperplane of A, so at seed 7 the suite eliminates ten pairwise
    different agreement systems; cores taken as the first nine canonical
    rows of A gave the one system RA = [I_9 | 0] ten times."""
    systems = []
    tangent_dim = incidence.omega_tangent_dim

    def recorded(space, A, B):
        rows = incidence._omega_rows(space.field, *incidence._omega_cores(space, A, B))
        systems.append(tuple(map(tuple, rows)))
        return tangent_dim(space, A, B)

    monkeypatch.setattr(incidence, "omega_tangent_dim", recorded)
    suites.SUITES["incidence"](suites.RunConfig(seed=7, trials=2))
    assert len(systems) == 10 and len(set(systems)) == 10
