from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epwcalc.exterior import (
    COMP3,
    DIM3,
    ExteriorVector,
    GradeError,
    SymplecticSpace,
    frame_struct,
    graph_lagrangian,
    merge_sign,
    vol,
)
from epwcalc.incidence import pencil_through
from epwcalc.linalg import Subspace
from epwcalc.scalars import GF, QQ, FieldMismatch
from epwcalc.rng import derive_rng

F = GF(10007)
SP = SymplecticSpace(F)
SQ = SymplecticSpace(QQ)


def unit_rows(field, n):
    """The rows of the n x n identity matrix, as tuples."""
    return [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]


def frame_rows(field, coords):
    """The frame vectors v ^ e_i ^ e_j on the chart c of the first nonzero
    coordinate of v, unscaled, a basis of the fiber v ^ (2-vectors): each
    carries the lone coordinate +-v_c at {c, i, j}."""
    chart = next(c for c, x in enumerate(coords) if not field.is_zero(x))
    rows = []
    for entries in frame_struct(chart):
        row = [field.zero] * DIM3
        for s, sg, pos in entries:
            row[pos] = coords[s] if sg > 0 else field.neg(coords[s])
        rows.append(row)
    return rows


def vec(field, grade, coords):
    return ExteriorVector(field, grade, coords)


def rand_vec(field, grade, rnd):
    return ExteriorVector(field, grade, [field.random(rnd) for _ in range(comb(6, grade))])


def add(x, y):
    """x + y, coordinate by coordinate, for two vectors of one grade."""
    assert x.grade == y.grade
    return ExteriorVector(x.field, x.grade, [x.field.add(a, b) for a, b in zip(x.coords, y.coords)])


def test_basis_wedge_conventions():
    e0 = ExteriorVector.basis(F, 0)
    e1 = ExteriorVector.basis(F, 1)
    assert (e0 ^ e0).is_zero()
    assert (e0 ^ e1) == ExteriorVector.basis(F, 0, 1)
    e012 = ExteriorVector.basis(F, 0, 1, 2)
    e345 = ExteriorVector.basis(F, 3, 4, 5)
    assert vol(e012 ^ e345) == 1
    assert merge_sign((0, 2), (1,)) == -1


def test_wedge_grade_overflow():
    a = ExteriorVector.basis(F, 0, 1, 2)
    b = ExteriorVector.basis(F, 0, 1, 2, 3)
    with pytest.raises(GradeError):
        a.wedge(b)


def test_mixed_field_wedge_is_an_error():
    a = ExteriorVector.basis(F, 0)
    b = ExteriorVector.basis(QQ, 1)
    with pytest.raises(FieldMismatch):
        a.wedge(b)


grades = st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 3), (2, 3)])


@given(grades, st.integers(0, 2**30))
def test_graded_anticommutativity(gr, seed):
    j, k = gr
    rnd = derive_rng(seed, "anticomm")
    a, b = rand_vec(F, j, rnd), rand_vec(F, k, rnd)
    lhs = a ^ b
    rhs = (b ^ a).scale((-1) ** (j * k))
    assert lhs == rhs


@given(st.integers(0, 2**30))
def test_wedge_associative_and_bilinear(seed):
    rnd = derive_rng(seed, "assoc")
    a, b, c = rand_vec(F, 1, rnd), rand_vec(F, 2, rnd), rand_vec(F, 2, rnd)
    assert (a ^ b) ^ c == a ^ (b ^ c)
    s = F.random(rnd)
    assert (a.scale(s)) ^ b == (a ^ b).scale(s)
    assert add(b, c) ^ a == add(b ^ a, c ^ a)


@given(st.integers(0, 2**30))
def test_form_antisymmetric_and_isotropic_on_self(seed):
    rnd = derive_rng(seed, "form")
    a, b = rand_vec(F, 3, rnd), rand_vec(F, 3, rnd)
    assert SP.form(a, a) == 0
    assert SP.form(a, b) == F.neg(SP.form(b, a))


def test_gram_rank_20():
    assert SP.gram().rank() == 20
    assert SQ.gram().rank() == 20


@given(st.integers(0, 2**30))
def test_fiber_is_lagrangian_and_scale_invariant(seed):
    rnd = derive_rng(seed, "fiber")
    v = rand_vec(F, 1, rnd)
    if v.is_zero():
        return
    fib = SP.fiber(v)
    assert fib.dim == 10
    assert SP.is_lagrangian(fib)
    lam = F.random(rnd)
    if not F.is_zero(lam):
        assert SP.fiber(v.scale(lam)) == fib


def test_fiber_of_e0_is_span_of_subsets_containing_0():
    v = ExteriorVector.basis(F, 0)
    fib = SP.fiber(v)
    spanning = []
    for s in combinations(range(6), 3):
        if 0 in s:
            spanning.append(ExteriorVector.basis(F, *s).coords)
    direct = Subspace.from_spanning(F, DIM3, spanning)
    assert direct == fib
    assert SP.is_lagrangian(direct)


def test_fiber_is_the_wedge_span_on_every_chart_over_qq():
    rnd = derive_rng(32, "fiber.qq")
    for chart in range(6):
        v = [Fraction(0)] * chart + [Fraction(rnd.randint(1, 9), rnd.randint(1, 9))]
        v += [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(5 - chart)]
        vx = ExteriorVector(QQ, 1, v)
        spanning = [vx.wedge(ExteriorVector.basis(QQ, i, j)).coords for i, j in combinations(range(6), 2)]
        span = Subspace.from_spanning(QQ, DIM3, spanning)
        assert SQ.fiber(vx) == span
        assert SQ.is_lagrangian(span)


@pytest.mark.parametrize("K", [F, QQ], ids=repr)
def test_trusted_span_of_frame_rows_equals_from_spanning_on_every_chart(K):
    """`Subspace.from_spanning` eliminates the frame rows, field elements,
    as given; their span is that of the wedges v ^ e_i ^ e_j, and `fiber`,
    written down with no elimination, equals it."""
    rnd = derive_rng(34, "fiber.span")
    for chart in range(6):
        v = [K.zero] * chart + [K.of(Fraction(rnd.randint(1, 9), rnd.randint(1, 9)))]
        v += [K.of(Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))) for _ in range(5 - chart)]
        vx = ExteriorVector(K, 1, v)
        span = Subspace.from_spanning(K, DIM3, frame_rows(K, v))
        wedges = [vx.wedge(ExteriorVector.basis(K, i, j)).coords for i, j in combinations(range(6), 2)]
        assert span == Subspace.from_spanning(K, DIM3, wedges)
        assert span.dim == 10
        assert all(type(x) is type(K.zero) for row in span.basis() for x in row)
        assert SymplecticSpace(K).fiber(vx) == span


@pytest.mark.parametrize("K", [GF(7), F, QQ], ids=repr)
def test_fiber_rref_written_down_equals_the_eliminated_span(K):
    """On every chart, with zero coordinates after the chart too, the rows
    `fiber` writes down are the canonical RREF that eliminating the frame
    rows gives: same rows, same pivots, entries of the field's type."""
    rnd = derive_rng(35, f"fiber.rref.{K!r}")
    space = SymplecticSpace(K)
    for n in range(300):
        chart = n % 6
        v = [K.zero] * chart + [K.of(Fraction(rnd.randint(1, 6), rnd.randint(1, 5)))]
        v += [K.of(Fraction(rnd.randint(-3, 3), rnd.randint(1, 5))) for _ in range(5 - chart)]
        fib = space.fiber(ExteriorVector(K, 1, v))
        span = Subspace.from_spanning(K, DIM3, frame_rows(K, v))
        assert fib == span and fib.pivots == span.pivots
        assert all(type(x) is type(K.zero) for row in fib.basis() for x in row)


def test_is_isotropic_agrees_with_the_form_over_both_fields():
    rnd = derive_rng(33, "isotropy")
    for space in (SQ, SP):
        K = space.field
        seen = set()
        for _ in range(12):
            v = ExteriorVector(K, 1, [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(6)])
            if v.is_zero():
                continue
            x, y = space.fiber(v).basis()[:2]
            # y + e_k leaves the fiber, and pairs with x exactly when form(x, e_k) != 0
            k = rnd.randrange(DIM3)
            bumped = list(y)
            bumped[k] = K.add(bumped[k], K.one)
            s = Subspace.from_spanning(K, DIM3, [x, bumped])
            a, b = (ExteriorVector(K, 3, r) for r in s.basis())
            isotropic = K.is_zero(space.form(a, b))
            assert space.is_isotropic(s) == isotropic
            seen.add(isotropic)
        assert seen == {True, False}


def test_fiber_rejects_zero_vector():
    with pytest.raises(ValueError):
        SP.fiber(ExteriorVector(F, 1, [0] * 6))


def test_perp_examples(rng):
    A = SP.random_lagrangian(rng)
    assert SP.perp(A) == A
    assert SP.perp(Subspace.zero(F, DIM3)) == Subspace(F, DIM3, unit_rows(F, DIM3), range(DIM3))
    u = Subspace.from_spanning(F, DIM3, A.basis()[:9])
    pu = SP.perp(u)
    assert pu.dim == 11
    assert all(map(pu.contains, u.basis()))


def test_lagrangian_completion(rng):
    already = SP.random_lagrangian(rng)
    assert SP.lagrangian_completion(already, rng) == already
    seed = Subspace.from_spanning(F, DIM3, [ExteriorVector.basis(F, 0, 1, 2).coords])
    L = SP.lagrangian_completion(seed, rng)
    assert SP.is_lagrangian(L)
    assert L.contains(ExteriorVector.basis(F, 0, 1, 2).coords)
    not_isotropic = Subspace.from_spanning(
        F, DIM3, [ExteriorVector.basis(F, 0, 1, 2).coords, ExteriorVector.basis(F, 3, 4, 5).coords]
    )
    with pytest.raises(ValueError):
        SP.lagrangian_completion(not_isotropic, rng)
    # e_123 lies in wedge^3 <e_1..e_5>, which no graph meets
    off_chart = Subspace.from_spanning(F, DIM3, [ExteriorVector.basis(F, 1, 2, 3).coords])
    with pytest.raises(ValueError):
        SP.lagrangian_completion(off_chart, rng)


CHART_FIELDS = [GF(7), GF(10007), GF(2**61 - 1), QQ]
CHART_IDS = ["GF7", "GF10007", "GF2^61-1", "QQ"]


def _chart_matrix(field, lag):
    """M with row a of lag equal to e_a + sum_b s_b M[a][b] e_{j_b}, read off
    the free block with the signs (j_b, s_b) = COMP3[b]."""
    return [[row[j] if sg > 0 else field.neg(row[j]) for j, sg in COMP3[:10]] for row in lag.basis()]


@pytest.mark.parametrize("field", CHART_FIELDS, ids=CHART_IDS)
def test_completions_in_the_chart_are_graphs_of_symmetric_matrices(field):
    """A completion from zero has pivots 0..9, so it is transverse to
    wedge^3 <e_1..e_5>: the matrix read off its free block is symmetric and
    its graph is that completion. Breaking the symmetry of one entry breaks
    isotropy."""
    space = SymplecticSpace(field)
    for seed in range(8):
        lag = space.lagrangian_completion(Subspace.zero(field, DIM3), derive_rng(seed, "chart.completion"))
        m = _chart_matrix(field, lag)
        assert all(m[a][b] == m[b][a] for a in range(10) for b in range(a))
        graph = graph_lagrangian(field, m)
        assert graph == lag and graph.pivots == lag.pivots
        m[2][7] = field.add(m[2][7], field.one)
        assert not space.is_lagrangian(graph_lagrangian(field, m))


def _completion_starts(field, rnd):
    """Isotropic starts of dimension 0, 1, 5, 9 and 10, all transverse to
    wedge^3 <e_1..e_5>: zero, the line of a random v ^ beta, five random
    vectors of a random Lagrangian, its first nine rows, and itself."""
    space = SymplecticSpace(field)
    lag = space.random_lagrangian(rnd)
    while True:
        line = rand_vec(field, 1, rnd) ^ rand_vec(field, 2, rnd)
        if any(line.coords[:10]):
            break
    while True:
        five = Subspace.from_spanning(
            field, DIM3, [field.lincomb([field.random(rnd) for _ in range(10)], lag.basis()) for _ in range(5)]
        )
        if five.dim == 5:
            break
    return {
        "zero": Subspace.zero(field, DIM3),
        "line": Subspace.from_spanning(field, DIM3, [line.coords]),
        "five": five,
        "core": Subspace.from_spanning(field, DIM3, lag.basis()[:9]),
        "full": lag,
    }


@pytest.mark.parametrize("field", CHART_FIELDS, ids=CHART_IDS)
def test_completion_is_a_chart_lagrangian_through_its_start(field):
    """From a start of dimension k the completion is Lagrangian, contains the
    start, has pivots 0..9, lies in perp(start), and leaves the rng where
    (10 - k)(11 - k)/2 `random` calls leave a twin."""
    space = SymplecticSpace(field)
    for name, start in _completion_starts(field, derive_rng(41, f"completion.{field!r}")).items():
        k = start.dim
        for seed in range(2):
            rnd, twin = derive_rng(seed, name), derive_rng(seed, name)
            got = space.lagrangian_completion(start, rnd)
            assert space.is_lagrangian(got) and all(map(got.contains, start.basis()))
            assert got.pivots == tuple(range(10))
            assert all(map(space.perp(start).contains, got.basis()))
            for _ in range((10 - k) * (11 - k) // 2):
                field.random(twin)
            assert rnd.getstate() == twin.getstate()


def test_completions_of_a_core_reach_every_chart_member_of_its_pencil():
    """Over GF(7) the Lagrangians through a 9-dimensional core form a pencil
    of 8; its members transverse to wedge^3 <e_1..e_5> are the completions
    of the core, which draw one scalar. 60 seeds reach all of them. The
    member (0, 1) is the one that meets wedge^3 <e_1..e_5>."""
    field = GF(7)
    space = SymplecticSpace(field)
    core = Subspace.from_spanning(field, DIM3, space.random_lagrangian(derive_rng(3, "pencil.lag")).basis()[:9])
    pencil = pencil_through(space, core)
    members = {pencil.member(1, t) for t in range(7)} | {pencil.member(0, 1)}
    chart = {m for m in members if m.pivots == tuple(range(10))}
    assert len(members) == 8 and chart == members - {pencil.member(0, 1)}
    reached = {space.lagrangian_completion(core, derive_rng(seed, "pencil.completion")) for seed in range(60)}
    assert reached == chart


@pytest.mark.parametrize("field", CHART_FIELDS, ids=CHART_IDS)
def test_random_lagrangian_is_canonical_and_draws_55_scalars(field):
    """random_lagrangian is its own canonical RREF, with entries that are
    canonical field elements, is Lagrangian, and leaves the rng where 55
    `random` calls leave a twin."""
    space = SymplecticSpace(field)
    kind = Fraction if field == QQ else int
    for seed in range(4):
        rnd, twin = derive_rng(seed, "chart.draw"), derive_rng(seed, "chart.draw")
        lag = space.random_lagrangian(rnd)
        for _ in range(55):
            field.random(twin)
        assert rnd.getstate() == twin.getstate()
        again = Subspace.from_spanning(field, DIM3, lag.basis())
        assert lag == again and lag.pivots == again.pivots == tuple(range(10))
        assert all(type(x) is kind and x == field.of(x) for row in lag.basis() for x in row)
        assert space.is_lagrangian(lag)


def test_decomposable_of_is_basis_independent(rng):
    w = Subspace.from_spanning(F, 6, [[1, 2, 3, 4, 5, 6], [0, 1, 0, 2, 0, 3], [0, 0, 1, 1, 1, 1]])
    d1 = SP.decomposable_of(w)
    # a different spanning set of the same subspace
    rows = w.basis()
    mixed = [
        [F.add(a, b) for a, b in zip(rows[0], rows[1])],
        [F.add(F.mul(F.of(3), a), b) for a, b in zip(rows[1], rows[2])],
        rows[2],
    ]
    d2 = SP.decomposable_of(Subspace.from_spanning(F, 6, mixed))
    assert d1 == d2
    lead = next(c for c in d1.coords if not F.is_zero(c))
    assert lead == F.one


def test_decomposable_of_standard_basis():
    w = Subspace.from_spanning(F, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    assert SP.decomposable_of(w) == ExteriorVector.basis(F, 0, 1, 2)


def test_decomposable_orthogonality_iff_intersection(rng):
    for _ in range(30):
        w1 = _rand_sub(rng, 3)
        w2 = _rand_sub(rng, 3)
        d1, d2 = SP.decomposable_of(w1), SP.decomposable_of(w2)
        assert F.is_zero(SP.form(d1, d2)) == (w1.meet(w2).dim > 0)


def _rand_sub(rnd, dim):
    while True:
        s = Subspace.from_spanning(F, 6, [[F.random(rnd) for _ in range(6)] for _ in range(dim)])
        if s.dim == dim:
            return s


def test_perp_meet_join_for_lagrangian_pairs(rng):
    for _ in range(5):
        A = SP.random_lagrangian(rng)
        B = SP.random_lagrangian(rng)
        assert SP.perp(A.meet(B)) == A.join(B)


def test_is_lagrangian_rejects_nine_dimensional_isotropic(rng):
    A = SP.random_lagrangian(rng)
    u = Subspace.from_spanning(F, DIM3, list(A.basis()[:9]))
    assert SP.is_isotropic(u)
    assert not SP.is_lagrangian(u)
