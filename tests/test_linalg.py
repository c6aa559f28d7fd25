import itertools
import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epwcalc import fpkernel
from epwcalc.linalg import (
    InterpolationError,
    Matrix,
    ShapeError,
    Subspace,
    _divmod_monic,
    _pow_linear_mod,
    adjugate_traces,
    interpolate_univariate,
    poly_degree,
    poly_eval,
    smallest_root,
)
from epwcalc.scalars import GF, QQ, FieldMismatch, is_prime

F101 = GF(101)

small_int = st.integers(min_value=-9, max_value=9)


def mat_strategy(field, max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix(field, rows))
        )
    )


def unit_rows(field, n):
    """The rows of the n x n identity matrix, as tuples."""
    return [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]


def full_space(field, n):
    """The whole n-space: the identity rows are its canonical RREF."""
    return Subspace(field, n, unit_rows(field, n), range(n))


def zero_matrix(field, nrows, ncols):
    return Matrix(field, [[0] * ncols for _ in range(nrows)])


def test_rank_identity_and_zero():
    assert Matrix(QQ, unit_rows(QQ, 3)).rank() == 3
    assert zero_matrix(QQ, 4, 7).rank() == 0
    assert Matrix(F101, unit_rows(F101, 3)).rank() == 3
    assert zero_matrix(F101, 4, 7).rank() == 0


@given(mat_strategy(QQ))
def test_rank_equals_rank_of_transpose_qq(m):
    assert m.rank() == m.transpose().rank()


@given(mat_strategy(F101))
def test_rank_equals_rank_of_transpose_fp(m):
    assert m.rank() == m.transpose().rank()


@given(mat_strategy(QQ, max_dim=5))
def test_rank_agrees_with_modular_rank_on_small_integer_matrices(m):
    # over small integer entries a prime this large cannot drop rank by accident
    rows = [[int(x) for x in r] for r in m.rows]
    mp = Matrix(GF(1000003), rows)
    assert m.rank() >= mp.rank()


def test_det_bareiss_matches_fp():
    rows = [[3, -1, 4], [1, 5, -9], [2, 6, 5]]
    dq = Matrix(QQ, rows).det()
    dp = Matrix(F101, rows).det()
    assert dq == Fraction(3 * (5 * 5 + 9 * 6) + 1 * (1 * 5 + 9 * 2) + 4 * (6 - 10))
    assert dp == int(dq) % 101
    # the F_p kernel against the QQ Bareiss route, up to primes past 2^32
    rng = random.Random(99)
    for p in (101, 10007, 2**31 - 1, 2**61 - 1):
        Fp = GF(p)
        for _ in range(12):
            n = rng.randint(1, 8)
            rows = [[rng.randint(-(10**6), 10**6) for _ in range(n)] for _ in range(n)]
            assert Matrix(Fp, rows).det() == int(Matrix(QQ, rows).det()) % p
    # outer products: rank at most one, so the det vanishes
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 8)
        row = [rng.randrange(101) for _ in range(n)]
        scales = [rng.randrange(101) for _ in range(n)]
        m = Matrix(F101, [[c * x for x in row] for c in scales])
        assert m.rank() <= 1 and m.det() == 0


def test_is_prime_is_exact_below_psi13():
    psi12 = 399165290221 * 798330580441  # strong pseudoprime to the 12 prime bases 2..37
    assert psi12 == 318665857834031151167461
    assert not is_prime(psi12)
    with pytest.raises(ValueError):
        GF(psi12)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
    assert is_prime(2**61 - 1) and is_prime(10007) and not is_prime(10007 * 10009)


def test_det_fractional_entries():
    m = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert m.det() == Fraction(1, 14) - Fraction(1, 15)


def test_rref_is_canonical():
    m1 = Matrix(F101, [[1, 2, 3], [2, 4, 7]])
    m2 = Matrix(F101, [[3, 6, 10], [1, 2, 4]])
    s1 = Subspace.from_spanning(F101, 3, m1.rows)
    s2 = Subspace.from_spanning(F101, 3, m2.rows)
    assert s1 == s2
    assert s1.pivots == s2.pivots


def test_kernel_basis_examples():
    assert Matrix(QQ, unit_rows(QQ, 4)).kernel_basis().dim == 0
    k = Matrix(QQ, [[1, 1]]).kernel_basis()
    assert k.dim == 1
    assert k.contains([1, -1])


@given(mat_strategy(F101, max_dim=6))
def test_kernel_dimension_formula(m):
    assert m.kernel_basis().dim == m.ncols - m.rank()


def _kernel_basis_reference(m):
    """The kernel by two eliminations: the rref of m, a kernel vector per
    free column f (1 at f, -red[r][f] at each row r's pivot), then the
    canonical RREF of their span."""
    F = m.field
    red, pivots = m.rref()
    basis = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        vec = [F.zero] * m.ncols
        vec[f] = F.one
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg(red.rows[r][f])
        basis.append(vec)
    return Subspace.from_spanning(F, m.ncols, basis)


def _assert_kernel_matches(m):
    got, want = m.kernel_basis(), _kernel_basis_reference(m)
    assert got == want and got.pivots == want.pivots
    assert all(type(row) is tuple for row in got.basis())
    assert got.dim == m.ncols - m.rank()


KERNEL_FIELDS = (QQ, GF(7), F101)


@given(
    st.integers(0, 6).flatmap(
        lambda c: st.tuples(
            st.lists(st.lists(small_int, min_size=c, max_size=c), max_size=7),
            st.lists(st.tuples(small_int, small_int), max_size=3),
            st.just(c),
        )
    )
)
def test_kernel_basis_equals_the_two_elimination_route(case):
    rows, mixes, ncols = case
    # some rows are combinations of others, so the rank drops
    extra = [[a * x + b * y for x, y in zip(rows[0], rows[-1])] for a, b in mixes if rows]
    for field in KERNEL_FIELDS:
        _assert_kernel_matches(Matrix(field, rows + extra, ncols=ncols))


def test_kernel_basis_edge_shapes_equal_the_two_elimination_route():
    rnd = random.Random(11)
    for field in KERNEL_FIELDS:
        shapes = [
            Matrix(field, [], ncols=5),  # no rows: the kernel is everything
            zero_matrix(field, 3, 4),
            Matrix(field, unit_rows(field, 5)),  # full rank, square
            Matrix(field, [[1, 2, 0, 3, 0, 1, 5], [0, 0, 1, 5, 0, 2, 1]]),  # wide
            Matrix(field, [[1, 2], [2, 4], [3, 6], [0, 1], [5, 5]]),  # tall, full column rank
            Matrix(field, [[1, 2], [2, 4], [3, 6]]),  # tall, rank one
        ]
        shapes += [
            Matrix(field, [[rnd.randint(-4, 4) for _ in range(c)] for _ in range(r)])
            for r, c in ((4, 9), (9, 4), (6, 6), (10, 20), (20, 10))
        ]
        for m in shapes:
            _assert_kernel_matches(m)
    # x0 + 2 x1 + 3 x3 = 0 over GF(7): x3 = -(x0 + 2 x1) / 3 = 2 x0 + 4 x1
    k = Matrix(GF(7), [[1, 2, 0, 3]]).kernel_basis()
    assert k.pivots == (0, 1, 2) and k.basis() == ((1, 0, 0, 2), (0, 1, 0, 4), (0, 0, 1, 0))
    assert Matrix(GF(7), [], ncols=3).kernel_basis() == full_space(GF(7), 3)


def test_kernel_basis_replays_the_suite_calls(monkeypatch):
    from epwcalc.suites import SUITES, RunConfig

    calls = []
    route = Matrix.kernel_basis

    def recording(m):
        calls.append(m)
        return route(m)

    monkeypatch.setattr(Matrix, "kernel_basis", recording)
    for suite in ("exterior", "incidence", "epw"):
        SUITES[suite](RunConfig(seed=7, trials=10))
    monkeypatch.undo()
    shapes = set()
    for m in calls:
        _assert_kernel_matches(m)
        shapes.add((m.nrows, m.ncols))
    assert len(calls) > 100 and any(c == 20 for _, c in shapes) and any(c == 55 for _, c in shapes)


@given(
    st.lists(st.lists(small_int, min_size=5, max_size=5), min_size=1, max_size=4),
    st.lists(st.lists(small_int, min_size=5, max_size=5), min_size=1, max_size=4),
)
def test_meet_join_grassmann_identity(rows1, rows2):
    s1 = Subspace.from_spanning(QQ, 5, rows1)
    s2 = Subspace.from_spanning(QQ, 5, rows2)
    m, j = s1.meet(s2), s1.join(s2)
    assert m.dim + j.dim == s1.dim + s2.dim
    assert all(map(j.contains, s1.basis())) and all(map(j.contains, s2.basis()))
    assert all(map(s1.contains, m.basis())) and all(map(s2.contains, m.basis()))
    _assert_canonical(m, j)


def _assert_canonical(*subspaces):
    """Each subspace is the canonical RREF of its own basis, pivots included."""
    for s in subspaces:
        again = Subspace.from_spanning(s.field, s.ambient, s.basis())
        assert s == again and s.pivots == again.pivots


@given(
    st.lists(st.lists(small_int, min_size=5, max_size=5), max_size=4),
    st.lists(small_int, min_size=5, max_size=5),
)
def test_with_vector_equals_from_spanning(rows, vec):
    for field in (QQ, F101):
        s = Subspace.from_spanning(field, 5, rows)
        grown = s.with_vector(vec)
        want = Subspace.from_spanning(field, 5, rows + [vec])
        assert grown == want and grown.pivots == want.pivots
        assert (grown is s) == s.contains(vec)


@given(
    st.lists(st.lists(small_int, min_size=5, max_size=5), min_size=1, max_size=4),
    st.lists(small_int, max_size=4),
    st.lists(small_int, min_size=5, max_size=5),
)
def test_coords_of_members_and_non_members(rows, coeffs, vec):
    for field in (QQ, F101):
        s = Subspace.from_spanning(field, 5, rows)
        coeffs = [field.of(c) for c in (coeffs + [0] * s.dim)[: s.dim]]
        member = [field.of(sum((c * row[j] for c, row in zip(coeffs, s.basis())), field.zero)) for j in range(5)]
        assert s.coords_of(member) == tuple(coeffs)
        assert s.coords_of(member) == tuple(member[pc] for pc in s.pivots)
        x = [field.of(c) for c in vec]
        if s.contains(x):
            assert s.coords_of(x) == tuple(x[pc] for pc in s.pivots)
        else:
            with pytest.raises(ValueError):
                s.coords_of(x)


def test_coords_of_examples():
    for field in (QQ, F101):
        s = Subspace.from_spanning(field, 3, [[2, 4, 0], [0, 0, 3]])  # rref rows (1, 2, 0), (0, 0, 1)
        assert s.coords_of([field.of(x) for x in (3, 6, -5)]) == (field.of(3), field.of(-5))
        with pytest.raises(ValueError):
            s.coords_of([0, 1, 0])


def test_meet_join_trivial_cases():
    s = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert s.meet(s) == s and s.join(s) == s
    t = Subspace.from_spanning(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert s.meet(t).dim == 0
    assert s.join(t) == full_space(QQ, 4)
    for field in (QQ, F101):
        # a chain zero < part < full: the meet is the smaller, the join the larger
        chain = [
            Subspace.zero(field, 4),
            Subspace.from_spanning(field, 4, [[1, 2, 0, 3], [0, 0, 1, 5]]),
            full_space(field, 4),
        ]
        for i, a in enumerate(chain):
            for k, b in enumerate(chain):
                join, meet = a.join(b), a.meet(b)
                _assert_canonical(join, meet)
                assert meet == chain[min(i, k)] and join == chain[max(i, k)]


def _zassenhaus_reference(s, t):
    """(join, meet) by the Zassenhaus double-block elimination: the rows
    [s | s] over [t | 0], eliminated once. The rows that pivot left of n, cut
    to their left halves, are the join's canonical RREF; the others vanish on
    the left, and their right halves are the meet's."""
    F, n = s.field, s.ambient
    z = (F.zero,) * n
    block = [r + r for r in s.basis()] + [r + z for r in t.basis()]
    if not block:
        return Subspace.zero(F, n), Subspace.zero(F, n)
    red, pivots = Matrix(F, block).rref()
    k = bisect_left(pivots, n)
    return (
        Subspace(F, n, [row[:n] for row in red.rows[:k]], pivots[:k]),
        Subspace(F, n, [row[n:] for row in red.rows[k : len(pivots)]], [pc - n for pc in pivots[k:]]),
    )


def _assert_zassenhaus_matches(s, t):
    """(s.join(t), s.meet(t)) equals the double-block route, pivots included,
    with tuple rows (Subspace equality compares row tuples)."""
    got, want = (s.join(t), s.meet(t)), _zassenhaus_reference(s, t)
    for g, w in zip(got, want):
        assert g == w and g.pivots == w.pivots
        assert all(type(row) is tuple for row in g.basis())


ZASSENHAUS_FIELDS = (QQ, GF(7), F101)
row6 = st.lists(small_int, min_size=6, max_size=6)


@given(
    st.lists(row6, max_size=5),
    st.lists(row6, max_size=5),
    st.lists(st.tuples(small_int, small_int), max_size=3),
)
def test_zassenhaus_equals_the_double_block(srows, trows, mixes):
    for field in ZASSENHAUS_FIELDS:
        s = Subspace.from_spanning(field, 6, srows)
        # t is built partly from combinations of s's rows, so the spans overlap
        shared = [
            [a * x + b * y for x, y in zip(srows[i % len(srows)], srows[(i + 1) % len(srows)])]
            for i, (a, b) in enumerate(mixes)
            if srows
        ]
        t = Subspace.from_spanning(field, 6, trows + shared)
        _assert_zassenhaus_matches(s, t)
        _assert_zassenhaus_matches(t, s)


def test_zassenhaus_edge_cases_equal_the_double_block():
    for field in ZASSENHAUS_FIELDS:
        part = Subspace.from_spanning(field, 6, [[1, 2, 0, 3, 0, 1], [0, 0, 1, 5, 0, 2], [0, 0, 0, 0, 1, 4]])
        nested = Subspace.from_spanning(field, 6, [[1, 2, 1, 8, 0, 3]])
        free = [c for c in range(6) if c not in part.pivots]
        complement = Subspace.from_spanning(field, 6, [[int(c == f) for c in range(6)] for f in free])
        cases = [Subspace.zero(field, 6), nested, part, complement, full_space(field, 6)]
        for a in cases:
            for b in cases:
                _assert_zassenhaus_matches(a, b)
        assert part.meet(complement).dim == 0 and part.join(complement) == full_space(field, 6)
        assert part.meet(nested) == nested and part.join(nested) == part
        # one side empty
        zero = Subspace.zero(field, 6)
        assert (part.join(zero), part.meet(zero)) == (part, zero)
        assert (zero.join(part), zero.meet(part)) == (part, zero)


def test_zassenhaus_replays_the_suite_calls(monkeypatch):
    from epwcalc.suites import SUITES, RunConfig

    calls = []

    def recording(route):
        def call(s, t):
            calls.append((s, t))
            return route(s, t)

        return call

    monkeypatch.setattr(Subspace, "meet", recording(Subspace.meet))
    monkeypatch.setattr(Subspace, "join", recording(Subspace.join))
    for suite in ("exterior", "incidence", "epw"):
        SUITES[suite](RunConfig(seed=7, trials=10))
    monkeypatch.undo()
    shapes = set()
    for s, t in calls:
        _assert_zassenhaus_matches(s, t)
        shapes.add((s.dim, t.dim, s.meet(t).dim))
    assert {m for _, _, m in shapes} == set(range(11))
    assert (10, 11, 2) in shapes and (9, 2, 1) in shapes


def test_complementary_coordinate_subspaces_dim20():
    a = Subspace.from_spanning(QQ, 20, unit_rows(QQ, 20)[:9])
    b = Subspace.from_spanning(QQ, 20, unit_rows(QQ, 20)[9:])
    assert a.meet(b).dim == 0
    assert a.join(b).dim == 20


def test_meet_ambient_and_field_mismatch():
    a = Subspace.from_spanning(QQ, 3, [[1, 0, 0]])
    b = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0]])
    with pytest.raises(ShapeError):
        a.meet(b)
    c = Subspace.from_spanning(F101, 3, [[1, 0, 0]])
    with pytest.raises(FieldMismatch):
        a.meet(c)


def test_matrix_rows_must_have_the_given_width():
    """A given column count is checked against non-empty rows, and
    `Subspace.from_spanning` checks vector lengths through it."""
    for field in (GF(7), QQ):
        for rows, ncols in (([[1, 2, 3]], 2), ([[1, 2], [3]], None), ([[1, 2], [3]], 2)):
            with pytest.raises(ShapeError):
                Matrix(field, rows, ncols)
        with pytest.raises(ShapeError):
            Subspace.from_spanning(field, 4, [[1, 0, 0]])
        assert Matrix(field, [[1, 2, 3]], ncols=3).ncols == 3
        assert Matrix(field, [], ncols=2).ncols == 2


RESIDUE_FIELDS = (GF(7), GF(10007), GF(2**61 - 1), QQ)


def _random_subspace(field, rnd, ambient, dim):
    """A subspace of exactly this dimension, from random rows of small entries."""
    while True:
        rows = [[field.of(rnd.randint(-9, 9)) for _ in range(ambient)] for _ in range(dim)]
        s = Subspace.from_spanning(field, ambient, rows)
        if s.dim == dim:
            return s


def _fresh_block(s):
    """(free columns, basis rows cut to them), recomputed from the rows."""
    free = tuple(c for c in range(s.ambient) if c not in s.pivots)
    return free, tuple(tuple(row[c] for c in free) for row in s.basis())


def _assert_canonical_entries(field, vec):
    if field == QQ:
        assert all(type(x) is Fraction for x in vec)
    else:
        assert all(type(x) is int and 0 <= x < field.p for x in vec)


@pytest.mark.parametrize("field", RESIDUE_FIELDS, ids=repr)
def test_free_column_residue_equals_the_full_row_route(field):
    """`_reduce` computes the residue on the free columns only; it must be
    the full-row residue v - sum coords[i] * row[i] cut to them, which is
    zero at every pivot."""
    rnd = random.Random(61)
    n = 20
    for dim in (0, 1, 10, 19, 20):
        s = _random_subspace(field, rnd, n, dim)
        rows, free = s.basis(), [c for c in range(n) if c not in s.pivots]
        inside = [field.lincomb([field.of(rnd.randint(-9, 9)) for _ in rows], rows) for _ in range(3)] if rows else []
        outside = [[field.of(rnd.randint(-9, 9)) for _ in range(n)] for _ in range(3)] if dim < n else []
        for v in [*inside, *outside, [field.zero] * n]:
            coords = [v[pc] for pc in s.pivots]
            want = field.lincomb([1, *(-c for c in coords)], [v, *rows])
            got_coords, got = s._reduce(v)
            assert got_coords == coords
            assert all(want[pc] == 0 for pc in s.pivots)
            assert list(got) == [want[c] for c in free]
            _assert_canonical_entries(field, got)
            assert s.contains(v) == (not any(want))
            if any(want):
                with pytest.raises(ValueError):
                    s.coords_of(v)
            else:
                assert s.coords_of(v) == tuple(coords)
        assert all(s.contains(v) for v in inside)


@pytest.mark.parametrize("field", (GF(10007), QQ), ids=repr)
def test_with_vector_equals_the_join_with_its_span(field):
    """`with_vector` and the join insert their canonical rows through one
    `_insert`: S.with_vector(v) is S.join(span(v)), pivots included, and S
    itself when v lies in S."""
    rnd = random.Random(24)
    n = 9
    for dim in (0, 1, 4, 8, 9):
        s = _random_subspace(field, rnd, n, dim)
        coeffs = [field.of(rnd.randint(-9, 9)) for _ in s.basis()]
        inside = field.lincomb(coeffs, s.basis()) if dim else [field.zero] * n
        outside = [field.of(rnd.randint(-9, 9)) for _ in range(n)]
        for v in (inside, outside):
            got = s.with_vector(v)
            want = s.join(Subspace.from_spanning(field, n, [v]))
            assert got == want and got.pivots == want.pivots
            assert (got is s) == s.contains(v)
        assert s.with_vector(inside) is s


@pytest.mark.parametrize("field", (GF(7), F101, QQ), ids=repr)
def test_cached_block_equals_a_fresh_recomputation(field):
    """The free-column block is built from the rows and cached; it agrees
    with the rows on every kind of result, and equality and hashing ignore
    whether it was built."""
    rnd = random.Random(7)
    n = 8
    for _ in range(5):
        s, t = _random_subspace(field, rnd, n, rnd.randint(0, n)), _random_subspace(field, rnd, n, rnd.randint(0, n))
        vec = [field.of(rnd.randint(-9, 9)) for _ in range(n)]
        part = slice(rnd.randint(0, s.dim), None)
        results = [
            Subspace(field, n, s.basis()[part], s.pivots[part]),
            s.with_vector(vec),
            s.meet(t),
            s.join(t),
            t.meet(s),
        ]
        for r in results:
            fresh = Subspace.from_spanning(field, n, r.basis())
            assert r == fresh and hash(r) == hash(fresh) and r.pivots == fresh.pivots
            assert r._free_block() == _fresh_block(r)
            assert r == fresh and hash(r) == hash(fresh)
        assert s._free_block() == _fresh_block(s) and t._free_block() == _fresh_block(t)


@pytest.mark.parametrize("field", (GF(10007), QQ), ids=repr)
def test_canonical_basis_slices_equal_from_spanning(field):
    """A slice of a canonical basis, with the matching pivots, already is the
    canonical RREF of its span, as the suites build hyperplanes of a
    Lagrangian."""
    from epwcalc.exterior import SymplecticSpace
    from epwcalc.suites import _basis_slice

    rnd = random.Random(3)
    lag = SymplecticSpace(field).random_lagrangian(rnd)
    s = _random_subspace(field, rnd, 12, 6)
    for base in (lag, s):
        for part in (slice(9), slice(1, None), slice(2, 5), slice(0, 0)):
            got = _basis_slice(base, part)
            want = Subspace.from_spanning(field, base.ambient, base.basis()[part])
            assert got == want and got.pivots == want.pivots


def test_fp_rref_shape():
    rank, pivots, red = fpkernel.fp_rref([1, 2, 2, 4], 2, 2, 7)
    assert rank == 1 and pivots == [0]
    assert red == [1, 2, 0, 0]


def _leibniz_det(rows):
    """Sum over permutations of the signed products of entries."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _fraction_rank_det(rows):
    """(rank, determinant when square) by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    det = Fraction(1)
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][col]
        for i in range(r + 1, nrows):
            f = m[i][col] / m[r][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r, (det if r == nrows == ncols else Fraction(0))


def _kernel_cases(rng, p, nrows, ncols):
    """A random matrix and its edge variants, as lists of int rows in [0, p)."""
    full = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    repeated = [list(r) for r in full]
    if nrows > 1:
        repeated[-1] = list(repeated[0])
    zero_col = [[0 if c == ncols // 2 else x for c, x in enumerate(r)] for r in full]
    zero_first_col = [[0] + r[1:] for r in full]
    # a zero top-left entry above nonzero ones: column 0 pivots after a swap
    swap = [list(r) for r in full]
    swap[0][0] = 0
    for r in swap[1:]:
        r[0] = r[0] or 1
    zero = [[0] * ncols for _ in range(nrows)]
    return [full, repeated, zero_col, zero_first_col, swap, zero]


KERNEL_SHAPES = [(n, n) for n in range(1, 11)] + [(25, 20), (4, 16)]


@pytest.mark.parametrize("p", [17, 10007, 2**61 - 1], ids=["17", "10007", "2^61-1"])
def test_fp_det_equals_the_reference(p):
    rng = random.Random(p)
    for n in range(1, 11):
        for rows in _kernel_cases(rng, p, n, n):
            want = _leibniz_det(rows) if n <= 6 else _fraction_rank_det(rows)[1]
            flat = [x for r in rows for x in r]
            assert fpkernel.fp_det(flat, n, p) == int(want) % p, (n, rows)


@pytest.mark.parametrize("p", [17, 10007, 2**61 - 1], ids=["17", "10007", "2^61-1"])
def test_fp_rank_equals_the_rref_rank(p):
    rng = random.Random(p + 1)
    for nrows, ncols in KERNEL_SHAPES:
        for rows in _kernel_cases(rng, p, nrows, ncols):
            flat = [x for r in rows for x in r]
            rank = fpkernel.fp_rank(flat, nrows, ncols, p)
            assert rank == fpkernel.fp_rref(flat, nrows, ncols, p)[0], (nrows, ncols, rows)
            if nrows == ncols:
                assert (fpkernel.fp_det(flat, nrows, p) != 0) == (rank == nrows)


# the four primes of the packed kernels' tests: two small, 2^61 - 1 and the
# largest prime the CLI accepts
PACKED_PRIMES = [17, 10007, 2**61 - 1, 3317044064679887385961813]
PACKED_IDS = ["17", "10007", "2^61-1", "largest"]


def _forward_det_reference(a, n, p):
    """The determinant by the flat-list forward elimination that ran every
    F_p determinant before the packed kernel: the product of the pivots,
    negated at each row swap."""
    m = [x % p for x in a]
    d = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i * n + col]), -1)
        if piv < 0:
            return 0
        if piv != col:
            d = p - d
            for c in range(col, n):
                m[col * n + c], m[piv * n + c] = m[piv * n + c], m[col * n + c]
        base = col * n
        d = d * m[base + col] % p
        inv = pow(m[base + col], -1, p)
        for i in range(col + 1, n):
            f = m[i * n + col] * inv % p
            for c in range(col, n):
                m[i * n + c] = (m[i * n + c] - f * m[base + c]) % p
    return d % p


@pytest.mark.parametrize("p", PACKED_PRIMES, ids=PACKED_IDS)
def test_packed_det_equals_the_forward_reference(p):
    """fp_det, which packs its rows for `packed_det`, equals the flat-list
    elimination on dense, sparse and singular matrices, a zero column, row
    swaps and unreduced or negative entries, for n = 1..10; `packed_det`
    alone takes rows with every entry as large as p^2 - 1."""
    rng = random.Random(p + 3)
    for n in range(1, 11):
        for rows in _kernel_cases(rng, p, n, n):
            sparse = [[x if rng.random() < 0.3 else 0 for x in r] for r in rows]
            unreduced = [[x + p * rng.randrange(-3, 4) for x in r] for r in rows]
            negative = [[-x for x in r] for r in rows]
            for case in (rows, sparse, unreduced, negative):
                flat = [x for r in case for x in r]
                assert fpkernel.fp_det(flat, n, p) == _forward_det_reference(flat, n, p), (n, case)
            slots = fpkernel.det_slots(p, n)
            high = [[x + p * (p - 1) for x in r] for r in rows]
            packed = [slots.pack(r) for r in high]
            flat = [x for r in high for x in r]
            assert fpkernel.packed_det(packed, slots) == _forward_det_reference(flat, n, p), (n, high)
    assert fpkernel.fp_det([], 0, p) == 1


@pytest.mark.parametrize("p", PACKED_PRIMES, ids=PACKED_IDS)
def test_a_slot_holding_its_bound_reduces_exactly(p):
    """Barrett's estimate is exact up to the slot bound: slots holding top,
    top - 1, ... and 0 reduce to their residues, for the determinant's
    slots, a whole 10 x 10 matrix, and the root finder's."""
    for n, top in [(100, p * p + 9 * (p - 1) ** 2), (6, 13 * (p - 1) ** 2), (1, (p - 1) ** 2)]:
        slots = fpkernel._Slots(p, n, top)
        values = [top - k for k in range(n - 1)] + [0]
        got = slots.reduce(slots.pack(values))
        assert [(got >> (slots.width * k)) & ((1 << slots.width) - 1) for k in range(n)] == [v % p for v in values]
    assert fpkernel.det_slots(p, 10).__dict__ == fpkernel._Slots(p, 100, p * p + 9 * (p - 1) ** 2).__dict__


def _pow_linear_reference(a, e, m, p):
    """(x + a)^e mod the monic m by square-and-multiply on coefficient
    lists, the loop the packed one replaced."""
    acc = [1]
    for bit in bin(e)[2:]:
        sq = [0] * (2 * len(acc) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(acc):
                sq[i + j] += x * y
        acc = _divmod_monic(sq, m, p)[1]
        if bit == "1" and acc:
            acc = _divmod_monic([a * c + b for c, b in zip(acc + [0], [0] + acc)], m, p)[1]
    return acc


@pytest.mark.parametrize("p", PACKED_PRIMES, ids=PACKED_IDS)
def test_pow_linear_mod_equals_the_coefficient_loop(p):
    """The packed square-and-multiply equals the coefficient loop for monic
    moduli of degree 1..6, random and with zero or p - 1 coefficients, at
    e = p and (p - 1)/2, the exponents of `smallest_root`."""
    rng = random.Random(p + 4)
    for d in range(1, 7):
        moduli = [[rng.randrange(p) for _ in range(d)] + [1] for _ in range(4)]
        moduli += [[0] * d + [1], [p - 1] * d + [1]]
        for m in moduli:
            for a in (0, 1, rng.randrange(p)):
                for e in (p, (p - 1) // 2):
                    assert _pow_linear_mod(a, e, m, p) == _pow_linear_reference(a, e, m, p), (d, m, a, e)


def _gauss_jordan_reference(a, nrows, ncols, p):
    """fp_rref's contract by one Gauss-Jordan pass: each pivot row is scaled
    to 1 and cleared from every other row as soon as it is found."""
    m = [x % p for x in a]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i * ncols + col]), -1)
        if piv < 0:
            continue
        if piv != r:
            for c in range(ncols):
                m[r * ncols + c], m[piv * ncols + c] = m[piv * ncols + c], m[r * ncols + c]
        base = r * ncols
        inv = pow(m[base + col], -1, p)
        for c in range(col, ncols):
            m[base + c] = m[base + c] * inv % p
        for i in range(nrows):
            f = m[i * ncols + col]
            if i != r and f:
                row = i * ncols
                for c in range(col, ncols):
                    m[row + c] = (m[row + c] - f * m[base + c]) % p
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


RREF_SHAPES = KERNEL_SHAPES + [(1, 1), (3, 12), (12, 3), (1, 7), (7, 1)]


@pytest.mark.parametrize("p", [17, 10007, 2**61 - 1], ids=["17", "10007", "2^61-1"])
def test_fp_rref_equals_the_gauss_jordan_reference(p):
    """fp_rref is the forward pass plus back-substitution; it must give the
    Gauss-Jordan result exactly, on square, wide and tall shapes, rank
    deficient ones, ones with a zero row, unreduced entries and no rows."""
    rng = random.Random(p + 2)
    for nrows, ncols in RREF_SHAPES:
        for rows in _kernel_cases(rng, p, nrows, ncols):
            zero_row = [list(r) for r in rows]
            zero_row[nrows // 2] = [0] * ncols
            unreduced = [[x - p * rng.randrange(-2, 3) for x in r] for r in rows]
            for case in (rows, zero_row, unreduced):
                flat = [x for r in case for x in r]
                want = _gauss_jordan_reference(flat, nrows, ncols, p)
                assert fpkernel.fp_rref(flat, nrows, ncols, p) == want, (nrows, ncols, case)
    for ncols in (0, 1, 5):
        assert fpkernel.fp_rref([], 0, ncols, p) == _gauss_jordan_reference([], 0, ncols, p) == (0, [], [])


def test_qq_det_and_rank_equal_the_fraction_reference():
    rng = random.Random(15)
    draws = (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    for draw in draws:
        for nrows, ncols in [(n, n) for n in range(1, 8)] + [(3, 5), (6, 4), (2, 7)]:
            full = [[draw() for _ in range(ncols)] for _ in range(nrows)]
            cases = [full, [[0] * ncols for _ in range(nrows)]]
            if nrows > 1:
                cases.append([*full[:-1], full[0]])
                cases.append([[0] + r[1:] for r in full])
                # a zero top-left entry above a nonzero one: a row swap
                cases.append([[0] + full[0][1:], [full[1][0] or 1] + full[1][1:], *full[2:]])
            if nrows > 2:
                # the last row a combination of the first two
                cases.append([*full[:-1], [2 * x - y for x, y in zip(full[0], full[1])]])
            for rows in cases:
                m = Matrix(QQ, rows)
                rank, det = _fraction_rank_det(rows)
                assert m.rank() == len(m.rref()[1]) == rank, rows
                if nrows == ncols:
                    assert m.det() == det, rows


def _fraction_rref(rows):
    """(reduced rows, pivot columns) by Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        a = m[r][col]
        m[r] = [x / a for x in m[r]]
        for i in range(nrows):
            f = m[i][col]
            if i != r and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return tuple(map(tuple, m)), tuple(pivots)


def test_qq_rref_equals_the_fraction_gauss_jordan_reference():
    rng = random.Random(16)
    draws = (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    for draw in draws:
        for nrows, ncols in [(n, n) for n in range(1, 8)] + [(3, 5), (2, 7), (6, 4), (7, 3)]:
            full = [[draw() for _ in range(ncols)] for _ in range(nrows)]
            cases = [full, [[0] * ncols for _ in range(nrows)]]
            if nrows > 1:
                cases.append([*full[:-1], full[0]])
                cases.append([[0] + r[1:] for r in full])
                # a zero row between two others
                cases.append([full[0], [0] * ncols, *full[2:]])
            if nrows > 2:
                # the last row a combination of the first two
                cases.append([*full[:-1], [2 * x - y for x, y in zip(full[0], full[1])]])
            for rows in cases:
                red, pivots = Matrix(QQ, rows).rref()
                assert (red.rows, pivots) == _fraction_rref(rows), rows
                assert all(type(x) is Fraction for r in red.rows for x in r)


def test_interpolation_examples():
    pts = [(t, t * t) for t in range(5)]
    assert interpolate_univariate(QQ, pts, 2) == [0, 0, 1]
    const = interpolate_univariate(QQ, [(0, 5), (1, 5), (2, 5)], 0)
    assert const == [5]
    assert poly_degree(QQ, [5]) == 0
    assert poly_degree(QQ, [0]) == -1


def test_interpolation_errors():
    with pytest.raises(InterpolationError):
        interpolate_univariate(QQ, [(1, 1), (1, 2), (2, 3)], 1)
    with pytest.raises(InterpolationError):
        interpolate_univariate(QQ, [(t, t**3) for t in range(6)], 2)
    with pytest.raises(InterpolationError):
        interpolate_univariate(QQ, [(0, 1), (1, 2)], 2)


def test_interpolation_over_fp_and_eval():
    F = GF(10007)
    coeffs = interpolate_univariate(F, [(t, (3 * t**4 + 5) % 10007) for t in range(7)], 4)
    assert coeffs == [5, 0, 0, 0, 3]
    assert poly_eval(F, coeffs, 11) == (3 * 11**4 + 5) % 10007


def _cofactor_adjugate(field, rows):
    """adj(M)[j][i] = (-1)^(i+j) det(M without row i and column j), each
    minor by the Leibniz sum."""
    n = len(rows)
    adj = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(rows) if r != i]
            adj[j][i] = field.of((-1) ** (i + j) * _leibniz_det(minor))
    return adj


def _matrix_of_rank(field, rnd, n, rank):
    """A random n x n Matrix of exactly this rank: an n x rank times a
    rank x n factor, redrawn until the product has full rank `rank`."""

    def draw(nrows, ncols):
        return [[field.of(Fraction(rnd.randint(-9, 9), rnd.randint(1, 3))) for _ in range(ncols)] for _ in range(nrows)]

    while True:
        left, right = draw(n, rank), draw(rank, n)
        rows = [[field.dot(row, col) for col in zip(*right)] if rank else [field.zero] * n for row in left]
        m = Matrix(field, rows)
        if m.rank() == rank:
            return m


@pytest.mark.parametrize("field", [GF(17), GF(10007), QQ], ids=repr)
def test_adjugate_equals_the_cofactor_expansion(field):
    """At ranks n, n - 1 and n - 2 for n = 1..5, each entry adj_ij read off
    `adjugate_traces` as tr(adj M . E_ji) equals the cofactor expansion,
    holds an element of the field, and M adj M = det M I."""
    rnd = random.Random(f"adjugate-{field!r}")
    for n in range(1, 6):
        # E_ji for i, j row-major: 1 at row j, column i
        units = [[field.zero] * (n * n) for _ in range(n * n)]
        for i, j in itertools.product(range(n), repeat=2):
            units[i * n + j][j * n + i] = field.one
        for rank in range(max(n - 2, 0), n + 1):
            for _ in range(3):
                m = _matrix_of_rank(field, rnd, n, rank)
                traces = adjugate_traces(m, units)
                adj = [list(traces[i * n : i * n + n]) for i in range(n)]
                assert adj == _cofactor_adjugate(field, m.rows), (n, rank, m.rows)
                assert all(type(x) is type(field.zero) for x in traces)
                d = m.det()
                product = [[field.dot(row, col) for col in zip(*adj)] for row in m.rows]
                assert product == [[d if i == j else field.zero for j in range(n)] for i in range(n)]
    with pytest.raises(ShapeError):
        adjugate_traces(Matrix(field, [[field.one, field.zero]]), [])


def test_matrix_immutable_and_hashable():
    """A Matrix cannot be reassigned, hashes (by identity, as it compares),
    and holds its rows as tuples of the entries it was given."""
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    m = Matrix(QQ, rows)
    with pytest.raises(AttributeError):
        m.rows = ()
    assert isinstance(hash(m), int)
    assert m.rows == ((1, 2), (3, 4)) and all(a is b for r, t in zip(rows, m.rows) for a, b in zip(r, t))


def _scan_smallest_root(coeffs, p):
    """The smallest root by Horner at t = 0..p-1: the point search's scan
    before it found roots by gcd(f, x^p - x); 0 for the zero polynomial."""
    if not any(c % p for c in coeffs):
        return 0
    high_first = coeffs[::-1]
    for t in range(p):
        acc = 0
        for c in high_first:
            acc = (acc * t + c) % p
        if acc == 0:
            return t
    return None


def _from_roots(lead, roots, p):
    """Coefficients (constant first) of lead * prod (x - r) mod p."""
    f = [lead % p]
    for r in roots:
        f = [(a - r * b) % p for a, b in zip([0, *f], [*f, 0])]
    return f


@pytest.mark.parametrize("p", [17, 101, 10007])
def test_smallest_root_equals_the_scan(p):
    rnd = random.Random(p)
    polys = [[], [0, 0, 0], [5], [p - 1, 0, 0], [0, 0, 0, 0, 0, 0, 3]]
    for _ in range(60):  # random, degree 0..6, some with zero leading slots
        polys.append([rnd.randrange(p) for _ in range(rnd.randint(1, 7))] + [0] * rnd.randint(0, 1))
    for _ in range(60):  # products of linear factors with repeated roots
        pool = [rnd.randrange(p) for _ in range(3)]
        polys.append(_from_roots(rnd.randrange(1, p), [rnd.choice(pool) for _ in range(rnd.randint(1, 6))], p))
    nonresidue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    for _ in range(20):  # root-free: (x - r)^2 - n, times a second such quadratic
        r, s = rnd.randrange(p), rnd.randrange(p)
        quad1 = [(r * r - nonresidue) % p, -2 * r % p, 1]
        quad2 = [(s * s - nonresidue) % p, -2 * s % p, 1]
        prod = [0] * 5
        for i, a in enumerate(quad1):
            for j, b in enumerate(quad2):
                prod[i + j] = (prod[i + j] + a * b) % p
        polys += [quad1, prod]
    for f in polys:
        assert smallest_root(f, p) == _scan_smallest_root(f, p), f
    assert smallest_root([0], p) == 0
    assert smallest_root([3], p) is None
    assert smallest_root([p - nonresidue, 0, 1], p) is None


def test_smallest_root_at_a_61_bit_prime():
    p = (1 << 61) - 1
    rnd = random.Random(61)
    for k in range(1, 7):
        for _ in range(5):
            roots = [rnd.randrange(p) for _ in range(k)]
            if k > 2:
                roots[-1] = roots[0]  # a repeated root
            f = _from_roots(rnd.randrange(1, p), roots, p)
            assert smallest_root(f, p) == min(roots)
            if k <= 4:  # times x^2 + 1, root-free since p = 3 mod 4
                g = [0] * (len(f) + 2)
                for i, c in enumerate(f):
                    g[i] = (g[i] + c) % p
                    g[i + 2] = (g[i + 2] + c) % p
                assert smallest_root(g, p) == min(roots)
