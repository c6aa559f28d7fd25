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
    certified_rank_full,
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


def test_rank_identity_and_zero():
    assert Matrix.identity(QQ, 3).rank() == 3
    assert Matrix.zero(QQ, 4, 7).rank() == 0
    assert Matrix.identity(F101, 3).rank() == 3
    assert Matrix.zero(F101, 4, 7).rank() == 0


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
    assert Matrix.identity(QQ, 4).kernel_basis().dim == 0
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
            Matrix.zero(field, 3, 4),
            Matrix.identity(field, 5),  # full rank, square
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
    assert Matrix(GF(7), [], ncols=3).kernel_basis() == Subspace.full(GF(7), 3)


def test_kernel_basis_replays_the_suite_calls(monkeypatch):
    from epwcalc.suites import SUITES, RunConfig

    calls = []
    route = Matrix.kernel_basis

    def recording(m):
        calls.append(m)
        return route(m)

    monkeypatch.setattr(Matrix, "kernel_basis", recording)
    for suite in ("incidence", "epw"):
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
    assert j.contains_subspace(s1) and j.contains_subspace(s2)
    assert s1.contains_subspace(m) and s2.contains_subspace(m)
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
        member = [sum((c * row[j] for c, row in zip(coeffs, s.basis())), field.zero) for j in range(5)]
        assert s.coords_of(member) == tuple(coeffs)
        assert s.coords_of(member) == tuple(field.of(member[pc]) for pc in s.pivots)
        if s.contains(vec):
            assert s.coords_of(vec) == tuple(field.of(vec[pc]) for pc in s.pivots)
        else:
            with pytest.raises(ValueError):
                s.coords_of(vec)


def test_coords_of_examples():
    for field in (QQ, F101):
        s = Subspace.from_spanning(field, 3, [[2, 4, 0], [0, 0, 3]])  # rref rows (1, 2, 0), (0, 0, 1)
        assert s.coords_of([3, 6, -5]) == (field.of(3), field.of(-5))
        with pytest.raises(ValueError):
            s.coords_of([0, 1, 0])


def test_meet_join_trivial_cases():
    s = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert s.meet(s) == s and s.join(s) == s
    t = Subspace.from_spanning(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert s.meet(t).dim == 0
    assert s.join(t) == Subspace.full(QQ, 4)
    for field in (QQ, F101):
        # a chain zero < part < full: the meet is the smaller, the join the larger
        chain = [
            Subspace.zero(field, 4),
            Subspace.from_spanning(field, 4, [[1, 2, 0, 3], [0, 0, 1, 5]]),
            Subspace.full(field, 4),
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
    block = [r + r for r in s.mat.rows] + [r + z for r in t.mat.rows]
    if not block:
        return Subspace.zero(F, n), Subspace.zero(F, n)
    red, pivots = Matrix(F, block).rref()
    k = bisect_left(pivots, n)
    return (
        Subspace.from_rref(F, n, [row[:n] for row in red.rows[:k]], pivots[:k]),
        Subspace.from_rref(F, n, [row[n:] for row in red.rows[k : len(pivots)]], [pc - n for pc in pivots[k:]]),
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
        cases = [Subspace.zero(field, 6), nested, part, complement, Subspace.full(field, 6)]
        for a in cases:
            for b in cases:
                _assert_zassenhaus_matches(a, b)
        assert part.meet(complement).dim == 0 and part.join(complement) == Subspace.full(field, 6)
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
    for suite in ("incidence", "epw"):
        SUITES[suite](RunConfig(seed=7, trials=10))
    monkeypatch.undo()
    shapes = set()
    for s, t in calls:
        _assert_zassenhaus_matches(s, t)
        shapes.add((s.dim, t.dim, s.meet(t).dim))
    assert {m for _, _, m in shapes} == {0, 1, 2, 9, 10}
    assert (10, 11, 2) in shapes and (9, 2, 1) in shapes


def test_full_is_the_canonical_identity():
    for field in (QQ, F101):
        for n in (1, 4, 20):
            full = Subspace.full(field, n)
            want = Subspace.from_spanning(field, n, Matrix.identity(field, n).rows)
            assert full == want and full.pivots == want.pivots == tuple(range(n))
            assert all(type(row) is tuple for row in full.basis())


def test_complementary_coordinate_subspaces_dim20():
    a = Subspace.from_spanning(QQ, 20, Matrix.identity(QQ, 20).rows[:9])
    b = Subspace.from_spanning(QQ, 20, Matrix.identity(QQ, 20).rows[9:])
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


def test_fp_rref_shape():
    rank, pivots, red = fpkernel.fp_rref([1, 2, 2, 4], 2, 2, 7)
    assert rank == 1 and pivots == [0]
    assert red == [1, 2, 0, 0]


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


def test_certified_rank_full():
    m = Matrix(QQ, [[1, 0, 2], [0, 1, 3]])
    assert certified_rank_full(m)
    n = Matrix(QQ, [[1, 2, 3], [2, 4, 6]])
    assert not certified_rank_full(n)


def test_matrix_immutable_and_hashable():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = ()
    assert isinstance(hash(m), int)


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
