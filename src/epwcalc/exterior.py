"""Based exterior algebra of a fixed 6-dimensional space.

Grade-k vectors carry coordinates indexed by the lexicographically sorted
k-subsets of {0..5}; the sign of e_S ^ e_T is the parity of the merge
permutation of the two sorted index sets. The coefficient of e_{012345}
defines the volume functional, and (a, b) -> vol(a ^ b) makes the
20-dimensional space of 3-vectors symplectic.
"""

from functools import cache
from itertools import combinations
from operator import mul

from .linalg import Matrix, ShapeError, Subspace, _integerize
from .scalars import PrimeField, same_field

N = 6
SUBSETS = {k: tuple(combinations(range(N), k)) for k in range(N + 1)}
POS = {k: {s: i for i, s in enumerate(SUBSETS[k])} for k in range(N + 1)}
DIM3 = len(SUBSETS[3])  # 20


def merge_sign(s, t):
    """Sign of sorting the concatenation s+t, or 0 if the sets overlap."""
    if set(s) & set(t):
        return 0
    inv = sum(1 for a in s for b in t if a > b)
    return -1 if inv & 1 else 1


@cache
def wedge_table(j, k):
    table = []
    for s in SUBSETS[j]:
        row = []
        for t in SUBSETS[k]:
            sg = merge_sign(s, t)
            if sg == 0:
                row.append(None)
            else:
                row.append((sg, POS[j + k][tuple(sorted(s + t))]))
        table.append(row)
    return table


# complement pairing on grade 3: index i pairs only with COMP3[i]
COMP3 = []
for s in SUBSETS[3]:
    t = tuple(sorted(set(range(N)) - set(s)))
    COMP3.append((POS[3][t], merge_sign(s, t)))


# chart c: frame pairs (i, j) with c not in {i, j}; each frame vector
# v ^ e_i ^ e_j has coordinate sign * v_s at the 3-subset {s, i, j}
@cache
def frame_struct(c):
    return [
        [(s, merge_sign((s,), (i, j)), POS[3][tuple(sorted((s, i, j)))]) for s in range(N) if s not in (i, j)]
        for i, j in SUBSETS[2]
        if c not in (i, j)
    ]


@cache
def frame_leads(c):
    """Per frame row of `frame_struct(c)`: (b, lead, pivot), b the index of
    its pair {i, j} among the 2-subsets and (lead, pivot) its chart entry,
    the coordinate lead * v_c at {c, i, j}."""
    pairs = [b for b, p in enumerate(SUBSETS[2]) if c not in p]
    return tuple((b, sg, pos) for b, entries in zip(pairs, frame_struct(c)) for s, sg, pos in entries if s == c)


def chart_for(field, vcoords) -> int:
    """The chart of v: the index of its first nonzero coordinate."""
    for c, x in enumerate(vcoords):
        if not field.is_zero(x):
            return c
    raise ValueError("zero vector has no chart")


def chart_vector(field, y, unit=None):
    """The 3-vector e_unit (none when unit is None) on L plus y placed in
    L': s_b y_b at j_b, with (j_b, s_b) = COMP3[b]."""
    row = [field.zero] * DIM3
    if unit is not None:
        row[unit] = field.one
    for b, (j, sg) in enumerate(COMP3[:10]):
        row[j] = y[b] if sg > 0 else field.neg(y[b])
    return tuple(row)


def graph_lagrangian(field, m) -> Subspace:
    """The graph of the 10x10 matrix m. The 10 triples that contain 0 come
    first and span the Lagrangian L = F_{e_0}; the other 10 span
    L' = wedge^3 <e_1..e_5>, and COMP3 pairs them. Row a is
    `chart_vector(m[a], a)`, so form(row_a, row_c) = m[c][a] - m[a][c]:
    the graph is Lagrangian exactly when m is symmetric. The rows are the
    canonical RREF with pivots 0..9."""
    rows = [chart_vector(field, m[a], a) for a in range(10)]
    return Subspace(field, DIM3, rows, range(10))


class GradeError(ValueError):
    pass


class ExteriorVector:
    """Homogeneous element of grade k with C(6, k) coordinates."""

    __slots__ = ("field", "grade", "coords")

    def __init__(self, field, grade, coords):
        coords = tuple(field.of(x) for x in coords)
        if not 0 <= grade <= N:
            raise GradeError(f"grade {grade} out of range")
        if len(coords) != len(SUBSETS[grade]):
            raise ShapeError(f"grade {grade} needs {len(SUBSETS[grade])} coordinates")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("ExteriorVector is immutable")

    @classmethod
    def basis(cls, field, *indices):
        """e_{i1} ^ ... ^ e_{ik} for strictly increasing indices."""
        k = len(indices)
        s = tuple(indices)
        if s != tuple(sorted(set(s))):
            raise ValueError("indices must be strictly increasing")
        coords = [field.zero] * len(SUBSETS[k])
        coords[POS[k][s]] = field.one
        return cls(field, k, coords)

    def is_zero(self):
        F = self.field
        return all(F.is_zero(c) for c in self.coords)

    def scale(self, c):
        F = self.field
        return ExteriorVector(F, self.grade, F.lincomb((F.of(c),), (self.coords,)))

    def wedge(self, other):
        same_field(self.field, other.field)
        j, k = self.grade, other.grade
        if j + k > N:
            raise GradeError(f"grade overflow: {j} + {k} > {N}")
        F = self.field
        out = [F.zero] * len(SUBSETS[j + k])
        table = wedge_table(j, k)
        for ia, a in enumerate(self.coords):
            if F.is_zero(a):
                continue
            row = table[ia]
            for ib, b in enumerate(other.coords):
                if F.is_zero(b):
                    continue
                hit = row[ib]
                if hit is None:
                    continue
                sg, pos = hit
                term = F.mul(a, b)
                out[pos] = F.add(out[pos], term if sg > 0 else F.neg(term))
        return ExteriorVector(F, j + k, out)

    __xor__ = wedge

    def __eq__(self, other):
        return (
            isinstance(other, ExteriorVector)
            and self.field == other.field
            and self.grade == other.grade
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.grade, self.coords))

    def __repr__(self):
        F = self.field
        terms = [
            f"{c}*e{''.join(map(str, s))}"
            for c, s in zip(self.coords, SUBSETS[self.grade])
            if not F.is_zero(c)
        ]
        return " + ".join(terms) if terms else "0"


def vol(x: ExteriorVector):
    """Coefficient of e_{012345}; defined on grade-6 elements."""
    if x.grade != N:
        raise GradeError("volume form needs a grade-6 element")
    return x.coords[0]


class SymplecticSpace:
    """The 20-dimensional symplectic space of 3-vectors over a fixed field.

    The form is (a, b) -> vol(a ^ b); its Gram matrix in the subset basis
    is the signed complement permutation, antisymmetric and invertible.
    """

    def __init__(self, field):
        self.field = field

    def form(self, a: ExteriorVector, b: ExteriorVector):
        if a.grade != 3 or b.grade != 3:
            raise GradeError("the symplectic form pairs grade-3 elements")
        same_field(self.field, a.field)
        same_field(a.field, b.field)
        return self.field.dot(a.coords, self.form_row(b.coords))

    def gram(self) -> Matrix:
        F = self.field
        rows = [[F.zero] * DIM3 for _ in range(DIM3)]
        for i, (j, sg) in enumerate(COMP3):
            rows[i][j] = F.one if sg > 0 else F.neg(F.one)
        return Matrix(F, rows)

    def form_row(self, coords):
        """Row c such that form(a, b) = sum_j a_j * c_j for b with coords."""
        return tuple([coords[j] if sg > 0 else self.field.neg(coords[j]) for j, sg in COMP3])

    # -- fibers -----------------------------------------------------------

    def fiber(self, v: ExteriorVector) -> Subspace:
        """The subspace v ^ (2-vectors): Lagrangian of dimension C(5,2) = 10,
        written down in canonical RREF with no elimination.

        On the chart c of v's first nonzero coordinate, the frame row
        v ^ e_i ^ e_j scaled by 1/(+-v_c) is 1 at {c, i, j}, its leading
        position (v_s = 0 for s < c, and swapping c for a larger s raises a
        sorted triple), and its other entries sit at triples without c,
        which are no row's pivot. Sorted by pivot, these rows are the RREF,
        so a vector g of the fiber is v ^ alpha with alpha the sum of
        lead * g[pivot] / v_c * e_i ^ e_j over `frame_leads(c)`."""
        if v.grade != 1:
            raise GradeError("fiber needs a grade-1 vector")
        F = self.field
        chart = chart_for(F, v.coords)
        w = F.lincomb([F.inv(v.coords[chart])], [v.coords])
        rows = []
        for (_, lead, pivot), entries in zip(frame_leads(chart), frame_struct(chart)):
            row = [F.zero] * DIM3
            for s, sg, pos in entries:
                row[pos] = w[s] if sg == lead else F.neg(w[s])
            rows.append((pivot, tuple(row)))
        rows.sort()
        return Subspace(F, DIM3, [r for _, r in rows], [pc for pc, _ in rows])

    # -- isotropy ---------------------------------------------------------

    def is_isotropic(self, s: Subspace) -> bool:
        """Whether the form vanishes on s, paired on integer rows: over QQ
        each basis row is scaled to integers, which keeps a pairing zero
        exactly when it was; over F_p the rows already are integers."""
        if s.ambient != DIM3:
            raise ShapeError("expected a subspace of the 3-vector space")
        F = self.field
        rows = s.basis() if isinstance(F, PrimeField) else _integerize(s.basis())
        # the form is alternating on 3-vectors, so only pairs i < j count
        for i, a in enumerate(rows):
            dual = self.form_row(a)
            if any(not F.is_zero(sum(map(mul, b, dual))) for b in rows[i + 1 :]):
                return False
        return True

    def is_lagrangian(self, s: Subspace) -> bool:
        return s.ambient == DIM3 and s.dim == 10 and self.is_isotropic(s)

    def perp(self, s: Subspace) -> Subspace:
        """Symplectic orthogonal {x : form(b, x) = 0 for all b in s}."""
        if s.ambient != DIM3:
            raise ShapeError("expected a subspace of the 3-vector space")
        out = Matrix(self.field, [self.form_row(r) for r in s.basis()], DIM3).kernel_basis()
        assert out.dim == DIM3 - s.dim
        return out

    def lagrangian_completion(self, s: Subspace, rng) -> Subspace:
        """A random Lagrangian containing the isotropic s: `graph_lagrangian`
        of a symmetric M, with no elimination and no retry.

        z lies in graph(M) exactly when x M = y, with x = z[0..9] and
        y_b = s_b z[j_b] = form_row(z)[b], (j_b, s_b) = COMP3[b]. A canonical
        row of s with pivot a has x 1 at a and 0 at the other pivots, so with
        F the non-pivot columns 0..9, it lies in graph(M) exactly when
        M[a][b] = y_b - sum_{f in F} x_f M[f][b]. M is drawn on F x F on and
        above the diagonal, row-major ((10 - k)(11 - k)/2 draws for
        dim s = k), and set by that rule for b in F, then for b a pivot;
        isotropy of s makes it symmetric. A seed that meets
        L' = wedge^3 <e_1..e_5> (a pivot >= 10) lies in no graph and raises
        ValueError; callers redraw it."""
        if not self.is_isotropic(s):
            raise ValueError("input subspace is not isotropic")
        if s.pivots and s.pivots[-1] >= 10:
            raise ValueError("input subspace meets wedge^3 <e_1..e_5>: no graph contains it")
        F = self.field
        pivots = s.pivots
        free = [c for c in range(10) if c not in pivots]
        m = [[None] * 10 for _ in range(10)]
        for i, a in enumerate(free):
            for b in free[i:]:
                m[a][b] = m[b][a] = F.random(rng)
        rows = [(a, self.form_row(r), [r[f] for f in free]) for a, r in zip(pivots, s.basis())]
        for b in free + list(pivots):
            col = [m[f][b] for f in free]
            for a, y, x in rows:
                m[a][b] = m[b][a] = F.sub(y[b], F.dot(x, col))
        return graph_lagrangian(F, m)

    def random_lagrangian(self, rng) -> Subspace:
        """`lagrangian_completion` of 0: `graph_lagrangian` of a random
        symmetric 10x10 matrix, drawn entry by entry on and above the
        diagonal, row-major (55 `random` calls). Every Lagrangian transverse
        to L' = wedge^3 <e_1..e_5> is such a graph, and a uniform Lagrangian
        misses this chart with probability about 1/p."""
        return self.lagrangian_completion(Subspace.zero(self.field, DIM3), rng)

    # -- decomposable forms -------------------------------------------------

    def decomposable_of(self, w: Subspace) -> ExteriorVector:
        """Wedge of a basis of a 3-dimensional subspace of the base space,
        canonicalized so its first nonzero coordinate is 1."""
        if w.ambient != N or w.dim != 3:
            raise ShapeError("need a 3-dimensional subspace of the base space")
        F = self.field
        rows = w.basis()
        out = ExteriorVector(F, 1, rows[0])
        for r in rows[1:]:
            out = out.wedge(ExteriorVector(F, 1, r))
        lead = next(c for c in out.coords if not F.is_zero(c))
        return out.scale(F.inv(lead))
