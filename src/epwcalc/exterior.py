"""Based exterior algebra of a fixed 6-dimensional space.

Grade-k vectors carry coordinates indexed by the lexicographically sorted
k-subsets of {0..5}; the sign of e_S ^ e_T is the parity of the merge
permutation of the two sorted index sets. The coefficient of e_{012345}
defines the volume functional, and (a, b) -> vol(a ^ b) makes the
20-dimensional space of 3-vectors symplectic.
"""

from itertools import combinations

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


def _wedge_table(j, k):
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


_WEDGE = {}


def wedge_table(j, k):
    if (j, k) not in _WEDGE:
        _WEDGE[(j, k)] = _wedge_table(j, k)
    return _WEDGE[(j, k)]


# complement pairing on grade 3: index i pairs only with COMP3[i]
COMP3 = []
for s in SUBSETS[3]:
    t = tuple(sorted(set(range(N)) - set(s)))
    COMP3.append((POS[3][t], merge_sign(s, t)))


# chart c: frame pairs (i, j) with c not in {i, j}; each frame vector
# v ^ e_i ^ e_j has coordinate sign * v_s at the 3-subset {s, i, j}
_FRAME = {}


def frame_struct(c):
    if c not in _FRAME:
        pairs = [p for p in SUBSETS[2] if c not in p]
        struct = []
        for i, j in pairs:
            entries = []
            for s in range(N):
                if s in (i, j):
                    continue
                entries.append((s, merge_sign((s,), (i, j)), POS[3][tuple(sorted((s, i, j)))]))
            struct.append(entries)
        _FRAME[c] = struct
    return _FRAME[c]


def frame_rows(field, coords):
    """The frame vectors v ^ e_i ^ e_j on the chart c of the first nonzero
    coordinate of v, a basis of the fiber v ^ (2-vectors): each carries the
    lone coordinate +-v_c at {c, i, j}."""
    chart = next(c for c, x in enumerate(coords) if not field.is_zero(x))
    rows = []
    for entries in frame_struct(chart):
        row = [field.zero] * DIM3
        for s, sg, pos in entries:
            row[pos] = coords[s] if sg > 0 else field.neg(coords[s])
        rows.append(row)
    return rows


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

    @classmethod
    def zero(cls, field, grade):
        return cls(field, grade, [field.zero] * len(SUBSETS[grade]))

    def is_zero(self):
        F = self.field
        return all(F.is_zero(c) for c in self.coords)

    def add(self, other):
        same_field(self.field, other.field)
        if self.grade != other.grade:
            raise GradeError("grade mismatch in addition")
        F = self.field
        return ExteriorVector(F, self.grade, F.axpy(self.coords, 1, other.coords))

    def sub(self, other):
        return self.add(other.scale(self.field.neg(self.field.one)))

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
        F = self.field
        out = [F.zero] * DIM3
        for i, (j, sg) in enumerate(COMP3):
            out[i] = coords[j] if sg > 0 else F.neg(coords[j])
        return tuple(out)

    # -- fibers -----------------------------------------------------------

    def fiber(self, v: ExteriorVector) -> Subspace:
        """The subspace v ^ (2-vectors): Lagrangian of dimension C(5,2) = 10."""
        if v.grade != 1:
            raise GradeError("fiber needs a grade-1 vector")
        if v.is_zero():
            raise ValueError("fiber of the zero vector")
        s = Subspace.from_spanning(self.field, DIM3, frame_rows(self.field, v.coords))
        assert s.dim == 10
        return s

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
            dual = [a[j] if sg > 0 else -a[j] for j, sg in COMP3]
            if any(F.dot(b, dual) for b in rows[i + 1 :]):
                return False
        return True

    def is_lagrangian(self, s: Subspace) -> bool:
        return s.ambient == DIM3 and s.dim == 10 and self.is_isotropic(s)

    def perp(self, s: Subspace) -> Subspace:
        """Symplectic orthogonal {x : form(b, x) = 0 for all b in s}."""
        if s.ambient != DIM3:
            raise ShapeError("expected a subspace of the 3-vector space")
        F = self.field
        if s.dim == 0:
            return Subspace.full(F, DIM3)
        # form_row of a canonical row is a tuple of field elements: trusted
        rows = [self.form_row(r) for r in s.basis()]
        out = Matrix._reduced(F, rows, DIM3).kernel_basis()
        assert out.dim == DIM3 - s.dim
        return out

    def lagrangian_completion(self, s: Subspace, rng) -> Subspace:
        """A Lagrangian containing the isotropic s, grown by random vectors
        of perp(current) \\ current; any such vector keeps isotropy.

        Only perp(s) is eliminated. Each step then updates both canonical
        RREFs by rank one: the pool perp(current) is cut by the hyperplane
        form(·, cand) = 0, and cand is inserted into current. Canonical RREF
        is unique, so every pool, draw and result is the one that
        re-eliminating both at each step would give."""
        if not self.is_isotropic(s):
            raise ValueError("input subspace is not isotropic")
        F = self.field
        pool = list(self.perp(s).basis())
        current = s
        while current.dim < 10:
            for _ in range(64):
                cand = F.lincomb([F.random(rng) for _ in range(len(pool))], pool)
                grown = current.with_vector(cand)
                if grown.dim > current.dim:
                    break
            else:
                raise RuntimeError("failed to extend isotropic subspace")
            # cut the pool by form(·, cand) = 0: drop the last row j that
            # pairs to f_j != 0 with cand and clear it from the others; some
            # row pairs nonzero as cand is not in current = perp(pool)
            dual = self.form_row(cand)
            f = [F.dot(row, dual) for row in pool]
            j = max(i for i, x in enumerate(f) if x)
            top, inv = pool.pop(j), F.inv(f.pop(j))
            pool = [F.axpy(row, -F.mul(fi, inv), top) if fi else row for row, fi in zip(pool, f)]
            current = grown
        assert self.is_lagrangian(current)
        return current

    def random_lagrangian(self, rng) -> Subspace:
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
