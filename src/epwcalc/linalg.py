"""Dense exact linear algebra: matrices, canonical subspaces, interpolation
and roots of univariate polynomials over F_p.

Entries are trusted. Every Matrix, Subspace, vector and sample handed to
this module holds elements of its field: reduced ints in [0, p) over F_p,
Fractions (or ints, the integer rationals) over Q. Nothing here coerces
them; raw numbers are made canonical once, where they enter the program
(`ExteriorVector`, the point and line arguments of `epw` and `quadrics`,
`LagrangianPencil.member`).

Over Q, rank, determinant and rref share one fraction-free (Bareiss)
forward pass, `_bareiss`, which controls entry growth; rref then
back-substitutes from the last pivot up. Over F_p rank and rref run
through the one forward elimination in `fpkernel`, and the determinant
through its packed-row elimination. Those eliminations are the only code
here that branches on the field; every vector combination, reduction and
product goes through the field's `lincomb`, `axpy` and `dot`.
Subspaces are stored in reduced row echelon form, which makes subspace equality syntactic. A canonical row is 1 at its
own pivot and 0 at every other pivot, so the pivot columns are read, not
computed: reductions run on the k x (n - k) free-column block of a
k-dimensional subspace, and a residue is computed on the free columns
only. Each subspace operation reads its canonical form off the one
elimination it needs: a kernel off the rref of the matrix with its columns
reversed, a meet off the kernel of the residues modulo the other side's
canonical basis, a join off their rref. A join and `with_vector` share one
insert of canonical rows into a canonical basis, `Subspace._insert`. The
traces of the adjugate of a square matrix against other matrices are read
off one rref of [M | I] (`adjugate_traces`).
The univariate polynomial helpers sit together at the end: interpolation,
evaluation and degree over either field, and `smallest_root`, a
gcd-and-split root finder over F_p that takes no pass over the field; its
modular powers run on packed coefficients (`_pow_linear_mod`).
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd

from .fpkernel import _Slots, fp_det, fp_rank, fp_rref
from .scalars import PrimeField, _numerators, same_field


class ShapeError(ValueError):
    pass


def _bareiss(m):
    """Fraction-free forward elimination on the integer rows m, in place:
    (rank, sign of the row swaps, last pivot). For a square m of full rank
    the last pivot times the sign is the determinant."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    prev = 1
    sign = 1
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), -1)
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for c in range(col + 1, ncols):
                m[i][c] = (m[r][col] * m[i][c] - m[i][col] * m[r][c]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return r, sign, prev


def _integerize(rows):
    """Scale each row of Fractions to coprime integers (rank-preserving)."""
    out = []
    for row in rows:
        ints = _numerators(row)[1]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


class Matrix:
    """Immutable row-major matrix over a fixed field, its rows stored as
    tuples of the given entries. Matrices compare by identity; their `rows`
    compare by value."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(map(tuple, rows))
        if rows:
            if ncols is None:
                ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ShapeError(f"rows are not all of width {ncols}")
        elif ncols is None:
            raise ShapeError("empty matrix needs an explicit column count")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)), self.nrows)

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        F = self.field
        if isinstance(F, PrimeField):
            flat = [x for r in self.rows for x in r]
            return fp_rank(flat, self.nrows, self.ncols, F.p)
        return _bareiss(_integerize(self.rows))[0]

    def det(self):
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a non-square matrix")
        F = self.field
        n = self.nrows
        if n == 0:
            return F.one
        if isinstance(F, PrimeField):
            flat = [x for r in self.rows for x in r]
            return fp_det(flat, n, F.p)
        # Bareiss over the integers, tracking the row scalings
        scale = Fraction(1)
        rows = []
        for row in self.rows:
            mult, ints = _numerators(row)
            scale /= mult
            rows.append(ints)
        rank, sign, last = _bareiss(rows)
        return sign * scale * last if rank == n else F.zero

    def rref(self):
        """Return (canonical rref Matrix, pivot column tuple)."""
        F = self.field
        if self.nrows == 0:
            return self, ()
        if isinstance(F, PrimeField):
            flat = [x for r in self.rows for x in r]
            rank, pivots, red = fp_rref(flat, self.nrows, self.ncols, F.p)
            rows = [tuple(red[i * self.ncols : (i + 1) * self.ncols]) for i in range(self.nrows)]
            return Matrix(F, rows), tuple(pivots)
        # over Q: the Bareiss pass on integer-scaled rows (which keeps the row
        # space) leaves them in echelon form; from the last pivot up, each row
        # is scaled to 1 at its leading entry and cleared at the pivots below
        m = _integerize(self.rows)
        rank = _bareiss(m)[0]
        pivots = [next(c for c, x in enumerate(row) if x) for row in m[:rank]]
        red = []
        for k in range(rank - 1, -1, -1):
            row = F.lincomb([Fraction(1, m[k][pivots[k]])], [m[k]])
            for below, pc in zip(red, pivots[:k:-1]):
                if row[pc]:
                    row = F.axpy(row, -row[pc], below)
            red.append(row)
        red = red[::-1] + [(F.zero,) * self.ncols] * (self.nrows - rank)
        return Matrix(F, red), tuple(pivots)

    def kernel_basis(self) -> "Subspace":
        """Right kernel {x : M x = 0} as a canonical Subspace, from one rref
        of M with its columns reversed.

        A reduced row is zero left of its pivot, so the kernel vector of a
        column f with no pivot, 1 at f and -red[r][f] at each row r's pivot,
        is nonzero only at f and at pivot columns right of f in M: it leads
        at f and vanishes at the other pivotless columns. Sorted by f, these
        vectors already are the kernel's canonical RREF, pivoting there."""
        F, n = self.field, self.ncols
        red, rev_pivots = Matrix(F, [row[::-1] for row in self.rows], n).rref()
        free = [f for f in range(n) if n - 1 - f not in rev_pivots]
        basis = []
        for f in free:
            c = n - 1 - f
            vec = [F.zero] * n
            vec[f] = F.one
            for row, pc in zip(red.rows, rev_pivots[: bisect_left(rev_pivots, c)]):
                vec[n - 1 - pc] = F.neg(row[c])
            basis.append(tuple(vec))
        assert len(basis) + len(rev_pivots) == n, "rank-nullity violated"
        return Subspace(F, n, basis, free)


def adjugate_traces(m: Matrix, mats) -> tuple:
    """tr(adj M . N) for a square M and each N of mats, an n x n matrix as a
    flat row-major list. adj M, with M adj M = adj M M = det M I, is held
    only as its flat transpose, which each trace dots with N.

    One rref of [M | I] = [E M | E] gives the rank of M, a right kernel
    vector x from E M and, in the rows where E M vanishes, a left kernel
    vector y (or M^-1 = E at full rank):
    - at full rank, adj M = det M . M^-1, so the trace is det M . tr(E N);
    - at corank 1, adj M = c x y^T, where det(M + e_i e_j^T) = c x_j y_i by
      the matrix determinant lemma; i and j are taken where y_i = x_j = 1,
      and the trace is c y^T N x;
    - at corank >= 2 every (n-1) x (n-1) minor vanishes, so each trace is 0.
    """
    F, n = m.field, m.nrows
    if m.ncols != n:
        raise ShapeError("adjugate of a non-square matrix")
    zero, one = F.zero, F.one
    aug = [(*row, *(one if j == i else zero for j in range(n))) for i, row in enumerate(m.rows)]
    red, pivots = Matrix(F, aug).rref()
    rows = red.rows
    rank = bisect_left(pivots, n)
    if rank < n - 1:
        return (zero,) * len(mats)
    if rank == n:
        # entry (b, a) of the transpose is det M . E[a][b]
        adj_t = F.lincomb([m.det()], [[x for col in zip(*(row[n:] for row in rows)) for x in col]])
    else:
        # x from the free column j of E M, with x_j = 1; y is the right half
        # of the last row, whose leading entry y_i = 1 sits at its pivot
        j = next(c for c in range(n) if c not in pivots)
        i = pivots[-1] - n
        x = [zero] * n
        x[j] = one
        for row, pc in zip(rows, pivots[:-1]):
            x[pc] = F.neg(row[j])
        bumped = [list(row) for row in m.rows]
        bumped[i][j] = F.add(bumped[i][j], one)
        y = F.lincomb([Matrix(F, bumped).det()], [rows[-1][n:]])  # c y, as c x_j y_i = c
        # entry (b, a) of the transpose is c y_b x_a
        adj_t = [t for yb in y for t in F.lincomb([yb], [x])]
    return tuple(F.dot(adj_t, mat) for mat in mats)


class Subspace:
    """A linear subspace stored as its canonical RREF rows, a tuple, with
    their pivot columns; equality is syntactic.

    `Subspace(field, ambient, rows, pivots)` takes `rows` (tuples of field
    elements) as the canonical RREF basis with these pivot columns; nothing
    is checked or eliminated. Any subset of a canonical basis, with its
    pivots, is again the canonical basis of its span.

    A canonical row is 1 at its own pivot and 0 at every other pivot, so only
    the k x (n - k) block on the free columns has to be computed. Reductions,
    memberships, meets and joins work on that block, built once from the
    canonical rows on first use."""

    __slots__ = ("field", "ambient", "_rows", "pivots", "_free")

    def __init__(self, field, ambient, rows, pivots):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_free", None)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning(cls, field, ambient, vectors) -> "Subspace":
        """The span of `vectors`, rows of length `ambient`, by one rref."""
        red, pivots = Matrix(field, vectors, ncols=ambient).rref()
        return cls(field, ambient, red.rows[: len(pivots)], pivots)

    @classmethod
    def zero(cls, field, ambient) -> "Subspace":
        """The subspace of no rows."""
        return cls(field, ambient, (), ())

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self):
        return self._rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self._rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field!r})"

    def _free_block(self):
        """(free columns, the basis rows cut to them), cut from the canonical
        rows once and cached; the pivot columns need no storage."""
        if self._free is None:
            pivots = set(self.pivots)
            free = tuple([c for c in range(self.ambient) if c not in pivots])
            block = tuple([tuple([row[c] for c in free]) for row in self._rows])
            object.__setattr__(self, "_free", (free, block))
        return self._free

    def _reduce(self, vec):
        """(coords, residue) with vec = sum coords[i] * basis[i] + residue,
        the residue zero exactly when vec lies in self. Each RREF row vanishes
        at the other rows' pivots, so the coordinates are vec's pivot entries,
        and the residue vanishes at every pivot: it is given on the free
        columns only, k x (n - k) products on the free-column block."""
        if len(vec) != self.ambient:
            raise ShapeError("vector length mismatch")
        free, block = self._free_block()
        coords = [vec[pc] for pc in self.pivots]
        return coords, self.field.lincomb([1, *(-c for c in coords)], [[vec[c] for c in free], *block])

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec)[1])

    def with_vector(self, vec) -> "Subspace":
        """The span of self and vec by one RREF insert, with no elimination of
        the whole basis; self itself when vec already lies in it.

        The residue of vec has zeros in every pivot column, so its leading
        entry is a new pivot: normalised to one, the residue is a canonical
        row on the free columns, and `_insert` places it."""
        res = self._reduce(vec)[1]
        if not any(res):
            return self
        F = self.field
        i = next(i for i, x in enumerate(res) if x)
        return self._insert([F.lincomb([F.inv(res[i])], [res])], [i])

    def _insert(self, rows, pivots):
        """The span of self and `rows`, canonical RREF rows given on self's
        free columns, pivoting at the free columns indexed by `pivots`.

        Each new row is spread to the ambient columns, cleared from the rows
        that are nonzero at its pivot and placed by pivot order; it is zero at
        self's pivots and at the other new pivots, so the rows stay the
        canonical RREF of the span after every step."""
        F, n = self.field, self.ambient
        free = self._free_block()[0]
        out, out_pivots = list(self._rows), list(self.pivots)
        for row, pc in zip(rows, pivots):
            q = free[pc]
            v = [F.zero] * n
            for c, x in zip(free, row):
                v[c] = x
            v = tuple(v)
            out = [tuple(F.axpy(r, -r[q], v)) if r[q] else r for r in out]
            k = bisect_left(out_pivots, q)
            out.insert(k, v)
            out_pivots.insert(k, q)
        return Subspace(F, n, out, out_pivots)

    def coords_of(self, vec):
        """Coordinates w.r.t. the RREF basis; ValueError when vec is not in self."""
        coords, residue = self._reduce(vec)
        if any(residue):
            raise ValueError("vector not in subspace")
        return tuple(coords)

    def _residues(self, other):
        """self's free columns, and the residues of other's basis rows modulo
        self on them."""
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise ShapeError("ambient dimension mismatch")
        return self._free_block()[0], [tuple(self._reduce(t)[1]) for t in other._rows]

    def meet(self, other) -> "Subspace":
        """Intersection {c.T : c.R = 0}, T being other's k basis rows and R
        the k x w block of their residues modulo self; no join is built.

        The c are the kernel of R^T, one w x k elimination, and `kernel_basis`
        gives them in canonical RREF. T is in RREF too, so c.T is c itself at
        T's pivots and c times T's free-column block elsewhere; it has a 1 at
        the pivot of T picked out by c's pivot and vanishes at the pivots
        picked out by the other c: the c.T already are the meet's canonical
        RREF."""
        free, block = self._residues(other)
        F, n = self.field, self.ambient
        cs = Matrix(F, list(zip(*block)), other.dim).kernel_basis()
        tfree, tblock = other._free_block()
        rows = []
        for c in cs.basis():
            u = [F.zero] * n
            for pc, x in zip(other.pivots, c):
                u[pc] = x
            for fc, x in zip(tfree, F.lincomb(c, tblock)):
                u[fc] = x
            rows.append(tuple(u))
        meet = Subspace(F, n, rows, [other.pivots[pc] for pc in cs.pivots])
        assert other.dim - meet.dim <= len(free), "rank R + dim meet = dim T, rank R <= w"
        return meet

    def join(self, other) -> "Subspace":
        return self._zassenhaus(other)

    def _zassenhaus(self, other):
        """The join of self and other, from the residues of other's basis
        modulo self. The name stays from the Zassenhaus block elimination
        this replaced, because `perfbench/spans.py` patches it by that name.

        Only the k x w block of residues on self's free columns is
        eliminated; its canonical rows pivot at free columns, and `_insert`
        places them among self's rows."""
        free, block = self._residues(other)
        red, pivots = Matrix(self.field, block, len(free)).rref()
        if not pivots:
            return self
        join = self._insert(red.rows[: len(pivots)], pivots)
        assert join.dim == self.dim + len(pivots), "dim S + rank R != dim join"
        return join


class InterpolationError(ValueError):
    pass


def interpolate_univariate(field, samples, degree_bound):
    """Coefficients (constant first) of the unique polynomial of degree
    <= degree_bound through the samples.

    Needs at least degree_bound+1 samples with distinct abscissae; any extra
    samples must be consistent with the bound or InterpolationError is raised.
    """
    F = field
    pts = list(samples)
    if len({t for t, _ in pts}) != len(pts):
        raise InterpolationError("duplicate abscissae")
    d = degree_bound
    if len(pts) < d + 1:
        raise InterpolationError(f"need at least {d + 1} samples, got {len(pts)}")
    head = pts[: d + 1]
    # Newton divided differences on the first d+1 points, each distinct
    # abscissa difference inverted once
    xs = [t for t, _ in head]
    coef = [v for _, v in head]
    inverses = {}
    for j in range(1, d + 1):
        for i in range(d, j - 1, -1):
            gap = F.sub(xs[i], xs[i - j])
            if gap not in inverses:
                inverses[gap] = F.inv(gap)
            coef[i] = F.mul(F.sub(coef[i], coef[i - 1]), inverses[gap])
    # expand the Newton form into monomial coefficients
    poly = [F.zero] * (d + 1)
    poly[0] = coef[d]
    for j in range(d - 1, -1, -1):
        # poly <- poly * (x - xs[j]) + coef[j]
        shifted = [F.zero] + poly[:-1]
        poly = [F.sub(s, F.mul(xs[j], c)) for s, c in zip(shifted, poly)]
        poly[0] = F.add(poly[0], coef[j])
    for t, v in pts[d + 1 :]:
        if not F.is_zero(F.sub(poly_eval(F, poly, t), v)):
            raise InterpolationError(f"samples inconsistent with degree <= {d}")
    return poly


def poly_eval(field, coeffs, t):
    acc = field.zero
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, t), c)
    return acc


def poly_degree(field, coeffs) -> int:
    """Degree of the coefficient list; -1 for the zero polynomial."""
    for i in range(len(coeffs) - 1, -1, -1):
        if not field.is_zero(coeffs[i]):
            return i
    return -1


# -- roots over F_p: plain int lists, constant coefficient first, in [0, p) --


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _monic(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _divmod_monic(f, m, p):
    """(quotient, trimmed remainder) of f by the monic m; f may be unreduced."""
    r = list(f)
    dm = len(m) - 1
    q = [0] * max(len(r) - dm, 0)
    for k in range(len(r) - 1 - dm, -1, -1):
        c = r[k + dm] % p
        q[k] = c
        if c:
            for i in range(dm):
                r[k + i] -= c * m[i]
    return q, _trim([x % p for x in r[:dm]])


def _gcd_monic(f, g, p):
    """The monic gcd of f and g (f nonzero)."""
    while g:
        f, g = g, _divmod_monic(f, _monic(g, p), p)[1]
    return _monic(f, p)


def _pow_linear_mod(a, e, m, p):
    """(x + a)^e mod the monic m of degree d by square-and-multiply, on the
    coefficients packed one per slot of a `_Slots` (Kronecker substitution;
    von zur Gathen-Gerhard, Modern Computer Algebra, 8.4). A square is one
    big-int product; its coefficients of x^d..x^2d-2 are read mod p and fold
    back onto the low d slots through the packed rows of x^k mod m, and one
    Barrett step reduces every slot. Multiplying by the linear base is one
    shift and one scaled add, folded the same way. Before a Barrett step a
    slot holds at most 2d - 1 products of residues after a square and 3
    after a multiplication."""
    a %= p
    d = len(m) - 1
    slots = _Slots(p, d, (2 * d + 1) * (p - 1) ** 2)
    w = slots.width
    slot, body = (1 << w) - 1, (1 << (w * d)) - 1
    # folds[k] is x^(d + k) mod m packed, for k = 0..max(d - 2, 0)
    r = xd = [-c % p for c in m[:d]]
    folds = []
    for _ in range(max(d - 1, 1)):
        folds.append(slots.pack(r))
        r = [(c + r[-1] * x) % p for c, x in zip([0] + r[:-1], xd)]
    acc = 1
    for bit in bin(e)[2:]:
        sq = acc * acc
        acc = sq & body
        for k, fold in enumerate(folds[: d - 1]):
            acc += ((sq >> (w * (d + k))) & slot) % p * fold
        acc = slots.reduce(acc)
        if bit == "1":
            acc = (acc << w) + a * acc
            acc = slots.reduce((acc & body) + (acc >> (w * d)) * folds[0])
    return _trim([(acc >> (w * i)) & slot for i in range(d)])


def smallest_root(coeffs, p):
    """The smallest t in 0..p-1 with f(t) = 0 mod p, or None when f has no
    root in F_p; 0 for the zero polynomial, every t being a root.

    No pass over F_p: g = gcd(f, x^p - x) is the product of the distinct linear
    factors of f, found by square-and-multiply mod f, and g is split into
    them by gcd(g, (x + a)^((p-1)/2) - 1), which keeps the roots r with r + a
    a nonzero square (Cantor-Zassenhaus 1981; von zur Gathen-Gerhard,
    Modern Computer Algebra, ch. 14). That is O(d^2 log p) work per shift for
    a polynomial of degree d.

    The shifts are deterministic: a = 0, 1, 2, ... in turn, each factor going
    on from the shift after the one that split off its parent, so no random
    stream is drawn. A shift separates two roots r != s when exactly one of
    r + a, s + a is a nonzero square, which holds for at least (p - 1)/2 of
    the p shifts; the Weil bound on incomplete character sums caps a run of
    consecutive shifts that all fail for one pair at O(sqrt(p) log p), and a
    few shifts suffice in practice.
    """
    f = _trim([c % p for c in coeffs])
    if not f:
        return 0
    if len(f) == 1:
        return None
    f = _monic(f, p)
    w = _pow_linear_mod(0, p, f, p)  # x^p mod f
    w += [0] * (2 - len(w))
    w[1] = (w[1] - 1) % p
    g = _gcd_monic(f, _trim(w), p)
    roots = []
    todo = [(g, 0)]
    while todo:
        h, a = todo.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        elif len(h) > 2:
            while True:
                w = _pow_linear_mod(a, (p - 1) // 2, h, p) or [0]
                w[0] = (w[0] - 1) % p
                d = _gcd_monic(h, _trim(w), p)
                a += 1
                if 1 < len(d) < len(h):
                    todo += [(d, a), (_divmod_monic(h, d, p)[0], a)]
                    break
    return min(roots, default=None)
