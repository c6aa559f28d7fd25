"""F_p elimination kernels on row-major flat int lists and on packed rows.

Every rank and rref over a prime field runs through the one forward
Gaussian elimination of this module, `_forward`, which returns the rank,
the pivot columns and the echelon rows; `fp_rref` finishes the echelon rows
by back-substitution. Every determinant over a prime field runs through
`packed_det`, an elimination on rows held as packed integers, one int per
row and one slot per entry (`_Slots`); `fp_det` packs a flat matrix for it.
`_Slots` is the one slot arithmetic of the package: the field scan of
`quadrics`, the EPW pencil and the root finder of `linalg` pack into it too.
Python ints are exact at any p, so the kernels are correct for every prime
the package accepts.
"""


def _inv(a, p):
    return pow(a, -1, p)


class _Slots:
    """n slots of whole bytes in one int, slot k at byte k * nbytes, each
    holding a value v with 0 <= v <= top.
    `reduce` takes every slot mod p at once as v - p * floor(v / p), where
    floor(v / p) = (v * m) >> s for m = ceil(2^s / p) and 2^s > top * p
    (Barrett, CRYPTO '86): the estimate exceeds v / p by less than 1 / p, so
    it is exact. A slot is wide enough to hold v * m, so no slot carries
    into the next, and the mask drops the bits that the shift brings down
    from the slot above. A reduced slot holds a residue in [0, p); below 256
    it is the slot's low byte, which `residues` reads."""

    def __init__(self, p, n, top):
        self.p, self.n = p, n
        self.shift = (top * p).bit_length()
        self.mul = -(-(1 << self.shift) // p)
        self.nbytes = -(-(top * self.mul).bit_length() // 8)
        self.width = 8 * self.nbytes
        # 1 in the low bit of every slot
        ones = int.from_bytes((1).to_bytes(self.nbytes, "little") * n, "little")
        self.mask = ((1 << (self.width - self.shift)) - 1) * ones

    def pack(self, values):
        return int.from_bytes(b"".join([v.to_bytes(self.nbytes, "little") for v in values]), "little")

    def rows(self, whole, k):
        """The k rows of the packed row-major k x k matrix `whole`, row i
        cut out as an int of k slots."""
        span = self.width * k
        return [(whole >> (span * i)) & ((1 << span) - 1) for i in range(k)]

    def reduce(self, v):
        return v - self.p * (((v * self.mul) >> self.shift) & self.mask)

    def residues(self, *values):
        """The slots of a value mod p as bytes, slot k at byte k; of several
        values, the OR of their residues, 0 exactly where all of them are.
        Needs p <= 256."""
        v = 0
        for x in values:
            v |= self.reduce(x)
        return v.to_bytes(self.nbytes * self.n, "little")[:: self.nbytes]


def det_slots(p, n):
    """The slots of `packed_det` on n x n matrices, n^2 of them, so that a
    whole matrix packs into one int: an entry below p^2 plus n - 1 updates
    of at most (p - 1)^2 each."""
    return _Slots(p, n * n, p * p + (n - 1) * (p - 1) ** 2)


def packed_det(rows, slots):
    """Determinant over F_p of the square matrix whose row i is the packed
    int rows[i], entry j at slot j of `slots` (`det_slots`), each entry
    below p^2 and not necessarily reduced.

    Forward elimination with column 0 of the remaining rows in slot 0: a
    row is reduced once, when it becomes the pivot row, by one Barrett step;
    each row below it takes (-f / pivot mod p) times the pivot row, with f
    its own entry mod p, which leaves that entry a multiple of p, and is
    shifted down one slot, which drops it. No row is reduced otherwise, so a
    slot gains at most (p - 1)^2 per step."""
    p, w = slots.p, slots.width
    low = (1 << w) - 1
    d = 1
    while rows:
        heads = [(r & low) % p for r in rows]
        i = 0 if heads[0] else next((i for i, f in enumerate(heads) if f), -1)
        if i < 0:
            return 0
        f, pivot = heads[i], rows[i]
        if i:
            d = -d
            rows = list(rows)
            rows[i], heads[i] = rows[0], heads[0]
        d = d * f % p
        if len(rows) == 1:
            break
        c = p - _inv(f, p)
        pivot = slots.reduce(pivot)
        rows = [(r + g * c % p * pivot if g else r) >> w for r, g in zip(rows[1:], heads[1:])]
    return d


def _forward(a, nrows, ncols, p):
    """Forward Gaussian elimination on a copy of `a`: (rank, pivot columns,
    flat echelon matrix); the echelon rows below the rank are zero."""
    m = [x % p for x in a]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i * ncols + col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for c in range(col, ncols):
                m[r * ncols + c], m[piv * ncols + c] = m[piv * ncols + c], m[r * ncols + c]
        base = r * ncols
        inv = _inv(m[base + col], p)
        # a zero of the pivot row leaves its column unchanged below
        nz = [c for c in range(col, ncols) if m[base + c]]
        for i in range(r + 1, nrows):
            f = m[i * ncols + col]
            if f:
                f = f * inv % p
                row = i * ncols
                for c in nz:
                    m[row + c] = (m[row + c] - f * m[base + c]) % p
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


def fp_rank(a, nrows, ncols, p):
    """Rank by forward Gaussian elimination; `a` is consumed as a copy."""
    return _forward(a, nrows, ncols, p)[0]


def fp_rref(a, nrows, ncols, p):
    """Reduced row echelon form: `_forward`, then from the last pivot up each
    pivot row scaled to 1 and cleared from the rows above it.

    Returns (rank, pivot column list, flat reduced matrix); the first
    `rank` rows hold the canonical basis, the rest are zero.
    """
    r, pivots, m = _forward(a, nrows, ncols, p)
    for k in range(r - 1, -1, -1):
        col = pivots[k]
        base = k * ncols
        inv = _inv(m[base + col], p)
        m[base + col] = 1
        # right of its pivot the row is already zero at the later pivots
        nz = [c for c in range(col + 1, ncols) if m[base + c]]
        for c in nz:
            m[base + c] = m[base + c] * inv % p
        for i in range(k):
            row = i * ncols
            f = m[row + col]
            if f:
                m[row + col] = 0
                for c in nz:
                    m[row + c] = (m[row + c] - f * m[base + c]) % p
    return r, pivots, m


def fp_det(a, n, p):
    """Determinant of an n x n matrix over F_p, entries any ints: the
    entries reduced mod p, packed (`det_slots`), cut into rows and
    eliminated by `packed_det`."""
    slots = det_slots(p, n)
    return packed_det(slots.rows(slots.pack([x % p for x in a]), n), slots)
