"""F_p elimination kernels on row-major flat int lists.

Every rank, rref and determinant over a prime field runs through the one
forward Gaussian elimination of this module, `_forward`, which returns the
rank, the signed product of the pivots, the pivot columns and the echelon
rows. `fp_rank` and `fp_det` read the first two; `fp_rref` finishes the
echelon rows by back-substitution. Python ints are exact at any p, so the
kernels are correct for every prime the package accepts.
"""

def _inv(a, p):
    return pow(a, -1, p)


def _forward(a, nrows, ncols, p):
    """Forward Gaussian elimination on a copy of `a`: (rank, product of the
    pivots times the sign of the row swaps mod p, pivot columns, flat echelon
    matrix). The product is the determinant when the matrix is square of full
    rank; the echelon rows below the rank are zero."""
    m = [x % p for x in a]
    pivots = []
    r = 0
    d = 1
    for col in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i * ncols + col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            d = p - d
            for c in range(col, ncols):
                m[r * ncols + c], m[piv * ncols + c] = m[piv * ncols + c], m[r * ncols + c]
        base = r * ncols
        pivval = m[base + col]
        d = d * pivval % p
        inv = _inv(pivval, p)
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
    return r, d, pivots, m


def fp_rank(a, nrows, ncols, p):
    """Rank by forward Gaussian elimination; `a` is consumed as a copy."""
    return _forward(a, nrows, ncols, p)[0]


def fp_rref(a, nrows, ncols, p):
    """Reduced row echelon form: `_forward`, then from the last pivot up each
    pivot row scaled to 1 and cleared from the rows above it.

    Returns (rank, pivot column list, flat reduced matrix); the first
    `rank` rows hold the canonical basis, the rest are zero.
    """
    r, _, pivots, m = _forward(a, nrows, ncols, p)
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
    """Determinant of an n x n matrix over F_p."""
    r, d = _forward(a, n, n, p)[:2]
    return d if r == n else 0
