"""Independent oracles kept apart from the implementation paths they check.

The line-class oracle expands the product of the symmetric-power Chern
roots of a rank-2 bundle by plain integer convolution, decomposes into
Schur coefficients by telescoping the monomial coefficients, and discards
the partitions outside the box. No Pieri rule is involved, so it may
legitimately cross-check the Schubert route.
"""


def sym_power_root_product(d):
    """Coefficient list (by b-degree) of prod_{i=0}^{d} ((d-i) a + i b)."""
    poly = [1]
    for i in range(d + 1):
        c0, c1 = d - i, i
        out = [0] * (len(poly) + 1)
        for k, v in enumerate(poly):
            out[k] += v * c0
            out[k + 1] += v * c1
        poly = out
    return poly


def sym_power_schur_coefficients(d):
    """Schur coefficients {(p, q): coeff} of the degree-(d+1) root product
    in two variables, by telescoping the monomial coefficients."""
    poly = sym_power_root_product(d)
    deg = d + 1
    out = {}
    prev = 0
    # monomial m_{deg-q, q} has coefficient poly[q] for q <= deg/2;
    # s_{p,q} = m_{p,q} + m_{p-1,q+1} + ... telescopes
    for q in range(deg // 2 + 1):
        p = deg - q
        if p < q:
            break
        coeff = poly[q] - prev
        if coeff:
            out[(p, q)] = coeff
        prev = poly[q]
    return out


def sym_power_box_class(d, cols=4):
    """The surviving Schur coefficients inside the 2 x cols box."""
    return {pq: c for pq, c in sym_power_schur_coefficients(d).items() if pq[0] <= cols}
