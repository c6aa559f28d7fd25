from epwcalc import fpkernel


def test_pure_rref_shape():
    rank, pivots, red = fpkernel.fp_rref([1, 2, 2, 4], 2, 2, 7)
    assert rank == 1 and pivots == [0]
    assert red == [1, 2, 0, 0]
