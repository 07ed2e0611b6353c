import pytest


def _gauss_jordan_f2(rows, n):
    """(basis, pivot_cols) of the F_2 span of rows, column by column on lists.

    An independent reference for gf.rref, which packs F_2 rows into ints.
    """
    work = [[int(c) % 2 for c in row] for row in rows]
    basis, pivots = [], []
    for col in range(n):
        i = next((i for i, row in enumerate(work) if row[col]), None)
        if i is None:
            continue
        pick = work.pop(i)
        for row in work + basis:
            if row[col]:
                row[:] = [a ^ b for a, b in zip(row, pick)]
        basis.append(pick)
        pivots.append(col)
    return tuple(map(tuple, basis)), tuple(pivots)


@pytest.fixture
def rref_f2_reference():
    return _gauss_jordan_f2
