import bisect
import functools

import pytest


class ReferenceField:
    """F_q arithmetic on base-p digit lists and polynomials, independent of gf.

    An element is the integer of its e base-p digits (constant coefficient
    lowest); a product is the polynomial product reduced by the field's
    monic modulus.  Nothing here reads gf's tables: `difference` and
    `product`, built on first use, are this class's own sub and mul on
    every pair.
    """

    def __init__(self, field):
        self.p, self.e, self.q = field.p, field.e, field.q
        self.modulus = tuple(field.modulus)

    @functools.cached_property
    def difference(self):
        return [[self.sub(a, b) for b in range(self.q)] for a in range(self.q)]

    @functools.cached_property
    def product(self):
        return [[self.mul(a, b) for b in range(self.q)] for a in range(self.q)]

    def digits(self, a):
        return [a // self.p**i % self.p for i in range(self.e)]

    def join(self, digits):
        return sum(d % self.p * self.p**i for i, d in enumerate(digits))

    def add(self, a, b):
        return self.join([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a, b):
        return self.join([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.join([-x for x in self.digits(a)])

    def mul(self, a, b):
        e = self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for top in range(2 * e - 2, e - 1, -1):  # x^top = x^(top-e) * (x^e - modulus)
            t = prod[top]
            for i, m in enumerate(self.modulus):
                prod[top - e + i] -= t * m
        return self.join(prod[:e])

    def inv(self, a):
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)


def _gauss_jordan(rows, n, ref):
    """(basis, pivot_cols) of the F_q span of rows, column by column on lists.

    An independent reference for gf.rref, which inserts packed rows one at
    a time into an echelon state with table row steps.
    """
    work = [[int(c) % ref.q for c in row] for row in rows]
    basis, pivots = [], []
    for col in range(n):
        i = next((i for i, row in enumerate(work) if row[col]), None)
        if i is None:
            continue
        pick = work.pop(i)
        scale = ref.product[ref.product[pick[col]].index(1)]  # times the inverse
        pick = [scale[b] for b in pick]
        for row in work + basis:
            c = row[col]
            if c:
                times, diff = ref.product[c], ref.difference
                row[:] = [diff[a][times[b]] for a, b in zip(row, pick)]
        basis.append(pick)
        pivots.append(col)
    return tuple(map(tuple, basis)), tuple(pivots)


class _GaussJordanState:
    """A reduced echelon state on lists, grown a column and a row at a time.

    The incremental form of _gauss_jordan, for a history of prefixes: `widen`
    appends a zero column, and `insert` reduces a row by the basis, scales
    it to a leading 1 and clears its pivot column from the other rows.
    """

    def __init__(self, ref):
        self.ref = ref
        self.basis, self.pivots = [], []

    def widen(self):
        for row in self.basis:
            row.append(0)

    def _minus(self, row, c, other):
        times, diff = self.ref.product[c], self.ref.difference
        return [diff[a][times[b]] for a, b in zip(row, other)]

    def insert(self, row):
        row = [int(c) % self.ref.q for c in row]
        for pick, col in zip(self.basis, self.pivots):
            if row[col]:
                row = self._minus(row, row[col], pick)
        col = next((j for j, c in enumerate(row) if c), None)
        if col is None:
            return
        scale = self.ref.product[self.ref.product[row[col]].index(1)]  # times the inverse
        row = [scale[b] for b in row]
        for pick in self.basis:
            if pick[col]:
                pick[:] = self._minus(pick, pick[col], row)
        i = bisect.bisect(self.pivots, col)
        self.basis.insert(i, row)
        self.pivots.insert(i, col)

    def state(self):
        return tuple(map(tuple, self.basis)), tuple(self.pivots)


@functools.cache
def _reference_field(field):
    """The one ReferenceField of field in the session: its tables are built once."""
    return ReferenceField(field)


@pytest.fixture(scope="session")
def rref_reference():
    """_gauss_jordan(rows, n, field)."""
    return lambda rows, n, field: _gauss_jordan(rows, n, _reference_field(field))


@pytest.fixture
def reference_field():
    return ReferenceField


@pytest.fixture(scope="session")
def echelon_reference():
    """An empty _GaussJordanState over field."""
    return lambda field: _GaussJordanState(_reference_field(field))
