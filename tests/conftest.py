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


@pytest.fixture(scope="session")
def rref_reference():
    """_gauss_jordan(rows, n, field), with one ReferenceField per field."""
    fields = {}

    def reference(rows, n, field):
        if field not in fields:
            fields[field] = ReferenceField(field)
        return _gauss_jordan(rows, n, fields[field])

    return reference


@pytest.fixture
def reference_field():
    return ReferenceField
