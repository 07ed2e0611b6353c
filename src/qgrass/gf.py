"""Finite fields F_q (q a prime power) and canonical subspace algebra.

Field elements are plain ints in range(q): for prime fields the residue
itself, for extension fields the base-p digit encoding of the polynomial
coefficients (value = c_0 + c_1 p + ... + c_{e-1} p^{e-1}).

Subspaces of F_q^n are kept in reduced row echelon form with pivots
normalized to 1, which makes the representative unique: two Subspace
objects are equal iff they describe the same subspace.
"""

import itertools
from dataclasses import dataclass

from .qcomb import q_binomial

# Default irreducible moduli (coefficient lists, constant term first) for
# the prime-power orders used out of the box.  Lexicographically smallest
# monic irreducible of each degree.
_DEFAULT_MODULI = {
    4: (2, (1, 1, 1)),        # x^2 + x + 1 over F_2
    8: (2, (1, 1, 0, 1)),     # x^3 + x + 1 over F_2
    9: (3, (1, 0, 1)),        # x^2 + 1 over F_3
    16: (2, (1, 1, 0, 0, 1)),  # x^4 + x + 1 over F_2
    25: (5, (2, 0, 1)),       # x^2 + 2 over F_5
    27: (3, (1, 2, 0, 1)),    # x^3 + 2x + 1 over F_3
}

_TABLE_LIMIT = 256  # build q x q multiplication tables up to this order

GRASSMANNIAN_GUARD = 10**7

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _factor_prime_power(q):
    """Return (p, e) with q = p^e, or raise if q is not a prime power."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field order must be an integer >= 2, got {q!r}")
    for p in range(2, q + 1):
        if not _is_prime(p):
            continue
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


def _poly_mod(num, den, p):
    """Remainder of polynomial division over F_p (coefficient lists, low first)."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        shift = len(num) - 1 - dd
        factor = (num[-1] * inv_lead) % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        while num and num[-1] == 0:
            num.pop()
    return num


def _is_irreducible(modulus, p):
    """Trial-divide by every monic polynomial of degree <= deg/2 over F_p."""
    deg = len(modulus) - 1
    if deg < 1 or modulus[-1] == 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            den = list(lower) + [1]
            if not _poly_mod(modulus, den, p):
                return False
    return True


class FieldSpec:
    """Description of a finite field F_q with q = p^e.

    Construct with the order alone (built-in modulus table) or with an
    explicit irreducible modulus, given as the coefficient list of a monic
    polynomial of degree e, constant term first.
    """

    def __init__(self, q, modulus=None):
        if isinstance(q, int) and q > 2**16:
            raise ValueError(f"field orders above 2^16 are unsupported, got {q}")
        p, e = _factor_prime_power(q)
        if e == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            modulus = (0, 1)  # formally x; unused
        else:
            if modulus is None:
                if q not in _DEFAULT_MODULI:
                    raise ValueError(
                        f"no built-in modulus for q={q}; pass one explicitly"
                    )
                modulus = _DEFAULT_MODULI[q][1]
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {e} over F_{p}"
                )
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self._hash = hash((p, e, modulus))
        self._mul_table = None
        self._inv_table = None
        if q <= _TABLE_LIMIT:
            self._build_tables()

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.e == 1:
            return f"FieldSpec({self.q})"
        return f"FieldSpec({self.q}, modulus={self.modulus})"

    # -- element codec ------------------------------------------------

    def to_digits(self, a):
        """Base-p coefficient vector (low degree first) of element a."""
        digits = []
        for _ in range(self.e):
            a, d = divmod(a, self.p)
            digits.append(d)
        return digits

    def from_digits(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + (d % self.p)
        return a

    # -- arithmetic ---------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        return self.from_digits(
            [(x + y) % p for x, y in zip(self.to_digits(a), self.to_digits(b))]
        )

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        p = self.p
        return self.from_digits(
            [(x - y) % p for x, y in zip(self.to_digits(a), self.to_digits(b))]
        )

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        p = self.p
        da, db = self.to_digits(a), self.to_digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        rem = _poly_mod(prod, list(self.modulus), p)
        rem += [0] * (self.e - len(rem))
        return self.from_digits(rem)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        # a^(q-2) = a^(-1) in F_q*
        out = 1
        base = a
        exp = self.q - 2
        while exp:
            if exp & 1:
                out = self._mul_slow(out, base)
            base = self._mul_slow(base, base)
            exp >>= 1
        return out

    def _build_tables(self):
        q = self.q
        self._mul_table = [
            [self._mul_slow(a, b) for b in range(q)] for a in range(q)
        ]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul_table[a][b] == 1:
                    inv[a] = b
                    break
        self._inv_table = inv

    def elements(self):
        return range(self.q)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n, held as its unique RREF basis.

    Do not construct directly; use rref() so the canonical-form invariants
    (pivots 1, pivot columns elsewhere 0, rows ordered by pivot) hold.
    """

    field: FieldSpec
    ambient_dim: int
    basis: tuple
    pivot_cols: tuple

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, vec):
        """True iff vec reduces to zero against the basis."""
        return not any(_reduce_vector(self.field, vec, self.basis, self.pivot_cols))

    def contains(self, other):
        """True iff every basis row of `other` lies in this subspace."""
        _check_compatible(self, other)
        return all(self.contains_vector(row) for row in other.basis)

    def sum(self, other):
        """Canonical subspace sum (span of the union of bases)."""
        _check_compatible(self, other)
        return rref(list(self.basis) + list(other.basis), self.ambient_dim, self.field)

    def intersect(self, other):
        """Canonical intersection, via the Zassenhaus block construction."""
        _check_compatible(self, other)
        n = self.ambient_dim
        f = self.field
        block = []
        for row in self.basis:
            block.append(tuple(row) + tuple(row))
        for row in other.basis:
            block.append(tuple(row) + (0,) * n)
        reduced = rref(block, 2 * n, f)
        inter_rows = [row[n:] for row in reduced.basis if not any(row[:n])]
        return rref(inter_rows, n, f)

    def embedded(self, extra=1):
        """Image under appending `extra` zero coordinates (RREF-preserving)."""
        if extra < 0:
            raise ValueError("extra must be nonnegative")
        if extra == 0:
            return self
        pad = (0,) * extra
        return Subspace(
            self.field,
            self.ambient_dim + extra,
            tuple(row + pad for row in self.basis),
            self.pivot_cols,
        )

    def __repr__(self):
        return (
            f"Subspace(q={self.field.q}, n={self.ambient_dim}, "
            f"basis={format_subspace(self)!r})"
        )


def _check_compatible(v, w):
    if v.field != w.field or v.ambient_dim != w.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")


def _reduce_vector(field, vec, basis, pivot_cols):
    """Reduce vec against an RREF basis; returns the residual vector."""
    vec = list(vec)
    for row, pc in zip(basis, pivot_cols):
        c = vec[pc]
        if c:
            for j in range(pc, len(vec)):
                if row[j]:
                    vec[j] = field.sub(vec[j], field.mul(c, row[j]))
    return vec


def rref(rows, n, field):
    """Canonical Subspace spanned by the given vectors of length n.

    Gaussian elimination with pivot normalization; dependent rows are
    discarded.  The empty list gives the zero subspace.
    """
    work = []
    for row in rows:
        row = tuple(int(c) % field.q for c in row)
        if len(row) != n:
            raise ValueError(f"row length {len(row)} != ambient dimension {n}")
        work.append(list(row))

    basis = []  # list of (pivot_col, row)
    for row in work:
        for pc, brow in basis:
            c = row[pc]
            if c:
                for j in range(pc, n):
                    if brow[j]:
                        row[j] = field.sub(row[j], field.mul(c, brow[j]))
        pc = next((j for j, c in enumerate(row) if c), None)
        if pc is None:
            continue
        inv = field.inv(row[pc])
        if inv != 1:
            row = [field.mul(inv, c) for c in row]
        # clear the new pivot column in the existing rows
        for old_pc, brow in basis:
            c = brow[pc]
            if c:
                for j in range(pc, n):
                    if row[j]:
                        brow[j] = field.sub(brow[j], field.mul(c, row[j]))
        basis.append((pc, row))

    basis.sort(key=lambda item: item[0])
    return Subspace(
        field,
        n,
        tuple(tuple(row) for _, row in basis),
        tuple(pc for pc, _ in basis),
    )


def zero_subspace(n, field):
    return Subspace(field, n, (), ())


def full_space(n, field):
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return Subspace(field, n, tuple(tuple(r) for r in rows), tuple(range(n)))


def free_positions(pivots, n):
    """Row-major free coordinates of the RREF shape with the given pivots."""
    pivot_set = set(pivots)
    out = []
    for i, pc in enumerate(pivots):
        for j in range(pc + 1, n):
            if j not in pivot_set:
                out.append((i, j))
    return out


def subspace_from_pattern(pivots, values, n, field):
    k = len(pivots)
    rows = [[0] * n for _ in range(k)]
    for i, pc in enumerate(pivots):
        rows[i][pc] = 1
    for (i, j), v in zip(free_positions(pivots, n), values):
        rows[i][j] = v
    return Subspace(field, n, tuple(tuple(r) for r in rows), tuple(pivots))


def enumerate_grassmannian(k, n, field):
    """Yield every k-dim subspace of F_q^n exactly once, deterministically.

    Order: pivot-column sets lexicographic, then free entries lexicographic
    in row-major position order.  Refuses with the exact count when the
    Grassmannian exceeds the desk-scale guard.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    count = q_binomial(n, k, field.q)
    if count > GRASSMANNIAN_GUARD:
        raise ValueError(
            f"Gr({k},{n}) over F_{field.q} has {count} elements, "
            f"beyond the enumeration guard {GRASSMANNIAN_GUARD}"
        )
    q = field.q
    for pivots in itertools.combinations(range(n), k):
        free = free_positions(pivots, n)
        for values in itertools.product(range(q), repeat=len(free)):
            yield subspace_from_pattern(pivots, values, n, field)


def dilations(w):
    """All one-dimension-up extensions of w that escape its ambient space.

    w lives in F_q^n; the results live in F_q^(n+1) (embedding = append a
    zero coordinate) and there are exactly q^(n - dim w) of them.
    """
    n = w.ambient_dim
    field = w.field
    q = field.q
    free_cols = [j for j in range(n) if j not in w.pivot_cols]
    base = w.embedded(1)
    out = []
    for values in itertools.product(range(q), repeat=len(free_cols)):
        x = [0] * (n + 1)
        for j, v in zip(free_cols, values):
            x[j] = v
        x[n] = 1
        out.append(rref(list(base.basis) + [tuple(x)], n + 1, field))
    return out


# -- textual format -------------------------------------------------------

def _element_to_text(a, field):
    if field.p > len(_DIGITS):
        raise ValueError(f"text format supports p <= {len(_DIGITS)}")
    digits = field.to_digits(a)
    return "".join(_DIGITS[d] for d in reversed(digits))


def _element_from_text(chars, field):
    digits = []
    for ch in chars:
        d = _DIGITS.index(ch.lower())
        if d >= field.p:
            raise ValueError(f"digit {ch!r} out of range for p={field.p}")
        digits.append(d)
    return field.from_digits(list(reversed(digits)))


def format_subspace(v):
    """Rows of the RREF basis as digit strings joined by ';'.

    Each coordinate is an e-digit base-p group, most significant first;
    the zero subspace formats as the empty string.
    """
    field = v.field
    return ";".join(
        "".join(_element_to_text(c, field) for c in row) for row in v.basis
    )


def parse_subspace(text, n, field):
    """Parse the ';'-joined row format back into a canonical Subspace.

    Returns (subspace, was_canonical): input that is not already an RREF
    basis is re-canonicalized and flagged rather than rejected outright.
    """
    text = text.strip()
    rows = []
    if text:
        for part in text.split(";"):
            part = part.strip()
            if len(part) != n * field.e:
                raise ValueError(
                    f"row {part!r} must have {n * field.e} digits for n={n}"
                )
            row = tuple(
                _element_from_text(part[i * field.e:(i + 1) * field.e], field)
                for i in range(n)
            )
            rows.append(row)
    v = rref(rows, n, field)
    was_canonical = tuple(rows) == v.basis
    return v, was_canonical
