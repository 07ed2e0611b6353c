"""Finite fields F_q (q a prime power) and canonical subspace algebra.

Field elements are plain ints in range(q): for prime fields the residue
itself, for extension fields the base-p digit encoding of the polynomial
coefficients (value = c_0 + c_1 p + ... + c_{e-1} p^{e-1}).  Prime fields
add, subtract and multiply modulo p and invert by pow.  Extension fields
add and subtract by XOR in characteristic 2 and digit by digit otherwise.
A field of order 2 < q <= _TABLE_LIMIT keeps one multiplication table, its
rows bytes.translate tables, and over a prime p <= 127 a mod-p fold table;
extension fields of such an order multiply and invert through it, and
larger ones multiply digit by digit.

Subspaces of F_q^n are kept in reduced row echelon form with pivots
normalized to 1, which makes the representative unique: two Subspace
objects are equal iff they describe the same subspace.  A row has one
packed form for every field, the integer of its text (below).  The one
elimination kernel is Echelon.insert, which adds one packed row to a
reduced echelon state; rref is a fold of it (and with it parse_subspace,
sum, intersect and contains) and dilations inserts one row into the
embedded subspace.  One row step serves this state and the process's state
(below), over three row forms.  Over F_2 a row is packed, its n bits the
coordinates, coordinate 1 the most significant: a row step is XOR and a
row's pivot column is n - x.bit_length() (the word-packed elimination of
M4RI).  Where the field has its table a row is the bytes of its entries,
and above _TABLE_LIMIT their list; a row step is _minus: on bytes a few C
calls on whole rows (table row operations as in M4RIE), on lists an entry
loop.  A Subspace keeps its rows packed, and == and hash compare them; its
basis, the rows as int tuples, is a view.  Over F_2 every builder makes the
packed rows and the view is built on first use; over other fields the
builders hold entries and hand them over, and the packed rows are built on
first use.

gf holds the one order of Gr(k, n), which enumeration and block coding
(module aep) share: pivot sets lexicographic, then free entries row-major.
Its one builder is _member; rank and unrank count the pivot sets before a
member in blocks and read its free entries as one base-q digit string.

The Grassmannian process (module grassproc) keeps its state V as V^perp
instead, in _Annihilator: a growth step costs O(codim V) inner products
(_dot) where an echelon state reduces against all dim V rows.  On the
process's typical paths codim V stays O(1); where codim > dim, roughly
theta < q^(-n/2), it is the dearer state (see grassproc.simulate).  Its
vectors take Echelon's row forms, and for 2 < q < 256 bytes are also the
alphabet in which grassproc reads a dilation's coordinates.

Every text form goes through one digit codec, to_text/from_text: an
integer written as a fixed number of base-b digits over 0-9a-z, most
significant first.  to_text writes bases 2, 8 and 16 with format() and the
other bases digit by digit; from_text checks every digit with one
str.lstrip of the base's digits, which names the first bad one, and then
converts with int(text, base), 640 digits at a time, below any limit
sys.set_int_max_str_digits allows.  An element is its e base-p digits; a
subspace row (c_1..c_n) is the integer sum c_i q^(n-i) written with n*e
base-p digits, which is each coordinate's e digits in turn.  In
characteristic 2, where the packed rows are held, format_subspace writes
each with one format().  Otherwise it writes the entries: over a prime
field a coordinate is one digit, so it writes the rows' entries as bytes
and translates them to digits in one pass; over an extension field it joins
the texts of the coordinates from a per-field table of the q element texts.
A codeword (module aep) is its index written in base q.  Bases above 36
have no text form.
"""

import bisect
import functools
import itertools
import math
import operator

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

_TABLE_LIMIT = 256  # fields of order 2 < q <= this keep a table and step bytes rows

GRASSMANNIAN_GUARD = 10**7

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
TEXT_BASE_MAX = len(_DIGITS)  # largest base the digit alphabet can write
# bytes.translate table: a value d < 36 becomes its digit, and every byte
# above, the row separator ';' among them, becomes ';'
_DIGIT_BYTES = _DIGITS.encode().ljust(256, b";")
# and back: a digit becomes its value
_DIGIT_VALUES = bytes.maketrans(_DIGITS.encode(), bytes(range(TEXT_BASE_MAX)))
# the bases that format() writes in C
_FORMAT_SPECS = {2: "b", 8: "o", 16: "x"}
# int(text, base) and str(x) refuse more digits than
# sys.get_int_max_str_digits() (4300 by default, never set below 640) where
# the base is not a power of 2, so long texts go 640 digits at a time
_INT_CHUNK = 640


def _factor_prime_power(q):
    """Return (p, e) with q = p^e, or raise if q is not a prime power."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field order must be an integer >= 2, got {q!r}")
    # the smallest divisor >= 2 of q is prime, so it is the characteristic
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _poly_mod(num, den, p):
    """Remainder of polynomial division by a monic den over F_p
    (coefficient lists, low first)."""
    num = list(num)
    dd = len(den) - 1
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        shift = len(num) - 1 - dd
        factor = num[-1]
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
        self._mul_table = self._inv_table = self._fold = None  # see _build_tables
        self._texts = None  # element texts, built by the first element_texts()
        if 2 < q <= _TABLE_LIMIT:
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
        if self.p == 2:
            return a ^ b
        return self.from_digits(
            [x + y for x, y in zip(self.to_digits(a), self.to_digits(b))]
        )

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self.from_digits(
            [x - y for x, y in zip(self.to_digits(a), self.to_digits(b))]
        )

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a, b):
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
        if self.e == 1:
            return pow(a, -1, self.p)
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
        """Row a of the table maps each element b to a * b, as a
        bytes.translate table; a prime p <= 127 adds its mod-p fold table.
        An extension field reads a * b = g^(log a + log b) off the powers of
        a primitive element g, q - 1 slow products per tried g."""
        q = self.q
        if self.e == 1:
            rows = [[a * b % q for b in range(q)] for a in range(q)]
            if q <= 127:
                self._fold = bytes(v % q for v in range(256))
        else:
            for g in range(2, q):
                powers = [1]  # g^0, g^1, ... up to the first return to 1
                x = g
                while x != 1:
                    powers.append(x)
                    x = self._mul_slow(x, g)
                if len(powers) == q - 1:
                    break
            log = [0] * q
            for i, x in enumerate(powers):
                log[x] = i
            exp = powers + powers
            logs = log[1:]
            rows = [[0] * q] + [[0] + [exp[log[a] + lb] for lb in logs] for a in range(1, q)]
            self._inv_table = [0] + [row.index(1) for row in rows[1:]]
        self._mul_table = [bytes(row).ljust(256, b"\0") for row in rows]

    def elements(self):
        return range(self.q)

    def element_texts(self):
        """The text of every element, indexed by element: its e base-p digits."""
        if self._texts is None:
            self._texts = [to_text(c, self.e, self.p) for c in range(self.q)]
        return self._texts


class Subspace:
    """A subspace of F_q^n, held as its unique RREF basis.

    `rows` holds one packed int per basis row, in pivot order: the row
    (c_1..c_n) is the int sum c_j q^(n-j), the integer of its text.  The
    rows are what == and hash compare.  `basis` is the same rows as tuples
    of entries.  A builder hands over the form it holds, the packed rows
    (over F_2) or the entries (over other fields), as the keyword-only
    `_rows` or `_basis`, and the other form is built on first use.  Built
    only by rref and the other builders of this module, so the
    canonical-form invariants (pivots 1, pivot columns elsewhere 0, rows
    ordered by pivot) hold.  Frozen: setting or deleting an attribute
    raises AttributeError.
    """

    def __init__(self, field, ambient_dim, pivot_cols, *, _rows=None, _basis=None):
        self.__dict__.update(
            field=field, ambient_dim=ambient_dim, pivot_cols=pivot_cols,
            _rows=_rows, _basis=_basis,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def rows(self):
        if self._rows is None:
            rows = tuple(_packed_rows(self._basis, self.ambient_dim, self.field.q))
            object.__setattr__(self, "_rows", rows)
        return self._rows

    @property
    def basis(self):
        if self._basis is None:
            view = _entry_rows(self._rows, self.ambient_dim, self.field.q)
            object.__setattr__(self, "_basis", view)
        return self._basis

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            return False
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.rows))

    @property
    def dim(self):
        return len(self.pivot_cols)

    def contains_vector(self, vec):
        """True iff vec, a row of F_q^n as rref takes one, lies in this subspace."""
        return self.contains(rref([vec], self.ambient_dim, self.field))

    def contains(self, other):
        """True iff `other` lies in this subspace: adding it adds no dimension."""
        return self.sum(other).dim == self.dim

    def sum(self, other):
        """Canonical subspace sum (span of the union of bases)."""
        _check_compatible(self, other)
        return rref(self.rows + other.rows, self.ambient_dim, self.field)

    def intersect(self, other):
        """Canonical intersection, via the Zassenhaus block construction.

        The block rows are (x, x) for x in self and (y, 0) for y in other,
        packed; the rows of its RREF below q**n are 0 on the left half, and
        their right halves span the intersection.
        """
        _check_compatible(self, other)
        n, f = self.ambient_dim, self.field
        shift = f.q**n
        block = [x * shift + x for x in self.rows] + [y * shift for y in other.rows]
        reduced = rref(block, 2 * n, f)
        return rref([x for x in reduced.rows if x < shift], n, f)

    def embedded(self, extra=1):
        """Image under appending `extra` zero coordinates (RREF-preserving):
        each packed row times q**extra, each entry row padded with zeros,
        for whichever forms are held."""
        if extra < 0:
            raise ValueError("extra must be nonnegative")
        if extra == 0:
            return self
        rows, basis = self._rows, self._basis
        if rows is not None:
            scale = self.field.q**extra
            rows = tuple(x * scale for x in rows)
        if basis is not None:
            pad = (0,) * extra
            basis = tuple(row + pad for row in basis)
        n = self.ambient_dim + extra
        return Subspace(self.field, n, self.pivot_cols, _rows=rows, _basis=basis)

    def __repr__(self):
        basis = format_subspace(self) if self.field.p <= TEXT_BASE_MAX else self.basis
        return f"Subspace(q={self.field.q}, n={self.ambient_dim}, basis={basis!r})"


def _check_compatible(v, w):
    if v.field != w.field or v.ambient_dim != w.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")


def _row_step(field, row, c, brow):
    """row[j] -= c * brow[j] in place, for c != 0: the entry loop of _minus.

    Prime fields compute (r - c*b) % p; other fields go through
    FieldSpec.sub and FieldSpec.mul.
    """
    if field.e == 1:
        p = field.p
        for j, b in enumerate(brow):
            if b:
                row[j] = (row[j] - c * b) % p
    else:
        for j, b in enumerate(brow):
            if b:
                row[j] = field.sub(row[j], field.mul(c, b))


def _dot(field, u, x):
    """The inner product sum u_j x_j, over the length of the shorter vector.

    Prime fields sum the products and reduce once, tabled characteristic-2
    extension fields XOR the entries of their table's rows u_j; other
    fields go through FieldSpec.add and FieldSpec.mul.
    """
    if field.e == 1:
        return sum(map(operator.mul, u, x)) % field.p
    if field.p == 2 and field._mul_table is not None:
        rows = map(field._mul_table.__getitem__, u)
        return functools.reduce(operator.xor, map(operator.getitem, rows, x), 0)
    return functools.reduce(field.add, map(field.mul, u, x), 0)


def _unpack(x, n, q):
    """The n entries of the packed row x of F_q^n: bytes up to _TABLE_LIMIT,
    a list above."""
    if q in _FORMAT_SPECS:  # one format() call
        return to_text(x, n, q).encode().translate(_DIGIT_VALUES)
    row = [0] * n
    for j in range(n - 1, -1, -1):
        x, row[j] = divmod(x, q)
    return bytes(row) if q <= _TABLE_LIMIT else row


def _entry_rows(rows, n, q):
    """The basis view of packed rows: one tuple of entries per row."""
    return tuple(tuple(_unpack(x, n, q)) for x in rows)


def _minus(field, u, a, ug):
    """The row u - a * ug, for a != 0 and q > 2: the one row step of both
    elimination states, Echelon and _Annihilator.  It returns a new row and
    leaves u as it was, so rows can be shared.

    The rows are bytes where the field has its table, 2 < q <=
    _TABLE_LIMIT, and entry lists above.  On bytes the step is table row
    operations as in M4RIE: one ug.translate of a table row followed by, in
    characteristic 2, one big-int XOR; over a prime p <= 127, one big-int
    add of the translate by row p - a and one translate by the fold table
    (a byte of the sum is at most 2(p - 1) < 256, so no slot carries into
    the next); over the other fields, the primes 131-251 and the
    odd-characteristic extension fields, the entry loop _row_step on a
    list copy.  On entry lists the step is that entry loop too.  Over F_2
    the states step their packed ints by XOR themselves.
    """
    scale, fold = field._mul_table, field._fold
    if fold is not None:  # -a * ug + u, byte by byte with no carry
        t = int.from_bytes(ug.translate(scale[field.p - a]), "big")
        return (int.from_bytes(u, "big") + t).to_bytes(len(u), "big").translate(fold)
    if scale is not None and field.p == 2:
        t = int.from_bytes(ug.translate(scale[a]), "big")
        return (int.from_bytes(u, "big") ^ t).to_bytes(len(u), "big")
    row = list(u)  # _row_step skips the zero entries of ug
    _row_step(field, row, a, ug)
    return row if scale is None else bytes(row)


def _times(field, a, u):
    """The row a * u, for q > 2, in the row form of _minus."""
    if field._mul_table is None:
        return [field.mul(a, b) for b in u]
    return u.translate(field._mul_table[a])


class Echelon:
    """A reduced echelon basis of F_q^n that grows one packed row at a time.

    `insert` is the one elimination kernel: rref folds it over its rows
    and dilations inserts one row into a copy of the embedded subspace.
    Rows are kept in the order found, each reduced against all the others.
    Over F_2 a row stays packed, its pivot is its top set bit and a row
    step is XOR, and `subspace` hands the rows over as they are.  Over
    other fields a row is its entries, bytes where the field has its table
    and a list above _TABLE_LIMIT, its pivot is a column, a row step is
    _minus, the one row step it shares with _Annihilator, and `subspace`
    hands the entries over.  A row step replaces a row and never changes
    one, so `copy` shares the rows.
    """

    def __init__(self, field, n, rows=()):
        self.field = field
        self.n = n
        self.rows = []
        self.pivots = []
        for x in _packed_rows(rows, n, field.q):
            self.insert(x)

    def copy(self):
        twin = Echelon(self.field, self.n)
        twin.rows = self.rows[:]
        twin.pivots = self.pivots[:]
        return twin

    def insert(self, x):
        """Add the packed row x in range(q**n); a dependent row changes nothing."""
        field, rows = self.field, self.rows
        if field.q == 2:
            for bit, brow in zip(self.pivots, rows):
                if x & bit:
                    x ^= brow
            if x:
                bit = 1 << (x.bit_length() - 1)
                self.rows = [brow ^ x if brow & bit else brow for brow in rows]
                self.rows.append(x)
                self.pivots.append(bit)
            return
        row = _unpack(x, self.n, field.q)
        for brow, pc in zip(rows, self.pivots):
            c = row[pc]
            if c:
                row = _minus(field, row, c, brow)
        c = next(filter(None, row), 0)  # the leading entry
        if not c:
            return
        pc = row.index(c)
        if c != 1:
            row = _times(field, field.inv(c), row)
        # clear the new pivot column in the existing rows
        for i, brow in enumerate(rows):
            c = brow[pc]
            if c:
                rows[i] = _minus(field, brow, c, row)
        rows.append(row)
        self.pivots.append(pc)

    def subspace(self):
        """The canonical Subspace of the rows inserted so far."""
        field, n = self.field, self.n
        if field.q == 2:
            rows = tuple(sorted(self.rows, reverse=True))
            return Subspace(field, n, tuple(n - x.bit_length() for x in rows), _rows=rows)
        ordered = sorted(zip(self.pivots, self.rows))  # distinct pivots: rows never compared
        basis = tuple(tuple(row) for _, row in ordered)
        return Subspace(field, n, tuple(pc for pc, _ in ordered), _basis=basis)


class _Annihilator:
    """A subspace V of F_q^k, k <= n, held as its annihilator V^perp and
    grown one coordinate at a time: the state of the Grassmannian process.

    For each free column f of V's RREF the state keeps u_f = -w_f, where
    w_f is the vector of V^perp that is 1 at f and 0 at every other free
    column.  u_f vanishes past column f, is -1 at f, and on V's pivot
    columns it is column f of V's RREF, so `subspace` reads V with no field
    arithmetic.  `embed` appends a zero coordinate; `dilate` adds one row
    by one inner product and at most one row step per free column.

    A column u_f has n entries in one of Echelon's three row forms, and its
    row step is Echelon's.  Over F_2 it is packed at width n like a row, a
    row step is XOR, and `subspace` builds V's packed rows from bit tests.
    Over other fields a row step is _minus, its zero and -1 rows come from
    _unpack in the field's row form, and `subspace` hands over V's entries.
    For 2 < q < 256 bytes are also the alphabet in which
    grassproc._coordinates hands over a dilation, and they pay: at theta =
    1, simulate took 408 against 445 us with entry-list columns at F_3, n =
    32, and 304 against 326 us at F_16, n = 24 (medians of 9 alternating
    pairs, each the best of 9 runs of seeds 0-299; 2-vCPU VM, Python
    3.11.7).
    """

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.k = 0
        self.pivots = []  # V's pivot columns, ascending
        self.free = []  # V's free columns, ascending
        self.cols = []  # u_f for each free column f, in the same order
        self.zero = 0 if field.q == 2 else _unpack(0, n, field.q)
        self.minus_one = _unpack(field.neg(1), 1, field.q)

    def embed(self):
        """V <- V x 0: coordinate k + 1 is a new free column, u = -e_(k+1)."""
        self._append_free(self.zero)

    def _append_free(self, u):
        """Make coordinate k + 1 a free column with the vector -e_(k+1) + u,
        for a column u that vanishes from column k + 1 on."""
        k = self.k
        if self.field.q == 2:
            u |= 1 << (self.n - 1 - k)  # -1 = 1
        else:
            u = u[:k] + self.minus_one + u[k + 1:]
        self.free.append(k)
        self.cols.append(u)
        self.k = k + 1

    def dilate(self, x, c):
        """V <- span(V x 0, (x, c)) in F_q^(k+1), for x in F_q^k and c != 0.

        Over F_2, x is packed as rref takes a row of F_2^k and c is 1; over
        other fields x is a sequence of k entries (a list, or bytes).
        t_f = <w_f, x> is entry f of x reduced against V's rows, so the
        least f with t_f != 0 becomes a pivot and coordinate k + 1 a free
        column; with no such f, coordinate k + 1 becomes the pivot and
        nothing else changes.  With no free column at all (V = F_q^k) x is
        never read.
        """
        field, k, cols = self.field, self.k, self.cols
        if field.q == 2:
            x <<= self.n - k
            hit = None
            for i, u in enumerate(cols):
                if (u & x).bit_count() & 1:
                    if hit is None:
                        hit, ug = i, u
                    else:
                        cols[i] = u ^ ug
        else:
            s = [_dot(field, u, x) for u in cols]  # s_f = <u_f, x> = -t_f
            hit = next((i for i, t in enumerate(s) if t), None)
            if hit is not None:
                ug, inv = cols[hit], field.inv(s[hit])
                for i in range(hit + 1, len(cols)):
                    if s[i]:
                        cols[i] = _minus(field, cols[i], field.mul(s[i], inv), ug)
                ug = _times(field, field.mul(c, inv), ug)
        if hit is None:
            self.pivots.append(k)
            self.k = k + 1
            return
        bisect.insort(self.pivots, self.free.pop(hit))
        del cols[hit]
        self._append_free(ug)  # u_(k+1) = -e_(k+1) + (c / s_g) u_g

    def subspace(self):
        """The canonical Subspace V of F_q^k, read by one transposition.

        At a pivot p, column c of V's RREF holds the entry at p of e_c if c
        is a pivot and of u_c if c is free.  Over F_2 the row of p is packed
        directly: its unit bit, plus the bit of column f wherever u_f has
        bit p.  Over other fields, zipping the k columns gives, at each
        pivot p, the entries of the row of p, handed over as they are.
        """
        field, k, pivots, cols = self.field, self.k, self.pivots, self.cols
        if field.q == 2:
            shift = self.n - k  # u_f >> shift is u_f packed at width k
            free = [(1 << (k - 1 - f), u >> shift) for f, u in zip(self.free, cols)]
            rows = []
            for pc in pivots:
                bit = 1 << (k - 1 - pc)
                x = bit
                for fbit, u in free:
                    if u & bit:
                        x |= fbit
                rows.append(x)
            return Subspace(field, k, tuple(pivots), _rows=tuple(rows))
        unit = (0,) * (k - 1) + (1,) + (0,) * (k - 1)
        columns = [None] * k
        for pc in pivots:
            columns[pc] = unit[k - 1 - pc : 2 * k - 1 - pc]
        for f, u in zip(self.free, cols):
            columns[f] = u  # zip stops at the k entries of a unit
        rows = list(zip(*columns))
        return Subspace(field, k, tuple(pivots), _basis=tuple(map(rows.__getitem__, pivots)))


def rref(rows, n, field):
    """Canonical Subspace spanned by the given vectors of length n.

    Gaussian elimination with pivot normalization, one row inserted at a
    time; dependent rows are discarded.  The empty list gives the zero
    subspace.  A row (c_1..c_n) may also be given packed, as the int
    sum c_i q^(n-i) in range(q**n), whose to_text form is the row's text.
    """
    return Echelon(field, n, rows).subspace()


def _packed_rows(rows, n, q):
    """Each row of F_q^n as its packed int; entries reduce by int(c) % q."""
    size = q**n
    for row in rows:
        if not isinstance(row, int):
            if len(row) != n:
                raise ValueError(f"row length {len(row)} != ambient dimension {n}")
            x = 0
            for c in row:
                x = x * q + int(c) % q
            row = x
        elif not 0 <= row < size:
            raise ValueError(f"packed row {row} is not in range({q}**{n})")
        yield row


def zero_subspace(n, field):
    return Subspace(field, n, (), _rows=(), _basis=())


def full_space(n, field):
    return _member(tuple(range(n)), (), n, field)


def _member(pivots, values, n, field):
    """The member of Gr(k, n) with these pivot columns and these free
    entries, row-major: the one builder of the order.  In the non-pivot
    columns row i is p_i - i zeros, then its free entries; each pivot column
    is a unit vector.  The columns are laid out and transposed once."""
    k = len(pivots)
    if not k:
        return zero_subspace(n, field)
    values, d = tuple(values), n - k
    rows, end = [], 0
    for i, p in enumerate(pivots):
        start, end = end, end + d - p + i
        rows.append((0,) * (p - i) + values[start:end])
    unit = (0,) * (k - 1) + (1,) + (0,) * (k - 1)
    units = {p: unit[k - 1 - i : 2 * k - 1 - i] for i, p in enumerate(pivots)}
    free = zip(*rows)
    columns = [units[j] if j in units else next(free) for j in range(n)]
    return Subspace(field, n, tuple(pivots), _basis=tuple(zip(*columns)))


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
    for pivots in itertools.combinations(range(n), k):
        length = sum(n - k - p + i for i, p in enumerate(pivots))
        for values in itertools.product(range(field.q), repeat=length):
            yield _member(pivots, values, n, field)


def _pivot_block(c, m, n, q, base):
    """Number of subspaces whose next pivot is c, followed by any m pivots
    in range(c + 1, n): the sum of q**(free entries) over those pivot sets.
    base is sum(n - 1 - p) over the pivots p before c, minus k(k - 1)/2."""
    return q ** (base + n - 1 - c + m * (m - 1) // 2) * q_binomial(n - 1 - c, m, q)


def _rank_in_class(v):
    """Rank of v inside Gr(k, n) under the enumeration order.

    The shapes before v's pivot set are counted in blocks that share a
    prefix, so no pivot set is walked one by one."""
    n = v.ambient_dim
    q = v.field.q
    k = v.dim
    rank, base, lo = 0, -k * (k - 1) // 2, 0
    for i, p in enumerate(v.pivot_cols):
        for c in range(lo, p):
            rank += _pivot_block(c, k - 1 - i, n, q, base)
        base, lo = base + n - 1 - p, p + 1
    # row i's entries in the non-pivot columns are p_i - i zeros, then its
    # free entries; all free entries, row-major, are the base-q digits of
    # the rank within the pivot set
    pivots = set(v.pivot_cols)
    rows = zip(*[col for j, col in enumerate(zip(*v.basis)) if j not in pivots])
    text = b"".join([bytes(row)[p - i:] for i, (p, row) in enumerate(zip(v.pivot_cols, rows))])
    return rank + from_text(text.translate(_DIGIT_BYTES).decode(), q)


def _unrank_in_class(rank, k, n, field):
    q = field.q
    pivots, base, lo = [], -k * (k - 1) // 2, 0
    for i in range(k):
        m = k - 1 - i
        for c in range(lo, n - m):
            block = _pivot_block(c, m, n, q, base)
            if rank < block:
                break
            rank -= block
        else:
            raise ValueError("rank out of range for this Grassmannian")
        pivots.append(c)
        base, lo = base + n - 1 - c, c + 1
    # _rank_in_class's reading backwards: the base-q digits of rank are the
    # free entries, row-major
    length = sum(n - k - p + i for i, p in enumerate(pivots))
    if rank >= q**length:
        raise ValueError("rank out of range for this Grassmannian")
    return _member(pivots, _unpack(rank, length, q), n, field)


def dilations(w):
    """All one-dimension-up extensions of w that escape its ambient space.

    w lives in F_q^n; the results live in F_q^(n+1) (embedding = append a
    zero coordinate) and there are exactly q^(n - dim w) of them.
    """
    n = w.ambient_dim
    q = w.field.q
    free_cols = [j for j in range(n) if j not in w.pivot_cols]
    base = Echelon(w.field, n + 1, w.embedded(1).rows)
    out = []
    for values in itertools.product(range(q), repeat=len(free_cols)):
        x = 1  # the packed row: coordinate j weighs q^(n - j), the last one is 1
        for j, v in zip(free_cols, values):
            x += v * q ** (n - j)
        state = base.copy()
        state.insert(x)
        out.append(state.subspace())
    return out


# -- textual format -------------------------------------------------------

def to_text(x, length, base):
    """The integer x in range(base**length) as exactly `length` base-`base`
    digits over 0-9a-z, most significant first."""
    if base > TEXT_BASE_MAX:
        raise ValueError(f"text format supports base <= {TEXT_BASE_MAX}")
    spec = _FORMAT_SPECS.get(base)
    if spec and length:
        return format(x, f"0{length}{spec}")
    digits = []
    for _ in range(length):
        x, d = divmod(x, base)
        digits.append(_DIGITS[d])
    return "".join(reversed(digits))


def check_digits(text, base):
    """Refuse text (ValueError) unless every character is a lowercase digit
    of base."""
    if base > TEXT_BASE_MAX:
        raise ValueError(f"text format supports base <= {TEXT_BASE_MAX}")
    bad = text.lstrip(_DIGITS[:base])
    if bad:
        raise ValueError(f"digit {bad[0]!r} out of range for base {base}")


def from_text(text, base):
    """The integer written by to_text; only lowercase digits are accepted."""
    check_digits(text, base)
    x = 0
    for i in range(0, len(text), _INT_CHUNK):
        chunk = text[i:i + _INT_CHUNK]
        x = x * base ** len(chunk) + int(chunk, base)
    return x


def format_subspace(v):
    """Rows of the RREF basis as digit strings joined by ';'.

    Each coordinate is an e-digit base-p group, most significant first,
    so a row is to_text(x, n * e, p) of its packed int x.  In
    characteristic 2, where the packed rows are held, that is one format()
    per row; otherwise the digits are written from the entries the builder
    held.  The zero subspace formats as the empty string.
    """
    if not v.pivot_cols:
        return ""
    field, rows = v.field, v._rows
    if field.p == 2 and rows is not None:
        return ";".join(map(format, rows, itertools.repeat(f"0{v.ambient_dim * field.e}b")))
    if field.e == 1 and field.p <= TEXT_BASE_MAX:  # an entry is one digit
        return b";".join(map(bytes, v.basis)).translate(_DIGIT_BYTES).decode()
    texts = field.element_texts()
    return ";".join("".join([texts[c] for c in row]) for row in v.basis)


def parse_subspace(text, n, field):
    """Parse the ';'-joined row format (any letter case) back into a
    canonical Subspace.

    Returns (subspace, was_canonical): input that is not already an RREF
    basis is re-canonicalized and flagged rather than rejected outright.
    """
    text = text.strip()
    parts = [part.strip() for part in text.split(";")] if text else []
    rows = []  # each row's from_text integer is its packed form
    for part in parts:
        if len(part) != n * field.e:
            raise ValueError(
                f"row {part!r} must have {n * field.e} digits for n={n}"
            )
        rows.append(from_text(part.lower(), field.p))
    v = rref(rows, n, field)
    # a row text and its row are one-to-one for a fixed n
    return v, ";".join(parts).lower() == format_subspace(v)
