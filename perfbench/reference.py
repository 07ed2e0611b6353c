"""Independent reference arithmetic for the benchmark's output checks.

Nothing here imports qgrass.  The checks compare the CLI's output with
values computed from the definitions: Gaussian binomials by their product
formula, class masses in exact rationals, RREF by plain elimination over a
field built from its modulus.
"""

from fractions import Fraction

# (p, e, modulus) for extension fields; the modulus is the monic
# irreducible, constant term first, that the CLI's text format assumes.
EXTENSION_FIELDS = {16: (2, 4, (1, 1, 0, 0, 1))}  # x^4 + x + 1 over F_2

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def q_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n (product formula)."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def dim_pmf(n, theta, q):
    """Exact law of dim V_n: qbinom(n, k) theta^k q^(k(k-1)/2) / (-theta; q)_n."""
    t = Fraction(theta)
    den = Fraction(1)
    for i in range(n):
        den *= 1 + t * q**i
    return [q_binomial(n, k, q) * t**k * q ** (k * (k - 1) // 2) / den for k in range(n + 1)]


def typical_stop(n, epsilon, theta, q):
    """a_n: the least d with Pr{codim V_n <= d} >= 1 - epsilon, exactly.

    epsilon and theta are decimal or fraction strings, read exactly.
    """
    need = 1 - Fraction(epsilon)
    t = Fraction(theta)
    den = Fraction(1)
    for i in range(n):
        den *= 1 + t * q**i
    acc = Fraction(0)
    for d in range(n + 1):
        k = n - d
        acc += q_binomial(n, k, q) * t**k * q ** (k * (k - 1) // 2) / den
        if acc >= need:
            return d
    return n


def typical_size(n, a_n, q):
    return sum(q_binomial(n, n - d, q) for d in range(a_n + 1))


def codeword_len(size, q):
    """ceil(log_q size) in integer arithmetic."""
    length, reach = 0, 1
    while reach < size:
        reach *= q
        length += 1
    return length


def bernoulli_p(theta, q, m):
    """Growth probability at step m + 1, written as the process computes it.

    The per-step substream draw compared against this float is part of the
    program's trajectory contract, so the replay must use the same formula.
    """
    return theta * q**m / (1.0 + theta * q**m)


class Field:
    """F_q from its order: residues mod p, or base-p digit polynomials."""

    def __init__(self, q):
        self.q = q
        self.p, self.e, self.modulus = EXTENSION_FIELDS.get(q, (q, 1, None))
        els = range(q)
        self.sub = [[self._sub(a, b) for b in els] for a in els]
        self.mul = [[self._mul(a, b) for b in els] for a in els]
        self.inv = [0] + [
            next(b for b in range(1, q) if self.mul[a][b] == 1) for a in range(1, q)
        ]

    def digits(self, a):
        out = []
        for _ in range(self.e):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def from_digits(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d % self.p
        return a

    def _sub(self, a, b):
        return self.from_digits([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def _mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        e, p = self.e, self.p
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        # x^e = -(m_0 + ... + m_(e-1) x^(e-1)) modulo the monic modulus
        for top in range(2 * e - 2, e - 1, -1):
            c = prod[top]
            if c:
                for j in range(e + 1):
                    prod[top - e + j] = (prod[top - e + j] - c * self.modulus[j]) % p
        return self.from_digits(prod[:e])

    def element_text(self, a):
        return "".join(DIGITS[d] for d in reversed(self.digits(a)))

    def format(self, basis):
        """The CLI's text form: rows of e-digit groups, joined by ';'."""
        return ";".join("".join(self.element_text(c) for c in row) for row in basis)

    def parse(self, text, n):
        """Rows of a text basis; ValueError on a malformed row."""
        rows = []
        for part in text.split(";") if text else []:
            if len(part) != n * self.e:
                raise ValueError(f"row {part!r} has the wrong length")
            row = []
            for i in range(n):
                group = part[i * self.e:(i + 1) * self.e]
                digits = [DIGITS.index(ch) for ch in reversed(group)]
                if any(d >= self.p for d in digits):
                    raise ValueError(f"digit out of range in {group!r}")
                row.append(self.from_digits(digits))
            rows.append(tuple(row))
        return rows

    def rref(self, rows, n):
        """Canonical reduced row echelon basis of the span of rows."""
        work = [list(r) for r in rows]
        basis = []
        for col in range(n):
            pivot = next((r for r in work if r[col]), None)
            if pivot is None:
                continue
            work.remove(pivot)
            inv = self.inv[pivot[col]]
            pivot = [self.mul[inv][c] for c in pivot]
            for r in work + basis:
                c = r[col]
                if c:
                    for j in range(n):
                        r[j] = self.sub[r[j]][self.mul[c][pivot[j]]]
            basis.append(pivot)
        return [tuple(r) for r in basis]

    def is_rref(self, basis):
        """Structural RREF: nonzero rows, unit pivots, increasing pivot
        columns, every pivot column zero outside its own row."""
        pivots = []
        for row in basis:
            pc = next((j for j, c in enumerate(row) if c), None)
            if pc is None or row[pc] != 1 or (pivots and pc <= pivots[-1]):
                return False
            pivots.append(pc)
        return all(
            row[pc] == 0 for i, row in enumerate(basis) for j, pc in enumerate(pivots) if i != j
        )


def sample_process_subspace(rng, n, theta, field):
    """Canonical basis of a draw from the law of V_n (Bernoulli growth with a
    uniform dilation on each success), from the benchmark's own RNG."""
    q = field.q
    rows = []
    for m in range(n):
        if rng.random() < bernoulli_p(theta, q, m):
            x = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
            rows.append(x + [0] * (n - m - 1))
    return field.rref(rows, n)
