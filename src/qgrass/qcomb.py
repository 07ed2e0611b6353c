"""Exact q-combinatorics.

q-integers, q-factorials, Gaussian binomial / q-multinomial coefficients,
finite and infinite q-Pochhammer products, the q-gamma function, and the
polynomial and flag identities built on them.  `_gaussian_column` walks one
column [n, 0]_q .. [n, n]_q of Gaussian binomials, one exact multiply and
divide per entry; the pmf column's linear branch (n <= 30), the class sizes
of the typical set, the greedy set and the block code, and the total
Grassmannian size read it.

All coefficient arithmetic is exact (Python big integers; Fractions for the
polynomial identities).  Floating point appears only in the infinite
products and the q-gamma function.
"""

import functools
import math

INF_PRODUCT_REL_TOL = 1e-15


def _check_q(q):
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")


def _check_flag(parts):
    """Validate a flag type: ordered nonnegative integer parts."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("flag must have at least one part")
    for k in parts:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"flag parts must be nonnegative integers, got {k!r}")
    return parts


def q_integer(n, q):
    """[n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0.  Exact."""
    _check_q(q)
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return (q**n - 1) // (q - 1)


def q_factorial(n, q):
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, empty product for n = 0.  Exact."""
    _check_q(q)
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    out = 1
    acc = 0
    for i in range(n):
        acc = acc * q + 1  # [i+1]_q from [i]_q
        out *= acc
    return out


def q_multinomial(parts, q):
    """q-multinomial coefficient of a flag type: [n]_q! / prod [k_i]_q!.

    The product of the Gaussian binomials [k_1 + ... + k_i choose k_i]_q,
    each the count of the steps of the flag.
    """
    parts = _check_flag(parts)
    _check_q(q)
    out, n = 1, 0
    for k in parts:
        n += k
        out *= q_binomial(n, k, q)
    return out


def q_binomial(n, k, q):
    """Gaussian binomial coefficient: number of k-dim subspaces of F_q^n.

    The product of (q^(n-k+i) - 1) / (q^i - 1) over i = 1..min(k, n-k),
    with one division at the end.  The division is exact for every valid
    input; a nonzero remainder would mean a broken implementation, so it is
    asserted rather than raised.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if not isinstance(k, int) or k < 0 or k > n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k!r}, n={n}")
    _check_q(q)
    k = min(k, n - k)
    num = den = 1
    top, bottom = q ** (n - k), 1
    for _ in range(k):
        top *= q
        bottom *= q
        num *= top - 1
        den *= bottom - 1
    num, rem = divmod(num, den)
    assert rem == 0, "q-binomial division must be exact"
    return num


def _gaussian_column(n, q):
    """Yield [n, k]_q for k = 0..n, each from the last:
    [n, k]_q = [n, k-1]_q (q^(n-k+1) - 1) / (q^k - 1), an exact division.

    By symmetry the k-th entry is also [n, n-k]_q, the size of the
    codimension-k class.  A consumer that stops early pays only for the
    entries it reads.
    """
    coeff = 1
    yield coeff
    for k in range(1, n + 1):
        coeff = coeff * (q ** (n - k + 1) - 1) // (q**k - 1)
        yield coeff


def multinomial(parts):
    """Classical multinomial coefficient n!/prod k_i!.  Exact."""
    parts = _check_flag(parts)
    n = sum(parts)
    num = math.factorial(n)
    for k in parts:
        num //= math.factorial(k)
    return num


def pochhammer(a, x, n):
    """Finite q-Pochhammer symbol (a; x)_n = prod_{k<n} (1 - a x^k).

    Works with ints, Fractions or floats; the result type follows the
    inputs, so exact rational evaluations stay exact.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    out = 1
    term = a
    for _ in range(n):
        out = out * (1 - term)
        term = term * x
    return out


def pochhammer_inf(a, qinv):
    """Infinite product (a; qinv)_inf, truncated once |a qinv^k| < INF_PRODUCT_REL_TOL.

    Requires a finite a and |qinv| < 1 for convergence.
    """
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a!r}")
    if not abs(qinv) < 1:
        raise ValueError(f"need |qinv| < 1 for convergence, got {qinv!r}")
    out = 1.0
    term = float(a)
    while abs(term) >= INF_PRODUCT_REL_TOL:
        out *= 1.0 - term
        term *= qinv
    return out


@functools.cache
def _euler_product(q):
    """(1/q; 1/q)_inf, once per q.  Not _tail_product(0, q): for some q,
    q ** -1.0 and 1.0 / q differ in the last bit."""
    qinv = 1.0 / q
    return pochhammer_inf(qinv, qinv)


@functools.cache
def _tail_product(l, q):
    """(q^-(l+1); 1/q)_inf, once per (l, q)."""
    return pochhammer_inf(q ** -(l + 1.0), 1.0 / q)


def gamma_q(x, q):
    """q-gamma function for x > 0, q > 1 (product form).

    Interpolates the q-factorials: gamma_q(n + 1, q) = [n]_q!.
    """
    if not x > 0:
        raise ValueError(f"x must be positive, got {x!r}")
    if not q > 1:
        raise ValueError(f"q must exceed 1, got {q!r}")
    return (
        _euler_product(q)
        * q ** (x * (x - 1) / 2.0)
        * (q - 1.0) ** (1.0 - x)
        / pochhammer_inf(q**-x, 1.0 / q)
    )


def check_gauss_identity(n, q, x, y):
    """Check (x+y)(x+yq)...(x+yq^(n-1)) = sum_k qbinom(n,k) q^(k(k-1)/2) y^k x^(n-k).

    Evaluated in exact rational arithmetic; returns exact equality.
    """
    _check_q(q)
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    import fractions  # only this check needs it; ~3 ms to load

    x = fractions.Fraction(x)
    y = fractions.Fraction(y)
    lhs = fractions.Fraction(1)
    for i in range(n):
        lhs *= x + y * q**i
    rhs = fractions.Fraction(0)
    for k in range(n + 1):
        rhs += (q_binomial(n, k, q) * fractions.Fraction(q) ** (k * (k - 1) // 2)
                * y**k * x ** (n - k))
    return lhs == rhs


def check_flag_identity(parts, grouping, q):
    """Check the recursive flag-counting identity, exactly.

    The q-multinomial of the full type must equal the q-multinomial of the
    group sums times the product of the within-group q-multinomials.
    `grouping` is a partition of the part indices {0..s-1}, given as a list
    of index lists.
    """
    parts = _check_flag(parts)
    _check_q(q)
    seen = []
    for group in grouping:
        if not group:
            raise ValueError("groups must be nonempty")
        seen.extend(group)
    if sorted(seen) != list(range(len(parts))):
        raise ValueError("grouping must partition the part indices exactly once")

    full = q_multinomial(parts, q)
    group_sums = [sum(parts[i] for i in group) for group in grouping]
    rhs = q_multinomial(group_sums, q)
    for group in grouping:
        rhs *= q_multinomial([parts[i] for i in group], q)
    return full == rhs
