"""Deformed logarithms, Tsallis/Shannon entropies, and the growth-rate
checks that tie multinomial and q-multinomial coefficients to them.
"""

import math

from .qcomb import _euler_product, _tail_product, multinomial, q_multinomial

PROB_SUM_TOL = 1e-12
CHAIN_RULE_TOL = 1e-12


def check_prob_vector(probs):
    probs = [float(p) for p in probs]
    if not probs:
        raise ValueError("probability vector must be nonempty")
    for p in probs:
        if not -PROB_SUM_TOL <= p <= 1 + PROB_SUM_TOL:  # refuses NaN too
            raise ValueError(f"probability {p!r} outside [0, 1]")
    if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")
    return probs


def ln_alpha(x, alpha):
    """Deformed logarithm: integral of t^-alpha from 1 to x.

    ln_1 is the natural logarithm; otherwise (x^(1-alpha) - 1)/(1 - alpha).
    """
    if not x > 0:
        raise ValueError(f"x must be positive, got {x!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if alpha == 1:
        return math.log(x)
    return (x ** (1.0 - alpha) - 1.0) / (1.0 - alpha)


def tsallis_entropy(probs, alpha):
    """Expected alpha-surprise of a finite law (0 ln 0 = 0 convention)."""
    probs = check_prob_vector(probs)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if alpha == 1:
        return -sum(p * math.log(p) for p in probs if p > 0)
    return (1.0 - sum(p**alpha for p in probs if p > 0)) / (alpha - 1.0)


def quadratic_entropy(probs):
    """H_2 = 1 - sum p_i^2."""
    probs = check_prob_vector(probs)
    return 1.0 - sum(p * p for p in probs)


def binary_quadratic_entropy(t):
    """H_2 of the two-point law (t, 1-t); accepts any t in [0, 1]."""
    return 1.0 - t * t - (1.0 - t) ** 2


def check_chain_rule(joint, alpha):
    """Verify the alpha-entropy chain rule on a grid law, to CHAIN_RULE_TOL.

    joint is a row-major matrix P(x, y); the rule states
    H_a[(X,Y)] = H_a[X] + sum_x P(x)^a H_a[Y | X=x].
    """
    flat = [p for row in joint for p in row]
    check_prob_vector(flat)
    h_joint = tsallis_entropy(flat, alpha)
    marg_x = [sum(row) for row in joint]
    h_x = tsallis_entropy(marg_x, alpha)
    rhs = h_x
    for px, row in zip(marg_x, joint):
        if px <= 0:
            continue
        cond = [p / px for p in row]
        rhs += px**alpha * tsallis_entropy(cond, alpha)
    return abs(h_joint - rhs) <= CHAIN_RULE_TOL


# -- exact big-integer logarithms -----------------------------------------

def log2_int(m):
    """log2 of a positive big integer: exact bit length + mantissa term.

    Avoids float conversion, which overflows as soon as m exceeds 2^1024.
    """
    if m <= 0:
        raise ValueError("argument must be a positive integer")
    bits = m.bit_length()
    if bits <= 64:
        return math.log2(m)
    shift = bits - 64
    return shift + math.log2(m >> shift)


def log_q_int(m, q):
    return log2_int(m) / math.log2(q)


def ln_int(m):
    return log2_int(m) * math.log(2.0)


# -- asymptotic constants and growth tables -------------------------------

def asymptotic_constant(limits, q):
    """Prefactor of the q-multinomial growth law for given part limits.

    `limits` lists, per part, either a finite limit l_i >= 0 or math.inf;
    an infinite part contributes the conventional factor 1.
    """
    limits = list(limits)
    if not limits:
        raise ValueError("at least one part limit is required")
    if not q >= 2:
        raise ValueError(f"q must be >= 2, got {q!r}")
    out = _euler_product(q) ** (1 - len(limits))
    for l in limits:
        if l == math.inf:
            continue
        if l < 0:
            raise ValueError(f"finite limits must be nonnegative, got {l!r}")
        out *= _tail_product(l, q)
    return out


def round_to_type(probs, n):
    """Largest-remainder rounding of n*probs to integer parts summing to n."""
    probs = check_prob_vector(probs)
    raw = [p * n for p in probs]
    parts = [int(math.floor(r)) for r in raw]
    short = n - sum(parts)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - parts[i], reverse=True)
    for i in order[:short]:
        parts[i] += 1
    return parts


def check_multinomial_asymptotics(probs, n_list):
    """Rows (n, ln(multinomial at rounded type)/n, H_1 target)."""
    probs = check_prob_vector(probs)
    target = tsallis_entropy(probs, 1)
    rows = []
    for n in n_list:
        if n < 1:
            raise ValueError("n must be >= 1")
        parts = round_to_type(probs, n)
        rate = ln_int(multinomial(parts)) / n
        rows.append((n, rate, target))
    return rows


def check_qmultinomial_asymptotics(probs, q, n_list):
    """Rows (n, (2/n^2) log_q(q-multinomial at rounded type), H_2 target)."""
    probs = check_prob_vector(probs)
    target = quadratic_entropy(probs)
    rows = []
    for n in n_list:
        if n < 1:
            raise ValueError("n must be >= 1")
        parts = round_to_type(probs, n)
        rate = 2.0 * log_q_int(q_multinomial(parts, q), q) / (n * n)
        rows.append((n, rate, target))
    return rows
