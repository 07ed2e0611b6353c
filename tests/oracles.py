"""Oracles that only the tests use, kept out of the library: the exact
rational pmf of Bin_q(n, theta) and law of V_n, and the inverse of the
telescoped energies of a flag model."""

from fractions import Fraction

from qgrass.qcomb import pochhammer, q_binomial


def pmf_fraction(k, n, theta, q):
    """Exact rational pmf for rational theta (oracle path)."""
    t = Fraction(theta)
    if k < 0 or k > n:
        return Fraction(0)
    num = q_binomial(n, k, q) * Fraction(q) ** (k * (k - 1) // 2) * t**k
    return num / pochhammer(-t, q, n)


def exact_pmf_fraction(k, n, theta, q):
    """Exact rational Pr{V_n = v}, dim v = k, for rational theta (oracle path)."""
    return pmf_fraction(k, n, theta, q) / q_binomial(n, k, q)


def energies_from_telescoped(tilde_energies):
    """Convert telescoped increments back to level energies.

    With E_{m+1} = 0 and tilde E_i = E_i - E_{i+1}, the inverse is the
    reversed cumulative sum E_i = sum_{j >= i} tilde E_j.
    """
    out = []
    acc = 0.0
    for t in reversed(list(tilde_energies)):
        acc += float(t)
        out.append(acc)
    return list(reversed(out))
