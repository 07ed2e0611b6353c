import itertools
import random

import pytest

from qgrass import gf, qcomb

F2 = gf.FieldSpec(2)
F3 = gf.FieldSpec(3)
F4 = gf.FieldSpec(4)
F5 = gf.FieldSpec(5)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        gf.FieldSpec(6)  # not a prime power
    with pytest.raises(ValueError):
        gf.FieldSpec(1)
    with pytest.raises(ValueError):
        gf.FieldSpec(2**17)  # beyond the supported order envelope
    with pytest.raises(ValueError):
        gf.FieldSpec(4, modulus=(0, 0, 1))  # x^2, reducible
    with pytest.raises(ValueError):
        gf.FieldSpec(4, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2
    custom = gf.FieldSpec(9, modulus=(2, 2, 1))  # x^2+2x+2, irreducible
    assert custom.q == 9 and custom != gf.FieldSpec(9)


def test_field_arithmetic_above_table_limit():
    # q = 257 exceeds the multiplication-table threshold; exercises the
    # direct arithmetic path
    f = gf.FieldSpec(257)
    assert f.mul(200, 200) == (200 * 200) % 257
    for a in (1, 2, 100, 256):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ValueError):
        gf.FieldSpec(7**4)  # extension order without a built-in modulus


@pytest.mark.parametrize("q", [4, 8, 9])
def test_field_axioms_exhaustive(q):
    f = gf.FieldSpec(q)
    els = list(f.elements())
    for a, b, c in itertools.product(els, repeat=3):
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els[1:]:
        assert f.mul(a, f.inv(a)) == 1
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, 1) == a


def test_rref_examples():
    z = gf.rref([], 3, F2)
    assert z.dim == 0 and z.basis == ()
    full = gf.rref([(1, 1), (0, 1)], 2, F2)
    assert full.basis == ((1, 0), (0, 1))
    v = gf.rref([(2, 4, 0)], 3, F5)
    assert v.basis == ((1, 2, 0),)  # scaled by 2^-1 = 3 mod 5


def test_rref_canonicity_randomized():
    rng = random.Random(99)
    for _ in range(200):
        field = rng.choice([F2, F3, F5])
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        rows = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(k)]
        v = gf.rref(rows, n, field)
        # shuffle rows, rescale by random nonzero constants, add row multiples
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        for r in mixed:
            c = rng.randrange(1, field.q)
            for j in range(n):
                r[j] = field.mul(c, r[j])
        if len(mixed) >= 2:
            src, dst = rng.sample(range(len(mixed)), 2)
            c = rng.randrange(field.q)
            for j in range(n):
                mixed[dst][j] = field.add(mixed[dst][j], field.mul(c, mixed[src][j]))
        assert gf.rref(mixed, n, field) == v


def test_contains():
    line_x = gf.rref([(1, 0)], 2, F2)
    line_y = gf.rref([(0, 1)], 2, F2)
    zero = gf.zero_subspace(2, F2)
    assert line_x.contains(zero)
    assert line_x.contains(line_x)
    assert not line_x.contains(line_y)
    with pytest.raises(ValueError):
        line_x.contains(gf.zero_subspace(3, F2))


def test_sum_intersect_examples():
    line_x = gf.rref([(1, 0)], 2, F2)
    line_y = gf.rref([(0, 1)], 2, F2)
    zero = gf.zero_subspace(2, F2)
    assert line_x.sum(zero) == line_x
    assert line_x.intersect(line_x) == line_x
    assert line_x.sum(line_y) == gf.full_space(2, F2)
    assert line_x.intersect(line_y) == zero


def test_dimension_formula_randomized():
    rng = random.Random(2024)
    for _ in range(500):
        field = rng.choice([F2, F3])
        n = rng.randint(1, 5)
        u = gf.rref(
            [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(rng.randint(0, n))],
            n,
            field,
        )
        w = gf.rref(
            [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(rng.randint(0, n))],
            n,
            field,
        )
        s = u.sum(w)
        i = u.intersect(w)
        assert u.dim + w.dim == s.dim + i.dim
        assert s.contains(u) and s.contains(w)
        assert u.contains(i) and w.contains(i)


def test_enumerate_grassmannian_counts():
    for q, field in ((2, F2), (3, F3), (4, F4)):
        for n in range(6):
            for k in range(n + 1):
                spaces = list(gf.enumerate_grassmannian(k, n, field))
                assert len(spaces) == qcomb.q_binomial(n, k, q)
                assert len(set(spaces)) == len(spaces)
    for n in range(5):
        for k in range(n + 1):
            spaces = list(gf.enumerate_grassmannian(k, n, F5))
            assert len(spaces) == qcomb.q_binomial(n, k, 5)


def test_enumerate_grassmannian_edges_and_order():
    only = list(gf.enumerate_grassmannian(0, 3, F2))
    assert only == [gf.zero_subspace(3, F2)]
    lines = [gf.format_subspace(v) for v in gf.enumerate_grassmannian(1, 2, F2)]
    assert lines == ["10", "11", "01"]  # pivot sets lex, then free entries lex


def test_enumerate_grassmannian_guard():
    big = gf.FieldSpec(2)
    with pytest.raises(ValueError, match="guard"):
        list(gf.enumerate_grassmannian(13, 26, big))


def test_dilations_counts_and_property():
    z0 = gf.zero_subspace(0, F2)
    d0 = gf.dilations(z0)
    assert len(d0) == 1 and d0[0] == gf.full_space(1, F2)
    z1 = gf.zero_subspace(1, F2)
    assert len(gf.dilations(z1)) == 2
    line = gf.rref([(1, 0)], 2, F2)
    assert len(gf.dilations(line)) == 2
    for field in (F2, F3):
        q = field.q
        for n in range(4):
            for k in range(n + 1):
                for w in gf.enumerate_grassmannian(k, n, field):
                    dils = gf.dilations(w)
                    assert len(dils) == q ** (n - k)
                    assert len(set(dils)) == len(dils)
                    we = w.embedded(1)
                    amb = gf.full_space(n, field).embedded(1)
                    for v in dils:
                        assert v.dim == k + 1
                        assert v.contains(we)
                        assert not amb.contains(v)


def test_dilations_against_filter_oracle():
    # independent oracle: filter the full Grassmannian one level up
    for field in (F2, F3):
        for n in range(3):
            for k in range(n + 1):
                amb = gf.full_space(n, field).embedded(1)
                for w in gf.enumerate_grassmannian(k, n, field):
                    we = w.embedded(1)
                    expect = {
                        v
                        for v in gf.enumerate_grassmannian(k + 1, n + 1, field)
                        if v.contains(we) and not amb.contains(v)
                    }
                    assert set(gf.dilations(w)) == expect


def test_format_parse_round_trip():
    v = gf.rref([(1, 0, 1), (0, 1, 1)], 3, F2)
    text = gf.format_subspace(v)
    assert text == "101;011"
    back, canonical = gf.parse_subspace(text, 3, F2)
    assert back == v and canonical
    # non-RREF input re-canonicalizes with the flag cleared
    back2, canonical2 = gf.parse_subspace("011;101", 3, F2)
    assert back2 == v and not canonical2
    z, ok = gf.parse_subspace("", 4, F2)
    assert z.dim == 0 and ok


def test_format_parse_extension_field():
    v = gf.rref([(1, 3), (0, 0)], 2, F4)
    text = gf.format_subspace(v)
    back, canonical = gf.parse_subspace(text, 2, F4)
    assert back == v and canonical
    with pytest.raises(ValueError):
        gf.parse_subspace("10", 3, F2)  # wrong digit count
