import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        gf.FieldSpec(65535)  # 3 * 5 * 17 * 257
    big = gf.FieldSpec(65521)  # the largest prime below 2^16
    assert (big.p, big.e) == (65521, 1)
    with pytest.raises(ValueError):
        gf.FieldSpec(4, modulus=(0, 0, 1))  # x^2, reducible
    with pytest.raises(ValueError):
        gf.FieldSpec(4, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2
    custom = gf.FieldSpec(9, modulus=(2, 2, 1))  # x^2+2x+2, irreducible
    assert custom.q == 9 and custom != gf.FieldSpec(9)


def test_field_arithmetic_above_table_limit():
    # q = 257 exceeds the table limit, which binds extension fields only
    f = gf.FieldSpec(257)
    assert f.mul(200, 200) == (200 * 200) % 257
    for a in (1, 2, 100, 256):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ValueError):
        gf.FieldSpec(7**4)  # extension order without a built-in modulus


@pytest.mark.parametrize("p", [251, 257, 65521])
def test_prime_field_arithmetic_is_modular(p):
    f = gf.FieldSpec(p)
    assert f._mul_table is None and f._inv_table is None
    rng = random.Random(p)
    for _ in range(2000):
        a, b = rng.randrange(p), rng.randrange(p)
        assert f.mul(a, b) == a * b % p
    units = range(1, p) if p == 251 else [rng.randrange(1, p) for _ in range(2000)]
    for a in units:
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


EXPLICIT_MODULI = {
    32: (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1 over F_2
    243: (1, 0, 0, 0, 2, 1),  # x^5 + 2x^4 + 1 over F_3
}
UNTABLED_MODULI = {
    512: (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),  # x^9 + x^8 + 1 over F_2
    729: (1, 0, 0, 0, 1, 1, 1),  # x^6 + x^5 + x^4 + 1 over F_3
}


@pytest.mark.parametrize("q", sorted(gf._DEFAULT_MODULI) + sorted(EXPLICIT_MODULI))
def test_extension_field_tables_match_slow_product(q):
    f = gf.FieldSpec(q, EXPLICIT_MODULI.get(q))
    for a, b in itertools.product(f.elements(), repeat=2):
        assert f.mul(a, b) == f._mul_slow(a, b)
    for a in range(1, q):
        assert f._mul_slow(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 5, 7] + sorted(gf._DEFAULT_MODULI) + sorted(EXPLICIT_MODULI))
def test_field_arithmetic_matches_digit_reference(q, reference_field):
    f = gf.FieldSpec(q, EXPLICIT_MODULI.get(q))
    ref = reference_field(f)
    for a, b in itertools.product(f.elements(), repeat=2):
        assert f.add(a, b) == ref.add(a, b)
        assert f.sub(a, b) == ref.difference[a][b]
        assert f.mul(a, b) == ref.product[a][b]
    assert [f.neg(a) for a in f.elements()] == [ref.neg(a) for a in f.elements()]


@pytest.mark.parametrize("q", sorted(UNTABLED_MODULI))
def test_untabled_extension_fields_match_digit_reference(q, reference_field):
    # above _TABLE_LIMIT: characteristic 2 subtracts by XOR, odd
    # characteristic digit by digit, and both multiply by the slow product
    f = gf.FieldSpec(q, UNTABLED_MODULI[q])
    assert f._mul_table is None
    ref = reference_field(f)
    rng = random.Random(q)
    for _ in range(300):
        a, b = rng.randrange(q), rng.randrange(q)
        assert (f.add(a, b), f.sub(a, b), f.neg(a)) == (ref.add(a, b), ref.sub(a, b), ref.neg(a))
        assert f.mul(a, b) == ref.mul(a, b)
    # rref of (1, a, 0), (c, b, 1): the second row reduces to (0, d, 1)
    # with d = b - c*a, so the basis is (1, 0, -a/d), (0, 1, 1/d)
    for _ in range(3):
        a, b, c = (rng.randrange(q) for _ in range(3))
        d = ref.sub(b, ref.mul(c, a))
        if not d:
            continue
        d_inv = ref.inv(d)
        v = gf.rref([(1, a, 0), (c, b, 1)], 3, f)
        assert v.basis == ((1, 0, ref.neg(ref.mul(a, d_inv))), (0, 1, d_inv))


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


@pytest.mark.parametrize("n", [0, 1, 5, 63, 64, 65, 130])
def test_rref_f2_matches_reference(n, rref_reference):
    rng = random.Random(n)
    ones, zeros = (1, 3, -1, True), (0, 2, -2, False)  # entries reduce by int(c) % 2
    for _ in range(12 if n < 100 else 4):
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(rng.randint(0, n + 3))]
        if rows:
            rows.append([0] * n)
            rows.append(list(rng.choice(rows)))
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([x ^ y for x, y in zip(a, b)])
            rng.shuffle(rows)
        basis, pivots = rref_reference(rows, n, F2)
        odd = [[rng.choice(ones) if c else rng.choice(zeros) for c in row] for row in rows]
        v = gf.rref(odd, n, F2)
        assert (v.basis, v.pivot_cols) == (basis, pivots)
        packed = [int("".join(map(str, row)) or "0", 2) for row in rows]
        assert gf.rref(packed, n, F2) == v
        assert gf.rref(packed[: len(rows) // 2] + rows[len(rows) // 2 :], n, F2) == v
    with pytest.raises(ValueError, match=f"row length {n + 1} != ambient dimension {n}"):
        gf.rref([[1] * (n + 1)], n, F2)
    for bad in (-1, 1 << n):
        with pytest.raises(ValueError):
            gf.rref([bad], n, F2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 243])
def test_rref_packed_rows_every_field(q, rref_reference):
    # a row (c_1..c_n) packs to sum c_i q^(n-i), the integer of its text
    field = gf.FieldSpec(q, EXPLICIT_MODULI.get(q))
    rng = random.Random(q)

    def pack(row):
        return sum(c * q ** (len(row) - 1 - i) for i, c in enumerate(row))

    for n in (0, 1, 4, 9):
        for _ in range(10):
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, n + 2))]
            v = gf.rref(rows, n, field)
            assert (v.basis, v.pivot_cols) == rref_reference(rows, n, field)
            packed = [pack(row) for row in rows]
            half = len(rows) // 2
            assert gf.rref(packed, n, field) == v
            assert gf.rref(packed[:half] + rows[half:], n, field) == v
            assert gf.rref(rows[:half] + packed[half:], n, field) == v
            shifted = [[c + q * rng.randint(-2, 2) for c in row] for row in rows]
            assert gf.rref(shifted, n, field) == v  # entries reduce mod q
            texts = gf.format_subspace(v).split(";") if v.basis else []
            assert [gf.to_text(pack(row), n * field.e, field.p) for row in v.basis] == texts
        for bad in (-1, q**n):
            with pytest.raises(ValueError, match=f"packed row {bad} is not in range"):
                gf.rref([bad], n, field)
    assert gf.rref([[True, -1, q + 1]], 3, field) == gf.rref([[1, q - 1, 1]], 3, field)


def test_contains():
    line_x = gf.rref([(1, 0)], 2, F2)
    line_y = gf.rref([(0, 1)], 2, F2)
    zero = gf.zero_subspace(2, F2)
    assert line_x.contains(zero)
    assert line_x.contains(line_x)
    assert not line_x.contains(line_y)
    with pytest.raises(ValueError):
        line_x.contains(gf.zero_subspace(3, F2))


def test_contains_vector_checks_its_length():
    # a vector is read as rref reads a row: its length must be n, entries
    # reduce mod q, and an int is a packed row
    for field in (F2, F3):
        v = gf.rref([(1, 0, 0)], 3, field)
        assert v.contains_vector([1, 0, 0]) and v.contains_vector([field.q + 1, 0, 0])
        assert not v.contains_vector([0, 0, 1]) and not v.contains_vector((1, 1, 0))
        assert v.contains_vector(field.q**2) and not v.contains_vector(1)
        for vec in ([1], [1, 2], [1, 0, 0, 1]):
            with pytest.raises(ValueError, match=f"row length {len(vec)} != ambient dimension 3"):
                v.contains_vector(vec)
        with pytest.raises(ValueError, match="is not in range"):
            v.contains_vector(field.q**3)


def _pack_reference(row, q):
    return sum(c * q ** (len(row) - 1 - j) for j, c in enumerate(row))


def _coordinate_text(c, field):
    digits = [(c // field.p**i) % field.p for i in range(field.e)]
    return "".join("0123456789abcdefghijklmnopqrstuvwxyz"[d] for d in reversed(digits))


def _every_builder(field, rng):
    """Subspaces from every builder of gf over field, with the builder's name."""
    q = field.q
    out = [("zero_subspace", gf.zero_subspace(4, field)), ("full_space", gf.full_space(4, field))]
    for n in (0, 1, 3, 5):
        for _ in range(4):
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
            v = gf.rref(rows, n, field)
            echelon = gf.Echelon(field, n)
            for row in rows[::-1]:
                echelon.insert(_pack_reference(row, q))
            w = echelon.subspace()
            out += [("rref", v), ("Echelon.subspace", w), ("sum", v.sum(w)), ("intersect", v.intersect(w))]
            other = gf.rref([[rng.randrange(q) for _ in range(n)] for _ in range(2)], n, field)
            out += [("sum", v.sum(other)), ("intersect", v.intersect(other))]
    state = gf._Annihilator(field, 6)
    for k in range(6):
        if rng.random() < 0.4:
            state.embed()
        else:
            x = rng.getrandbits(k) if q == 2 else [rng.randrange(q) for _ in range(k)]
            state.dilate(x, rng.randrange(1, q))
        out.append(("_Annihilator.subspace", state.subspace()))
    out += [("enumerate_grassmannian", v) for k in range(3) for v in gf.enumerate_grassmannian(k, 2, field)]
    for k, n in ((1, 3), (2, 4), (3, 5)):
        size = qcomb.q_binomial(n, k, q)
        out += [("_unrank_in_class", gf._unrank_in_class(rng.randrange(size), k, n, field)) for _ in range(3)]
    built = [v for _, v in out]
    out += [("embedded", v.embedded(rng.randint(1, 2))) for v in built]
    if field.p <= gf.TEXT_BASE_MAX:
        out += [("parse_subspace", gf.parse_subspace(gf.format_subspace(v), v.ambient_dim, field)[0])
                for v in built]
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 37])
def test_packed_rows_of_every_builder(q):
    field = gf.FieldSpec(q)
    rng = random.Random(q)
    spaces = _every_builder(field, rng)
    assert {name for name, _ in spaces} == {
        "zero_subspace", "full_space", "rref", "Echelon.subspace", "sum", "intersect",
        "_Annihilator.subspace", "enumerate_grassmannian", "_unrank_in_class", "embedded",
    } | ({"parse_subspace"} if field.p <= gf.TEXT_BASE_MAX else set())
    for name, v in spaces:
        n = v.ambient_dim
        # the rows are the packing of the basis, whichever form the builder held
        assert v.rows == tuple(_pack_reference(row, q) for row in v.basis), name
        assert all(len(row) == n for row in v.basis), name
        assert v.pivot_cols == tuple(next(j for j, c in enumerate(row) if c) for row in v.basis), name
        assert v.dim == len(v.rows) == len(v.basis), name
        if field.p <= gf.TEXT_BASE_MAX or not v.dim:
            expected = ";".join("".join(_coordinate_text(c, field) for c in row) for row in v.basis)
            assert gf.format_subspace(v) == expected, name
        else:
            with pytest.raises(ValueError):
                gf.format_subspace(v)
        # == and hash follow the rows: the same rows from packed ints and from
        # entries give the same subspace
        twins = [gf.rref(v.rows, n, field), gf.rref(v.basis, n, field)]
        for w in twins:
            assert w == v and hash(w) == hash(v) and w.rows == v.rows, name
    for (_, a), (_, b) in itertools.combinations(spaces, 2):
        same = (a.ambient_dim, a.rows) == (b.ambient_dim, b.rows)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)


def test_subspace_forms_are_keyword_only():
    # a call with the entry rows in third place is refused, not stored as rows
    with pytest.raises(TypeError):
        gf.Subspace(F2, 3, ((1, 0, 0),), (0,))
    v = gf.Subspace(F2, 3, (0,), _basis=((1, 0, 0),))
    assert v == gf.rref([[1, 0, 0]], 3, F2) and v.rows == (4,)


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


def test_f2_subspace_operations_match_reference(rref_reference):
    rng = random.Random(70)
    for _ in range(200):
        n = rng.randint(1, 70)
        u_rows, w_rows = (
            [[rng.randrange(2) for _ in range(n)] for _ in range(rng.randint(0, n))]
            for _ in range(2)
        )
        u, w = gf.rref(u_rows, n, F2), gf.rref(w_rows, n, F2)
        s, i = u.sum(w), u.intersect(w)
        assert (s.basis, s.pivot_cols) == rref_reference(u_rows + w_rows, n, F2)
        # the Zassenhaus intersection, eliminated by the reference
        block = [list(r) + list(r) for r in u.basis] + [list(r) + [0] * n for r in w.basis]
        reduced, _ = rref_reference(block, 2 * n, F2)
        inter = [r[n:] for r in reduced if not any(r[:n])]
        assert (i.basis, i.pivot_cols) == rref_reference(inter, n, F2)
        assert u.dim + w.dim == s.dim + i.dim
        assert s.contains(u) and s.contains(w) and u.contains(i) and w.contains(i)
        in_w = len(rref_reference(list(w.basis) + list(u.basis), n, F2)[0]) == w.dim
        assert w.contains(u) == in_w


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
    # entries past one byte: Gr(1, 2) over F_257 has 258 distinct members
    F257 = gf.FieldSpec(257)
    for k, count in ((0, 1), (1, 258), (2, 1)):
        spaces = list(gf.enumerate_grassmannian(k, 2, F257))
        assert len(spaces) == len(set(spaces)) == count


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
    with pytest.raises(ValueError, match="'#'"):
        gf.parse_subspace("1#00;0010", 4, F2)  # the message names the bad digit
    for q in (3, 16, 31):
        field = gf.FieldSpec(q)

        def text(row):
            return "".join(field.element_texts()[c] for c in row)

        a, b = (1, 0, 2, q - 1), (0, 1, q - 1, 1)
        v = gf.rref([a, b], 4, field)
        assert gf.format_subspace(v) == text(a) + ";" + text(b)
        scaled = [field.mul(2, c) for c in a]
        dependent = [field.add(x, y) for x, y in zip(a, b)]
        for rows in ([b, a], [scaled, b], [a, b, dependent], [a, b, (0,) * 4]):
            assert gf.parse_subspace(";".join(map(text, rows)), 4, field) == (v, False)
        assert gf.parse_subspace(f" {text(a).upper()} ; {text(b).upper()} ", 4, field) == (v, True)


def test_format_matches_per_coordinate_reference():
    # reference: each coordinate written as its e base-p digits in turn
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"

    def coordinate(c, field):
        digits = [(c // field.p**i) % field.p for i in range(field.e)]
        return "".join(alphabet[d] for d in reversed(digits))

    rng = random.Random(11)
    for q in (2, 3, 4, 8, 9, 16, 25, 27, 31):
        field = gf.FieldSpec(q)
        spaces = [gf.full_space(5, field), gf.zero_subspace(5, field)]
        for _ in range(30):
            n = rng.randint(1, 7)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(1, n))]
            spaces.append(gf.rref(rows, n, field))
        for v in spaces:
            expected = ";".join(
                "".join(coordinate(c, field) for c in row) for row in v.basis
            )
            assert gf.format_subspace(v) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_format_parse_is_a_bijection(data):
    q = data.draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16)))
    n = data.draw(st.integers(0, 6))
    rows = data.draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=n + 1)
    )
    field = gf.FieldSpec(q)
    v = gf.rref(rows, n, field)
    text = gf.format_subspace(v)
    assert gf.parse_subspace(text, n, field) == (v, True)
    assert gf.parse_subspace(text.upper(), n, field) == (v, True)


def test_repr_without_text_form():
    v = gf.rref([[1, 5, 36]], 3, gf.FieldSpec(37))
    assert repr(v) == "Subspace(q=37, n=3, basis=((1, 5, 36),))"
    assert repr(gf.rref([[1, 1]], 2, F2)) == "Subspace(q=2, n=2, basis='11')"


def test_text_codec_refuses_bases_above_36():
    assert gf.from_text(gf.to_text(1000, 2, 36), 36) == 1000
    for write in (lambda: gf.to_text(5, 2, 37), lambda: gf.from_text("05", 37)):
        with pytest.raises(ValueError, match="text format supports base <= 36"):
            write()
    with pytest.raises(ValueError, match="text format supports base <= 36"):
        gf.parse_subspace("015", 3, gf.FieldSpec(37))


_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _to_text_by_digits(x, length, base):
    """The codec's writer as a digit loop: the oracle of gf.to_text."""
    digits = []
    for _ in range(length):
        x, d = divmod(x, base)
        digits.append(_DIGITS[d])
    return "".join(reversed(digits))


def _from_text_by_digits(text, base):
    """The codec's reader as a digit loop: the oracle of gf.from_text."""
    x = 0
    for ch in text:
        d = _DIGITS.find(ch)
        if not 0 <= d < base:
            raise ValueError(f"digit {ch!r} out of range for base {base}")
        x = x * base + d
    return x


def test_text_codec_matches_the_digit_loops():
    # format() and chunked int() write and read what the digit loops do,
    # past the 4,300-digit limit of int() on one string too
    rng = random.Random("codec")
    chunk = gf._INT_CHUNK
    for base in range(2, 37):
        for length in (0, 1, 2, chunk - 1, chunk, chunk + 1, 5000):
            for x in {0, base**length - 1, rng.randrange(base**length)}:
                text = _to_text_by_digits(x, length, base)
                assert gf.to_text(x, length, base) == text, (base, length)
                assert gf.from_text(text, base) == x, (base, length)
    for base in (2, 3, 10, 16, 36):
        for length in range(12):
            for _ in range(5):
                x = rng.randrange(base**length)
                text = gf.to_text(x, length, base)
                assert text == _to_text_by_digits(x, length, base)
                assert gf.from_text(text, base) == x


def _read(read, text, base):
    try:
        return read(text, base)
    except ValueError as exc:
        return str(exc)


def test_text_codec_refuses_what_int_would_read():
    # int() alone would read a sign, '_', whitespace, an uppercase or a
    # non-ASCII digit; the codec names the first offender as the loop did
    for base in range(2, 37):
        top = _DIGITS[base - 1]
        refused = ["A1", "1Z", "1_0", "_1", " 1", "1 ", "1\n", "-1", "+1", "٣", "1٣",
                   "1.0", "0X1"]
        if base < 36:
            refused += [_DIGITS[base], f"0{_DIGITS[base]}1"]
        for text in refused + ["", f"{top}0", f"{top}{top.upper()}", "0x1"]:
            want = _read(_from_text_by_digits, text, base)
            assert _read(gf.from_text, text, base) == want, (base, text)
            assert isinstance(want, str) or text not in refused
    long_text = "1" * 5000 + "2"
    assert _read(gf.from_text, long_text, 2) == "digit '2' out of range for base 2"
