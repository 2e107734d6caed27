"""Finite field construction, indexing, and arithmetic laws."""

import pickle
import random

import pytest

from fqx import (
    FieldElement,
    FieldMismatchError,
    MAX_FIELD_ORDER,
    Poly,
    digits_to_index,
    elem_from_index,
    elem_to_index,
    factor_prime_power,
    field_from_order,
    make_field,
)
from fqx.gf import (
    TABLE_MAX_ORDER,
    FieldSpec,
    _digit_add,
    _digit_inverse,
    _digit_mul,
    _digit_neg,
    _digit_sub,
    _digitwise_table,
    _FieldTables,
    is_prime,
)

from oracles import sieve_reducible_indices


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError, match="p not prime"):
        make_field(4)
    with pytest.raises(ValueError, match="p not prime"):
        make_field(1)
    with pytest.raises(ValueError, match="p not prime"):
        make_field(15, 2)


def test_make_field_rejects_bad_extension_degree():
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(3, -1)


def test_make_field_rejects_oversized_order():
    with pytest.raises(ValueError, match="exceeds"):
        make_field(2, 21)
    # the boundary itself is fine
    assert make_field(2, 20).q == MAX_FIELD_ORDER


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(32) == (2, 5)
    assert factor_prime_power(7) == (7, 1)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_field_from_order_matches_make_field():
    assert field_from_order(8) is make_field(2, 3)
    assert field_from_order(5) is make_field(5)


def test_make_field_is_cached():
    assert make_field(3, 2) is make_field(3, 2)


@pytest.mark.parametrize(
    "p,e,expected",
    [
        # scanning monic degree-e polynomials in index order, the first
        # irreducible wins; frozen values re-derived by the inline scan below
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 1, 0, 1)),
        (3, 2, (1, 0, 1)),
        (5, 2, (2, 0, 1)),
    ],
)
def test_canonical_modulus_frozen(p, e, expected):
    assert make_field(p, e).modulus == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_canonical_modulus_is_first_rootless_quadratic(p):
    # independent re-derivation for e = 2: a quadratic is reducible over
    # GF(p) exactly when it has a root, so scan constants/linears directly
    for t in range(p * p):
        c0, c1 = t % p, t // p
        if all((v * v + c1 * v + c0) % p for v in range(p)):
            first = (c0, c1, 1)
            break
    assert make_field(p, 2).modulus == first


@pytest.mark.parametrize(
    "p,e",
    [(p, e) for p in range(2, 32) if is_prime(p) for e in range(2, 11) if p**e <= 2**10],
)
def test_canonical_modulus_is_first_unsieved_index(p, e):
    # the sieve marks every product of two monic factors of positive
    # degree, with no irreducibility test of any kind
    prime_field = make_field(p)
    reducible = sieve_reducible_indices(prime_field, e)
    first = next(i for i in range(p**e, 2 * p**e) if i not in reducible)
    assert digits_to_index(p, make_field(p, e).modulus) == first


def test_prime_field_has_no_modulus():
    assert make_field(7).modulus is None


def test_element_index_bijection():
    for q in (2, 3, 4, 5, 8, 9):
        spec = field_from_order(q)
        seen = set()
        for i in range(q):
            a = elem_from_index(spec, i)
            assert elem_to_index(a) == i
            assert a.index == i
            seen.add(a.digits)
        assert len(seen) == q


def test_element_index_out_of_range():
    spec = make_field(3)
    for bad in (-1, 3, 100):
        with pytest.raises(ValueError):
            elem_from_index(spec, bad)


def test_index_zero_and_one_are_the_identities():
    for q in (2, 3, 4, 8, 9, 25):
        spec = field_from_order(q)
        z = spec.element(0)
        o = spec.element(1)
        assert not z and o
        for a in spec.elements():
            assert a + z == a
            assert a * o == a
            assert a * z == z


def test_f4_multiplication_against_inline_reduction():
    # multiply digit vectors as polynomials over GF(2) and reduce mod
    # x^2 + x + 1 by hand: c2 * (x^2) == c2 * (x + 1)
    spec = make_field(2, 2)

    def slow_mul(a, b):
        a0, a1 = a
        b0, b1 = b
        c0 = a0 * b0
        c1 = a0 * b1 + a1 * b0
        c2 = a1 * b1
        return ((c0 + c2) % 2, (c1 + c2) % 2)

    for i in range(4):
        for j in range(4):
            x = spec.element(i)
            y = spec.element(j)
            assert (x * y).digits == slow_mul(x.digits, y.digits)


def test_f4_sample_product():
    spec = make_field(2, 2)
    # x * (x + 1) = x^2 + x = 1 modulo x^2 + x + 1
    assert (spec.element(2) * spec.element(3)).index == 1


@pytest.mark.parametrize("q", [4, 8, 9])
def test_field_laws_exhaustive(q):
    spec = field_from_order(q)
    elems = list(spec.elements())
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert a - b == -(b - a)
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25])
def test_inverses_and_division(q):
    spec = field_from_order(q)
    one = spec.element(1)
    for a in spec.elements():
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        assert a * a.inverse() == one
        assert (a / a) == one
        assert a ** (q - 1) == one  # Fermat
        assert a**-1 == a.inverse()


def test_characteristic_annihilates():
    for q in (2, 3, 4, 9, 25):
        spec = field_from_order(q)
        for a in spec.elements():
            acc = spec.zero()
            for _ in range(spec.p):
                acc = acc + a
            assert acc == spec.zero()


def test_pow_matches_repeated_multiplication():
    rng = random.Random(104)
    spec = make_field(3, 2)
    for _ in range(50):
        a = spec.element(rng.randrange(1, spec.q))
        e = rng.randrange(0, 30)
        expected = spec.element(1)
        for _ in range(e):
            expected = expected * a
        assert a**e == expected


def test_cross_field_operations_rejected():
    a = make_field(2).element(1)
    b = make_field(3).element(1)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_element_constructor_validates_digits():
    spec = make_field(3, 2)
    with pytest.raises(ValueError):
        FieldElement(spec, (0,))
    with pytest.raises(ValueError):
        FieldElement(spec, (3, 0))
    with pytest.raises(ValueError):
        FieldElement(spec, (-1, 0))


def test_pickle_roundtrip():
    spec = make_field(3, 2)
    blob = pickle.dumps(spec)
    assert pickle.loads(blob) is spec  # cache preserved through pickling
    a = spec.element(5)
    assert pickle.loads(pickle.dumps(a)) == a


def test_repr_is_compact():
    spec = make_field(2, 2)
    assert repr(spec) == "GF(4)"
    assert repr(spec.element(3)) == "F4(3)"


# ---------------------------------------------------------------------------
# interned elements and operation tables


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_tables_match_digit_arithmetic(q):
    spec = field_from_order(q)
    p = spec.p
    elems = list(spec.elements())
    for a in elems:
        assert (-a).digits == _digit_neg(p, a.digits)
        if a:
            assert a.inverse().digits == _digit_inverse(spec, a.digits)
        for b in elems:
            assert (a + b).digits == _digit_add(p, a.digits, b.digits)
            assert (a - b).digits == _digit_sub(p, a.digits, b.digits)
            assert (a * b).digits == _digit_mul(spec, a.digits, b.digits)


@pytest.mark.parametrize("q", [4, 27])
def test_table_results_are_interned_and_indexed(q):
    spec = field_from_order(q)
    elems = list(spec.elements())
    for a in elems:
        for b in elems:
            for r in (a + b, a - b, a * b, -a):
                assert r is spec.element(r.index)
                assert FieldElement(spec, r.digits).index == r.index


def test_largest_tabled_field_matches_digit_arithmetic():
    spec = field_from_order(TABLE_MAX_ORDER)
    rng = random.Random(256)
    for _ in range(2000):
        a = spec.element(rng.randrange(spec.q))
        b = spec.element(rng.randrange(1, spec.q))
        assert (a * b).digits == _digit_mul(spec, a.digits, b.digits)
        assert (a + b).digits == _digit_add(spec.p, a.digits, b.digits)
        assert b.inverse().digits == _digit_inverse(spec, b.digits)


def test_field_above_the_cap_uses_digit_arithmetic():
    # GF(257^2) reduces and inverts its digits mod a prime above the cap
    for spec in (make_field(257, 2), make_field(65537), make_field(3, 6)):
        assert spec.q > TABLE_MAX_ORDER
        rng = random.Random(spec.q)
        one = spec.one()
        pairs = [
            (spec.element(rng.randrange(spec.q)), spec.element(rng.randrange(1, spec.q)))
            for _ in range(300)
        ]
        for a, b in pairs:
            assert b * b.inverse() == one
            assert (a * b) / b == a
            assert b ** (spec.q - 1) == one
        assert spec._tables is None
    # GF(3^6)'s digit results agree with log/antilog tables built on the side
    tables = _FieldTables(spec)
    for a, b in pairs:
        assert (a * b).index == tables.mul[a.index * spec.q + b.index]
        assert (a - b).index == tables.sub[a.index * spec.q + b.index]
        assert b.inverse().index == tables.inv[b.index]
    assert spec._tables is None


def test_elements_are_shared():
    for q in (2, 9, 256):
        spec = field_from_order(q)
        for i in (0, 1, q - 1):
            assert spec.element(i) is spec.element(i)
            assert elem_from_index(spec, i) is spec.element(i)
        assert spec.zero() is spec.element(0)
        assert spec.one() is spec.element(1)


def test_constructed_elements_mix_with_interned_ones():
    spec = make_field(3, 2)
    a = FieldElement(spec, (2, 1))
    assert a is not spec.element(5)
    assert a == spec.element(5) and a.index == 5
    assert hash(a) == hash(spec.element(5))
    assert a * a.inverse() is spec.one()
    # an equal spec built outside the cache combines with the cached one
    twin = FieldSpec(3, 2)
    assert twin.element(5) + spec.element(1) == spec.element(3)


@pytest.mark.parametrize("spec", [make_field(3, 2), make_field(3, 6)])
def test_pickled_element_keeps_its_index(spec):
    a = spec.element(7)
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b.index == 7 and b.digits == a.digits


def test_poly_rejects_foreign_coefficients():
    f3, f9 = make_field(3), make_field(3, 2)
    with pytest.raises(FieldMismatchError):
        Poly(f3, [f3.element(1), f9.element(1)])
    with pytest.raises(TypeError):
        Poly(f3, [f3.element(1), 1])


def _table_by_op(op, base, width):
    """The digit-wise table built by calling ``op`` on every digit pair."""
    ops = [[op(a0, b0) for b0 in range(base)] for a0 in range(base)]
    rows = ops
    for _ in range(width - 1):
        rows = [[d + base * s for s in row for d in ds] for row in rows for ds in ops]
    return [s for row in rows for s in row]


@pytest.mark.parametrize(
    "p,width", [(2, 1), (3, 1), (5, 1), (257, 1), (509, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]
)
def test_digitwise_tables_equal_the_op_built_ones(p, width):
    add = _table_by_op(lambda a, b: (a + b) % p, p, width)
    sub = _table_by_op(lambda a, b: (a - b) % p, p, width)
    assert _digitwise_table(p, width) == add
    assert _digitwise_table(p, width, subtract=True) == sub
