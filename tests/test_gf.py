"""Finite field construction, indexing, and arithmetic laws."""

import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from fqx import (
    FieldElement,
    FieldMismatchError,
    MAX_FIELD_ORDER,
    Poly,
    QuotientField,
    count_irreducibles,
    density_unimodular,
    digits_to_index,
    elem_from_index,
    elem_to_index,
    factor_prime_power,
    field_from_order,
    index_to_digits,
    make_field,
    poly_from_index,
    poly_from_indices,
)
from fqx.gf import TABLE_MAX_ORDER, FieldSpec, _digitwise_table, is_prime

from oracles import (
    coeff_add,
    coeff_divmod,
    coeff_mul,
    coeff_sub,
    coeff_xgcd,
    sieve_reducible_indices,
)


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


@pytest.mark.parametrize("build", [
    lambda: field_from_order(100000000000031),  # a prime: sqrt(q) trial divisions
    lambda: make_field(3, 10**7),  # a 4.8-million-digit order
    lambda: make_field(2, 10**8),  # an order too long to print
    lambda: make_field(10**5000),  # a characteristic too long to test or print
])
def test_oversized_orders_are_refused_before_any_work(build):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds the supported maximum {MAX_FIELD_ORDER}$"):
        build()
    assert time.perf_counter() - start < 1.0


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


def test_factor_prime_power_runs_in_time_polylog_in_q():
    # trial division took 1.2 s for such a 15-digit prime and grew as
    # sqrt(q); each entry point gets its own q, as factorizations are memoized
    start = time.perf_counter()
    assert factor_prime_power(100000000000031) == (100000000000031, 1)
    assert count_irreducibles(100000000000067, 1) == 100000000000067
    assert density_unimodular(100000000000097, 1, 2) == Fraction(100000000000096, 100000000000097)
    assert factor_prime_power((10**9 + 7) ** 3) == (10**9 + 7, 3)
    assert factor_prime_power(3**200) == (3, 200)
    assert time.perf_counter() - start < 0.5
    # strong pseudoprimes to bases 2 (2047) and 2, 3, 5, 7 (3215031751),
    # a Carmichael number and a square of a prime power
    for bad in (2047, 3215031751, 561, 10**30, 6**20, (2**61 - 1) ** 2 * 3):
        with pytest.raises(ValueError, match="not a prime power"):
            factor_prime_power(bad)
    assert [n for n in range(10**4) if is_prime(n)] == [
        n for n in range(2, 10**4) if all(n % d for d in range(2, math.isqrt(n) + 1))
    ]
    # a prime base past the Miller-Rabin bound cannot be certified
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        factor_prime_power((2**89 - 1) ** 2)


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


def _oracle(spec):
    """add, sub, mul and inv on element indices, apart from the field's own arithmetic.

    GF(p) computes on ints mod p.  GF(p^e) computes on lists of GF(p)
    coefficients with the coefficient oracles, mod the field's modulus.
    """
    p = spec.p
    if spec.e == 1:
        return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                lambda a, b: a * b % p, lambda a: pow(a, -1, p))
    fp = make_field(p)
    modulus = [fp.element(d) for d in spec.modulus]

    def coeffs(i):
        return [fp.element(d) for d in index_to_digits(p, i)]

    def index(cs):
        return digits_to_index(p, [c.index for c in cs])

    def mul(a, b):
        return index(coeff_divmod(fp, coeff_mul(fp, coeffs(a), coeffs(b)), modulus)[1])

    def inv(a):
        g, s, _ = coeff_xgcd(fp, coeffs(a), modulus)
        assert index(g) == 1
        return index(coeff_divmod(fp, s, modulus)[1])

    return (lambda a, b: index(coeff_add(fp, coeffs(a), coeffs(b))),
            lambda a, b: index(coeff_sub(fp, coeffs(a), coeffs(b))), mul, inv)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_tables_match_digit_arithmetic(q):
    spec = field_from_order(q)
    add, sub, mul, inv = _oracle(spec)
    elems = list(spec.elements())
    for a in elems:
        assert (-a).index == sub(0, a.index)
        if a:
            assert a.inverse().index == inv(a.index)
        for b in elems:
            assert (a + b).index == add(a.index, b.index)
            assert (a - b).index == sub(a.index, b.index)
            assert (a * b).index == mul(a.index, b.index)


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
    add, _, mul, inv = _oracle(spec)
    rng = random.Random(256)
    for _ in range(2000):
        a = spec.element(rng.randrange(spec.q))
        b = spec.element(rng.randrange(1, spec.q))
        assert (a * b).index == mul(a.index, b.index)
        assert (a + b).index == add(a.index, b.index)
        assert b.inverse().index == inv(b.index)


def test_field_above_the_cap_uses_digit_arithmetic():
    # GF(257^2) reduces and inverts its digits mod a prime above the cap
    for spec in (make_field(257, 2), make_field(65537), make_field(3, 6)):
        assert spec.q > TABLE_MAX_ORDER
        _, sub, mul, inv = _oracle(spec)
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
        # the digit results agree with the oracle and with their own indices
        for a, b in pairs[:100]:
            for r, want in ((a * b, mul(a.index, b.index)), (a - b, sub(a.index, b.index)),
                            (b.inverse(), inv(b.index)), (-a, sub(0, a.index))):
                assert r.index == want == FieldElement(spec, r.digits).index
        # nothing is interned, and every table computes its entries when read
        assert spec._elements is None
        tables = spec._tables
        assert not any(isinstance(t, list) for t in (tables.add, tables.sub, tables.mul, tables.inv))


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
    """The rows of the digit-wise table built by calling ``op`` on every digit pair."""
    ops = [[op(a0, b0) for b0 in range(base)] for a0 in range(base)]
    rows = ops
    for _ in range(width - 1):
        rows = [[d + base * s for s in row for d in ds] for row in rows for ds in ops]
    return rows


@pytest.mark.parametrize(
    "p,width", [(2, 1), (3, 1), (5, 1), (257, 1), (509, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]
)
def test_digitwise_tables_equal_the_op_built_ones(p, width):
    add = _table_by_op(lambda a, b: (a + b) % p, p, width)
    sub = _table_by_op(lambda a, b: (a - b) % p, p, width)
    assert _digitwise_table(p, p**width) == add
    assert _digitwise_table(p, p**width, subtract=True) == sub


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 256])
def test_field_is_the_quotient_by_its_modulus(q):
    # GF(p^e) is GF(p)[y]/(m), with the same residue indices: the tables agree entry for entry
    spec = field_from_order(q)
    field = QuotientField(poly_from_indices(make_field(spec.p), spec.modulus))
    elems, residues = list(spec.elements()), list(field.elements())
    assert [[(a + b).index for b in elems] for a in elems] == [
        [(x + y).index for y in residues] for x in residues
    ]
    assert [[(a - b).index for b in elems] for a in elems] == field.sub
    assert [[(a * b).index for b in elems] for a in elems] == field.mul
    assert [0] + [a.inverse().index for a in elems[1:]] == field.inv


@pytest.mark.parametrize("p,e", [(3, 6), (257, 2)])
def test_field_above_the_cap_is_the_quotient_by_its_modulus(p, e):
    spec = make_field(p, e)
    field = QuotientField(poly_from_indices(make_field(p), spec.modulus))
    rng = random.Random(spec.q)
    for _ in range(300):
        a, b = spec.element(rng.randrange(spec.q)), spec.element(rng.randrange(1, spec.q))
        assert (a + b).index == (field.from_index(a.index) + field.from_index(b.index)).index
        assert (a - b).index == field.sub[a.index][b.index]
        assert (a * b).index == field.mul[a.index][b.index]
        assert b.inverse().index == field.inv[b.index]


def test_untabled_rows_stop_at_the_order():
    # rows above the table caps compute their entries when read; iterating
    # one lists exactly the order's entries, in index order
    field = QuotientField(poly_from_index(make_field(2), (1 << 10) | (1 << 3) | 1))
    assert field.order == 1024 and not isinstance(field.mul, list)
    row = field.mul[3]
    assert len(row) == len(field.mul) == len(field.inv) == 1024
    assert list(row) == [row[b] for b in range(1024)]
    inverses = list(field.inv)
    assert inverses[:2] == [0, 1] and all(field.mul[inverses[a]][a] == 1 for a in range(1, 1024))
    spec = make_field(3, 6)
    assert len(list(spec._tables.sub[7])) == spec.q
    assert list(make_field(65537)._tables.inv)[:2] == [0, 1]  # inv[0] is a placeholder
