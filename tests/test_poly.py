"""Polynomial ring: enumeration, arithmetic, gcd, irreducibility, text."""

import pickle
import random
import tracemalloc

import pytest

from fqx import (
    BudgetExceededError,
    FieldMismatchError,
    ParseError,
    Poly,
    constant,
    count_irreducibles,
    digits_to_index,
    divides,
    factor_prime_power,
    gcd,
    gen,
    index_to_digits,
    irreducibles_up_to,
    is_irreducible,
    make_field,
    monic_of_degree,
    one,
    poly_from_index,
    poly_from_indices,
    poly_from_string,
    poly_to_index,
    poly_to_pretty,
    poly_to_string,
    xgcd,
    zero,
)
from fqx.poly import MAX_PRETTY_POWER, IrreducibleTable

from oracles import sieve_irreducible_counts, sieve_reducible_indices

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def random_poly(rng, spec, max_degree):
    return poly_from_index(spec, rng.randrange(spec.q ** (max_degree + 1)))


# ---------------------------------------------------------------------------
# construction and basic shape


def test_trailing_zero_coefficients_are_trimmed():
    f = poly_from_indices(F2, [1, 1, 0, 0])
    assert f.degree == 1
    assert poly_to_string(f) == "1,1"


def test_zero_polynomial_degree_sentinel():
    z = zero(F3)
    assert z.degree == -1
    assert z.is_zero
    assert not z
    with pytest.raises(ValueError):
        z.lead


def test_coefficients_must_share_the_field():
    with pytest.raises(FieldMismatchError):
        Poly(F2, (F3.element(1),))
    with pytest.raises(TypeError):
        Poly(F2, (1,))


def test_monic_identifies_and_normalizes():
    f = poly_from_indices(F3, [1, 2])  # 2x + 1
    assert not f.is_monic
    g = f.monic()
    assert g.is_monic
    assert g == poly_from_indices(F3, [2, 1])  # x + 2 (scaled by inverse(2)=2)
    assert zero(F3).monic() == zero(F3)


# ---------------------------------------------------------------------------
# digit/index bijection and the polynomial enumeration


def test_digit_index_roundtrip():
    for q in (2, 3, 4, 5):
        for m in range(0, 200):
            digits = index_to_digits(q, m)
            assert digits_to_index(q, digits) == m
            if digits:
                assert digits[-1] != 0  # no trailing zeros


def test_digit_vector_validation():
    with pytest.raises(ValueError):
        digits_to_index(2, (0, 2))
    with pytest.raises(ValueError):
        digits_to_index(1, (0,))
    with pytest.raises(ValueError):
        index_to_digits(2, -1)


def test_poly_enumeration_examples():
    assert poly_from_index(F2, 3) == poly_from_indices(F2, [1, 1])  # x + 1
    assert poly_from_index(F3, 5) == poly_from_indices(F3, [2, 1])  # x + 2
    assert poly_from_index(F2, 0).is_zero
    assert poly_from_index(F2, 1) == one(F2)


def test_poly_enumeration_roundtrip():
    for spec in (F2, F3, F4):
        for m in range(spec.q**3):
            assert poly_to_index(poly_from_index(spec, m)) == m


def test_monic_block_occupies_expected_index_interval():
    for spec in (F2, F3):
        for d in (0, 1, 2, 3):
            block = list(monic_of_degree(spec, d))
            assert len(block) == spec.q**d
            assert all(f.is_monic and f.degree == d for f in block)
            indices = [poly_to_index(f) for f in block]
            assert indices == list(range(spec.q**d, 2 * spec.q**d))


# ---------------------------------------------------------------------------
# ring arithmetic


def test_ring_laws_random():
    rng = random.Random(104)
    for spec in (F2, F3, F4):
        for _ in range(60):
            f = random_poly(rng, spec, 4)
            g = random_poly(rng, spec, 4)
            h = random_poly(rng, spec, 3)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f - f == zero(spec)
            assert f + (-f) == zero(spec)
            assert f * one(spec) == f
            assert f * zero(spec) == zero(spec)


def test_degree_of_product_adds():
    rng = random.Random(7)
    for _ in range(40):
        f = random_poly(rng, F3, 5)
        g = random_poly(rng, F3, 5)
        if f.is_zero or g.is_zero:
            assert (f * g).is_zero
        else:
            assert (f * g).degree == f.degree + g.degree


def test_scalar_multiplication():
    f = poly_from_indices(F3, [1, 2, 1])
    two = F3.element(2)
    assert f * two == poly_from_indices(F3, [2, 1, 2])
    assert two * f == f * two


def test_divmod_example_over_f2():
    x = gen(F2)
    f = x**2 + one(F2)
    g = x + one(F2)
    quot, rem = divmod(f, g)
    assert quot == x + one(F2)
    assert rem.is_zero


def test_divmod_identity_random():
    rng = random.Random(2024)
    for spec in (F2, F3, F4):
        for _ in range(80):
            a = random_poly(rng, spec, 6)
            b = random_poly(rng, spec, 3)
            if b.is_zero:
                with pytest.raises(ZeroDivisionError):
                    divmod(a, b)
                continue
            quot, rem = divmod(a, b)
            assert quot * b + rem == a
            assert rem.is_zero or rem.degree < b.degree
            assert a // b == quot and a % b == rem


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(one(F2), zero(F2))


def test_evaluation():
    x = gen(F3)
    f = x**2 + x + one(F3) * F3.element(2)  # x^2 + x + 2
    for v in range(3):
        point = F3.element(v)
        assert f(point).index == (v * v + v + 2) % 3


# ---------------------------------------------------------------------------
# gcd and Bezout


def test_gcd_examples():
    x = gen(F2)
    assert gcd(x**2 + x, x**2 + one(F2)) == x + one(F2)
    assert gcd(zero(F2), zero(F2)).is_zero
    assert gcd(zero(F3), poly_from_indices(F3, [0, 2])) == gen(F3)  # monic of 2x


def test_gcd_is_monic_common_divisor():
    rng = random.Random(31)
    for spec in (F2, F3):
        for _ in range(60):
            a = random_poly(rng, spec, 5)
            b = random_poly(rng, spec, 5)
            g = gcd(a, b)
            if a.is_zero and b.is_zero:
                assert g.is_zero
                continue
            assert g.is_monic
            assert divides(g, a) and divides(g, b)
            # multiply up by a random factor: gcd scales accordingly
            c = random_poly(rng, spec, 2)
            if not c.is_zero:
                assert gcd(a * c, b * c) == (g * c).monic()


def test_xgcd_bezout_identity():
    rng = random.Random(55)
    for spec in (F2, F3, F4):
        for _ in range(50):
            a = random_poly(rng, spec, 5)
            b = random_poly(rng, spec, 5)
            g, s, t = xgcd(a, b)
            assert s * a + t * b == g
            assert g == gcd(a, b)


def test_divides_edge_cases():
    x = gen(F2)
    assert divides(zero(F2), zero(F2))
    assert not divides(zero(F2), x)
    assert divides(x, zero(F2))
    assert divides(one(F2), x)
    with pytest.raises(FieldMismatchError):
        divides(gen(F2), gen(F3))


# ---------------------------------------------------------------------------
# irreducibility


def test_irreducibility_examples_over_f2():
    x = gen(F2)
    assert not is_irreducible(x**2 + one(F2))  # (x+1)^2
    assert is_irreducible(x**2 + x + one(F2))
    assert is_irreducible(x)
    assert not is_irreducible(one(F2))
    assert not is_irreducible(zero(F2))


def test_constants_and_nonmonic_are_not_irreducible():
    assert not is_irreducible(constant(F3, 2))
    assert not is_irreducible(poly_from_indices(F3, [1, 2]))  # 2x + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_low_degree_irreducibility_matches_root_check(q):
    # monic polynomials of degree 2 and 3 are reducible exactly when they
    # have a root in the field
    spec = make_field(*factor_prime_power(q))
    for d in (2, 3):
        for f in monic_of_degree(spec, d):
            rootless = all(not f(a) == spec.zero() for a in spec.elements())
            has_root = not rootless
            assert is_irreducible(f) == (not has_root)


@pytest.mark.parametrize("q,max_deg", [(2, 8), (3, 6), (4, 4)])
def test_rabin_test_matches_product_sieve(q, max_deg):
    # every monic polynomial up to max_deg: irreducible iff never a product
    spec = make_field(*factor_prime_power(q))
    reducible = sieve_reducible_indices(spec, max_deg)
    for d in range(1, max_deg + 1):
        for f in monic_of_degree(spec, d):
            assert is_irreducible(f) == (poly_to_index(f) not in reducible), f


def test_irreducibles_up_to_degree_one_over_f2():
    table = irreducibles_up_to(F2, 1)
    x = gen(F2)
    assert table.irreducibles(1) == (x, x + one(F2))


@pytest.mark.parametrize("q,max_deg", [(2, 6), (3, 5), (4, 4), (5, 3), (8, 3), (9, 3)])
def test_enumerated_lists_are_sound_and_complete(q, max_deg):
    spec = make_field(*factor_prime_power(q))
    table = irreducibles_up_to(spec, max_deg)
    sieved = sieve_irreducible_counts(spec, max_deg)
    for m in range(1, max_deg + 1):
        block = table.irreducibles(m)
        assert len(block) == count_irreducibles(q, m) == sieved[m]
        assert all(f.is_monic and f.degree == m for f in block)
        assert all(is_irreducible(f) for f in block)
        indices = [poly_to_index(f) for f in block]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)


@pytest.mark.parametrize(
    "q,max_deg", [(2, 10), (3, 6), (4, 4), (5, 4), (7, 3), (8, 3), (9, 3)]
)
def test_sieved_lists_equal_rabin_filtered_enumeration(q, max_deg):
    # Rabin's test runs on the polynomial ring, not on the sieve's numpy pages
    spec = make_field(*factor_prime_power(q))
    table = irreducibles_up_to(spec, max_deg)
    for m in range(1, max_deg + 1):
        expected = [f for f in monic_of_degree(spec, m) if is_irreducible(f)]
        assert list(table.irreducibles(m)) == expected


def test_large_prime_field_lists_match_counts_and_rabin():
    spec = make_field(257)
    table = irreducibles_up_to(spec, 2)
    for m in (1, 2):
        assert len(table.irreducibles(m)) == count_irreducibles(spec, m)
    listed = {poly_to_index(f) for f in table.irreducibles(2)}
    unlisted = sorted(set(range(257**2, 2 * 257**2)) - listed)
    rng = random.Random(257)
    for index in rng.sample(sorted(listed), 200):
        assert is_irreducible(poly_from_index(spec, index))
    for index in rng.sample(unlisted, 200):
        assert not is_irreducible(poly_from_index(spec, index))


def test_sieve_temporaries_stay_bounded():
    # GF(2) to degree 18 is the largest the default budget allows
    tracemalloc.start()
    try:
        table = irreducibles_up_to(F2, 18)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.irreducibles(18)) == count_irreducibles(2, 18)
    assert peak - held < 32 * 2**20


def test_count_irreducibles_closed_form_values():
    # (1/m) sum_{d|m} mu(d) q^(m/d)
    assert count_irreducibles(2, 1) == 2
    assert count_irreducibles(2, 2) == 1
    assert count_irreducibles(2, 3) == 2
    assert count_irreducibles(2, 4) == 3
    assert count_irreducibles(3, 2) == 3
    assert count_irreducibles(4, 2) == 6
    assert count_irreducibles(F2, 2) == 1  # FieldSpec also accepted


def test_count_irreducibles_validation():
    with pytest.raises(ValueError):
        count_irreducibles(6, 2)  # not a prime power
    with pytest.raises(ValueError):
        count_irreducibles(2, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_degree_times_count_bounded_by_order_power(q):
    for m in range(1, 13):
        phi = count_irreducibles(q, m)
        assert phi >= 1
        assert m * phi <= q**m


def test_enumeration_budget_enforced():
    with pytest.raises(BudgetExceededError):
        irreducibles_up_to(F3, 10, budget=1000)
    table = IrreducibleTable(F3)
    with pytest.raises(BudgetExceededError):
        table.irreducibles(10, budget=1000)
    # counting needs no budget
    assert count_irreducibles(3, 10) == 5880


# ---------------------------------------------------------------------------
# text formats


def test_canonical_text_examples():
    f = poly_from_string(F3, "1,0,2")
    assert f == poly_from_indices(F3, [1, 0, 2])
    assert poly_to_string(f) == "1,0,2"
    assert poly_from_string(F3, "").is_zero
    assert poly_to_string(zero(F3)) == ""


def test_text_roundtrip_random():
    rng = random.Random(99)
    for spec in (F2, F3, F4):
        for _ in range(60):
            f = random_poly(rng, spec, 6)
            assert poly_from_string(spec, poly_to_string(f)) == f
            assert poly_from_string(spec, poly_to_pretty(f)) == f


def test_pretty_rendering():
    x = gen(F3)
    two = constant(F3, 2)
    assert poly_to_pretty(x**2 + x + one(F3)) == "x^2+x+1"
    assert poly_to_pretty(two * x**3) == "2*x^3"
    assert poly_to_pretty(zero(F3)) == "0"
    assert poly_to_pretty(one(F3)) == "1"
    assert poly_to_pretty(x) == "x"


def test_pretty_parsing_variants():
    assert poly_from_string(F3, "x^2 + 2*x + 1") == poly_from_indices(F3, [1, 2, 1])
    assert poly_from_string(F3, "2x") == poly_from_indices(F3, [0, 2])
    assert poly_from_string(F3, "x^3") == poly_from_indices(F3, [0, 0, 0, 1])
    # same power twice combines in the field
    assert poly_from_string(F2, "x+x").is_zero


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        poly_from_string(F3, "1,a,2")
    with pytest.raises(ParseError):
        poly_from_string(F3, "1,5")  # coefficient index out of range
    with pytest.raises(ParseError):
        poly_from_string(F3, "x^2-1")
    with pytest.raises(ParseError):
        poly_from_string(F3, "y+1")
    try:
        poly_from_string(F3, "1,bad")
    except ParseError as exc:
        assert exc.position == 2
    else:  # pragma: no cover
        pytest.fail("expected ParseError")


def test_long_coefficients_are_parse_errors_with_positions():
    # a coefficient of more than 4300 digits is past int()'s conversion limit
    long = "9" * 5000
    for text, position in ((f"1+{long}*x", 2), (f"x+{long}", 2), (f"x+{long}x^2", 2),
                           (f"0,1,{long}", 4)):
        with pytest.raises(ParseError, match="of 5000 digits out of range") as info:
            poly_from_string(F2, text)
        assert info.value.position == position
    assert poly_from_string(F3, "0" * 5000 + "2*x+001") == poly_from_indices(F3, [1, 2])
    assert poly_from_string(F3, "00,2") == poly_from_indices(F3, [0, 2])
    with pytest.raises(ParseError, match="index 10 out of range"):
        poly_from_string(F3, "1,10")


def test_only_ascii_digits_spell_coefficients():
    # "\u00b2" (superscript two) passes str.isdigit() and "\u0661"
    # (Arabic-Indic one) passes str.isdecimal() and a str regex's \d
    for text, position in (("1,\u00b2", 2), ("1,\u0661", 2), ("x+\u0661", 2),
                           ("\u0661*x", 0), ("x^\u0661", 0), ("\u00b2", 0)):
        with pytest.raises(ParseError) as info:
            poly_from_string(F3, text)
        assert info.value.position == position
    assert poly_from_string(F3, "1, 2") == poly_from_indices(F3, [1, 2])


def test_pretty_powers_are_bounded_before_any_allocation():
    # a term x^n spells n + 1 coefficients: x^20000000 would be 160 MB of list slots
    tracemalloc.start()
    try:
        for power in ("20000000", "9" * 5000):
            with pytest.raises(ParseError, match=f"exceeds the maximum {MAX_PRETTY_POWER}") as info:
                poly_from_string(F2, f"1+x^{power}")
            assert info.value.position == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert poly_from_string(F2, f"x^{MAX_PRETTY_POWER}").degree == MAX_PRETTY_POWER
    with pytest.raises(ParseError):
        poly_from_string(F2, f"x^{MAX_PRETTY_POWER + 1}")


def test_pickle_roundtrip():
    f = poly_from_indices(F4, [2, 3, 1])
    assert pickle.loads(pickle.dumps(f)) == f


def test_repr_mentions_field_and_text():
    f = poly_from_indices(F2, [1, 1])
    assert repr(f) == "Poly(GF(2), 'x+1')"
