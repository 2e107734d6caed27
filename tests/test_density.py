"""Zeta factors, truncations, tail bounds, and the density formulas."""

import hashlib
import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqx.density as density_module
from fqx import _fftmul
from fqx import (
    DivisibleBound,
    IrreducibleSet,
    as_ratio_string,
    count_irreducibles,
    density_coprime_to,
    density_unimodular,
    divisible_bound,
    gen,
    irreducibles_up_to,
    make_field,
    one,
    tail_bound,
    zeta_inverse,
    zeta_inverse_truncated,
)
from fqx.cli import main
from fqx.density import MAX_NUMERATOR_BITS, DecimalWriter, _to_decimal
from oracles import zeta_truncated_by_direct_product

F2 = make_field(2)
F3 = make_field(3)


# ---------------------------------------------------------------------------
# closed-form zeta factors


def test_zeta_inverse_values():
    assert zeta_inverse(2, 2) == Fraction(1, 2)
    assert zeta_inverse(3, 3) == Fraction(8, 9)
    assert zeta_inverse(2, 3) == Fraction(3, 4)
    assert zeta_inverse(2, 1) == Fraction(0)
    assert zeta_inverse(5, 1) == Fraction(0)


def test_zeta_inverse_validation():
    with pytest.raises(ValueError):
        zeta_inverse(2, 0)
    with pytest.raises(ValueError):
        zeta_inverse(6, 2)  # not a prime power
    with pytest.raises(ValueError):
        zeta_inverse(1, 2)


def test_zeta_inverse_is_one_minus_q_power():
    for q in (2, 3, 4, 5, 8, 9):
        for j in range(2, 8):
            assert zeta_inverse(q, j) == 1 - Fraction(1, q ** (j - 1))


# ---------------------------------------------------------------------------
# truncated Euler products


def test_truncated_values():
    assert zeta_inverse_truncated(2, 2, 1) == Fraction(9, 16)
    assert zeta_inverse_truncated(2, 3, 1) == Fraction(49, 64)


def test_truncated_matches_member_by_member_product():
    # oracle multiplies (1 - q^(-j deg f)) over actual enumerated
    # irreducibles, one Fraction at a time
    for spec in (F2, F3, make_field(2, 2)):
        table = irreducibles_up_to(spec, 4)
        for j in (2, 3):
            for t in (1, 2, 3, 4):
                expected = zeta_truncated_by_direct_product(spec, j, table, t)
                assert zeta_inverse_truncated(spec.q, j, t) == expected


def test_truncated_decreases_toward_closed_form():
    for q in (2, 3):
        for j in (2, 3):
            closed = zeta_inverse(q, j)
            prev = None
            for t in range(1, 9):
                trunc = zeta_inverse_truncated(q, j, t)
                assert trunc >= closed
                if prev is not None:
                    assert trunc <= prev
                prev = trunc


def test_truncation_gap_within_tail_bound():
    for q in (2, 3):
        for j in (2, 3):
            closed = zeta_inverse(q, j)
            for t in range(1, 9):
                gap = zeta_inverse_truncated(q, j, t) - closed
                assert 0 <= gap <= tail_bound(q, t)


def test_truncated_validation():
    with pytest.raises(ValueError):
        zeta_inverse_truncated(2, 1, 3)  # j must be at least 2
    with pytest.raises(ValueError):
        zeta_inverse_truncated(2, 2, 0)
    with pytest.raises(ValueError):
        zeta_inverse_truncated(10, 2, 2)


def test_results_are_standard_fractions():
    for value in (
        zeta_inverse(3, 4),
        zeta_inverse_truncated(3, 2, 5),
        tail_bound(3, 2),
        density_unimodular(3, 2, 4),
    ):
        assert type(value) is Fraction


def test_tail_bound_values():
    assert tail_bound(2, 3) == Fraction(1, 4)
    assert tail_bound(2, 2) == Fraction(1, 2)
    assert tail_bound(3, 2) == Fraction(1, 9)
    assert tail_bound(2, 1) == Fraction(1, 1)
    with pytest.raises(ValueError):
        tail_bound(2, 0)


# ---------------------------------------------------------------------------
# the density formulas


def test_density_unimodular_values():
    assert density_unimodular(2, 1, 2) == Fraction(1, 2)
    assert density_unimodular(3, 2, 3) == Fraction(16, 27)
    assert density_unimodular(2, 2, 2) == Fraction(0)


def test_density_unimodular_factors():
    # the density is the product of zeta factors for j = n-k+1 .. n
    for q in (2, 3, 4):
        for n in range(1, 5):
            for k in range(1, n + 1):
                expected = Fraction(1)
                for j in range(n - k + 1, n + 1):
                    expected *= zeta_inverse(q, j)
                assert density_unimodular(q, k, n) == expected


def test_density_unimodular_square_case_vanishes():
    for q in (2, 3, 4, 5):
        for n in (1, 2, 3):
            assert density_unimodular(q, n, n) == 0


def test_density_unimodular_validation():
    with pytest.raises(ValueError):
        density_unimodular(2, 0, 2)
    with pytest.raises(ValueError):
        density_unimodular(2, 3, 2)  # k > n
    with pytest.raises(ValueError):
        density_unimodular(6, 1, 2)


def test_density_coprime_values():
    x = gen(F2)
    assert density_coprime_to(2, 1, 2, IrreducibleSet(F2, [x])) == Fraction(3, 4)
    both = IrreducibleSet(F2, [x, x + one(F2)])
    assert density_coprime_to(2, 1, 2, both) == Fraction(9, 16)
    assert density_coprime_to(2, 1, 2, IrreducibleSet(F2)) == Fraction(1)


def test_density_coprime_is_product_over_members():
    table = irreducibles_up_to(F3, 2)
    members = list(table.irreducibles(1)) + list(table.irreducibles(2))[:1]
    subset = IrreducibleSet(F3, members)
    k, n = 2, 3
    expected = Fraction(1)
    for f in subset:
        qf = 3**f.degree
        local = Fraction(1)
        for j in range(n - k + 1, n + 1):
            local *= 1 - Fraction(1, qf**j)
        expected *= local
    assert density_coprime_to(3, k, n, subset) == expected


def test_density_coprime_field_mismatch():
    with pytest.raises(ValueError):
        density_coprime_to(3, 1, 2, IrreducibleSet(F2, [gen(F2)]))


def test_divisible_bound_values():
    assert divisible_bound(2, 1, 2, 1) == DivisibleBound(Fraction(1, 4), Fraction(1, 2))
    # k=1, n=3: the only factor is 1 - q^(-3 deg f), so the exact value
    # at q=2, deg f=1 is 1/8
    assert divisible_bound(2, 1, 3, 1) == DivisibleBound(Fraction(1, 8), Fraction(1, 2))
    assert divisible_bound(3, 1, 2, 2) == DivisibleBound(
        Fraction(1, 81), Fraction(2, 81)
    )


def test_divisible_bound_exact_below_bound():
    for q in (2, 3, 4):
        for n in range(2, 5):
            for k in range(1, n):
                for deg in (1, 2, 3):
                    exact, bound = divisible_bound(q, k, n, deg)
                    assert 0 < exact <= bound
                    qf = q**deg
                    assert bound == Fraction(2, qf**2)


def test_divisible_bound_complements_coprime_density():
    # divisibility by f and coprimality to {f} are complementary events
    table = irreducibles_up_to(F2, 2)
    for f in list(table.irreducibles(1)) + list(table.irreducibles(2)):
        subset = IrreducibleSet(F2, [f])
        for (k, n) in ((1, 2), (1, 3), (2, 3)):
            exact, _ = divisible_bound(2, k, n, f.degree)
            assert exact + density_coprime_to(2, k, n, subset) == 1


def test_divisible_bound_validation():
    with pytest.raises(ValueError):
        divisible_bound(2, 2, 2, 1)  # needs k < n
    with pytest.raises(ValueError):
        divisible_bound(2, 1, 2, 0)


def test_as_ratio_string():
    assert as_ratio_string(Fraction(1, 2)) == "1/2"
    assert as_ratio_string(Fraction(0)) == "0/1"
    assert as_ratio_string(Fraction(6, 4)) == "3/2"


# ---------------------------------------------------------------------------
# the FFT multiply, the squaring chain, the size guard, big ratio strings

_EDGE_OPERANDS = (
    st.sampled_from([0, 1, 2, 255, 256, 65535, 65536])
    | st.integers(0, 5000).map(lambda k: 1 << k)
    | st.integers(1, 5000).map(lambda k: (1 << k) - 1)
)
_OPERANDS = st.integers(0, 1 << 5000) | _EDGE_OPERANDS


@contextmanager
def _no_int_str_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@given(_OPERANDS, _OPERANDS)
def test_fft_multiply_equals_int_product(a, b):
    assert _fftmul.fft_multiply(a, b) == a * b


@given(_OPERANDS)
def test_fft_square_equals_int_square(a):
    assert _fftmul.fft_multiply(a, a) == a * a


@given(st.integers(1, 1 << 3000), st.integers(1, 1 << 40))
def test_fft_convolution_itself_is_exact(a, b):
    # the blocked convolution, before any check or fallback, at the block
    # length fft_multiply picks and at a short one that makes many blocks
    for block in (_fftmul._block_limbs(a, b), 8):
        assert _fftmul._convolve(a, b, block) == a * b
        assert _fftmul._convolve(a, a, block) == a * a


def test_fft_convolution_on_long_operands():
    rng = random.Random(20261018)
    a, b = rng.getrandbits(300_000), rng.getrandbits(170_000)
    assert _fftmul._convolve(a, a, _fftmul._block_limbs(a, a)) == a * a
    assert _fftmul._convolve(a, b, _fftmul._block_limbs(a, b)) == a * b


def test_fft_square_of_limbs_all_at_the_balanced_bound():
    # every limb 0x8000 makes every digit -2**15 + 1 (the first -2**15):
    # digits of one sign and full size, the worst case for their length,
    # here at the length of the zeta benchmark's largest square
    a = int.from_bytes(b"\x00\x80" * 87_500, "little")
    product = _fftmul._convolve(a, a, _fftmul._block_limbs(a, a))
    assert product is not None
    assert product == a * a


def test_fft_multiply_falls_back_when_a_check_fails(monkeypatch):
    rng = random.Random(11)
    a, b = rng.getrandbits(20_000), rng.getrandbits(15_000)
    monkeypatch.setattr(_fftmul, "MAX_ERROR", 0.0)  # no rounding passes
    assert _fftmul.fft_multiply(a, b) == a * b
    assert _fftmul.fft_multiply(a, a) == a * a
    monkeypatch.undo()
    # a transform result that is off by one fails the residue check
    monkeypatch.setattr(
        _fftmul, "_convolve", lambda x, y, length: x * y + 1
    )
    assert _fftmul.fft_multiply(a, b) == a * b
    assert _fftmul.fft_multiply(a, a) == a * a


_M61 = _fftmul.RESIDUE_MODULUS


@given(
    st.sampled_from([0, _M61 - 1, _M61, _M61 + 1])
    | st.integers(0, 1 << 2000).map(lambda k: k * _M61)
    | st.integers(1, 100_000).map(lambda k: (1 << k) - 1)
    | st.integers(0, 100_000).flatmap(lambda bits: st.integers(0, (1 << bits) - 1))
)
def test_mersenne_fold_equals_the_remainder(x):
    assert _fftmul._mersenne_residue(x) == x % _M61


def test_fft_multiply_survives_one_corrupted_block(monkeypatch):
    # one output block carried in off by one fails the residue check; every
    # product is taken whole, in one convolution, and where the shorter
    # operand passes MAX_BLOCKS blocks, in longer blocks
    rng = random.Random(12)
    a, b = rng.getrandbits(40_000), rng.getrandbits(30_000)
    c = rng.getrandbits(70_000)
    words_to_int, convolve = _fftmul._words_to_int, _fftmul._convolve
    seen, convolutions = [], []

    def corrupting(words):
        seen.append(None)
        return words_to_int(words) + (len(seen) == 2)

    def counting(x, y, block):
        convolutions.append(block)
        return convolve(x, y, block)

    # 128 limbs: a has 2501 limbs, b 1876 and c 4376, more than 32 blocks
    monkeypatch.setattr(_fftmul, "BLOCK_LIMBS", 128)
    monkeypatch.setattr(_fftmul, "_words_to_int", corrupting)
    monkeypatch.setattr(_fftmul, "_convolve", counting)
    for x, y, block in ((a, b, 128), (a, a, 128), (c, c, 256), (c, b, 128)):
        seen.clear()
        convolutions.clear()
        assert _fftmul.fft_multiply(x, y) == x * y
        assert len(seen) > 2 and convolutions == [block]


_BLOCK = 16
_BLOCK_LENGTHS = st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 7 * _BLOCK + 3])


@given(_BLOCK_LENGTHS, _BLOCK_LENGTHS, st.randoms(use_true_random=False))
def test_fft_blocks_at_and_around_the_block_length(len_a, len_b, rng):
    # operands of 1, block - 1, block, block + 1 and many blocks of 16-bit
    # limbs: random limbs with the top limb below 2**15 and with its top
    # bit set (read unsigned, with the carry from below added), all-0xFFFF
    # limbs and all-0x8000 limbs (digits of one sign and full size)
    for fill in (
        lambda n: rng.getrandbits(16 * n - 1) | 1 << (16 * n - 2),
        lambda n: rng.getrandbits(16 * n) | 1 << (16 * n - 1),
        lambda n: (1 << 16 * n) - 1,
        lambda n: int.from_bytes(b"\x00\x80" * n, "little"),
    ):
        a, b = fill(len_a), fill(len_b)
        assert _fftmul._convolve(a, b, _BLOCK) == a * b
        assert _fftmul._convolve(b, a, _BLOCK) == a * b
        assert _fftmul._convolve(a, a, _BLOCK) == a * a


@pytest.mark.parametrize("bits", [16 * _fftmul.BLOCK_LIMBS - 1, 16 * _fftmul.BLOCK_LIMBS])
def test_fft_operand_of_one_whole_block_takes_one_spectrum(bits):
    # 65536 bits fill BLOCK_LIMBS limbs exactly, top bit set: one block,
    # not a second block for one carry limb
    rng = random.Random(bits)
    a = rng.getrandbits(bits) | 1 << (bits - 1)
    b = rng.getrandbits(bits // 2)
    block = _fftmul._block_limbs(a, a)
    assert block == _fftmul.BLOCK_LIMBS
    assert len(_fftmul._spectra(a, block)) == 1
    assert _fftmul._convolve(a, a, block) == a * a
    assert _fftmul.fft_multiply(a, a) == a * a
    assert _fftmul.fft_multiply(a, b) == a * b


@given(st.sampled_from([0, 1]), st.integers(0, 1 << 3000))
def test_fft_multiply_by_zero_and_one(small, x):
    assert _fftmul.fft_multiply(small, x) == small * x
    assert _fftmul.fft_multiply(x, small) == small * x


def test_fft_all_ones_at_the_longest_block_length(monkeypatch):
    # the longest block fft_multiply uses: a half of the largest square the
    # size guard lets through.  As balanced digits, all-0xFFFF limbs are 0
    # but for a -1 at the bottom and a 1 on top, so this is no worst case
    # (that is all-0x8000, tested above); it checks carries across blocks
    # of that length, whose rounding stays far below MAX_ERROR
    half = 1 << MAX_NUMERATOR_BITS // 4
    block = _fftmul._block_limbs(half, half)
    assert block > _fftmul.BLOCK_LIMBS
    monkeypatch.setattr(_fftmul, "MAX_ERROR", 0.01)
    k, m = 16 * (3 * block), 16 * (2 * block + 5)
    x, y = (1 << k) - 1, (1 << m) - 1
    # (2**k - 1) * (2**m - 1) without a slow int product
    assert _fftmul._convolve(x, x, block) == (1 << 2 * k) - (1 << k + 1) + 1
    assert _fftmul._convolve(x, y, block) == (1 << k + m) - (1 << k) - (1 << m) + 1


def test_truncated_product_runs_the_fft_and_matches_plain_ints(monkeypatch):
    q, j, t = 4, 2, 10
    calls = []
    fft_multiply = _fftmul.fft_multiply

    def recording(a, b):
        calls.append(a.bit_length())
        return fft_multiply(a, b)

    monkeypatch.setattr(_fftmul, "fft_multiply", recording)
    value = zeta_inverse_truncated(q, j, t)
    assert calls and min(calls) >= density_module.FFT_MIN_BITS
    # the formula before the squaring chain: one power per degree,
    # multiplied in one after the other
    numerator, exponent = 1, 0
    for m in range(1, t + 1):
        count = count_irreducibles(q, m)
        numerator *= (q ** (j * m) - 1) ** count
        exponent += j * m * count
    assert value.numerator == numerator
    assert value.denominator == q**exponent


def test_truncated_t9_sends_every_large_squaring_through_the_fft(monkeypatch):
    q, j, t = 4, 4, 9
    squarings, transformed = [], []
    multiply, fft_multiply = density_module._multiply, _fftmul.fft_multiply

    def recording_multiply(a, b):
        if b is a and a.bit_length() >= density_module.FFT_MIN_BITS:
            squarings.append(a.bit_length())
        return multiply(a, b)

    def recording_fft(a, b):
        transformed.append(a.bit_length())
        return fft_multiply(a, b)

    monkeypatch.setattr(density_module, "_multiply", recording_multiply)
    monkeypatch.setattr(_fftmul, "fft_multiply", recording_fft)
    value = zeta_inverse_truncated(q, j, t)
    assert len(squarings) >= 3 and transformed == squarings
    numerator, exponent = 1, 0
    for m in range(1, t + 1):
        count = count_irreducibles(q, m)
        numerator *= (q ** (j * m) - 1) ** count
        exponent += j * m * count
    assert value.numerator == numerator
    assert value.denominator == q**exponent


def test_truncated_t10_takes_no_fallback(monkeypatch):
    # every product of the q = j = 4, t = 10 numerator passes both checks
    convolve, residues_agree = _fftmul._convolve, _fftmul._residues_agree
    doubts, products = [], []

    def counting_convolve(a, b, block):
        product = convolve(a, b, block)
        products.append(None)
        if product is None:
            doubts.append("rounding")
        return product

    def counting_residues(a, b, product):
        agree = residues_agree(a, b, product)
        if not agree:
            doubts.append("residue")
        return agree

    monkeypatch.setattr(_fftmul, "_convolve", counting_convolve)
    monkeypatch.setattr(_fftmul, "_residues_agree", counting_residues)
    zeta_inverse_truncated(4, 4, 10)
    assert products and not doubts


# sha256 of the truncated products of the zeta benchmark (q, j in {2, 3, 4},
# t <= 9), as little-endian numerator and denominator bytes: any change to
# the products must reproduce them bit for bit
TRUNCATED_DIGEST = "abecc94f0698bfb563ca56391b46cdcfd4a4e708585ef227bf79d88d261f898b"


def test_truncated_products_match_the_pinned_digest():
    def raw(n):
        return n.to_bytes((n.bit_length() + 7) // 8, "little")

    digest = hashlib.sha256()
    for q in (2, 3, 4):
        for j in (2, 3, 4):
            for t in range(1, 10):
                value = zeta_inverse_truncated(q, j, t)
                digest.update(f"{q},{j},{t}:".encode())
                digest.update(raw(value.numerator) + b"/" + raw(value.denominator) + b"\n")
    assert digest.hexdigest() == TRUNCATED_DIGEST


_RSS_CHILD = """
import random
from fqx import _fftmul
a = random.Random(5).getrandbits(1_400_000)
product = {expression}
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_fft_square_peak_memory_stays_near_int_multiplication():
    # a 1.4 Mbit square, the largest of the zeta benchmark's squarings,
    # through the transform and through int multiplication, each in a
    # fresh process that imports the same modules.  tracemalloc would miss
    # pocketfft's own scratch space, so this reads the peak RSS, as VmHWM:
    # ru_maxrss of a child also counts the pages of the process it forked
    # from
    import os
    import subprocess

    src = os.path.dirname(os.path.dirname(_fftmul.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    peaks = {}
    for name, expression in (("fft", "_fftmul.fft_multiply(a, a)"), ("int", "a * a")):
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_CHILD.format(expression=expression)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peaks[name] = int(proc.stdout)
    assert peaks["fft"] <= peaks["int"] + 3 * 1024, peaks


def test_truncated_odd_q_denominator():
    for q, j, t in ((3, 2, 7), (5, 3, 4), (9, 2, 3)):
        exponent = sum(j * m * count_irreducibles(q, m) for m in range(1, t + 1))
        assert zeta_inverse_truncated(q, j, t).denominator == q**exponent


def _denominator_exponent(q, j, t):
    return sum(j * m * count_irreducibles(q, m) for m in range(1, t + 1))


def test_size_guard_bound_holds():
    # the guard bounds the numerator by 2**(D * log2(q)), D the exponent
    # of the denominator q**D; for q = 2**e the bit length is exactly e*D
    for q in (2, 3, 4, 5, 8, 9):
        for j in (2, 3):
            for t in range(1, 6 if q < 5 else 4):
                bound = _denominator_exponent(q, j, t) * math.log2(q)
                bits = zeta_inverse_truncated(q, j, t).numerator.bit_length()
                assert bound - 1 < bits <= math.ceil(bound)
                if q & (q - 1) == 0:
                    assert bits == bound


def test_truncated_size_guard_raises_quickly():
    # the largest criterion-5 case stays under the cap
    assert 2 * _denominator_exponent(4, 4, 12) == 178_910_528 <= MAX_NUMERATOR_BITS
    start = time.perf_counter()
    cases = ((4, 4, 13), (4, 4, 20), (2, 2, 10**6), (3, 50, 40), (3, 10**9, 1))
    for q, j, t in cases:
        with pytest.raises(ValueError, match="limit"):
            zeta_inverse_truncated(q, j, t)
    assert time.perf_counter() - start < 1.0


def test_cli_size_guard_exits_1(capsys):
    assert main(["zeta", "--q", "4", "--j", "4", "--t", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


_HUGE = 10**9


@pytest.mark.parametrize(
    "call",
    [
        lambda: zeta_inverse(3, _HUGE),
        lambda: tail_bound(3, _HUGE),
        lambda: density_unimodular(3, 1, _HUGE),
        # no single factor is large here, but the whole product is
        lambda: density_unimodular(2, 2**15, 2**15 + 1),
        lambda: density_unimodular(3, 10**5, _HUGE),
        lambda: density_coprime_to(3, 1, _HUGE, IrreducibleSet(F3, [gen(F3)])),
        # each of x and x + 1 alone stays under the limit, both pass it
        lambda: density_coprime_to(
            2, 2**14, 2**14 + 1, IrreducibleSet(F2, [gen(F2), gen(F2) + one(F2)])
        ),
        lambda: divisible_bound(3, 1, _HUGE, 1),
        lambda: divisible_bound(3, 1, 2, _HUGE),
        lambda: divisible_bound(3, 10**400, 10**401, 1),
    ],
)
def test_closed_form_size_guard_raises_quickly(call):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="limit"):
        call()
    assert time.perf_counter() - start < 1.0


def test_square_density_vanishes_at_any_size():
    assert density_unimodular(3, _HUGE, _HUGE) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--q", "3", "--j", str(_HUGE)],
        ["density", "--q", "3", "--k", "1", "--n", str(_HUGE)],
        ["density", "--q", "3", "--k", "1", "--n", str(_HUGE), "--coprime-to", "0,1"],
        ["density", "--q", "3", "--k", "1", "--n", str(_HUGE),
         "--divisible-degree", "1"],
    ],
)
def test_cli_closed_form_size_guard_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "limit" in captured.err


_DECIMAL_CASES = (
    st.integers(0, 100_000).map(lambda bits: random.Random(bits).getrandbits(bits))
    | st.integers(0, 20_000).map(lambda k: 10**k)
    | st.integers(1, 20_000).map(lambda k: 10**k - 1)
    | st.integers(0, 60_000).map(lambda k: 1 << k)
)


@given(_DECIMAL_CASES)
@settings(max_examples=60)
def test_decimal_string_equals_str(n):
    with _no_int_str_limit():
        expected = str(n)
    assert str(_to_decimal(n)) == expected
    writer = DecimalWriter()
    assert writer.integer(n) == expected
    assert writer.integer(-n) == ("-" + expected if n else "0")
    assert writer.integer(n) == expected


@pytest.mark.parametrize("q,j,t", [(4, 4, 6), (3, 4, 9)])
def test_cli_zeta_prints_big_ratios_in_full(capsys, q, j, t):
    assert main(["zeta", "--q", str(q), "--j", str(j), "--t", str(t)]) == 0
    payload = json.loads(capsys.readouterr().out)
    value = zeta_inverse_truncated(q, j, t)
    assert len(payload["truncated"].split("/")[0]) > 4300  # CPython's default limit
    with _no_int_str_limit():
        assert Fraction(payload["truncated"]) == value
        assert Fraction(payload["gap"]) == value - zeta_inverse(q, j)


def test_cli_zeta_t9_q4_prints_the_numerator(capsys):
    assert main(["zeta", "--q", "4", "--j", "4", "--t", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    numerator, denominator = payload["truncated"].split("/")
    value = zeta_inverse_truncated(4, 4, 9)
    # parsing 840k digits back takes seconds; check both ends instead
    assert numerator[-40:] == str(value.numerator % 10**40).zfill(40)
    assert denominator[-40:] == str(value.denominator % 10**40).zfill(40)
    digits = len(numerator)
    assert 10 ** (digits - 1) <= value.numerator < 10**digits


@given(
    st.lists(
        st.tuples(st.integers(1, 1 << 80), st.integers(0, 3000)), min_size=1, max_size=6
    )
)
@settings(max_examples=60, deadline=None)
def test_power_product_equals_product_of_powers(powers):
    expected = 1
    for base, exponent in powers:
        expected *= base**exponent
    bits = sum(base.bit_length() * exponent for base, exponent in powers)
    assert density_module._power_product(powers, bits) == expected
    assert density_module._power_product(powers, 0) == expected
