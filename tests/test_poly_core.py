"""Poly's index-tuple core against coefficient-by-coefficient field arithmetic.

The fields below cover both rings the core computes in: the ring mod p
of every prime field (GF(2), GF(3), GF(257)), and the table ring of an
extension field, on built lists (q <= TABLE_MAX_ORDER) or on entries
computed by the digit arithmetic (GF(3^6), and GF(257^2), whose digits
compute mod a prime above the cap).  The oracle in ``oracles`` works on
lists of FieldElements and shares no code with fqx.poly.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqx import (
    FieldElement,
    FieldMismatchError,
    Poly,
    PolyMatrix,
    gcd,
    make_field,
    poly_from_index,
    poly_from_indices,
    xgcd,
)
from fqx.gf import TABLE_MAX_ORDER
from fqx.poly import _load_ring

from oracles import (
    coeff_add,
    coeff_divmod,
    coeff_eval,
    coeff_monic,
    coeff_mul,
    coeff_neg,
    coeff_pow,
    coeff_scale,
    coeff_sub,
    coeff_trim,
    coeff_xgcd,
)

FIELDS = [
    make_field(2),
    make_field(3),
    make_field(2, 2),
    make_field(3, 2),
    make_field(257),
    make_field(3, 6),
    make_field(257, 2),
]
# one field per kind of ring: built lists, mod p, digit arithmetic
PATHS = [make_field(2, 2), make_field(257), make_field(3, 6)]

MAX_DEGREE = 6


def index_lists(spec, max_degree=MAX_DEGREE):
    return st.lists(st.integers(0, spec.q - 1), max_size=max_degree + 1)


@st.composite
def poly_pairs(draw):
    spec = draw(st.sampled_from(FIELDS))
    return spec, draw(index_lists(spec)), draw(index_lists(spec))


def elements(spec, indices):
    return coeff_trim(spec.element(i) for i in indices)


def as_indices(coeffs):
    return tuple(c.index for c in coeffs)


def same(f: Poly, coeffs) -> bool:
    """f has exactly the oracle's coefficients."""
    return as_indices(f.coeffs) == as_indices(coeffs)


@settings(max_examples=150, deadline=None)
@given(case=poly_pairs())
def test_ring_operations_match_the_oracle(case):
    spec, ia, ib = case
    f, g = poly_from_indices(spec, ia), poly_from_indices(spec, ib)
    a, b = elements(spec, ia), elements(spec, ib)
    assert same(f + g, coeff_add(spec, a, b))
    assert same(f - g, coeff_sub(spec, a, b))
    assert same(-f, coeff_neg(spec, a))
    assert same(f * g, coeff_mul(spec, a, b))


@settings(max_examples=150, deadline=None)
@given(case=poly_pairs(), data=st.data())
def test_scalar_products_match_the_oracle(case, data):
    spec, ia, _ = case
    c = spec.element(data.draw(st.integers(0, spec.q - 1)))
    f, a = poly_from_indices(spec, ia), elements(spec, ia)
    assert same(f * c, coeff_scale(spec, a, c))
    assert same(c * f, coeff_scale(spec, a, c))
    assert same(f.monic(), coeff_monic(spec, a))


@settings(max_examples=150, deadline=None)
@given(case=poly_pairs())
def test_division_matches_the_oracle(case):
    spec, ia, ib = case
    f, g = poly_from_indices(spec, ia), poly_from_indices(spec, ib)
    a, b = elements(spec, ia), elements(spec, ib)
    if not b:
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)
        return
    quot, rem = divmod(f, g)
    oquot, orem = coeff_divmod(spec, a, b)
    assert same(quot, oquot) and same(rem, orem)
    assert same(f // g, oquot) and same(f % g, orem)


@settings(max_examples=150, deadline=None)
@given(case=poly_pairs())
def test_gcd_and_xgcd_match_the_oracle(case):
    spec, ia, ib = case
    f, g = poly_from_indices(spec, ia), poly_from_indices(spec, ib)
    a, b = elements(spec, ia), elements(spec, ib)
    og, os, ot = coeff_xgcd(spec, a, b)
    assert same(gcd(f, g), og)
    d, s, t = xgcd(f, g)
    assert same(d, og) and same(s, os) and same(t, ot)
    bezout = coeff_add(spec, coeff_mul(spec, elements(spec, s.indices), a),
                       coeff_mul(spec, elements(spec, t.indices), b))
    assert as_indices(bezout) == as_indices(og)


@settings(max_examples=150, deadline=None)
@given(case=poly_pairs(), data=st.data())
def test_fused_addmul_is_add_of_mul(case, data):
    spec, ia, ib = case
    ring = _load_ring(spec)
    a, b = poly_from_indices(spec, ia).indices, poly_from_indices(spec, ib).indices
    c = poly_from_indices(spec, data.draw(index_lists(spec, 3))).indices
    if data.draw(st.booleans()):  # c * b cancels a down to a's lowest coefficients
        a = ring.sub(a[: data.draw(st.integers(0, 2))], ring.mul(c, b))
    assert ring.addmul(a, c, b) == ring.add(a, ring.mul(c, b))


@pytest.mark.parametrize("spec", PATHS)
def test_fused_addmul_on_empty_and_cancelling_operands(spec):
    ring = _load_ring(spec)
    f = (1, spec.q - 1, 2)
    for a, c, b in [((), (), ()), (f, (), f), (f, f, ()), ((), f, f), ((), (), f), ((), f, ())]:
        assert ring.addmul(a, c, b) == ring.add(a, ring.mul(c, b))
    assert ring.addmul(ring.sub((), ring.mul(f, f)), f, f) == ()


@settings(max_examples=100, deadline=None)
@given(case=poly_pairs(), exponent=st.integers(0, 5), data=st.data())
def test_powers_and_evaluation_match_the_oracle(case, exponent, data):
    spec, ia, _ = case
    f, a = poly_from_indices(spec, ia[:4]), elements(spec, ia[:4])
    assert same(f**exponent, coeff_pow(spec, a, exponent))
    point = spec.element(data.draw(st.integers(0, spec.q - 1)))
    assert f(point) == coeff_eval(spec, a, point)


# ---------------------------------------------------------------------------
# What the index storage keeps of the element-tuple representation.


@pytest.mark.parametrize("spec", PATHS)
def test_coeffs_and_lead_are_the_fields_elements(spec):
    indices = (spec.q - 1, 0, 2, 1, spec.q - 2)
    f = poly_from_indices(spec, indices)
    assert f.indices == indices
    assert all(type(c) is FieldElement for c in f.coeffs)
    assert f.coeffs == tuple(spec.element(i) for i in indices)
    assert f.lead == spec.element(spec.q - 2)
    if spec.q <= TABLE_MAX_ORDER:
        assert all(c is spec.element(i) for c, i in zip(f.coeffs, indices))
        assert f.lead is spec.element(spec.q - 2)


@pytest.mark.parametrize("spec", PATHS)
def test_element_built_and_index_built_polys_agree(spec):
    for indices in [(), (0,), (3, 0, 0), (1, 2, spec.q - 1), (0, 0, spec.q - 2)]:
        by_elements = Poly(spec, [spec.element(i) for i in indices])
        by_indices = poly_from_indices(spec, indices)
        assert by_elements == by_indices
        assert hash(by_elements) == hash(by_indices)
        trimmed = tuple(indices[: by_indices.degree + 1])
        assert by_elements.indices == by_indices.indices == trimmed


@pytest.mark.parametrize("spec", PATHS)
def test_polys_and_matrices_pickle(spec):
    f = poly_from_indices(spec, (2, 0, spec.q - 1))
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.indices == f.indices and hash(g) == hash(f)
    a = PolyMatrix.from_indices(spec, [[0, 5, spec.q**2 + 3], [1, spec.q, 2]])
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b.entries == a.entries


@pytest.mark.parametrize("spec", PATHS)
def test_foreign_coefficients_are_rejected(spec):
    other = make_field(5)
    with pytest.raises(FieldMismatchError):
        Poly(spec, (spec.element(1), other.element(1)))
    with pytest.raises(TypeError):
        Poly(spec, (spec.element(1), 1))
    with pytest.raises(ValueError):
        poly_from_indices(spec, (spec.q,))
    f = poly_from_index(spec, spec.q + 1)
    with pytest.raises(FieldMismatchError):
        f * other.element(1)
    with pytest.raises(FieldMismatchError):
        f + poly_from_index(other, 3)
    with pytest.raises(FieldMismatchError):
        f(other.element(1))
