"""Property tests for the object layer: Smith form, completion, text forms."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fqx import (
    PolyMatrix,
    complete_to_invertible,
    determinant,
    is_unimodular,
    make_field,
    poly_from_index,
    poly_from_string,
    poly_to_pretty,
    poly_to_string,
    smith_normal_form,
    stack,
)

from oracles import matmul

FIELDS = [make_field(2), make_field(3), make_field(2, 2)]

# entries of degree at most 2
ENTRY_DEGREES = 3


@st.composite
def matrices(draw, square_or_wide=False):
    spec = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k if square_or_wide else 1, 3))
    entry = st.integers(0, spec.q**ENTRY_DEGREES - 1)
    rows = [[draw(entry) for _ in range(n)] for _ in range(k)]
    return PolyMatrix.from_indices(spec, rows)


def _is_unit(f) -> bool:
    return f.degree == 0


@settings(max_examples=100, deadline=None)
@given(a=matrices())
def test_smith_form_factors_the_input(a):
    u, d, v = smith_normal_form(a)
    assert matmul(matmul(u, d), v) == a
    assert _is_unit(determinant(u))
    assert _is_unit(determinant(v))


@settings(max_examples=100, deadline=None)
@given(a=matrices(square_or_wide=True))
def test_completion_gives_an_invertible_square(a):
    assume(is_unimodular(a))
    b = complete_to_invertible(a)
    assert b.k == a.n - a.k
    assert b.k == 0 or b.n == a.n
    assert _is_unit(determinant(stack(a, b)))


@settings(max_examples=100, deadline=None)
@given(spec=st.sampled_from(FIELDS), index=st.integers(0, 4**8))
def test_text_forms_round_trip(spec, index):
    f = poly_from_index(spec, index)
    assert poly_from_string(spec, poly_to_string(f)) == f
    assert poly_from_string(spec, poly_to_pretty(f)) == f
