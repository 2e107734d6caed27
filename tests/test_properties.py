"""Property tests for the object layer: Smith form, completion, text forms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fqx import (
    PolyMatrix,
    complete_to_invertible,
    constant,
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
def matrices(draw):
    spec = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    entry = st.integers(0, spec.q**ENTRY_DEGREES - 1)
    rows = [[draw(entry) for _ in range(n)] for _ in range(k)]
    return PolyMatrix.from_indices(spec, rows)


@st.composite
def unimodular_matrices(draw):
    """The first k rows of a random product of elementary row operations.

    Such rows extend to an invertible square matrix, so they are
    unimodular by construction; k = n gives invertible squares.
    """
    spec = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    grid = [list(row) for row in PolyMatrix.identity(spec, n).entries]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            # scale a row by a nonzero constant
            c = constant(spec, draw(st.integers(1, spec.q - 1)))
            grid[i] = [c * f for f in grid[i]]
        else:
            # add a multiple of row j to row i, and maybe swap the two
            f = poly_from_index(spec, draw(st.integers(0, spec.q**ENTRY_DEGREES - 1)))
            grid[i] = [a + f * b for a, b in zip(grid[i], grid[j])]
            if draw(st.booleans()):
                grid[i], grid[j] = grid[j], grid[i]
    return PolyMatrix(spec, grid[:k])


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
@given(a=unimodular_matrices())
def test_completion_gives_an_invertible_square(a):
    assert is_unimodular(a)
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
