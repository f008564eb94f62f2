"""Property tests of the design assembly against the dense oracle."""

import numpy as np
import pytest

from reference_model import oracle_design
from splinecfr.spline_basis import LayerBases, build_knot_vector, design_matrix
from test_spline_basis import clip_to_ends, first_beyond

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def knot_vectors(draw):
    lo = draw(st.floats(-5.0, 5.0))
    width = draw(st.floats(0.5, 10.0))
    # Interior knots on a grid of 1/1000 of the width, so no two are so close
    # that the boundary slopes alone decide the rounding of a row sum.
    grid = draw(st.sets(st.integers(1, 999), max_size=8))
    return build_knot_vector([lo + width * k / 1000 for k in sorted(grid)], lo, lo + width)


@st.composite
def problems(draw):
    bases = draw(st.lists(knot_vectors(), min_size=1, max_size=4))
    n = draw(st.integers(0, 30))
    # Points up to one width outside the box, bounds and knots included.
    cols = []
    for kv in bases:
        width = kv.hi - kv.lo
        marks = st.sampled_from([kv.lo, kv.hi, *kv.interior])
        spread = st.floats(-1.0, 2.0).map(lambda u, kv=kv, width=width: kv.lo + u * width)
        cols.append(draw(st.lists(st.one_of(marks, spread), min_size=n, max_size=n)))
    return bases, np.array(cols, dtype=float).T


@hypothesis.settings(deadline=None)
@hypothesis.given(problems())
def test_design_matches_dense_oracle(problem):
    # The design takes the drawn points moved onto the box and refuses the
    # first one beyond it; the oracle's rows keep the partition of unity
    # beyond the box as well.
    bases, X = problem
    inside = clip_to_ends(X, bases)
    got = design_matrix(inside, LayerBases(bases))
    assert got.tobytes() == oracle_design(inside, bases).tobytes()
    beyond = first_beyond(X, bases)
    if beyond is not None:
        with pytest.raises(ValueError, match=rf"^X row {beyond[0]}, column {beyond[1]}: "):
            design_matrix(X, LayerBases(bases))
    start, dense = 1, oracle_design(X, bases)
    for kv in bases:
        for design in (got, dense):
            block = design[:, start : start + kv.basis_count]
            assert np.abs(block.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-9
        start += kv.basis_count
