"""Property tests of the CSV reader against Python's float()."""

import numpy as np
import pytest

from splinecfr.data_io import read_numeric_table
from splinecfr.errors import DataError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Cells that float() reads but numpy's parser may not: underscores,
# non-ASCII digits and spaces, signs, exponents, surrounding blanks.
ODD = ["1_000", "١٢٣", " 1.5 ", " 2 ", "\t-3\t", "+.5", "-0", "1.5E3", "5."]
# Cells that float() rejects or reads as non-finite.
BAD = ["", " ", "x", "0x10", "1__0", "1e", "--1", "\x1c3", "4\x1f", "nan", "-inf", "Infinity", "1e999"]

cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    # Subnormals.
    st.floats(-2.3e-308, 2.3e-308, allow_nan=False).map(repr),
    # Short UCI-style decimals such as 29.0 or 0.25.
    st.builds(lambda k, e: repr(k / 10**e), st.integers(-10**6, 10**6), st.integers(0, 3)),
    st.sampled_from(ODD),
)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 5))
    rows = [[draw(cells) for _ in range(m)] for _ in range(n)]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return rows, newline


def write_table(path, rows, newline):
    header = ",".join(f"c{j}" for j in range(len(rows[0])))
    path.write_bytes(newline.join([header, *map(",".join, rows)]).encode("utf-8") + b"\n")


@hypothesis.settings(deadline=None)
@hypothesis.given(tables())
def test_cells_parse_as_float_does(tmp_path_factory, table):
    rows, newline = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    write_table(path, rows, newline)
    names, data = read_numeric_table(str(path))
    assert names == [f"c{j}" for j in range(len(rows[0]))]
    assert data.tobytes() == np.array([[float(c) for c in row] for row in rows]).tobytes()


@hypothesis.settings(deadline=None)
@hypothesis.given(tables(), st.data())
def test_one_bad_cell_is_named_by_line_and_column(tmp_path_factory, table, data):
    rows, newline = table
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    rows[i][j] = data.draw(st.sampled_from(BAD))
    if len(rows[0]) == 1 and not rows[i][j]:
        rows[i][j] = " "  # an empty line is skipped, not an empty cell
    path = tmp_path_factory.getbasetemp() / "bad.csv"
    write_table(path, rows, newline)
    with pytest.raises(DataError, match=f"line {i + 2}, column 'c{j}': "):
        read_numeric_table(str(path))
