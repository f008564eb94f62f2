"""CSV ingestion, splits, synthetic generators."""

import math
import os
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from splinecfr import data_io
from splinecfr.data_io import (
    Dataset,
    gen_gamma,
    gen_sinc,
    load_csv,
    read_numeric_table,
    split_out_of_domain,
    split_out_of_sample,
)
from splinecfr.errors import DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


def read_through_pipe(path, payload, **kwargs):
    """read_numeric_table on a named pipe made at ``path``, which a thread
    fills with the bytes ``payload``."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(payload,), daemon=True)
    writer.start()
    try:
        return read_numeric_table(str(path), **kwargs)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def read_file_then_pipe(path, payload, **kwargs):
    """Read ``payload`` as a file at ``path``, then through a pipe at the same
    path; returns both outcomes, each (names, data) or the DataError's text."""

    def outcome(read):
        try:
            return read()
        except DataError as exc:
            return str(exc)

    path.write_bytes(payload)
    from_file = outcome(lambda: read_numeric_table(str(path), **kwargs))
    path.unlink()
    return from_file, outcome(lambda: read_through_pipe(path, payload, **kwargs))


def wide_table_payload(rows=3000, cols=82):
    """A seeded table of floats spread over seven decades, and its CSV bytes."""
    rng = np.random.default_rng(7)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(rows, cols))
    lines = [",".join(f"c{j}" for j in range(cols))]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    return table, ("\n".join(lines) + "\n").encode("utf-8")


def make_dataset(y, X=None):
    y = np.asarray(y, dtype=float)
    if X is None:
        X = np.arange(len(y), dtype=float)[:, None]
    names = tuple(f"x{j}" for j in range(X.shape[1]))
    return Dataset(features=X, target=y, feature_names=names, target_name="y")


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        ds = load_csv(path, "y")
        assert ds.feature_names == ("a", "b")
        npt.assert_array_equal(ds.features, [[1, 2], [4, 5]])
        npt.assert_array_equal(ds.target, [3, 6])

    @pytest.mark.parametrize("header", ["a,b,y", "a,y,b", "y,a,b"])
    def test_features_and_target_own_their_memory(self, tmp_path, header):
        # No view may keep the parsed table alive beside the feature copy.
        path = write(tmp_path, header + "\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, "y")
        assert ds.features.flags.owndata and ds.features.flags.c_contiguous
        assert ds.target.flags.owndata
        assert not np.shares_memory(ds.features, ds.target)

    def test_target_anywhere(self, tmp_path):
        path = write(tmp_path, "y,a\n1,2\n3,4\n")
        ds = load_csv(path, "y")
        npt.assert_array_equal(ds.target, [1, 3])
        npt.assert_array_equal(ds.features, [[2], [4]])

    def test_blank_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\n,4\n")
        with pytest.raises(DataError, match=r"line 3, column 'a': empty cell"):
            load_csv(path, "y")

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\nfoo,4\n")
        with pytest.raises(DataError, match=r"line 3, column 'a'"):
            load_csv(path, "y")

    def test_non_finite_cell(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\ninf,4\n")
        with pytest.raises(DataError, match=r"line 3, column 'a': non-finite"):
            load_csv(path, "y")

    def test_odd_cells_parse_as_float_does(self, tmp_path):
        # Underscores, Arabic-Indic digits, Unicode spaces, signs, exponents.
        good = ["1_000", "\u0661\u0662\u0663", "\u20031.5\u2003", " 2 ", "+.5", "-0", "1.5E3"]
        path = tmp_path / "odd.csv"
        path.write_text("a\n" + "\n".join(good) + "\n", encoding="utf-8")
        _, data = read_numeric_table(str(path))
        assert data[:, 0].tobytes() == np.array([float(c) for c in good]).tobytes()
        for bad, what in (("0x10", "non-numeric value '0x10'"), (" ", "empty cell")):
            path.write_text(f"a,b\n1_000,2\n3,{bad}\n", encoding="utf-8")
            with pytest.raises(DataError, match=f"line 3, column 'b': {what}"):
                read_numeric_table(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n#3,4\n", r"line 3, column 'a': non-numeric value '#3'"),
            ("a,b\n1,2 #x\n", r"line 2, column 'b': non-numeric value '2 #x'"),
            ("a,b\n1,2\n \n3,4\n", r"line 3: expected 2 cells, got 1"),
            ("a\n1\n \n3\n", r"line 3, column 'a': empty cell"),
            ("a,b\n", r"no data rows"),
            ("a,b\n\n\n", r"no data rows"),
            ("a,b\n1,2,\n3,4,\n", r"line 2: expected 2 cells, got 3"),
            ("a,b\n1,2,3\n4,5,6\n", r"line 2: expected 2 cells, got 3"),
            ("a,b\n1,2\n1\x00,2\n", r"line 3"),
            ("a,b\n1,2\n3,nan\n", r"line 3, column 'b': non-finite value"),
            ("a,b\n1,2\n3,-INF\n", r"line 3, column 'b': non-finite value"),
            ("a,b\n1,2\n3,4\nInfinity,5\n", r"line 4, column 'a': non-finite value"),
            ("a,b\n1,2\n3,1e999\n", r"line 3, column 'b': non-finite value"),
            # float() rejects the ASCII separators that numpy skips as spaces.
            ("a,b\n1,2\n\x1c3,4\n", r"line 3, column 'a': non-numeric value '\\x1c3'"),
            ("a,b\n1,2\n3,4\x1f\n", r"line 3, column 'b': non-numeric value '4\\x1f'"),
            # Lines are physical lines, not records: a quoted cell spans two.
            ('a,b\n"1\n",2\n3,x\n', r"line 4, column 'b': non-numeric value 'x'"),
            ("a,b\n1,2\n\n3,x\n", r"line 4, column 'b': non-numeric value 'x'"),
            # A bad cell above a ragged row is the first bad line.
            ("a,b\n1,2\nx,3\n4\n", r"line 3, column 'a': non-numeric value 'x'"),
            ("a,b\n1,2\n3,inf\n4\n", r"line 3, column 'b': non-finite value"),
            # Each \udcff is written as the byte 0xff, which is not UTF-8.
            ("a,b\n1,2\n3,\udcff\n", r"line 3, column 'b': not UTF-8"),
            ('a,b\n1,2\n"\n3",4\udcff5\n', r"line 4, column 'b': not UTF-8"),
            ("a,b\n1_000,2\n\udcff,4\n", r"line 3, column 'a': not UTF-8"),
            ("a,b\n\u0661,2\n3,\udcff\n", r"line 3, column 'b': not UTF-8"),
            ("a,\udcffb\n1,2\n", r"line 1: header is not UTF-8"),
        ],
        ids=[
            "comment-line", "comment-in-cell", "blank-line", "blank-line-one-column",
            "header-only", "header-and-blank-lines", "trailing-comma", "wide-rows",
            "nul", "nan", "minus-inf", "infinity", "overflow", "file-separator",
            "unit-separator", "quoted-newline", "blank-line-before-bad-cell",
            "bad-cell-before-ragged-row", "non-finite-before-ragged-row",
            "not-utf8", "not-utf8-after-quoted-newline", "not-utf8-beside-underscore",
            "not-utf8-after-valid-utf8", "not-utf8-header",
        ],
    )
    def test_bad_tables_name_the_first_bad_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        payload = text.encode("utf-8", "surrogateescape")
        path.write_bytes(payload)
        with pytest.raises(DataError, match=message) as from_file:
            read_numeric_table(str(path))
        if hasattr(os, "mkfifo"):  # a pipe names the same line and column
            path.unlink()
            with pytest.raises(DataError) as from_pipe:
                read_through_pipe(path, payload)
            assert str(from_pipe.value) == str(from_file.value)

    def test_csv_module_errors_name_the_line(self, tmp_path):
        # The csv module refuses a cell over its field size limit (and, before
        # Python 3.11, a NUL byte); that is an input error, not a crash.
        path = tmp_path / "huge.csv"
        path.write_text("a,b\n1,2\n3," + "9" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3: field larger than field limit"):
            read_numeric_table(str(path))

    @pytest.mark.parametrize(
        "text, names",
        [
            ("a,b\r\n1,2.5\r\n\r\n3,4\r\n", ["a", "b"]),
            ("a,b\r1,2.5\r3,4", ["a", "b"]),
            ('a,"b"\n"1",2.5\n3,"4"\n', ["a", "b"]),
            ("\ufeffa,b\n1,2.5\n3,4\n", ["\ufeffa", "b"]),
        ],
        ids=["crlf", "bare-cr", "quoted", "bom"],
    )
    def test_line_endings_quotes_and_bom(self, tmp_path, text, names):
        path = tmp_path / "ok.csv"
        path.write_bytes(text.encode("utf-8"))
        got, data = read_numeric_table(str(path))
        assert got == names
        assert data.tobytes() == np.array([[1.0, 2.5], [3.0, 4.0]]).tobytes()

    @needs_fifo
    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1_000,2\n3,4\n", None),
            ("a,b\n1,2\n3,x\n", "line 3, column 'b'"),
            ('a,"b"\n"1_000",2\n3,"4"\n', None),
            ("a,b\n1000,2\n3,4\n", None),
        ],
    )
    def test_pipe_is_read_in_one_pass(self, tmp_path, monkeypatch, text, message):
        # A pipe is held once as bytes and then read as the file is: numpy's
        # pass first, the exact reader only where a cell needs it (quotes,
        # underscores, a bad cell). Both give the file's bits or its message.
        exact_reads = []
        float_body = data_io._float_body
        monkeypatch.setattr(
            data_io, "_float_body", lambda *a: exact_reads.append(1) or float_body(*a)
        )
        from_file, from_pipe = read_file_then_pipe(tmp_path / "t.csv", text.encode("utf-8"))
        numpy_reads = message is None and "_" not in text and '"' not in text
        assert exact_reads == ([] if numpy_reads else [1, 1])
        if message is None:
            assert from_pipe[0] == from_file[0] == ["a", "b"]
            assert from_pipe[1].tobytes() == from_file[1].tobytes()
            assert from_pipe[1].tolist() == [[1000.0, 2.0], [3.0, 4.0]]
        else:
            assert message in from_file
            assert from_pipe == from_file

    @needs_fifo
    @pytest.mark.parametrize(
        "text, message",
        [
            ("run,x\n0,1\n0.5,2\n", "line 3, column 'run': expected an integer, got '0.5'"),
            # Non-finite cells come first, then integer columns in the order given.
            ("run,x\n0.5,1\n1,2.5\n2,inf\n", "line 4, column 'x': non-finite value"),
            ("run,x\n0.5,1\n1,2.5\n", "line 3, column 'x': expected an integer, got '2.5'"),
        ],
    )
    def test_pipe_checks_integer_columns_as_the_file_does(self, tmp_path, text, message):
        from_file, from_pipe = read_file_then_pipe(
            tmp_path / "ids.csv", text.encode("utf-8"), integer_columns=["x", "run"]
        )
        assert from_file.endswith(message)
        assert from_pipe == from_file

    def test_reader_memory_is_about_the_table(self, tmp_path):
        table, payload = wide_table_payload()
        path = tmp_path / "wide.csv"
        path.write_bytes(payload)
        del payload
        tracemalloc.start()
        try:
            _, data = read_numeric_table(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.tobytes() == table.tobytes()
        assert peak < 3 * data.nbytes

    @needs_fifo
    def test_pipe_reader_memory_is_a_few_tables(self, tmp_path):
        # The pipe's bytes (2.5 times the matrix here) are held once; read
        # cell by cell, as numpy's pass avoids, it would take 11 times it.
        table, payload = wide_table_payload()
        tracemalloc.start()
        try:
            _, data = read_through_pipe(tmp_path / "wide.csv", payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.tobytes() == table.tobytes()
        assert peak <= 5 * data.nbytes

    def test_missing_target_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="no column named 'y'"):
            load_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\n3\n")
        with pytest.raises(DataError, match="expected 2 cells"):
            load_csv(path, "y")

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "missing.csv"), "y")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            load_csv(write(tmp_path, ""), "y")


class TestOutOfSample:
    def test_two_thirds_split_small(self):
        ds = make_dataset(np.arange(9.0))
        pair = split_out_of_sample(ds, seed=0)
        assert pair.train.n == 6
        assert pair.test.n == 3

    def test_benchmark_scale_sizes(self):
        n = 21263
        ds = make_dataset(np.arange(float(n)))
        pair = split_out_of_sample(ds, seed=1)
        assert pair.train.n == 14175
        assert pair.test.n == 7088

    def test_deterministic_and_seed_sensitive(self):
        ds = make_dataset(np.arange(30.0))
        a = split_out_of_sample(ds, seed=5)
        b = split_out_of_sample(ds, seed=5)
        c = split_out_of_sample(ds, seed=6)
        npt.assert_array_equal(a.train.target, b.train.target)
        assert not np.array_equal(a.train.target, c.train.target)

    def test_partition_covers_everything(self):
        ds = make_dataset(np.arange(20.0))
        pair = split_out_of_sample(ds, seed=3)
        together = np.sort(np.concatenate([pair.train.target, pair.test.target]))
        npt.assert_array_equal(together, np.arange(20.0))

    def test_rows_stay_aligned(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = X[:, 0] * 10
        ds = Dataset(features=X, target=y, feature_names=("a", "b"), target_name="y")
        pair = split_out_of_sample(ds, seed=9)
        npt.assert_allclose(pair.train.features[:, 0] * 10, pair.train.target)

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 3"):
            split_out_of_sample(make_dataset([1.0, 2.0]), seed=0)


class TestOutOfDomain:
    def test_threshold_and_pools(self):
        ds = make_dataset(np.arange(1.0, 11.0))
        pair = split_out_of_domain(ds, quantile=0.9, seed=0)
        assert pair.threshold == 10.0
        assert pair.train.target.max() < 10.0
        assert pair.test.target.min() >= 10.0

    def test_strict_separation_with_boundary_ties(self):
        # Nine copies of 5.0 around the cut: they must all land in train.
        y = np.array([1.0, 2.0] + [5.0] * 9 + [8.0, 9.0])
        pair = split_out_of_domain(make_dataset(y), quantile=0.8, seed=2)
        assert pair.train.target.max() < pair.threshold
        assert pair.test.target.min() >= pair.threshold
        assert pair.threshold == 8.0

    def test_halves_are_seed_determined(self):
        ds = make_dataset(np.arange(100.0))
        a = split_out_of_domain(ds, seed=4)
        b = split_out_of_domain(ds, seed=4)
        c = split_out_of_domain(ds, seed=5)
        npt.assert_array_equal(a.train.target, b.train.target)
        assert not np.array_equal(a.train.target, c.train.target)
        assert a.threshold == c.threshold  # the pools never move with the seed

    def test_half_sizes(self):
        ds = make_dataset(np.arange(100.0))
        pair = split_out_of_domain(ds, quantile=0.9, seed=0)
        assert pair.train.n == 45  # floor(90 / 2)
        assert pair.test.n == 5  # floor(10 / 2)

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            split_out_of_domain(make_dataset(np.full(10, 3.0)), seed=0)

    def test_silly_quantile_rejected(self):
        ds = make_dataset(np.arange(10.0))
        with pytest.raises(ValueError, match="quantile"):
            split_out_of_domain(ds, quantile=1.5, seed=0)

    def test_every_test_target_above_every_train_target(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            y = np.round(rng.normal(size=200), 1)  # plenty of ties
            pair = split_out_of_domain(make_dataset(y), quantile=0.9, seed=seed)
            assert pair.train.target.max() < pair.test.target.min()


class TestGenerators:
    def test_gamma_known_value(self):
        ds = gen_gamma(3, x_range=(2.0, 4.0), noise_sd=0.0, seed=0)
        npt.assert_allclose(ds.features[:, 0], [2.0, 3.0, 4.0])
        npt.assert_allclose(ds.target, [1.0, 2.0, 6.0], atol=1e-12)

    def test_gamma_deterministic_per_seed(self):
        a = gen_gamma(50, seed=3)
        b = gen_gamma(50, seed=3)
        c = gen_gamma(50, seed=4)
        npt.assert_array_equal(a.target, b.target)
        assert not np.array_equal(a.target, c.target)

    def test_gamma_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            gen_gamma(10, x_range=(-0.5, 0.5))
        with pytest.raises(ValueError, match="pole"):
            gen_gamma(10, x_range=(-2.5, -1.5))
        # no integer inside: fine
        ds = gen_gamma(5, x_range=(-0.9, -0.1), noise_sd=0.0)
        assert np.isfinite(ds.target).all()

    def test_sinc_center_value(self):
        ds = gen_sinc(5, x_range=(-2.0, 2.0), noise_sd=0.0, seed=0)
        assert ds.target[2] == 1.0

    def test_sinc_matches_formula(self):
        ds = gen_sinc(9, x_range=(1.0, 9.0), noise_sd=0.0, seed=0)
        npt.assert_allclose(ds.target, np.sin(ds.features[:, 0]) / ds.features[:, 0])

    def test_bad_args(self):
        with pytest.raises(ValueError, match="n must"):
            gen_gamma(0)
        with pytest.raises(ValueError, match="lo < hi"):
            gen_sinc(5, x_range=(2.0, 1.0))
        with pytest.raises(ValueError, match="noise_sd"):
            gen_sinc(5, noise_sd=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_sd must be finite"):
                gen_sinc(5, noise_sd=bad)
        for x_range in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="x_range must be finite"):
                gen_sinc(5, x_range=x_range)
            with pytest.raises(ValueError, match="x_range must be finite"):
                gen_gamma(5, x_range=x_range)
