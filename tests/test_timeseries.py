import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaykit as dk
from delaykit import timeseries
from delaykit.errors import (
    CapacityError,
    DelayKitError,
    SeriesFormatError,
    ValidationError,
)
from delaykit.timeseries import read_rows


def test_series_rejects_non_finite():
    with pytest.raises(ValidationError):
        dk.ScalarSeries(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        dk.ScalarSeries(np.array([np.inf]))


def test_series_must_be_flat_reals():
    with pytest.raises(ValidationError, match="^series must hold real numbers$"):
        dk.delay_reconstruct(["a", "b"], 1, 1)
    with pytest.raises(ValidationError, match="one-dimensional"):
        dk.split(np.zeros((3, 2)), 0.5)
    with pytest.raises(ValidationError, match="^point cloud must be a one- or two-"):
        dk.ksg_mutual_information(np.zeros((5, 2, 2)), np.zeros(5), 2)


def test_series_rejects_empty():
    with pytest.raises(ValidationError):
        dk.ScalarSeries(np.array([]))


def test_series_values_immutable():
    s = dk.ScalarSeries(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.values[0] = 9.0


class TestDelayReconstruct:
    def test_definition_unrolled(self):
        s = dk.ScalarSeries(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        r = dk.delay_reconstruct(s, 2, 1)
        assert r.points.tolist() == [[2, 1], [3, 2], [4, 3], [5, 4]]

    def test_m1_ignores_tau(self):
        s = dk.ScalarSeries(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        r = dk.delay_reconstruct(s, 1, 7)
        assert r.points.shape == (5, 1)
        assert np.array_equal(r.points[:, 0], s.values)

    def test_point_count_50k(self):
        s = dk.ScalarSeries(np.zeros(50000) + np.arange(50000))
        r = dk.delay_reconstruct(s, 8, 26)
        assert len(r) == 50000 - 7 * 26 == 49818

    def test_coordinate_invariant(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=200)
        s = dk.ScalarSeries(values)
        for m, tau in [(1, 3), (2, 5), (4, 7), (3, 1)]:
            r = dk.delay_reconstruct(s, m, tau)
            assert len(r) == 200 - (m - 1) * tau
            for i in (0, 1, len(r) - 1):
                for c in range(m):
                    assert r.points[i, c] == values[i + (m - 1) * tau - c * tau]

    def test_projection_recovers_suffix(self):
        rng = np.random.default_rng(1)
        s = dk.ScalarSeries(rng.normal(size=100))
        r = dk.delay_reconstruct(s, 3, 4)
        assert np.array_equal(r.points[:, 0], s.values[8:])

    def test_too_short_reports_requirement(self):
        s = dk.ScalarSeries(np.arange(10.0))
        with pytest.raises(CapacityError) as exc:
            dk.delay_reconstruct(s, 4, 5)
        assert exc.value.needed == 16
        assert exc.value.got == 10

    def test_parameter_validation(self):
        s = dk.ScalarSeries(np.arange(10.0))
        with pytest.raises(ValidationError):
            dk.delay_reconstruct(s, 0, 1)
        with pytest.raises(ValidationError):
            dk.delay_reconstruct(s, 2, 0)

    def test_raw_array_accepted(self):
        values = np.arange(10.0)
        r = dk.delay_reconstruct(values, 3, 2)
        assert np.array_equal(r.points,
                              dk.delay_reconstruct(dk.ScalarSeries(values), 3, 2).points)
        assert r.source_length == 10
        # the points view a copy, not the caller's array
        values[4] = -1.0
        assert r.points[:, 0].tolist() == list(range(4, 10))


def oracle_delay_matrix(values, m, tau):
    """The delay matrix as m column copies, stacked."""
    count = values.shape[0] - (m - 1) * tau
    return np.column_stack([values[(m - 1 - c) * tau : (m - 1 - c) * tau + count]
                            for c in range(m)])


@st.composite
def delay_shapes(draw):
    """(n, m, tau) with span (m - 1) * tau <= n - 1, the last included."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 8))
    if m == 1:
        return n, m, draw(st.integers(1, 100))
    tau = draw(st.integers(1, max(1, (n - 1) // (m - 1))))
    if (m - 1) * tau >= n or draw(st.booleans()):
        n = (m - 1) * tau + 1  # span = n - 1: one delay vector
    return n, m, tau


@given(shape=delay_shapes(), seed=st.integers(0, 2**32 - 1),
       writeable=st.booleans())
def test_delay_matrix_is_a_read_only_view_of_the_oracle(shape, seed, writeable):
    n, m, tau = shape
    values = np.random.default_rng(seed).standard_normal(n)
    values.flags.writeable = writeable
    view = timeseries.delay_matrix(values, m, tau)
    expected = oracle_delay_matrix(values, m, tau)
    assert view.shape == expected.shape == (n - (m - 1) * tau, m)
    assert view.tobytes() == expected.tobytes()
    assert np.shares_memory(view, values)
    assert not view.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        view[0, 0] = 1.0


@pytest.mark.parametrize("call", [
    lambda x: dk.delay_reconstruct(x, 3, 5),
    lambda x: dk.active_information_storage(x, 3, 5),
    lambda x: dk.fnn_fraction(x, 2, 10),
    lambda x: dk.rolling_evaluate(x, 0.5, "lma", m=3, tau=5),
    lambda x: dk.edge_lifespan_diagram(x, [1, 3], 5, 0.1, 1),
], ids=["delay_reconstruct", "ais", "fnn", "lma", "lifespan"])
def test_span_of_the_whole_series_is_a_toolkit_error(call):
    # ten samples, span 10: no delay vector, and no numpy error either
    with pytest.raises(DelayKitError):
        call(np.random.default_rng(0).standard_normal(10))


class TestSplit:
    def test_ninety_ten(self):
        s = dk.ScalarSeries(np.arange(100.0))
        parts = dk.split(s, 0.9)
        assert len(parts.train) == 90
        assert len(parts.test) == 10

    def test_even_split(self):
        parts = dk.split(dk.ScalarSeries(np.arange(10.0)), 0.5)
        assert len(parts.train) == 5 and len(parts.test) == 5

    def test_floor_rule(self):
        parts = dk.split(dk.ScalarSeries(np.arange(3.0)), 0.9)
        assert len(parts.train) == 2 and len(parts.test) == 1

    def test_concatenation_reproduces_series(self):
        rng = np.random.default_rng(2)
        s = dk.ScalarSeries(rng.normal(size=37))
        parts = dk.split(s, 0.61)
        rebuilt = np.concatenate([parts.train.values, parts.test.values])
        assert np.array_equal(rebuilt, s.values)

    def test_degenerate_split_rejected(self):
        s = dk.ScalarSeries(np.arange(5.0))
        with pytest.raises(ValidationError):
            dk.split(s, 0.05)  # empty train
        with pytest.raises(ValidationError):
            dk.split(s, 1.0)
        with pytest.raises(ValidationError):
            dk.split(s, 0.0)

    def test_raw_array_wrapped(self):
        parts = dk.split(np.arange(10.0), 0.7)
        assert isinstance(parts.train, dk.ScalarSeries)
        assert parts.train.values.tolist() == list(range(7))
        assert parts.test.values.tolist() == [7.0, 8.0, 9.0]


class TestSeriesFiles:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.0\n2.0\n")
        s = dk.load_series(p)
        assert s.values.tolist() == [1.0, 2.0]

    def test_comment_skipped(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# header\n3.5\n")
        assert dk.load_series(p).values.tolist() == [3.5]

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.0\nabc\n")
        with pytest.raises(SeriesFormatError) as exc:
            dk.load_series(p)
        assert exc.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# only a comment\n")
        with pytest.raises(SeriesFormatError):
            dk.load_series(p)

    @pytest.mark.parametrize("text, line", [
        ("1,2\n# note\n3,4\n5\n", 4),        # ragged row
        ("1,2\n\n3,nan\n", 3),                # non-finite value
        ("1,2\n3,x\n", 2),                     # bad token
        ("1,2\n3,4\n\xff\xfe,1\n", 3),      # undecodable bytes
    ])
    def test_row_errors_report_line(self, tmp_path, text, line):
        p = tmp_path / "rows.csv"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(SeriesFormatError) as exc:
            read_rows(p)
        assert exc.value.line == line

    def test_rows_keep_first_row_width(self, tmp_path):
        p = tmp_path / "rows.csv"
        p.write_text("# x,y\n1, 2\n-3.5,4e2\n")
        assert read_rows(p).tolist() == [[1.0, 2.0], [-3.5, 400.0]]

    @pytest.mark.parametrize("text, line", [("1.0\n2,3\n", 2),
                                            ("1.0\n\ninf\n", 3)])
    def test_series_rejects_extra_columns_and_non_finite(self, tmp_path, text, line):
        p = tmp_path / "s.txt"
        p.write_text(text)
        with pytest.raises(SeriesFormatError) as exc:
            dk.load_series(p)
        assert exc.value.line == line

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        s = dk.ScalarSeries(rng.normal(size=500) * 10.0 ** rng.integers(-8, 8, size=500))
        p = tmp_path / "rt.txt"
        dk.save_series(s, p, header_lines=["made by the round-trip test"])
        back = dk.load_series(p)
        assert np.array_equal(back.values, s.values)


def oracle_read_rows(path, width=None):
    """The line-by-line reader ``read_rows`` replaced: one float() per
    token, one row list per line, one array at the end."""
    rows = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise SeriesFormatError(
                    lineno, f"cannot parse {line!r} as real numbers") from None
            width = width or len(row)
            if len(row) != width:
                raise SeriesFormatError(
                    lineno, f"expected {width} values, got {len(row)}")
            if not all(map(math.isfinite, row)):
                raise SeriesFormatError(lineno, f"non-finite value in {line!r}")
            rows.append(row)
    if not rows:
        raise SeriesFormatError(0, "file contains no data lines")
    return np.array(rows, dtype=np.float64)


def outcome(reader, path, width):
    """The array a reader returns, as shape and bytes, or its error."""
    try:
        rows = reader(path, width)
    except SeriesFormatError as exc:
        return ("error", exc.line, str(exc))
    return ("rows", rows.shape, rows.tobytes())


# Spellings float() and numpy's string conversion must treat alike; the
# chunked reader hands whole chunks of them to numpy.
SPELLINGS = ["1_000", " 2.5 ", "+.5", "5.", "-0", "1e-400", "1e400", "1e5_0",
             "\uff11\uff12", "\u0663.\u0663", "\U0001d7cf", "\u20281", "1\xa0",
             "infinity", "-Infinity", "nan", "-nAn", "0x10", "1e", "", " ",
             "1\x00", "1__0", "_1", "+-1", "1 2", "1,2", "\x1c1\x1f", "\ufffd"]


def numpy_float(token):
    return np.asarray([token], dtype=np.float64)[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(SPELLINGS),
                 st.floats().map(repr),
                 st.text(alphabet="0123456789+-._eEinfatyx ,\t\n\u0663\uff11",
                         max_size=8),
                 st.text(max_size=4)))
def test_numpy_parses_tokens_as_float_does(token):
    try:
        expected = float(token)
    except ValueError:
        with pytest.raises(ValueError):
            numpy_float(token)
        return
    got = numpy_float(token)
    assert np.float64(expected).tobytes() == got.tobytes() or (
        math.isnan(expected) and np.isnan(got))


VALID = ["0", "1.5", "-2", "3e2", "+.5", "5.", "1_000", " 2.5 ", "\t7",
         "\uff11\uff12", "\u0663", "\x1c4"]
INVALID = ["x", "", "0x10", "1e", "1\x00", "1__0"]
NON_FINITE = ["nan", "inf", "-Infinity", "1e400"]

good = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                 st.sampled_from(VALID)).map(str.encode)
bad = st.one_of(st.sampled_from(INVALID + NON_FINITE).map(str.encode),
                st.just(b"\xff\xfe"))           # undecodable: becomes U+FFFD
skipped = st.sampled_from([b"", b"   ", b"# note", b"  # x,y"])
ending = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def text_files(draw):
    """A file of rows of one width, with blank and comment lines; half of
    them also hold bad tokens and ragged rows, each about one in 20."""
    width = draw(st.integers(1, 3))
    clean = draw(st.booleans())

    def fault():
        return not clean and draw(st.integers(0, 19)) == 0

    body = b""
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 5)) == 0:
            text = draw(skipped)
        else:
            count = draw(st.integers(1, 4)) if fault() else width
            text = b",".join(draw(bad) if fault() else draw(good)
                             for _ in range(count))
        body += text + draw(ending)
    if draw(st.booleans()):
        body = body.rstrip(b"\r\n")             # no newline at the end
    return body


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(body=text_files(), chunk=st.integers(1, 64), width=st.sampled_from([None, 1]))
def test_chunked_reader_matches_line_oracle(tmp_path_factory, body, chunk, width):
    # small chunks put chunk edges, and bad lines in later chunks, inside
    # short files
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    path.write_bytes(body)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timeseries, "_CHUNK_CHARS", chunk)
        got = outcome(read_rows, path, width)
    assert got == outcome(oracle_read_rows, path, width)


@pytest.mark.parametrize("chunk", [1, 16, 1 << 18])
def test_bad_line_in_a_later_chunk(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(timeseries, "_CHUNK_CHARS", chunk)
    lines = ["# header"] + [f"{i}.5" for i in range(200)]
    lines[150] = "1.0,2.0"
    p = tmp_path / "s.txt"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(SeriesFormatError, match="^line 151: expected 1 values, got 2$"):
        read_rows(p, width=1)
    lines[150] = "  # a comment in the middle"
    p.write_text("\n".join(lines) + "\n")
    assert read_rows(p).tolist() == [[i + 0.5] for i in range(200) if i != 149]


def test_long_file_reads_in_twice_the_array(tmp_path):
    # the row-list reader peaked at 20x the array on this file
    rng = np.random.default_rng(4)
    p = tmp_path / "long.txt"
    dk.save_series(dk.ScalarSeries(rng.standard_normal(200_000)), p, ["long"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = dk.load_series(p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(series) == 200_000
    assert peak <= 2.5 * series.values.nbytes
