import numpy as np
import pytest

import delaykit as dk
from delaykit.errors import CapacityError, SeriesFormatError, ValidationError
from delaykit.timeseries import read_rows


def test_series_rejects_non_finite():
    with pytest.raises(ValidationError):
        dk.ScalarSeries(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        dk.ScalarSeries(np.array([np.inf]))


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
