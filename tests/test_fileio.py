"""CSV round-trips and their rejection paths."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrovsky_lab.fileio import (
    FIELD_HEADER,
    PROFILE_HEADER,
    REPORT_HEADER,
    format_float,
    params_to_text,
    read_field,
    read_profile,
    read_reports,
    text_to_params,
    write_field,
    write_profile,
    write_reports,
)
from ostrovsky_lab.spectral import SpaceField, SpectralProfile


class TestFormatFloat:
    def test_pins(self):
        assert format_float(0.1) == "0.1"
        assert format_float(1.0) == "1.0"
        assert format_float(2.0**-20) == "9.5367431640625e-07"
        assert format_float(-0.0) == "-0.0"

    @given(st.floats(allow_nan=False))
    def test_round_trip(self, value):
        assert float(format_float(value)) == value


class TestProfileRoundTrip:
    def test_amplitudes_and_grid_exact(self, tmp_path, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        target = tmp_path / "p.csv"
        write_profile(p, target)
        q = read_profile(target)
        np.testing.assert_array_equal(q.amplitudes, p.amplitudes)
        assert q.xi_min == p.xi_min
        # (xi_max - xi_min) / (n - 1) happens to divide exactly here
        assert q.xi_step == p.xi_step
        assert q.n == p.n

    def test_written_files_are_byte_stable(self, tmp_path, corpus_by_id):
        p = corpus_by_id["band_unit"].profile
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        write_profile(p, a)
        write_profile(p, b)
        write_profile(read_profile(a), c)
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_single_row_gets_unit_step(self, tmp_path):
        target = tmp_path / "one.csv"
        target.write_text("xi,re,im\n2.5,1.0,0.0\n")
        p = read_profile(target)
        assert p.n == 1 and p.xi_min == 2.5 and p.xi_step == 1.0

    @pytest.mark.parametrize("text,match", [
        ("frequency,re,im\n1.0,1.0,0.0\n", "expected header"),
        ("xi,re,im\n", "no data rows"),
        ("xi,re,im\n1.0,zap,0.0\n2.0,1.0,0.0\n", "malformed numeric"),
        ("xi,re,im\n1.0,1.0\n2.0,1.0\n", "malformed numeric|3 columns"),
        ("xi,re,im\n1.0,1.0,0.0,9.0\n2.0,1.0,0.0,9.0\n", "3 columns"),
        ("xi,re,im\n2.0,1.0,0.0\n1.0,1.0,0.0\n", "strictly increasing"),
        ("xi,re,im\n1.0,1.0,0.0\n1.0,1.0,0.0\n", "strictly increasing"),
    ], ids=["header", "empty", "bad-number", "short-row", "long-row",
            "decreasing", "repeated"])
    def test_rejections(self, tmp_path, text, match):
        target = tmp_path / "bad.csv"
        target.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_profile(target)

    def test_spacing_tolerance(self, tmp_path):
        xi = 1.0 + 0.25 * np.arange(9)
        rows = "\n".join(f"{format_float(v)},1.0,0.0" for v in xi)
        good = tmp_path / "good.csv"
        good.write_text(f"xi,re,im\n{rows}\n")
        read_profile(good)  # uniform: fine

        xi_wobble = xi.copy()
        xi_wobble[4] += 1e-13 * 0.25
        rows = "\n".join(f"{format_float(v)},1.0,0.0" for v in xi_wobble)
        tiny = tmp_path / "tiny.csv"
        tiny.write_text(f"xi,re,im\n{rows}\n")
        read_profile(tiny)  # below the relative spacing tolerance

        xi_bad = xi.copy()
        xi_bad[4] += 1e-6 * 0.25
        rows = "\n".join(f"{format_float(v)},1.0,0.0" for v in xi_bad)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"xi,re,im\n{rows}\n")
        with pytest.raises(ValueError, match="not uniform"):
            read_profile(bad)


class TestFieldRoundTrip:
    def test_values_exact(self, tmp_path):
        u = SpaceField(-2.0, 0.5, np.array([1 + 2j, -0.25j, 3.0, 0.0]))
        target = tmp_path / "u.csv"
        write_field(u, target)
        v = read_field(target)
        np.testing.assert_array_equal(v.values, u.values)
        assert v.x_min == u.x_min and v.x_step == u.x_step

    @pytest.mark.parametrize("x,match", [
        ([0.0, 0.5, 1.5], "not uniform"),
        ([1.0, 0.5, 0.0], "strictly increasing"),
        ([0.0, math.nan, 1.0], "finite"),
    ], ids=["non-uniform", "decreasing", "nan"])
    def test_grid_rejections_name_the_path(self, tmp_path, x, match):
        target = tmp_path / "bad_field.csv"
        rows = "".join(f"{format_float(v)},1.0,0.0,1.0\n" for v in x)
        target.write_text(f"{','.join(FIELD_HEADER)}\n{rows}")
        with pytest.raises(ValueError, match=match) as info:
            read_field(target)
        assert str(target) in str(info.value)

    def test_header_and_abs_column(self, tmp_path):
        u = SpaceField(0.0, 1.0, np.array([3 + 4j]))
        target = tmp_path / "u.csv"
        write_field(u, target)
        lines = target.read_text().splitlines()
        assert lines[0] == ",".join(FIELD_HEADER)
        assert lines[1].split(",")[3] == "5.0"
        with pytest.raises(ValueError, match="expected header"):
            read_profile(target)


class TestParamsText:
    def test_formatting(self):
        text = params_to_text({"check": "slope", "n_t": 7, "t_max": 1e-3})
        assert text == "check=slope;n_t=7;t_max=0.001"

    def test_round_trip(self):
        params = {"epsilon": 0.01, "t": 1e-3, "delta": 0.5, "skip": "why_not",
                  "n_t": 7}
        assert text_to_params(params_to_text(params)) == params
        assert text_to_params("") == {}

    @pytest.mark.parametrize("value", ["a;b", "a,b", "a=b"])
    def test_reserved_characters_rejected(self, value):
        with pytest.raises(ValueError, match="reserved character"):
            params_to_text({"key": value})


class TestReportsRoundTrip:
    def test_round_trip(self, tmp_path, lemma_reports):
        target = tmp_path / "reports.csv"
        sample = lemma_reports[:40]
        write_reports(sample, target)
        back = read_reports(target)
        assert len(back) == len(sample)
        for orig, copy in zip(sample, back):
            assert copy.lemma_id == orig.lemma_id
            assert copy.profile_id == orig.profile_id
            assert copy.measured_lhs == orig.measured_lhs
            assert copy.bound_rhs == orig.bound_rhs
            assert copy.fitted_c == orig.fitted_c
            assert copy.passed == orig.passed
            assert copy.params == orig.params

    def test_verdict_column_spelling(self, tmp_path, lemma_reports):
        target = tmp_path / "reports.csv"
        write_reports(lemma_reports[:3], target)
        lines = target.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_HEADER)
        assert all(line.rsplit(",", 1)[1] in {"true", "false"}
                   for line in lines[1:])

    def test_header_rejected(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("id,who,what\n")
        with pytest.raises(ValueError, match="expected header"):
            read_reports(target)
