"""CSV round-trips and their rejection paths."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrovsky_lab import _ryu, fileio
from ostrovsky_lab.corpus import observation_grid
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
    write_table,
)
from ostrovsky_lab.spectral import SpaceField, SpaceGrid, SpectralProfile, synthesize


def _repr_rows(table):
    """The reference: each cell through repr, comma-joined rows."""
    return "".join(",".join(repr(float(c)) for c in row) + "\n" for row in table).encode()


def _boundary_values():
    normal_min = 2.2250738585072014e-308
    values = [0.0, 5e-324, normal_min, np.nextafter(normal_min, 0.0), 1e16, 1e-4, 1e-5,
              float(2**53 - 1), float(2**53), float(2**53 + 2), 1.7976931348623157e308]
    values += [2.0**e for e in range(-1074, 1024)]
    values += [float(f"1e{k}") for k in range(-323, 309)]  # every power of ten a double rounds to
    values += [float(10**k) for k in range(23)]  # the exact ones
    finite = np.array(values)
    with np.errstate(over="ignore"):  # the successor of the largest double is inf
        neighbours = np.concatenate([np.nextafter(finite, 0.0), np.nextafter(finite, np.inf)])
    finite = np.concatenate([finite, neighbours[np.isfinite(neighbours)]])
    return np.concatenate([finite, -finite])


def _sweep(seed=20, n=200_000):
    """Seeded doubles spread over every binade: random mantissas, uniform exponents."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**52, n, dtype=np.uint64)
    bits |= rng.integers(0, 2047, n, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    return bits.view(np.float64)


class TestFormatFloat:
    def test_pins(self):
        assert format_float(0.1) == "0.1"
        assert format_float(1.0) == "1.0"
        assert format_float(2.0**-20) == "9.5367431640625e-07"
        assert format_float(-0.0) == "-0.0"

    @given(st.floats(allow_nan=False))
    def test_round_trip(self, value):
        assert float(format_float(value)) == value


class TestBlockFormatter:
    """The block formatter against repr, cell for cell."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40), st.sampled_from([1, 2, 4]))
    def test_raw_bit_patterns(self, patterns, columns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        table = np.resize(values, (-(-values.size // columns), columns)) if values.size else values
        if values.size:
            assert _ryu.format_rows(table) == _repr_rows(table)

    def test_boundary_values(self):
        values = _boundary_values()
        assert {0.0, 5e-324, 1e16, 1.7976931348623157e308, 2.0**-1074, 2.0**1023} <= set(values)
        table = values.reshape(-1, 2)
        assert _ryu.format_rows(table) == _repr_rows(table)

    def test_seeded_sweep(self):
        table = _sweep().reshape(-1, 4)
        assert _ryu.format_rows(table) == _repr_rows(table)

    def test_hypot_is_the_modulus_of_abs(self):
        # np.hypot of the parts, as write_field takes it, against Python's abs(complex)
        values = np.concatenate([_boundary_values(), _sweep()])
        values = values[np.abs(values) < 1e307]  # keep every modulus finite
        re, im = values, np.roll(values, 1)
        with np.errstate(under="ignore"):
            modulus = np.hypot(re, im)
        reference = [abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]
        assert modulus.tobytes() == np.array(reference).tobytes()

    def test_shared_tables_are_read_only(self):
        for table in (*_ryu._ryu_constants(), *_ryu._layout_tables()):
            assert not table.flags.writeable

    def test_loaded_and_built_on_first_use(self):
        # a CLI process that writes no float table does not compile the formatter,
        # and importing it builds no table
        code = ("import sys, ostrovsky_lab.cli\nprint('ostrovsky_lab._ryu' in sys.modules)\n"
                "from ostrovsky_lab import _ryu\n"
                "print(_ryu._ryu_constants.cache_info().currsize,"
                " _ryu._layout_tables.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "0", "0"]


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

    def test_corpus_bytes_match_the_table_writer(self, tmp_path, corpus):
        for entry in corpus:
            p = entry.profile
            fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
            write_profile(p, fast)
            write_table(reference, PROFILE_HEADER,
                        ([format_float(xi), format_float(a.real), format_float(a.imag)]
                         for xi, a in zip(p.xi, p.amplitudes)))
            assert fast.read_bytes() == reference.read_bytes(), entry.profile_id

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
        # each point is a double, their difference is not
        ("xi,re,im\n-1e+308,1.0,0.0\n1e+308,1.0,0.0\n", "xi spacing leaves the double range"),
    ], ids=["header", "empty", "bad-number", "short-row", "long-row",
            "decreasing", "repeated", "span-overflow"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
        # finite steps, but the span overflows
        ([-1e308, 0.0, 1e308], "x spacing leaves the double range"),
    ], ids=["non-uniform", "decreasing", "nan", "span-overflow"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_rejections_name_the_path(self, tmp_path, x, match):
        target = tmp_path / "bad_field.csv"
        rows = "".join(f"{format_float(v)},1.0,0.0,1.0\n" for v in x)
        target.write_text(f"{','.join(FIELD_HEADER)}\n{rows}")
        with pytest.raises(ValueError, match=match) as info:
            read_field(target)
        assert str(target) in str(info.value)

    def test_rounded_points_of_a_spanning_grid_read_back(self, tmp_path):
        # the points 1e6 + 5e-4 * j round by about 1.2e-10, more than 1e-9 of the step
        grid = SpaceGrid.spanning(1e6, 1000000.001, 3)
        u = SpaceField(grid.x_min, grid.x_step, np.array([1.0, 2.0j, -3.0]))
        target = tmp_path / "u.csv"
        write_field(u, target)
        v = read_field(target)
        assert v.values.tobytes() == u.values.tobytes()
        assert v.x_min == u.x_min and abs(v.x_step - u.x_step) <= 4 * math.ulp(1e6)

    def test_bytes_match_the_table_writer(self, tmp_path, monkeypatch):
        # reference: one write_table row of format_float cells per point,
        # the modulus taken by numpy's scalar abs; 509 rows in batches of 100
        monkeypatch.setattr(fileio, "FIELD_ROWS", 100)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(509) + 1j * rng.standard_normal(509)
        values *= 10.0 ** rng.uniform(-300.0, 300.0, values.size)
        values[:5] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -2.5e-310),
                      complex(1e300, -1e300), complex(-3e300, 4e300)]
        u = SpaceField(-7.25, 1e-3, values)
        fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
        write_field(u, fast)
        write_table(reference, FIELD_HEADER,
                    ([format_float(x), format_float(v.real), format_float(v.imag),
                      format_float(abs(v))] for x, v in zip(u.x, u.values)))
        assert fast.read_bytes() == reference.read_bytes()
        assert fast.read_text().splitlines()[1] == "-7.25,-0.0,0.0,0.0"

    def test_modulus_beyond_double_range_refused(self, tmp_path):
        u = SpaceField(0.0, 1.0, np.array([1.0 + 0j, 1.5e308 + 1.5e308j]))
        target = tmp_path / "u.csv"
        with pytest.raises(ValueError, match="leaves the double range") as info:
            write_field(u, target)
        assert str(target) in str(info.value)

    def test_large_field_takes_the_fast_path(self, tmp_path, corpus_by_id):
        # 32 blocks of FIELD_ROWS rows, cell for cell against repr
        u = synthesize(corpus_by_id["gauss_high"].profile,
                       observation_grid(corpus_by_id["gauss_high"].profile, n=65536))
        target = tmp_path / "u.csv"
        write_field(u, target)
        modulus = [abs(z) for z in u.values.tolist()]
        expected = _repr_rows(np.column_stack([u.x, u.values.real, u.values.imag, modulus]))
        assert target.read_bytes() == b"x,re,im,abs\n" + expected

    def test_header_and_abs_column(self, tmp_path):
        u = SpaceField(0.0, 1.0, np.array([3 + 4j]))
        target = tmp_path / "u.csv"
        write_field(u, target)
        lines = target.read_text().splitlines()
        assert lines[0] == ",".join(FIELD_HEADER)
        assert lines[1].split(",")[3] == "5.0"
        with pytest.raises(ValueError, match="expected header"):
            read_profile(target)


class TestRoundTripProperty:
    """Every finite container comes back bit for bit, grids at the top of the range included."""

    @staticmethod
    @st.composite
    def _exact_grids(draw):
        # points (first + j) * 2^k with |first + j| < 2^min(21, 1024 - k), so
        # each is a double and the step the reader recovers is 2^k itself; at
        # k = 1019 a grid from a negative origin spans up to 23 * 2^1019
        n = draw(st.integers(2, 24))
        k = draw(st.integers(-1000, 1019))
        bound = 2 ** min(21, 1024 - k)
        last = draw(st.integers(-bound + n, bound - 1))
        return math.ldexp(last - (n - 1), k), math.ldexp(1.0, k), n

    # every modulus stays finite; signed zeros are drawn often, as they are easy to lose
    parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e307, 1e307))

    @given(grid=_exact_grids(), data=st.data())
    def test_profile_and_field_give_back_their_bits(self, tmp_path_factory, grid, data):
        origin, step, n = grid
        values = np.array(data.draw(st.lists(st.tuples(self.parts, self.parts), min_size=n,
                                             max_size=n)), dtype=np.float64).view(np.complex128)[:, 0]
        target = tmp_path_factory.mktemp("round_trip") / "table.csv"
        try:
            p = SpectralProfile(origin, step, values)
        except ValueError as exc:  # the l1 mass zeroed around xi = 0 leaves the double range
            assert str(exc) == "the truncated mass leaves the double range"
        else:
            write_profile(p, target)
            q = read_profile(target)
            assert (q.xi_min, q.xi_step) == (p.xi_min, p.xi_step)
            assert q.amplitudes.tobytes() == p.amplitudes.tobytes()
        u = SpaceField(origin, step, values)
        write_field(u, target)
        v = read_field(target)
        assert (v.x_min, v.x_step) == (u.x_min, u.x_step)
        assert v.values.tobytes() == u.values.tobytes()

    @given(origin=st.floats(allow_nan=False, allow_infinity=False),
           step=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           n=st.integers(1, 24), data=st.data())
    def test_any_grid_that_constructs_reads_back(self, tmp_path_factory, origin, step, n, data):
        # the reader takes the step from the rounded points, so the grid comes back to
        # within their rounding and the samples bit for bit
        values = np.array(data.draw(st.lists(st.tuples(self.parts, self.parts), min_size=n,
                                             max_size=n)), dtype=np.float64).view(np.complex128)[:, 0]
        target = tmp_path_factory.mktemp("round_trip") / "table.csv"
        for build, write, read, points, samples in (
                (SpectralProfile, write_profile, read_profile, "xi", "amplitudes"),
                (SpaceField, write_field, read_field, "x", "values")):
            try:
                a = build(origin, step, values)
            except ValueError:  # a grid or a truncated mass beyond the double range, or
                continue        # points that round to one double
            write(a, target)
            b = read(target)
            assert getattr(b, samples).tobytes() == getattr(a, samples).tobytes()
            written, read_back = getattr(a, points), getattr(b, points)
            rounding = 4 * math.ulp(max(abs(written[0]), abs(written[-1])))
            assert np.all(np.abs(read_back - written) <= rounding)


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

    @pytest.mark.parametrize("row,message", [
        ("L2_6,p,,1.0,2.0,0.5,yes", "pass must be true or false, got 'yes'"),
        ("L2_6,p,,1.0,2.0", r"not enough values to unpack \(expected 7, got 5\)"),
        ("L2_6,p,,one,2.0,0.5,true", "could not convert"),
    ], ids=["verdict", "short-row", "number"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        target = tmp_path / "bad.csv"
        target.write_text(",".join(REPORT_HEADER) + "\nL2_6,p,,1.0,2.0,0.5,true\n" + row + "\n")
        with pytest.raises(ValueError, match=f"bad.csv:3: {message}"):
            read_reports(target)
