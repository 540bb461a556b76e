"""Config parsing, dispatch, exit codes, and artifact layout of the CLI."""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrovsky_lab.cli import RunConfig, UsageError, main, parse_config
from ostrovsky_lab.fileio import read_field, read_profile, read_reports, write_profile
from ostrovsky_lab.spectral import SpectralProfile


@pytest.fixture()
def gauss_low_csv(tmp_path, corpus_by_id):
    path = tmp_path / "gauss_low.csv"
    write_profile(corpus_by_id["gauss_low"].profile, path)
    return path


def _spike16_profile():
    # passes the resolution gate at the sweep's largest time with a phase
    # increment of ~0.096 per cell, yet the deviation there is already
    # saturating, so the measured linearity slope leaves the tolerance
    amps = np.zeros(17)
    amps[8] = 1.0
    return SpectralProfile(15.0, 0.125, amps)


class TestParseConfig:
    def test_typed_parameters(self):
        cfg = parse_config(["counterexample", "--out", "r.csv", "--s", "0.25",
                            "--k-min", "3", "--k-max", "6", "--nt", "64"])
        assert cfg.subcommand == "counterexample"
        assert cfg.params["s"] == 0.25
        assert cfg.params["k_min"] == 3 and cfg.params["k_max"] == 6
        assert cfg.params["nt"] == 64
        assert cfg.params["sign"] == "+"
        assert cfg.params["threads"] is None
        assert cfg.out_path == "r.csv"

    def test_float_list_parameter(self):
        cfg = parse_config(["khinchine", "--out", "o.csv", "--p", "2, 4,8",
                            "--n", "100"])
        assert cfg.params["p"] == (2.0, 4.0, 8.0)
        assert cfg.params["coeffs"] == (1.0,)

    @pytest.mark.parametrize("argv,match", [
        ([], "choose a subcommand"),
        (["khinchine", "--p", "2", "--n", "10"], r"missing required parameter --out"),
        (["counterexample", "--out", "o.csv", "--k-min", "1", "--k-max", "2"],
         r"missing required parameter --s"),
        (["trace", "--out", "o.csv", "--profile", "p.csv", "--x", "0",
          "--t", "1e-3", "--bogus", "1"], "bogus"),
        (["propagate", "--out", "o.csv", "--profile", "p.csv", "--t", "0.1",
          "--sign", "x"], r"--sign: sign must be \+ or -"),
        (["propagate", "--out", "o.csv", "--profile", "p.csv", "--t", "abc"],
         "--t:"),
        (["khinchine", "--out", "o.csv", "--p", " , ", "--n", "10"],
         "--p: empty list"),
    ], ids=["no-subcommand", "missing-out", "missing-s", "unknown-flag",
            "bad-sign", "bad-float", "empty-list"])
    def test_usage_errors(self, argv, match):
        with pytest.raises(UsageError, match=match):
            parse_config(argv)

    @pytest.mark.parametrize("argv,match", [
        (["counterexample", "--out", "o", "--s", "0", "--k-min", "5",
          "--k-max", "3"], "--k-min must not exceed"),
        (["counterexample", "--out", "o", "--s", "0", "--k-min", "3",
          "--k-max", "5", "--nt", "0"], "--nt must be >= 1"),
        (["propagate", "--out", "o", "--profile", "p", "--t", "0",
          "--nx", "1"], "--nx must be >= 2"),
        (["propagate", "--out", "o", "--profile", "p", "--t", "0",
          "--x-min", "0"], "given together"),
        (["propagate", "--out", "o", "--profile", "p", "--t", "0",
          "--x-min", "1", "--x-max", "-1"], "--x-min must be below"),
        (["khinchine", "--out", "o", "--p", "2", "--n", "0"], "--n must be >= 1"),
    ], ids=["k-order", "nt", "nx", "half-grid", "grid-order", "n"])
    def test_cross_parameter_validation(self, argv, match):
        with pytest.raises(UsageError, match=match):
            parse_config(argv)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_config(["--version"])
        assert info.value.code == 0
        assert "ostrovsky-lab 0.1.0" in capsys.readouterr().out

    def test_echo_sorts_keys_and_lists_tuples(self):
        cfg = parse_config(["khinchine", "--out", "o.csv", "--p", "4,2",
                            "--n", "10"])
        echo = cfg.echo()
        assert list(echo) == sorted(echo)
        assert echo["p"] == [4.0, 2.0]
        assert echo["coeffs"] == [1.0]


class TestConfigFile:
    def test_flags_override_file_values(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "\n"
            "s = 0.5\n"
            "k_min = 3\n"
            "k-max = 6\n"
            "nt = 32\n"
        )
        cfg = parse_config(["counterexample", "--config", str(cfg_file),
                            "--out", "o.csv", "--s", "0.0"])
        assert cfg.params["s"] == 0.0          # flag wins
        assert cfg.params["k_min"] == 3        # underscore key normalized
        assert cfg.params["k_max"] == 6
        assert cfg.params["nt"] == 32
        assert cfg.params["sign"] == "+"       # untouched default

    def test_unknown_key_reports_location(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("s = 0.5\nbogus = 1\n")
        with pytest.raises(UsageError, match=r"run\.cfg:2: unknown key 'bogus'"):
            parse_config(["counterexample", "--config", str(cfg_file),
                          "--out", "o", "--k-min", "1", "--k-max", "2"])

    def test_config_key_inside_file_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("config = elsewhere\n")
        with pytest.raises(UsageError, match="unknown key 'config'"):
            parse_config(["khinchine", "--config", str(cfg_file), "--out", "o",
                          "--p", "2", "--n", "10"])

    def test_malformed_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nt\n")
        with pytest.raises(UsageError, match=r"run\.cfg:1: expected `key = value`"):
            parse_config(["counterexample", "--config", str(cfg_file),
                          "--out", "o", "--s", "0", "--k-min", "1",
                          "--k-max", "2"])

    def test_bad_value_names_parameter(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nt = many\n")
        with pytest.raises(UsageError, match=r"run\.cfg:1: --nt:"):
            parse_config(["counterexample", "--config", str(cfg_file),
                          "--out", "o", "--s", "0", "--k-min", "1",
                          "--k-max", "2"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read config file"):
            parse_config(["khinchine", "--config", str(tmp_path / "nope.cfg"),
                          "--out", "o", "--p", "2", "--n", "10"])


def _read_meta(out_path):
    with open(f"{out_path}.meta.json", encoding="utf-8") as handle:
        return json.load(handle)


class TestMainKhinchine:
    def test_run_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "kh.csv"
        rc = main(["khinchine", "--p", "2,4", "--n", "256", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,ratio,stderr,analytic"
        assert len(lines) == 3
        meta = _read_meta(out)
        assert meta["subcommand"] == "khinchine"
        assert meta["version"] == "0.1.0"
        assert meta["config"]["n"] == 256
        assert len(meta["results"]) == 2
        assert meta["results"][0]["p"] == 2.0

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["khinchine", "--p", "2", "--n", "512", "--out", str(a)]) == 0
        assert main(["khinchine", "--p", "2", "--n", "512", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMainPropagate:
    def test_default_grid(self, tmp_path, gauss_low_csv):
        out = tmp_path / "u.csv"
        rc = main(["propagate", "--profile", str(gauss_low_csv), "--t", "0.25",
                   "--out", str(out)])
        assert rc == 0
        field = read_field(out)
        assert field.n == 4096
        meta = _read_meta(out)
        assert 0.0 < meta["resolution"]["max_phase_increment"] <= 0.1
        assert meta["resolution"]["truncated_mass"] == 0.0

    def test_explicit_grid(self, tmp_path, gauss_low_csv):
        out = tmp_path / "u.csv"
        rc = main(["propagate", "--profile", str(gauss_low_csv), "--t", "0.0",
                   "--x-min", "-1.0", "--x-max", "1.0", "--nx", "33",
                   "--out", str(out)])
        assert rc == 0
        field = read_field(out)
        assert field.n == 33
        assert field.x_min == -1.0
        assert field.x[-1] == pytest.approx(1.0, rel=1e-12)

    def test_resolution_refusal_exits_one(self, tmp_path, gauss_low_csv, capsys):
        out = tmp_path / "u.csv"
        rc = main(["propagate", "--profile", str(gauss_low_csv), "--t", "1000",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "phase advance" in err
        assert not out.exists()

    def test_grid_beyond_phase_reach_exits_one(self, tmp_path, gauss_low_csv, capsys):
        # |x| * max|xi| > 2**52 at every node; the chirp-z grid synthesis
        # refuses it exactly as the point row does, before any numpy warning
        out = tmp_path / "u.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["propagate", "--profile", str(gauss_low_csv), "--t", "0",
                       "--x-min", "1e17", "--x-max", "1.00000000001e17", "--nx", "8",
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: |x| up to 1.00000000001e+17 gives non-finite or unresolved")
        assert not out.exists()


class TestMainTrace:
    def test_zero_tail_gives_zero_deviation(self, tmp_path, gauss_low_csv):
        out = tmp_path / "tr.csv"
        rc = main(["trace", "--profile", str(gauss_low_csv), "--x", "0.4",
                   "--t", "1e-3,1e-4,0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,deviation"
        assert len(lines) == 4
        assert _read_meta(out)["final_deviation"] == 0.0


class TestMainStochasticContinuity:
    def test_small_run(self, tmp_path, gauss_low_csv):
        out = tmp_path / "sc.csv"
        rc = main(["stochastic-continuity", "--profile", str(gauss_low_csv),
                   "--alpha", "0.5", "--t", "1e-2,1e-3", "--n", "32",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,prob,wilson_lo,wilson_hi"
        assert len(lines) == 3
        fit = _read_meta(out)["fit"]
        assert fit["n_samples"] == 32
        assert fit["l2_norm"] > 0.0


class TestMainCounterexample:
    def test_fit_block(self, tmp_path):
        out = tmp_path / "ce.csv"
        rc = main(["counterexample", "--s", "0.25", "--k-min", "3",
                   "--k-max", "5", "--nt", "16", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,Rk,log2Rk"
        assert len(lines) == 4
        fit = _read_meta(out)["fit"]
        assert fit["expected_slope"] == 0.0
        assert abs(fit["slope"]) < 0.2
        assert math.isfinite(fit["intercept"])

    def test_two_scales_skip_fit(self, tmp_path):
        out = tmp_path / "ce.csv"
        rc = main(["counterexample", "--s", "0.0", "--k-min", "3",
                   "--k-max", "4", "--nt", "8", "--out", str(out)])
        assert rc == 0
        assert _read_meta(out)["fit"] is None

    def test_thread_count_does_not_change_results(self, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"ce{threads}.csv"
            rc = main(["counterexample", "--s", "0.0", "--k-min", "3",
                       "--k-max", "5", "--nt", "16", "--threads", threads,
                       "--out", str(out)])
            assert rc == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert _read_meta(outs[0])["fit"] == _read_meta(outs[1])["fit"]


class TestMainVerifyLemmas:
    @pytest.fixture()
    def corpus_dir(self, tmp_path, corpus_by_id):
        directory = tmp_path / "profiles"
        directory.mkdir()
        for name in ("band_unit", "gauss_low"):
            write_profile(corpus_by_id[name].profile, directory / f"{name}.csv")
        return directory

    def test_passing_corpus_exits_zero(self, tmp_path, corpus_dir):
        out = tmp_path / "rep.csv"
        rc = main(["verify-lemmas", "--corpus", str(corpus_dir),
                   "--out", str(out)])
        assert rc == 0
        reports = read_reports(out)
        assert {r.profile_id for r in reports} == {"band_unit", "gauss_low"}
        assert all(r.passed for r in reports)
        summary = _read_meta(out)["summary"]
        assert summary["failed"] == 0
        assert summary["reports"] == len(reports)
        # the sidecar's skip counts and worst constants follow from the CSV
        skipped = Counter(r.params["skip"] for r in reports if "skip" in r.params)
        assert summary["skipped_by_reason"] == dict(skipped)
        assert summary["skipped_by_reason"] == {"zero_high_frequency_part": 2}
        worst = {}
        for r in reports:
            if "skip" not in r.params:
                best = worst.get(r.lemma_id)
                if best is None or r.fitted_c > best["fitted_c"]:
                    worst[r.lemma_id] = {"fitted_c": r.fitted_c, "profile_id": r.profile_id}
        assert summary["worst_fitted_c"] == worst

    def test_only_filter(self, tmp_path, corpus_dir):
        out = tmp_path / "rep.csv"
        rc = main(["verify-lemmas", "--corpus", str(corpus_dir),
                   "--only", "L2_6", "--out", str(out)])
        assert rc == 0
        reports = read_reports(out)
        assert len(reports) == 2
        assert {r.lemma_id for r in reports} == {"L2_6"}

    def test_unknown_only_id_exits_one(self, tmp_path, corpus_dir, capsys):
        out = tmp_path / "rep.csv"
        rc = main(["verify-lemmas", "--corpus", str(corpus_dir),
                   "--only", "NOT_A_LEMMA", "--out", str(out)])
        assert rc == 1
        assert "unknown lemma ids" in capsys.readouterr().err

    def test_empty_corpus_dir_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "rep.csv"
        rc = main(["verify-lemmas", "--corpus", str(empty), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_failing_inequality_exits_two(self, tmp_path):
        directory = tmp_path / "profiles"
        directory.mkdir()
        write_profile(_spike16_profile(), directory / "spike16.csv")
        out = tmp_path / "rep.csv"
        rc = main(["verify-lemmas", "--corpus", str(directory),
                   "--out", str(out)])
        assert rc == 2
        summary = _read_meta(out)["summary"]
        assert summary["failed"] == 1
        failures = [r for r in read_reports(out) if not r.passed]
        assert len(failures) == 1
        assert failures[0].lemma_id == "L2_3"
        assert failures[0].params["check"] == "slope"

    def test_failing_profile_passes_other_checks(self, tmp_path):
        directory = tmp_path / "profiles"
        directory.mkdir()
        write_profile(_spike16_profile(), directory / "spike16.csv")
        out = tmp_path / "rep.csv"
        rc = main(["verify-lemmas", "--corpus", str(directory),
                   "--only", "L2_6", "--out", str(out)])
        assert rc == 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv,message", [
        (["stochastic-continuity", "--alpha", "0.02", "--t", "0.1,0", "--n", "16",
          "--x", "nan"], "--x: must be finite"),
        (["trace", "--x", "inf", "--t", "1e-3,0"], "--x: must be finite"),
        (["khinchine", "--p", "2", "--n", "16", "--coeffs", "nan"], "--coeffs: must be finite"),
        (["khinchine", "--p", "inf", "--n", "16"], "--p: must be finite"),
        # finite, but the phase x * xi keeps no correct digits
        (["stochastic-continuity", "--alpha", "0.02", "--t", "0.1,0", "--n", "16",
          "--x", "1e300"], "|x| up to 1e+300 gives non-finite or unresolved"),
        (["trace", "--x", "1e300", "--t", "1e-3,0"],
         "|x| up to 1e+300 gives non-finite or unresolved"),
        # the rough family's band, amplitude, time window or norms overflow or underflow
        (["counterexample", "--s", "0", "--k-min", "1100", "--k-max", "1100"],
         "leaves the positive double range"),
        (["counterexample", "--s", "0", "--k-min", "600", "--k-max", "600"],
         "leaves the positive double range"),
        (["counterexample", "--s", "-100", "--k-min", "20", "--k-max", "20"],
         "leaves the positive double range"),
        (["counterexample", "--s", "400", "--k-min", "3", "--k-max", "3"],
         "leaves the positive double range"),
        (["counterexample", "--s", "150", "--k-min", "3", "--k-max", "3"],
         "R_k = 0.0 at k = 3"),
        # xi**3 overflows in the phase while the tiny t_max still passes the gate
        (["counterexample", "--s", "0", "--k-min", "345", "--k-max", "345"],
         "phase xi**3 + sign/xi overflows at frequency reach |xi| = 1.43344e+104"),
    ], ids=["continuity-x-nan", "trace-x-inf", "khinchine-coeffs-nan", "khinchine-p-inf",
            "continuity-x-1e300", "trace-x-1e300", "counterexample-k-1100",
            "counterexample-k-600", "counterexample-s-neg100", "counterexample-s-400",
            "counterexample-s-150", "counterexample-k-345"])
    def test_rejected_naming_the_flag(self, tmp_path, gauss_low_csv, capsys, argv, message):
        if argv[0] not in ("khinchine", "counterexample"):
            argv = argv + ["--profile", str(gauss_low_csv)]
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists() and not Path(f"{out}.meta.json").exists()


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory, corpus_by_id):
    path = tmp_path_factory.mktemp("profiles") / "gauss_low.csv"
    write_profile(corpus_by_id["gauss_low"].profile, path)
    return path


def _reject_constant(name):
    raise ValueError(f"sidecar holds {name}, which is not JSON")


# each value is either drawn from a workable range or one of these tokens
_JUNK = st.sampled_from(["nan", "inf", "-inf", "1e308", "-0", "zap"])


def _value(valid):
    # three values in four come from the workable range
    return st.integers(0, 3).flatmap(lambda i: _JUNK if i == 0 else valid.map(repr))


def _values(valid):
    return st.lists(_value(valid), min_size=1, max_size=3).map(",".join)


_COUNT = st.integers(-1, 40).map(str)
_TIMES = st.one_of(
    _values(st.floats(0.0, 1e-2)),
    st.lists(st.floats(0.0, 1e-2), min_size=1, max_size=3, unique=True).map(
        lambda ts: ",".join(repr(t) for t in sorted(ts, reverse=True))))
_INVOCATION = st.one_of(
    st.tuples(st.just("khinchine"), st.fixed_dictionaries({
        "p": _values(st.floats(1.0, 8.0)), "n": _COUNT,
        "coeffs": _values(st.floats(-2.0, 2.0))})),
    st.tuples(st.just("trace"), st.fixed_dictionaries({
        "x": _value(st.floats(-3.0, 3.0)), "t": _TIMES})),
    st.tuples(st.just("stochastic-continuity"), st.fixed_dictionaries({
        "alpha": _value(st.floats(0.0, 0.5)), "t": _TIMES, "n": _COUNT,
        "x": _value(st.floats(-3.0, 3.0))})),
    st.tuples(st.just("propagate"), st.fixed_dictionaries({
        "t": _value(st.floats(-0.5, 0.5)), "nx": st.integers(1, 64).map(str)})),
    st.tuples(st.just("counterexample"), st.builds(
        lambda s, k_min, width, nt: {"s": s, "k-min": str(k_min),
                                     "k-max": str(k_min + width), "nt": nt},
        _value(st.floats(-200.0, 500.0)),
        # mostly small scales, sometimes ones whose powers of two leave the double range
        st.integers(0, 3).flatmap(
            lambda i: st.integers(300, 1200) if i == 0 else st.integers(1, 10)),
        st.integers(0, 2), st.integers(1, 8).map(str))),
)


@settings(max_examples=60)
@given(invocation=_INVOCATION)
def test_small_runs_exit_cleanly_with_finite_artifacts(profile_file, invocation):
    # each run either succeeds with an all-finite CSV and a strict-JSON
    # sidecar, or fails with exit 1 or 2 and says why
    subcommand, flags = invocation
    argv = [subcommand] + [f"--{name}={value}" for name, value in flags.items()]
    if subcommand not in ("khinchine", "counterexample"):
        argv.append(f"--profile={profile_file}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), np.errstate(over="ignore", invalid="ignore"):
            rc = main(argv + ["--out", str(out)])
        if rc == 0:
            with open(out, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)
            json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"),
                       parse_constant=_reject_constant)
        else:
            assert rc in (1, 2) and err.getvalue().strip()
