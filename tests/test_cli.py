"""Config parsing, dispatch, exit codes, and artifact layout of the CLI."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ostrovsky_lab
from ostrovsky_lab.cli import _SUBCOMMANDS, UsageError, main, parse_config
from ostrovsky_lab.corpus import band_profile
from ostrovsky_lab.fileio import read_field, read_reports, write_profile
from ostrovsky_lab.rough import CounterexampleSpec, counterexample_profile
from ostrovsky_lab.spectral import SpectralProfile, hs_norm


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


# the required flags of each subcommand, at values that parse
_REQUIRED = {
    "propagate": {"profile": "p.csv", "t": "0"},
    "counterexample": {"s": "0", "k-min": "3", "k-max": "5"},
    "khinchine": {"p": "2", "n": "16"},
    "stochastic-continuity": {"profile": "p.csv", "alpha": "0.1", "t": "0.1,0", "n": "4"},
    "verify-lemmas": {},
    "trace": {"profile": "p.csv", "x": "0", "t": "0.1,0"},
}
# the refusal of a value below each declared lower bound
_BOUND_MESSAGES = {
    ("propagate", "nx"): "--nx must be >= 2",
    ("counterexample", "nt"): "--nt must be >= 1",
    ("counterexample", "threads"): "--threads must be >= 1",
    ("khinchine", "p"): "--p values must be >= 1",
    ("khinchine", "n"): "--n must be >= 2",
    ("stochastic-continuity", "n"): "--n must be >= 1",
    ("verify-lemmas", "threads"): "--threads must be >= 1",
}
_BOUNDED = [(subcommand, param) for subcommand, (_, params) in _SUBCOMMANDS.items()
            for param in params if param.least is not None]


def _argv(subcommand, flags, out="o.csv"):
    return [subcommand, "--out", str(out)] + [f"--{name}={value}" for name, value in flags.items()]


class TestParseConfig:
    def test_typed_parameters(self):
        cfg = parse_config(["counterexample", "--out", "r.csv", "--s", "0.25",
                            "--k-min", "3", "--k-max", "6", "--nt", "64"])
        assert cfg.subcommand == "counterexample"
        assert cfg.params["s"] == 0.25
        assert cfg.params["k_min"] == 3 and cfg.params["k_max"] == 6
        assert cfg.params["nt"] == 64
        assert cfg.params["sign"] == "+"
        assert cfg.params["threads"] == 1
        assert cfg.params["out"] == "r.csv"

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
        (["verify-lemmas", "--out", "o.csv", "--only", ""], "--only: empty list"),
    ], ids=["no-subcommand", "missing-out", "missing-s", "unknown-flag",
            "bad-sign", "bad-float", "empty-list", "empty-only"])
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
        (["khinchine", "--out", "o", "--p", "2", "--n", "0"], "--n must be >= 2"),
        (["khinchine", "--out", "o", "--p", "2", "--n", "1"], "--n must be >= 2"),
        (["khinchine", "--out", "o", "--p", "2,0.5", "--n", "16"], "--p values must be >= 1"),
        (["stochastic-continuity", "--out", "o", "--profile", "p", "--alpha", "0.1",
          "--t", "0.1,0", "--n", "0"], "--n must be >= 1"),
        (["counterexample", "--out", "o", "--s", "0", "--k-min", "3",
          "--k-max", "5", "--threads", "0"], "--threads must be >= 1"),
        (["verify-lemmas", "--out", "o", "--threads", "0"], "--threads must be >= 1"),
    ], ids=["k-order", "nt", "nx", "half-grid", "grid-order", "n", "khinchine-n-1",
            "khinchine-p-below-1", "continuity-n", "counterexample-threads-0",
            "verify-lemmas-threads-0"])
    def test_cross_parameter_validation(self, argv, match):
        with pytest.raises(UsageError, match=match):
            parse_config(argv)

    def test_every_bound_has_its_message(self):
        assert {(subcommand, param.name) for subcommand, param in _BOUNDED} == set(_BOUND_MESSAGES)

    @pytest.mark.parametrize("subcommand,param", _BOUNDED,
                             ids=[f"{sub}-{param.name}" for sub, param in _BOUNDED])
    def test_lower_bound_from_flag_and_file(self, tmp_path, subcommand, param):
        at, below = f"{param.least:g}", f"{param.least - 1:g}"
        message = _BOUND_MESSAGES[(subcommand, param.name)]
        flags = {**_REQUIRED[subcommand], param.name: at}
        value = parse_config(_argv(subcommand, flags)).params[param.name]
        assert value == (param.least if param.kind == "int" else (param.least,))
        with pytest.raises(UsageError, match=f"^{message}$"):
            parse_config(_argv(subcommand, {**flags, param.name: below}))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{param.name} = {below}\n")
        del flags[param.name]
        with pytest.raises(UsageError, match=f"^{message}$"):
            parse_config(_argv(subcommand, {**flags, "config": cfg_file}))

    def test_every_flag_has_help(self):
        bare = [f"{subcommand} --{param.name}" for subcommand, (_, params) in _SUBCOMMANDS.items()
                for param in params if not param.help.strip()]
        assert bare == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_config(["--version"])
        assert info.value.code == 0
        assert "ostrovsky-lab 0.1.0" in capsys.readouterr().out

    def test_echo_sorts_keys_and_lists_tuples(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["khinchine", "--out", str(out), "--p", "4,2", "--n", "10"]) == 0
        echo = _read_meta(out)["config"]
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

    def test_empty_only_list_refused(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("only = , ,\n")
        with pytest.raises(UsageError, match=r"run\.cfg:1: --only: empty list"):
            parse_config(["verify-lemmas", "--config", str(cfg_file), "--out", "o"])

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
        assert [line.split(",")[0] for line in lines[1:]] == ["2.0", "4.0"]

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
        grid, _ = read_field(out)
        assert grid.n == 4096
        meta = _read_meta(out)
        assert 0.0 < meta["resolution"]["max_phase_increment"] <= 0.1
        assert meta["resolution"]["truncated_mass"] == 0.0

    def test_sidecar_carries_truncated_mass(self, tmp_path):
        # the amplitude 2 at xi = 0 is zeroed on reading, a mass of 2 * 0.25
        profile, out = tmp_path / "p.csv", tmp_path / "u.csv"
        profile.write_text("xi,re,im\n-0.25,1.0,0.0\n0.0,2.0,0.0\n0.25,1.0,0.0\n")
        assert main(["propagate", "--profile", str(profile), "--t", "0", "--nx", "8",
                     "--out", str(out)]) == 0
        assert _read_meta(out)["resolution"]["truncated_mass"] == 0.5

    def test_explicit_grid(self, tmp_path, gauss_low_csv):
        out = tmp_path / "u.csv"
        rc = main(["propagate", "--profile", str(gauss_low_csv), "--t", "0.0",
                   "--x-min", "-1.0", "--x-max", "1.0", "--nx", "33",
                   "--out", str(out)])
        assert rc == 0
        grid, _ = read_field(out)
        assert grid.n == 33
        assert grid.x_min == -1.0
        assert grid.points[-1] == pytest.approx(1.0, rel=1e-12)

    def test_resolution_refusal_exits_one(self, tmp_path, gauss_low_csv, capsys):
        out = tmp_path / "u.csv"
        rc = main(["propagate", "--profile", str(gauss_low_csv), "--t", "1000",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "phase advance" in err
        assert not out.exists()

    def test_grid_over_memory_budget_exits_one(self, tmp_path, gauss_low_csv, capsys):
        # 10**12 points are refused from the sizes, before any array is built
        out = tmp_path / "u.csv"
        rc = main(["propagate", "--profile", str(gauss_low_csv), "--t", "0.25",
                   "--nx", str(10**12), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "above the budget" in err
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

    def test_phase_derivative_overflow_exits_one(self, tmp_path, capsys):
        # the phase derivative 3*xi**2 overflows at xi = 1e200 while the tiny
        # t and x keep every other check in range; refused before any warning
        far = tmp_path / "far.csv"
        write_profile(SpectralProfile(1e200, 1e190, np.array([1.0, 1.0])), far)
        out = tmp_path / "u.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["propagate", "--profile", str(far), "--t", "1e-300",
                       "--x-min", "0", "--x-max", "1e-190", "--nx", "4", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: phase derivative 3*xi**2 - sign/xi**2 overflows "
                              "at frequency reach |xi| = 1e+200")
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
        assert lines[-1].split(",") == ["0.0", "0.0"]


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
        meta = _read_meta(out)
        assert meta["config"]["n"] == 32
        assert meta["fit"]["l2_norm"] > 0.0


class TestMainCounterexample:
    def test_fit_block(self, tmp_path):
        out = tmp_path / "ce.csv"
        rc = main(["counterexample", "--s", "0.25", "--k-min", "3",
                   "--k-max", "5", "--nt", "16", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,Rk,log2Rk"
        assert len(lines) == 4
        meta = _read_meta(out)
        fit = meta["fit"]
        assert list(fit) == ["slope", "intercept", "residual", "expected_slope", "slope_range"]
        assert fit["expected_slope"] == 0.0
        assert abs(fit["slope"]) < 0.2
        assert math.isfinite(fit["intercept"])
        # one certified upper R_k per row, and the slopes they allow
        ratios = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(meta["rk_upper"]) == len(ratios)
        assert all(upper >= r for upper, r in zip(meta["rk_upper"], ratios))
        lo, hi = fit["slope_range"]
        assert lo <= fit["slope"] <= hi

    def test_two_scales_skip_fit(self, tmp_path):
        out = tmp_path / "ce.csv"
        rc = main(["counterexample", "--s", "0.0", "--k-min", "3",
                   "--k-max", "4", "--nt", "8", "--out", str(out)])
        assert rc == 0
        meta = _read_meta(out)
        assert meta["fit"] is None and len(meta["rk_upper"]) == 2

    def test_time_grid_over_memory_budget_exits_one(self, tmp_path, capsys):
        # 10**12 scan times are refused from the sizes, before any array is built
        out = tmp_path / "ce.csv"
        rc = main(["counterexample", "--s", "0.0", "--k-min", "3", "--k-max", "5",
                   "--nt", str(10**12), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "above the budget" in err
        assert not out.exists()

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


class TestSidecar:
    # every sidecar holds these, and beyond them only values derived from the
    # run that are neither config values nor cells of its CSV
    RECORD = {"version", "subcommand", "config", "wall_clock_s"}

    @pytest.mark.parametrize("subcommand,flags,derived", [
        ("propagate", {"t": "0.25", "nx": "16"}, {"resolution"}),
        ("counterexample", {"s": "0.25", "k-min": "3", "k-max": "5", "nt": "8"},
         {"rk_upper", "fit"}),
        ("khinchine", {"p": "2,4", "n": "64"}, set()),
        ("stochastic-continuity", {"alpha": "0.5", "t": "1e-2,0", "n": "16"}, {"fit"}),
        ("verify-lemmas", {"only": "L2_6"}, {"summary"}),
        ("trace", {"x": "0.4", "t": "1e-3,0"}, set()),
    ], ids=["propagate", "counterexample", "khinchine", "stochastic-continuity",
            "verify-lemmas", "trace"])
    def test_top_level_keys(self, tmp_path, gauss_low_csv, subcommand, flags, derived):
        if subcommand == "verify-lemmas":
            flags = {**flags, "corpus": gauss_low_csv.parent}
        elif subcommand not in ("counterexample", "khinchine"):
            flags = {**flags, "profile": gauss_low_csv}
        out = tmp_path / "o.csv"
        assert main(_argv(subcommand, flags, out)) == 0
        assert set(_read_meta(out)) == self.RECORD | derived

    def test_lemma_summary_restates_no_count(self, tmp_path, gauss_low_csv):
        # passed would be reports - failed, skipped the sum of skipped_by_reason
        out = tmp_path / "vl.csv"
        assert main(["verify-lemmas", "--corpus", str(gauss_low_csv.parent),
                     "--out", str(out)]) == 0
        assert set(_read_meta(out)["summary"]) == {"reports", "failed", "skipped_by_reason",
                                                   "worst_fitted_c"}

    def test_continuity_fit_holds_only_the_norm(self, tmp_path, gauss_low_csv, corpus_by_id):
        out = tmp_path / "sc.csv"
        assert main(["stochastic-continuity", "--profile", str(gauss_low_csv), "--alpha", "0.5",
                     "--t", "1e-2,0", "--n", "16", "--out", str(out)]) == 0
        assert _read_meta(out)["fit"] == {"l2_norm": hs_norm(corpus_by_id["gauss_low"].profile, 0.0)}


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

    def test_built_in_corpus_writes_the_run_corpus_reports(self, tmp_path, lemma_reports):
        out = tmp_path / "rep.csv"
        rc = main(["verify-lemmas", "--threads", "2", "--out", str(out)])
        assert rc == (0 if all(r.passed for r in lemma_reports) else 2)
        assert read_reports(out) == lemma_reports

    def test_refused_gates_become_skip_rows(self, tmp_path):
        # low part, high part and window 8 of this band fail the resolution gate
        directory = tmp_path / "refused"
        directory.mkdir()
        write_profile(band_profile(0.5, 12.0, 1.0, 0.0, 12.5, 0.5), directory / "band.csv")
        for sign in "+-":
            out = tmp_path / f"rep{sign}.csv"
            rc = main(["verify-lemmas", "--corpus", str(directory), "--sign", sign,
                       "--out", str(out)])
            assert rc == 0
            summary = _read_meta(out)["summary"]
            assert summary["skipped_by_reason"]["resolution_refused"] == 4
            skipped = [(r.lemma_id, r.params) for r in read_reports(out) if "skip" in r.params]
            assert [lemma_id for lemma_id, _ in skipped] == ["L2_2", "L2_3", "L2_4", "L2_5"]
            assert skipped[-1][1] == {"skip": "resolution_refused", "k": 8.0, "t": 1e-3}

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

    @pytest.mark.parametrize("amplitude,message", [
        (1e-320, "L2_3: a sup deviation is not a normal double"),
        (1e-300, "NORM_EQUIV: the squared L2 norms leave the double range"),
        # L2_3 asks only for L, in range at 1e305: NORM_EQUIV, which is not, refuses
        (1e305, "NORM_EQUIV: the squared L2 norms leave the double range"),
        (1e308, "a phase moment leaves the double range"),
    ])
    def test_rows_follow_the_range_rule_at_both_ends(self, tmp_path, capsys, amplitude,
                                                     message):
        # every row passes at amplitude 1; beyond the normal range at either
        # end a quantity of some row is not a normal double, and the run is
        # refused, naming the profile, instead of writing nan or a false verdict
        directory = tmp_path / "edge"
        directory.mkdir()
        write_profile(SpectralProfile(9.0, 0.125, np.full(9, amplitude)), directory / "p.csv")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify-lemmas", "--corpus", str(directory), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: p: {message}\n"
        assert not out.exists()

    def test_wide_profile_takes_a_table_of_its_two_windows(self, tmp_path):
        # two frequencies 1e9 apart carry two windows, not the 1000000003 of the span
        directory = tmp_path / "profiles"
        directory.mkdir()
        write_profile(SpectralProfile(1.0, 1e9, np.ones(2)), directory / "wide.csv")
        out = tmp_path / "rep.csv"
        assert main(["verify-lemmas", "--corpus", str(directory), "--out", str(out)]) == 2
        bernstein = [r for r in read_reports(out) if r.lemma_id == "BERNSTEIN"]
        assert [r.params for r in bernstein] == [{"pieces": 2}]

    def test_runs_do_not_import_numpy_ma(self, tmp_path, gauss_low_csv):
        # np.unique imports numpy.ma on its first call, 10-18 ms of a CLI run
        directory = tmp_path / "profiles"
        directory.mkdir()
        write_profile(SpectralProfile(0.5, 0.25, np.ones(9)), directory / "small.csv")
        code = ("import sys\nfrom ostrovsky_lab.cli import main\n"
                f"print(main(['verify-lemmas', '--corpus', {str(directory)!r},"
                f" '--out', {str(tmp_path / 'rep.csv')!r}]))\n"
                f"print(main(['stochastic-continuity', '--profile', {str(gauss_low_csv)!r},"
                f" '--alpha', '0.5', '--t', '1e-2,0', '--n', '16',"
                f" '--out', {str(tmp_path / 'sc.csv')!r}]))\n"
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0", "False"]


class TestRefusedRuns:
    # one refused run per subcommand; {big}, {huge} and {gauss} stand for input files
    RUNS = {
        # the parts of the field are finite, its modulus is not
        "propagate": (["--profile", "{big}", "--t", "0", "--nx", "8", "--x-min", "-0.001",
                       "--x-max", "0.001"], "o.csv: |value| leaves the double range"),
        "counterexample": (["--s", "0", "--k-min", "345", "--k-max", "345"],
                           "phase xi**3 + sign/xi overflows"),
        "khinchine": (["--p", "2", "--n", "16", "--coeffs", "0"], "it must not vanish"),
        "stochastic-continuity": (["--profile", "{gauss}", "--alpha", "0.1", "--t", "1e-3,1e-2",
                                   "--n", "4"], "the times must be strictly decreasing"),
        "verify-lemmas": (["--corpus", "{huge}"],
                          "huge: NORM_EQUIV: the squared L2 norms leave the double range"),
        "trace": (["--profile", "{gauss}", "--x", "0", "--t", "1e-3,1e-2"],
                  "the times must be strictly decreasing"),
    }

    @pytest.mark.parametrize("subcommand", list(_SUBCOMMANDS))
    def test_refusal_leaves_neither_csv_nor_sidecar(self, tmp_path, capsys, gauss_low_csv,
                                                    subcommand):
        big = tmp_path / "big.csv"
        write_profile(SpectralProfile(1.0, 0.125, np.full(33, 9.4e307 * (1 + 1j))), big)
        huge = tmp_path / "huge"
        huge.mkdir()
        write_profile(SpectralProfile(9.0, 0.125, np.full(9, 1e305)), huge / "huge.csv")
        flags, message = self.RUNS[subcommand]
        files = {"big": big, "huge": huge, "gauss": gauss_low_csv}
        out = tmp_path / "o.csv"
        argv = [subcommand, *(flag.format(**files) for flag in flags), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists() and not Path(f"{out}.meta.json").exists()


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
         "H^s weight (1+xi^2)^s overflows at s = 150.0, frequency reach |xi| = 16"),
        (["counterexample", "--s", "-100", "--k-min", "6", "--k-max", "6"],
         "H^s norm at s = -100.0 of a non-zero profile underflows to 0"),
        # |f(0)| is about 2^1037: the point rows overflow, and the scan is refused
        (["counterexample", "--s", "-30", "--k-min", "34", "--k-max", "34", "--nt", "2"],
         "error: the maximal scan leaves the double range"),
        # xi**3 overflows in the phase while the tiny t_max still passes the gate
        (["counterexample", "--s", "0", "--k-min", "345", "--k-max", "345"],
         "phase xi**3 + sign/xi overflows at frequency reach |xi| = 1.43344e+104"),
        (["khinchine", "--p", "1e308", "--n", "2"], "moments of order 1e+308 leave"),
        # |t| * max|phi'| * h overflows in the resolution gate
        (["propagate", "--t", "1e308"], "phase advance inf rad per cell"),
        (["trace", "--x", "0", "--t", "1e308,0"], "phase advance inf rad per cell"),
        (["trace", "--x", "1e308", "--t", "1e308"], "phase advance inf rad per cell"),
        (["stochastic-continuity", "--alpha", "0.1", "--t", "1e308,0", "--n", "10"],
         "phase advance inf rad per cell"),
    ], ids=["continuity-x-nan", "trace-x-inf", "khinchine-coeffs-nan", "khinchine-p-inf",
            "continuity-x-1e300", "trace-x-1e300", "counterexample-k-1100",
            "counterexample-k-600", "counterexample-s-neg100", "counterexample-s-400",
            "counterexample-s-150", "counterexample-hs-underflow", "counterexample-scan-k-34",
            "counterexample-k-345", "khinchine-p-1e308",
            "propagate-t-1e308", "trace-t-1e308", "trace-x-t-1e308", "continuity-t-1e308"])
    def test_rejected_naming_the_flag(self, tmp_path, gauss_low_csv, capsys, argv, message):
        if argv[0] not in ("khinchine", "counterexample"):
            argv = argv + ["--profile", str(gauss_low_csv)]
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists() and not Path(f"{out}.meta.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--s", "-10", "--k-min", "30", "--k-max", "30", "--nt", "4"],
        ["--s", "-64", "--k-min", "2", "--k-max", "4", "--nt", "1"],
        ["--s", "-260", "--k-min", "2", "--k-max", "2", "--nt", "2"],
    ], ids=["counterexample-l4-k-30", "counterexample-l4-nt-1", "counterexample-bound-k-2"])
    def test_in_range_ratio_with_overflowing_l4_sum(self, tmp_path, argv):
        # the sum of |sup|^4 leaves the double range, R_k does not; at k = 2,
        # s = -260 so does the window bound's moment product S L2 (2^520.7 times
        # 2^511.6), while its root and R_k_upper do not.  Both norms
        # are linear in the family amplitude, so against the s = -0.5 run (unit
        # amplitude f) R_k(s) / R_k(-0.5) = ||f||_{H^-0.5} / ||f||_{H^s}
        ratios = {}
        for run in (argv, ["--s", "-0.5", *argv[2:]]):
            out = tmp_path / f"s{run[1]}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["counterexample", *run, "--out", str(out)]) == 0
            with open(out, encoding="utf-8", newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row.values())
            json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"),
                       parse_constant=_reject_constant)
            ratios[run[1]] = {int(row["k"]): float(row["Rk"]) for row in rows}
        s = float(argv[1])
        for k, rk in ratios[argv[1]].items():
            f = counterexample_profile(CounterexampleSpec(k, -0.5))
            assert f.amplitudes.real.max() == 1.0
            expected = hs_norm(f, -0.5) / hs_norm(f, s)
            assert rk / ratios["-0.5"][k] == pytest.approx(expected, rel=1e-12)

    def test_in_range_ratios_of_huge_coefficients_are_reported(self, tmp_path):
        # the l2 norm's square overflows at 1e300: the run is retaken on the
        # rescaled coefficients, and the ratios are those of unit coefficients
        rows = {}
        for coeffs in ("1e300,1e300", "1,1"):
            out = tmp_path / f"{coeffs}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["khinchine", "--p", "1,2", "--n", "10", "--coeffs", coeffs,
                             "--out", str(out)]) == 0
            json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"),
                       parse_constant=_reject_constant)
            with open(out, encoding="utf-8", newline="") as handle:
                rows[coeffs] = list(csv.DictReader(handle))
        for huge, unit in zip(rows["1e300,1e300"], rows["1,1"], strict=True):
            for key in ("ratio", "stderr"):
                assert float(huge[key]) == pytest.approx(float(unit[key]), rel=1e-12, abs=0.0)

    def test_ratios_whose_moments_leave_the_double_range_are_reported(self, tmp_path):
        # the order-1 moment of 1e308,1e308 overflows but is written nowhere;
        # the run used to exit 1 on it
        out = tmp_path / "kh.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["khinchine", "--p", "1,2", "--n", "3", "--coeffs", "1e308,1e308",
                         "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["p"] for row in rows] == ["1.0", "2.0"]
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())

    def test_in_range_norm_of_a_huge_profile_is_reported(self, tmp_path):
        # the sum of squares overflows, the L2 norm sqrt(9/8) * 1e300 does not
        profile, out = tmp_path / "huge.csv", tmp_path / "o.csv"
        write_profile(SpectralProfile(1.0, 0.125, np.full(9, 1e300)), profile)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stochastic-continuity", "--profile", str(profile), "--alpha", "0.1",
                         "--t", "1e-3,0", "--n", "10", "--out", str(out)]) == 0
        meta = json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"),
                          parse_constant=_reject_constant)
        assert meta["fit"]["l2_norm"] == pytest.approx(math.sqrt(1.125) * 1e300, rel=1e-15)

    def test_in_range_field_of_a_huge_profile_is_written(self, tmp_path):
        # the plain synthesis overflows, the field itself, at most
        # 1.7e308 / sqrt(2 pi) (about 6.8e307), does not: it is the unit
        # profile's field scaled, with no warning on the way
        fields = {}
        for amplitude in (1.0, 1.7e308):
            profile, out = tmp_path / f"{amplitude}.csv", tmp_path / f"u{amplitude}.csv"
            write_profile(SpectralProfile(1.0, 0.125, np.full(9, amplitude)), profile)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["propagate", "--profile", str(profile), "--t", "0",
                             "--out", str(out)]) == 0
            fields[amplitude] = read_field(out)[1]
        huge, unit = fields[1.7e308], fields[1.0]
        assert np.all(np.isfinite(huge.view(np.float64)))
        # the transform's rounding is relative to the field's sup
        sup = 1.7e308 * np.max(np.abs(unit))
        assert np.max(np.abs(huge - 1.7e308 * unit)) <= 1e-14 * sup

    def test_huge_profile_fails_only_the_unscaled_window_bound(self, tmp_path):
        # at amplitude 1e100 every norm is in range and verify-lemmas runs; the
        # L2_5 bound CORPUS_CONSTANT * (eps + t/eps) does not scale with the
        # amplitude, so exactly its two rows fail, and with it the run
        directory = tmp_path / "huge"
        directory.mkdir()
        write_profile(SpectralProfile(1.0, 0.125, np.full(9, 1e100)), directory / "huge.csv")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify-lemmas", "--corpus", str(directory), "--out", str(out)]) == 2
        failed = [r for r in read_reports(out) if not r.passed]
        assert [(r.lemma_id, r.params["k"]) for r in failed] == [("L2_5", 1), ("L2_5", 2)]
        assert [r.fitted_c for r in failed] == [pytest.approx(6.1e97, rel=0.01),
                                                pytest.approx(1.0e98, rel=0.01)]

    @pytest.mark.parametrize("subcommand,message,amplitude", [
        # nine amplitudes at step 1/8 have the L2 norm sqrt(9/8) * amplitude,
        # out of range at 1.7e308; at 1e300 the norm is in range and runs
        ("stochastic-continuity", "H^s norm at s = 0.0 leaves the double range", 1.7e308),
        # every norm of the audit is in range, the squared norms of NORM_EQUIV
        # are not: a refusal naming the profile, not a traceback
        ("verify-lemmas", "NORM_EQUIV: the squared L2 norms leave the double range",
         1e300),
        ("verify-lemmas", "NORM_EQUIV: the squared L2 norms leave the double range",
         1e160),
        # the field is in range at 1.7e308, the profile's L2 mass is not
        ("verify-lemmas", "the L2 mass of the profile leaves the double range", 1.7e308),
    ])
    def test_overflowing_profile_norm_refused(self, tmp_path, capsys, subcommand, message,
                                              amplitude):
        directory = tmp_path / "huge"
        directory.mkdir()
        profile = directory / "huge.csv"
        write_profile(SpectralProfile(1.0, 0.125, np.full(9, amplitude)), profile)
        if subcommand == "stochastic-continuity":
            argv = [subcommand, "--profile", str(profile), "--alpha", "0.1", "--t", "1e-3,0",
                    "--n", "10"]
        else:
            # a corpus refusal names the profile, read from huge.csv as "huge"
            argv, message = [subcommand, "--corpus", str(directory)], f"huge: {message}"
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists() and not Path(f"{out}.meta.json").exists()


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory, corpus_by_id):
    path = tmp_path_factory.mktemp("profiles") / "gauss_low.csv"
    write_profile(corpus_by_id["gauss_low"].profile, path)
    return path


def _child_env():
    """The environment of a child interpreter that imports this checkout's package."""
    src = str(Path(ostrovsky_lab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _readme_cli_commands():
    """The argv of each command in the shell block of README's CLI section."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


class TestReadmeCommands:
    COMMANDS = _readme_cli_commands()

    def test_every_subcommand_is_shown(self):
        assert [argv[:2] for argv in self.COMMANDS] == [["ostrovsky-lab", name]
                                                         for name in _SUBCOMMANDS]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[argv[1] for argv in COMMANDS])
    def test_command_runs_cleanly(self, tmp_path, corpus_by_id, argv):
        # f.csv, the profile the commands read, is gauss_low; any numpy or
        # Python warning fails the run
        write_profile(corpus_by_id["gauss_low"].profile, tmp_path / "f.csv")
        run = subprocess.run([sys.executable, "-W", "error", "-m", "ostrovsky_lab.cli", *argv[1:]],
                             cwd=tmp_path, env=_child_env(), capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (0, "")
        out = tmp_path / argv[argv.index("--out") + 1]
        assert out.is_file() and Path(f"{out}.meta.json").is_file()


class TestProcessEntry:
    """`main` freezes the collector only as the process entry (argv is None)."""

    # runs the module as `python -m ostrovsky_lab.cli` does; the atexit hook
    # prints the objects tracked once the package is imported, then the
    # freeze count as the interpreter exits
    CHILD = ("import atexit, gc, runpy, sys\n"
             "import ostrovsky_lab\n"
             "imported = len(gc.get_objects())\n"
             "atexit.register(lambda: print(imported, gc.get_freeze_count()))\n"
             "runpy.run_module('ostrovsky_lab.cli', run_name='__main__')\n")

    def test_in_process_call_leaves_the_collector_alone(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert main(["khinchine", "--p", "2", "--n", "16", "--out", str(tmp_path / "k.csv")]) == 0
        assert main(["khinchine"]) == 1
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("argv, code, stderr", [
        (["khinchine", "--p", "2", "--n", "16", "--out", "k.csv"], 0, ""),
        (["khinchine", "--p", "2", "--out", "k.csv"], 1,
         "usage error: missing required parameter --n\n"),
        (["verify-lemmas", "--corpus", "profiles", "--out", "rep.csv"], 2, ""),
    ], ids=["success", "usage-error", "failed-check"])
    def test_module_child_freezes_and_keeps_code_and_stderr(self, tmp_path, argv, code, stderr):
        (tmp_path / "profiles").mkdir()
        write_profile(_spike16_profile(), tmp_path / "profiles" / "spike16.csv")
        run = subprocess.run([sys.executable, "-c", self.CHILD, *argv], cwd=tmp_path,
                             env=_child_env(), capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (code, stderr)
        imported, frozen = map(int, run.stdout.split())
        assert frozen >= imported > 0


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
        # 10**12 points are over the array budget and refused before allocating
        "t": _value(st.floats(-0.5, 0.5)),
        "nx": st.one_of(st.integers(1, 64), st.just(10**12)).map(str)})),
    st.tuples(st.just("counterexample"), st.builds(
        lambda s, k_min, width, nt: {"s": s, "k-min": str(k_min),
                                     "k-max": str(k_min + width), "nt": nt},
        _value(st.floats(-200.0, 500.0)),
        # mostly small scales, sometimes ones whose powers of two leave the double range
        st.integers(0, 3).flatmap(
            lambda i: st.integers(300, 1200) if i == 0 else st.integers(1, 10)),
        st.integers(0, 2), st.one_of(st.integers(1, 8), st.just(10**12)).map(str))),
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
        with contextlib.redirect_stderr(err):
            rc = main(argv + ["--out", str(out)])
        if rc == 0:
            with open(out, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)
            json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"),
                       parse_constant=_reject_constant)
        else:
            assert rc in (1, 2) and err.getvalue().strip()
