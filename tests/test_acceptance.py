"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; ``-s`` additionally prints the measured numbers.
"""

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np

from ostrovsky_lab.corpus import period_grid
from ostrovsky_lab.randomized import (
    gaussian_coefficients,
    khinchine_analytic_ratio,
    khinchine_check,
    stochastic_continuity,
)
from ostrovsky_lab.rough import CounterexampleSpec, counterexample_ratio, scaling_fit
from ostrovsky_lab.spectral import (evolve_spectral, hs_norm, lp_norm_space, phase,
                                    quadrature_row, synthesize)
from ostrovsky_lab.windows import wiener_decompose, wiener_window

EPS = np.finfo(np.float64).eps


# -- 1 ----------------------------------------------------------------------

def test_counterexample_scaling_slopes_match_smoothing_rate():
    """R_k grows like 2^(k/4) at s = 0 and levels off at s = 1/4."""
    ks = range(3, 9)
    slopes = {}
    for s, window in ((0.0, (0.20, 0.30)), (0.25, (-0.05, 0.05))):
        ratios, uppers = zip(*(counterexample_ratio(CounterexampleSpec(k, s), n_t=256)
                               for k in ks))
        fit = scaling_fit(ks, ratios, uppers)
        slopes[s] = fit.slope
        lo, hi = fit.slope_range
        print(f"s={s}: slope={fit.slope:.6f} in [{lo:.6f}, {hi:.6f}] "
              f"residual={fit.residual:.2e} ratios={[round(r, 4) for r in ratios]}")
        # every slope the certified bounds on R_k allow lies in the window
        assert window[0] <= lo <= fit.slope <= hi <= window[1]
    assert slopes[0.0] > slopes[0.25]


# -- 2 ----------------------------------------------------------------------

def test_propagator_is_unitary_parseval_consistent_and_a_group(corpus):
    """U(t) preserves the l2 norm, trapezoid L2 matches spectral l2 on the
    matched grid, and U(t1+t2) = U(t2) U(t1) within rounding."""
    times = (0.0, 1e-3, 1.0)
    worst_unitary = worst_parseval = worst_group = 0.0
    for entry in corpus:
        p = entry.profile
        norm = hs_norm(p, 0.0)
        grid = period_grid(p, p.n + 1)
        for t in times:
            evolved = evolve_spectral(p, t, "+")
            worst_unitary = max(worst_unitary,
                                abs(hs_norm(evolved, 0.0) - norm) / norm)
            space = lp_norm_space(synthesize(evolved, grid), grid.x_step, 2.0)
            worst_parseval = max(worst_parseval, abs(space - norm) / norm)
        phi = np.zeros(p.n)
        nz = p.amplitudes != 0.0
        phi[nz] = np.abs(phase(p.xi[nz]))
        mag = np.abs(p.amplitudes)
        for t1 in times:
            for t2 in times:
                seq = evolve_spectral(evolve_spectral(p, t1, "+"), t2, "+")
                direct = evolve_spectral(p, t1 + t2, "+")
                diff = np.abs(seq.amplitudes - direct.amplitudes)
                gap = float(abs(Fraction(t1) + Fraction(t2) - Fraction(t1 + t2)))
                allowance = 1e-14 * (1.0 + mag)
                if gap > 0.0:
                    # the sum itself rounds; the phase product rounds at
                    # |t*phi| ~ 1e3 rad
                    allowance = allowance + mag * phi * (gap + 4 * EPS * (t1 + t2))
                margin = diff - allowance
                worst_group = max(worst_group, float(np.max(margin)))
    print(f"unitarity={worst_unitary:.2e} parseval={worst_parseval:.2e} "
          f"group_margin={worst_group:.2e}")
    assert worst_unitary <= 1e-13
    assert worst_parseval <= 1e-6
    assert worst_group <= 0.0


# -- 3 ----------------------------------------------------------------------

def test_window_partition_reconstruction_and_norm_equivalence(corpus, lemma_reports):
    """Hat windows sum to one, decompositions rebuild the profile, and the
    piece norms are two-sided equivalent to the full norm."""
    xs = np.random.default_rng(20260814).uniform(-100.0, 100.0, 1_000_000)
    total = np.zeros_like(xs)
    for k in range(-101, 102):
        total += wiener_window(xs - k)
    partition_dev = float(np.max(np.abs(total - 1.0)))

    worst_rebuild = 0.0
    for entry in corpus:
        p = entry.profile
        rebuilt = np.zeros(p.n, dtype=np.complex128)
        for row in wiener_decompose(p).table:  # in k order
            rebuilt += row
        err = np.abs(rebuilt - p.amplitudes)
        cap = 2.0 * EPS * np.abs(p.amplitudes)
        assert np.all(err <= cap)
        scaled = err[cap > 0] / cap[cap > 0]
        if scaled.size:
            worst_rebuild = max(worst_rebuild, float(np.max(scaled)))

    rows = [r for r in lemma_reports if r.lemma_id == "NORM_EQUIV"]
    ratios = sorted(r.params["ratio"] for r in rows)
    assert len(rows) == 24 and all(r.passed for r in rows)
    assert 1.0 / 3.0 - 1e-12 <= ratios[0]
    assert ratios[-1] <= 1.0 + 1e-12
    print(f"partition_dev={partition_dev:.2e} rebuild(units of 2eps|a|)="
          f"{worst_rebuild:.3f} norm_ratios=[{ratios[0]:.4f}, {ratios[-1]:.4f}]")
    assert partition_dev <= 1e-15


# -- 4 ----------------------------------------------------------------------

def test_square_function_majorized_by_l2_norm_at_all_times(corpus_by_id, lemma_reports):
    """The grid square function stays below ||f||_2 (slack 1e-6) for the
    profile and for its evolution, with no time restriction."""
    rows = [r for r in lemma_reports if r.lemma_id in ("L2_6", "L2_7")]
    assert len(rows) == 36
    worst = 0.0
    for r in rows:
        assert r.passed, (r.profile_id, r.params)
        norm = hs_norm(corpus_by_id[r.profile_id].profile, 0.0)
        assert r.bound_rhs == norm * (1.0 + 1e-6)
        worst = max(worst, r.fitted_c)
    print(f"worst sup S / ||f||_2 = {worst:.4f} over {len(rows)} rows "
          f"(t in {{0, 0.1, 1}})")
    assert worst <= 1.0 + 1e-6


# -- 5 ----------------------------------------------------------------------

def test_high_frequency_deviation_scales_linearly_in_time(lemma_reports):
    """Profiles with content beyond the split scale show slope-1 deviation
    growth capped by the phase-weighted mass; the rest skip explicitly."""
    rows = [r for r in lemma_reports if r.lemma_id == "L2_3"]
    skips = [r for r in rows if "skip" in r.params]
    slope_rows = [r for r in rows if r.params.get("check") == "slope"]
    constant_rows = [r for r in rows if r.params.get("check") == "constant"]
    assert len(skips) == 8
    assert {r.profile_id for r in slope_rows} == {
        "gauss_high", "band_high_even", "mix_two_scale", "mix_band_gauss_even"}
    for r in slope_rows:
        assert 0.95 <= r.fitted_c <= 1.05, (r.profile_id, r.fitted_c)
        assert r.passed
    for r in constant_rows:
        assert r.measured_lhs <= r.bound_rhs, r.profile_id
    print("slopes: " + ", ".join(f"{r.profile_id}={r.fitted_c:.4f}"
                                 for r in slope_rows))


# -- 6 ----------------------------------------------------------------------

def test_randomized_moments_match_khinchine_predictions():
    """Monte Carlo L^p moments of Gaussian window sums sit on the analytic
    ratio (p = 2, and a single-coefficient p = 4 check) and below sqrt(p)
    for the higher powers."""
    coeffs = (1.0, 0.8, 0.6, 0.4, 0.2)
    n = 100_000
    res2, *higher = khinchine_check(coeffs, (2.0, 4.0, 8.0, 16.0), n, seed=0)
    print(f"p=2: ratio={res2.ratio:.5f} +- {res2.ratio_stderr:.5f}")
    assert abs(res2.ratio - 1.0) <= 3.0 * res2.ratio_stderr
    for res in higher:
        print(f"p={res.power:g}: ratio={res.ratio:.5f}")
        assert res.ratio <= 2.0
    [spike] = khinchine_check((1.0,), (4.0,), n, seed=0)
    target = khinchine_analytic_ratio(4.0)
    print(f"spike p=4: ratio={spike.ratio:.5f} analytic={target:.5f}")
    assert abs(spike.ratio - target) <= 3.0 * spike.ratio_stderr


# -- 7 ----------------------------------------------------------------------

def test_exceedance_probabilities_decay_to_zero_with_time(corpus_by_id):
    """P(|U(t) f^w - f^w| > 1/2 at x = 0) falls as t does and is exactly
    zero at t = 0."""
    p = corpus_by_id["gauss_low"].profile
    ts = [1e-1, 1e-2, 1e-3, 1e-4, 0.0]
    curve = stochastic_continuity(p, 0.0, 0.5, ts, 2000, seed=0)
    probs = curve.empirical_probs
    half = curve.wilson_halfwidth
    print("exceedance curve: " +
          ", ".join(f"t={t:g}: {q:.4f}" for t, q in zip(ts, probs)))
    for i in range(len(probs) - 1):
        assert probs[i + 1] <= probs[i] + half[i] + half[i + 1]
    assert probs[-2] <= 0.05   # smallest positive time
    assert probs[-1] == 0.0    # exact-zero baseline at t = 0


# -- 8 ----------------------------------------------------------------------

def test_tail_decay_is_gaussian_in_threshold(corpus_by_id):
    """log P(|f^w(0)| > alpha) is linear in alpha^2 over the observable
    range (correlation at most -0.99)."""
    p = corpus_by_id["gauss_low"].profile
    n = 100_000
    # draw i's value at x = 0 is linear in its window coefficients g_k
    dec = wiener_decompose(p)
    g = gaussian_coefficients(0, np.arange(n), dec.ks)
    samples = np.abs(g @ (dec.table @ quadrature_row(p, 0.0)))
    alphas = np.quantile(samples, np.linspace(0.5, 1.0 - 2e-4, 12))
    probs = np.array([np.mean(samples > a) for a in alphas])
    keep = probs >= 10.0 / n
    corr = float(np.corrcoef(alphas[keep] ** 2, np.log(probs[keep]))[0, 1])
    print(f"corr(alpha^2, log P) = {corr:.5f} over {int(np.sum(keep))} thresholds")
    assert corr <= -0.99


# -- 9 ----------------------------------------------------------------------

def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "ostrovsky_lab.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_runs_are_deterministic(tmp_path):
    """Identical invocations (and different thread counts) produce
    byte-identical CSV artifacts."""
    kh = []
    for name in ("kh_a.csv", "kh_b.csv"):
        out = tmp_path / name
        _cli("khinchine", "--p", "2,4", "--n", "20000", "--out", str(out))
        kh.append(out.read_bytes())
    assert kh[0] == kh[1]

    ce = []
    for name, threads in (("ce_a.csv", "1"), ("ce_b.csv", "1"), ("ce_c.csv", "2")):
        out = tmp_path / name
        _cli("counterexample", "--s", "0.0", "--k-min", "3", "--k-max", "6",
             "--nt", "64", "--threads", threads, "--out", str(out))
        ce.append(out.read_bytes())
    assert ce[0] == ce[1] == ce[2]

    vl = []
    for name, threads in (("vl_a.csv", "2"), ("vl_b.csv", "2"), ("vl_c.csv", "4")):
        out = tmp_path / name
        proc = _cli("verify-lemmas", "--threads", threads, "--out", str(out))
        vl.append(out.read_bytes())
        with open(f"{out}.meta.json", encoding="utf-8") as handle:
            assert json.load(handle)["summary"]["failed"] == 0
    assert vl[0] == vl[1] == vl[2]
    print(f"khinchine {len(kh[0])} B, counterexample {len(ce[0])} B, "
          f"verify-lemmas {len(vl[0])} B — all reruns byte-identical")
