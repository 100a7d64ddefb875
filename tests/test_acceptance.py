"""Acceptance gate: nine end-to-end checks tying the simulator and the
analysis chain to the reference characterization of the source.

Each test covers one numbered criterion and prints a single checklist line,
so a verbose run reads as the acceptance summary. Statistical criteria use
the reference measurement bands; analytic oracles are pinned to 1e-9 digits
frozen from independent computations. Every simulated acquisition is at
least 60 s long.
"""

import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from biphoton.config import preset_config
from biphoton.correlator import (
    coincidence_metrics,
    cross_correlation_histogram,
    heralded_autocorrelation,
    normalized_g2,
    window_sweep,
)
from biphoton.fitting import (
    finite_difference_check,
    fit_double_exponential,
    fit_symmetric_exponential,
)
from biphoton.models import (
    biphoton_from_linewidths,
    cauchy_schwarz,
    cavity_solve,
    conditioned_from_unconditioned,
    lorentzian_autocorrelation,
    multimode_bunching,
    rate_budget,
    two_sided_capture,
    window_correction,
)
from biphoton.simulator import SourceParams, simulate_source
from biphoton.tagstream import HEADER_STRUCT, TagStream, read_tags, write_tags

EXACT = 1e-9


def _gate(number, name, checks):
    """Print the one-line verdict for a criterion, then enforce it."""
    failed = [label for label, ok in checks if not ok]
    status = "FAIL" if failed else "PASS"
    detail = "; ".join(label for label, _ in checks) if not failed else \
        "failed: " + "; ".join(failed)
    print(f"criterion {number} ({name}): {status} ({detail})")
    assert not failed, f"criterion {number} ({name}) failed: " + "; ".join(failed)


def _in_band(value, center, rel):
    return abs(value / center - 1.0) <= rel


def _overlaps(lo_a, hi_a, lo_b, hi_b):
    return lo_a <= hi_b and lo_b <= hi_a


# --- shared simulated acquisitions ------------------------------------------------
#
# The long runs are generated once per module and reused by every criterion
# that needs them. Seeds are fixed so the whole gate is reproducible.


@pytest.fixture(scope="module")
def xcorr_run():
    """1800 s cross-correlation acquisition at 1 mW, full signal arm on A."""
    cfg = preset_config("reference")
    stream = simulate_source(cfg.make_source(), 1800.0, seed=11)
    hist = cross_correlation_histogram(
        stream, cfg.herald_channel, cfg.signal_channel, cfg.bin_ps, cfg.tau_range_ps
    )
    fit = fit_double_exponential(hist)
    center = int(round(fit.param("tau0_s") * 1e12))
    g400 = normalized_g2(hist, cfg.window_ps, center_ps=center)
    g0, g0_err = fit.g2_zero(), fit.g2_zero_err()
    return SimpleNamespace(cfg=cfg, fit=fit, g400=g400, g0=g0, g0_err=g0_err)


@pytest.fixture(scope="module")
def metrics_run():
    """300 s acquisition in the same arrangement for rates and efficiency."""
    cfg = preset_config("reference")
    stream = simulate_source(cfg.make_source(), 300.0, seed=20260814)
    met = coincidence_metrics(
        stream, cfg.herald_channel, cfg.signal_channel, cfg.window_ps,
        cfg.detector_a_efficiency,
    )
    return SimpleNamespace(cfg=cfg, stream=stream, met=met)


@pytest.fixture(scope="module")
def signal_split_run():
    """1800 s with the signal arm split 50/50 for its autocorrelation."""
    cfg = preset_config("signal-autocorr")
    stream = simulate_source(cfg.make_source(), 1800.0, seed=13)
    hist = cross_correlation_histogram(
        stream, cfg.signal_channel, cfg.partner_channel, cfg.bin_ps, cfg.tau_range_ps
    )
    fit = fit_symmetric_exponential(hist)
    center = int(round(fit.param("tau0_s") * 1e12))
    g400 = normalized_g2(hist, cfg.window_ps, center_ps=center)
    return SimpleNamespace(cfg=cfg, stream=stream, fit=fit, g400=g400)


@pytest.fixture(scope="module")
def idler_split_run():
    """1800 s role-swapped acquisition for the idler autocorrelation."""
    cfg = preset_config("idler-autocorr")
    stream = simulate_source(cfg.make_source(), 1800.0, seed=14)
    hist = cross_correlation_histogram(
        stream, cfg.signal_channel, cfg.partner_channel, cfg.bin_ps, cfg.tau_range_ps
    )
    fit = fit_symmetric_exponential(hist)
    center = int(round(fit.param("tau0_s") * 1e12))
    g400 = normalized_g2(hist, cfg.window_ps, center_ps=center)
    return SimpleNamespace(cfg=cfg, fit=fit, g400=g400)


# --- criterion 1: biphoton timing -------------------------------------------------


def test_criterion_1_biphoton_timing(xcorr_run):
    fit = xcorr_run.fit
    dnu_fall = fit.param("dnu_fall_hz")
    dnu_rise = fit.param("dnu_rise_hz")
    fwhm = fit.fwhm_s()
    _gate(1, "biphoton timing", [
        ("fit converged", fit.converged),
        (f"signal linewidth {dnu_fall / 1e6:.3f} MHz within 5% of 3.7",
         _in_band(dnu_fall, 3.7e6, 0.05)),
        (f"idler linewidth {dnu_rise / 1e6:.3f} MHz within 5% of 2.3",
         _in_band(dnu_rise, 2.3e6, 0.05)),
        (f"correlation FWHM {fwhm * 1e9:.2f} ns within 5% of 78",
         _in_band(fwhm, 78e-9, 0.05)),
    ])


# --- criterion 2: rates and brightness --------------------------------------------


def test_criterion_2_rate_budget(metrics_run):
    cfg, met = metrics_run.cfg, metrics_run.met
    # at 1 mW the measured coincidence rate is the slope per mW
    slope = met.coincidence_rate_hz / cfg.pump_mw
    spec = biphoton_from_linewidths(
        cfg.signal_linewidth_mhz * 1e6, cfg.idler_linewidth_mhz * 1e6
    )
    budget = rate_budget(
        slope,
        cfg.transmission_s,
        cfg.detector_a_efficiency,
        cfg.transmission_i * cfg.idler_filter_transmission,
        cfg.detector_i_efficiency,
        cfg.budget_escape_s,
        cfg.budget_escape_i,
        spec.bandwidth_hz,
        cfg.window_ns * 1e-9,
    )
    _gate(2, "rates and brightness", [
        (f"coincidence slope {slope:.2f} Hz/mW within 15% of 34",
         _in_band(slope, 34.0, 0.15)),
        (f"created {budget.created_per_s_mw:.0f} pairs/(s mW) within 15% of 2200",
         _in_band(budget.created_per_s_mw, 2200.0, 0.15)),
        (f"brightness {budget.spectral_brightness_per_s_mw_mhz:.0f} /(s mW MHz) "
         "within 15% of 800",
         _in_band(budget.spectral_brightness_per_s_mw_mhz, 800.0, 0.15)),
        (f"creation prob {budget.creation_prob_per_mw:.2e} /mW within 15% of 2.2e-3",
         _in_band(budget.creation_prob_per_mw, 2.2e-3, 0.15)),
    ])


# --- criterion 3: heralding efficiency and window saturation -----------------------


def test_criterion_3_heralding_efficiency(metrics_run):
    cfg, met = metrics_run.cfg, metrics_run.met
    sweep = window_sweep(
        metrics_run.stream, cfg.herald_channel, cfg.signal_channel,
        [int(w * 1000) for w in cfg.windows_ns], cfg.detector_a_efficiency,
    )
    rates = [p.coincidence_rate_hz for p in sweep]
    etas = [p.heralding_efficiency for p in sweep]
    first_step = rates[1] / rates[0] - 1.0
    last_step = rates[-1] / rates[-2] - 1.0
    _gate(3, "heralding efficiency", [
        (f"heralding efficiency {100 * met.heralding_efficiency:.2f}% in 28 +- 2",
         abs(met.heralding_efficiency - 0.28) <= 0.02),
        ("coincidence rate monotone in window width",
         all(b > a for a, b in zip(rates, rates[1:]))),
        ("heralding efficiency monotone in window width",
         all(b > a for a, b in zip(etas, etas[1:]))),
        (f"still rising steeply at small windows (+{100 * first_step:.0f}%)",
         first_step > 0.20),
        (f"saturates at wide windows (+{100 * last_step:.2f}% on the last step)",
         last_step < 0.05),
    ])


# --- criterion 4: correlation values and the power sweep ---------------------------


def _heralded_accidental_band(cfg, pump_mw):
    """Analytic floor/ceiling for the heralded split-arm autocorrelation.

    The floor counts accidental triple coincidences from one true pair plus
    uncorrelated singles and darks; the ceiling adds the two-pair emission
    term at its slot-model upper bound. A measured point must land between
    them (within counting error).
    """
    src = cfg.make_source(pump_mw=pump_mw, splitter_ratio=0.5)
    window_s = cfg.window_ns * 1e-9
    created0 = src.creation_prob_per_mw * src.pump_mw / src.reference_window_s
    sum_w = sum(src.mode_weights) / max(src.mode_weights)
    c_arm = src.escape_s * src.transmission_s * src.splitter_ratio * src.detector_a.efficiency
    kappa = two_sided_capture(
        src.signal_linewidth_hz, src.idler_linewidth_hz, window_s
    )
    r_idler = (created0 * src.escape_i * src.transmission_i
               * src.idler_filter_transmission * src.detector_i.efficiency)
    herald_purity = r_idler / (r_idler + src.detector_i.dark_rate_hz)
    x = herald_purity * c_arm * kappa
    r_arm = created0 * sum_w * c_arm
    alpha_a = (r_arm + src.detector_a.dark_rate_hz) * window_s
    alpha_b = (r_arm + src.detector_b.dark_rate_hz) * window_s
    denom = (x + alpha_a) * (x + alpha_b)
    floor = (x * (alpha_a + alpha_b) + alpha_a * alpha_b) / denom
    mu_extra = (src.creation_prob_per_mw * src.pump_mw
                * (src.coherence_slot_s / src.reference_window_s) * (1.0 + sum_w))
    ceiling = floor + herald_purity * mu_extra * 2.0 * c_arm * c_arm / denom
    return floor, ceiling


def test_criterion_4_correlation_values(xcorr_run, signal_split_run):
    checks = [
        (f"g2_si(400 ns) = {xcorr_run.g400.value:.2f} within 20% of 70",
         _in_band(xcorr_run.g400.value, 70.0, 0.20)),
        (f"g2_si(0) = {xcorr_run.g0:.1f} within 20% of 335",
         _in_band(xcorr_run.g0, 335.0, 0.20)),
    ]

    # heralded split-arm autocorrelation at 1 mW on the split acquisition
    ss_cfg = signal_split_run.cfg
    her = heralded_autocorrelation(
        signal_split_run.stream, ss_cfg.herald_channel, ss_cfg.signal_channel,
        ss_cfg.partner_channel, ss_cfg.window_ps, n_max=ss_cfg.n_max,
    )
    checks.append((
        f"g2_iss(400 ns) = {her.value:.4f} within a factor 2 of 0.035",
        0.035 / 2.0 <= her.value <= 0.035 * 2.0,
    ))
    lo13, hi13 = _heralded_accidental_band(ss_cfg, ss_cfg.pump_mw)
    checks.append((
        f"measured g2_iss inside its accidental band [{lo13:.4f}, {hi13:.4f}] +- 3 sigma",
        lo13 - 3 * her.uncertainty <= her.value <= hi13 + 3 * her.uncertainty,
    ))

    # power sweep of the windowed cross-correlation, 60 s per point
    sweep_cfg = preset_config("power-sweep")
    g_values, g_errors = [], []
    for pump in sweep_cfg.powers_mw:
        src = sweep_cfg.make_source(pump_mw=pump)
        s = simulate_source(src, sweep_cfg.point_duration_s, seed=int(pump * 1000))
        h = cross_correlation_histogram(
            s, sweep_cfg.herald_channel, sweep_cfg.signal_channel,
            sweep_cfg.bin_ps, sweep_cfg.tau_range_ps,
        )
        g = normalized_g2(h, sweep_cfg.window_ps, center_ps=0)
        g_values.append(g.value)
        g_errors.append(g.uncertainty)
    peak = int(np.argmax(g_values))
    lo0 = g_values[0] - 3 * g_errors[0]
    hi0 = g_values[0] + 3 * g_errors[0]
    checks += [
        (f"g2_si maximal at the lowest power ({g_values[0]:.0f} at "
         f"{sweep_cfg.powers_mw[0]} mW)", peak == 0),
        ("g2_si decreases with power",
         all(b < a for a, b in zip(g_values, g_values[1:]))),
        (f"low-power point [{lo0:.0f}, {hi0:.0f}] (3 sigma) reaches the 150-170 range",
         _overlaps(lo0, hi0, 150.0, 170.0)),
        ("low-power point consistent with 161 +- 38 at 3 sigma",
         _overlaps(lo0, hi0, 161.0 - 3 * 38.0, 161.0 + 3 * 38.0)),
    ]

    # the heralded-autocorrelation accidental model over the swept powers:
    # minimum at moderate power, noise-driven rise at very low power,
    # roughly linear growth at moderate-to-high power
    band_powers = (0.002, 0.0125, 0.125, 1.0, 2.0, 5.0)
    floors = [_heralded_accidental_band(sweep_cfg, p)[0] for p in band_powers]
    rise = floors[0] / floors[2]
    slope_12 = floors[4] - floors[3]
    slope_25 = (floors[5] - floors[4]) / 3.0
    checks += [
        (f"model g2_iss rises {rise:.1f}x from 0.125 mW down to 2 uW", rise > 2.0),
        ("model minimum sits at the sweep's lowest power",
         int(np.argmin(floors)) == 2),
        (f"model roughly linear above 1 mW (slope ratio {slope_12 / slope_25:.2f})",
         0.8 <= slope_12 / slope_25 <= 1.25),
    ]

    # simulated anchor points on the sweep arrangement (split signal arm)
    for pump, seed in ((0.0125, 21), (1.0, 22)):
        src = sweep_cfg.make_source(pump_mw=pump, splitter_ratio=0.5)
        s = simulate_source(src, 1800.0, seed=seed)
        anchor = heralded_autocorrelation(
            s, sweep_cfg.herald_channel, sweep_cfg.signal_channel,
            sweep_cfg.partner_channel, sweep_cfg.window_ps, n_max=sweep_cfg.n_max,
        )
        lo, hi = _heralded_accidental_band(sweep_cfg, pump)
        checks.append((
            f"simulated g2_iss({pump} mW) = {anchor.value:.4f} inside "
            f"[{lo:.4f}, {hi:.4f}] +- 3 sigma",
            lo - 3 * anchor.uncertainty <= anchor.value <= hi + 3 * anchor.uncertainty,
        ))

    _gate(4, "correlation values", checks)


# --- criterion 5: autocorrelation bunching -----------------------------------------


def test_criterion_5_autocorrelation_bunching(signal_split_run):
    checks = []
    # dark-free, lossless runs with long coherence slots and narrow
    # wavepackets, where the zero-delay value is not smeared by timing jitter
    for n_modes, duration in ((1, 300.0), (2, 300.0), (4, 300.0), (8, 200.0)):
        params = SourceParams(
            creation_prob_per_mw=0.016 / n_modes,
            reference_window_s=400e-9,
            signal_linewidth_hz=50e6,
            idler_linewidth_hz=50e6,
            mode_weights=(1.0,) * n_modes,
            coherence_slot_s=5e-6,
            splitter_ratio=0.5,
        )
        s = simulate_source(params, duration, seed=100 + n_modes)
        h = cross_correlation_histogram(s, 0, 1, 100_000, (-16_000_000, 16_000_000))
        g = normalized_g2(
            h, 200_000, center_ps=0, floor_region_ps=(7_000_000, 15_000_000)
        )
        expected = multimode_bunching(n_modes)
        checks.append((
            f"{n_modes} equal modes: g2(0) = {g.value:.4f} within 0.05 of {expected:.3f}",
            abs(g.value - expected) <= 0.05,
        ))
    g400 = signal_split_run.g400
    checks.append((
        f"reference signal arm: g2_ss(400 ns) = {g400.value:.4f} in [1.05, 1.20]",
        1.05 <= g400.value <= 1.20,
    ))
    _gate(5, "autocorrelation bunching", checks)


# --- criterion 6: Cauchy-Schwarz violation -----------------------------------------


def test_criterion_6_cauchy_schwarz(xcorr_run, signal_split_run, idler_split_run):
    r400, r400_err = cauchy_schwarz(
        xcorr_run.g400.value, signal_split_run.g400.value, idler_split_run.g400.value,
        xcorr_run.g400.uncertainty, signal_split_run.g400.uncertainty,
        idler_split_run.g400.uncertainty,
    )
    r0, r0_err = cauchy_schwarz(
        xcorr_run.g0, signal_split_run.fit.g2_zero(), idler_split_run.fit.g2_zero(),
        xcorr_run.g0_err, signal_split_run.fit.g2_zero_err(), idler_split_run.fit.g2_zero_err(),
    )

    # surrogate with pair correlations disabled: all three correlations from
    # one classical stream, same estimator settings
    cfg = preset_config("surrogate")
    stream = simulate_source(cfg.make_source(), 900.0, seed=15)
    h_x = cross_correlation_histogram(
        stream, cfg.herald_channel, cfg.signal_channel, cfg.bin_ps, cfg.tau_range_ps
    )
    g_x = normalized_g2(h_x, cfg.window_ps, center_ps=0)
    h_ss = cross_correlation_histogram(
        stream, cfg.signal_channel, cfg.partner_channel, cfg.bin_ps, cfg.tau_range_ps
    )
    g_ss = normalized_g2(h_ss, cfg.window_ps, center_ps=0)
    h_ii = cross_correlation_histogram(
        stream, cfg.herald_channel, cfg.herald_channel, cfg.bin_ps, cfg.tau_range_ps
    )
    g_ii = normalized_g2(h_ii, cfg.window_ps, center_ps=0)
    r_sur, r_sur_err = cauchy_schwarz(
        g_x.value, g_ss.value, g_ii.value,
        g_x.uncertainty, g_ss.uncertainty, g_ii.uncertainty,
    )

    _gate(6, "cauchy-schwarz", [
        (f"R(400 ns) = {r400:.0f} +- {r400_err:.0f} > 1000", r400 > 1000.0),
        (f"R(0) = {r0:.0f} +- {r0_err:.0f} within 30% of 63000",
         _in_band(r0, 63e3, 0.30)),
        (f"classical surrogate R = {r_sur:.3f} +- {r_sur_err:.3f} <= 1 within 3 sigma",
         r_sur <= 1.0 + 3 * r_sur_err),
    ])


# --- criterion 7: analytic oracles -------------------------------------------------


def test_criterion_7_analytic_oracles():
    checks = []

    # window correction at (78 ns, 400 ns); the quoted 1/5.16 is the value
    # rounded to two decimals, so the band is half an ulp of that rounding
    wc = window_correction(78e-9, 400e-9)
    checks += [
        (f"window correction 1/{1 / wc:.4f} matches 1/5.16",
         abs(1 / wc - 5.16) < 0.005),
        ("window correction digits exact",
         math.isclose(wc, 0.19384419805194708, rel_tol=EXACT)),
    ]

    sol = cavity_solve(114.0, 0.9999, 0.970, sigma_r_oc=0.007)
    checks += [
        (f"internal loss {100 * sol.internal_loss:.2f}% = 2.4 +- 0.1",
         abs(sol.internal_loss - 0.024) <= 0.001),
        (f"escape efficiency {100 * sol.escape_efficiency:.1f}% = 56 +- 2",
         abs(sol.escape_efficiency - 0.56) <= 0.02),
        ("cavity solution digits exact",
         math.isclose(sol.rho, 0.9463773336215293, rel_tol=EXACT)
         and math.isclose(sol.internal_loss, 0.024060511738431933, rel_tol=EXACT)
         and math.isclose(sol.escape_efficiency, 0.5549337036458876, rel_tol=EXACT)),
    ]

    # closed-form wavepacket overlap against numerical quadrature
    dnu = 2.3e6
    rate = 2.0 * math.pi * dnu
    tau = 20e-9
    t = np.linspace(0.0, 12.0 / rate, 400_001)
    numeric = np.trapezoid(np.exp(-rate * t) * np.exp(-rate * (t + tau)), t)
    closed = lorentzian_autocorrelation(dnu, tau)
    checks.append((
        "closed form vs quadrature < 1e-6 relative",
        abs(numeric - closed) / closed < 1e-6,
    ))

    cond = conditioned_from_unconditioned(1.57, 1.32, 70.0)
    checks += [
        (f"conditioned autocorrelation prediction {cond:.4f} = 0.030 +- 0.001",
         abs(cond - 0.030) <= 0.001),
        ("conditioned prediction digits exact",
         math.isclose(cond, 0.029605714285714287, rel_tol=EXACT)),
        ("biphoton bandwidth digits exact",
         math.isclose(biphoton_from_linewidths(3.7e6, 2.3e6).bandwidth_hz,
                      2836666.6666666665, rel_tol=EXACT)),
        ("two-sided capture digits exact",
         math.isclose(two_sided_capture(3.7e6, 2.3e6, 400e-9),
                      0.9620701870145184, rel_tol=EXACT)),
    ]
    _gate(7, "analytic oracles", checks)


# --- criterion 8: engine exactness -------------------------------------------------


def _brute_force_histogram(times, channels, src, dst, bin_ps, lo, hi):
    """All-pairs reference histogram (vectorized over the full cross product)."""
    ta = times[channels == src].astype(np.int64)
    tb = times[channels == dst].astype(np.int64)
    delays = tb[None, :] - ta[:, None]
    keep = (delays >= lo) & (delays < hi)
    if src == dst:
        keep &= delays != 0  # a tag never pairs with itself
    idx = (delays[keep] - lo) // bin_ps
    return np.bincount(idx, minlength=(hi - lo) // bin_ps).astype(np.int64)


def _random_soup(rng, n, t_max):
    t = np.sort(rng.integers(0, t_max, n))
    c = rng.integers(0, 3, n).astype(np.uint8)
    order = np.lexsort((c, t))
    t, c = t[order], c[order]
    keep = np.ones(n, bool)
    keep[1:] = (np.diff(t) != 0) | (c[1:] != c[:-1])
    return t[keep], c[keep]


def test_criterion_8_engine_exactness(tmp_path):
    rng = np.random.default_rng(83)
    checks = []

    # multi-stop correlator against the all-pairs oracle
    brute_ok = True
    for n, t_max in ((2_000, 200_000), (2_000, 80_000), (10_000, 2_000_000)):
        t, c = _random_soup(rng, n, t_max)
        s = TagStream(t, c)
        for a, b in ((0, 2), (2, 0), (1, 1)):
            got = cross_correlation_histogram(s, a, b, 7, (-3_500, 3_500)).counts
            want = _brute_force_histogram(t, c, a, b, 7, -3_500, 3_500)
            brute_ok &= bool(np.array_equal(got, want))
    checks.append(("correlator == all-pairs oracle on random inputs", brute_ok))

    # chunked execution is bit-exact
    t, c = _random_soup(rng, 600_000, 10**12)
    big = TagStream(t, c % 2)
    h1 = cross_correlation_histogram(big, 0, 1, 5_000, (-5_000_000, 5_000_000), workers=1)
    h4 = cross_correlation_histogram(big, 0, 1, 5_000, (-5_000_000, 5_000_000), workers=4)
    checks.append(("chunk-parallel == serial (bit-exact)",
                   bool(np.array_equal(h1.counts, h4.counts))))

    # file format roundtrip is bit-exact
    gaps = rng.integers(1, 2_000, 200_000)
    times = np.cumsum(gaps)
    chans = rng.integers(0, 4, 200_000).astype(np.uint8)
    order = np.lexsort((chans, times))
    stream = TagStream(times[order], chans[order])
    path = tmp_path / "roundtrip.bin"
    write_tags(stream, path)
    first = path.read_bytes()
    back = read_tags(path)
    write_tags(back, path)
    checks.append((
        "file roundtrip bit-exact",
        all(np.array_equal(stream.channel_times(ch), back.channel_times(ch))
            for ch in range(256))
        and HEADER_STRUCT.unpack_from(first)[3] == 1
        and path.read_bytes() == first,
    ))

    # analytic Jacobians against finite differences, away from the kink
    grid = np.linspace(-4e-7, 4e-7, 401)
    fd_worst = 0.0
    for model, params in (
        ("double-exponential", (5_000.0, 3.7e6, 2.3e6, 3e-9, 40.0)),
        ("symmetric-exponential", (200.0, 1.0, 1e-7, 2e-9)),
    ):
        tau0 = params[3]
        pts = grid[np.abs(grid - tau0) > 7.5e-9]
        fd_worst = max(fd_worst, finite_difference_check(model, params, pts))
    checks.append((f"jacobian vs finite differences {fd_worst:.2e} < 1e-5",
                   fd_worst < 1e-5))

    _gate(8, "engine exactness", checks)


# --- criterion 9: throughput -------------------------------------------------------


def test_criterion_9_throughput():
    rng = np.random.default_rng(7)
    n = 10_000_000
    duration_ps = 50 * 10**12
    times = np.sort(rng.integers(0, duration_ps, size=n, dtype=np.int64))
    channels = rng.integers(0, 2, size=n, dtype=np.int64).astype(np.uint8)
    # a stream holds no duplicate (time, channel) record: order ties by
    # channel and drop the repeats
    order = np.lexsort((channels, times))
    times, channels = times[order], channels[order]
    fresh = np.ones(n, dtype=bool)
    fresh[1:] = (times[1:] != times[:-1]) | (channels[1:] != channels[:-1])
    times, channels = times[fresh], channels[fresh]
    # a vCPU that has sat idle can take a second or more to join new threaded
    # work, so run the threaded call untimed for about 2 s before the timed pair
    warm_until = time.perf_counter() + 2.0
    while time.perf_counter() < warm_until:
        cross_correlation_histogram(TagStream(times, channels), 0, 1, 5_000,
                                    (-5_000_000, 5_000_000), workers=4)
    # a stream splits its channels when built, so each timed call builds a
    # stream of its own over the same arrays and pays for its own selection;
    # the host's second core joins some calls late, so three alternating pairs
    # are timed and their median ratio judged
    t1s, t4s, cpu_per_wall4, exact = [], [], [], True
    for _ in range(3):
        start = time.perf_counter()
        serial = TagStream(times, channels)
        h1 = cross_correlation_histogram(serial, 0, 1, 5_000, (-5_000_000, 5_000_000),
                                         workers=1)
        t1s.append(time.perf_counter() - start)
        start, cpu_start = time.perf_counter(), time.process_time()
        threaded = TagStream(times, channels)
        h4 = cross_correlation_histogram(threaded, 0, 1, 5_000, (-5_000_000, 5_000_000),
                                         workers=4)
        t4s.append(time.perf_counter() - start)
        # process CPU time over wall time: about 1 when only one core ran the threads
        cpu_per_wall4.append((time.process_time() - cpu_start) / t4s[-1])
        exact = exact and bool(np.array_equal(h1.counts, h4.counts))

    # the histogram kernel runs inside numpy with the interpreter lock
    # released, so threads buy real parallelism when cores exist; demand 60%
    # parallel efficiency up to 4 workers, which on a single-core host
    # reduces to "threads must not cost more than they save"
    ratios = [t1 / t4 for t1, t4 in zip(t1s, t4s)]
    speedup = float(np.median(ratios))
    t1 = float(np.median(t1s))
    needed = 0.6 * min(4, os.cpu_count() or 1)
    pairs = ", ".join(f"{r:.2f}x at CPU/wall {c:.2f}" for r, c in zip(ratios, cpu_per_wall4))
    _gate(9, "throughput", [
        (f"1e7 tags histogrammed in a median {t1:.2f} s single-threaded (< 5 s)", t1 < 5.0),
        ("worker results bit-exact", exact),
        ("pair count pinned", int(h1.counts.sum()) == 5_001_210),
        (f"median speedup {speedup:.2f}x with 4 workers (>= {needed:.2f}; pairs {pairs})",
         speedup >= needed),
    ])
