"""Fit quality on synthetic histograms: noiseless recovery, Jacobian
correctness, equivariances and pull distributions."""

import math

import numpy as np
import pytest

from biphoton.config import preset_config
from biphoton.correlator import AnalysisError, CorrelationHistogram, cross_correlation_histogram
from biphoton.fitting import (
    DOUBLE_EXPONENTIAL,
    SYMMETRIC_EXPONENTIAL,
    FitResult,
    finite_difference_check,
    fit_double_exponential,
    fit_symmetric_exponential,
)
from biphoton.simulator import simulate_source

TWO_PI = 2.0 * math.pi
BW = 5_000


def _centers(tau_min, tau_max, bw=BW):
    edges = np.arange(tau_min, tau_max + 1, bw)
    return (edges[:-1] + bw / 2) * 1e-12


def _double_curve(tau_s, amp, dnu_fall, dnu_rise, tau0, floor):
    d = tau_s - tau0
    side = np.where(d >= 0, np.exp(-TWO_PI * dnu_fall * d), np.exp(TWO_PI * dnu_rise * d))
    return floor + amp * side


def _double_hist(amp=5_000.0, dnu_fall=3.7e6, dnu_rise=2.3e6, tau0=3e-9, floor=40.0,
                 tau_min=-400_000, tau_max=400_000):
    tau = _centers(tau_min, tau_max)
    counts = np.rint(_double_curve(tau, amp, dnu_fall, dnu_rise, tau0, floor))
    return CorrelationHistogram(BW, tau_min, tau_max, counts.astype(np.int64), 2, 0, 1, 1, 10**12)


# --- noiseless recovery -----------------------------------------------------


def test_double_exponential_noiseless_recovery():
    fit = fit_double_exponential(_double_hist())
    assert fit.converged
    assert fit.param("dnu_fall_hz") == pytest.approx(3.7e6, rel=1e-5)
    assert fit.param("dnu_rise_hz") == pytest.approx(2.3e6, rel=2e-4)
    assert fit.param("amplitude") == pytest.approx(5_000.0, rel=1e-3)
    assert fit.param("floor") == pytest.approx(40.0, rel=5e-3)
    assert abs(fit.param("tau0_s") - 3e-9) < 1e-11
    for name in fit.names:
        assert fit.error(name) > 0


def test_double_exponential_fwhm_matches_half_maximum_crossings():
    fit = fit_double_exponential(_double_hist())
    amp, floor, tau0 = fit.param("amplitude"), fit.param("floor"), fit.param("tau0_s")
    width = fit.fwhm_s()
    # the fitted curve crosses floor + amp/2 exactly one half-width apart
    right = tau0 + math.log(2) / (TWO_PI * fit.param("dnu_fall_hz"))
    left = tau0 - math.log(2) / (TWO_PI * fit.param("dnu_rise_hz"))
    assert width == pytest.approx(right - left, rel=1e-12)
    values = [
        floor + amp * math.exp(-TWO_PI * fit.param("dnu_fall_hz") * (right - tau0)),
        floor + amp * math.exp(TWO_PI * fit.param("dnu_rise_hz") * (left - tau0)),
    ]
    assert values == pytest.approx([floor + amp / 2, floor + amp / 2], rel=1e-12)


def test_symmetric_exponential_noiseless_recovery():
    tau = _centers(-1_000_000, 1_000_000)
    counts = np.rint(200.0 * (1.0 + np.exp(-np.abs(tau) / 100e-9))).astype(np.int64)
    hist = CorrelationHistogram(BW, -1_000_000, 1_000_000, counts, 0, 1, 1, 1, 10**12)
    fit = fit_symmetric_exponential(hist)
    assert fit.converged
    assert fit.g2_zero() == pytest.approx(2.0, abs=1e-3)
    assert fit.fwhm_s() == pytest.approx(2.0 * math.log(2) * 100e-9, rel=5e-3)
    assert abs(fit.param("tau0_s")) < 1e-12
    assert fit.param("floor") == pytest.approx(200.0, rel=1e-3)


# --- Jacobians ----------------------------------------------------------------


@pytest.mark.parametrize(
    "model,params",
    [
        (DOUBLE_EXPONENTIAL, [5000.0, 3.7e6, 2.3e6, 3e-9, 40.0]),
        (DOUBLE_EXPONENTIAL, [81.0, 5e6, 1e6, -2e-9, 1.0]),
        (DOUBLE_EXPONENTIAL, [1e4, 1e7, 8e6, 1e-9, 500.0]),
        (SYMMETRIC_EXPONENTIAL, [200.0, 1.0, 1e-7, 2e-9]),
        (SYMMETRIC_EXPONENTIAL, [500.0, 0.1, 2.5e-8, 5e-9]),
        (SYMMETRIC_EXPONENTIAL, [40.0, 2.0, 3e-7, -1e-8]),
    ],
)
def test_analytic_jacobian_matches_finite_differences(model, params):
    # keep the non-differentiable kink at tau0 off the grid; a relative
    # step also needs tau0 itself away from exactly zero
    tau0 = params[3]
    grid = np.linspace(-4e-7, 4e-7, 401)
    grid = grid[np.abs(grid - tau0) > 7.5e-9]
    assert finite_difference_check(model, params, grid) < 1e-5


# --- equivariances --------------------------------------------------------------


def test_fit_is_equivariant_under_count_scaling():
    hist = _double_hist()
    base = fit_double_exponential(hist)
    scaled_hist = CorrelationHistogram(
        BW, -400_000, 400_000, 7 * hist.counts, 2, 0, 1, 1, 10**12
    )
    scaled = fit_double_exponential(scaled_hist)
    assert scaled.param("dnu_fall_hz") == pytest.approx(base.param("dnu_fall_hz"), rel=1e-9)
    assert scaled.param("dnu_rise_hz") == pytest.approx(base.param("dnu_rise_hz"), rel=1e-9)
    assert scaled.param("amplitude") == pytest.approx(7 * base.param("amplitude"), rel=1e-6)
    assert scaled.param("floor") == pytest.approx(7 * base.param("floor"), rel=1e-6)


def test_fit_is_equivariant_under_delay_shift():
    base = fit_double_exponential(_double_hist())
    shifted = fit_double_exponential(
        _double_hist(tau0=53e-9, tau_min=-350_000, tau_max=450_000)
    )
    assert shifted.param("tau0_s") - base.param("tau0_s") == pytest.approx(5e-8, abs=1e-12)
    assert shifted.param("dnu_fall_hz") == pytest.approx(base.param("dnu_fall_hz"), rel=1e-9)
    assert shifted.param("dnu_rise_hz") == pytest.approx(base.param("dnu_rise_hz"), rel=1e-9)


# --- statistical behavior ---------------------------------------------------------


def test_pull_distribution_is_calibrated():
    """Fits on Poisson realizations should produce roughly unit-normal pulls
    for the linewidths (no gross bias, errors on the right scale)."""
    tau = _centers(-400_000, 400_000)
    mean = _double_curve(tau, 4_000.0, 3.7e6, 2.3e6, 3e-9, 400.0)
    pulls_fall, pulls_rise = [], []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        counts = rng.poisson(mean).astype(np.int64)
        hist = CorrelationHistogram(BW, -400_000, 400_000, counts, 2, 0, 1, 1, 10**12)
        fit = fit_double_exponential(hist)
        assert fit.converged
        pulls_fall.append((fit.param("dnu_fall_hz") - 3.7e6) / fit.error("dnu_fall_hz"))
        pulls_rise.append((fit.param("dnu_rise_hz") - 2.3e6) / fit.error("dnu_rise_hz"))
    for pulls in (np.array(pulls_fall), np.array(pulls_rise)):
        assert abs(pulls.mean()) < 0.3
        assert 0.7 < pulls.std() < 1.3


def test_floor_is_unbiased_at_one_count_per_bin():
    """At about one count per bin a count-weighted (Neyman) fit pulls the
    floor far below the truth; the Poisson-deviance fit does not."""
    tau = _centers(-2_000_000, 2_000_000)
    mean = _double_curve(tau, 30.0, 3.7e6, 2.3e6, 3e-9, 1.0)
    floors = []
    for seed in range(60):
        counts = np.random.default_rng(2000 + seed).poisson(mean).astype(np.int64)
        hist = CorrelationHistogram(BW, -2_000_000, 2_000_000, counts, 2, 0, 1, 1, 10**12)
        fit = fit_double_exponential(hist)
        assert fit.converged
        floors.append(fit.param("floor"))
    floors = np.array(floors)
    stderr = floors.std(ddof=1) / math.sqrt(floors.size)
    assert abs(floors.mean() - 1.0) < 3.0 * stderr


def test_sparse_idler_autocorrelation_converges():
    """A 30 s idler autocorrelation holds about 0.04 counts per floor bin, so
    the median of its outer quarters is 0; the floor start value must still
    be positive for the fit to leave its start point."""
    cfg = preset_config("idler-autocorr")
    stream = simulate_source(cfg.make_source(), 30.0, seed=14)
    hist = cross_correlation_histogram(
        stream, cfg.signal_channel, cfg.partner_channel, cfg.bin_ps, cfg.tau_range_ps
    )
    quarter = hist.n_bins // 4
    assert np.median(np.concatenate([hist.counts[:quarter], hist.counts[-quarter:]])) == 0
    fit = fit_symmetric_exponential(hist)
    assert fit.converged
    assert fit.iterations > 0
    assert fit.g2_zero() > 1.0
    assert math.isfinite(fit.g2_zero_err())


def test_flat_data_reports_no_convergence():
    flat = CorrelationHistogram(
        BW, -400_000, 400_000, np.full(160, 40, dtype=np.int64), 2, 0, 1, 1, 10**12
    )
    assert not fit_double_exponential(flat).converged
    assert not fit_symmetric_exponential(flat).converged
    dark = CorrelationHistogram(
        BW, -400_000, 400_000, np.zeros(160, dtype=np.int64), 2, 0, 1, 1, 10**12
    )
    assert not fit_double_exponential(dark).converged
    assert not fit_symmetric_exponential(dark).converged
    # an unconverged fit has no zero-delay value
    for fit in (fit_double_exponential(flat), fit_symmetric_exponential(flat)):
        assert math.isnan(fit.g2_zero())
        assert math.isnan(fit.g2_zero_err())


def test_degenerate_solution_is_not_converged():
    """This Poisson draw of a sparse bunching peak drives the solver to a peak
    outside the histogram with zero errors on contrast and position; such a
    fit must not count as converged, so its g2(0) is NaN, not a value with
    zero error."""
    tau = _centers(-5_500_000, 5_500_000)
    mean = 0.3 * (1.0 + np.exp(-np.abs(tau) / 60e-9))
    counts = np.random.default_rng(12).poisson(mean).astype(np.int64)
    hist = CorrelationHistogram(BW, -5_500_000, 5_500_000, counts, 0, 1, 1, 1, 10**12)
    fit = fit_symmetric_exponential(hist)
    assert fit.param("tau0_s") < -5.5e-6
    assert not fit.converged
    assert math.isnan(fit.g2_zero())
    assert math.isnan(fit.g2_zero_err())


# --- result object ----------------------------------------------------------------


def test_g2_zero_requires_positive_floor():
    bad = FitResult(
        model=DOUBLE_EXPONENTIAL,
        names=("amplitude", "dnu_fall_hz", "dnu_rise_hz", "tau0_s", "floor"),
        values=np.array([100.0, 1e6, 1e6, 0.0, 0.0]),
        errors=np.zeros(5),
        residual_norm=0.0,
        converged=True,
        iterations=1,
    )
    with pytest.raises(AnalysisError, match="floor"):
        bad.g2_zero()


def test_result_accessors_track_parameter_order():
    fit = fit_double_exponential(_double_hist())
    for i, name in enumerate(fit.names):
        assert fit.param(name) == fit.values[i]
        assert fit.error(name) == fit.errors[i]
    with pytest.raises(AnalysisError, match="unknown model"):
        finite_difference_check("biexponential", [1.0], np.linspace(-1e-7, 1e-7, 11))
