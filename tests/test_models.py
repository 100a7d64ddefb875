"""Checks for the closed-form models: frozen oracle values, limiting cases
and the algebraic identities the functions promise."""

import math

import numpy as np
import pytest

from biphoton.models import (
    DetectorSpec,
    ModelError,
    biphoton_from_linewidths,
    cauchy_schwarz,
    cavity_solve,
    conditioned_from_unconditioned,
    escape_from_heralding,
    escape_from_losses,
    g2_power_model,
    lorentzian_autocorrelation,
    multimode_bunching,
    rate_budget,
    two_sided_capture,
    window_correction,
)

EXACT = 1e-9


# --- wavepacket geometry -------------------------------------------------


def test_biphoton_from_linewidths_frozen():
    spec = biphoton_from_linewidths(3.7e6, 2.3e6)
    assert spec.bandwidth_hz == pytest.approx(2836666.6666666665, rel=EXACT)


def test_biphoton_from_linewidths_rejects_nonpositive():
    with pytest.raises(ModelError):
        biphoton_from_linewidths(0.0, 2.3e6)
    with pytest.raises(ModelError):
        biphoton_from_linewidths(3.7e6, -1.0)


def test_window_correction_frozen_value():
    value = window_correction(78e-9, 400e-9)
    assert value == pytest.approx(0.19384419805194708, rel=EXACT)
    assert 1.0 / value == pytest.approx(5.158782207822472, rel=EXACT)


def test_window_correction_limits_and_monotonicity():
    assert window_correction(78e-9, 0.0) == 1.0
    grid = np.geomspace(1e-10, 1e-5, 40)
    values = [window_correction(78e-9, d) for d in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(1.0, abs=1e-2)
    with pytest.raises(ModelError):
        window_correction(0.0, 1e-9)
    with pytest.raises(ModelError):
        window_correction(78e-9, -1e-9)


def test_two_sided_factors_frozen():
    assert two_sided_capture(3.7e6, 2.3e6, 400e-9) == pytest.approx(
        0.9620701870145184, rel=EXACT
    )


def test_lorentzian_autocorrelation_matches_quadrature():
    """Closed form against a brute-force overlap integral on a dense grid."""
    dnu = 2.3e6
    rate = 2.0 * math.pi * dnu
    span = 12.0 / rate
    for tau in (0.0, 20e-9, -20e-9, 150e-9):
        # the product of one-sided exponentials is only supported where both
        # arguments are non-negative; start the grid at that edge
        lo = max(0.0, -tau)
        t = np.linspace(lo, lo + span, 400_001)
        numeric = np.trapezoid(np.exp(-rate * t) * np.exp(-rate * (t + tau)), t)
        closed = lorentzian_autocorrelation(dnu, tau)
        assert abs(numeric - closed) / closed < 1e-6


def test_lorentzian_autocorrelation_symmetry():
    assert lorentzian_autocorrelation(3.7e6, 55e-9) == pytest.approx(
        lorentzian_autocorrelation(3.7e6, -55e-9), rel=1e-15
    )
    with pytest.raises(ModelError):
        lorentzian_autocorrelation(0.0, 1e-9)


# --- bunching and heralding ----------------------------------------------


def test_multimode_bunching_values_and_limits():
    assert multimode_bunching(1.0) == 2.0
    assert multimode_bunching(4.0) == 1.25
    ns = np.linspace(1.0, 50.0, 25)
    vals = [multimode_bunching(n) for n in ns]
    assert all(1.0 < v <= 2.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ModelError):
        multimode_bunching(0.5)


def test_escape_from_heralding():
    low = escape_from_heralding(0.28, 0.71)
    high = escape_from_heralding(0.28, 0.71, 0.10)
    assert low == pytest.approx(0.28 / 0.71, rel=1e-12)
    assert high == pytest.approx(0.28 / (0.71 * 0.9), rel=1e-12)
    assert escape_from_heralding(0.5, 1.0) == 0.5
    with pytest.raises(ModelError):
        escape_from_heralding(0.28, 0.0)
    with pytest.raises(ModelError):
        escape_from_heralding(0.28, 0.71, 1.0)
    # an escape efficiency above 1 names all three inputs
    assert escape_from_heralding(0.45, 0.5, 0.1) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ModelError) as info:
        escape_from_heralding(0.9, 0.5)
    assert info.value.fields == ("eta_h", "eta_t", "uncorrelated_fraction")
    with pytest.raises(ModelError):
        escape_from_heralding(0.46, 0.5, 0.1)


def test_conditioned_from_unconditioned_frozen():
    assert conditioned_from_unconditioned(1.57, 1.32, 70.0) == pytest.approx(
        0.029605714285714287, rel=EXACT
    )
    with pytest.raises(ModelError):
        conditioned_from_unconditioned(1.5, 1.3, 0.0)


def test_cauchy_schwarz_frozen():
    r, sigma = cauchy_schwarz(70.0, 1.10, 1.32)
    assert r == pytest.approx(3374.6556473829196, rel=EXACT)
    assert sigma == 0.0
    r0, sigma0 = cauchy_schwarz(335.0, 1.18, 1.5, 20.0, 0.03, 0.2)
    assert r0 == pytest.approx(63403.95480225988, rel=EXACT)
    assert sigma0 == pytest.approx(11462.13331626437, rel=EXACT)
    with pytest.raises(ModelError):
        cauchy_schwarz(0.0, 1.0, 1.0)


def test_cauchy_schwarz_classical_bound():
    # thermal light saturates R = 1 when g_si equals the autocorrelations
    r, _ = cauchy_schwarz(2.0, 2.0, 2.0)
    assert r == pytest.approx(1.0, rel=1e-12)


# --- rate budget and power model -----------------------------------------


def test_rate_budget_frozen():
    budget = rate_budget(
        34.0, 0.71, 0.62, 0.35, 0.10, 0.555, 0.74, 2836666.6666666665, 400e-9
    )
    assert budget.created_per_s_mw == pytest.approx(2206.789121827741, rel=EXACT)
    assert budget.spectral_brightness_per_s_mw_mhz == pytest.approx(
        777.9515118076644, rel=EXACT
    )
    assert budget.creation_prob_per_mw == pytest.approx(0.0021492954680572105, rel=EXACT)


def test_rate_budget_scales_linearly():
    one = rate_budget(17.0, 0.71, 0.62, 0.35, 0.10, 0.555, 0.74, 2.84e6, 400e-9)
    two = rate_budget(34.0, 0.71, 0.62, 0.35, 0.10, 0.555, 0.74, 2.84e6, 400e-9)
    assert two.created_per_s_mw == 2.0 * one.created_per_s_mw
    assert two.spectral_brightness_per_s_mw_mhz == 2.0 * one.spectral_brightness_per_s_mw_mhz
    assert two.creation_prob_per_mw == 2.0 * one.creation_prob_per_mw


def test_rate_budget_validation():
    with pytest.raises(ModelError):
        rate_budget(34.0, 0.0, 0.62, 0.35, 0.10, 0.555, 0.74, 2.84e6, 400e-9)
    with pytest.raises(ModelError):
        rate_budget(34.0, 0.71, 0.62, 0.35, 0.10, 0.555, 0.74, -1.0, 400e-9)


def test_g2_power_model_noiseless_closed_form():
    """With zero darks and unit scales the value is exactly 1 + 1/(pP)."""
    for p, pump in ((2.71e-3, 0.125), (2.71e-3, 1.0), (1e-4, 5.0)):
        value = g2_power_model(p, pump, 0.05, 0.01)
        assert math.isclose(value, 1.0 + 1.0 / (p * pump), rel_tol=1e-12)


def test_g2_power_model_darks_and_scales_lower_the_peak():
    base = g2_power_model(2.71e-3, 1.0, 0.19, 0.026)
    with_darks = g2_power_model(2.71e-3, 1.0, 0.19, 0.026, 1e-5, 1e-5)
    diluted = g2_power_model(2.71e-3, 1.0, 0.19, 0.026, singles_scale_s=4.1)
    assert with_darks < base
    assert diluted < base
    # window factor scales the excess, not the floor
    windowed = g2_power_model(2.71e-3, 1.0, 0.19, 0.026, window_factor=0.27)
    assert windowed - 1.0 == pytest.approx(0.27 * (base - 1.0), rel=1e-12)


def test_g2_power_model_validation():
    with pytest.raises(ModelError):
        g2_power_model(2.71e-3, -1.0, 0.1, 0.1)
    with pytest.raises(ModelError):
        g2_power_model(0.0, 1.0, 0.1, 0.1)  # no singles at all


# --- cavity solver --------------------------------------------------------


def test_cavity_solve_frozen():
    sol = cavity_solve(114.0, 0.9999, 0.970, sigma_r_oc=0.007)
    assert sol.rho == pytest.approx(0.9463773336215293, rel=EXACT)
    assert sol.internal_loss == pytest.approx(0.024060511738431933, rel=EXACT)
    assert sol.sigma_internal_loss == pytest.approx(0.007043229082284053, rel=EXACT)
    assert sol.escape_efficiency == pytest.approx(0.5549337036458876, rel=EXACT)
    assert sol.sigma_escape_efficiency == pytest.approx(0.1300510536182193, rel=EXACT)


def test_cavity_solve_propagates_the_finesse_error():
    sol = cavity_solve(114.0, 0.9999, 0.970, sigma_finesse=2.0)
    assert sol.sigma_internal_loss == pytest.approx(0.0009438613212413571, rel=EXACT)
    assert sol.sigma_escape_efficiency == pytest.approx(0.009685963060330038, rel=EXACT)
    # finesse - sigma_finesse <= 0 and a NaN finesse have no solution
    with pytest.raises(ModelError):
        cavity_solve(50.0, 0.9999, 0.970, sigma_finesse=60.0)
    with pytest.raises(ModelError):
        cavity_solve(math.nan, 0.9999, 0.970)


def test_cavity_solve_roundtrip():
    """Forward-evaluating the finesse formula on the solved rho reproduces
    the input finesse."""
    for finesse in (0.001, 40.0, 114.0, 200.0):
        sol = cavity_solve(finesse, 0.9999, 0.970)
        forward = math.pi * sol.rho**0.25 / (1.0 - math.sqrt(sol.rho))
        assert forward == pytest.approx(finesse, rel=EXACT)


def test_escape_from_losses():
    assert escape_from_losses(0.970, 0.0) == 1.0
    assert escape_from_losses(0.970, 0.024) == pytest.approx(0.03 / 0.054, rel=1e-12)
    with pytest.raises(ModelError):
        escape_from_losses(1.0, 0.01)
    with pytest.raises(ModelError):
        escape_from_losses(0.97, -0.1)


def test_cavity_solve_rejects_inconsistent_inputs():
    # a finesse too high for the given mirrors implies negative internal loss
    with pytest.raises(ModelError):
        cavity_solve(250.0, 0.9999, 0.970)
    with pytest.raises(ModelError):  # 4 F^2 overflows a double, yet rho is near 1
        cavity_solve(1e200, 0.9999, 0.970)
    with pytest.raises(ModelError):
        cavity_solve(math.inf, 0.9999, 0.970)
    with pytest.raises(ModelError):
        cavity_solve(-5.0, 0.9999, 0.970)
    with pytest.raises(ModelError):
        cavity_solve(114.0, 0.9999, 1.5)


# --- detector spec --------------------------------------------------------


def test_detector_spec_validation():
    spec = DetectorSpec(0.62, 30.0)
    assert spec.dead_time_s == 0.0
    with pytest.raises(ModelError):
        DetectorSpec(1.2)
    with pytest.raises(ModelError):
        DetectorSpec(0.5, -1.0)
    with pytest.raises(ModelError):
        DetectorSpec(0.5, 0.0, -1e-9)


def test_model_error_is_value_error():
    assert issubclass(ModelError, ValueError)
