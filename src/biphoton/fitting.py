"""Poisson maximum-likelihood fits for correlation histograms.

Two peak models are provided: the two-sided exponential of a nondegenerate
pair source (independent falling and rising linewidths) and a symmetric
exponential for thermal bunching peaks.  The fits minimise the Poisson
deviance 2 sum [m - c + c ln(c/m)] of counts c against model m, which keeps
the accidental floor unbiased when bins hold a count or less (Baker &
Cousins, NIM 221, 437 (1984)).  The solver is iteratively reweighted least
squares: a damped Gauss-Newton iteration with analytic Jacobians and weights
1/m recomputed from each accepted model.  The bin containing the peak
position carries half weight because the model kink makes its Jacobian
unreliable there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlator import AnalysisError, CorrelationHistogram

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)

DOUBLE_EXPONENTIAL = "double-exponential"
SYMMETRIC_EXPONENTIAL = "symmetric-exponential"

_PARAM_NAMES = {
    DOUBLE_EXPONENTIAL: ("amplitude", "dnu_fall_hz", "dnu_rise_hz", "tau0_s", "floor"),
    SYMMETRIC_EXPONENTIAL: ("floor", "contrast", "tau_decay_s", "tau0_s"),
}

# both models: the peak position is parameter 3, and parameters 0-2 must stay positive
_TAU0_INDEX = 3
_POSITIVE = (0, 1, 2)
_MAX_ITER = 200
_FD_REL_STEP = 1e-6  # finite_difference_check's step, relative to each parameter


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates with first-order standard errors.

    ``residual_norm`` is the Poisson deviance of the returned parameters;
    ``converged`` also requires the peak inside the histogram and every
    standard error positive and finite.
    :meth:`g2_zero` and :meth:`g2_zero_err` give the zero-delay correlation
    and its error for both models; both are NaN when the fit did not
    converge.
    """

    model: str
    names: tuple[str, ...]
    values: np.ndarray
    errors: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int

    def param(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def error(self, name: str) -> float:
        return float(self.errors[self.names.index(name)])

    def fwhm_s(self) -> float:
        """Full width at half maximum of the fitted peak above its floor."""
        if self.model == DOUBLE_EXPONENTIAL:
            return LN2 / TWO_PI * (1.0 / self.param("dnu_fall_hz") + 1.0 / self.param("dnu_rise_hz"))
        return 2.0 * LN2 * self.param("tau_decay_s")

    def g2_zero(self) -> float:
        """Peak-to-floor ratio at zero delay (normalized g2 scale); NaN when
        the fit did not converge."""
        if not self.converged:
            return float("nan")
        if self.model == DOUBLE_EXPONENTIAL:
            floor = self.param("floor")
            if floor <= 0:
                raise AnalysisError("fitted floor is not positive")
            return 1.0 + self.param("amplitude") / floor
        return 1.0 + self.param("contrast")

    def g2_zero_err(self) -> float:
        """First-order standard error of :meth:`g2_zero`.  For the double
        exponential the relative amplitude and floor errors add in quadrature;
        their correlation is a few percent on a well-sampled floor and is
        neglected."""
        g2 = self.g2_zero()
        if math.isnan(g2):
            return g2
        if self.model == DOUBLE_EXPONENTIAL:
            rel_amp = self.error("amplitude") / self.param("amplitude")
            rel_floor = self.error("floor") / self.param("floor")
            return (g2 - 1.0) * math.hypot(rel_amp, rel_floor)
        return self.error("contrast")


# ---------------------------------------------------------------------------
# models with analytic Jacobians
# ---------------------------------------------------------------------------


def _double_exponential(params: np.ndarray, tau: np.ndarray):
    amp, dnu_fall, dnu_rise, tau0, floor = params
    d = tau - tau0
    falling = d >= 0
    # aggressive trial steps may overflow to inf; the solver rejects those
    with np.errstate(over="ignore"):
        e = np.where(falling, np.exp(-TWO_PI * dnu_fall * d), np.exp(TWO_PI * dnu_rise * d))
    f = amp * e + floor
    jac = np.empty((tau.size, 5))
    jac[:, 0] = e
    jac[:, 1] = np.where(falling, -amp * TWO_PI * d * e, 0.0)
    jac[:, 2] = np.where(falling, 0.0, amp * TWO_PI * d * e)
    jac[:, 3] = np.where(falling, amp * TWO_PI * dnu_fall * e, -amp * TWO_PI * dnu_rise * e)
    jac[:, 4] = 1.0
    return f, jac


def _symmetric_exponential(params: np.ndarray, tau: np.ndarray):
    floor, contrast, tau_d, tau0 = params
    d = tau - tau0
    with np.errstate(over="ignore"):
        e = np.exp(-np.abs(d) / tau_d)
    f = floor * (1.0 + contrast * e)
    jac = np.empty((tau.size, 4))
    jac[:, 0] = 1.0 + contrast * e
    jac[:, 1] = floor * e
    jac[:, 2] = floor * contrast * e * np.abs(d) / (tau_d * tau_d)
    jac[:, 3] = floor * contrast * e * np.sign(d) / tau_d
    return f, jac


_MODELS = {
    DOUBLE_EXPONENTIAL: _double_exponential,
    SYMMETRIC_EXPONENTIAL: _symmetric_exponential,
}


def finite_difference_check(model: str, params, tau_s) -> float:
    """Largest deviation between the analytic Jacobian and central
    differences, relative to the Jacobian scale.  The caller should keep the
    kink position out of ``tau_s``; the model is not differentiable there.
    """
    try:
        fn = _MODELS[model]
    except KeyError:
        raise AnalysisError(f"unknown model {model!r}") from None
    params = np.asarray(params, dtype=float)
    tau = np.asarray(tau_s, dtype=float)
    _, jac = fn(params, tau)
    fd = np.empty_like(jac)
    for k in range(params.size):
        step = _FD_REL_STEP * max(abs(params[k]), 1e-30)
        hi = params.copy()
        lo = params.copy()
        hi[k] += step
        lo[k] -= step
        fd[:, k] = (fn(hi, tau)[0] - fn(lo, tau)[0]) / (2.0 * step)
    scale = max(float(np.abs(jac).max()), 1.0)
    return float(np.abs(jac - fd).max() / scale)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def _deviance(counts: np.ndarray, model: np.ndarray, kink: np.ndarray) -> float:
    """Weighted Poisson deviance 2 sum k (m - c + c ln(c/m)); empty bins add 2 k m."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(counts > 0, counts * np.log(counts / model), 0.0)
    return 2.0 * float(np.dot(kink, model - counts + log_term))


def _solve(
    model: str,
    tau: np.ndarray,
    counts: np.ndarray,
    params: np.ndarray,
    bin_s: float,
) -> FitResult:
    fn = _MODELS[model]

    def kink_weights(p: np.ndarray) -> np.ndarray:
        return np.where(np.abs(tau - p[_TAU0_INDEX]) < 0.5 * bin_s, 0.5, 1.0)

    lam = 1e-3
    f, jac = fn(params, tau)
    kink = kink_weights(params)
    cost = _deviance(counts, f, kink)
    converged = False
    iteration = 0
    for iteration in range(1, _MAX_ITER + 1):
        # Gauss-Newton step for the deviance: least squares with weights k/m
        jtw = jac.T * (kink / f)
        hess = jtw @ jac
        grad = jtw @ (counts - f)
        diag = np.diag(hess).copy()
        diag[diag <= 0] = 1.0
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + step
            if any(trial[k] <= 0 for k in _POSITIVE):
                lam *= 10.0
                continue
            f_t, jac_t = fn(trial, tau)
            if not np.all(f_t > 0):
                lam *= 10.0
                continue
            kink_t = kink_weights(trial)
            cost_t = _deviance(counts, f_t, kink_t)
            if cost_t <= cost:
                rel = float(np.max(np.abs(step) / (np.abs(params) + 1e-300)))
                params, f, jac, kink, cost = trial, f_t, jac_t, kink_t, cost_t
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                if rel < 1e-8:
                    converged = True
                break
            lam *= 10.0
        if converged or not accepted:
            break
    hess = (jac.T * (kink / f)) @ jac
    try:
        cov = np.linalg.inv(hess)
        errors = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        errors = np.full(params.size, np.inf)
    inside = tau[0] - bin_s / 2 <= params[_TAU0_INDEX] <= tau[-1] + bin_s / 2
    converged = bool(converged and inside and np.all(np.isfinite(errors) & (errors > 0)))
    return FitResult(model, _PARAM_NAMES[model], params, errors, cost, converged, iteration)


def _not_started(model: str, init: np.ndarray) -> FitResult:
    """The result for data with no peak to fit: start values, not converged."""
    errors = np.full(init.size, np.inf)
    return FitResult(model, _PARAM_NAMES[model], init, errors, float("nan"), False, 0)


def _floor_estimate(counts: np.ndarray) -> float:
    """Mean of the outer quarters: the Poisson estimate of a flat floor."""
    quarter = max(counts.size // 4, 1)
    return float(np.mean(np.concatenate([counts[:quarter], counts[-quarter:]])))


def _smoothed(counts: np.ndarray) -> np.ndarray:
    """Boxcar-smoothed copy for locating a peak that may sit well below the
    single-bin noise level."""
    k = min(max(counts.size // 50, 1), 101)
    if k <= 1:
        return counts
    kernel = np.full(k, 1.0 / k)
    return np.convolve(counts, kernel, mode="same")


def _half_width(tau: np.ndarray, counts: np.ndarray, peak: int, floor: float, sign: int) -> float:
    """Distance from the peak to the half-maximum crossing on one side."""
    half = floor + 0.5 * (counts[peak] - floor)
    i = peak
    while 0 <= i + sign < counts.size and counts[i + sign] > half:
        i += sign
    j = min(max(i + sign, 0), counts.size - 1)
    return abs(tau[j] - tau[peak])


def fit_double_exponential(hist: CorrelationHistogram) -> FitResult:
    """Fit the two-sided exponential peak model to a delay histogram.

    The fall side (positive delays beyond the peak) and rise side carry
    independent rate parameters; both are reported as linewidths in Hz.
    """
    tau = hist.bin_centers_ps * 1e-12
    counts = hist.counts.astype(float)
    bin_s = hist.bin_width_ps * 1e-12
    floor = _floor_estimate(counts)
    peak = int(np.argmax(_smoothed(counts)))
    amp = counts[peak] - floor
    if amp <= 0 or counts.size < 8:
        init = np.array([max(amp, 1.0), 1e6, 1e6, tau[peak], max(floor, 0.0)])
        return _not_started(DOUBLE_EXPONENTIAL, init)
    w_fall = max(_half_width(tau, counts, peak, floor, +1), bin_s)
    w_rise = max(_half_width(tau, counts, peak, floor, -1), bin_s)
    init = np.array(
        [amp, LN2 / (TWO_PI * w_fall), LN2 / (TWO_PI * w_rise), tau[peak], max(floor, 1e-3)]
    )
    return _solve(DOUBLE_EXPONENTIAL, tau, counts, init, bin_s)


def fit_symmetric_exponential(hist: CorrelationHistogram) -> FitResult:
    """Fit a symmetric exponential bunching peak, floor * (1 + A e^(-|d|/tau)).

    The contrast A estimates g2(0) - 1 directly because the floor is the
    accidental level of the same histogram.
    """
    tau = hist.bin_centers_ps * 1e-12
    counts = hist.counts.astype(float)
    bin_s = hist.bin_width_ps * 1e-12
    floor = _floor_estimate(counts)
    smooth = _smoothed(counts)
    peak = int(np.argmax(smooth))
    contrast = smooth[peak] / floor - 1.0 if floor > 0 else 0.0
    if floor <= 0 or contrast <= 0 or counts.size < 8:
        init = np.array([max(floor, 1.0), 0.1, 1e-7, tau[peak]])
        return _not_started(SYMMETRIC_EXPONENTIAL, init)
    width = max(
        _half_width(tau, smooth, peak, floor, +1),
        _half_width(tau, smooth, peak, floor, -1),
        bin_s,
    )
    init = np.array([floor, contrast, width / LN2, tau[peak]])
    return _solve(SYMMETRIC_EXPONENTIAL, tau, counts, init, bin_s)
