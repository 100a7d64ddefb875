"""Closed-form models for the pair source and its correlation measurements.

All functions are pure and use SI units (Hz, seconds) unless a name says
otherwise.  Uncertainties, where supported, are propagated to first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LN2 = math.log(2.0)


class ModelError(ValueError):
    """Inconsistent or out-of-domain model inputs; ``fields`` names the
    parameters at fault."""

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon detector: quantum efficiency, dark rate, dead time."""

    efficiency: float
    dark_rate_hz: float = 0.0
    dead_time_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ModelError(f"efficiency must lie in [0, 1], got {self.efficiency}", "efficiency")
        if self.dark_rate_hz < 0:
            raise ModelError("dark rate must be non-negative", "dark_rate_hz")
        if self.dead_time_s < 0:
            raise ModelError("dead time must be non-negative", "dead_time_s")


# ---------------------------------------------------------------------------
# biphoton wavepacket geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiphotonSpec:
    """Bandwidth implied by the two linewidths."""

    signal_linewidth_hz: float
    idler_linewidth_hz: float
    bandwidth_hz: float


def biphoton_from_linewidths(dnu_s_hz: float, dnu_i_hz: float) -> BiphotonSpec:
    """Biphoton bandwidth of a two-sided exponential wavepacket with the
    given Lorentzian linewidths.

    The correlation time is the full width at half maximum of the
    cross-correlation peak, ln2/(2 pi dnu_s) + ln2/(2 pi dnu_i); the bandwidth
    is the Lorentzian width with that coherence time, ln2/(pi tau_c).
    """
    if dnu_s_hz <= 0 or dnu_i_hz <= 0:
        raise ModelError("linewidths must be positive")
    tau_c = LN2 / (2.0 * math.pi) * (1.0 / dnu_s_hz + 1.0 / dnu_i_hz)
    return BiphotonSpec(dnu_s_hz, dnu_i_hz, LN2 / (math.pi * tau_c))


def lorentzian_autocorrelation(dnu_hz: float, tau_s: float) -> float:
    """Autocorrelation of a single-sided exponential wavepacket of Lorentzian
    linewidth ``dnu_hz``: exp(-2 pi dnu |tau|) / (4 pi dnu).

    This is the closed form of integral f(t) f(t + tau) dt with
    f(t) = exp(-2 pi dnu t) for t >= 0; it is symmetric in tau.
    """
    if dnu_hz <= 0:
        raise ModelError("linewidth must be positive")
    return math.exp(-2.0 * math.pi * dnu_hz * abs(tau_s)) / (4.0 * math.pi * dnu_hz)


def window_correction(tau_c_s: float, dtau_s: float) -> float:
    """Ratio (g(window) - 1)/(g(0) - 1) when a correlation peak of exponential
    decay time ``tau_c_s`` is averaged over an integration window ``dtau_s``:
    (tau_c/dtau) * (1 - exp(-dtau/tau_c)).  Tends to 1 for vanishing windows.
    """
    if tau_c_s <= 0:
        raise ModelError("correlation time must be positive")
    if dtau_s < 0:
        raise ModelError("window must be non-negative")
    if dtau_s == 0.0:
        return 1.0
    x = dtau_s / tau_c_s
    return -math.expm1(-x) / x


def two_sided_capture(dnu_s_hz: float, dnu_i_hz: float, dtau_s: float) -> float:
    """Fraction of a two-sided exponential coincidence peak captured by a
    window of width ``dtau_s`` centered on the peak."""
    tau_s = 1.0 / (2.0 * math.pi * dnu_s_hz)
    tau_i = 1.0 / (2.0 * math.pi * dnu_i_hz)
    w = 0.5 * dtau_s
    mass = -(tau_s * math.expm1(-w / tau_s) + tau_i * math.expm1(-w / tau_i))
    return mass / (tau_s + tau_i)


# ---------------------------------------------------------------------------
# bunching and heralding relations
# ---------------------------------------------------------------------------


def multimode_bunching(n_modes: float) -> float:
    """Zero-delay autocorrelation of thermal light in ``n_modes`` equally
    weighted modes: 1 + 1/N."""
    if n_modes < 1:
        raise ModelError(f"mode number must be >= 1, got {n_modes}")
    return 1.0 + 1.0 / n_modes


def escape_from_heralding(
    eta_h: float, eta_t: float, uncorrelated_fraction: float = 0.0
) -> float:
    """Escape efficiency inferred from a measured heralding efficiency and the
    partner arm transmission, optionally discounting the fraction of heralds
    that carry no partner: eta_esc = eta_H / (eta_T * (1 - f))."""
    if not 0 <= eta_h <= 1:
        raise ModelError(f"heralding efficiency must lie in [0, 1], got {eta_h}", "eta_h")
    if not 0 < eta_t <= 1:
        raise ModelError("arm transmission must lie in (0, 1]", "eta_t")
    if not 0 <= uncorrelated_fraction < 1:
        raise ModelError("uncorrelated fraction must lie in [0, 1)", "uncorrelated_fraction")
    correlated = eta_t * (1.0 - uncorrelated_fraction)
    if eta_h > correlated:
        raise ModelError(
            f"heralding efficiency {eta_h} exceeds the arm transmission of the correlated "
            f"heralds, {correlated:g}, so the escape efficiency would exceed 1",
            "eta_h", "eta_t", "uncorrelated_fraction",
        )
    return eta_h / correlated


def conditioned_from_unconditioned(g_ss: float, g_ii: float, g_si: float) -> float:
    """Heralded autocorrelation predicted from the unconditioned ones:
    g2 = g_ss * g_ii / g_si."""
    if g_si <= 0:
        raise ModelError("cross-correlation must be positive")
    return g_ss * g_ii / g_si


def cauchy_schwarz(
    g_si: float,
    g_ss: float,
    g_ii: float,
    sigma_si: float = 0.0,
    sigma_ss: float = 0.0,
    sigma_ii: float = 0.0,
) -> tuple[float, float]:
    """Cauchy-Schwarz parameter R = g_si^2 / (g_ss * g_ii) with first-order
    uncertainty propagation.  R > 1 is impossible for classical fields."""
    if min(g_si, g_ss, g_ii) <= 0:
        raise ModelError("correlation values must be positive")
    r = g_si * g_si / (g_ss * g_ii)
    rel = math.sqrt(
        (2.0 * sigma_si / g_si) ** 2 + (sigma_ss / g_ss) ** 2 + (sigma_ii / g_ii) ** 2
    )
    return r, r * rel


# ---------------------------------------------------------------------------
# rate budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateBudget:
    """Created-pair rate and derived quantities inferred from a detected
    coincidence slope and the loss chain."""

    created_per_s_mw: float
    spectral_brightness_per_s_mw_mhz: float
    creation_prob_per_mw: float
    window_s: float


def rate_budget(
    detected_per_s_mw: float,
    eta_t_s: float,
    eta_det_s: float,
    eta_t_i: float,
    eta_det_i: float,
    eta_esc_s: float,
    eta_esc_i: float,
    bandwidth_hz: float,
    window_s: float,
) -> RateBudget:
    """Work the loss chain backwards from a detected coincidence slope.

    created = detected / (eta_T_s eta_det_s eta_T_i eta_det_i) is the pair
    rate behind the cavity output mirror; dividing further by the escape
    efficiencies and multiplying by the coincidence window gives the creation
    probability per window inside the cavity.
    """
    for name, eta in (
        ("eta_t_s", eta_t_s),
        ("eta_det_s", eta_det_s),
        ("eta_t_i", eta_t_i),
        ("eta_det_i", eta_det_i),
        ("eta_esc_s", eta_esc_s),
        ("eta_esc_i", eta_esc_i),
    ):
        if not 0 < eta <= 1:
            raise ModelError(f"{name} must lie in (0, 1], got {eta}")
    if detected_per_s_mw < 0 or bandwidth_hz <= 0 or window_s <= 0:
        raise ModelError("rates, bandwidth and window must be positive")
    created = detected_per_s_mw / (eta_t_s * eta_det_s * eta_t_i * eta_det_i)
    brightness = created / (bandwidth_hz / 1e6)
    p = created / (eta_esc_s * eta_esc_i) * window_s
    return RateBudget(created, brightness, p, window_s)


def g2_power_model(
    creation_prob_per_mw: float,
    pump_mw: float,
    eta_s: float,
    eta_i: float,
    dark_prob_s: float = 0.0,
    dark_prob_i: float = 0.0,
    window_factor: float = 1.0,
    *,
    singles_scale_s: float = 1.0,
    singles_scale_i: float = 1.0,
) -> float:
    """Cross-correlation vs pump power for a probabilistic pair source with
    detector noise.

    Per coincidence window: q_si = p P eta_s eta_i, q_s = p P eta_s * scale_s
    + d_s, q_i likewise, and g2 = 1 + q_si / (q_s q_i), scaled onto a finite
    window by ``window_factor`` (1.0 means the zero-delay value; pass e.g.
    :func:`window_correction` output).

    ``singles_scale_s/i`` let the accidental terms include singles that do not
    come from the heralded mode (side modes of a mode cluster). With zero darks
    and unit scales the peak reduces to 1 + 1/(pP).
    """
    if pump_mw < 0 or creation_prob_per_mw < 0:
        raise ModelError("pump power and creation probability must be non-negative")
    q_pair = creation_prob_per_mw * pump_mw
    q_si = q_pair * eta_s * eta_i
    q_s = q_pair * eta_s * singles_scale_s + dark_prob_s
    q_i = q_pair * eta_i * singles_scale_i + dark_prob_i
    if q_s <= 0 or q_i <= 0:
        raise ModelError("singles probabilities are zero; no accidental floor exists")
    return 1.0 + (q_si / (q_s * q_i)) * window_factor


# ---------------------------------------------------------------------------
# cavity losses and escape efficiency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CavitySolution:
    """Round-trip reflectivity product, internal loss and escape efficiency
    solved from a measured finesse."""

    finesse: float
    rho: float
    internal_loss: float
    escape_efficiency: float
    sigma_internal_loss: float = 0.0
    sigma_escape_efficiency: float = 0.0


def escape_from_losses(r_oc: float, internal_loss: float) -> float:
    """Escape efficiency of a cavity photon through the output coupler:
    (1 - R_oc) / (1 - R_oc + L_int)."""
    if not 0 < r_oc < 1:
        raise ModelError("output coupler reflectivity must lie in (0, 1)", "r_oc")
    if internal_loss < 0:
        raise ModelError("internal loss must be non-negative", "internal_loss")
    return (1.0 - r_oc) / (1.0 - r_oc + internal_loss)


def cavity_solve(
    finesse: float,
    r_hr: float,
    r_oc: float,
    sigma_finesse: float = 0.0,
    sigma_r_oc: float = 0.0,
    n_hr: int = 3,
) -> CavitySolution:
    """Solve the finesse equation for the round-trip product rho, split off
    the known mirror reflectivities to get the internal loss, and convert to
    an escape efficiency.

    The cavity has ``n_hr`` high reflectors of reflectivity ``r_hr`` plus one
    output coupler ``r_oc``; rho = r_hr^n_hr * r_oc * (1 - L_int).  Input
    uncertainties are propagated by central differences, and an error raised
    at a shifted input also names that input's sigma.
    """
    if not 0 < r_hr <= 1:
        raise ModelError(f"high reflector reflectivity must lie in (0, 1], got {r_hr}", "r_hr")
    if not 0 < r_oc < 1:
        raise ModelError(f"output coupler reflectivity must lie in (0, 1), got {r_oc}", "r_oc")
    if n_hr < 1:
        raise ModelError(f"the cavity needs at least one high reflector, got {n_hr}", "n_hr")

    def solve(f: float, roc: float) -> tuple[float, float, float]:
        if not 0 < f < math.inf:
            raise ModelError(f"finesse must be positive and finite, got {f}", "finesse")
        # F = pi x / (1 - x^2) with x = rho^(1/4), so x is the positive root of
        # F x^2 + pi x - F = 0, here in a form free of cancellation and overflow
        rho = (2.0 * f / (math.pi + math.hypot(math.pi, 2.0 * f))) ** 4
        mirror = r_hr**n_hr * roc
        if rho >= mirror:
            raise ModelError(
                f"finesse {f} implies rho={rho:.6f} >= mirror product {mirror:.6f}; "
                "internal loss would be negative",
                "finesse", "r_hr", "r_oc", "n_hr",
            )
        l_int = 1.0 - rho / mirror
        return rho, l_int, escape_from_losses(roc, l_int)

    rho, l_int, eta = solve(finesse, r_oc)
    var_l = 0.0
    var_e = 0.0
    for name, d_f, d_roc in (("sigma_finesse", sigma_finesse, 0), ("sigma_r_oc", 0, sigma_r_oc)):
        if min(d_f, d_roc) < 0:
            raise ModelError(f"{name} must be non-negative, got {d_f + d_roc}", name)
        if d_f > 0 or d_roc > 0:
            try:
                _, l_hi, e_hi = solve(finesse + d_f, r_oc + d_roc)
                _, l_lo, e_lo = solve(finesse - d_f, r_oc - d_roc)
            except ModelError as exc:
                raise ModelError(str(exc), *exc.fields, name) from None
            var_l += (0.5 * (l_hi - l_lo)) ** 2
            var_e += (0.5 * (e_hi - e_lo)) ** 2
    return CavitySolution(finesse, rho, l_int, eta, math.sqrt(var_l), math.sqrt(var_e))
