"""Command-line front end.

Each subcommand simulates an acquisition (or loads a tag file), runs the
requested analysis and writes CSV artifacts plus ``key = value`` summary
lines. Outputs contain no timestamps, so a given (config, seed) pair always
produces byte-identical files.

Each measurement arrangement is analyzed by one ``(cfg, stream)`` function
that every subcommand using it calls; :func:`_run` does the rest.

Exit codes: 0 on success, 2 for configuration problems, 3 for analysis
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .config import (
    PRESET_NAMES,
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_text,
    load_config,
    preset_config,
)
from .correlator import (
    AnalysisError,
    CoincidenceMetrics,
    CorrelationHistogram,
    FaselHistogram,
    G2Result,
    HeraldedG2,
    WindowSweepPoint,
    coincidence_metrics,
    cross_correlation_histogram,
    heralded_autocorrelation,
    normalized_g2,
    window_sweep,
)
from .fitting import FitResult, fit_double_exponential, fit_symmetric_exponential
from .models import (
    ModelError,
    biphoton_from_linewidths,
    cauchy_schwarz,
    cavity_solve,
    conditioned_from_unconditioned,
    escape_from_heralding,
    g2_power_model,
    rate_budget,
    two_sided_capture,
)
from .simulator import simulate_source
from .tagstream import FormatError, TagStream, TagStreamError, read_tags, write_tags

__all__ = ["main"]

Lines = list[tuple[str, object]]
# save(name, write) runs write(path) for an artifact in the out directory and
# returns the artifact's final path
Save = Callable[[str, Callable[[str], object]], str]


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.8g}"
    return str(value)


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


# the mode a plain open() would give; mkstemp creates files private to the user
_FILE_MODE = 0o666 & ~_umask()


def _write_atomic(path: str, write: Callable[[str], object]) -> None:
    """Run ``write(tmp)`` on a unique temporary file beside ``path``, then move
    it into place. On any failure the temporary file is removed and ``path``
    is left as it was."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        write(tmp)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _text(text: str) -> Callable[[str], object]:
    """A writer that puts ``text`` in the file it is given."""
    return lambda path: Path(path).write_text(text, encoding="utf-8", newline="")


def _csv(columns: str, rows: list[tuple]) -> Callable[[str], object]:
    """A writer for the header line ``columns`` and comma-separated ``rows``."""
    return _text("".join([columns + "\n"] + [",".join(map(_fmt, row)) + "\n" for row in rows]))


def write_histogram_csv(hist: CorrelationHistogram, path: str) -> None:
    """Write ``delay_ns,counts,normalized`` rows to ``path``, one per bin."""
    rows = zip(hist.bin_centers_ps.tolist(), hist.counts.tolist(), hist.normalized.tolist())
    lines = [f"{center / 1000:.6g},{count},{norm:.8g}\n" for center, count, norm in rows]
    _text("".join(["delay_ns,counts,normalized\n", *lines]))(path)


def write_fasel_csv(fasel: FaselHistogram, path: str) -> None:
    """Write ``n,counts`` rows to ``path``, one per herald-separation order."""
    _csv("n,counts", [(int(n), int(count)) for n, count in zip(fasel.orders, fasel.counts)])(path)


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else preset_config(args.preset)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


# -- one function per measurement arrangement -------------------------------------


class Peak(NamedTuple):
    """A correlation peak: histogram, fit, windowed g2 and zero-delay g2."""

    hist: CorrelationHistogram
    fit: FitResult
    g2: G2Result
    zero: float
    zero_err: float


def xcorr(cfg: ExperimentConfig, stream: TagStream) -> Peak:
    """Herald-signal cross-correlation: histogram, two-sided peak fit,
    windowed g2 and the fitted zero-delay value."""
    hist = cross_correlation_histogram(
        stream, cfg.herald_channel, cfg.signal_channel, cfg.bin_ps, cfg.tau_range_ps,
        workers=cfg.workers,
    )
    fit = fit_double_exponential(hist)
    center = int(round(fit.param("tau0_s") * 1e12)) if fit.converged else None
    g2 = normalized_g2(hist, cfg.window_ps, center_ps=center, floor_region_ps=cfg.floor_region_ps)
    return Peak(hist, fit, g2, fit.g2_zero(), fit.g2_zero_err())


def autocorr(cfg: ExperimentConfig, stream: TagStream) -> Peak:
    """Signal-partner autocorrelation across the splitter: histogram,
    symmetric peak fit, windowed g2 and the fitted zero-delay value."""
    hist = cross_correlation_histogram(
        stream, cfg.signal_channel, cfg.partner_channel, cfg.bin_ps, cfg.tau_range_ps,
        workers=cfg.workers,
    )
    fit = fit_symmetric_exponential(hist)
    center = int(round(fit.param("tau0_s") * 1e12)) if fit.converged else 0
    g2 = normalized_g2(hist, cfg.window_ps, center_ps=center, floor_region_ps=cfg.floor_region_ps)
    return Peak(hist, fit, g2, fit.g2_zero(), fit.g2_zero_err())


def heralded(cfg: ExperimentConfig, stream: TagStream) -> HeraldedG2:
    """Autocorrelation of the split signal arm, conditioned on heralds."""
    return heralded_autocorrelation(
        stream, cfg.herald_channel, cfg.signal_channel, cfg.partner_channel, cfg.window_ps,
        n_max=cfg.n_max, workers=cfg.workers,
    )


def metrics(cfg: ExperimentConfig, stream: TagStream) -> CoincidenceMetrics:
    """Singles, coincidences and heralding efficiency in the window."""
    return coincidence_metrics(
        stream, cfg.herald_channel, cfg.signal_channel, cfg.window_ps,
        eta_det_s=cfg.detector_a_efficiency, workers=cfg.workers,
    )


def windows(cfg: ExperimentConfig, stream: TagStream, widths_ps) -> list[WindowSweepPoint]:
    """Coincidences, heralding efficiency and g2 in zero-delay windows of each width."""
    return window_sweep(
        stream, cfg.herald_channel, cfg.signal_channel, widths_ps, cfg.detector_a_efficiency,
        cfg.floor_region_ps, workers=cfg.workers,
    )


# -- subcommands: each returns its summary lines after the provenance -----------


def cmd_simulate(cfg: ExperimentConfig, stream: TagStream, save: Save) -> Lines:
    """generate a tag stream and write it to a binary tag file"""
    path = save("tags.bin", partial(write_tags, stream))
    lines: Lines = [("tags", len(stream)), ("tag_file", path)]
    for channel, label in sorted(stream.channel_labels.items()):
        count = stream.count(channel)
        lines += [(f"count_{label}", count), (f"rate_{label}_hz", count / cfg.duration_s)]
    return lines


def _g2_lines(peak: Peak, window_key: str, zero_key: str) -> Lines:
    return [
        (window_key, peak.g2.value),
        (window_key + "_err", peak.g2.uncertainty),
        (zero_key, peak.zero),
        (zero_key + "_err", peak.zero_err),
    ]


def _peak_lines(cfg: ExperimentConfig, stream: TagStream, peak: Peak, path: str) -> Lines:
    fit = peak.fit
    lines: Lines = [
        ("tags", len(stream)),
        ("histogram", path),
        ("fit_model", fit.model),
        ("fit_converged", fit.converged),
        ("fit_iterations", fit.iterations),
    ]
    for name in fit.names:
        lines += [("fit_" + name, fit.param(name)), ("fit_" + name + "_err", fit.error(name))]
    lines.append(("fit_fwhm_ns", fit.fwhm_s() * 1e9))
    return lines + [("window_ns", cfg.window_ns), *_g2_lines(peak, "g2", "g2_zero")]


def cmd_xcorr(cfg: ExperimentConfig, stream: TagStream, save: Save) -> Lines:
    """signal-idler cross-correlation histogram, peak fit and g2"""
    peak = xcorr(cfg, stream)
    path = save("cross_correlation.csv", partial(write_histogram_csv, peak.hist))
    return _peak_lines(cfg, stream, peak, path)


def cmd_autocorr(cfg: ExperimentConfig, stream: TagStream, save: Save) -> Lines:
    """splitter autocorrelation histogram, fit and windowed g2"""
    peak = autocorr(cfg, stream)
    path = save("auto_correlation.csv", partial(write_histogram_csv, peak.hist))
    return _peak_lines(cfg, stream, peak, path)


def cmd_heralded(cfg: ExperimentConfig, stream: TagStream, save: Save) -> Lines:
    """conditioned autocorrelation of the heralded arm"""
    result = heralded(cfg, stream)
    hist = result.histogram
    path = save("heralded_orders.csv", partial(write_fasel_csv, hist))
    return [
        ("heralds", hist.herald_count),
        ("window_ns", cfg.window_ns),
        ("orders", path),
        ("h0", result.h0),
        ("h_other_mean", result.h_other_mean),
        ("g2_iss", result.value),
        ("g2_iss_err", result.uncertainty),
    ]


def cmd_metrics(cfg: ExperimentConfig, stream: TagStream, save: Save) -> Lines:
    """coincidence counts, heralding efficiency and rate budget"""
    if cfg.pump_mw <= 0:
        raise ModelError("pump_mw must be positive to give a coincidence slope", "pump_mw")
    met = metrics(cfg, stream)
    slope = met.coincidence_rate_hz / cfg.pump_mw
    bandwidth = biphoton_from_linewidths(
        cfg.signal_linewidth_mhz * 1e6, cfg.idler_linewidth_mhz * 1e6
    ).bandwidth_hz
    budget = rate_budget(
        slope,
        cfg.transmission_s,
        cfg.detector_a_efficiency,
        cfg.transmission_i * cfg.idler_filter_transmission,
        cfg.detector_i_efficiency,
        cfg.budget_escape_s,
        cfg.budget_escape_i,
        bandwidth,
        cfg.window_ps * 1e-12,
    )
    return [
        ("window_ns", cfg.window_ns),
        ("herald_count", met.herald_count),
        ("signal_count", met.signal_count),
        ("herald_rate_hz", met.herald_rate_hz),
        ("signal_rate_hz", met.signal_rate_hz),
        ("coincidence_count", met.coincidence_count),
        ("coincidence_rate_hz", met.coincidence_rate_hz),
        ("accidental_rate_hz", met.accidental_rate_hz),
        ("heralding_efficiency", met.heralding_efficiency),
        ("heralding_efficiency_corrected", met.heralding_efficiency_corrected),
        ("coincidence_slope_hz_per_mw", slope),
        ("created_per_s_mw", budget.created_per_s_mw),
        ("spectral_brightness_per_s_mw_mhz", budget.spectral_brightness_per_s_mw_mhz),
        ("creation_prob_per_mw", budget.creation_prob_per_mw),
    ]


def _model_g2_si(cfg: ExperimentConfig, pump_mw: float) -> float:
    """Loss-chain prediction for the windowed cross-correlation, with the
    side modes diluting the singles but not the coincidence window."""
    weights = cfg.mode_weights
    window_s = cfg.window_ps * 1e-12
    eta_s = cfg.escape_s * cfg.transmission_s * cfg.detector_a_efficiency
    eta_i = (
        cfg.escape_i * cfg.transmission_i * cfg.idler_filter_transmission * cfg.detector_i_efficiency
    )
    scale_s = sum(weights) / weights[0]
    scale_i = (
        weights[0] + cfg.idler_filter_extinction * (sum(weights) - weights[0])
    ) / weights[0]
    return g2_power_model(
        cfg.creation_prob_per_mw,
        pump_mw,
        eta_s,
        eta_i,
        dark_prob_s=cfg.detector_a_dark_hz * window_s,
        dark_prob_i=cfg.detector_i_dark_hz * window_s,
        window_factor=two_sided_capture(
            cfg.signal_linewidth_mhz * 1e6, cfg.idler_linewidth_mhz * 1e6, window_s
        ),
        singles_scale_s=scale_s,
        singles_scale_i=scale_i,
    )


def cmd_sweep_power(cfg: ExperimentConfig, stream: None, save: Save) -> Lines:
    """repeat the correlation measurements across pump powers"""
    rows = []
    for index, pump in enumerate(cfg.powers_mw):
        seed = cfg.seed * 10007 + 2 * index
        # coincidence arrangement: the full signal arm on detector A; its count
        # and g2 come from the zero-delay window and the floor, without a fit
        stream_x = simulate_source(
            cfg.make_source(pump_mw=pump, splitter_ratio=1.0), cfg.point_duration_s, seed,
            workers=cfg.workers,
        )
        (x,) = windows(cfg, stream_x, [cfg.window_ps])
        # a stream holds every channel's times, so it is dropped once analysed
        del stream_x
        # heralded arrangement: signal arm split 50/50
        iss = heralded(cfg, simulate_source(
            cfg.make_source(pump_mw=pump, splitter_ratio=0.5), cfg.point_duration_s, seed + 1,
            workers=cfg.workers,
        ))
        rows.append((
            pump, x.coincidence_count, x.coincidence_rate_hz, x.heralding_efficiency,
            x.g2, x.g2_uncertainty, _model_g2_si(cfg, pump), iss.value, iss.uncertainty,
        ))
    columns = (
        "power_mw,coincidences,coincidence_rate_hz,eta_h,"
        "g2_si,g2_si_err,g2_si_model,g2_iss,g2_iss_err"
    )
    path = save("power_sweep.csv", _csv(columns, rows))
    return [("point_duration_s", cfg.point_duration_s), ("points", len(rows)), ("sweep", path)]


def cmd_sweep_window(cfg: ExperimentConfig, stream: TagStream, save: Save) -> Lines:
    """coincidence rate, efficiency and g2 versus window width"""
    points = windows(cfg, stream, cfg.windows_ps)
    rows = [
        (p.window_ps / 1000, p.coincidence_count, p.coincidence_rate_hz, p.heralding_efficiency,
         p.g2 / cfg.g2_divisor, p.g2_uncertainty / cfg.g2_divisor)
        for p in points
    ]
    columns = "window_ns,coincidences,coincidence_rate_hz,eta_h,g2_si,g2_si_err"
    path = save("window_sweep.csv", _csv(columns, rows))
    return [("points", len(points)), ("g2_divisor", cfg.g2_divisor), ("sweep", path)]


def cmd_cavity(cfg: ExperimentConfig, stream: None, save: Save) -> Lines:
    """escape efficiency from cavity losses and from heralding"""
    solution = cavity_solve(
        cfg.finesse, cfg.r_hr, cfg.r_oc,
        sigma_finesse=cfg.finesse_err, sigma_r_oc=cfg.r_oc_err, n_hr=cfg.n_hr,
    )
    # independent estimate from the measured heralding efficiency; the
    # uncorrelated-background fraction bounds it from above
    herald_low = escape_from_heralding(cfg.heralding_efficiency, cfg.heralding_transmission, 0.0)
    herald_high = escape_from_heralding(
        cfg.heralding_efficiency, cfg.heralding_transmission, cfg.uncorrelated_fraction
    )
    return [
        ("finesse", solution.finesse),
        ("rho", solution.rho),
        ("internal_loss", solution.internal_loss),
        ("internal_loss_err", solution.sigma_internal_loss),
        ("escape_from_losses", solution.escape_efficiency),
        ("escape_from_losses_err", solution.sigma_escape_efficiency),
        ("escape_from_heralding_low", herald_low),
        ("escape_from_heralding_high", herald_high),
    ]


def cmd_report(cfg: ExperimentConfig, stream: None, save: Save) -> Lines:
    """full summary across all measurement arrangements"""
    # idler autocorrelation: the user's config with the arms swapped, which
    # the preset's pump may push past a check; built before anything runs
    try:
        cfg_ii = replace(cfg, **PRESETS["idler-autocorr"], seed=cfg.seed + 2)
    except ConfigError as exc:
        msg = f"report's idler-autocorr arrangement, with that preset's [source] values: {exc}"
        raise ConfigError(msg, exc.keys) from None

    # cross-correlation acquisition (full signal arm on detector A)
    simulate = partial(simulate_source, workers=cfg.workers)
    si = xcorr(cfg, simulate(cfg.make_source(splitter_ratio=1.0), cfg.duration_s, cfg.seed))

    # signal autocorrelation + heralded acquisition (signal arm split 50/50)
    stream_s = simulate(cfg.make_source(splitter_ratio=0.5), cfg.duration_s, cfg.seed + 1)
    ss = autocorr(cfg, stream_s)
    iss = heralded(cfg, stream_s)
    # a stream holds every channel's times, so it is dropped once analysed
    del stream_s

    stream_i = simulate(cfg_ii.make_source(), cfg_ii.duration_s, cfg_ii.seed)
    ii = autocorr(cfg_ii, stream_i)

    r_window = cauchy_schwarz(
        si.g2.value, ss.g2.value, ii.g2.value,
        si.g2.uncertainty, ss.g2.uncertainty, ii.g2.uncertainty,
    )
    r_zero = cauchy_schwarz(si.zero, ss.zero, ii.zero, si.zero_err, ss.zero_err, ii.zero_err)
    g2_iss_zero_model = conditioned_from_unconditioned(ss.zero, ii.zero, si.zero)
    # written only once every estimate stands, so a failed report leaves no files
    save("cross_correlation.csv", partial(write_histogram_csv, si.hist))
    save("auto_correlation_signal.csv", partial(write_histogram_csv, ss.hist))
    save("heralded_orders.csv", partial(write_fasel_csv, iss.histogram))
    save("auto_correlation_idler.csv", partial(write_histogram_csv, ii.hist))
    return [
        ("duration_s", cfg.duration_s),
        ("window_ns", cfg.window_ns),
        *_g2_lines(si, "g2_si_window", "g2_si_zero"),
        *_g2_lines(ss, "g2_ss_window", "g2_ss_zero"),
        *_g2_lines(ii, "g2_ii_window", "g2_ii_zero"),
        ("r_window", r_window[0]),
        ("r_window_err", r_window[1]),
        ("r_zero", r_zero[0]),
        ("r_zero_err", r_zero[1]),
        ("g2_iss_window", iss.value),
        ("g2_iss_window_err", iss.uncertainty),
        ("g2_iss_zero_model", g2_iss_zero_model),
    ]


# -- the command skeleton ---------------------------------------------------------


class _Command(NamedTuple):
    """A subcommand; the docstring of ``run`` is its help text."""

    run: Callable[[ExperimentConfig, TagStream | None, Save], Lines]
    stream: bool = True  # run gets a simulated stream, or the --tags file if accepted
    tags: bool = True  # accepts --tags
    summary: str | None = None  # file that also gets the summary lines
    embeds_config: bool = False  # the summary ends with the full configuration


_COMMANDS = {
    "simulate": _Command(cmd_simulate, tags=False),
    "xcorr": _Command(cmd_xcorr, summary="xcorr_summary.txt"),
    "autocorr": _Command(cmd_autocorr, summary="autocorr_summary.txt"),
    "heralded": _Command(cmd_heralded, summary="heralded_summary.txt"),
    "metrics": _Command(cmd_metrics, summary="metrics.txt"),
    "sweep-power": _Command(cmd_sweep_power, stream=False),
    "sweep-window": _Command(cmd_sweep_window),
    "cavity": _Command(cmd_cavity, stream=False, summary="cavity.txt"),
    "report": _Command(cmd_report, stream=False, summary="summary.txt", embeds_config=True),
}


def _run(command: _Command, cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = args.out or cfg.out_dir
    os.makedirs(out, exist_ok=True)

    def save(name: str, write: Callable[[str], object]) -> str:
        path = os.path.join(out, name)
        _write_atomic(path, write)
        return path

    lines: Lines = [("config", args.config or args.preset), ("seed", cfg.seed)]
    stream = None
    if command.stream:
        if getattr(args, "tags", None):
            stream = read_tags(args.tags, cfg.workers)
            duration_s = stream.span_ps * 1e-12
        else:
            stream = simulate_source(cfg.make_source(), cfg.duration_s, cfg.seed, cfg.workers)
            duration_s = cfg.duration_s
        lines.append(("duration_s", duration_s))
    lines += command.run(cfg, stream, save)
    text = "\n".join(f"{key} = {_fmt(value)}" for key, value in lines) + "\n"
    if command.embeds_config:
        text += "\n# full configuration\n" + config_text(cfg)
    sys.stdout.write(text)
    if command.summary is not None:
        save(command.summary, _text(text))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="simulate and analyze a cavity-enhanced photon-pair source",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.run.__doc__)
        sub.add_argument("--config", help="config file (overrides --preset)")
        sub.add_argument(
            "--preset",
            choices=PRESET_NAMES,
            default="reference",
            help="built-in measurement arrangement (default: reference)",
        )
        sub.add_argument("--seed", type=int, help="override the config seed")
        sub.add_argument("--out", help="output directory (default: config out_dir)")
        if command.stream and command.tags:
            sub.add_argument("--tags", help="analyze an existing tag file instead of simulating")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(_COMMANDS[args.command], _resolve_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AnalysisError, ModelError, TagStreamError, FormatError, OSError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
