"""The benchmark's workloads: configs, CLI command sequences and output checks.

Each workload is a closed loop with one caller: the next CLI command starts
when the previous one returns. Every sequence writes to its own out
directory. Why each workload was chosen is recorded in ``BENCHMARK.json``
and ``README.md``.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import tagfile

# Injected linewidths are recovered within this many fit standard errors plus
# a relative allowance for the bias of fitting bin-centre values of a peak
# whose falling side spans only about nine 5 ns bins.
FIT_SIGMAS = 5.0
FIT_BIAS = 0.01
# the reference preset's correlation range and coincidence window, in ps
HISTOGRAM_RANGE_PS = (-5_500_000, 5_500_000)
WINDOW_RANGE_PS = (-200_000, 200_000)


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``config(seed, smoke)`` gives the config file text; ``check(out, facts)``
    gives ``(label, ok)`` pairs for one sequence's out directory;
    ``corrupt(out)`` damages one checked value, for the self-test;
    ``warnings(out)`` names known defects the output shows, which are
    reported but not counted as failures; ``tag_file_s(smoke)`` is the span
    of the generated tag file the commands read, if any.
    """

    name: str
    commands: tuple[str, ...]
    config: Callable[[int, bool], str]
    check: Callable[[str, dict], list[tuple[str, bool]]]
    corrupt: Callable[[str], None]
    warnings: Callable[[str], list[str]] = lambda out: []
    tag_file_s: Callable[[bool], float] | None = None


def summary(path: str) -> dict[str, str]:
    """``key = value`` lines of a CLI summary file, up to the first blank line."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                break
            key, _, value = line.partition(" = ")
            values[key.strip()] = value.strip()
    return values


def rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rewrite(path: str, old: str, new: str) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if old not in text:
        raise ValueError(f"{old!r} not found in {path}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text.replace(old, new, 1))


# -- report-long ----------------------------------------------------------------


def _report_config(seed: int, smoke: bool) -> str:
    duration = 60 if smoke else 300
    return (
        f"[run]\npreset = reference\nduration_s = {duration}\nseed = {seed}\n"
        "[analysis]\nworkers = 2\n"
    )


def _report_check(out: str, facts: dict) -> list[tuple[str, bool]]:
    s = summary(os.path.join(out, "summary.txt"))
    g2_ss = float(s["g2_ss_window"])
    return [
        ("report g2_si_window > 2", float(s["g2_si_window"]) > 2),
        ("report r_window > 1", float(s["r_window"]) > 1),
        ("report 1 <= g2_ss_window <= 2", 1 <= g2_ss <= 2),
    ]


def _report_warnings(out: str) -> list[str]:
    # known defect: the idler autocorrelation fit returns its initial guess
    # (g2_ii_zero = 1.1, err = inf) after 0 iterations below about 1800 s
    s = summary(os.path.join(out, "summary.txt"))
    if math.isinf(float(s["g2_ii_zero_err"])):
        return ["report.idler_fit_not_converged"]
    return []


def _report_corrupt(out: str) -> None:
    path = os.path.join(out, "summary.txt")
    value = summary(path)["g2_si_window"]
    _rewrite(path, f"g2_si_window = {value}\n", "g2_si_window = 1.5\n")


# -- sweep-deadtime -------------------------------------------------------------


def _sweep_config(seed: int, smoke: bool) -> str:
    point = 5 if smoke else 60
    return (
        f"[run]\npreset = power-sweep\nseed = {seed}\n"
        "[source]\ndetector_a_dead_ns = 50\ndetector_b_dead_ns = 50\ndetector_i_dead_ns = 50\n"
        "[analysis]\nworkers = 2\n"
        f"[sweep]\npoint_duration_s = {point}\n"
    )


def _falls_with_pump(points: list[tuple[float, float, float]]) -> bool:
    """True when g2 falls with pump: the error-weighted slope of log g2 over
    log pump is below zero by more than 4 standard errors, and no step to the
    next pump rises by more than 4 standard errors."""
    for (_, g_lo, e_lo), (_, g_hi, e_hi) in zip(points, points[1:]):
        if g_hi - g_lo > 4 * math.hypot(e_lo, e_hi):
            return False
    x = [math.log(p) for p, _, _ in points]
    y = [math.log(g) for _, g, _ in points]
    w = [(g / e) ** 2 for _, g, e in points]
    sw = sum(w)
    mx = sum(wi * xi for wi, xi in zip(w, x)) / sw
    my = sum(wi * yi for wi, yi in zip(w, y)) / sw
    sxx = sum(wi * (xi - mx) ** 2 for wi, xi in zip(w, x))
    slope = sum(wi * (xi - mx) * (yi - my) for wi, xi, yi in zip(w, x, y)) / sxx
    return slope < -4 / math.sqrt(sxx)


def _sweep_check(out: str, facts: dict) -> list[tuple[str, bool]]:
    table = rows(os.path.join(out, "power_sweep.csv"))
    points = [(float(r["power_mw"]), float(r["g2_si"]), float(r["g2_si_err"])) for r in table]
    checks = [
        (
            f"sweep g2_si within 4 sigma of the model at {r['power_mw']} mW",
            abs(float(r["g2_si"]) - float(r["g2_si_model"])) <= 4 * float(r["g2_si_err"]),
        )
        for r in table
    ]
    checks.append(("sweep has six pump points", len(table) == 6))
    checks.append(("sweep g2_si falls with pump", len(table) > 1 and _falls_with_pump(points)))
    return checks


def _sweep_corrupt(out: str) -> None:
    path = os.path.join(out, "power_sweep.csv")
    row = rows(path)[-1]
    fake = float(row["g2_si_model"]) + 10 * float(row["g2_si_err"])
    _rewrite(path, f",{row['g2_si']},{row['g2_si_err']},", f",{fake:.8g},{row['g2_si_err']},")


# -- tagfile-dense --------------------------------------------------------------


def _dense_config(seed: int, smoke: bool) -> str:
    return f"[run]\npreset = reference\nseed = {seed}\n[analysis]\nworkers = 2\n"


def _recovered(s: dict[str, str], name: str, injected: float) -> bool:
    value = float(s["fit_" + name])
    err = float(s["fit_" + name + "_err"])
    return abs(value - injected) <= FIT_SIGMAS * err + FIT_BIAS * injected


def _dense_check(out: str, facts: dict) -> list[tuple[str, bool]]:
    expected = {(lo, hi): n for lo, hi, n in facts["pairs"]}
    x = summary(os.path.join(out, "xcorr_summary.txt"))
    m = summary(os.path.join(out, "metrics.txt"))
    hist_total = sum(int(r["counts"]) for r in rows(os.path.join(out, "cross_correlation.csv")))
    coincidences = [int(r["coincidences"]) for r in rows(os.path.join(out, "window_sweep.csv"))]
    return [
        ("dense fit converged", x["fit_converged"] == "true"),
        (
            "dense fit recovers the 3.7 MHz signal linewidth",
            _recovered(x, "dnu_fall_hz", tagfile.SIGNAL_LINEWIDTH_HZ),
        ),
        (
            "dense fit recovers the 2.3 MHz idler linewidth",
            _recovered(x, "dnu_rise_hz", tagfile.IDLER_LINEWIDTH_HZ),
        ),
        ("dense histogram total matches the input", hist_total == expected[HISTOGRAM_RANGE_PS]),
        (
            "dense coincidence_count matches the input",
            int(m["coincidence_count"]) == expected[WINDOW_RANGE_PS],
        ),
        (
            "dense window sweep coincidences do not decrease",
            len(coincidences) > 1 and all(a <= b for a, b in zip(coincidences, coincidences[1:])),
        ),
    ]


def _dense_corrupt(out: str) -> None:
    path = os.path.join(out, "metrics.txt")
    count = summary(path)["coincidence_count"]
    _rewrite(path, f"coincidence_count = {count}\n", f"coincidence_count = {int(count) + 1}\n")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="report-long",
            commands=("report",),
            config=_report_config,
            check=_report_check,
            corrupt=_report_corrupt,
            warnings=_report_warnings,
        ),
        Workload(
            name="sweep-deadtime",
            commands=("sweep-power",),
            config=_sweep_config,
            check=_sweep_check,
            corrupt=_sweep_corrupt,
        ),
        Workload(
            name="tagfile-dense",
            commands=("xcorr", "heralded", "metrics", "sweep-window"),
            config=_dense_config,
            check=_dense_check,
            corrupt=_dense_corrupt,
            tag_file_s=lambda smoke: 1.0 if smoke else 50.0,
        ),
    )
}
