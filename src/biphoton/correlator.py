"""Histogram and estimator engine for photon correlation analysis.

Everything operates on sorted :class:`~biphoton.tagstream.TagStream` data.
Histograms are multi-stop: every (start, stop) pair whose delay falls in the
requested range is counted, which is unbiased at high rates where classical
start-stop counting saturates.  One kernel counts every pair: a binary search
finds the first stop in each start's range, the end lies a few steps on from
it or is searched for the starts still short of it, and one count runs over the
bins between sorted edges.  Every stop search runs as tasks of one chunk of
starts (the package's one chunk size, 2^16) on the package's one task runner,
in which the calling thread takes tasks too, and searches only the stops its
chunk can reach.  The kernel expands at most about a chunk of pairs at a
time, and the heralded estimator counts its orders inside each task and sums
the counts, so any worker count gives bit-identical results.  Windows centred
at zero delay, and their accidental floor, are counted in exact picoseconds by
one checked count, one stop search per analysis; peak-centred g2 reads the
histogram it is given.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._tasks import CHUNK, in_order
from .tagstream import TagStream

_CHUNK_STARTS = CHUNK
_CHUNK_PAIRS = CHUNK  # pairs per kernel run, give or take one start's
# stop-range ends found by stepping before a search: in the dense tag-file
# benchmark 98.8 % of starts have at most 3 stops within +-5.5 us, and a cap of 4
# took 33 ms per 2 M starts against 41 ms at 3, 34 ms at 8 and 58 ms searching all
_STEPS = 4


class AnalysisError(ValueError):
    """An estimator cannot be computed from the given data."""


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationHistogram:
    """Binned delay histogram between two channels.

    Delays are stop time minus start time in picoseconds; bin ``i`` covers
    ``[tau_min + i*bin_width, tau_min + (i+1)*bin_width)``.
    """

    bin_width_ps: int
    tau_min_ps: int
    tau_max_ps: int
    counts: np.ndarray
    start_channel: int
    stop_channel: int
    n_starts: int
    n_stops: int
    duration_ps: int

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_bins(self) -> int:
        return (self.tau_max_ps - self.tau_min_ps) // self.bin_width_ps

    @property
    def bin_centers_ps(self) -> np.ndarray:
        return self.tau_min_ps + self.bin_width_ps * (np.arange(self.n_bins) + 0.5)

    @property
    def accidental_per_bin(self) -> float:
        """Expected pair count per bin for uncorrelated stationary streams."""
        if self.duration_ps <= 0:
            return 0.0
        return self.n_starts * self.n_stops * self.bin_width_ps / self.duration_ps

    @property
    def normalized(self) -> np.ndarray:
        """Counts divided by the stationary accidental estimate (a g2 scale)."""
        acc = self.accidental_per_bin
        if acc <= 0:
            return np.zeros(self.n_bins)
        return self.counts / acc


def _reach(stops: np.ndarray, part: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The stops that some start of the sorted chunk ``part`` pairs with at a
    delay in ``[lo, hi)``: a view, so each search covers only those."""
    return stops[np.searchsorted(stops, part[0] + lo) : np.searchsorted(stops, part[-1] + hi)]


def _ends(reach: np.ndarray, keys: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``np.searchsorted(reach, keys)`` for sorted ``keys`` whose answers are at
    least ``lo``: the keys short of their answer step forward from ``lo``, at
    most ``_STEPS`` times, and only those still short are searched."""
    hi = lo.copy()
    if not reach.size:
        return hi
    # a key whose index passes the last stop stays short, so it is searched
    todo = np.flatnonzero(reach.take(hi, mode="clip") < keys)
    for _ in range(_STEPS):
        if not todo.size:
            break
        at = hi[todo] + 1
        hi[todo] = at
        todo = todo[reach.take(at, mode="clip") < keys[todo]]
    hi[todo] = np.searchsorted(reach, keys[todo])
    return hi


def _histogram(starts: np.ndarray, stops: np.ndarray, edges, workers: int) -> np.ndarray:
    """Multi-stop counts of stop - start delays between consecutive sorted
    ``edges``, binned by division for a ``range`` and by search for an array.
    Start chunks run as tasks; each expands its pairs in runs of starts cut
    where its running pair count passes a multiple of ``_CHUNK_PAIRS``, so the
    pair arrays stay near that cap however wide the delay range, and adds each
    run's counts to the total at once."""
    total = np.zeros(len(edges) - 1, dtype=np.int64)
    lock = threading.Lock()

    def work(at: int) -> None:
        part = starts[at : at + _CHUNK_STARTS]
        reach = _reach(stops, part, edges[0], edges[-1])
        # index range [lo, hi) of the reach's stops in [start + edges[0], start + edges[-1])
        lo = np.searchsorted(reach, part + edges[0])
        hi = _ends(reach, part + edges[-1], lo)
        mult = hi - lo
        cum = np.cumsum(mult)
        cuts = np.searchsorted(cum, np.arange(_CHUNK_PAIRS, cum[-1], _CHUNK_PAIRS), "right")
        runs = np.unique([0, *cuts, part.size]).tolist()
        for a, b in zip(runs, runs[1:]):
            # the chunk's pair k is stop lo + k - (pairs before its start) = k + hi - cum
            first = cum[a] - mult[a]
            delays = reach[np.arange(first, cum[b - 1]) + np.repeat(hi[a:b] - cum[a:b], mult[a:b])]
            delays -= np.repeat(part[a:b], mult[a:b])
            if isinstance(edges, range):
                bins = (delays - edges.start) // edges.step
            else:
                bins = np.searchsorted(edges, delays, side="right") - 1
            if bins.size < total.size:
                # fewer pairs than bins: add them one by one, not a bins-long count
                with lock:
                    np.add.at(total, bins, 1)
            else:
                counts = np.bincount(bins, minlength=total.size)
                with lock:
                    np.add(total, counts, out=total)

    in_order(work, range(0, starts.size, _CHUNK_STARTS), workers)
    return total


def _window_offsets(window: int) -> tuple[int, int]:
    """Integer delay bounds [lo, hi) of the window centred at zero delay: its
    ``window`` delays, the odd one out of an odd width on the positive side."""
    if window <= 0:
        raise AnalysisError("window must be positive")
    return -(window // 2), window - window // 2


def _range_counts(
    stream: TagStream, herald_channel: int, signal_channel: int, bounds: list[tuple[int, int]],
    eta_det_s: float, workers: int,
) -> tuple[int, int, float, list[int]]:
    """Herald and signal counts, span in seconds and herald-signal pairs with
    delay in each ``[lo, hi)`` of ``bounds``, after the checks every zero-delay
    window analysis shares; the pairs come by prefix sums from one histogram
    whose bins lie between the distinct edges, not across the span."""
    if not 0.0 < eta_det_s <= 1.0:
        raise AnalysisError("signal detector efficiency must lie in (0, 1]")
    heralds = stream.channel_times(herald_channel)
    signals = stream.channel_times(signal_channel)
    if heralds.size == 0:
        raise AnalysisError(f"no tags on herald channel {herald_channel}")
    duration_s = stream.span_ps * 1e-12
    if duration_s <= 0:
        raise AnalysisError("stream spans no time")
    edges = np.unique(bounds)
    cum = np.concatenate(([0], np.cumsum(_histogram(heralds, signals, edges, workers))))
    lo, hi = np.searchsorted(edges, bounds).T
    return heralds.size, signals.size, duration_s, (cum[hi] - cum[lo]).tolist()


def cross_correlation_histogram(
    stream: TagStream,
    start_channel: int,
    stop_channel: int,
    bin_width_ps: int,
    tau_range_ps: tuple[int, int],
    workers: int = 1,
) -> CorrelationHistogram:
    """Multi-stop delay histogram of ``stop_channel`` relative to
    ``start_channel``; ``workers`` threads give bit-identical counts."""
    tau_min, tau_max = (int(t) for t in tau_range_ps)
    bin_width = int(bin_width_ps)
    if bin_width <= 0:
        raise AnalysisError("bin width must be positive")
    if tau_max <= tau_min or (tau_max - tau_min) % bin_width:
        raise AnalysisError("delay range must be a positive multiple of the bin width")
    starts = stream.channel_times(start_channel)
    stops = stream.channel_times(stop_channel)
    if starts.size == 0:
        raise AnalysisError(f"no tags on start channel {start_channel}")
    if stops.size == 0:
        raise AnalysisError(f"no tags on stop channel {stop_channel}")
    counts = _histogram(starts, stops, range(tau_min, tau_max + 1, bin_width), workers)
    if start_channel == stop_channel and tau_min <= 0 < tau_max:
        # remove each tag paired with itself
        counts[(-tau_min) // bin_width] -= starts.size
    return CorrelationHistogram(
        bin_width_ps=bin_width,
        tau_min_ps=tau_min,
        tau_max_ps=tau_max,
        counts=counts,
        start_channel=start_channel,
        stop_channel=stop_channel,
        n_starts=int(starts.size),
        n_stops=int(stops.size),
        duration_ps=stream.span_ps,
    )


# ---------------------------------------------------------------------------
# normalized g2 from a histogram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class G2Result:
    """Window-averaged normalized correlation with its statistical error."""

    value: float
    uncertainty: float
    window_ps: int
    center_ps: int
    floor_per_bin: float
    floor_region_ps: tuple[int, int]
    window_counts: int
    floor_counts: int


def _floor_region(window: int, floor_region_ps: tuple[int, int]) -> tuple[int, int]:
    """The floor's distance bounds from the window centre, checked against the window."""
    f_lo, f_hi = (int(f) for f in floor_region_ps)
    if f_lo <= 0 or f_hi <= f_lo:
        raise AnalysisError("floor region must satisfy 0 < lo < hi")
    if window / 2 > f_lo:
        raise AnalysisError("floor region overlaps the coincidence window")
    return f_lo, f_hi


def _g2_ratio(
    s_window: int, width_window: float, s_floor: int, width_floor: float
) -> tuple[float, float]:
    """Windowed g2 and its Poisson uncertainty: counts per unit width in the
    window over counts per unit width in the accidental floor."""
    if s_floor == 0:
        raise AnalysisError("no counts in the floor region; cannot normalize")
    value = (s_window / width_window) / (s_floor / width_floor)
    return value, value * math.sqrt(1.0 / max(s_window, 1) + 1.0 / s_floor)


def normalized_g2(
    hist: CorrelationHistogram,
    window_ps: int,
    center_ps: int | None = None,
    floor_region_ps: tuple[int, int] = (1_000_000, 5_000_000),
) -> G2Result:
    """Mean counts per bin inside the coincidence window divided by the mean
    over the accidental floor.

    The window covers ``window_ps`` at ``center_ps`` (by default the highest
    bin); the floor is all bins with |delay - center| inside
    ``floor_region_ps``.  Uncertainty assumes Poisson counts in both regions.
    """
    window = int(window_ps)
    _window_offsets(window)  # raises unless the window is positive
    centers = hist.bin_centers_ps
    if center_ps is None:
        center = int(centers[int(np.argmax(hist.counts))])
    else:
        center = int(center_ps)
    f_lo, f_hi = _floor_region(window, floor_region_ps)
    in_window = (centers >= center - window / 2) & (centers < center + window / 2)
    dist = np.abs(centers - center)
    in_floor = (dist >= f_lo) & (dist <= f_hi)
    n_window = int(in_window.sum())
    n_floor = int(in_floor.sum())
    if n_window == 0:
        raise AnalysisError("window contains no bins")
    if n_floor == 0:
        raise AnalysisError("floor region contains no bins")
    s_window = int(hist.counts[in_window].sum())
    s_floor = int(hist.counts[in_floor].sum())
    value, uncertainty = _g2_ratio(s_window, n_window, s_floor, n_floor)
    return G2Result(
        value=value,
        uncertainty=uncertainty,
        window_ps=window,
        center_ps=center,
        floor_per_bin=s_floor / n_floor,
        floor_region_ps=(f_lo, f_hi),
        window_counts=s_window,
        floor_counts=s_floor,
    )


# ---------------------------------------------------------------------------
# heralded (conditioned) autocorrelation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaselHistogram:
    """Triple-coincidence counts H(n) indexed by how many heralds separate
    the two split-arm detections (n = 0: same herald)."""

    orders: np.ndarray
    counts: np.ndarray
    herald_count: int
    window_ps: int


@dataclass(frozen=True)
class HeraldedG2:
    """Conditioned autocorrelation H(0) / mean(H(n != 0))."""

    histogram: FaselHistogram
    value: float
    uncertainty: float
    h0: int
    h_other_mean: float


def heralded_autocorrelation(
    stream: TagStream,
    herald_channel: int,
    channel_a: int,
    channel_b: int,
    window_ps: int,
    n_max: int = 15,
    workers: int = 1,
) -> HeraldedG2:
    """Conditioned autocorrelation of the heralded arm.

    For herald k, ``a_k``/``b_k`` record whether each splitter output fired
    within the coincidence window around that herald; H(n) counts pairs
    (a_k, b_{k+n}).  H(0) holds the same-herald triples, H(n != 0) the
    accidental reference, and their ratio estimates the conditioned g2.
    """
    if n_max < 1:
        raise AnalysisError("n_max must be at least 1")
    window = int(window_ps)
    heralds = stream.channel_times(herald_channel)
    if heralds.size < 2 * n_max + 1:
        raise AnalysisError(
            f"need at least {2 * n_max + 1} heralds for orders up to {n_max}, "
            f"got {heralds.size}"
        )
    w_lo, w_hi = _window_offsets(window)
    arms = [stream.channel_times(channel) for channel in (channel_a, channel_b)]
    orders = np.arange(-n_max, n_max + 1, dtype=np.int64)

    def fired(part: np.ndarray, stops: np.ndarray) -> np.ndarray:
        # an arm fired for a herald when its first stop at or after herald + w_lo
        # comes before herald + w_hi; the stops past the reach come after it
        reach = _reach(stops, part, w_lo, w_hi)
        if not reach.size:
            return np.zeros(part.size, dtype=bool)
        first = np.searchsorted(reach, part + w_lo)
        return (first < reach.size) & (reach.take(first, mode="clip") < part + w_hi)

    def count(at: int) -> list[int]:
        # H(n) over this chunk's heralds k with a_k and b_(k+n); b covers the
        # chunk and n_max heralds on either side, and misses past the run's ends
        end = min(at + _CHUNK_STARTS, heralds.size)
        a = fired(heralds[at:end], arms[0])
        lo, hi = max(at - n_max, 0), min(end + n_max, heralds.size)
        b = np.zeros(end - at + 2 * n_max, dtype=bool)
        b[lo - at + n_max : hi - at + n_max] = fired(heralds[lo:hi], arms[1])
        return [np.count_nonzero(a & b[n_max + n : n_max + n + a.size]) for n in orders]

    counts = np.sum(in_order(count, range(0, heralds.size, _CHUNK_STARTS), workers), axis=0)
    fasel = FaselHistogram(
        orders=orders,
        counts=counts,
        herald_count=int(heralds.size),
        window_ps=window,
    )
    h0 = int(counts[n_max])
    s_other = int(counts.sum()) - h0
    if s_other == 0:
        raise AnalysisError("no accidental triple coincidences; cannot normalize")
    mean_other = s_other / (2 * n_max)
    value = h0 / mean_other
    if h0 > 0:
        uncertainty = value * math.sqrt(1.0 / h0 + 1.0 / s_other)
    else:
        # Poisson scale of a zero count in the numerator
        uncertainty = 1.0 / mean_other
    return HeraldedG2(
        histogram=fasel, value=value, uncertainty=uncertainty, h0=h0, h_other_mean=mean_other
    )


# ---------------------------------------------------------------------------
# coincidence metrics and window sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceMetrics:
    """Singles and coincidence rates with the derived heralding efficiency."""

    duration_s: float
    herald_count: int
    signal_count: int
    herald_rate_hz: float
    signal_rate_hz: float
    coincidence_count: int
    coincidence_rate_hz: float
    accidental_rate_hz: float
    heralding_efficiency: float
    heralding_efficiency_corrected: float
    window_ps: int


def coincidence_metrics(
    stream: TagStream,
    herald_channel: int,
    signal_channel: int,
    window_ps: int,
    eta_det_s: float,
    workers: int = 1,
) -> CoincidenceMetrics:
    """Count heralds, signals and herald-signal pairs in a coincidence window
    and derive the heralding efficiency (detector efficiency divided out).

    The accidental-corrected variant subtracts the stationary expectation
    herald_rate * signal_rate * window before normalizing.
    """
    window = int(window_ps)
    n_heralds, n_signals, duration_s, (coinc,) = _range_counts(
        stream, herald_channel, signal_channel, [_window_offsets(window)], eta_det_s, workers
    )
    herald_rate = n_heralds / duration_s
    signal_rate = n_signals / duration_s
    accidentals = n_heralds * signal_rate * (window * 1e-12)
    p_si = coinc / n_heralds
    p_si_corr = max(coinc - accidentals, 0.0) / n_heralds
    return CoincidenceMetrics(
        duration_s=duration_s,
        herald_count=n_heralds,
        signal_count=n_signals,
        herald_rate_hz=herald_rate,
        signal_rate_hz=signal_rate,
        coincidence_count=coinc,
        coincidence_rate_hz=coinc / duration_s,
        accidental_rate_hz=accidentals / duration_s,
        heralding_efficiency=p_si / eta_det_s,
        heralding_efficiency_corrected=p_si_corr / eta_det_s,
        window_ps=window,
    )


@dataclass(frozen=True)
class WindowSweepPoint:
    window_ps: int
    coincidence_count: int
    coincidence_rate_hz: float
    heralding_efficiency: float
    g2: float
    g2_uncertainty: float


def window_sweep(
    stream: TagStream,
    herald_channel: int,
    signal_channel: int,
    windows_ps,
    eta_det_s: float,
    floor_region_ps: tuple[int, int] = (1_000_000, 5_000_000),
    workers: int = 1,
) -> list[WindowSweepPoint]:
    """Coincidence rate, heralding efficiency and windowed g2 versus the width
    of a window centred at zero delay.  One stop search counts the pairs in
    every window and in the floor ``[-max, -min)`` and ``[min, max)``; each g2
    is the window's pairs per ps over the floor's."""
    windows = [int(w) for w in windows_ps]
    if not windows or any(w <= 0 for w in windows):
        raise AnalysisError("window widths must be positive")
    if sorted(windows) != windows:
        raise AnalysisError("window widths must be ascending")
    f_lo, f_hi = _floor_region(windows[-1], floor_region_ps)
    bounds = [_window_offsets(w) for w in windows] + [(-f_hi, -f_lo), (f_lo, f_hi)]
    n_heralds, _, duration_s, (*coincidences, below, above) = _range_counts(
        stream, herald_channel, signal_channel, bounds, eta_det_s, workers
    )
    floor = (below + above, 2 * (f_hi - f_lo))
    g2s = [_g2_ratio(coinc, window, *floor) for window, coinc in zip(windows, coincidences)]
    return [
        WindowSweepPoint(window, coinc, coinc / duration_s, coinc / n_heralds / eta_det_s, *g2)
        for window, coinc, g2 in zip(windows, coincidences, g2s)
    ]
