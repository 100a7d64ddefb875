"""Correlation analysis against brute-force oracles and exact synthetic
streams."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biphoton.correlator
from biphoton.cli import write_fasel_csv, write_histogram_csv
from biphoton.correlator import (
    AnalysisError,
    CorrelationHistogram,
    coincidence_metrics,
    cross_correlation_histogram,
    heralded_autocorrelation,
    normalized_g2,
    window_sweep,
)
from biphoton.tagstream import TagStream


def _random_tag_soup(n, seed, horizon=200_000, n_channels=3):
    """Dense random stream with heavy bin-edge traffic."""
    rng = np.random.default_rng(seed)
    times = rng.integers(0, horizon, size=n, dtype=np.int64)
    channels = rng.integers(0, n_channels, size=n, dtype=np.int64)
    order = np.lexsort((channels, times))
    times, channels = times[order], channels[order]
    keep = np.ones(n, dtype=bool)
    same = (np.diff(times) == 0) & (np.diff(channels) == 0)
    keep[1:][same] = False
    return TagStream(times[keep], channels[keep].astype(np.uint8))


def _merged(by_channel):
    """The stream of strictly increasing per-channel times, built from their
    merged records."""
    times = np.concatenate(list(by_channel.values()))
    sizes = [t.size for t in by_channel.values()]
    channels = np.repeat(np.array(list(by_channel), dtype=np.uint8), sizes)
    order = np.lexsort((channels, times))
    return TagStream(times[order], channels[order])


def _brute_force(stream, start_ch, stop_ch, bin_width, tau_range):
    tau_min, tau_max = tau_range
    n_bins = (tau_max - tau_min) // bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    starts = stream.channel_times(start_ch)
    stops = stream.channel_times(stop_ch)
    for i, t0 in enumerate(starts):
        for j, t1 in enumerate(stops):
            if start_ch == stop_ch and i == j:
                continue
            dt = int(t1) - int(t0)
            if tau_min <= dt < tau_max:
                counts[(dt - tau_min) // bin_width] += 1
    return counts


def test_histogram_matches_all_pairs_enumeration():
    """The production histogram must agree bin for bin with a quadratic
    all-pairs count, including self-pair removal on a shared channel."""
    for trial in range(5):
        stream = _random_tag_soup(2_000, seed=40 + trial)
        for start_ch, stop_ch in ((0, 2), (2, 0), (1, 1)):
            hist = cross_correlation_histogram(stream, start_ch, stop_ch, 7, (-3_500, 3_500))
            oracle = _brute_force(stream, start_ch, stop_ch, 7, (-3_500, 3_500))
            assert np.array_equal(hist.counts, oracle)


def test_sparse_histogram_matches_all_pairs_enumeration():
    """Ten times sparser and in 1 ps bins, a run holds fewer pairs than bins,
    so the kernel adds its pairs one by one instead of by a bincount."""
    for trial in range(3):
        stream = _random_tag_soup(2_000, seed=45 + trial, horizon=2_000_000)
        for start_ch, stop_ch in ((0, 2), (2, 0), (1, 1)):
            hist = cross_correlation_histogram(stream, start_ch, stop_ch, 1, (-3_500, 3_500))
            oracle = _brute_force(stream, start_ch, stop_ch, 1, (-3_500, 3_500))
            assert 0 < oracle.sum() < oracle.size
            assert np.array_equal(hist.counts, oracle)


def test_chunked_workers_are_bit_exact():
    stream = _random_tag_soup(600_000, seed=50, horizon=10**12, n_channels=2)
    serial = cross_correlation_histogram(stream, 0, 1, 5_000, (-2_000_000, 2_000_000))
    threaded = cross_correlation_histogram(
        stream, 0, 1, 5_000, (-2_000_000, 2_000_000), workers=4
    )
    assert np.array_equal(serial.counts, threaded.counts)
    assert serial.n_starts == threaded.n_starts
    assert serial.duration_ps == threaded.duration_ps


def test_uncorrelated_streams_are_flat_at_the_accidental_level():
    rng = np.random.default_rng(51)
    duration = 10**12
    times = np.sort(rng.integers(0, duration, size=60_000, dtype=np.int64))
    channels = rng.integers(0, 2, size=60_000, dtype=np.int64).astype(np.uint8)
    stream = TagStream(times, channels)
    hist = cross_correlation_histogram(stream, 0, 1, 20_000, (-2_000_000, 2_000_000))
    mean_norm = hist.normalized.mean()
    # Poisson scatter on ~200 bins of ~ stream-rate^2 * bin * T counts
    assert abs(mean_norm - 1.0) < 0.05
    expected = hist.n_starts * hist.n_stops * hist.bin_width_ps / hist.duration_ps
    assert hist.accidental_per_bin == pytest.approx(expected, rel=1e-12)


def test_histogram_rejects_bad_binning_and_channels():
    stream = _random_tag_soup(100, seed=53)
    with pytest.raises(AnalysisError, match="bin width"):
        cross_correlation_histogram(stream, 0, 1, 0, (-100, 100))
    with pytest.raises(AnalysisError, match="multiple"):
        cross_correlation_histogram(stream, 0, 1, 7, (-100, 100))
    with pytest.raises(AnalysisError, match="multiple"):
        cross_correlation_histogram(stream, 0, 1, 10, (100, 100))
    with pytest.raises(AnalysisError, match="start channel 9"):
        cross_correlation_histogram(stream, 9, 1, 10, (-100, 100))
    with pytest.raises(AnalysisError, match="stop channel 9"):
        cross_correlation_histogram(stream, 0, 9, 10, (-100, 100))


def test_histogram_dataclass_validation():
    # the binning is checked by cross_correlation_histogram, its only
    # constructor; the dataclass only makes its counts read-only int64
    hist = CorrelationHistogram(10, -50, 50, list(range(10)), 0, 1, 1, 1, 100)
    assert hist.counts.dtype == np.int64
    assert hist.counts.tolist() == list(range(10))
    with pytest.raises(ValueError, match="read-only"):
        hist.counts[0] = 5


def test_bin_centers_sit_mid_bin():
    hist = CorrelationHistogram(10, -50, 50, np.zeros(10, dtype=np.int64), 0, 1, 1, 1, 100)
    assert hist.n_bins == 10
    assert hist.bin_centers_ps[0] == -45.0
    assert hist.bin_centers_ps[-1] == 45.0


# --- normalized g2 ----------------------------------------------------------


def _step_histogram(peak=900, floor=100, peak_bins=40):
    """2000 bins of 1 ns; a flat-top peak around zero delay on a flat floor."""
    counts = np.full(2000, floor, dtype=np.int64)
    mid = 1000
    counts[mid - peak_bins // 2 : mid + peak_bins // 2] = peak
    return CorrelationHistogram(1_000, -1_000_000, 1_000_000, counts, 0, 1, 1, 1, 10**12)


def test_normalized_g2_exact_on_synthetic_step():
    hist = _step_histogram()
    res = normalized_g2(hist, 40_000, center_ps=0, floor_region_ps=(100_000, 900_000))
    assert res.value == 9.0
    assert res.floor_per_bin == 100.0
    assert res.window_counts == 40 * 900
    assert res.center_ps == 0
    expected_err = 9.0 * np.sqrt(1 / 36_000 + 1 / res.floor_counts)
    assert res.uncertainty == pytest.approx(expected_err, rel=1e-12)


def test_normalized_g2_finds_the_peak_without_a_center():
    counts = np.full(2000, 100, dtype=np.int64)
    counts[1000] = 5000
    hist = CorrelationHistogram(1_000, -1_000_000, 1_000_000, counts, 0, 1, 1, 1, 10**12)
    res = normalized_g2(hist, 1_000, floor_region_ps=(100_000, 900_000))
    assert res.center_ps == 500
    assert res.value == 50.0


def test_normalized_g2_error_paths():
    hist = _step_histogram()
    with pytest.raises(AnalysisError, match="window must be positive"):
        normalized_g2(hist, 0, center_ps=0)
    with pytest.raises(AnalysisError, match="floor region must satisfy"):
        normalized_g2(hist, 40_000, center_ps=0, floor_region_ps=(0, 900_000))
    with pytest.raises(AnalysisError, match="floor region must satisfy"):
        normalized_g2(hist, 40_000, center_ps=0, floor_region_ps=(900_000, 100_000))
    with pytest.raises(AnalysisError, match="overlaps"):
        normalized_g2(hist, 400_000, center_ps=0, floor_region_ps=(100_000, 900_000))
    with pytest.raises(AnalysisError, match="window contains no bins"):
        normalized_g2(hist, 40_000, center_ps=5_000_000, floor_region_ps=(6_000_000, 7_000_000))
    with pytest.raises(AnalysisError, match="floor region contains no bins"):
        normalized_g2(hist, 40_000, center_ps=0, floor_region_ps=(3_000_000, 4_000_000))
    dark = CorrelationHistogram(
        1_000, -1_000_000, 1_000_000, np.zeros(2000, dtype=np.int64), 0, 1, 1, 1, 10**12
    )
    with pytest.raises(AnalysisError, match="no counts in the floor"):
        normalized_g2(dark, 40_000, center_ps=0, floor_region_ps=(100_000, 900_000))


# --- heralded autocorrelation ------------------------------------------------


def _triple_stream(n_heralds, a_hits, b_hits, spacing=1_000_000):
    """Heralds on channel 2; channels 0/1 fire a fixed offset after the
    heralds whose indices appear in a_hits/b_hits."""
    heralds = spacing * (1 + np.arange(n_heralds, dtype=np.int64))
    times = [heralds]
    channels = [np.full(n_heralds, 2, dtype=np.uint8)]
    if len(a_hits):
        times.append(heralds[list(a_hits)] + 10)
        channels.append(np.zeros(len(a_hits), dtype=np.uint8))
    if len(b_hits):
        times.append(heralds[list(b_hits)] + 20)
        channels.append(np.ones(len(b_hits), dtype=np.uint8))
    t = np.concatenate(times)
    c = np.concatenate(channels)
    order = np.lexsort((c, t))
    return TagStream(t[order], c[order])


def test_heralded_counts_have_exact_closed_form_when_every_herald_fires():
    """If both splitter outputs fire for every herald, H(n) = N - |n| and the
    ratio to the accidental mean is N / (N - (n_max+1)/2)."""
    n = 100
    stream = _triple_stream(n, range(n), range(n))
    result = heralded_autocorrelation(stream, 2, 0, 1, 1_000, n_max=15)
    assert np.array_equal(result.histogram.orders, np.arange(-15, 16))
    expected = n - np.abs(np.arange(-15, 16))
    assert np.array_equal(result.histogram.counts, expected)
    assert result.value == pytest.approx(n / (n - 8), rel=1e-12)
    assert result.histogram.herald_count == n


def test_heralded_antibunching_is_exactly_zero():
    # A fires on even heralds only, B on odd heralds only
    n = 80
    stream = _triple_stream(n, range(0, n, 2), range(1, n, 2))
    result = heralded_autocorrelation(stream, 2, 0, 1, 1_000, n_max=10)
    assert result.value == 0.0
    assert result.histogram.counts[10] == 0
    mean_other = (result.histogram.counts.sum()) / 20
    assert result.uncertainty == pytest.approx(1.0 / mean_other, rel=1e-12)


def test_heralded_poisson_light_is_near_one():
    rng = np.random.default_rng(60)
    duration = 10**9
    heralds = np.arange(300_000, duration, 300_000, dtype=np.int64)
    a = np.sort(rng.integers(0, duration, size=1_500, dtype=np.int64))
    b = np.sort(rng.integers(0, duration, size=1_500, dtype=np.int64))
    t = np.concatenate([heralds, a, b])
    c = np.concatenate(
        [np.full(heralds.size, 2, np.uint8), np.zeros(a.size, np.uint8), np.ones(b.size, np.uint8)]
    )
    order = np.lexsort((c, t))
    stream = TagStream(t[order], c[order])
    result = heralded_autocorrelation(stream, 2, 0, 1, 200_000, n_max=15)
    assert abs(result.value - 1.0) < 3.5 * result.uncertainty
    assert result.uncertainty < 0.5


def test_heralded_error_paths():
    stream = _triple_stream(100, range(100), range(100))
    with pytest.raises(AnalysisError, match="n_max"):
        heralded_autocorrelation(stream, 2, 0, 1, 1_000, n_max=0)
    with pytest.raises(AnalysisError, match="window"):
        heralded_autocorrelation(stream, 2, 0, 1, 0)
    with pytest.raises(AnalysisError, match="need at least 101 heralds"):
        heralded_autocorrelation(stream, 2, 0, 1, 1_000, n_max=50)
    silent = _triple_stream(100, [], [])
    with pytest.raises(AnalysisError, match="cannot normalize"):
        heralded_autocorrelation(silent, 2, 0, 1, 1_000)


# --- coincidence metrics and window sweep -------------------------------------


def test_coincidence_metrics_exact_synthetic():
    n = 1_000
    fired = 300
    stream = _triple_stream(n, range(fired), [])
    metrics = coincidence_metrics(stream, 2, 0, 1_000, 0.6)
    assert metrics.herald_count == n
    assert metrics.signal_count == fired
    assert metrics.coincidence_count == fired
    duration_s = stream.span_ps * 1e-12
    assert metrics.duration_s == duration_s
    assert metrics.herald_rate_hz == pytest.approx(n / duration_s, rel=1e-12)
    assert metrics.signal_rate_hz == pytest.approx(fired / duration_s, rel=1e-12)
    assert metrics.coincidence_rate_hz == pytest.approx(fired / duration_s, rel=1e-12)
    assert metrics.heralding_efficiency == pytest.approx(0.5, rel=1e-12)
    accidentals = n * (fired / duration_s) * 1_000e-12
    assert metrics.accidental_rate_hz == pytest.approx(accidentals / duration_s, rel=1e-12)
    corrected = (fired - accidentals) / n / 0.6
    assert metrics.heralding_efficiency_corrected == pytest.approx(corrected, rel=1e-12)


def test_coincidence_metrics_window_selectivity():
    # clicks land 10 ps after the herald; a 30 ps centered window catches
    # them, a window ending before +10 does not
    stream = _triple_stream(200, range(200), [])
    inside = coincidence_metrics(stream, 2, 0, 30, 0.5)
    assert inside.coincidence_count == 200
    outside = coincidence_metrics(stream, 2, 0, 10, 0.5)
    assert outside.coincidence_count == 0


def test_coincidence_metrics_errors():
    stream = _triple_stream(10, range(10), [])
    with pytest.raises(AnalysisError, match="efficiency"):
        coincidence_metrics(stream, 2, 0, 100, 0.0)
    with pytest.raises(AnalysisError, match="herald channel 5"):
        coincidence_metrics(stream, 5, 0, 100, 0.5)
    with pytest.raises(AnalysisError, match="window must be positive"):
        coincidence_metrics(stream, 2, 0, 0, 0.5)


@pytest.mark.parametrize("delay,expected", [(-1, 0), (0, 1), (1, 0)])
def test_one_ps_window_counts_only_zero_delay(delay, expected):
    stream = _stream([10, 1_000], [10 + delay], [])
    assert coincidence_metrics(stream, 2, 0, 1, 0.5).coincidence_count == expected


def test_window_sweep_monotone_and_consistent():
    rng = np.random.default_rng(61)
    duration = 10**10
    heralds = np.sort(rng.integers(0, duration, size=20_000, dtype=np.int64))
    jitter = rng.integers(-40_000, 40_000, size=heralds.size, dtype=np.int64)
    partners = heralds + jitter
    keep = partners > 0
    t = np.concatenate([heralds, partners[keep]])
    c = np.concatenate([np.full(heralds.size, 2, np.uint8), np.zeros(int(keep.sum()), np.uint8)])
    order = np.lexsort((c, t))
    stream = TagStream(t[order], c[order])
    windows = [20_000, 50_000, 100_000, 200_000]
    points = window_sweep(stream, 2, 0, windows, 0.5)
    counts = [p.coincidence_count for p in points]
    assert counts == sorted(counts)
    assert [p.window_ps for p in points] == windows
    for point in points:
        direct = coincidence_metrics(stream, 2, 0, point.window_ps, 0.5)
        assert point.coincidence_count == direct.coincidence_count
        assert point.heralding_efficiency == pytest.approx(
            direct.heralding_efficiency, rel=1e-12
        )


def test_window_sweep_rejects_bad_windows():
    stream = _triple_stream(100, range(100), [])
    with pytest.raises(AnalysisError, match="positive"):
        window_sweep(stream, 2, 0, [0, 100], 0.5)
    with pytest.raises(AnalysisError, match="ascending"):
        window_sweep(stream, 2, 0, [200, 100], 0.5)
    with pytest.raises(AnalysisError, match="positive"):
        window_sweep(stream, 2, 0, [], 0.5)
    with pytest.raises(AnalysisError, match="overlaps"):
        window_sweep(stream, 2, 0, [100, 2_000_002], 0.5)


@pytest.mark.parametrize("analysis", [
    lambda stream, eta: coincidence_metrics(stream, 2, 0, 100, eta),
    lambda stream, eta: window_sweep(stream, 2, 0, [100], eta),
], ids=["coincidence_metrics", "window_sweep"])
@pytest.mark.parametrize("stream,eta,message", [
    (_triple_stream(10, range(10), []), 0.0, "signal detector efficiency must lie in (0, 1]"),
    (_triple_stream(10, range(10), []), 1.5, "signal detector efficiency must lie in (0, 1]"),
    (TagStream([10, 20], [0, 0]), 0.5, "no tags on herald channel 2"),
    (TagStream([10, 10], [0, 2]), 0.5, "stream spans no time"),
], ids=["eta-0", "eta-1.5", "no-heralds", "zero-span"])
def test_zero_delay_analyses_share_their_checks(analysis, stream, eta, message):
    with pytest.raises(AnalysisError) as info:
        analysis(stream, eta)
    assert str(info.value) == message


# --- pair counts against brute-force enumeration ---------------------------------

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def _soups(draw, min_heralds=1, horizon=3_000):
    """Herald, signal and partner times (channels 2, 0 and 1) crowded into a
    short span; the signal and partner channels may be empty."""
    heralds, signals, partners = (
        draw(st.lists(st.integers(0, horizon), min_size=size, max_size=60, unique=True))
        for size in (min_heralds, 0, 0)
    )
    return heralds, signals, partners


def _stream(heralds, signals, partners):
    tags = sorted([(t, 2) for t in heralds] + [(t, 0) for t in signals] + [(t, 1) for t in partners])
    times, channels = zip(*tags)
    return TagStream(np.array(times), np.array(channels, dtype=np.uint8))


def _in_window(delay, window):
    # the window centred at zero covers the w delays [-(w // 2), w - w // 2)
    return -(window // 2) <= delay < window - window // 2


def _window_pairs(heralds, signals, window):
    return sum(_in_window(s - h, window) for h in heralds for s in signals)


@_PROPERTY
@given(_soups(), st.integers(1, 500))
def test_coincidence_counts_match_pair_enumeration(soup, window):
    heralds, signals, partners = soup
    stream = _stream(heralds, signals, partners)
    if stream.span_ps == 0:
        with pytest.raises(AnalysisError, match="spans no time"):
            coincidence_metrics(stream, 2, 0, window, 0.5)
        return
    # chunks of 4 heralds, so several chunks run on every worker count
    with mock.patch.object(biphoton.correlator, "_CHUNK_STARTS", 4):
        for workers in (1, 2, 4):
            metrics = coincidence_metrics(stream, 2, 0, window, 0.5, workers=workers)
            assert metrics.coincidence_count == _window_pairs(heralds, signals, window)
    assert metrics.signal_count == len(signals)
    # one herald with a signal at every delay in [-w, w]: the window holds w of them
    delays = range(-window, window + 1)
    assert sum(_in_window(d, window) for d in delays) == window
    comb = _stream([window], [window + d for d in delays], [])
    assert coincidence_metrics(comb, 2, 0, window, 0.5).coincidence_count == window


@_PROPERTY
@given(_soups(), st.lists(st.integers(1, 400), min_size=1, max_size=5).map(sorted))
def test_window_sweep_counts_match_pair_enumeration_for_any_worker_count(soup, windows):
    heralds, signals, partners = soup
    # one far herald-signal pair in the floor region, outside every window, so
    # the g2 normalisation always has a floor count
    heralds, signals = heralds + [20_000], signals + [21_000]
    stream = _stream(heralds, signals, partners)
    expected = [_window_pairs(heralds, signals, w) for w in windows]
    # the floor covers the delays [-5000, -500) and [500, 5000), 9000 ps in all
    floor = sum(-5_000 <= s - h < -500 or 500 <= s - h < 5_000 for h in heralds for s in signals)
    g2s = [(c / w) / (floor / 9_000) for c, w in zip(expected, windows)]
    g2_errs = [g * np.sqrt(1 / max(c, 1) + 1 / floor) for g, c in zip(g2s, expected)]
    with mock.patch.object(biphoton.correlator, "_CHUNK_STARTS", 4):
        for workers in (1, 2, 4):
            points = window_sweep(
                stream, 2, 0, windows, 0.5, floor_region_ps=(500, 5_000), workers=workers
            )
            assert [p.coincidence_count for p in points] == expected
            assert [p.heralding_efficiency for p in points] == [
                c / len(heralds) / 0.5 for c in expected
            ]
            assert [p.g2 for p in points] == pytest.approx(g2s, rel=1e-12)
            assert [p.g2_uncertainty for p in points] == pytest.approx(g2_errs, rel=1e-12)


def test_odd_window_sweep_memory_grows_with_the_edges_not_the_span():
    """A 401 ps window and a floor out to 10 us: the edges share a 1 ps
    grid, yet the counts are exact without a bin per picosecond."""
    rng = np.random.default_rng(17)
    heralds = np.unique(rng.integers(0, 40_000_000, size=300))
    signals = np.unique(np.concatenate([heralds + rng.integers(-300, 300, heralds.size),
                                        rng.integers(0, 40_000_000, size=300)]))
    stream = _stream(heralds.tolist(), signals.tolist(), [])
    delays = signals[None, :] - heralds[:, None]
    tracemalloc.start()
    try:
        points = window_sweep(stream, 2, 0, [401], 0.5, floor_region_ps=(1_000_000, 10_000_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    coinc = int(((-200 <= delays) & (delays < 201)).sum())
    # the floor covers the delays [-10 us, -1 us) and [1 us, 10 us)
    n_floor = sum(int(((lo <= delays) & (delays < hi)).sum())
                  for lo, hi in ((-10_000_000, -1_000_000), (1_000_000, 10_000_000)))
    assert 0 < coinc < n_floor
    assert points[0].coincidence_count == coinc
    assert points[0].g2 == pytest.approx((coinc / 401) / (n_floor / 18_000_000), rel=1e-12)
    # a 1 ps grid over the floor would be 2e7 bins, 160 MB
    assert peak < 4_000_000


@pytest.mark.parametrize("cap", [1, 5, 64])
def test_pair_cap_cuts_leave_counts_exact(cap):
    """Runs cut mid-start, a start spanning several multiples of the cap, and
    starts with no pairs all count as the all-pairs enumeration does."""
    stream = _random_tag_soup(600, seed=70, horizon=20_000)
    with mock.patch.object(biphoton.correlator, "_CHUNK_PAIRS", cap):
        for workers in (1, 2):
            hist = cross_correlation_histogram(stream, 0, 2, 7, (-700, 700), workers=workers)
            assert np.array_equal(hist.counts, _brute_force(stream, 0, 2, 7, (-700, 700)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(0, 60), max_size=40),
    st.lists(st.integers(-5, 70), min_size=1, max_size=40),
    st.integers(0, 30),
)
@example(stops=list(range(0, 40, 2)), keys=[10, 31, 69, 70], width=30)
def test_stop_ends_are_the_binary_search(stops, keys, width):
    """Stepped ends equal np.searchsorted, for keys past the last stop and
    for keys more than the step cap beyond their lower bound."""
    reach, keys = np.sort(np.array(stops, dtype=np.int64)), np.sort(np.array(keys))
    lo = np.searchsorted(reach, keys - width)
    want = np.searchsorted(reach, keys)
    assert np.array_equal(biphoton.correlator._ends(reach, keys, lo), want)


@pytest.mark.parametrize("steps", [0, 1, None])
def test_stop_ranges_past_the_step_cap_count_all_pairs(steps):
    """About 23 stops lie in each start's range, more than the step cap, so
    most ends come from the search after the steps."""
    stream = _random_tag_soup(2_000, seed=71)
    starts, stops = stream.channel_times(0), stream.channel_times(2)
    in_range = np.searchsorted(stops, starts + 3_500) - np.searchsorted(stops, starts - 3_500)
    assert np.median(in_range) > biphoton.correlator._STEPS
    cap = biphoton.correlator._STEPS if steps is None else steps
    with mock.patch.object(biphoton.correlator, "_STEPS", cap):
        hist = cross_correlation_histogram(stream, 0, 2, 7, (-3_500, 3_500))
    assert np.array_equal(hist.counts, _brute_force(stream, 0, 2, 7, (-3_500, 3_500)))


def test_wide_floor_memory_stays_bounded_by_the_pair_cap():
    """2 500 heralds against 2 M stops over 1 s with a floor out to 1 ms:
    about 10 M pairs, which the kernel expands about 2^20 at a time."""
    rng = np.random.default_rng(18)
    heralds = np.unique(rng.integers(0, 10**12, size=2_500))
    stops = np.unique(rng.integers(0, 10**12, size=2_000_000))
    stream = _merged({0: stops, 2: heralds})
    tracemalloc.start()
    try:
        points = window_sweep(stream, 2, 0, [400_000], 0.5, floor_region_ps=(10**6, 10**9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    def pairs(lo, hi):
        return int((np.searchsorted(stops, heralds + hi) - np.searchsorted(stops, heralds + lo)).sum())

    coinc = pairs(-200_000, 200_000)
    n_floor = pairs(-10**9, -10**6) + pairs(10**6, 10**9)
    assert n_floor > 8_000_000
    assert points[0].coincidence_count == coinc
    assert points[0].g2 == pytest.approx((coinc / 400_000) / (n_floor / 1_998_000_000), rel=1e-12)
    # uncapped, the int64 pair arrays of this one start chunk reach 240 MB
    assert peak < 60_000_000


def _check_heralded_orders(heralds, signals, partners, window, n_max):
    """Every order's count equals the enumeration's, in chunks of 4 heralds,
    so several chunks run on every worker count."""
    stream = _stream(heralds, signals, partners)
    heralds = sorted(heralds)
    a = [any(_in_window(t - h, window) for t in signals) for h in heralds]
    b = [any(_in_window(t - h, window) for t in partners) for h in heralds]
    expected = [
        sum(a[k] and b[k + n] for k in range(len(heralds)) if 0 <= k + n < len(heralds))
        for n in range(-n_max, n_max + 1)
    ]
    with mock.patch.object(biphoton.correlator, "_CHUNK_STARTS", 4):
        for workers in (1, 2, 4):
            if sum(expected) == expected[n_max]:
                with pytest.raises(AnalysisError, match="cannot normalize"):
                    heralded_autocorrelation(stream, 2, 0, 1, window, n_max, workers)
                continue
            result = heralded_autocorrelation(stream, 2, 0, 1, window, n_max, workers)
            assert result.histogram.orders.tolist() == list(range(-n_max, n_max + 1))
            assert result.histogram.counts.tolist() == expected
            assert result.h0 == expected[n_max]
            assert result.h_other_mean == (sum(expected) - expected[n_max]) / (2 * n_max)


@_PROPERTY
@given(_soups(min_heralds=9), st.integers(1, 500), st.integers(1, 4))
def test_heralded_orders_match_enumeration(soup, window, n_max):
    _check_heralded_orders(*soup, window, n_max)


@_PROPERTY
@given(_soups(min_heralds=19), st.integers(1, 500), st.integers(5, 9))
# signals near heralds 0-3 and partners near heralds 1-9 of 40, 100 ns apart:
# the chunks from herald 12 on have no signal near them, and those from herald
# 20 on no partner near their flagged heralds either
@example(
    ([100_000 * k for k in range(40)], [100_000 * k + 7 for k in range(4)],
     [100_000 * k - 3 for k in range(1, 10)]),
    20,
    9,
)
def test_heralded_orders_match_enumeration_across_several_chunks(soup, window, n_max):
    """Orders beyond the chunk of 4 heralds: a chunk's partner flags reach
    into the chunks on either side, and stop at the run's ends."""
    _check_heralded_orders(*soup, window, n_max)


def test_heralded_memory_stays_within_a_few_chunks_per_worker():
    """About 2 M heralds, each with a stop in either arm: the working set is
    a few chunks' int64 temporaries per worker, not flags as long as the
    herald list."""
    rng = np.random.default_rng(23)
    heralds = np.unique(rng.integers(0, 10**12, size=2_000_000))
    stream = _merged({0: heralds + 5, 1: heralds + 11, 2: heralds})
    chunk, workers = 1 << 15, 2
    with mock.patch.object(biphoton.correlator, "_CHUNK_STARTS", chunk):
        tracemalloc.start()
        try:
            result = heralded_autocorrelation(stream, 2, 0, 1, 100, 15, workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result.h0 == heralds.size
    assert result.histogram.counts.tolist() == [heralds.size - abs(n) for n in range(-15, 16)]
    # flags as long as the herald list, joined and padded, take 8 MB
    assert peak <= workers * 6 * 8 * chunk, peak


# --- CSV output ----------------------------------------------------------------


def test_histogram_csv_roundtrip(tmp_path):
    hist = _step_histogram()
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "delay_ns,counts,normalized"
    assert len(lines) == hist.n_bins + 1
    delay, count, norm = lines[1].split(",")
    assert float(delay) == pytest.approx(hist.bin_centers_ps[0] / 1000)
    assert int(count) == hist.counts[0]
    assert float(norm) == pytest.approx(hist.normalized[0], rel=1e-6)


def test_fasel_csv_roundtrip(tmp_path):
    stream = _triple_stream(100, range(100), range(100))
    result = heralded_autocorrelation(stream, 2, 0, 1, 1_000, n_max=5)
    path = tmp_path / "orders.csv"
    write_fasel_csv(result.histogram, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "n,counts"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(-5, 6))
    assert [int(r[1]) for r in rows] == list(result.histogram.counts)
