"""Statistical and structural behavior of the stochastic pair source."""

import hashlib
import io
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import correlator, simulator
from biphoton._tasks import in_order
from biphoton.config import preset_config
from biphoton.correlator import (
    cross_correlation_histogram,
    heralded_autocorrelation,
    normalized_g2,
    window_sweep,
)
from biphoton.models import DetectorSpec, ModelError
from biphoton.simulator import (
    CHANNEL_IDLER,
    CHANNEL_SIGNAL_A,
    CHANNEL_SIGNAL_B,
    GateSpec,
    SourceParams,
    simulate_source,
)
from biphoton.tagstream import HEADER_STRUCT, RECORD_DTYPE, write_tags

_CHANNELS = (CHANNEL_SIGNAL_A, CHANNEL_SIGNAL_B, CHANNEL_IDLER)


def test_simulation_is_deterministic_per_seed():
    params = SourceParams(detector_i=DetectorSpec(1.0, 200.0))
    a = simulate_source(params, 1.0, seed=3)
    b = simulate_source(params, 1.0, seed=3)
    assert all(np.array_equal(a.channel_times(ch), b.channel_times(ch)) for ch in _CHANNELS)
    c = simulate_source(params, 1.0, seed=4)
    assert not all(np.array_equal(a.channel_times(ch), c.channel_times(ch)) for ch in _CHANNELS)


_FROZEN_STREAMS = [
    ("reference", 3, 5.0, 0.0, 28383,
     "c4cd085d05009d70518540dd504cea19865d4b318f6a910a888c6166fdb803ac"),
    ("signal-autocorr", 7, 4.0, 50.0, 22498,
     "871e120a1bb136da90fa2cf98b5aa1acd3fdf6eca50ddfe6fc95d49e21719227"),
    ("idler-autocorr", 11, 3.0, 0.0, 19710,
     "20d9736a0ae8b1363fbff761911a3e72f9b50dd6cfc6ff31e4965146c7ea352a"),
    # 300 s of 250 ns slots is two blocks per mode; the idler run's block 0
    # draws 1.68 M pairs, the largest draw of a 300 s report
    ("signal-autocorr", 13, 300.0, 0.0, 1695264,
     "63cc35343e77d10a84982a5c2c2f3a3970e33198eb5c6049db9de0b9a96adcf5"),
    ("idler-autocorr", 17, 300.0, 0.0, 1991369,
     "8a660e5dd6b778a5924a41a70e353e3f76e4d8f5f4ed31263646146b1e8d5518"),
]


def _frozen_stream(preset, seed, duration, dead_ns, workers, **overrides):
    """(tag count, sha256 of the merged times and channels) of one preset run,
    with the merged order taken from the run's tag-file records; ``overrides``
    replace further config keys."""
    cfg = replace(
        preset_config(preset),
        detector_a_dead_ns=dead_ns, detector_b_dead_ns=dead_ns, detector_i_dead_ns=dead_ns,
        **overrides,
    )
    stream = simulate_source(cfg.make_source(), duration, seed, workers=workers)
    buf = io.BytesIO()
    write_tags(stream, buf)
    records = np.frombuffer(buf.getvalue()[HEADER_STRUCT.size :], dtype=RECORD_DTYPE)
    sha = hashlib.sha256(records["time"].astype("<i8").tobytes())
    sha.update(records["channel"].astype("u1").tobytes())
    return records.size, sha.hexdigest()


@pytest.mark.parametrize("preset,seed,duration,dead_ns,n_tags,digest", _FROZEN_STREAMS)
def test_ungated_streams_are_frozen(preset, seed, duration, dead_ns, n_tags, digest):
    """Ungated draws are pinned: a change to the order of random draws must
    show up here, not only in statistical tests."""
    assert _frozen_stream(preset, seed, duration, dead_ns, workers=1) == (n_tags, digest)


@pytest.mark.parametrize("preset,seed,duration,dead_ns,n_tags,digest", _FROZEN_STREAMS)
def test_ungated_streams_are_frozen_on_two_workers(
    preset, seed, duration, dead_ns, n_tags, digest
):
    assert _frozen_stream(preset, seed, duration, dead_ns, workers=2) == (n_tags, digest)


# 3 s gated runs: a 1 us and a 1 ms gate period at the default duty, each with
# gated and ungated darks
_FROZEN_GATED = [
    ("reference", 19, 1000.0, True, 7616,
     "815fdcedf4cdf7294f7ceb9e03e8be77f71f78c35f46541981a5b9b43ae8b283"),
    ("reference", 20, 1000.0, False, 7906,
     "de067dff4e14c2e787dd6124a56c7357a7421d74b67ff10ccef9049c5b50f3bf"),
    ("reference", 21, 1e6, True, 8573,
     "0a5c69666fe1dcff051c08ae06ae0ab88036d91f73b27cf588e9265a200001dc"),
    ("reference", 22, 1e6, False, 8446,
     "de77d53c11eb0ac94766784d729c013f2a23664042bd5f96fb7cc5c237dda534"),
    ("signal-autocorr", 23, 1000.0, True, 7612,
     "e7d755e5151f059ebb928cda63d0dc2885a9aff9b1b2b04234d9f15d53b903c9"),
    ("signal-autocorr", 24, 1000.0, False, 7641,
     "0eac6d490370ef49d47d1c222953a056a62d1d6f0937ae245d82e590d31eccd8"),
    ("signal-autocorr", 25, 1e6, True, 8367,
     "0feca98702062f6af3d038631a9a69ed74824f50a2524342d99c00ec719ebc46"),
    ("signal-autocorr", 26, 1e6, False, 8627,
     "ba713f45954458de032858cd09433f43e0658d2628fa4afbc0277eda1c7c9119"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("preset,seed,period_ns,gate_darks,n_tags,digest", _FROZEN_GATED)
def test_gated_streams_are_frozen(preset, seed, period_ns, gate_darks, n_tags, digest, workers):
    """Gated draws are pinned too, so a change to how the gate is applied
    must keep every tag or say why it does not."""
    frozen = _frozen_stream(
        preset, seed, 3.0, 0.0, workers, gate_period_ns=period_ns, gate_darks=gate_darks
    )
    assert frozen == (n_tags, digest)


def test_a_long_draw_peaks_below_2_3_times_its_stream():
    """The 300 s idler-autocorr run at 1 worker peaks in its 1.68 M-pair
    task, which then holds the pair times, the outcome draws and two bytes a
    pair: about 2.1 streams in all. An 8-byte outcome index would take it to 2.6."""
    params = preset_config("idler-autocorr").make_source()
    tracemalloc.start()
    try:
        stream = simulate_source(params, 300.0, 17, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(times.nbytes for times in _per_channel(stream))
    assert peak < 2.3 * nbytes, f"peak {peak / nbytes:.2f} streams"


class _Geometric:
    """Forwards the slot draws' exponentials to a seeded generator, cutting
    the first chunk to a quarter of the size asked for if ``cut_first``."""

    def __init__(self, seed, cut_first):
        self.rng, self.cut_first, self.sizes = np.random.default_rng(seed), cut_first, []

    def standard_exponential(self, size):
        if self.cut_first and not self.sizes:
            size //= 4
        self.sizes.append(size)
        return self.rng.standard_exponential(size)


def test_pair_slots_continue_after_a_short_chunk():
    """A first chunk that ends short of the block goes on from its last slot
    with the generator's next draws, so it gives the one-chunk draw."""
    one, cut = _Geometric(3, cut_first=False), _Geometric(3, cut_first=True)
    whole = simulator._pair_slots(one, 2_000_000, 0.01)
    assert len(one.sizes) == 1 and whole.size > 19_000
    assert np.array_equal(simulator._pair_slots(cut, 2_000_000, 0.01), whole)
    assert len(cut.sizes) > 1


def _pair_slots_by_geometric(rng, n_slots, mu):
    """The slot draw as numpy's geometric gaps, chunked as the simulator
    chunks them: the definition the exponential inversion must reproduce."""
    chunks, pos = [], 0
    while True:
        expect = (n_slots - pos) * mu
        size = int(expect + 6.0 * np.sqrt(expect * (1.0 + mu) + 1.0)) + 16
        idx = pos + np.cumsum(rng.geometric(mu / (1.0 + mu), size=size) - 1)
        inside = int(np.searchsorted(idx, n_slots))
        chunks.append(idx[:inside])
        if inside < idx.size:
            return np.concatenate(chunks)
        pos = int(idx[-1])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("p", [1e-4, 3e-3, 0.17, 0.3333])
def test_pair_slots_are_the_geometric_draw(p, seed):
    """Below p = 1/3 numpy draws a geometric gap as ceil(E / -log1p(-p)),
    so the inversion gives its slots draw for draw."""
    mu = p / (1.0 - p)
    got = simulator._pair_slots(np.random.default_rng(seed), 300_000, mu)
    want = _pair_slots_by_geometric(np.random.default_rng(seed), 300_000, mu)
    assert got.dtype == np.int64 and got.size > 10
    assert np.array_equal(got, want)


@pytest.mark.parametrize("mu", [1e-12, 3.4e-19, 1e-30])
def test_pair_slots_stay_in_the_block_at_tiny_means(mu):
    """Gaps of about 1/mu slots, summed, pass 2^63 below mu = 1e-18 (a pump of
    1e-15 mW); the slots must still ascend and lie inside the block."""
    for seed in range(5):
        slots = simulator._pair_slots(np.random.default_rng(seed), 1 << 30, mu)
        assert np.all(slots[1:] >= slots[:-1])
        assert np.all((slots >= 0) & (slots < 1 << 30))


def _detector(efficiency):
    return st.builds(
        DetectorSpec,
        st.just(efficiency),
        st.sampled_from([0.0, 2_000.0]),
        st.sampled_from([0.0, 50e-9, 2e-6]),
    )


# short runs: several modes, gates with and without gated darks, the
# uncorrelated surrogate, dead time, and pump powers up to a dense 40 mW
_SHORT_SOURCES = st.builds(
    SourceParams,
    pump_mw=st.sampled_from([0.5, 5.0, 40.0]),
    mode_weights=st.sampled_from([(1.0,), (1.0, 0.6, 0.6), (1.0, 0.8, 0.8, 0.45, 0.45)]),
    idler_filter_extinction=st.sampled_from([0.0, 0.05]),
    splitter_ratio=st.sampled_from([1.0, 0.5]),
    detector_a=_detector(0.5),
    detector_b=_detector(0.4),
    detector_i=_detector(0.6),
    gate=st.none() | st.builds(
        GateSpec, st.integers(500_000, 5_000_000), st.sampled_from([0.3, 0.5, 1.0])
    ),
    gate_darks=st.booleans(),
    pair_correlations=st.booleans(),
)


def _per_channel(stream):
    return [stream.channel_times(c) for c in _CHANNELS]


def _same_on_any_worker_count(params, duration_s, seed):
    """Each channel's times on 1 worker.  They must meet the stream's rules,
    which the stream does not check for the simulator, and 2 and 4 workers
    must give the same times."""
    serial = _per_channel(simulate_source(params, duration_s, seed, workers=1))
    duration_ps = round(duration_s * 1e12)
    for times in serial:
        assert times.dtype == np.int64 and not times.flags.writeable
        assert np.all(times[1:] > times[:-1])
        assert times.size == 0 or (times[0] >= 0 and times[-1] < duration_ps)
    for workers in (2, 4):
        threaded = _per_channel(simulate_source(params, duration_s, seed, workers=workers))
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded)), workers
    return serial


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_SHORT_SOURCES, st.sampled_from([0.05, 0.2]), st.integers(0, 2**31))
def test_streams_do_not_depend_on_the_worker_count(params, duration_s, seed):
    _same_on_any_worker_count(params, duration_s, seed)


@pytest.mark.parametrize(
    "params",
    [SourceParams(creation_prob_per_mw=50.0), SourceParams(detector_a=DetectorSpec(0.5, 1e8))],
    ids=["signal-delays-past-the-run-ends", "same-picosecond-darks"],
)
def test_one_millisecond_streams_meet_the_stream_rules(params):
    """About 125 000 pairs in 1 ms delay signal tags past the run's ends,
    which the cut must drop; 100 000 darks in 1 ms hold a few pairs in the
    same picosecond, which the dedupe must merge."""
    _same_on_any_worker_count(params, 1e-3, 21)


def test_two_block_run_does_not_depend_on_the_worker_count():
    """1 ns slots over 1.5 s are more than 2^30 slots, so each mode draws
    from two blocks."""
    params = SourceParams(
        pump_mw=0.05, mode_weights=(1.0, 0.5), coherence_slot_s=1e-9,
        detector_a=DetectorSpec(1.0, 100.0, 1e-7),
    )
    assert 1.5 / params.slot_s > simulator._SLOTS_PER_BLOCK
    a, _, idler = _same_on_any_worker_count(params, 1.5, 12)
    # both blocks hold tags
    block_end_ps = simulator._SLOTS_PER_BLOCK * 1000
    assert (idler < block_end_ps).any() and (idler >= block_end_ps).any()
    assert (a < block_end_ps).any() and (a >= block_end_ps).any()


def _chunked_analyses(stream, workers):
    """Every chunked stop search of the correlator on one stream."""
    hist = cross_correlation_histogram(stream, 2, 0, 1_000, (-1_500_000, 1_500_000), workers)
    sweep = window_sweep(stream, 2, 0, (1_001, 40_000, 400_001), 1.0, workers=workers)
    fasel = heralded_autocorrelation(stream, 2, 0, 1, 400_000, workers=workers)
    return hist.counts.tolist(), sweep, fasel.histogram.counts.tolist()


def test_tasks_run_once_each_under_fast_thread_switching():
    """More threads than cores and a thread switch every microsecond: every
    item is taken exactly once and its result lands in its own place, and the
    simulator and the correlator give the same results on any worker count."""
    taken = []

    def square(i):
        taken.append(i)
        if i == 7:
            raise ValueError("task 7")
        return i * i

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 3, 8):
            taken.clear()
            items = [i for i in range(400) if i != 7]
            assert in_order(square, items, workers) == [i * i for i in items]
            assert sorted(taken) == items
            with pytest.raises(ValueError, match="task 7"):
                in_order(square, list(range(50)), workers)
        params = SourceParams(
            pump_mw=20.0, mode_weights=(1.0, 0.6, 0.6, 0.3, 0.3), splitter_ratio=0.5
        )
        stream = simulate_source(params, 0.3, 4)
        want = _per_channel(stream)
        got = _per_channel(simulate_source(params, 0.3, 4, workers=8))
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        # chunks of 4 starts, so the correlator runs thousands of tasks
        assert stream.channel_times(2).size > 1_000
        with mock.patch.object(correlator, "_CHUNK_STARTS", 4):
            assert _chunked_analyses(stream, 8) == _chunked_analyses(stream, 1)
        # runs of about 40 pairs, so each task adds to the shared total repeatedly
        with mock.patch.multiple(correlator, _CHUNK_STARTS=64, _CHUNK_PAIRS=40):
            assert _chunked_analyses(stream, 8) == _chunked_analyses(stream, 1)
    finally:
        sys.setswitchinterval(switch)


def test_invalid_runs_are_rejected():
    params = SourceParams()
    with pytest.raises(ModelError, match="duration"):
        simulate_source(params, 0.0, seed=1)
    with pytest.raises(ModelError, match="seed"):
        simulate_source(params, 1.0, seed=-3)
    with pytest.raises(ModelError, match="overflows"):
        simulate_source(params, 5e6, seed=1)


def test_parameter_validation():
    with pytest.raises(ModelError, match="pump power"):
        SourceParams(pump_mw=-1.0)
    with pytest.raises(ModelError, match="splitter_ratio"):
        SourceParams(splitter_ratio=1.2)
    with pytest.raises(ModelError, match="mode weights"):
        SourceParams(mode_weights=())
    with pytest.raises(ModelError, match="reference window"):
        SourceParams(reference_window_s=0.0)
    with pytest.raises(ModelError, match="coherence slot"):
        SourceParams(coherence_slot_s=0.0)
    with pytest.raises(ModelError, match="linewidths"):
        SourceParams(signal_linewidth_hz=0.0)


def test_derived_quantities():
    params = SourceParams(mode_weights=(1.0, 0.8, 0.8, 0.45, 0.45))
    assert params.central_pair_rate_hz == pytest.approx(0.00271 * 1.0 / 4e-7, rel=1e-12)
    # default slot follows the pair bandwidth
    assert params.slot_s == pytest.approx(1.1221265082859837e-07, rel=1e-9)
    assert SourceParams(coherence_slot_s=5e-8).slot_s == 5e-8


def test_channel_labels_follow_roles():
    stream = simulate_source(SourceParams(), 0.2, seed=5)
    assert stream.channel_labels[CHANNEL_SIGNAL_A] == "signal-A"
    assert stream.channel_labels[CHANNEL_SIGNAL_B] == "signal-B"
    assert stream.channel_labels[CHANNEL_IDLER] == "idler"


# --- rates ---------------------------------------------------------------------


def test_dark_counts_alone_match_their_rates():
    params = SourceParams(
        pump_mw=0.0,
        detector_a=DetectorSpec(1.0, 300.0),
        detector_b=DetectorSpec(1.0, 150.0),
        detector_i=DetectorSpec(1.0, 500.0),
    )
    duration = 5.0
    stream = simulate_source(params, duration, seed=6)
    for channel, rate in ((0, 300.0), (1, 150.0), (2, 500.0)):
        expect = rate * duration
        assert abs(stream.count(channel) - expect) < 4.0 * np.sqrt(expect)


def test_detected_pair_rate_tracks_creation_probability():
    params = SourceParams()  # lossless, splitter sends all signal to A
    duration = 3.0
    stream = simulate_source(params, duration, seed=7)
    expect = params.central_pair_rate_hz * duration
    assert stream.count(1) == 0
    # the tagless signal-B channel stays in the stream and in its file header
    assert stream.channel_labels == {0: "signal-A", 1: "signal-B", 2: "idler"}
    buf = io.BytesIO()
    write_tags(stream, buf)
    assert HEADER_STRUCT.unpack_from(buf.getvalue())[4] == 3
    for channel in (0, 2):
        assert abs(stream.count(channel) - expect) < 4.5 * np.sqrt(expect)


def test_splitter_ratio_sets_arm_fractions():
    params = SourceParams(splitter_ratio=0.75)
    stream = simulate_source(params, 3.0, seed=8)
    n_a, n_b = stream.count(0), stream.count(1)
    fraction = n_a / (n_a + n_b)
    sigma = np.sqrt(0.75 * 0.25 / (n_a + n_b))
    assert abs(fraction - 0.75) < 5.0 * sigma


def test_efficiencies_thin_the_arms():
    params = SourceParams(
        escape_s=0.5, transmission_i=0.4, detector_i=DetectorSpec(0.5)
    )
    stream = simulate_source(params, 3.0, seed=9)
    pairs = params.central_pair_rate_hz * 3.0
    assert abs(stream.count(0) - 0.5 * pairs) < 5.0 * np.sqrt(0.5 * pairs)
    assert abs(stream.count(2) - 0.2 * pairs) < 5.0 * np.sqrt(0.2 * pairs)


def test_expected_tags_are_the_mean_of_a_draw():
    # side modes, a lossy signal arm split over A and B, a leaky idler filter
    params = SourceParams(
        mode_weights=(1.0, 0.5, 0.5),
        escape_s=0.5,
        idler_filter_extinction=0.2,
        splitter_ratio=0.5,
        detector_a=DetectorSpec(1.0, 100.0),
        detector_i=DetectorSpec(0.5, 50.0),
    )
    (photons, dark_a), (_, dark_b), (idler, dark_i) = params.expected_tags(2.0).values()
    assert (photons, idler) == pytest.approx((13_550.0, 8_130.0), rel=1e-12)
    stream = simulate_source(params, 2.0, seed=10)
    for n, expect in (
        (stream.count(0) + stream.count(1), photons + dark_a + dark_b),
        (stream.count(2), idler + dark_i),
    ):
        assert abs(n - expect) < 5.0 * np.sqrt(expect)


# --- pair delay structure ---------------------------------------------------------


def _positive_delay_fraction(stream):
    hist = cross_correlation_histogram(stream, 2, 0, 1_000, (-1_500_000, 1_500_000))
    half = hist.n_bins // 2
    neg = int(hist.counts[:half].sum())
    pos = int(hist.counts[half:].sum())
    return pos / (pos + neg)


def test_pair_delay_asymmetry_follows_the_linewidths():
    """The signal-side exponential decays faster, so less delay mass sits at
    positive (signal later) delays; swapping linewidths mirrors the shape."""
    expect = (1 / 3.7e6) / (1 / 3.7e6 + 1 / 2.3e6)
    forward = simulate_source(SourceParams(), 3.0, seed=10)
    f = _positive_delay_fraction(forward)
    assert abs(f - expect) < 0.02
    swapped = simulate_source(
        SourceParams(signal_linewidth_hz=2.3e6, idler_linewidth_hz=3.7e6), 3.0, seed=11
    )
    g = _positive_delay_fraction(swapped)
    assert abs(g - (1.0 - expect)) < 0.02
    assert f < 0.45 < 0.55 < g


def test_pair_correlations_can_be_disabled():
    surrogate = simulate_source(SourceParams(pair_correlations=False), 10.0, seed=12)
    hist = cross_correlation_histogram(surrogate, 2, 0, 5_000, (-5_500_000, 5_500_000))
    flat = normalized_g2(hist, 400_000, center_ps=0)
    assert abs(flat.value - 1.0) < 4.0 * flat.uncertainty
    assert flat.uncertainty < 0.15

    paired = simulate_source(SourceParams(), 10.0, seed=12)
    hist2 = cross_correlation_histogram(paired, 2, 0, 5_000, (-5_500_000, 5_500_000))
    bunched = normalized_g2(hist2, 400_000, center_ps=0)
    assert bunched.value > 50.0


# --- gating and dead time -----------------------------------------------------------


@pytest.mark.parametrize(
    "gate, open_ps, opened, closed",
    [
        (
            GateSpec(period_ps=100, duty=0.5, phase_ps=30), 50,
            [30, 79, 130, 179], [29, 80, 129, 180],
        ),
        # duty 1 opens every time, before the phase too
        (GateSpec(period_ps=777, duty=1.0, phase_ps=12), 777, list(range(2_000)), []),
    ],
    ids=["half-duty", "full-duty"],
)
def test_gate_open_mask_respects_phase(gate, open_ps, opened, closed):
    mask = gate.open_mask(np.arange(2_000))
    assert mask[opened].all()
    assert not mask[closed].any()
    assert gate.open_ps == open_ps


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec(period_ps=0)
    with pytest.raises(ValueError):
        GateSpec(period_ps=100, duty=0.0)
    with pytest.raises(ValueError):
        GateSpec(period_ps=100, duty=1.5)


def test_gated_source_confines_idler_tags_to_open_windows():
    gate = GateSpec(period_ps=10**9, duty=0.5)
    params = SourceParams(gate=gate)
    stream = simulate_source(params, 2.0, seed=13)
    idler = stream.channel_times(2)
    assert idler.size > 1_000
    assert np.all((idler % 10**9) < gate.open_ps)


def test_gate_darks_flag_controls_dark_gating():
    gate = GateSpec(period_ps=10**9, duty=0.5)
    gated = simulate_source(
        SourceParams(pump_mw=0.0, gate=gate, detector_i=DetectorSpec(1.0, 2_000.0)),
        2.0,
        seed=14,
    )
    times = gated.channel_times(2)
    assert times.size > 500
    assert np.all((times % 10**9) < gate.open_ps)

    ungated = simulate_source(
        SourceParams(
            pump_mw=0.0, gate=gate, gate_darks=False, detector_i=DetectorSpec(1.0, 2_000.0)
        ),
        2.0,
        seed=14,
    )
    closed = (ungated.channel_times(2) % 10**9) >= gate.open_ps
    assert closed.mean() > 0.3


def test_short_gate_periods_keep_the_duty_share():
    """A 1 us gate over 2 s has 2e6 periods; the gate is a mask on one time
    axis, so this costs about what the ungated run costs."""
    gate = GateSpec(period_ps=1_000_000, duty=0.5)
    gated = simulate_source(SourceParams(gate=gate), 2.0, seed=16)
    assert all(np.all(gate.open_mask(gated.channel_times(ch))) for ch in _CHANNELS)
    n_ungated = simulate_source(SourceParams(), 2.0, seed=16).count(2)
    expect = gate.duty * n_ungated
    assert n_ungated > 10_000
    assert abs(gated.count(2) - expect) < 5.0 * np.sqrt(expect)


def test_gated_dark_counts_follow_the_duty():
    gate = GateSpec(period_ps=1_000_000, duty=0.3)
    params = SourceParams(pump_mw=0.0, gate=gate, detector_i=DetectorSpec(1.0, 5_000.0))
    stream = simulate_source(params, 2.0, seed=17)
    expect = 5_000.0 * gate.duty * 2.0
    assert abs(stream.count(2) - expect) < 5.0 * np.sqrt(expect)


def test_dead_time_enforces_minimum_spacing():
    params = SourceParams(
        pump_mw=0.0, detector_i=DetectorSpec(1.0, 100_000.0, dead_time_s=1e-6)
    )
    stream = simulate_source(params, 1.0, seed=15)
    gaps = np.diff(stream.channel_times(2))
    assert gaps.size > 1_000
    assert gaps.min() >= 10**6

    free = simulate_source(
        SourceParams(pump_mw=0.0, detector_i=DetectorSpec(1.0, 100_000.0)), 1.0, seed=15
    )
    assert np.diff(free.channel_times(2)).min() < 10**6


def _sequential_dead_time(times, channels, dead_ps):
    """The plain rule: a tag is dropped when it comes less than the dead time
    after the last kept tag on its channel."""
    keep = np.ones(times.size, dtype=bool)
    for channel, dead in enumerate(dead_ps):
        if dead <= 0:
            continue
        last = -dead - 1
        for j in np.flatnonzero(channels == channel):
            if times[j] - last < dead:
                keep[j] = False
            else:
                last = times[j]
    return times[keep], channels[keep]


# dense times on three channels: gaps equal to the dead time and long chains
# of short gaps are common
_DEAD_RECORDS = st.one_of(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2)), max_size=60),
    st.lists(st.tuples(st.integers(0, 400), st.integers(0, 2)), min_size=50, max_size=200),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_DEAD_RECORDS, st.tuples(*[st.integers(0, 9)] * 3))
def test_clustered_dead_time_matches_the_sequential_rule(records, dead_ps):
    records = sorted(set(records))
    times = np.array([t for t, _ in records], dtype=np.int64)
    channels = np.array([c for _, c in records], dtype=np.uint8)
    want_times, want_channels = _sequential_dead_time(times, channels, dead_ps)
    for channel, dead in enumerate(dead_ps):
        got = simulator._apply_dead_time(times[channels == channel], dead)
        assert np.array_equal(got, want_times[want_channels == channel])
