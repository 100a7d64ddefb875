"""The thin-first pair generator against the per-pair generator it replaced.

The simulator draws only the pairs that leave at least one kept detection.
The oracle below is the earlier generator: it draws every created pair and
thins each photon with its own Bernoulli draw.  The two use different random
draws, so their streams differ; over many seeds their statistics must agree.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from biphoton import simulator
from biphoton.models import DetectorSpec
from biphoton.simulator import (
    CHANNEL_IDLER,
    CHANNEL_SIGNAL_A,
    CHANNEL_SIGNAL_B,
    GateSpec,
    SourceParams,
    simulate_source,
)

_ORACLE_SLOTS_PER_BLOCK = 1 << 22


def _occupied_slots(rng, n_slots, q):
    """Indices of slots holding at least one pair; occupancy i.i.d. with
    probability ``q``, sampled via geometric gaps."""
    chunks = []
    pos = -1
    while True:
        expect = (n_slots - 1 - pos) * q
        size = int(expect + 6.0 * math.sqrt(expect + 1.0)) + 16
        idx = pos + np.cumsum(rng.geometric(q, size=size), dtype=np.int64)
        inside = idx[idx < n_slots]
        chunks.append(inside)
        if inside.size < idx.size:
            return np.concatenate(chunks)
        pos = int(idx[-1])


def _pair_block(rng, block_start_ps, n_slots, slot_ps, mu, tau_fall_ps, tau_rise_ps):
    """(idler, signal) emission times for one slot block of one mode."""
    occ = _occupied_slots(rng, n_slots, mu / (1.0 + mu))
    if occ.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    counts = rng.geometric(1.0 / (1.0 + mu), size=occ.size)
    slot_starts = block_start_ps + occ * slot_ps
    idler = np.repeat(slot_starts, counts) + rng.integers(
        0, slot_ps, size=int(counts.sum()), dtype=np.int64
    )
    falling = rng.random(idler.size) < tau_fall_ps / (tau_fall_ps + tau_rise_ps)
    mag = rng.standard_exponential(idler.size)
    delay = np.where(falling, mag * tau_fall_ps, -mag * tau_rise_ps)
    signal = idler + np.rint(delay).astype(np.int64)
    return idler, signal


def _per_pair_photons(params, duration_ps, seed, salt, keep_signal, keep_idler):
    """Every created pair is drawn, then each photon is thinned on its own."""
    ps_per_s = 10**12
    slot_ps = max(int(round(params.slot_s * ps_per_s)), 1)
    tau_fall_ps = ps_per_s / (2.0 * math.pi * params.signal_linewidth_hz)
    tau_rise_ps = ps_per_s / (2.0 * math.pi * params.idler_linewidth_hz)
    signal_common = params.escape_s * params.transmission_s
    eff_a = signal_common * params.splitter_ratio * params.detector_a.efficiency
    eff_b = signal_common * (1.0 - params.splitter_ratio) * params.detector_b.efficiency
    idler_common = params.escape_i * params.transmission_i * params.detector_i.efficiency

    n_slots_run = -(-duration_ps // slot_ps)
    times = []
    channels = []
    w0 = params.mode_weights[0]
    for mode, weight in enumerate(params.mode_weights):
        mu = params.central_pair_rate_hz * (weight / w0) * (slot_ps / ps_per_s)
        if mu <= 0.0:
            continue
        filt = params.idler_filter_transmission if mode == 0 else params.idler_filter_extinction
        p_idler = idler_common * filt
        for block in range(-(-n_slots_run // _ORACLE_SLOTS_PER_BLOCK)):
            rng = np.random.default_rng(np.random.SeedSequence((seed, salt, 0, mode, block)))
            n_slots = min(_ORACLE_SLOTS_PER_BLOCK, n_slots_run - block * _ORACLE_SLOTS_PER_BLOCK)
            idler, signal = _pair_block(
                rng, block * _ORACLE_SLOTS_PER_BLOCK * slot_ps, n_slots, slot_ps,
                mu, tau_fall_ps, tau_rise_ps,
            )
            if params.gate is not None:
                created = params.gate.open_mask(idler)
                idler, signal = idler[created], signal[created]
            u_idler = rng.random(idler.size)
            u_signal = rng.random(signal.size)
            if keep_idler and p_idler > 0.0:
                kept = idler[u_idler < p_idler]
                times.append(kept)
                channels.append(np.full(kept.size, CHANNEL_IDLER, dtype=np.uint8))
            if keep_signal:
                to_a = signal[u_signal < eff_a]
                to_b = signal[(u_signal >= eff_a) & (u_signal < eff_a + eff_b)]
                times += [to_a, to_b]
                channels.append(np.full(to_a.size, CHANNEL_SIGNAL_A, dtype=np.uint8))
                channels.append(np.full(to_b.size, CHANNEL_SIGNAL_B, dtype=np.uint8))
    if not times:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    return np.concatenate(times), np.concatenate(channels)


def _per_pair_tasks(*args):
    """The oracle in the generator's shape: a list of tasks, here one, each
    giving its photon times per channel."""
    times, channels = _per_pair_photons(*args)
    channel_ids = (CHANNEL_SIGNAL_A, CHANNEL_SIGNAL_B, CHANNEL_IDLER)
    by_channel = {c: times[channels == c] for c in channel_ids}
    return [lambda: by_channel]


# --- statistics of one run ----------------------------------------------------------

DURATION_S = 0.2
WINDOWS_PS = (20_000, 400_000)
N_SEEDS = 200

# three modes; the side modes never reach the idler detector
BASE = SourceParams(
    pump_mw=25.0,
    mode_weights=(1.0, 0.6, 0.6),
    escape_s=0.8,
    transmission_s=0.7,
    escape_i=0.7,
    transmission_i=0.8,
    idler_filter_extinction=0.0,
    splitter_ratio=0.5,
    detector_a=DetectorSpec(0.5),
    detector_b=DetectorSpec(0.4),
    detector_i=DetectorSpec(0.6),
)
SOURCES = {
    "paired": BASE,
    "gated": replace(BASE, gate=GateSpec(period_ps=2_000_000, duty=0.4)),
    "unpaired": replace(BASE, pair_correlations=False),
}


def _pairs_within(a, b, window):
    """Ordered pairs (x in a, y in b) with y - x in [-(w // 2), w - w // 2)."""
    lo, hi = -(window // 2), window - window // 2
    return int((np.searchsorted(b, a + hi) - np.searchsorted(b, a + lo)).sum())


def _run_statistics(stream):
    duration_ps = DURATION_S * 1e12
    a, b, i = (stream.channel_times(c) for c in (CHANNEL_SIGNAL_A, CHANNEL_SIGNAL_B, CHANNEL_IDLER))
    stats = {"singles_a": a.size, "singles_b": b.size, "singles_i": i.size}
    for w in WINDOWS_PS:
        c_ia, c_ib, c_ab = _pairs_within(i, a, w), _pairs_within(i, b, w), _pairs_within(a, b, w)
        # a tag always pairs with itself at zero delay
        c_ii = _pairs_within(i, i, w) - i.size
        stats[f"coinc_ia_{w}"] = c_ia
        stats[f"coinc_ib_{w}"] = c_ib
        stats[f"coinc_ab_{w}"] = c_ab
        stats[f"g2_si_{w}"] = c_ia * duration_ps / (i.size * a.size * w)
        stats[f"g2_ss_{w}"] = c_ab * duration_ps / (a.size * b.size * w)
        stats[f"g2_ii_{w}"] = c_ii * duration_ps / (i.size * (i.size - 1) * w)
    return stats


def _statistics_over_seeds(params):
    runs = [_run_statistics(simulate_source(params, DURATION_S, seed)) for seed in range(N_SEEDS)]
    return {key: np.array([r[key] for r in runs], dtype=float) for key in runs[0]}


@pytest.mark.parametrize("name", list(SOURCES))
def test_thin_first_generator_matches_the_per_pair_oracle(monkeypatch, name):
    """Over 200 seeds, singles, window coincidences and g2_si, g2_ss, g2_ii
    of the two generators agree within 4 standard errors."""
    params = SOURCES[name]
    new = _statistics_over_seeds(params)
    monkeypatch.setattr(simulator, "_generate_photons", _per_pair_tasks)
    old = _statistics_over_seeds(params)
    assert old["singles_i"].mean() > 2_000 and old["singles_a"].mean() > 1_000
    assert old["coinc_ab_400000"].mean() > 50 and old["coinc_ia_20000"].mean() > 5
    for key in new:
        se = math.sqrt((new[key].var(ddof=1) + old[key].var(ddof=1)) / N_SEEDS)
        pull = (new[key].mean() - old[key].mean()) / se
        assert abs(pull) < 4.0, f"{key}: {new[key].mean():.5g} against {old[key].mean():.5g}"
    g2_si = old[f"g2_si_{WINDOWS_PS[0]}"].mean()
    assert (g2_si > 10.0) if params.pair_correlations else (abs(g2_si - 1.0) < 0.2)
