"""Monte Carlo generation of detector time tags for a cavity-enhanced
photon-pair source.

Statistics model
----------------
Pair creation is thermal per longitudinal mode.  Time is partitioned into
coherence slots; in every slot each mode draws a pair count from the
Bose-Einstein distribution with mean mu_m = central_rate * w_m/w_0 * slot.
The idler emission time is uniform in its slot; the signal time is the idler
time plus a draw from the normalized two-sided exponential delay density
(falling constant 1/(2 pi dnu_s) toward positive delays, rising constant
1/(2 pi dnu_i) toward negative ones).  Losses, the idler mode filter, the
signal splitter and the detector efficiencies are independent Bernoulli
thinnings; dark counts are homogeneous Poisson processes per detector.

Thinning comes first: a Bose-Einstein count of mean mu, with each pair kept
with probability q, is Bose-Einstein with mean q * mu.  Here q =
1 - (1 - p_idler)(1 - p_A - p_B) is the chance that a pair leaves at least
one kept detection, so only those pairs are drawn.  Per slot, a further pair
follows each pair with probability q*mu / (1 + q*mu), so the slots between
consecutive pairs are geometric and empty slots cost nothing.  Each gap is
drawn by inversion, as ceil(E / -log(1 - p)) slots for a standard
exponential E and p = q*mu / (1 + q*mu).  Below p = 1/3 (q*mu below 0.5)
that is numpy's own geometric draw, so the slots are
``Generator.geometric``'s; above it numpy searches instead, and the draws
differ from its.  Each pair then takes one outcome (A only, B only,
idler+A, idler+B, idler only) with its probability given q, and only
surviving signal photons get a delay, drawn as the difference of two
exponentials.  A mode whose idler is filtered out is thereby a signal-only
process.

The slot model reproduces single-mode thermal bunching (g2 -> 2) and the
1 + 1/N reduction for N modes.  Its known artifact is that slot boundaries
smear the *shape* of autocorrelation peaks on the scale of one slot; choose
``coherence_slot_s`` accordingly when peak shapes matter.

Determinism
-----------
All randomness derives from one integer seed.  Pairs come from one slot grid
over the whole run, in blocks of 2^30 slots (a 300 s run of 250 ns slots
takes two per mode), each seeded from (seed, salt, mode, block) and split
into one sub-stream per stage (slots, emission offsets, outcomes, delays), so
no stage shifts another's draws; each detector's darks come from a seed of
their own.  A gate only masks: it changes neither the grid nor the seeds.
Each (mode, block) draw and each detector's cut, gate, sort, dedupe and dead
time is a task on ``workers`` threads; the tasks join in order, so any worker
count gives the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ._tasks import in_order
from .models import DetectorSpec, ModelError, biphoton_from_linewidths
from .tagstream import TagStream

CHANNEL_SIGNAL_A = 0
CHANNEL_SIGNAL_B = 1
CHANNEL_IDLER = 2

_PS_PER_S = 10**12
_SLOTS_PER_BLOCK = 1 << 30
# salts keep the independent random sub-streams from colliding
_SALT_PAIRS = 20
_SALT_DARKS = 29
_SALT_UNPAIRED_SIGNAL = 41
_SALT_UNPAIRED_IDLER = 43


@dataclass(frozen=True)
class GateSpec:
    """Periodic measurement gate (e.g. a chopped cavity lock).

    ``period_ps`` is the full cycle, ``duty`` the open fraction, ``phase_ps``
    the start of the open window within the cycle.
    """

    period_ps: int
    duty: float = 0.5
    phase_ps: int = 0

    def __post_init__(self) -> None:
        if self.period_ps <= 0:
            raise ModelError("gate period must be positive", "period_ps")
        if not 0.0 < self.duty <= 1.0:
            raise ModelError(f"gate duty must lie in (0, 1], got {self.duty}", "duty")

    @property
    def open_ps(self) -> int:
        return int(round(self.duty * self.period_ps))

    def open_mask(self, times_ps: np.ndarray) -> np.ndarray:
        return ((times_ps - self.phase_ps) % self.period_ps) < self.open_ps


@dataclass(frozen=True)
class SourceParams:
    """Physical description of the source, its losses and its detectors.

    ``creation_prob_per_mw`` is the pair-creation probability of the central
    mode per ``reference_window_s`` and per mW of pump; side modes scale it
    by ``mode_weights[m] / mode_weights[0]``.  Mode index 0 is the central
    (filter-transmitted) mode; odd/even indices 2k-1, 2k are the k-th modes
    above and below it.

    ``splitter_ratio`` is the fraction of surviving signal photons routed to
    signal-A (1.0 means no splitter, 0.5 a balanced one).  The idler filter
    transmits the central mode with ``idler_filter_transmission`` and every
    other mode with ``idler_filter_extinction``.

    ``coherence_slot_s`` is the thermal-statistics slot; ``None`` selects
    1/(pi * biphoton bandwidth) for the configured linewidths.

    ``gate`` is a periodic measurement gate.  Pairs are created only while it
    is open (the idler emission time decides); every tag is then masked at its
    own time, and dark counts only when ``gate_darks`` is true.  Generation
    cost scales with the run length, not with the number of gate periods.
    """

    pump_mw: float = 1.0
    creation_prob_per_mw: float = 2.71e-3
    reference_window_s: float = 400e-9
    signal_linewidth_hz: float = 3.7e6
    idler_linewidth_hz: float = 2.3e6
    mode_weights: tuple[float, ...] = (1.0,)
    escape_s: float = 1.0
    escape_i: float = 1.0
    transmission_s: float = 1.0
    transmission_i: float = 1.0
    idler_filter_transmission: float = 1.0
    idler_filter_extinction: float = 0.0
    splitter_ratio: float = 1.0
    detector_a: DetectorSpec = DetectorSpec(1.0)
    detector_b: DetectorSpec = DetectorSpec(1.0)
    detector_i: DetectorSpec = DetectorSpec(1.0)
    coherence_slot_s: float | None = None
    gate: GateSpec | None = None
    gate_darks: bool = True
    pair_correlations: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode_weights", tuple(float(w) for w in self.mode_weights))
        for name in ("pump_mw", "creation_prob_per_mw"):
            if getattr(self, name) < 0:
                raise ModelError("pump power and creation probability must be non-negative", name)
        if self.reference_window_s <= 0:
            raise ModelError("reference window must be positive", "reference_window_s")
        for name in ("signal_linewidth_hz", "idler_linewidth_hz"):
            if getattr(self, name) <= 0:
                raise ModelError("linewidths must be positive", name)
        if not self.mode_weights or min(self.mode_weights) < 0 or max(self.mode_weights) == 0:
            msg = "mode weights must be non-negative with at least one positive"
            raise ModelError(msg, "mode_weights")
        if self.mode_weights[0] <= 0:
            raise ModelError("the central mode weight must be positive", "mode_weights")
        for name in (
            "escape_s",
            "escape_i",
            "transmission_s",
            "transmission_i",
            "idler_filter_transmission",
            "idler_filter_extinction",
            "splitter_ratio",
        ):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ModelError(f"{name} must lie in [0, 1], got {val}", name)
        if self.coherence_slot_s is not None and self.coherence_slot_s <= 0:
            raise ModelError("coherence slot must be positive", "coherence_slot_s")

    @property
    def slot_s(self) -> float:
        if self.coherence_slot_s is not None:
            return self.coherence_slot_s
        spec = biphoton_from_linewidths(self.signal_linewidth_hz, self.idler_linewidth_hz)
        return 1.0 / (math.pi * spec.bandwidth_hz)

    @property
    def central_pair_rate_hz(self) -> float:
        """Created pairs per second in the central mode at the set pump."""
        return self.creation_prob_per_mw * self.pump_mw / self.reference_window_s

    def expected_tags(self, duration_s: float) -> dict[str, tuple[float, float]]:
        """Detector field -> (photons, darks) it expects in ``duration_s``,
        before the gate and dead time and with the whole of its arm routed to
        it, so at least the mean of a draw at any splitter ratio."""
        w = self.mode_weights
        pairs = self.central_pair_rate_hz / w[0] * duration_s
        signal = pairs * sum(w) * self.escape_s * self.transmission_s
        filtered = self.idler_filter_transmission * w[0]
        filtered += self.idler_filter_extinction * (sum(w) - w[0])
        idler = pairs * filtered * self.escape_i * self.transmission_i
        counts = {}
        for name, arm in zip(("detector_a", "detector_b", "detector_i"), (signal, signal, idler)):
            detector = getattr(self, name)
            counts[name] = (arm * detector.efficiency, detector.dark_rate_hz * duration_s)
        return counts


# ---------------------------------------------------------------------------
# tag generation
# ---------------------------------------------------------------------------


def _pair_slots(rng: np.random.Generator, n_slots: int, mu: float) -> np.ndarray:
    """Slot index of every pair, ascending, with Bose-Einstein counts of mean
    ``mu`` per slot: a slot takes a (further) pair with probability
    mu/(1+mu), else the next slot opens, so the number of slots opened
    before each pair is geometric and empty slots cost nothing."""
    # numpy's geometric G, with P(G = g) = (1 - p)^(g - 1) p for p = mu/(1+mu), is
    # ceil(E / rate) for a standard exponential E: one log per chunk, not per pair
    rate = -math.log1p(-mu / (1.0 + mu))
    chunks = []
    pos = 0
    while True:
        expect = (n_slots - pos) * mu
        size = int(expect + 6.0 * math.sqrt(expect * (1.0 + mu) + 1.0)) + 16
        idx = rng.standard_exponential(size)
        idx /= rate
        np.ceil(idx, out=idx)
        idx -= 1.0
        # whole numbers, so the sums are exact up to 2^53, far past a block's 2^30 slots
        np.cumsum(idx, out=idx)
        idx += pos
        inside = int(np.searchsorted(idx, n_slots))
        # the cast frees the drawn chunk now; a view would hold it until the idler cut
        chunks.append(idx[:inside].astype(np.int64))
        if inside < idx.size:
            return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        pos = int(idx[-1])


def _generate_photons(
    params: SourceParams,
    duration_ps: int,
    seed: int,
    salt: int,
    keep_signal: bool,
    keep_idler: bool,
) -> list[Callable[[], dict[int, np.ndarray]]]:
    """One task per (mode, block), each returning the block's surviving
    photon times per channel, unsorted; only the arms asked for are kept, and
    only pairs they see are drawn."""
    slot_ps = max(int(round(params.slot_s * _PS_PER_S)), 1)
    central_rate = params.central_pair_rate_hz
    tau_fall_ps = _PS_PER_S / (2.0 * math.pi * params.signal_linewidth_hz)
    tau_rise_ps = _PS_PER_S / (2.0 * math.pi * params.idler_linewidth_hz)
    signal_common = params.escape_s * params.transmission_s if keep_signal else 0.0
    p_a = signal_common * params.splitter_ratio * params.detector_a.efficiency
    p_b = signal_common * (1.0 - params.splitter_ratio) * params.detector_b.efficiency
    idler_common = params.escape_i * params.transmission_i * params.detector_i.efficiency
    n_slots_run = -(-duration_ps // slot_ps)

    def draw(mode: int, block: int, mu: float, q: float, edges: np.ndarray) -> dict:
        # one sub-stream per stage, so no stage shifts another's draws
        slot_rng, offset_rng, outcome_rng, delay_rng = (
            np.random.default_rng(s)
            for s in np.random.SeedSequence((seed, salt, mode, block)).spawn(4)
        )
        n_slots = min(_SLOTS_PER_BLOCK, n_slots_run - block * _SLOTS_PER_BLOCK)
        idler = _pair_slots(slot_rng, n_slots, mu)
        idler += block * _SLOTS_PER_BLOCK
        idler *= slot_ps
        idler += offset_rng.integers(0, slot_ps, size=idler.size, dtype=np.int64)
        if params.gate is not None:
            # pairs are created only while the gate is open
            idler = idler[params.gate.open_mask(idler)]
        u = outcome_rng.random(idler.size)
        u *= q
        outcome = np.zeros(u.size, dtype=np.uint8)
        for edge in edges:
            outcome += u >= edge
        del u
        # one index of the pairs with a signal serves both signal takes; it costs 8 bytes
        # a kept pair, so the returned cuts that can keep nearly all (idler, signal-A)
        # stay masks
        with_signal = np.flatnonzero(outcome < 4)
        signal = idler.take(with_signal)
        # outcomes 0 and 2 reach signal-A, the odd ones 1 and 3 signal-B
        odd = (outcome.take(with_signal) & 1).view(bool)
        del with_signal
        idler = idler[outcome >= 2]
        del outcome
        n = signal.size
        delay = delay_rng.standard_exponential(n)
        delay *= tau_fall_ps
        rise = delay_rng.standard_exponential(n)
        rise *= tau_rise_ps
        delay -= rise
        del rise
        signal += np.rint(delay, out=delay).astype(np.int64)
        a, b = signal[~odd], np.compress(odd, signal)
        return {CHANNEL_IDLER: idler, CHANNEL_SIGNAL_A: a, CHANNEL_SIGNAL_B: b}

    tasks = []
    w0 = params.mode_weights[0]
    for mode, weight in enumerate(params.mode_weights):
        filt = params.idler_filter_transmission if mode == 0 else params.idler_filter_extinction
        p_i = idler_common * filt if keep_idler else 0.0
        # A only, B only, idler+A, idler+B, idler only
        outcome_probs = [
            (1.0 - p_i) * p_a, (1.0 - p_i) * p_b, p_i * p_a, p_i * p_b, p_i * (1.0 - p_a - p_b)
        ]
        q = sum(outcome_probs)
        # mean number of pairs per slot that leave a kept detection
        mu = central_rate * (weight / w0) * (slot_ps / _PS_PER_S) * q
        if mu > 0.0:
            edges = np.cumsum(outcome_probs[:-1])
            tasks += [partial(draw, mode, block, mu, q, edges)
                      for block in range(-(-n_slots_run // _SLOTS_PER_BLOCK))]
    return tasks


def _generate_darks(rate_hz: float, duration_ps: int, seed: int, channel: int) -> np.ndarray:
    """One detector's dark counts over the whole run, unsorted; the gate, if
    any, masks them later."""
    if rate_hz <= 0.0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SALT_DARKS, channel)))
    n = rng.poisson(rate_hz * duration_ps / _PS_PER_S)
    return rng.integers(0, duration_ps, size=n, dtype=np.int64)


def _apply_dead_time(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """One detector's strictly increasing times without the tags that come
    less than ``dead_ps`` after the last kept one."""
    if dead_ps <= 0:
        return times
    # a tag at least dead_ps after its predecessor is always kept, so the
    # sequential rule runs only over the runs of shorter gaps, each from
    # the kept tag before it
    short = np.flatnonzero(np.diff(times) < dead_ps) + 1
    dropped = []
    last = previous = None
    for j, tj, before in zip(short.tolist(), times[short].tolist(), times[short - 1].tolist()):
        if j - 1 != previous:
            last = before
        if tj - last < dead_ps:
            dropped.append(j)
        else:
            last = tj
        previous = j
    return np.delete(times, dropped) if dropped else times


def simulate_source(
    params: SourceParams, duration_s: float, seed: int, workers: int = 1
) -> TagStream:
    """Generate the detection record of a measurement run.

    Returns a picosecond stream on channels signal-A, signal-B and
    idler.  With ``params.pair_correlations`` False the signal and idler
    photons come from two independent realizations of the same thermal
    process: each arm keeps its singles rates and bunching, but there are no
    cross-correlations (a classical surrogate for sanity checks).  The
    draws and detectors run as tasks on ``workers`` threads.
    """
    if duration_s <= 0:
        raise ModelError("duration must be positive")
    if seed is None or int(seed) < 0:
        raise ModelError("seed must be a non-negative integer")
    seed = int(seed)
    duration_ps = int(round(duration_s * _PS_PER_S))
    if duration_ps >= 2**62:
        raise ModelError("duration overflows the 64-bit picosecond clock")

    if params.pair_correlations:
        tasks = _generate_photons(params, duration_ps, seed, _SALT_PAIRS, True, True)
    else:
        tasks = _generate_photons(params, duration_ps, seed, _SALT_UNPAIRED_SIGNAL, True, False)
        tasks += _generate_photons(params, duration_ps, seed, _SALT_UNPAIRED_IDLER, False, True)
    parts = in_order(lambda task: task(), tasks, workers)
    channels = (CHANNEL_SIGNAL_A, CHANNEL_SIGNAL_B, CHANNEL_IDLER)
    detectors = dict(zip(channels, (params.detector_a, params.detector_b, params.detector_i)))

    def detect(channel: int) -> np.ndarray:
        detector = detectors[channel]
        # each block's array is dropped once joined, so it does not raise later peaks
        photons = [part.pop(channel) for part in parts]
        n_photons = sum(p.size for p in photons)
        darks = _generate_darks(detector.dark_rate_hz, duration_ps, seed, channel)
        times = np.concatenate([*photons, darks])
        del photons, darks
        if params.gate is not None:
            open_mask = params.gate.open_mask(times)
            if not params.gate_darks:
                # darks happen in the detector, downstream of the optical gate
                open_mask[n_photons:] = True
            times = times[open_mask]
        times.sort()
        times = times[np.searchsorted(times, 0) : np.searchsorted(times, duration_ps)]
        # tags in the same picosecond on one detector are one event
        repeats = np.flatnonzero(times[1:] == times[:-1]) + 1
        times = np.delete(times, repeats) if repeats.size else times
        return _apply_dead_time(times, int(round(detector.dead_time_s * _PS_PER_S)))

    # detect sorts, cuts to the run and deduplicates, so each channel meets
    # the stream's rules and the stream takes it without a copy or a check
    return TagStream._owning(dict(zip(channels, in_order(detect, channels, workers))))
