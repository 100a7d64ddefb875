"""Dense three-channel tag file for the ``tagfile-dense`` workload.

Built with numpy alone, never with the simulator, so simulator changes
(including changes to the order of random draws) leave this input
bit-identical. The stream models a heralded source seen through a noisy
detector chain:

- idler heralds on channel 2, uniform in time at ``HERALD_HZ``;
- for a fraction ``PAIR_PROBABILITY`` of heralds a signal photon at the
  herald time plus a two-sided exponential delay (falling side set by the
  3.7 MHz signal linewidth, rising side by the 2.3 MHz idler linewidth),
  routed 50/50 to channel 0 (signal-A) or channel 1 (signal-B);
- uniform background at ``BACKGROUND_HZ`` on each signal channel.

At the full 50 s size that is about 11.7 M tags (187 MB), and a herald sees
about 0.9 signal-A tags within +-5.5 us: the dense regime of the
multi-stop correlator. The arrays are written with the program's own
``biphoton.tagstream.write_tags``; the program's reader must accept that
file in any case.

Run as a script it writes ``<out>.bin`` plus ``<out>.json`` with the tag and
byte counts and the herald/signal-A pair counts for each requested delay
range ``[lo, hi)`` in picoseconds, computed here from the generated arrays.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

HERALD_HZ = 100_000.0
PAIR_PROBABILITY = 0.3
BACKGROUND_HZ = 52_000.0
SIGNAL_LINEWIDTH_HZ = 3.7e6
IDLER_LINEWIDTH_HZ = 2.3e6
CHANNEL_A, CHANNEL_B, CHANNEL_HERALD = 0, 1, 2
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def generate(seed: int, duration_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (times_ps, channels) with no repeated (time, channel) record."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7A6)))
    duration_ps = int(round(duration_s * 1e12))
    heralds = rng.integers(0, duration_ps, size=int(round(HERALD_HZ * duration_s)))
    paired = heralds[rng.random(heralds.size) < PAIR_PROBABILITY]
    tau_fall = 1e12 / (2 * math.pi * SIGNAL_LINEWIDTH_HZ)
    tau_rise = 1e12 / (2 * math.pi * IDLER_LINEWIDTH_HZ)
    falling = rng.random(paired.size) < tau_fall / (tau_fall + tau_rise)
    magnitude = rng.standard_exponential(paired.size)
    delay = np.where(falling, magnitude * tau_fall, -magnitude * tau_rise)
    signals = paired + np.rint(delay).astype(np.int64)
    to_a = rng.random(paired.size) < 0.5
    n_background = int(round(BACKGROUND_HZ * duration_s))
    parts = [
        (heralds, CHANNEL_HERALD),
        (signals[to_a], CHANNEL_A),
        (signals[~to_a], CHANNEL_B),
        (rng.integers(0, duration_ps, size=n_background), CHANNEL_A),
        (rng.integers(0, duration_ps, size=n_background), CHANNEL_B),
    ]
    times = np.concatenate([t for t, _ in parts])
    channels = np.concatenate([np.full(t.size, c, dtype=np.uint8) for t, c in parts])
    inside = (times >= 0) & (times < duration_ps)
    times, channels = times[inside], channels[inside]
    order = np.lexsort((channels, times))
    times, channels = times[order], channels[order]
    distinct = np.ones(times.size, dtype=bool)
    distinct[1:] = (times[1:] != times[:-1]) | (channels[1:] != channels[:-1])
    return times[distinct], channels[distinct]


def pair_count(starts: np.ndarray, stops: np.ndarray, lo: int, hi: int) -> int:
    """Number of (start, stop) pairs with stop - start in [lo, hi)."""
    upper = np.searchsorted(stops, starts + hi, side="left")
    lower = np.searchsorted(stops, starts + lo, side="left")
    return int((upper - lower).sum())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--duration-s", type=float, required=True)
    parser.add_argument("--out", required=True, help="path prefix for .bin and .json")
    parser.add_argument(
        "--range-ps", nargs=2, type=int, action="append", default=[], metavar=("LO", "HI")
    )
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    from biphoton.tagstream import TagStream, write_tags

    times, channels = generate(args.seed, args.duration_s)
    size = write_tags(TagStream(times, channels), args.out + ".bin")
    heralds = times[channels == CHANNEL_HERALD]
    signals_a = times[channels == CHANNEL_A]
    facts = {
        "tags": int(times.size),
        "bytes": size,
        "channel_counts": [int(np.count_nonzero(channels == c)) for c in range(3)],
        "pairs": [[lo, hi, pair_count(heralds, signals_a, lo, hi)] for lo, hi in args.range_ps],
    }
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(facts, fh)


if __name__ == "__main__":
    main()
