"""Time-tag streams and the binary tag-file format.

A tag stream holds each detector channel's events as one sorted, read-only
array of integer picosecond timestamps, and is immutable; those arrays are its
whole state.  Its channels are the ones it was built with, and their labels
follow the channel numbers.  The merged (time, channel) order exists only
where the file format needs it: ``write_tags`` builds it on demand.  Its
ordering rule (non-decreasing times, simultaneous records in ascending channel
order, so no duplicate ``(time, channel)`` record) is checked by the merged
constructor and the file reader, and the reader reports its first violation
as a :class:`MonotonicityError`.  The simulator makes its per-channel arrays
to the same rules, and its stream takes them unchecked.  Times lie in
``[0, 2^62)`` ps, the simulator's clock, so an analysis can add any delay
below 2^62 ps without wrapping.  The merged constructor and the reader share
one check-and-split, which takes slices of 2^16 records, the package's one
chunk size, as tasks on ``workers`` threads in two rounds: the first counts
each slice's channels, the second takes the slice again and checks and places
its times.  The reader reads each slice from the file in both rounds, so
neither the file nor a merged column of all its records is ever held whole;
any worker count gives the same arrays and the same first violation.

Binary file layout (little-endian):

    header  4s  magic "BPTT"
            u16 format version (currently 1)
            u16 reserved
            u32 timestamp resolution in picoseconds (must be 1)
            u32 channel count
            u64 record count
    record  u64 timestamp in picoseconds (below 2^62)
            u8  channel
            u8  flags (written as 0, ignored on read)
            u16 reserved
            u32 reserved

Records are stored in merged order.  The header carries no channel-label
table: labels always follow the conventional mapping (0 signal-A, 1 signal-B,
2 idler, 3 trigger, higher channels "ch<n>").
"""

from __future__ import annotations

import io
import struct
import threading
from typing import BinaryIO, Callable

import numpy as np

from ._tasks import CHUNK, in_order

MAGIC = b"BPTT"
FORMAT_VERSION = 1
HEADER_STRUCT = struct.Struct("<4sHHIIQ")
RECORD_DTYPE = np.dtype(
    [
        ("time", "<u8"),
        ("channel", "u1"),
        ("flags", "u1"),
        ("reserved16", "<u2"),
        ("reserved32", "<u4"),
    ]
)

#: conventional channel numbering used by the simulator and restored on read
DEFAULT_ROLES = {0: "signal-A", 1: "signal-B", 2: "idler", 3: "trigger"}

# records per check-and-split task, which also reads its slice of a file, so
# neither the raw file nor a temporary is ever held whole
_CHUNK_RECORDS = CHUNK
# timestamps lie in [0, 2^62) ps, the simulator's clock, so an analysis can add
# any delay below 2^62 ps to them without wrapping
_CLOCK_PS = 1 << 62
# the times of every channel without tags
_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


class TagStreamError(ValueError):
    """Invalid in-memory stream (unsorted, bad channel, duplicate record).

    ``index`` is the first record that breaks the ordering rule, if one does.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        self.index = index
        super().__init__(message)


class _ClockError(TagStreamError):
    """A timestamp outside ``[0, 2^62)`` ps; as int64, a file's times above
    2^63 - 1 are negative."""

    def __init__(self, index: int, time: int) -> None:
        self.time = time
        what = "negative timestamps are" if time < 0 else "timestamps of 2^62 ps or more are"
        super().__init__(f"{what} not allowed", index)


class FormatError(ValueError):
    """Malformed tag file (bad magic, unsupported version, truncation)."""


class MonotonicityError(FormatError):
    """Records in a tag file are not in non-decreasing time order."""

    def __init__(self, index: int) -> None:
        self.index = index
        super().__init__(f"record {index} breaks time ordering")


def _first_disorder(times: np.ndarray, channels: np.ndarray) -> int:
    """Index of the first record not strictly after its predecessor in
    ``(time, channel)`` order, or 0 when every record is.  Adjacent
    comparisons only, so no difference array is allocated."""
    back = times[1:] < times[:-1]
    first = int(np.argmax(back)) + 1 if back.any() else times.size
    ties = np.flatnonzero(times[1:first] == times[: first - 1])
    ties = ties[channels[ties] >= channels[ties + 1]]
    if ties.size:
        return int(ties[0]) + 1
    return first if first < times.size else 0


def _disorder_error(before: tuple[int, int], after: tuple[int, int], index: int) -> TagStreamError:
    """The error for record ``index``, ``after``, which is not strictly after
    its predecessor ``before``; both are ``(time, channel)``."""
    if after[0] < before[0]:
        return TagStreamError(f"tags out of order at index {index}", index)
    if after[1] == before[1]:
        return TagStreamError(f"duplicate (time, channel) record at index {index}", index)
    return TagStreamError(f"simultaneous tags not in channel order at index {index}", index)


def _check_split(
    size: int, fields: Callable[[slice], tuple[np.ndarray, np.ndarray]], workers: int = 1
) -> dict[int, np.ndarray]:
    """Each present channel's times among ``size`` merged records, after
    checking the ordering rule and the clock range.

    ``fields(part)`` gives one slice's ``(times, channels)``; no column of all
    the records is ever built.  Two rounds run one task per slice of
    ``_CHUNK_RECORDS`` records on ``workers`` threads, so no temporary
    outgrows a slice.  The first round counts each slice's channels, which
    sizes each channel's array and gives each slice its places in them.  The
    second takes each slice again, as contiguous arrays, and checks exactly
    the times it places: it finds the slice's first disorder and its first
    time outside ``[0, 2^62)``, checks that each channel's count is the first
    round's, and compresses the times into place.  After the round, the
    records on either side of each slice boundary are compared, and the
    first time out of range, else the first violation, raises.  A count that
    changed between the rounds raises :class:`FormatError`."""
    step = _CHUNK_RECORDS
    slices = [slice(at, min(at + step, size)) for at in range(0, size, step)]

    def count(part: slice) -> np.ndarray:
        return np.bincount(fields(part)[1], minlength=256)

    counts = np.array(in_order(count, slices, workers), dtype=np.int64).reshape(len(slices), 256)
    places = np.cumsum(counts, axis=0) - counts
    total = counts.sum(axis=0)
    out = {int(c): np.empty(total[c], dtype=np.int64) for c in np.flatnonzero(total)}

    def place(k: int) -> tuple | None:
        part, n, at = slices[k], counts[k], places[k]
        # strided fields cost twice as much to compare and compress
        times, channels = (np.ascontiguousarray(f) for f in fields(part))
        fault = beyond = None
        # a slice of strictly increasing times is in order, and in range when its
        # ends are; only a slice that fails either test is scanned for its first error
        increasing = not (times[1:] <= times[:-1]).any()
        i = 0 if increasing else _first_disorder(times, channels)
        if i:
            fault = _disorder_error(
                (times[i - 1], channels[i - 1]), (times[i], channels[i]), part.start + i
            )
        if not (increasing and times[0] >= 0 and times[-1] < _CLOCK_PS):
            far = np.flatnonzero(times.view(np.uint64) >= _CLOCK_PS)
            if far.size:
                beyond = _ClockError(part.start + int(far[0]), int(times[far[0]]))
        for channel, dest in out.items():
            keep = channels == channel
            if np.count_nonzero(keep) != n[channel]:
                return None
            np.compress(keep, times, out=dest[at[channel] : at[channel] + n[channel]])
        return fault, beyond, (int(times[0]), int(channels[0])), (int(times[-1]), int(channels[-1]))

    placed = in_order(place, range(len(slices)), workers)
    if None in placed:
        raise FormatError("records changed between the two reads")
    # the first time out of range wins over any disorder
    errors = [beyond for _, beyond, _, _ in placed if beyond]
    if not errors:
        errors = [fault for fault, _, _, _ in placed if fault]
        for k in range(1, len(slices)):
            before, after = placed[k - 1][3], placed[k][2]
            if after <= before:
                errors.append(_disorder_error(before, after, slices[k].start))
    if errors:
        raise min(errors, key=lambda error: error.index)
    return out


def _exact(values, dtype: type, what: str, must_be: str) -> np.ndarray:
    """``values`` as a contiguous ``dtype`` array; a value the cast would
    change, such as a wrapped channel or a truncated time, raises."""
    values = np.asarray(values)
    if values.dtype == dtype:
        return np.ascontiguousarray(values)
    try:
        with np.errstate(invalid="ignore"):  # NaN and infinities are caught below
            cast = np.ascontiguousarray(values, dtype=dtype)
    except OverflowError:
        raise TagStreamError(f"every {what} must be {must_be}") from None
    changed = np.flatnonzero(cast != values)
    if changed.size:
        i = int(changed[0])
        raise TagStreamError(f"{what} {values.flat[i]} at index {i} is not {must_be}")
    return cast


class TagStream:
    """Immutable detector events, held as one sorted, read-only time array
    per channel; built from merged records, which are checked as they are
    split by channel.

    A stream's channels are the ones it was built with: those present in the
    records, or, for a simulated stream, all three of the simulator's,
    tagless ones included.  Their labels follow the channel numbers
    (``DEFAULT_ROLES``, else ``"ch<n>"``).

    Parameters
    ----------
    times : array-like of int
        Timestamps in picoseconds.  Must be non-negative and non-decreasing.
    channels : array-like of int
        Channel number per tag (0..255); simultaneous tags must be in
        ascending channel order.
    """

    __slots__ = ("_by_channel", "_len", "_span_ps")

    def __new__(cls, times, channels) -> TagStream:
        times = _exact(times, np.int64, "time", "a whole number of picoseconds below 2^63")
        channels = _exact(channels, np.uint8, "channel", "a whole number in 0..255")
        if times.ndim != 1 or channels.shape != times.shape:
            raise TagStreamError("times and channels must be 1-D arrays of equal length")
        return cls._owning(_check_split(times.size, lambda part: (times[part], channels[part])))

    @classmethod
    def _owning(cls, by_channel: dict[int, np.ndarray]) -> TagStream:
        """Stream whose channels are the keys of ``by_channel``.  It takes the
        int64 arrays without a copy and freezes them; each must already lie in
        ``[0, 2^62)`` ps and be strictly increasing, which is not checked
        here."""
        for times in by_channel.values():
            times.setflags(write=False)
        stream = object.__new__(cls)
        stream._by_channel = by_channel
        held = [t for t in by_channel.values() if t.size]
        stream._len = sum(t.size for t in held)
        stream._span_ps = int(max(t[-1] for t in held) - min(t[0] for t in held)) if held else 0
        return stream

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through _owning, since __new__ takes records
        return (type(self)._owning, (self._by_channel,))

    def __len__(self) -> int:
        return self._len

    @property
    def channel_labels(self) -> dict[int, str]:
        """Role of each of the stream's channels, in channel order."""
        return {c: DEFAULT_ROLES.get(c, f"ch{c}") for c in sorted(self._by_channel)}

    @property
    def span_ps(self) -> int:
        """Time between first and last tag, in picoseconds."""
        return self._span_ps

    def channel_times(self, channel: int) -> np.ndarray:
        """Timestamps of one channel (sorted, read-only); empty for a channel
        with no tags."""
        return self._by_channel.get(channel, _EMPTY)

    def count(self, channel: int) -> int:
        return self.channel_times(channel).size


def write_tags(stream: TagStream, destination) -> int:
    """Serialize a stream to the binary tag format.

    ``destination`` may be a path or a binary file object.  Returns the number
    of bytes written.
    """
    by_channel = stream._by_channel
    order = sorted(by_channel)
    times = np.concatenate([_EMPTY, *(by_channel[c] for c in order)])
    sizes = [by_channel[c].size for c in order]
    channels = np.repeat(np.array(order, dtype=np.uint8), sizes)
    header = HEADER_STRUCT.pack(
        MAGIC,
        FORMAT_VERSION,
        0,
        1,  # resolution_ps: stream times are picoseconds
        len(order),
        len(stream),
    )
    # records in merged order: the stable sort keeps simultaneous tags in the
    # channel order they were joined in
    perm = np.argsort(times, kind="stable")
    records = np.zeros(len(stream), dtype=RECORD_DTYPE)
    records["time"] = times[perm]
    records["channel"] = channels[perm]

    if hasattr(destination, "write"):
        return destination.write(header) + destination.write(records)
    with open(destination, "wb") as fh:
        return fh.write(header) + fh.write(records)


def read_tags(source, workers: int = 1) -> TagStream:
    """Read a binary tag file and return a validated :class:`TagStream`,
    checking and splitting its records a slice at a time on ``workers``
    threads."""
    if hasattr(source, "read"):
        return _read_stream(source, workers)
    with open(source, "rb") as fh:
        return _read_stream(fh, workers)


def _read_stream(fh: BinaryIO, workers: int) -> TagStream:
    raw = fh.read(HEADER_STRUCT.size)
    if len(raw) != HEADER_STRUCT.size:
        raise FormatError("truncated file while reading header")
    magic, version, _, resolution_ps, channel_count, record_count = HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if resolution_ps != 1:
        raise FormatError(f"header resolution is {resolution_ps} ps; tag files must use 1 ps")
    size = record_count * RECORD_DTYPE.itemsize
    start = fh.tell()
    available = fh.seek(0, io.SEEK_END) - start
    if available != size:
        raise FormatError(
            f"header announces {record_count} records ({size} bytes), "
            f"but {available} bytes of records follow it"
        )
    position = threading.Lock()  # the file's one read position

    def fields(part: slice) -> tuple[np.ndarray, np.ndarray]:
        records = np.empty(part.stop - part.start, dtype=RECORD_DTYPE)
        with position:
            fh.seek(start + part.start * RECORD_DTYPE.itemsize)
            got = fh.readinto(records)
        if got != records.nbytes:
            raise FormatError("truncated file while reading records")
        # as int64, so times above 2^63 - 1 are negative
        return records["time"].view(np.int64), records["channel"]

    try:
        by_channel = _check_split(record_count, fields, workers)
    except _ClockError as exc:
        bound = 63 if exc.time < 0 else 62
        raise FormatError(f"record {exc.index} has a timestamp above 2^{bound} - 1") from None
    except TagStreamError as exc:
        raise MonotonicityError(exc.index) from None
    return TagStream._owning(by_channel)
