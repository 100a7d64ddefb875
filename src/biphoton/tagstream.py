"""Time-tag streams and the binary tag-file format.

A tag stream holds each detector channel's events as one sorted, read-only
array of integer picosecond timestamps, and is immutable; those arrays are its
whole state.  Its channels are the ones it was built with, and their labels
follow the channel numbers.  The merged (time, channel) order exists only
where the file format needs it: ``write_tags`` builds it on demand.  Its
ordering rule (non-decreasing times, simultaneous records in ascending channel
order, so no duplicate ``(time, channel)`` record) is checked by every
constructor, and the file reader reports its first violation as a
:class:`MonotonicityError`.  The merged constructor and the reader share one
check-and-split, which runs slices of records as tasks on ``workers``
threads; any worker count gives the same arrays and the same first violation.

Binary file layout (little-endian):

    header  4s  magic "BPTT"
            u16 format version (currently 1)
            u16 reserved
            u32 timestamp resolution in picoseconds (must be 1)
            u32 channel count
            u64 record count
    record  u64 timestamp in picoseconds (at most 2^63 - 1)
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

from ._tasks import in_order

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
_CHUNK_RECORDS = 1 << 20
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


def _check_split(
    times: np.ndarray, channels: np.ndarray, workers: int = 1, load: Callable | None = None
) -> dict[int, np.ndarray]:
    """Each present channel's times, after checking the ordering rule.

    Runs in two rounds of one task per slice of ``_CHUNK_RECORDS`` records on
    ``workers`` threads, so no temporary outgrows a slice.  The first round
    calls ``load(part)`` to fill the slice's records, if given, finds the
    slice's first disorder and counts its channels; the first violation, in
    a slice or across a slice boundary, raises :class:`TagStreamError`.  The
    second round copies each slice's times into the places that the prefix
    sums of the counts give it in arrays sized by those counts."""
    step, size = _CHUNK_RECORDS, times.size
    slices = [slice(at, min(at + step, size)) for at in range(0, size, step)]

    def survey(part: slice) -> tuple[int, np.ndarray]:
        if load is not None:
            load(part)
        i = _first_disorder(times[part], channels[part])
        return (part.start + i if i else 0), np.bincount(channels[part], minlength=256)

    surveyed = in_order(survey, slices, workers)
    if times.size and times[0] < 0:
        raise TagStreamError("negative timestamps are not allowed")
    # a boundary breaks the rule where its two records, as a slice, do
    found = [i for i, _ in surveyed if i] + [
        at
        for at in (part.start for part in slices[1:])
        if _first_disorder(times[at - 1 : at + 1], channels[at - 1 : at + 1])
    ]
    if found:
        i = min(found)
        if times[i] < times[i - 1]:
            raise TagStreamError(f"tags out of order at index {i}", i)
        if channels[i] == channels[i - 1]:
            raise TagStreamError(f"duplicate (time, channel) record at index {i}", i)
        raise TagStreamError(f"simultaneous tags not in channel order at index {i}", i)

    counts = np.array([n for _, n in surveyed], dtype=np.int64).reshape(len(slices), 256)
    places = np.cumsum(counts, axis=0) - counts
    total = counts.sum(axis=0)
    out = {int(c): np.empty(total[c], dtype=np.int64) for c in np.flatnonzero(total)}

    def place(k: int) -> None:
        part, n, at = slices[k], counts[k], places[k]
        for channel, dest in out.items():
            where = dest[at[channel] : at[channel] + n[channel]]
            np.compress(channels[part] == channel, times[part], out=where)

    in_order(place, range(len(slices)), workers)
    return out


class TagStream:
    """Immutable detector events, held as one sorted, read-only time array
    per channel; built from merged records, or by :meth:`from_channels`.

    A stream's channels are the ones it was built with: those present in the
    merged records, or every key given to :meth:`from_channels`.  Their labels
    follow the channel numbers (``DEFAULT_ROLES``, else ``"ch<n>"``).

    Parameters
    ----------
    times : array-like of int
        Timestamps in picoseconds.  Must be non-negative and non-decreasing.
    channels : array-like of int
        Channel number per tag (0..255); simultaneous tags must be in
        ascending channel order.
    """

    __slots__ = ("_by_channel", "_len", "_span_ps")

    def __init__(self, times, channels) -> None:
        times = np.ascontiguousarray(times, dtype=np.int64)
        channels = np.ascontiguousarray(channels, dtype=np.uint8)
        if times.ndim != 1 or channels.shape != times.shape:
            raise TagStreamError("times and channels must be 1-D arrays of equal length")
        self._fill(_check_split(times, channels))

    @classmethod
    def from_channels(cls, by_channel: dict[int, np.ndarray]) -> TagStream:
        """Stream whose channels are the keys of ``by_channel``, tagless ones
        included; each channel's times must be non-negative and strictly
        increasing."""
        arrays = {}
        for channel, times in by_channel.items():
            times = np.array(times, dtype=np.int64)  # a copy: the stream freezes it
            back = times[1:] <= times[:-1]
            if back.any():
                i = int(np.argmax(back)) + 1
                raise TagStreamError(f"channel {channel}: times not increasing at index {i}", i)
            if times.size and times[0] < 0:
                raise TagStreamError(f"channel {channel}: negative timestamps are not allowed")
            arrays[int(channel)] = times
        stream = cls.__new__(cls)
        stream._fill(arrays)
        return stream

    def _fill(self, by_channel: dict[int, np.ndarray]) -> None:
        for times in by_channel.values():
            times.setflags(write=False)
        self._by_channel = by_channel
        held = [t for t in by_channel.values() if t.size]
        self._len = sum(t.size for t in held)
        self._span_ps = int(max(t[-1] for t in held) - min(t[0] for t in held)) if held else 0

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


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def read_tags(source, workers: int = 1) -> TagStream:
    """Read a binary tag file and return a validated :class:`TagStream`,
    checking and splitting its records a slice at a time on ``workers``
    threads."""
    if hasattr(source, "read"):
        return _read_stream(source, workers)
    with open(source, "rb") as fh:
        return _read_stream(fh, workers)


def _read_stream(fh: BinaryIO, workers: int) -> TagStream:
    raw = _read_exact(fh, HEADER_STRUCT.size, "header")
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
    times = np.empty(record_count, dtype=np.int64)
    channels = np.empty(record_count, dtype=np.uint8)
    position = threading.Lock()  # the file's one read position

    def load(part: slice) -> None:
        with position:
            fh.seek(start + part.start * RECORD_DTYPE.itemsize)
            raw = _read_exact(fh, (part.stop - part.start) * RECORD_DTYPE.itemsize, "records")
        records = np.frombuffer(raw, dtype=RECORD_DTYPE)
        times[part] = records["time"]
        channels[part] = records["channel"]

    try:
        by_channel = _check_split(times, channels, workers, load)
    except TagStreamError as exc:
        # times above 2^63 - 1 wrap to negative int64 values, which always
        # break the ordering rule (a negative first time, or a step back), so
        # the range is only examined once that check has failed
        if times.min() < 0:
            first = int(np.argmax(times < 0))
            raise FormatError(f"record {first} has a timestamp above 2^63 - 1") from None
        raise MonotonicityError(exc.index) from None
    stream = TagStream.__new__(TagStream)
    stream._fill(by_channel)
    return stream
