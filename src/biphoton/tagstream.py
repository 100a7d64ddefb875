"""Time-tag streams and the binary tag-file format.

A tag stream is a time-ordered sequence of detector events, each carrying an
integer timestamp (multiples of the tagger resolution, 1 ps by default), a
channel number and a flags byte.  Streams are immutable once constructed.

Binary file layout (little-endian):

    header  4s  magic "BPTT"
            u16 format version (currently 1)
            u16 reserved
            u32 timestamp resolution in picoseconds
            u32 channel count
            u64 record count
    record  u64 timestamp (units of the resolution)
            u8  channel
            u8  flags
            u16 reserved
            u32 reserved

Records are stored in non-decreasing time order; simultaneous records on
distinct channels are ordered by ascending channel number.  The header carries
no channel-label table, so labels are restored by the conventional mapping
(0 signal-A, 1 signal-B, 2 idler, 3 trigger, higher channels "ch<n>").
"""

from __future__ import annotations

import io
import struct
from types import MappingProxyType
from typing import BinaryIO, NamedTuple

import numpy as np

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

# u64 picoseconds overflow after ~213 days; enforced when writing
MAX_TIME = 2**64 - 1
# streams hold int64 times, so the reader rejects anything above this
INT64_MAX = 2**63 - 1


class TagStreamError(ValueError):
    """Invalid in-memory stream (unsorted, bad channel, duplicate record)."""


class FormatError(ValueError):
    """Malformed tag file (bad magic, unsupported version, truncation)."""


class MonotonicityError(FormatError):
    """Records in a tag file are not in non-decreasing time order."""

    def __init__(self, index: int) -> None:
        self.index = index
        super().__init__(f"record {index} breaks time ordering")


class TimeTag(NamedTuple):
    time: int
    channel: int
    flags: int = 0


def _default_labels(channels: np.ndarray) -> dict[int, str]:
    present = np.unique(channels) if channels.size else np.array([], dtype=int)
    return {int(c): DEFAULT_ROLES.get(int(c), f"ch{int(c)}") for c in present}


class TagStream:
    """Immutable, time-ordered collection of detector events.

    Parameters
    ----------
    times : array-like of int
        Timestamps in units of ``resolution_ps``.  Must be non-decreasing.
    channels : array-like of int
        Channel number per tag (0..255).
    flags : array-like of int, optional
        Flags byte per tag (defaults to zero).
    resolution_ps : int
        Timestamp resolution in picoseconds (default 1).
    channel_labels : mapping, optional
        channel -> role string.  Defaults to the conventional mapping for the
        channels present.
    """

    __slots__ = ("_times", "_channels", "_flags", "_resolution_ps", "_labels")

    def __init__(
        self,
        times,
        channels,
        flags=None,
        resolution_ps: int = 1,
        channel_labels: dict[int, str] | None = None,
        validate: bool = True,
    ) -> None:
        times = np.ascontiguousarray(times, dtype=np.int64)
        channels = np.ascontiguousarray(channels, dtype=np.uint8)
        if flags is None:
            flags = np.zeros(times.shape, dtype=np.uint8)
        else:
            flags = np.ascontiguousarray(flags, dtype=np.uint8)
        if times.ndim != 1 or channels.shape != times.shape or flags.shape != times.shape:
            raise TagStreamError("times, channels and flags must be 1-D arrays of equal length")
        if resolution_ps < 1:
            raise TagStreamError(f"resolution must be a positive picosecond count, got {resolution_ps}")
        if validate and times.size:
            if times[0] < 0:
                raise TagStreamError("negative timestamps are not allowed")
            dt = np.diff(times)
            bad = np.nonzero(dt < 0)[0]
            if bad.size:
                raise TagStreamError(f"tags out of order at index {int(bad[0]) + 1}")
            ties = np.nonzero(dt == 0)[0]
            if ties.size:
                ca = channels[ties]
                cb = channels[ties + 1]
                if np.any(ca == cb):
                    i = int(ties[np.nonzero(ca == cb)[0][0]]) + 1
                    raise TagStreamError(f"duplicate (time, channel) record at index {i}")
                if np.any(ca > cb):
                    i = int(ties[np.nonzero(ca > cb)[0][0]]) + 1
                    raise TagStreamError(f"simultaneous tags not in channel order at index {i}")
        for arr in (times, channels, flags):
            arr.setflags(write=False)
        self._times = times
        self._channels = channels
        self._flags = flags
        self._resolution_ps = int(resolution_ps)
        if channel_labels is None:
            channel_labels = _default_labels(channels)
        self._labels = dict(channel_labels)

    # -- basic container behaviour -------------------------------------------------

    def __len__(self) -> int:
        return self._times.size

    def __getitem__(self, i: int) -> TimeTag:
        return TimeTag(int(self._times[i]), int(self._channels[i]), int(self._flags[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TagStream):
            return NotImplemented
        return (
            self._resolution_ps == other._resolution_ps
            and self._labels == other._labels
            and np.array_equal(self._times, other._times)
            and np.array_equal(self._channels, other._channels)
            and np.array_equal(self._flags, other._flags)
        )

    def __repr__(self) -> str:
        span = self.span_ps * 1e-12
        return f"TagStream({len(self)} tags, {len(self._labels)} channels, {span:.3g} s span)"

    # -- accessors ------------------------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def channels(self) -> np.ndarray:
        return self._channels

    @property
    def flags(self) -> np.ndarray:
        return self._flags

    @property
    def resolution_ps(self) -> int:
        return self._resolution_ps

    @property
    def channel_labels(self):
        return MappingProxyType(self._labels)

    @property
    def span_ps(self) -> int:
        """Time between first and last tag, in picoseconds."""
        if not len(self):
            return 0
        return int(self._times[-1] - self._times[0]) * self._resolution_ps

    def channel_times(self, channel: int) -> np.ndarray:
        """Timestamps of a single channel (sorted, read-only view copy)."""
        return self._times[self._channels == channel]

    def count(self, channel: int) -> int:
        return int(np.count_nonzero(self._channels == channel))


def write_tags(stream: TagStream, destination) -> int:
    """Serialize a stream to the binary tag format.

    ``destination`` may be a path or a binary file object.  Returns the number
    of bytes written.  Timestamps must fit an unsigned 64-bit integer.
    """
    times = stream.times
    if times.size and (int(times[-1]) > MAX_TIME or int(times[0]) < 0):
        raise TagStreamError("timestamps do not fit the unsigned 64-bit file format")
    header = HEADER_STRUCT.pack(
        MAGIC,
        FORMAT_VERSION,
        0,
        stream.resolution_ps,
        len(stream.channel_labels),
        len(stream),
    )
    records = np.zeros(len(stream), dtype=RECORD_DTYPE)
    records["time"] = times.astype(np.uint64)
    records["channel"] = stream.channels
    records["flags"] = stream.flags
    payload = records.tobytes()

    if hasattr(destination, "write"):
        n = destination.write(header) + destination.write(payload)
        return n
    with open(destination, "wb") as fh:
        return fh.write(header) + fh.write(payload)


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def read_tags(source) -> TagStream:
    """Read a binary tag file and return a validated :class:`TagStream`."""
    if hasattr(source, "read"):
        return _read_stream(source)
    with open(source, "rb") as fh:
        return _read_stream(fh)


def _read_stream(fh: BinaryIO) -> TagStream:
    raw = _read_exact(fh, HEADER_STRUCT.size, "header")
    magic, version, _, resolution_ps, channel_count, record_count = HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if resolution_ps == 0:
        raise FormatError("zero resolution in header")
    size = record_count * RECORD_DTYPE.itemsize
    start = fh.tell()
    available = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    if available != size:
        raise FormatError(
            f"header announces {record_count} records ({size} bytes), "
            f"but {available} bytes of records follow it"
        )
    records = np.frombuffer(_read_exact(fh, size, "records"), dtype=RECORD_DTYPE)
    raw_times = records["time"]
    channels = records["channel"]
    if record_count:
        # compare in uint64; a decreasing step is caught directly, not via diff
        order = raw_times[1:] < raw_times[:-1]
        if np.any(order):
            raise MonotonicityError(int(np.nonzero(order)[0][0]) + 1)
        ties = np.nonzero(raw_times[1:] == raw_times[:-1])[0]
        if ties.size and np.any(channels[ties] >= channels[ties + 1]):
            bad = ties[np.nonzero(channels[ties] >= channels[ties + 1])[0][0]]
            raise MonotonicityError(int(bad) + 1)
        # the times are sorted, so the last one is the largest
        if raw_times[-1] > INT64_MAX:
            first = int(np.argmax(raw_times > INT64_MAX))
            raise FormatError(f"record {first} has a timestamp above 2^63 - 1")
    return TagStream(
        raw_times.astype(np.int64),
        channels.copy(),
        records["flags"].copy(),
        resolution_ps=resolution_ps,
        validate=False,
    )
