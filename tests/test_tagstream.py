"""Round-trip and validation behavior of the time-tag container and its
binary file format."""

import copy
import io
import json
import os
import pickle
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import biphoton.cli
from biphoton.cli import main
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import tagstream
from biphoton.tagstream import (
    DEFAULT_ROLES,
    FORMAT_VERSION,
    HEADER_STRUCT,
    MAGIC,
    RECORD_DTYPE,
    FormatError,
    MonotonicityError,
    TagStream,
    TagStreamError,
    read_tags,
    write_tags,
)


def _random_stream(n, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, 2_000, size=n, dtype=np.int64)
    times = np.cumsum(gaps)
    channels = rng.integers(0, 4, size=n, dtype=np.int64)
    return TagStream(times, channels.astype(np.uint8))


def _file_bytes(stream):
    buf = io.BytesIO()
    write_tags(stream, buf)
    return buf.getvalue()


def _file_records(stream):
    """(times, channels) of a stream in merged order, from its file records."""
    records = np.frombuffer(_file_bytes(stream)[HEADER_STRUCT.size :], dtype=RECORD_DTYPE)
    return records["time"].astype(np.int64), records["channel"]


def _same_channels(a, b):
    """Whether two streams hold equal times on every channel."""
    return all(np.array_equal(a.channel_times(c), b.channel_times(c)) for c in range(256))


# --- file round trips ------------------------------------------------------


def test_roundtrip_million_tags(tmp_path):
    stream = _random_stream(1_000_000, seed=5)
    path = tmp_path / "tags.bin"
    written = write_tags(stream, path)
    assert written == HEADER_STRUCT.size + len(stream) * RECORD_DTYPE.itemsize
    assert path.stat().st_size == written

    back = read_tags(path)
    assert _same_channels(back, stream)
    assert HEADER_STRUCT.unpack_from(path.read_bytes())[3] == 1
    # a second pass through the format changes nothing
    assert _file_bytes(back) == path.read_bytes()


def test_roundtrip_file_object():
    stream = _random_stream(10_000, seed=6)
    buf = io.BytesIO(_file_bytes(stream))
    back = read_tags(buf)
    assert _same_channels(back, stream)


def test_roundtrip_empty_stream(tmp_path):
    empty = TagStream([], [])
    path = tmp_path / "empty.bin"
    assert write_tags(empty, path) == HEADER_STRUCT.size
    back = read_tags(path)
    assert len(back) == 0


# --- corrupt files ---------------------------------------------------------


def _header(magic=MAGIC, version=FORMAT_VERSION, resolution=1, channels=0, records=0):
    return HEADER_STRUCT.pack(magic, version, 0, resolution, channels, records)


def test_read_rejects_bad_magic():
    with pytest.raises(FormatError, match="magic"):
        read_tags(io.BytesIO(_header(magic=b"NOPE")))


def test_read_rejects_unknown_version():
    with pytest.raises(FormatError, match="version"):
        read_tags(io.BytesIO(_header(version=FORMAT_VERSION + 1)))


def test_read_rejects_zero_resolution():
    # times are picoseconds; a header at any other resolution is refused
    for resolution in (0, 8):
        with pytest.raises(FormatError, match=f"resolution is {resolution} ps"):
            read_tags(io.BytesIO(_header(resolution=resolution)))


def test_read_rejects_truncated_header():
    with pytest.raises(FormatError, match="header"):
        read_tags(io.BytesIO(_header()[:10]))


def test_read_rejects_truncated_records():
    stream = _random_stream(100, seed=8)
    data = _file_bytes(stream)
    with pytest.raises(FormatError, match="records"):
        read_tags(io.BytesIO(data[:-7]))


def test_read_rejects_timestamps_beyond_int64():
    # in time order, first, and out of order: the range error names the record
    for rows, index, bound in (
        ([(100, 0), (2**63, 1)], 1, 63),
        ([(2**64 - 1, 0)], 0, 63),
        ([(5, 0), (2**63 + 7, 1), (3, 2)], 1, 63),
        # past the 2^62 ps clock, where an analysis could wrap adding a delay
        ([(7, 0), (2**62, 2), (2**63, 1)], 1, 62),
    ):
        payload = _records(rows)
        error = rf"record {index} has a timestamp above 2\^{bound} - 1$"
        with pytest.raises(FormatError, match=error):
            read_tags(io.BytesIO(_header(records=len(rows)) + payload))
    last = read_tags(io.BytesIO(_header(records=1) + _records([(2**62 - 1, 3)])))
    assert list(last.channel_times(3)) == [2**62 - 1]
    with pytest.raises(TagStreamError, match="2\\^62 ps or more"):
        TagStream([3, 2**62], [0, 0])


def _records(rows, flags=0):
    arr = np.zeros(len(rows), dtype=RECORD_DTYPE)
    for i, (t, c) in enumerate(rows):
        arr[i] = (t, c, flags, 0, 0)
    return arr.tobytes()


def test_flag_bytes_are_ignored_on_read_and_written_as_zero():
    rows = [(5, 0), (9, 2), (9, 3), (14, 0)]
    stream = read_tags(io.BytesIO(_header(channels=3, records=4) + _records(rows, flags=0xA5)))
    assert [list(stream.channel_times(c)) for c in (0, 2, 3)] == [[5, 14], [9], [9]]
    records = np.frombuffer(_file_bytes(stream)[HEADER_STRUCT.size :], dtype=RECORD_DTYPE)
    assert records.tolist() == np.frombuffer(_records(rows), dtype=RECORD_DTYPE).tolist()


@pytest.mark.parametrize("workers", [1, 2])
def test_read_copies_records_in_chunks(monkeypatch, workers):
    """Files of several read chunks and split slices: the columns come back
    whole, and an error found across a chunk boundary names the record by
    its file index."""
    monkeypatch.setattr(tagstream, "_CHUNK_RECORDS", 4)
    stream = _random_stream(10, seed=8)
    back = read_tags(io.BytesIO(_file_bytes(stream)), workers)
    assert _same_channels(back, stream)

    rows = [(10 * k, 0) for k in range(10)]
    # record 8 opens the third chunk and steps back before record 7
    rows[8] = (65, 1)
    with pytest.raises(MonotonicityError) as info:
        read_tags(io.BytesIO(_header(records=10) + _records(rows)), workers)
    assert info.value.index == 8
    rows[8] = (85, 1)
    rows[9] = (2**63 + 1, 0)
    with pytest.raises(FormatError, match="record 9 has a timestamp above"):
        read_tags(io.BytesIO(_header(records=10) + _records(rows)), workers)


def _slice_boundary_faults():
    """(name, rows, error class, index): 40 records in slices of 4, each
    broken at or after a slice boundary."""
    base = [(10 * k, k % 3) for k in range(40)]
    cases = []
    for name, changes, error, index in (
        ("step-back", {24: (225, 0)}, MonotonicityError, 24),
        ("duplicate", {27: (270, 1), 28: (270, 1)}, MonotonicityError, 28),
        ("tie-out-of-order", {31: (310, 2), 32: (310, 1)}, MonotonicityError, 32),
        # the range error wins over an earlier disorder
        ("beyond-int64", {6: (5, 0), 37: (2**63 + 5, 0)}, FormatError, 37),
    ):
        rows = list(base)
        for at, row in changes.items():
            rows[at] = row
        cases.append((name, rows, error, index))
    return cases


def test_sliced_read_is_the_same_on_any_worker_count(monkeypatch):
    """Thousands of slice tasks and a thread switch every microsecond: every
    worker count returns the same channels and names the same first fault,
    whether it lies inside a slice or across a slice boundary."""
    monkeypatch.setattr(tagstream, "_CHUNK_RECORDS", 4)
    stream = _random_stream(6_000, seed=12)
    data = _file_bytes(stream)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 8):
            assert _same_channels(read_tags(io.BytesIO(data), workers), stream)
            for name, rows, error, index in _slice_boundary_faults():
                raw = io.BytesIO(_header(records=len(rows)) + _records(rows))
                with pytest.raises(error) as info:
                    read_tags(raw, workers)
                assert type(info.value) is error, name
                assert f"record {index} " in str(info.value), name
    finally:
        sys.setswitchinterval(switch)


def test_read_holds_no_more_than_the_arrays_and_a_slice_per_worker(tmp_path, monkeypatch):
    """The channel arrays (8 bytes a record) plus a working set of about two
    record slices per worker: neither the raw file nor a merged column of
    all the records is ever built."""
    monkeypatch.setattr(tagstream, "_CHUNK_RECORDS", 1 << 16)
    n = 2_000_000
    path = tmp_path / "tags.bin"
    write_tags(_random_stream(n, seed=13), path)
    tracemalloc.start()
    try:
        back = read_tags(path, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) == n
    slice_bytes = RECORD_DTYPE.itemsize << 16
    assert peak <= 8 * n + 2 * 2 * slice_bytes + (1 << 20), peak


@pytest.mark.parametrize("n, high", [(0, 1), (500, 256), (10_000, 6)], ids=["empty", "wide", "few"])
def test_default_labels_name_the_channels_present(n, high):
    channels = np.random.default_rng(n).integers(0, high, size=n, dtype=np.uint8)
    present = np.unique(channels).tolist()
    labels = TagStream(np.arange(n), channels).channel_labels
    assert list(labels) == present
    assert all(labels[c] == DEFAULT_ROLES.get(c, f"ch{c}") for c in present)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 255)), max_size=60, unique=True))
@example([])
def test_channel_times_match_the_mask_and_are_selected_once(records):
    times = np.array([t for t, _ in sorted(records)], dtype=np.int64)
    channels = np.array([c for _, c in sorted(records)], dtype=np.uint8)
    stream = TagStream(times, channels)
    for channel in range(256):
        # odd channels are counted before they are selected, even ones after
        if channel % 2:
            assert stream.count(channel) == np.count_nonzero(channels == channel)
        selected = stream.channel_times(channel)
        assert np.array_equal(selected, times[channels == channel])
        assert selected.dtype == np.int64 and not selected.flags.writeable
        assert stream.channel_times(channel) is selected
        assert stream.count(channel) == np.count_nonzero(channels == channel)


def test_read_rejects_time_disorder_with_index():
    payload = _records([(100, 0), (90, 1), (200, 0)])
    data = _header(records=3) + payload
    with pytest.raises(MonotonicityError) as info:
        read_tags(io.BytesIO(data))
    assert info.value.index == 1
    assert "record 1" in str(info.value)


def test_read_rejects_tied_times_out_of_channel_order():
    payload = _records([(100, 0), (100, 2), (100, 2)])
    data = _header(records=3) + payload
    with pytest.raises(MonotonicityError) as info:
        read_tags(io.BytesIO(data))
    assert info.value.index == 2


def test_read_accepts_tied_times_in_channel_order():
    payload = _records([(100, 0), (100, 1), (100, 2)])
    stream = read_tags(io.BytesIO(_header(records=3) + payload))
    times, channels = _file_records(stream)
    assert list(times) == [100, 100, 100]
    assert list(channels) == [0, 1, 2]


def test_error_hierarchy():
    # both stream and file errors are ValueErrors, so callers can catch broadly
    assert issubclass(MonotonicityError, FormatError)
    assert issubclass(FormatError, ValueError)
    assert issubclass(TagStreamError, ValueError)


# --- in-memory validation --------------------------------------------------


def test_constructor_rejects_disorder():
    with pytest.raises(TagStreamError, match="index 2"):
        TagStream([10, 20, 15], [0, 0, 0])


def test_constructor_rejects_duplicates():
    with pytest.raises(TagStreamError, match="duplicate"):
        TagStream([10, 10], [1, 1])


def test_constructor_rejects_tied_channel_disorder():
    with pytest.raises(TagStreamError, match="channel order"):
        TagStream([10, 10], [2, 0])


def test_constructor_rejects_negative_times():
    with pytest.raises(TagStreamError, match="negative"):
        TagStream([-1, 5], [0, 0])


@pytest.mark.parametrize(
    "times,channels,message",
    [
        ([0, 1, 2], np.array([0, 256, 1]), "channel 256 at index 1"),
        ([0, 1, 2], np.array([0, -1, 1]), "channel -1 at index 1"),
        ([0, 1, 2], np.array([0, 300, 1]), "channel 300 at index 1"),
        ([0, 1, 2], [0, 2.7, 1], "channel 2.7 at index 1"),
        ([0, 1.5, 2], [0, 1, 1], "time 1.5 at index 1"),
    ],
    ids=["channel-256", "channel-minus-1", "channel-300", "channel-2.7", "time-1.5"],
)
def test_constructor_refuses_values_the_cast_would_change(times, channels, message):
    """A channel outside 0..255 would wrap into another channel, and a
    fractional value would be truncated, so each is refused, not merged."""
    with pytest.raises(TagStreamError, match=message):
        TagStream(times, channels)


def test_constructor_accepts_tied_times_in_channel_order():
    stream = TagStream([10, 10, 10], [0, 1, 3])
    assert len(stream) == 3


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_keep_the_channels(clone):
    stream = TagStream([5, 9, 9, 14], [0, 2, 3, 0])
    back = clone(stream)
    assert _same_channels(back, stream)
    assert (len(back), back.span_ps) == (len(stream), stream.span_ps)
    assert not back.channel_times(0).flags.writeable


def test_from_tags_and_accessors():
    stream = TagStream([5, 9, 9, 14], [0, 2, 3, 0])
    assert len(stream) == 4
    assert stream.count(0) == 2
    assert stream.count(7) == 0
    assert list(stream.channel_times(0)) == [5, 14]
    assert stream.channel_labels[2] == "idler"
    assert stream.span_ps == 9


# --- the ordering rule, against brute force ---------------------------------

# few distinct times and channels, so ties, duplicates and disorder are common
_RECORD = st.tuples(st.integers(0, 6), st.integers(0, 3))
_RECORDS = st.one_of(
    st.lists(_RECORD, max_size=12),
    st.lists(_RECORD, max_size=12).map(sorted),
    st.lists(_RECORD, max_size=12, unique=True).map(sorted),
)


def _first_violation(records):
    """(index, kind) of the first record not strictly after its predecessor
    in (time, channel) order, or None."""
    for i in range(1, len(records)):
        (t0, c0), (t1, c1) = records[i - 1], records[i]
        if t1 < t0:
            return i, "tags out of order"
        if t1 == t0 and c1 == c0:
            return i, "duplicate (time, channel) record"
        if t1 == t0 and c1 < c0:
            return i, "simultaneous tags not in channel order"
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_RECORDS)
def test_ordering_rule_matches_brute_force(records):
    """Whole, and in slices of 3 records on 1 and 2 workers, so that faults
    at and across slice boundaries face the oracle too."""
    times = np.array([t for t, _ in records], dtype=np.int64)
    channels = np.array([c for _, c in records], dtype=np.uint8)
    data = _header(records=len(records)) + _records(records)
    violation = _first_violation(records)
    for chunk, workers in ((tagstream._CHUNK_RECORDS, 1), (3, 1), (3, 2)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tagstream, "_CHUNK_RECORDS", chunk)
            if violation is None:
                assert len(TagStream(times, channels)) == len(records)
                back_times, back_channels = _file_records(read_tags(io.BytesIO(data), workers))
                assert np.array_equal(back_times, times)
                assert np.array_equal(back_channels, channels)
                continue
            index, kind = violation
            with pytest.raises(TagStreamError) as info:
                TagStream(times, channels)
            assert str(info.value) == f"{kind} at index {index}"
            assert info.value.index == index
            with pytest.raises(MonotonicityError) as info:
                read_tags(io.BytesIO(data), workers)
            assert info.value.index == index


# --- a file that changes while it is read -----------------------------------


class _ChangingFile(io.BytesIO):
    """A tag file whose records become ``later`` once each record byte has
    been read: after the reader's first full pass."""

    def __init__(self, records, later):
        super().__init__(_header(records=len(records)) + _records(records))
        self.later, self.left = _records(later), len(records) * RECORD_DTYPE.itemsize

    def readinto(self, buffer):
        got = super().readinto(buffer)
        self.left -= got
        if self.left <= 0 and self.later is not None:
            at = self.tell()
            self.seek(HEADER_STRUCT.size)
            self.write(self.later)
            self.truncate()
            self.seek(at)
            self.later = None
        return got


def _slice_counts(records, chunk):
    return [sorted(c for _, c in records[at : at + chunk]) for at in range(0, len(records), chunk)]


_SORTED = st.lists(_RECORD, min_size=1, max_size=12, unique=True).map(sorted)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    _SORTED.flatmap(
        lambda first: st.tuples(
            st.just(first),
            st.one_of(
                st.permutations(first),  # the same channel counts, out of order
                st.lists(_RECORD, min_size=len(first), max_size=len(first)).map(sorted),
                st.lists(_RECORD, min_size=len(first), max_size=len(first)),
                st.lists(_RECORD, max_size=len(first) - 1).map(sorted),  # truncated
            ),
        )
    )
)
def test_a_file_that_changes_between_the_reads_never_gives_unsorted_channels(files):
    """The second pass checks exactly the records it places: a read either
    fails with a file error or returns the later records, split by channel."""
    first, later = files
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tagstream, "_CHUNK_RECORDS", 3)
            source = _ChangingFile(first, later)
            try:
                stream = read_tags(source, workers)
            except FormatError:
                assert source.later is None
                assert (
                    len(later) < len(first)
                    or _slice_counts(later, 3) != _slice_counts(first, 3)
                    or _first_violation(later) is not None
                )
                continue
            assert _slice_counts(later, 3) == _slice_counts(first, 3)
            assert _first_violation(later) is None
            for channel in range(256):
                want = [t for t, c in later if c == channel]
                assert stream.channel_times(channel).tolist() == want


@pytest.mark.parametrize(
    "later, message",
    [
        (lambda rows: rows[::-1], "record 1 breaks time ordering"),
        (lambda rows: [(t, 3) for t, _ in rows], "records changed between the two reads"),
        (lambda rows: rows[:-1], "truncated file while reading records"),
    ],
    ids=["reordered", "recounted", "truncated"],
)
def test_cli_exits_3_when_the_file_changes_between_the_reads(
    tmp_path, monkeypatch, capsys, later, message
):
    rows = [(1_000 * k, k % 3) for k in range(600)]
    read = biphoton.cli.read_tags

    def changing(path, workers):
        return read(_ChangingFile(rows, later(rows)), workers)

    monkeypatch.setattr(biphoton.cli, "read_tags", changing)
    out = tmp_path / "out"
    assert main(["xcorr", "--tags", str(tmp_path / "tags.bin"), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"analysis error: {message}\n"


def test_importing_tagstream_loads_no_other_biphoton_module():
    src = str(Path(tagstream.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import json, sys, biphoton.tagstream; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'biphoton')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == ["biphoton", "biphoton._tasks", "biphoton.tagstream"]
