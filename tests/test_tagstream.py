"""Round-trip and validation behavior of the time-tag container and its
binary file format."""

import io
import struct

import numpy as np
import pytest

from biphoton.tagstream import (
    FORMAT_VERSION,
    HEADER_STRUCT,
    MAGIC,
    RECORD_DTYPE,
    FormatError,
    MonotonicityError,
    TagStream,
    TagStreamError,
    TimeTag,
    read_tags,
    write_tags,
)


def _random_stream(n, seed, resolution_ps=1):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, 2_000, size=n, dtype=np.int64)
    times = np.cumsum(gaps)
    channels = rng.integers(0, 4, size=n, dtype=np.int64)
    flags = rng.integers(0, 2, size=n, dtype=np.int64).astype(np.uint8)
    return TagStream(times, channels.astype(np.uint8), flags, resolution_ps=resolution_ps)


def _file_bytes(stream):
    buf = io.BytesIO()
    write_tags(stream, buf)
    return buf.getvalue()


# --- file round trips ------------------------------------------------------


def test_roundtrip_million_tags(tmp_path):
    stream = _random_stream(1_000_000, seed=5)
    path = tmp_path / "tags.bin"
    written = write_tags(stream, path)
    assert written == HEADER_STRUCT.size + len(stream) * RECORD_DTYPE.itemsize
    assert path.stat().st_size == written

    back = read_tags(path)
    assert np.array_equal(back.times, stream.times)
    assert np.array_equal(back.channels, stream.channels)
    assert np.array_equal(back.flags, stream.flags)
    assert back.resolution_ps == stream.resolution_ps
    # a second pass through the format changes nothing
    assert _file_bytes(back) == path.read_bytes()


def test_roundtrip_file_object():
    stream = _random_stream(10_000, seed=6)
    buf = io.BytesIO(_file_bytes(stream))
    back = read_tags(buf)
    assert np.array_equal(back.times, stream.times)
    assert np.array_equal(back.channels, stream.channels)


def test_roundtrip_empty_stream(tmp_path):
    empty = TagStream([], [])
    path = tmp_path / "empty.bin"
    assert write_tags(empty, path) == HEADER_STRUCT.size
    back = read_tags(path)
    assert len(back) == 0
    assert back.resolution_ps == 1


def test_roundtrip_preserves_resolution():
    stream = _random_stream(500, seed=7, resolution_ps=8)
    back = read_tags(io.BytesIO(_file_bytes(stream)))
    assert back.resolution_ps == 8
    assert back.span_ps == stream.span_ps


def test_write_rejects_negative_times():
    bad = TagStream(np.array([-5, 3]), np.array([0, 1], dtype=np.uint8), validate=False)
    with pytest.raises(TagStreamError):
        write_tags(bad, io.BytesIO())


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
    with pytest.raises(FormatError, match="resolution"):
        read_tags(io.BytesIO(_header(resolution=0)))


def test_read_rejects_truncated_header():
    with pytest.raises(FormatError, match="header"):
        read_tags(io.BytesIO(_header()[:10]))


def test_read_rejects_truncated_records():
    stream = _random_stream(100, seed=8)
    data = _file_bytes(stream)
    with pytest.raises(FormatError, match="records"):
        read_tags(io.BytesIO(data[:-7]))


def test_read_rejects_timestamps_beyond_int64():
    payload = _records([(100, 0), (2**63, 1)])
    with pytest.raises(FormatError, match="record 1"):
        read_tags(io.BytesIO(_header(records=2) + payload))


def _records(rows):
    arr = np.zeros(len(rows), dtype=RECORD_DTYPE)
    for i, (t, c) in enumerate(rows):
        arr[i] = (t, c, 0, 0, 0)
    return arr.tobytes()


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
    assert list(stream.times) == [100, 100, 100]
    assert list(stream.channels) == [0, 1, 2]


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


def test_constructor_rejects_bad_resolution():
    with pytest.raises(TagStreamError, match="resolution"):
        TagStream([1], [0], resolution_ps=0)


def test_constructor_accepts_tied_times_in_channel_order():
    stream = TagStream([10, 10, 10], [0, 1, 3])
    assert len(stream) == 3


def test_from_tags_and_accessors():
    stream = TagStream([5, 9, 9, 14], [0, 2, 3, 0], [0, 0, 0, 1])
    assert len(stream) == 4
    assert stream[1] == TimeTag(9, 2)
    assert list(stream)[-1] == TimeTag(14, 0, 1)
    assert stream.count(0) == 2
    assert stream.count(7) == 0
    assert list(stream.channel_times(0)) == [5, 14]
    assert stream.flags[-1] == 1
    assert stream.channel_labels[2] == "idler"


def test_span_uses_resolution():
    stream = TagStream([100, 400], [0, 1], resolution_ps=8)
    assert stream.span_ps == 2400
