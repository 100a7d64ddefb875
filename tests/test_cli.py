"""End-to-end command-line behavior: files written, exit codes, determinism."""

import contextlib
import csv
import hashlib
import inspect
import io
from pathlib import Path

import numpy as np
import pytest

import biphoton.cli
from biphoton.cli import main
from biphoton.config import _SECTIONS, parse_config
from biphoton.models import ModelError
from biphoton.tagstream import (
    FORMAT_VERSION,
    HEADER_STRUCT,
    MAGIC,
    RECORD_DTYPE,
    TagStream,
    read_tags,
    write_tags,
)

LOSSLESS = """\
[source]
escape_s = 1.0
escape_i = 1.0
transmission_s = 1.0
transmission_i = 1.0
idler_filter_transmission = 1.0
detector_a_efficiency = 1.0
detector_a_dark_hz = 0
detector_i_efficiency = 1.0
detector_i_dark_hz = 0
mode_weights = 1.0

[run]
duration_s = 4.0
seed = 31
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- simulate -----------------------------------------------------------------


def test_simulate_writes_a_readable_tag_file(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", LOSSLESS)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    stream = read_tags(out / "tags.bin")
    assert len(stream) > 10_000
    assert sum(stream.count(channel) for channel in (0, 1, 2)) == len(stream)
    stdout = capsys.readouterr().out
    assert "tags.bin" in stdout
    assert "idler" in stdout
    assert not list(out.glob("*.tmp"))


def test_seed_flag_overrides_the_config(tmp_path):
    cfg = _write(tmp_path, "run.cfg", LOSSLESS)
    for seed, name in ((9, "a"), (9, "b"), (10, "c")):
        assert main(["simulate", "--config", cfg, "--seed", str(seed),
                     "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "a" / "tags.bin").read_bytes()
    b = (tmp_path / "b" / "tags.bin").read_bytes()
    c = (tmp_path / "c" / "tags.bin").read_bytes()
    assert a == b
    assert a != c


def test_out_directory_is_created_deep(tmp_path):
    cfg = _write(tmp_path, "run.cfg", LOSSLESS)
    out = tmp_path / "deep" / "nested" / "dir"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "tags.bin").exists()


# --- analysis on saved tags ------------------------------------------------------


@pytest.fixture(scope="module")
def lossless_tags(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tags")
    cfg = _write(tmp, "run.cfg", LOSSLESS)
    out = tmp / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return cfg, str(out / "tags.bin")


def test_xcorr_on_saved_tags(tmp_path, lossless_tags, capsys):
    cfg, tags = lossless_tags
    out = tmp_path / "x"
    assert main(["xcorr", "--config", cfg, "--tags", tags, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "g2" in stdout
    rows = _rows(out / "cross_correlation.csv")
    assert set(rows[0]) == {"delay_ns", "counts", "normalized"}
    assert len(rows) == 2200  # 11 us span over 5 ns bins
    summary = (out / "xcorr_summary.txt").read_text(encoding="ascii")
    assert "fit_dnu_fall_hz" in summary
    assert "g2 =" in summary
    assert "g2_zero =" in summary


def test_xcorr_g2_zero_is_the_fitted_peak_over_the_fitted_floor(tmp_path, lossless_tags):
    cfg, tags = lossless_tags
    out = tmp_path / "x"
    assert main(["xcorr", "--config", cfg, "--tags", tags, "--out", str(out)]) == 0
    lines = (out / "xcorr_summary.txt").read_text(encoding="ascii").splitlines()
    summary = dict(line.split(" = ", 1) for line in lines)
    assert summary["fit_converged"] == "true"
    expected = 1.0 + float(summary["fit_amplitude"]) / float(summary["fit_floor"])
    assert float(summary["g2_zero"]) == pytest.approx(expected, rel=1e-7)


def test_metrics_on_saved_tags(tmp_path, lossless_tags, capsys):
    cfg, tags = lossless_tags
    out = tmp_path / "m"
    assert main(["metrics", "--config", cfg, "--tags", tags, "--out", str(out)]) == 0
    text = (out / "metrics.txt").read_text(encoding="ascii")
    for key in ("coincidence_slope_hz_per_mw", "created_per_s_mw",
                "spectral_brightness_per_s_mw_mhz", "creation_prob_per_mw",
                "heralding_efficiency"):
        assert key in text
    assert "heralding_efficiency" in capsys.readouterr().out


def test_sweep_window_uses_tags_and_divisor(tmp_path, lossless_tags):
    cfg, tags = lossless_tags
    base = parse_config(open(cfg).read())
    plain = _write(
        tmp_path, "w1.cfg",
        open(cfg).read() + "\n[sweep]\nwindows_ns = 100, 400\n"
    )
    divided = _write(
        tmp_path, "w2.cfg",
        open(cfg).read() + "\n[sweep]\nwindows_ns = 100, 400\ng2_divisor = 5.0\n"
    )
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["sweep-window", "--config", plain, "--tags", tags, "--out", str(out1)]) == 0
    assert main(["sweep-window", "--config", divided, "--tags", tags, "--out", str(out2)]) == 0
    rows1 = _rows(out1 / "window_sweep.csv")
    rows2 = _rows(out2 / "window_sweep.csv")
    assert [r["window_ns"] for r in rows1] == ["100", "400"]
    for r1, r2 in zip(rows1, rows2):
        assert r1["coincidences"] == r2["coincidences"]
        assert float(r1["g2_si"]) == pytest.approx(5.0 * float(r2["g2_si"]), rel=1e-6)
    # wider windows catch more pairs
    assert int(rows1[1]["coincidences"]) > int(rows1[0]["coincidences"])
    assert base.window_ns == 400.0


@pytest.mark.parametrize("extra", [
    "[sweep]\nwindows_ns = 50, 100, 201\n",
    "[analysis]\nbin_ns = 7\ntau_range_ns = 3500\n",
], ids=["windows-50-100-201", "bin-7ns"])
def test_sweep_window_accepts_any_bin_width(tmp_path, lossless_tags, extra):
    # windows and floor are counted in exact picoseconds, whether or not their
    # edges lie on the bin_ns grid
    cfg, tags = lossless_tags
    swept = _write(tmp_path, "w.cfg", open(cfg).read() + extra)
    out = tmp_path / "w"
    assert main(["sweep-window", "--config", swept, "--tags", tags, "--out", str(out)]) == 0
    windows = parse_config(open(swept).read()).windows_ns
    assert [float(r["window_ns"]) for r in _rows(out / "window_sweep.csv")] == list(windows)


def _count_stop_searches(monkeypatch):
    """Record each call of the correlator's kernel histogram in the returned list."""
    calls = []
    kernel = biphoton.correlator._histogram

    def counting(*args):
        calls.append(args[2:])
        return kernel(*args)

    monkeypatch.setattr(biphoton.correlator, "_histogram", counting)
    return calls


def test_sweep_window_is_one_stop_search_whatever_the_bin_width(
    tmp_path, lossless_tags, monkeypatch
):
    cfg, tags = lossless_tags
    calls = _count_stop_searches(monkeypatch)
    sweeps = []
    for bin_ns in (5, 7):
        swept = _write(
            tmp_path, f"b{bin_ns}.cfg",
            open(cfg).read() + f"[analysis]\nbin_ns = {bin_ns}\ntau_range_ns = 3500\n",
        )
        out = tmp_path / f"b{bin_ns}"
        calls.clear()
        assert main(["sweep-window", "--config", swept, "--tags", tags, "--out", str(out)]) == 0
        assert len(calls) == 1
        sweeps.append((out / "window_sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]


def test_sweep_power_is_one_stop_search_per_coincidence_point(tmp_path, monkeypatch):
    calls = _count_stop_searches(monkeypatch)
    body = "[sweep]\npowers_mw = 0.5, 1.0\npoint_duration_s = 2.0\n[run]\nseed = 5\n"
    cfg = _write(tmp_path, "p.cfg", body)
    assert main(["sweep-power", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    assert len(calls) == 2


@pytest.fixture(scope="module")
def split_tags(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("split")
    cfg = _write(tmp, "run.cfg", "[run]\npreset = signal-autocorr\nduration_s = 2.0\nseed = 5\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp / "sim")]) == 0
    return cfg, str(tmp / "sim" / "tags.bin")


@pytest.mark.parametrize("command", ["xcorr", "autocorr", "heralded", "metrics", "sweep-window"])
def test_tags_call_selects_each_channel_once(tmp_path, split_tags, monkeypatch, command):
    """However often one CLI call on a tag file asks for a channel's times,
    the stream is scanned for that channel once: every request for it gets
    the same array."""
    cfg, tags = split_tags
    select = TagStream.channel_times
    calls = []  # keeps every returned array alive, so no two share an id

    def recording(stream, channel):
        times = select(stream, channel)
        calls.append((stream, int(channel), times))
        return times

    monkeypatch.setattr(TagStream, "channel_times", recording)
    assert main([command, "--config", cfg, "--tags", tags, "--out", str(tmp_path / "o")]) == 0
    assert len({id(stream) for stream, _, _ in calls}) == 1
    fills = {(channel, id(times)) for _, channel, times in calls}
    assert sorted(channel for channel, _ in fills) == sorted({channel for _, channel, _ in calls})


@pytest.mark.parametrize("command", ["xcorr", "heralded", "metrics", "sweep-window"])
def test_every_tag_file_read_runs_on_the_configured_workers(
    tmp_path, split_tags, monkeypatch, command
):
    """The file is read on ``[analysis] workers`` threads, in slices small
    enough to make many tasks, and every artifact is the same at 1 and 3."""
    cfg, tags = split_tags
    monkeypatch.setattr(biphoton.tagstream, "_CHUNK_RECORDS", 1_000)
    assert len(read_tags(tags)) > 5_000
    read = biphoton.cli.read_tags
    workers = []

    def spy(*args, **kwargs):
        call = inspect.signature(read).bind(*args, **kwargs)
        call.apply_defaults()
        workers.append(call.arguments["workers"])
        return read(*args, **kwargs)

    monkeypatch.setattr(biphoton.cli, "read_tags", spy)
    # one config path and one out directory: summaries name both
    swept, out = tmp_path / "w.cfg", tmp_path / "w"
    artifacts = []
    for n in (1, 3):
        swept.write_text(open(cfg).read() + f"[analysis]\nworkers = {n}\n", encoding="ascii")
        assert main([command, "--config", str(swept), "--tags", tags, "--out", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert workers == [1, 3]
    assert artifacts[0] == artifacts[1]


def test_heralded_needs_the_herald_channel(tmp_path):
    no_idler = TagStream([100, 200, 300], [0, 1, 0])
    path = tmp_path / "pairs_only.bin"
    write_tags(no_idler, path)
    cfg = _write(tmp_path, "run.cfg", LOSSLESS)
    rc = main(["heralded", "--config", cfg, "--tags", str(path), "--out", str(tmp_path / "h")])
    assert rc == 3


# --- exit codes ---------------------------------------------------------------------


def test_bad_config_exits_2_with_line_number(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "[source]\nboop = 1\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 2" in err


def test_invalid_config_value_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "[run]\nduration_s = 0\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "duration" in capsys.readouterr().err


# the keys that scale the expected photon counts
_PAIR = "pump_mw creation_prob_per_mw reference_window_ns mode_weights"
# one out-of-range value, or more, for every [source] and [cavity] key that a
# model check covers, and the huge values that would overflow; each with the
# keys its message blames, in order
_OUT_OF_RANGE = [
    ("[source]\nescape_s = 1.5\n", "escape_s"),
    ("[source]\ndetector_a_efficiency = 1.5\n", "detector_a_efficiency"),
    ("[source]\ngate_period_ns = 100\ngate_duty = 2\n", "gate_duty"),
    ("[source]\nfsr_mhz = 0\n", "fsr_mhz"),
    ("[source]\nescape_s = 2\ntransmission_s = 2\n", "escape_s"),
    ("[source]\npump_mw = -1\n", "pump_mw"),
    ("[source]\ncreation_prob_per_mw = -0.1\n", "creation_prob_per_mw"),
    ("[source]\nreference_window_ns = 0\n", "reference_window_ns"),
    ("[source]\nsignal_linewidth_mhz = 0\n", "signal_linewidth_mhz"),
    ("[source]\nidler_linewidth_mhz = -2\n", "idler_linewidth_mhz"),
    ("[source]\nmode_weights = 0, 1\n", "mode_weights"),
    ("[source]\nescape_i = -0.1\n", "escape_i"),
    ("[source]\ntransmission_s = 1.5\n", "transmission_s"),
    ("[source]\ntransmission_i = 2\n", "transmission_i"),
    ("[source]\nidler_filter_transmission = 1.1\n", "idler_filter_transmission"),
    ("[source]\nidler_filter_extinction = -0.5\n", "idler_filter_extinction"),
    ("[source]\nsplitter_ratio = 1.5\n", "splitter_ratio"),
    ("[source]\ncoherence_slot_ns = 0\n", "coherence_slot_ns"),
    ("[source]\ndetector_a_dark_hz = -1\n", "detector_a_dark_hz"),
    ("[source]\ndetector_a_dead_ns = -1\n", "detector_a_dead_ns"),
    ("[source]\ndetector_b_efficiency = -0.1\n", "detector_b_efficiency"),
    ("[source]\ndetector_b_dark_hz = -5\n", "detector_b_dark_hz"),
    ("[source]\ndetector_b_dead_ns = -5\n", "detector_b_dead_ns"),
    ("[source]\ndetector_i_efficiency = 2\n", "detector_i_efficiency"),
    ("[source]\ndetector_i_dark_hz = -0.5\n", "detector_i_dark_hz"),
    ("[source]\ndetector_i_dead_ns = -0.5\n", "detector_i_dead_ns"),
    ("[source]\ngate_period_ns = 0.0001\n", "gate_period_ns"),
    ("[source]\ngate_duty = 0\ngate_period_ns = 100\n", "gate_duty"),
    ("[cavity]\nfinesse = 250\n", "finesse r_hr r_oc n_hr"),
    ("[cavity]\nfinesse = 50\nfinesse_err = 60\n", "finesse finesse_err"),
    ("[cavity]\nfinesse_err = -1\n", "finesse_err"),
    ("[cavity]\nr_hr = 2\n", "r_hr"),
    ("[cavity]\nr_oc = 1.5\n", "r_oc"),
    ("[cavity]\nr_oc_err = -1\n", "r_oc_err"),
    ("[cavity]\nr_oc_err = 0.05\n", "r_oc r_oc_err"),
    ("[cavity]\nn_hr = 0\n", "n_hr"),
    ("[cavity]\nn_hr = 1" + "0" * 309 + "\n", "n_hr"),
    ("[cavity]\nheralding_efficiency = -0.5\n", "heralding_efficiency"),
    ("[cavity]\nheralding_transmission = 0\n", "heralding_transmission"),
    ("[cavity]\nuncorrelated_fraction = 1\n", "uncorrelated_fraction"),
    # an escape efficiency above 1
    ("[cavity]\nheralding_efficiency = 0.9\nheralding_transmission = 0.5\n",
     "heralding_efficiency heralding_transmission uncorrelated_fraction"),
    ("[source]\ndetector_a_dark_hz = 1e300\n[run]\nduration_s = 0.5\n", "detector_a_dark_hz"),
    ("[source]\npump_mw = 1e300\n[run]\nduration_s = 0.5\n", _PAIR),
    ("[source]\ncreation_prob_per_mw = 1e300\n[run]\nduration_s = 0.5\n", _PAIR),
    ("[source]\nreference_window_ns = 1e-300\n", _PAIR),
    ("[source]\nmode_weights = 1e-300, 1\n", _PAIR),
    ("[sweep]\npowers_mw = 1, 1e300\n", "powers_mw" + _PAIR[7:]),
]


def _blamed_lines(body, key):
    """Blamed key -> the line that assigns it, for the keys the body assigns."""
    keys = key.split()
    lines = enumerate(body.splitlines(), 1)
    return {k: n for n, text in lines for k in keys if text.startswith(k + " =")}


def test_out_of_range_cases_cover_every_checked_key():
    unchecked = {"gate_phase_ns", "gate_darks", "pair_correlations"}
    checked = set(_SECTIONS["source"]) - unchecked | set(_SECTIONS["cavity"])
    assert checked <= {k for body, key in _OUT_OF_RANGE for k in _blamed_lines(body, key)}


@pytest.mark.parametrize("body,key", _OUT_OF_RANGE)
def test_out_of_range_source_value_exits_2(tmp_path, capsys, body, key):
    cfg = _write(tmp_path, "bad.cfg", body)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    # every key at fault, in order, and the last line that assigns one
    line = max(_blamed_lines(body, key).values())
    keys = ", ".join(map(repr, key.split()))
    assert err.startswith(f"config error: line {line}: bad value for {keys}: ")


@pytest.mark.parametrize("command,body,key", [
    ("metrics", "[analysis]\nwindow_ns = inf\n", "window_ns"),
    ("metrics", "[run]\nduration_s = inf\n", "duration_s"),
    ("metrics", "[sweep]\nwindows_ns = 100, inf\n", "windows_ns"),
    ("metrics", "[source]\ngate_period_ns = 1e300\n", "gate_period_ns"),
    ("metrics", "[run]\nduration_s = nan\n", "duration_s"),
    ("sweep-window", "[analysis]\nfloor_max_ns = 1e300\n", "floor_max_ns"),
    ("metrics", "[source]\npump_mw = nan\n", "pump_mw"),
])
def test_non_finite_or_clock_overflowing_value_exits_2(tmp_path, capsys, command, body, key):
    cfg = _write(tmp_path, "bad.cfg", body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 2: ")
    assert err.count("\n") == 1
    assert key in err


def test_report_checks_its_idler_arrangement_before_simulating(tmp_path, capsys, monkeypatch):
    """The config passes at its own pump, but the idler-autocorr preset's
    4.3 mW expects 2e12 idler tags in 1 s: report refuses before any run."""
    body = (
        "[source]\npump_mw = 1e-9\ncreation_prob_per_mw = 1e6\n"
        "[sweep]\npowers_mw = 1e-9\n[run]\nduration_s = 1\n"
    )
    cfg = _write(tmp_path, "bad.cfg", body)
    runs = []
    monkeypatch.setattr(biphoton.cli, "simulate_source", lambda *args, **kw: runs.append(args))
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: report's idler-autocorr arrangement, ")
    assert "tags expected on detector_i" in err
    assert err.count("\n") == 1
    assert runs == []


_NO_DETECTOR_A = """\
[source]
detector_a_efficiency = 0
detector_a_dark_hz = 100000
[run]
duration_s = 1.0
[sweep]
powers_mw = 1.0
point_duration_s = 0.5
"""


@pytest.mark.parametrize("command,body,message", [
    ("metrics", _NO_DETECTOR_A, "signal detector efficiency must lie in (0, 1]"),
    ("sweep-window", _NO_DETECTOR_A, "signal detector efficiency must lie in (0, 1]"),
    ("sweep-power", _NO_DETECTOR_A, "signal detector efficiency must lie in (0, 1]"),
    ("metrics", "[source]\npump_mw = 0\n[run]\nduration_s = 1.0\n",
     "pump_mw must be positive to give a coincidence slope"),
], ids=["metrics-eta-0", "sweep-window-eta-0", "sweep-power-eta-0", "metrics-pump-0"])
def test_zero_efficiency_or_pump_exits_3_with_one_line(tmp_path, capsys, command, body, message):
    cfg = _write(tmp_path, "zero.cfg", body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"analysis error: {message}\n"


def test_missing_tags_file_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", LOSSLESS)
    rc = main(["xcorr", "--config", cfg, "--tags", str(tmp_path / "absent.bin"),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "analysis error" in capsys.readouterr().err


def test_corrupt_tags_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a tag file at all")
    cfg = _write(tmp_path, "run.cfg", LOSSLESS)
    rc = main(["xcorr", "--config", cfg, "--tags", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "analysis error" in capsys.readouterr().err


def test_tag_file_header_count_must_match_the_file_size(tmp_path, capsys):
    bad = tmp_path / "huge.bin"
    bad.write_bytes(HEADER_STRUCT.pack(MAGIC, FORMAT_VERSION, 0, 1, 3, 2**59))
    cfg = _write(tmp_path, "run.cfg", LOSSLESS)
    rc = main(["xcorr", "--config", cfg, "--tags", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("analysis error:")
    assert err.count("\n") == 1


def test_tag_file_at_another_resolution_exits_3(tmp_path, capsys):
    coarse = tmp_path / "coarse.bin"
    with open(coarse, "wb") as fh:
        write_tags(TagStream([10, 20], [0, 2]), fh)
        fh.seek(0)
        fh.write(HEADER_STRUCT.pack(MAGIC, FORMAT_VERSION, 0, 8, 2, 2))
    cfg = _write(tmp_path, "run.cfg", LOSSLESS)
    rc = main(["xcorr", "--config", cfg, "--tags", str(coarse), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("analysis error:")
    assert "8 ps" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["xcorr", "metrics", "sweep-window"])
def test_tag_times_past_the_clock_exit_3(tmp_path, capsys, command):
    """400 heralds and 400 signals in the last 10 us below 2^63 - 1, where
    adding a delay to a time would wrap: the read refuses them with one
    line.  Below 2^62 ps, the clock's limit, the same tags are analysed."""
    rng = np.random.default_rng(3)
    offsets = np.concatenate([rng.choice(10_000_000, 400, replace=False) for _ in range(2)])
    channels = np.repeat(np.array([2, 0], dtype=np.uint8), 400)
    order = np.lexsort((channels, offsets))
    records = np.zeros(800, dtype=RECORD_DTYPE)
    records["channel"] = channels[order]
    for top, rc in ((2**63 - 1, 3), (2**62, None)):
        records["time"] = top - 10_000_000 + offsets[order]
        path = tmp_path / "late.bin"
        header = HEADER_STRUCT.pack(MAGIC, FORMAT_VERSION, 0, 1, 2, 800)
        path.write_bytes(header + records.tobytes())
        got = main([command, "--tags", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if rc == 3:
            assert got == 3
            assert err == "analysis error: record 0 has a timestamp above 2^62 - 1\n"
        else:
            # an analysis may still find too few tags, but never in a traceback
            assert got in (0, 3) and err.count("\n") == (got == 3)


def test_failed_write_leaves_no_partial_file(tmp_path, lossless_tags, monkeypatch):
    cfg, tags = lossless_tags

    def failing_writer(hist, path):
        with open(path, "w") as fh:
            fh.write("delay_ns,counts,normalized\n")
        raise OSError("disk full")

    monkeypatch.setattr(biphoton.cli, "write_histogram_csv", failing_writer)
    out = tmp_path / "x"
    assert main(["xcorr", "--config", cfg, "--tags", tags, "--out", str(out)]) == 3
    assert list(out.iterdir()) == []


def test_benchmark_hooks_find_every_cli_name(tmp_path, lossless_tags, monkeypatch):
    # the benchmark's tracer replaces biphoton.cli attributes by name
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import spans

    tracer = spans.Tracer()
    assert len(spans.counted_sources([0])) == 2
    restore = spans.patch(spans.traced_functions(tracer))
    try:
        cfg, tags = lossless_tags
        assert main(["xcorr", "--config", cfg, "--tags", tags, "--out", str(tmp_path)]) == 0
    finally:
        restore()
    names = {span.name for span in tracer.take()}
    assert {"tagstream.read", "correlator.histogram", "correlator.csv", "fitting.fit"} <= names


def test_unknown_preset_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--preset", "fastest"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# --- sweeps and cavity ------------------------------------------------------------------


def test_power_sweep_csv_and_worker_determinism(tmp_path):
    body = "[sweep]\npowers_mw = 0.5, 1.0\npoint_duration_s = 2.0\n[run]\nseed = 5\n"
    cfg1 = _write(tmp_path, "p1.cfg", body)
    cfg3 = _write(tmp_path, "p3.cfg", body + "[analysis]\nworkers = 3\n")
    out1, out3 = tmp_path / "p1", tmp_path / "p3"
    assert main(["sweep-power", "--config", cfg1, "--out", str(out1)]) == 0
    assert main(["sweep-power", "--config", cfg3, "--out", str(out3)]) == 0
    data = (out1 / "power_sweep.csv").read_bytes()
    assert data == (out3 / "power_sweep.csv").read_bytes()

    rows = _rows(out1 / "power_sweep.csv")
    assert [r["power_mw"] for r in rows] == ["0.5", "1"]
    for row in rows:
        assert float(row["eta_h"]) > 0.05
        assert float(row["g2_si"]) > 10.0
    # stronger pumping lowers the predicted and simulated pair correlation
    assert float(rows[0]["g2_si_model"]) > float(rows[1]["g2_si_model"])
    assert float(rows[0]["g2_si"]) > float(rows[1]["g2_si"])


@pytest.mark.parametrize("command,n_calls", [("report", 3), ("sweep-power", 4), ("xcorr", 1)])
def test_every_simulation_runs_on_the_configured_workers(
    tmp_path, monkeypatch, command, n_calls
):
    simulate = biphoton.cli.simulate_source
    workers = []

    def spy(*args, **kwargs):
        call = inspect.signature(simulate).bind(*args, **kwargs)
        call.apply_defaults()
        workers.append(call.arguments["workers"])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(biphoton.cli, "simulate_source", spy)
    body = (
        "[sweep]\npowers_mw = 0.5, 1.0\npoint_duration_s = 2.0\n"
        "[analysis]\nworkers = 3\n[run]\nduration_s = 4.0\nseed = 5\n"
    )
    cfg = _write(tmp_path, "w.cfg", body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "w")]) == 0
    assert workers == [3] * n_calls


def test_cavity_report_matches_the_closed_form(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "[run]\nseed = 1\n")
    out = tmp_path / "cav"
    assert main(["cavity", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "cavity.txt").read_text(encoding="ascii")
    assert f"{0.024060511738431933:.8g}" in text
    assert f"{0.5549337036458876:.8g}" in text
    assert f"{0.28 / 0.71:.8g}" in text
    assert f"{0.28 / (0.71 * 0.9):.8g}" in text
    assert "escape" in capsys.readouterr().out


# --- report ----------------------------------------------------------------------------


def test_report_is_deterministic_and_self_describing(tmp_path):
    cfg_text = "[run]\nduration_s = 4.0\nseed = 7\n"
    cfg = _write(tmp_path, "rep.cfg", cfg_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["report", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["report", "--config", cfg, "--out", str(out2)]) == 0

    names = [
        "cross_correlation.csv",
        "auto_correlation_signal.csv",
        "auto_correlation_idler.csv",
        "heralded_orders.csv",
        "summary.txt",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert not list(out1.glob("*.tmp"))

    summary = (out1 / "summary.txt").read_text(encoding="ascii")
    head, config_part = summary.split("# full configuration\n", 1)
    for key in ("g2_si_window", "g2_ss_window", "g2_ii_window",
                "g2_iss_window", "r_window", "g2_iss_zero_model"):
        assert key in head
    # the embedded configuration reproduces the run inputs exactly
    embedded = parse_config(config_part)
    assert embedded == parse_config(cfg_text)

    orders = _rows(out1 / "heralded_orders.csv")
    assert [int(r["n"]) for r in orders] == list(range(-15, 16))


def test_failed_report_writes_no_artifacts(tmp_path, capsys, monkeypatch):
    # the Cauchy-Schwarz ratio is formed after every histogram is computed
    # and before any file is written
    def failing_ratio(*args):
        raise ModelError("correlation values must be positive")

    monkeypatch.setattr(biphoton.cli, "cauchy_schwarz", failing_ratio)
    cfg = _write(
        tmp_path, "rep.cfg",
        "[analysis]\nwindow_ns = 100\nbin_ns = 10\n[run]\nduration_s = 4.0\nseed = 7\n",
    )
    out = tmp_path / "r"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("analysis error:")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_report_uses_the_users_analysis_keys(tmp_path):
    cfg = _write(
        tmp_path, "rep.cfg",
        "[analysis]\nwindow_ns = 100\nbin_ns = 10\n[run]\nduration_s = 60.0\nseed = 7\n",
    )
    out = tmp_path / "r"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    for name in ("auto_correlation_signal.csv", "auto_correlation_idler.csv"):
        delays = [float(r["delay_ns"]) for r in _rows(out / name)]
        assert np.allclose(np.diff(delays), 10.0), name


# --- frozen outputs -------------------------------------------------------------------

FROZEN_RUN = "[run]\nduration_s = 4.0\nseed = 7\n"
FROZEN_SPLIT = "[run]\npreset = signal-autocorr\nduration_s = 4.0\nseed = 7\n"
FROZEN_SWEEP = FROZEN_RUN + "[sweep]\npowers_mw = 0.5, 1.0\npoint_duration_s = 2.0\n"


def _output_digest(tmp_path, command, config_text):
    """sha256 over the masked stdout and every artifact (name and bytes) of
    one subcommand run; the temporary directory is masked everywhere."""
    cfg = _write(tmp_path, "frozen.cfg", config_text)
    out = tmp_path / "out"
    capture = io.StringIO()
    with contextlib.redirect_stdout(capture):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    mask = str(tmp_path).encode()
    sha = hashlib.sha256(capture.getvalue().encode().replace(mask, b"<tmp>"))
    for path in sorted(out.iterdir()):
        sha.update(path.name.encode() + b"\0" + path.read_bytes().replace(mask, b"<tmp>"))
    return sha.hexdigest()


@pytest.mark.parametrize("command,config_text,digest", [
    ("simulate", FROZEN_RUN, "e72f90ad0cd2d84ebefa0d254d35415efc7f67069f3697fe2fb4387bd48f5b08"),
    ("xcorr", FROZEN_RUN, "23a127aa14245f9255d18b15c557f85d3cc9fd333a7a816cc7c1cc30409a3b7e"),
    ("autocorr", FROZEN_SPLIT, "83d54ec3657b2834fe2a59305a14db3303a87846373ddbc555b220069a92488c"),
    ("heralded", FROZEN_SPLIT, "be8d6a568bd17dc5d1a3faa1fb6288da877da7e02891d37c107452dca7655c5f"),
    ("metrics", FROZEN_RUN, "71dd38cba30ccf0fe49809c767406d69667e26a029b77624c858fa413020d002"),
    ("sweep-power", FROZEN_SWEEP,
     "ce106b23e23478537fd7125be3ae18706172e3328d3f57d2bd021855a336d8e7"),
    ("sweep-window", FROZEN_RUN,
     "7055ac8be0f4228f6683597d945a250d8e6ac4049a160bcb513d160dd387d4c6"),
    ("cavity", FROZEN_RUN, "4c7b355c561b5a6f3ddbc23604821c4c638aaa1e2f0f9c95ce8d0d5cd8cf743c"),
    ("report", FROZEN_RUN, "94e5c2eda667a2fb9d574f0c4a2c0149e8794382abf848d5c984017bade6372d"),
])
def test_cli_outputs_are_frozen(tmp_path, command, config_text, digest):
    """Every subcommand's stdout and artifacts for a fixed (config, seed) keep
    the bytes they had when these digests were taken; a change that alters
    any output on purpose updates its digest and says why."""
    assert _output_digest(tmp_path, command, config_text) == digest
