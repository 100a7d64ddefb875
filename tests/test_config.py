"""Configuration parsing, presets and the mapping onto simulator inputs."""

import inspect
from dataclasses import fields

import pytest

from biphoton.config import (
    _DETECTORS,
    _KEYS,
    _MODEL_NAMES,
    _SUFFIXES,
    PRESET_NAMES,
    ConfigError,
    ExperimentConfig,
    config_text,
    load_config,
    parse_config,
    preset_config,
)
from biphoton.models import DetectorSpec, ModelError, cavity_solve, escape_from_heralding
from biphoton.simulator import GateSpec, SourceParams


def test_reference_preset_is_the_default_config():
    assert preset_config("reference") == ExperimentConfig()


def test_all_presets_build_and_map_to_sources():
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        src = cfg.make_source()
        assert src.pump_mw == cfg.pump_mw


def test_unknown_preset_lists_the_known_ones():
    with pytest.raises(ConfigError, match="unknown preset 'fastest'"):
        preset_config("fastest")
    with pytest.raises(ConfigError, match="reference"):
        preset_config("fastest")


def test_idler_autocorr_preset_swaps_the_arms():
    cfg = preset_config("idler-autocorr")
    assert cfg.pump_mw == 4.3
    assert cfg.signal_linewidth_mhz == 2.3
    assert cfg.idler_linewidth_mhz == 3.7
    assert cfg.mode_weights == (1.0,)
    assert cfg.splitter_ratio == 0.5
    assert cfg.escape_s == 0.74
    assert cfg.transmission_s == 0.35
    assert cfg.idler_filter_transmission == 1.0
    assert cfg.detector_a_efficiency == 0.10
    assert cfg.detector_b_dark_hz == 192.0
    assert cfg.detector_i_efficiency == 0.62


def test_split_measurement_presets():
    signal = preset_config("signal-autocorr")
    assert signal.splitter_ratio == 0.5
    assert signal.pair_correlations

    surrogate = preset_config("surrogate")
    assert surrogate.splitter_ratio == 0.5
    assert not surrogate.pair_correlations

    sweep = preset_config("power-sweep")
    assert sweep.detector_i_dark_hz == 105.0
    assert sweep.splitter_ratio == 1.0


# --- mapping to simulator inputs ------------------------------------------------


def test_make_source_converts_units():
    cfg = ExperimentConfig(gate_period_ns=1000.0, detector_a_dead_ns=25.0)
    src = cfg.make_source()
    assert src.signal_linewidth_hz == pytest.approx(3.7e6)
    assert src.reference_window_s == pytest.approx(400e-9)
    assert src.coherence_slot_s == pytest.approx(250e-9)
    assert src.detector_a.dead_time_s == pytest.approx(25e-9)
    assert src.detector_a.efficiency == 0.62
    assert src.gate is not None
    assert src.gate.period_ps == 1_000_000
    assert src.gate.duty == 0.5


def test_make_source_without_gate_by_default():
    assert ExperimentConfig().make_source().gate is None


def test_make_source_accepts_overrides():
    src = ExperimentConfig().make_source(pump_mw=2.5, splitter_ratio=0.5)
    assert src.pump_mw == 2.5
    assert src.splitter_ratio == 0.5


def test_make_source_propagates_model_validation():
    with pytest.raises(ModelError):
        ExperimentConfig().make_source(splitter_ratio=1.5)


def test_blame_tables_name_real_keys_and_model_parameters():
    keys = {f.name for f in fields(ExperimentConfig)}
    parameters = {f.name for model in (SourceParams, GateSpec) for f in fields(model)}
    for model in (cavity_solve, escape_from_heralding):
        parameters |= set(inspect.signature(model).parameters)
    for key, (name, _) in _MODEL_NAMES.items():
        assert key in keys and name in parameters, key
    for name, key in _KEYS.items():
        assert key in keys and name in parameters, name
    assert set(_SUFFIXES) == {f.name for f in fields(DetectorSpec)}
    assert {d + suffix for d in _DETECTORS for suffix in _SUFFIXES.values()} <= keys


def test_analysis_unit_properties():
    cfg = ExperimentConfig()
    assert cfg.bin_ps == 5_000
    assert cfg.window_ps == 400_000
    assert cfg.windows_ps == [50_000, 100_000, 200_000, 400_000, 600_000, 800_000]
    assert cfg.tau_range_ps == (-5_500_000, 5_500_000)
    assert cfg.floor_region_ps == (1_000_000, 5_000_000)


# --- config validation ------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="duration"):
        ExperimentConfig(duration_s=0.0)
    with pytest.raises(ConfigError, match="ascending"):
        ExperimentConfig(windows_ns=(100.0, 50.0))
    with pytest.raises(ConfigError, match="positive"):
        ExperimentConfig(windows_ns=(0.0, 50.0))
    with pytest.raises(ConfigError, match="must differ"):
        ExperimentConfig(signal_channel=2)
    with pytest.raises(ConfigError, match="floor region"):
        ExperimentConfig(floor_min_ns=5000.0, floor_max_ns=1000.0)


# --- text format --------------------------------------------------------------------


def test_parse_reads_sections_keys_and_comments():
    cfg = parse_config(
        """
        # pump and detector tweaks
        [source]
        pump_mw = 2.0
        detector_i_dark_hz = 105
        gate_darks = no

        [run]
        seed = 42
        out_dir = results
        """
    )
    assert cfg.pump_mw == 2.0
    assert cfg.detector_i_dark_hz == 105.0
    assert cfg.gate_darks is False
    assert cfg.seed == 42
    assert cfg.out_dir == "results"
    # unrelated fields keep their defaults
    assert cfg.escape_s == ExperimentConfig().escape_s


@pytest.mark.parametrize("literal,value", [("true", True), ("yes", True), ("1", True),
                                           ("on", True), ("false", False), ("no", False),
                                           ("0", False), ("off", False)])
def test_boolean_literals(literal, value):
    cfg = parse_config(f"[source]\npair_correlations = {literal}\n")
    assert cfg.pair_correlations is value


def test_parse_preset_with_overrides():
    cfg = parse_config("[run]\npreset = idler-autocorr\n\n[source]\npump_mw = 2.0\n")
    assert cfg.pump_mw == 2.0
    assert cfg.signal_linewidth_mhz == 2.3  # from the preset
    assert cfg.detector_b_dark_hz == 192.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=r"line 1: unknown section \[nope\]"):
        parse_config("[nope]\n")
    with pytest.raises(ConfigError, match="line 1: assignment before any"):
        parse_config("pump_mw = 1\n")
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_config("[source]\nwhat\n")
    with pytest.raises(ConfigError, match="line 2: unknown key 'boop'"):
        parse_config("[source]\nboop = 1\n")
    with pytest.raises(ConfigError, match="line 2: bad value for 'pump_mw'"):
        parse_config("[source]\npump_mw = fast\n")
    with pytest.raises(ConfigError, match="line 3: preset assigned twice"):
        parse_config("[run]\npreset = reference\npreset = surrogate\n")
    with pytest.raises(ConfigError, match="unknown key 'preset'"):
        parse_config("[source]\npreset = reference\n")


@pytest.mark.parametrize("text,lineno,keys", [
    ("[run]\nduration_s = 0\n", 2, ("duration_s",)),
    ("[analysis]\nwindow_ns = -1\n", 2, ("window_ns",)),
    ("[analysis]\nworkers = 0\n", 2, ("workers",)),
    ("[analysis]\nfloor_min_ns = 9000\n", 2, ("floor_min_ns", "floor_max_ns")),
    ("[analysis]\nfloor_max_ns = 800\nbin_ns = 2\nfloor_min_ns = 900\n", 4,
     ("floor_min_ns", "floor_max_ns")),
    ("[analysis]\nsignal_channel = 2\n", 2,
     ("herald_channel", "signal_channel", "partner_channel")),
    ("[analysis]\nbin_ns = 7\n", 2, ("bin_ns", "tau_range_ns")),
    ("[analysis]\nwindow_ns = 0.0004\n", 2, ("window_ns",)),
    ("[sweep]\nwindows_ns = 0.0004, 100\n", 2, ("windows_ns",)),
    ("[analysis]\ntau_range_ns = 0.0004\n", 2, ("tau_range_ns",)),
    ("[analysis]\nfloor_min_ns = 0.0001\nfloor_max_ns = 0.0002\n", 3,
     ("floor_min_ns", "floor_max_ns")),
    ("[analysis]\nfloor_min_ns = 1000.0001\nfloor_max_ns = 1000.0004\n", 3,
     ("floor_min_ns", "floor_max_ns")),
    ("[analysis]\nfloor_min_ns = 150\n", 2, ("window_ns", "floor_min_ns")),
    ("[analysis]\nwindow_ns = 2000.002\n", 2, ("window_ns", "floor_min_ns")),
    ("[sweep]\nwindows_ns = 50, 2400\n", 2, ("windows_ns", "floor_min_ns")),
    ("[analysis]\nfloor_min_ns = 300\n[sweep]\nwindows_ns = 100, 700\n", 4,
     ("windows_ns", "floor_min_ns")),
    ("[sweep]\npoint_duration_s = 1e7\n", 2, ("point_duration_s",)),
    ("[source]\ndetector_b_dead_ns = 5e15\n", 2, ("detector_b_dead_ns",)),
    ("[cavity]\nfinesse_err = 60\nfinesse = 50\n", 3, ("finesse", "finesse_err")),
    ("[sweep]\npoint_duration_s = 1e6\n[source]\ndetector_i_dark_hz = 1e7\n", 4,
     ("detector_i_dark_hz",)),
])
def test_value_errors_carry_line_numbers(text, lineno, keys):
    with pytest.raises(ConfigError, match=f"^line {lineno}: ") as info:
        parse_config(text)
    assert info.value.keys == keys


def test_histogram_bin_count_is_bounded():
    """2^24 bins pass; one more bin pair, or a 1 ps bin over +-100 ms, is
    refused when the config is parsed, before any histogram is built."""
    assert parse_config("[analysis]\nbin_ns = 0.001\ntau_range_ns = 8388.608\n")
    for tau_range in ("8388.609", "100000000"):
        text = f"[analysis]\nbin_ns = 0.001\ntau_range_ns = {tau_range}\n"
        with pytest.raises(ConfigError, match="^line 3: .* histogram bins") as info:
            parse_config(text)
        assert info.value.keys == ("bin_ns", "tau_range_ns")


def test_config_text_roundtrips_every_preset():
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        assert parse_config(config_text(cfg)) == cfg


def test_config_text_roundtrips_modified_values():
    cfg = ExperimentConfig(
        pump_mw=0.125,
        mode_weights=(1.0, 0.5),
        windows_ns=(10.0, 20.0, 40.0),
        gate_darks=False,
        out_dir="some/dir",
        seed=77,
    )
    assert parse_config(config_text(cfg)) == cfg


def test_load_config_reads_files_and_reports_missing_ones(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[source]\npump_mw = 3.0\n", encoding="ascii")
    assert load_config(path).pump_mw == 3.0
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_refuses_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"[source]\npump_mw = 3.0\xff\n")
    with pytest.raises(ConfigError, match="cannot read config .*can't decode byte 0xff"):
        load_config(path)
