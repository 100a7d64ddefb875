"""Experiment configuration: presets, file parsing and serialization.

Config files are flat ``key = value`` text grouped by ``[section]`` headers.
The format is deliberately dumb: one assignment per line, ``#`` comments,
no nesting, no quoting. Unknown sections or keys are hard errors so that a
typo cannot silently fall back to a default.

Times are given in nanoseconds, linewidths in MHz, rates in Hz, pump powers
in mW and durations in seconds; :meth:`ExperimentConfig.make_source` converts
to the SI units used by the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .models import DetectorSpec, ModelError, cavity_solve, escape_from_heralding
from .simulator import GateSpec, SourceParams

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PRESETS",
    "PRESET_NAMES",
    "config_text",
    "load_config",
    "parse_config",
    "preset_config",
]


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent configuration input; ``keys``
    names the config keys at fault when they are known."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.keys = keys


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _int(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError("expected an integer below 2^63 in magnitude")
    return value


def _floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_float(p) for p in parts)


# field annotation -> converter for the config-file value
_CONVERTERS = {
    "float": _float,
    "int": _int,
    "bool": _bool,
    "tuple[float, ...]": _floats,
    "str": str.strip,
}

# first field of each section; a field belongs to the section that last began
# before it, so the dataclass field order is the file layout
_SECTION_STARTS = {
    "pump_mw": "source",
    "bin_ns": "analysis",
    "powers_mw": "sweep",
    "finesse": "cavity",
    "duration_s": "run",
}


def _bad_value(keys: tuple[str, ...], why: object) -> ConfigError:
    return ConfigError(f"bad value for {', '.join(map(repr, keys))}: {why}", keys)


# tags a run may expect on one detector: far above the 1e8 of the longest
# acquisitions, far below what overflows a draw
_MAX_EXPECTED_TAGS = 1e12
# the keys besides the pump that scale the pair rate
_PAIR_KEYS = ("creation_prob_per_mw", "reference_window_ns", "mode_weights")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to simulate one acquisition and analyze it.

    Defaults describe the 1 mW cross-correlation configuration with the full
    signal flux routed to detector A; presets derive the other measurement
    arrangements from it.
    """

    # source
    pump_mw: float = 1.0
    creation_prob_per_mw: float = 2.71e-3
    reference_window_ns: float = 400.0
    signal_linewidth_mhz: float = 3.7
    idler_linewidth_mhz: float = 2.3
    fsr_mhz: float = 423.0  # recorded with the run; the simulator does not use it
    mode_weights: tuple[float, ...] = (1.0, 0.8, 0.8, 0.45, 0.45, 0.2, 0.2, 0.1, 0.1)
    escape_s: float = 0.44
    escape_i: float = 0.74
    transmission_s: float = 0.71
    transmission_i: float = 0.70
    idler_filter_transmission: float = 0.5
    idler_filter_extinction: float = 0.0
    splitter_ratio: float = 1.0
    coherence_slot_ns: float = 250.0
    detector_a_efficiency: float = 0.62
    detector_a_dark_hz: float = 30.0
    detector_a_dead_ns: float = 0.0
    detector_b_efficiency: float = 0.62
    detector_b_dark_hz: float = 50.0
    detector_b_dead_ns: float = 0.0
    detector_i_efficiency: float = 0.10
    detector_i_dark_hz: float = 18.0
    detector_i_dead_ns: float = 0.0
    gate_period_ns: float = 0.0
    gate_duty: float = 0.5
    gate_phase_ns: float = 0.0
    gate_darks: bool = True
    pair_correlations: bool = True
    # analysis
    bin_ns: float = 5.0
    tau_range_ns: float = 5500.0
    window_ns: float = 400.0
    floor_min_ns: float = 1000.0
    floor_max_ns: float = 5000.0
    herald_channel: int = 2
    signal_channel: int = 0
    partner_channel: int = 1
    n_max: int = 15
    workers: int = 1
    budget_escape_s: float = 0.555
    budget_escape_i: float = 0.74
    # sweep
    powers_mw: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0, 2.0, 5.0)
    windows_ns: tuple[float, ...] = (50.0, 100.0, 200.0, 400.0, 600.0, 800.0)
    point_duration_s: float = 60.0
    g2_divisor: float = 1.0
    # cavity
    finesse: float = 114.0
    finesse_err: float = 0.0
    r_hr: float = 0.9999
    r_oc: float = 0.970
    r_oc_err: float = 0.007
    n_hr: int = 3
    heralding_efficiency: float = 0.28
    heralding_transmission: float = 0.71
    uncorrelated_fraction: float = 0.10
    # run
    duration_s: float = 60.0
    seed: int = 1
    out_dir: str = "."

    def __post_init__(self) -> None:
        # every time must fit the simulator's 64-bit picosecond clock
        for f in fields(self):
            if f.name.endswith(("_ns", "duration_s")):
                ps_per_unit = 1e3 if f.name.endswith("_ns") else 1e12
                value = getattr(self, f.name)
                for v in value if isinstance(value, tuple) else (value,):
                    if not abs(v) * ps_per_unit < 2**62:
                        msg = f"{f.name} must lie below 2^62 ps in magnitude, got {v}"
                        raise ConfigError(msg, (f.name,))
        if self.duration_s <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration_s}", ("duration_s",))
        if self.point_duration_s <= 0:
            raise ConfigError("sweep point duration must be positive", ("point_duration_s",))
        if self.seed < 0:
            raise ConfigError("seed must be non-negative", ("seed",))
        for name in ("bin_ns", "g2_divisor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive", (name,))
        if self.window_ps <= 0:
            raise ConfigError("window_ns must be positive in whole picoseconds", ("window_ns",))
        if self.tau_range_ps[1] <= 0:
            raise ConfigError(
                "tau_range_ns must be positive in whole picoseconds", ("tau_range_ns",)
            )
        if self.bin_ps <= 0 or 2 * self.tau_range_ps[1] % self.bin_ps:
            raise ConfigError("bin_ns must divide 2 * tau_range_ns", ("bin_ns", "tau_range_ns"))
        if not 0 < self.floor_region_ps[0] < self.floor_region_ps[1]:
            raise ConfigError(
                "floor region must satisfy 0 < min < max", ("floor_min_ns", "floor_max_ns")
            )
        channel_keys = ("herald_channel", "signal_channel", "partner_channel")
        channels = tuple(getattr(self, key) for key in channel_keys)
        if len(set(channels)) != 3:
            raise ConfigError(
                f"herald, signal and partner channels must differ, got {channels}", channel_keys
            )
        if any(not 0 <= ch <= 255 for ch in channels):
            raise ConfigError("channels must fit in a byte", channel_keys)
        if not self.powers_mw or any(p <= 0 for p in self.powers_mw):
            raise ConfigError("sweep powers must be positive", ("powers_mw",))
        if not self.windows_ns or any(w <= 0 for w in self.windows_ps):
            raise ConfigError(
                "sweep windows must be positive in whole picoseconds", ("windows_ns",)
            )
        if list(self.windows_ns) != sorted(self.windows_ns):
            raise ConfigError("sweep windows must be ascending", ("windows_ns",))
        for key, window in (("window_ns", self.window_ps), ("windows_ns", max(self.windows_ps))):
            if window / 2 > self.floor_region_ps[0]:
                msg = f"floor region overlaps the coincidence window: half of {key} > floor_min_ns"
                raise ConfigError(msg, (key, "floor_min_ns"))
        if self.workers < 1:
            raise ConfigError("workers must be >= 1", ("workers",))
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1", ("n_max",))
        if self.fsr_mhz <= 0:
            raise _bad_value(("fsr_mhz",), "free spectral range must be positive")
        try:
            source = self.make_source()
            cavity_solve(
                self.finesse, self.r_hr, self.r_oc, self.finesse_err, self.r_oc_err, self.n_hr
            )
            escape_from_heralding(
                self.heralding_efficiency, self.heralding_transmission, self.uncorrelated_fraction
            )
        except ModelError as exc:
            raise _bad_value(tuple(_KEYS.get(field, field) for field in exc.fields), exc) from None
        # the photons, and the darks, that each detector expects in the
        # longest run at each pump the config asks for
        for pump_key, pump, duration in (
            ("pump_mw", self.pump_mw, self.duration_s),
            ("powers_mw", max(self.powers_mw), self.point_duration_s),
        ):
            counts = replace(source, pump_mw=pump).expected_tags(duration)
            for name, (photons, darks) in counts.items():
                dark_key = name + "_dark_hz"
                for count, keys in ((photons, (pump_key, *_PAIR_KEYS)), (darks, (dark_key,))):
                    if not count <= _MAX_EXPECTED_TAGS:
                        msg = f"{count:.3g} tags expected on {name} in {duration:g} s"
                        raise _bad_value(keys, f"{msg}, above {_MAX_EXPECTED_TAGS:.0e}")

    def make_source(self, **overrides: object) -> SourceParams:
        """Build simulator parameters, optionally overriding any SourceParams
        keyword (values in SI units)."""
        kwargs: dict[str, object] = {}
        for key in _SECTIONS["source"]:
            if key in _MODEL_NAMES:
                name, factor = _MODEL_NAMES[key]
                kwargs[name] = getattr(self, key) * factor
            elif key in _SOURCE_FIELDS:
                kwargs[key] = getattr(self, key)
        if self.gate_period_ns > 0:
            kwargs["gate"] = GateSpec(
                period_ps=int(round(self.gate_period_ns * 1000)),
                duty=self.gate_duty,
                phase_ps=int(round(self.gate_phase_ns * 1000)),
            )
        for name in _DETECTORS:
            spec = {field: getattr(self, name + suffix) for field, suffix in _SUFFIXES.items()}
            spec["dead_time_s"] *= 1e-9
            try:
                kwargs[name] = DetectorSpec(**spec)
            except ModelError as exc:
                raise ModelError(str(exc), *(name + _SUFFIXES[f] for f in exc.fields)) from None
        kwargs.update(overrides)
        return SourceParams(**kwargs)

    # analysis conveniences (picosecond units used by the correlator)

    @property
    def bin_ps(self) -> int:
        return int(round(self.bin_ns * 1000))

    @property
    def window_ps(self) -> int:
        return int(round(self.window_ns * 1000))

    @property
    def windows_ps(self) -> list[int]:
        return [int(round(w * 1000)) for w in self.windows_ns]

    @property
    def tau_range_ps(self) -> tuple[int, int]:
        span = int(round(self.tau_range_ns * 1000))
        return (-span, span)

    @property
    def floor_region_ps(self) -> tuple[int, int]:
        return (
            int(round(self.floor_min_ns * 1000)),
            int(round(self.floor_max_ns * 1000)),
        )


def _sections() -> dict[str, dict[str, object]]:
    """Config-file section -> {key: converter}, both in field order."""
    sections: dict[str, dict[str, object]] = {}
    section = None
    for f in fields(ExperimentConfig):
        section = _SECTION_STARTS.get(f.name, section)
        sections.setdefault(section, {})[f.name] = _CONVERTERS[f.type]
    return sections


_SECTIONS = _sections()
_SOURCE_FIELDS = {f.name for f in fields(SourceParams)}
_DETECTORS = ("detector_a", "detector_b", "detector_i")
# DetectorSpec parameter -> the key suffix after each detector's name
_SUFFIXES = {"efficiency": "_efficiency", "dark_rate_hz": "_dark_hz", "dead_time_s": "_dead_ns"}

# config key -> (model parameter, factor to SI) for each key that sets a
# parameter of another name; make_source converts [source] through it
_MODEL_NAMES = {
    "reference_window_ns": ("reference_window_s", 1e-9),
    "signal_linewidth_mhz": ("signal_linewidth_hz", 1e6),
    "idler_linewidth_mhz": ("idler_linewidth_hz", 1e6),
    "coherence_slot_ns": ("coherence_slot_s", 1e-9),
    "finesse_err": ("sigma_finesse", 1.0),
    "r_oc_err": ("sigma_r_oc", 1.0),
    "heralding_efficiency": ("eta_h", 1.0),
    "heralding_transmission": ("eta_t", 1.0),
}
# model parameter -> config key for blame: the table reversed plus the gate's;
# every other parameter a ModelError names is its own key
_KEYS = {name: key for key, (name, _) in _MODEL_NAMES.items()}
_KEYS.update(period_ps="gate_period_ns", duty="gate_duty")


# Measurement arrangements used throughout: the cross-correlation setup sends
# the whole signal arm to detector A; autocorrelations split it 50/50; the
# idler autocorrelation swaps the roles of the two wavelengths (the splitter
# and both "signal" detectors then live on the idler arm) and runs at the
# pump power used for that measurement. The power-sweep arrangement keeps the
# idler detectors ungated, so their average dark rate applies.
PRESETS: dict[str, dict[str, object]] = {
    "reference": {},
    "signal-autocorr": {"splitter_ratio": 0.5},
    "idler-autocorr": {
        "pump_mw": 4.3,
        "signal_linewidth_mhz": 2.3,
        "idler_linewidth_mhz": 3.7,
        "mode_weights": (1.0,),
        "escape_s": 0.74,
        "escape_i": 0.44,
        "transmission_s": 0.35,
        "transmission_i": 0.71,
        "idler_filter_transmission": 1.0,
        "splitter_ratio": 0.5,
        "detector_a_efficiency": 0.10,
        "detector_a_dark_hz": 18.0,
        "detector_b_efficiency": 0.10,
        "detector_b_dark_hz": 192.0,
        "detector_i_efficiency": 0.62,
        "detector_i_dark_hz": 30.0,
    },
    "surrogate": {"splitter_ratio": 0.5, "pair_correlations": False},
    "power-sweep": {"detector_i_dark_hz": 105.0},
}

PRESET_NAMES = tuple(PRESETS)


def preset_config(name: str) -> ExperimentConfig:
    """Return one of the built-in measurement arrangements by name."""
    try:
        overrides = PRESETS[name]
    except KeyError:
        known = ", ".join(PRESET_NAMES)
        raise ConfigError(f"unknown preset {name!r} (known: {known})") from None
    return ExperimentConfig(**overrides)  # type: ignore[arg-type]


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text into an :class:`ExperimentConfig`.

    A ``preset`` assignment in the ``[run]`` section selects the baseline the
    remaining keys override; otherwise the baseline is "reference".
    All errors carry the offending line number.
    """
    lines = text.splitlines()
    assignments: list[tuple[int, str, str, str]] = []
    section = None
    preset_name = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                known = ", ".join(sorted(_SECTIONS))
                raise ConfigError(f"line {lineno}: unknown section [{section}] (known: {known})")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: assignment before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section == "run" and key == "preset":
            if preset_name is not None:
                raise ConfigError(f"line {lineno}: preset assigned twice")
            preset_name = (lineno, value)
            continue
        if key not in _SECTIONS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        assignments.append((lineno, section, key, value))

    if preset_name is not None:
        lineno, name = preset_name
        try:
            config = preset_config(name)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    else:
        config = ExperimentConfig()

    updates: dict[str, object] = {}
    for lineno, section, key, value in assignments:
        converter = _SECTIONS[section][key]
        try:
            updates[key] = converter(value)  # type: ignore[operator]
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    try:
        return replace(config, **updates)  # type: ignore[arg-type]
    except ConfigError as exc:
        # blame the last line that assigned one of the keys at fault
        assigned = {key: lineno for lineno, _, key, _ in assignments}
        linenos = [assigned[key] for key in exc.keys if key in assigned]
        if linenos:
            raise ConfigError(f"line {max(linenos)}: {exc}", exc.keys) from None
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(config: ExperimentConfig) -> str:
    """Serialize a config to the file format; parses back to an equal value."""
    chunks = []
    for section, keys in _SECTIONS.items():
        chunks.append(f"[{section}]")
        chunks.extend(f"{key} = {_format_value(getattr(config, key))}" for key in keys)
        chunks.append("")
    return "\n".join(chunks)
