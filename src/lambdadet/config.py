"""Flat key-value configuration: device constants, operating point, grids.

The key table ``_KEYS`` holds the paper's device constants, operating
point, readout model and Fock cutoff; the library functions take them as
arguments.

Keys carry explicit unit suffixes (_GHz, _MHz, _ns, _dBm); the bare stem is
also accepted with strict SI units (rad/s, seconds). Frequencies written with
a suffix are ordinary frequencies, converted internally to angular rad/s.
Unknown keys, wrong suffixes, and out-of-range values are reported with their
line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import MappingProxyType

import numpy as np

from .dynamics import IntegratorOptions
from .errors import ConfigError
from .params import SystemParams
from .pulses import DetectionSettings, ResetSettings

TWO_PI = 2.0 * math.pi

_SUFFIX_SCALE = {
    "GHz": TWO_PI * 1e9,
    "MHz": TWO_PI * 1e6,
    "ns": 1e-9,
    "dBm": 1.0,
}


def _ghz(x: float) -> float:
    return x * _SUFFIX_SCALE["GHz"]


def _mhz(x: float) -> float:
    return x * _SUFFIX_SCALE["MHz"]


def _ns(x: float) -> float:
    return x * _SUFFIX_SCALE["ns"]


@dataclass(frozen=True)
class GridSpec:
    """Inclusive (lo, hi) axis with a point count, linear or logarithmic."""

    lo: float
    hi: float
    count: int
    log: bool = False

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"grid counts must be >= 2, got {self.count}")
        if self.hi <= self.lo:
            raise ValueError("grids must be strictly increasing (hi <= lo)")
        if self.log and (self.lo <= 0 or self.hi <= 0):
            raise ValueError("log grids need positive endpoints")

    def values(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class _Key:
    stem: str
    suffix: str | None
    kind: str  # float | int | bool | str | grid | list
    default: object
    lo: float | None = None
    hi: float | None = None
    hi_open: bool = False
    lo_open: bool = False

    @property
    def canonical(self) -> str:
        return f"{self.stem}_{self.suffix}" if self.suffix else self.stem

    def check_range(self, value: float, line_no=None):
        if not math.isfinite(value):
            raise ConfigError(f"{self.canonical} = {value:g} must be finite", line_no)
        if self.lo is not None and (value < self.lo or (self.lo_open and value == self.lo)):
            rule = ">" if self.lo_open else ">="
            raise ConfigError(f"{self.canonical} = {value:g} must be {rule} {self.lo:g}", line_no)
        if self.hi is not None and (value > self.hi or (self.hi_open and value == self.hi)):
            rule = "<" if self.hi_open else "<="
            raise ConfigError(f"{self.canonical} = {value:g} must be {rule} {self.hi:g}", line_no)


_KEYS = [
    # parse_config("") runs these defaults; serialize_config writes them as a file
    # device constants (renormalized frequencies)
    _Key("omega_ge", "GHz", "float", _ghz(5.508), lo=0.0),
    _Key("omega_r", "GHz", "float", _ghz(10.256), lo=0.0),
    # half the dispersive pull 2*chi = 69 MHz
    _Key("chi", "MHz", "float", _mhz(34.5), lo=0.0, lo_open=True),
    _Key("kappa", "MHz", "float", _mhz(16.2793651), lo=0.0, lo_open=True),  # omega_r / Q, Q ~ 630
    _Key("kappa_ext_ratio", None, "float", 0.964, lo=0.0, hi=1.0),
    _Key("gamma", "MHz", "float", _mhz(0.227364), lo=0.0),  # T1 ~ 0.7 us
    _Key("gamma_phi", "MHz", "float", 0.0, lo=0.0),
    _Key("init_excited_pop", None, "float", 0.008, lo=0.0, hi=1.0, hi_open=True),
    _Key("drive_power_to_rabi", None, "float", 0.0, lo=0.0),  # 0 = fit at calibration_anchor
    # drive-line amplitude noise (s): qubit flips at c * Omega**2
    _Key("drive_noise_per_rabi2", None, "float", 0.0, lo=0.0),
    # drive-line phase noise (s): dephasing at c * Omega**2, anchored to the 0.014 dark count
    _Key("drive_dephasing_per_rabi2", None, "float", 9.95e-12, lo=0.0),
    # protocol operating point
    _Key("delta_drive", "MHz", "float", _mhz(49.0), lo=0.0),  # omega_ge - omega_d
    _Key("t_rise", "ns", "float", _ns(15.0), lo=0.0),  # drive edges have FWHM 2 * t_rise
    _Key("t_s", "ns", "float", _ns(85.0), lo=0.0, lo_open=True),
    _Key("nbar_s", None, "float", 0.1, lo=0.0),
    _Key("signal_freq", "GHz", "float", _ghz(10.268), lo=0.0),
    _Key("drive_power", "dBm", "float", -75.5),
    _Key("calibration_anchor", "dBm", "float", -75.7),  # balanced point kappa_41 = kappa_42
    # reset stage
    _Key("reset_freq", "GHz", "float", _ghz(10.162), lo=0.0),
    _Key("reset_power", "dBm", "float", -72.1),
    _Key("nbar_rst", None, "float", 43.0, lo=0.0),
    # the 410 ns reset stage minus one t_rise per edge
    _Key("t_dr", "ns", "float", _ns(380.0), lo=0.0, lo_open=True),
    # readout model and stage budget (the phase-locked oscillator is not simulated)
    _Key("readout_eps_ge", None, "float", 0.0, lo=0.0, hi=0.5, hi_open=True),
    _Key("readout_eps_eg", None, "float", 0.0, lo=0.0, hi=0.5, hi_open=True),
    # readout pulse (60 ns) + t_delay2 until the pump locks
    _Key("readout_latch", "ns", "float", _ns(100.0), lo=0.0),
    # t_delay2 + acquisition, for the repetition rate only
    _Key("readout_budget", "ns", "float", _ns(140.0), lo=0.0),
    # numerics
    _Key("n_max", None, "int", 3, lo=1),
    _Key("max_step", "ns", "float", IntegratorOptions.max_step, lo=0.0, lo_open=True),
    _Key("sample_dt", "ns", "float", IntegratorOptions.sample_dt, lo=0.0, lo_open=True),
    _Key("fock_convergence", None, "bool", IntegratorOptions.fock_convergence),
    _Key("probe_flux", None, "float", 0.0, lo=0.0),  # 0 = converged weak default
    # input-power calibration
    _Key("pdiff_signal_power", "dBm", "float", -145.65),
    _Key("pdiff_delta_drive", "MHz", "float", _mhz(46.0), lo=0.0),
    _Key("gamma_calibration", "MHz", "float", _mhz(0.174), lo=0.0),  # T1 during the CW calibration
    # sweep grids
    _Key("reflect_pd_grid", "dBm", "grid", GridSpec(-80.0, -71.0, 19)),
    _Key("reflect_freq_grid", "GHz", "grid", GridSpec(_ghz(10.243), _ghz(10.293), 21)),
    _Key("detect_pd_grid", "dBm", "grid", GridSpec(-78.0, -73.0, 11)),
    _Key("detect_freq_grid", "GHz", "grid", GridSpec(_ghz(10.248), _ghz(10.288), 11)),
    _Key("reset_pd_grid", "dBm", "grid", GridSpec(-74.5, -70.0, 10)),
    _Key("reset_freq_grid", "GHz", "grid", GridSpec(_ghz(10.150), _ghz(10.174), 9)),
    _Key("dressed_pd_grid", "dBm", "grid", GridSpec(-80.0, -70.0, 50)),
    _Key("dark_pd_grid", "dBm", "grid", GridSpec(-78.0, -73.0, 6)),
    _Key("ts_list", "ns", "list", tuple(_ns(x) for x in (21.0, 34.0, 55.0, 85.0, 144.0, 189.0, 233.0)),
         lo=0.0, lo_open=True),
    _Key("ns_ts_list", "ns", "list", tuple(_ns(x) for x in (34.0, 85.0, 189.0)),
         lo=0.0, lo_open=True),
    _Key("nbar_list", None, "list", (0.03, 0.1, 0.3, 1.0), lo=0.0),
    # output and execution
    _Key("out_dir", None, "str", "out"),
    _Key("workers", None, "int", 1, lo=1),
    _Key("strict", None, "bool", False),
]

_BY_STEM = {k.stem: k for k in _KEYS}
_ACCEPTED: dict[str, tuple[_Key, float]] = {}
for _k in _KEYS:
    if _k.suffix:
        _ACCEPTED[_k.canonical] = (_k, _SUFFIX_SCALE[_k.suffix])
        _ACCEPTED[_k.stem] = (_k, 1.0)  # bare stem: strict SI (rad/s, s) or dBm
    else:
        _ACCEPTED[_k.stem] = (_k, 1.0)

_SUFFIXES = tuple(_SUFFIX_SCALE)


def _parse_scalar(key: _Key, raw: str, scale: float, line_no: int):
    raw = raw.strip()
    if key.kind == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key.canonical}: expected a boolean, got {raw!r}", line_no)
    if key.kind == "str":
        return raw
    if key.kind == "int":
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{key.canonical}: expected an integer, got {raw!r}", line_no)
        key.check_range(value, line_no)
        return value
    if key.kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key.canonical}: expected a number, got {raw!r}", line_no)
        key.check_range(value, line_no)
        return value * scale
    if key.kind == "grid":
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"{key.canonical}: expected 'lo,hi,count[,log]', got {raw!r}", line_no
            )
        try:
            lo, hi = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ConfigError(f"{key.canonical}: malformed grid {raw!r}", line_no)
        for value in (lo, hi):
            key.check_range(value, line_no)
        log = False
        if len(parts) == 4:
            if parts[3] not in ("linear", "log"):
                raise ConfigError(
                    f"{key.canonical}: grid scale must be 'linear' or 'log'", line_no
                )
            log = parts[3] == "log"
        try:
            return GridSpec(lo * scale, hi * scale, count, log)
        except ValueError as exc:
            raise ConfigError(f"{key.canonical}: {exc}", line_no)
    if key.kind == "list":
        try:
            values = tuple(float(p.strip()) for p in raw.split(",") if p.strip())
        except ValueError:
            raise ConfigError(f"{key.canonical}: malformed list {raw!r}", line_no)
        if not values:
            raise ConfigError(f"{key.canonical}: expected at least one value", line_no)
        for value in values:
            key.check_range(value, line_no)
        return tuple(value * scale for value in values)
    raise AssertionError(f"unhandled kind {key.kind}")


def parse_config(text: str) -> "RunConfig":
    """Parse configuration text over the built-in device defaults; each key once."""
    values = {k.stem: k.default for k in _KEYS}
    set_on = {}  # stem -> the line that set it
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'key = value', got {body!r}", line_no)
        name, raw = (part.strip() for part in body.split("=", 1))
        if name not in _ACCEPTED:
            hint = ""
            for suffix in _SUFFIXES:
                if name.endswith(f"_{suffix}"):
                    stem = name[: -(len(suffix) + 1)]
                    if stem in _BY_STEM:
                        want = _BY_STEM[stem]
                        hint = (
                            f" (unit-suffix mismatch: use "
                            f"{want.canonical!r} or bare {stem!r} in SI units)"
                        )
            raise ConfigError(f"unknown key {name!r}{hint}", line_no)
        key, scale = _ACCEPTED[name]
        first = set_on.setdefault(key.stem, line_no)
        if first != line_no:
            raise ConfigError(f"{key.canonical} is already set on line {first}", line_no)
        values[key.stem] = _parse_scalar(key, raw, scale, line_no)
    cfg = RunConfig(MappingProxyType(values))
    try:  # construct once so invariant violations surface at parse time
        cfg.params
        cfg.integrator_options()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(path) -> "RunConfig":
    """Parse the config file at ``path``; a file that cannot be read as
    UTF-8 text raises ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} "
                          f"at byte {exc.start}") from None
    return parse_config(text)


def _display(key: _Key, value) -> str:
    if key.kind == "bool":
        return "true" if value else "false"
    if key.kind == "str":
        return str(value)
    if key.kind == "int":
        return str(int(value))
    scale = _SUFFIX_SCALE[key.suffix] if key.suffix else 1.0
    if key.kind == "float":
        return f"{value / scale:.9g}"
    if key.kind == "grid":
        g: GridSpec = value
        base = f"{g.lo / scale:.9g},{g.hi / scale:.9g},{g.count}"
        return base + (",log" if g.log else "")
    if key.kind == "list":
        return ",".join(f"{v / scale:.9g}" for v in value)
    raise AssertionError(key.kind)


def serialize_config(cfg: "RunConfig") -> str:
    """Canonical text form: sorted canonical keys, unit-suffixed values."""
    lines = []
    for key in sorted(_KEYS, key=lambda k: k.canonical):
        lines.append(f"{key.canonical} = {_display(key, cfg.values[key.stem])}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: device constants, protocol point, grids."""

    values: MappingProxyType

    def get(self, stem: str):
        return self.values[stem]

    def _fields(self, cls) -> dict:
        """The values of the keys named as the fields of dataclass ``cls``."""
        return {f.name: self.values[f.name] for f in fields(cls)}

    @property
    def params(self) -> SystemParams:
        """The device constants; a drive_power_to_rabi of 0 is None (unfitted)."""
        v = self._fields(SystemParams)
        v["drive_power_to_rabi"] = v["drive_power_to_rabi"] or None
        return SystemParams(**v)

    @property
    def omega_d(self) -> float:
        return self.values["omega_ge"] - self.values["delta_drive"]

    def integrator_options(self) -> IntegratorOptions:
        return IntegratorOptions(**self._fields(IntegratorOptions))

    def detection_settings(self, params: SystemParams) -> DetectionSettings:
        """Detection operating point; ``params`` converts the drive power."""
        v = self.values
        return DetectionSettings(
            rabi=params.rabi_of_dbm(v["drive_power"]),
            omega_s=v["signal_freq"],
            t_s=v["t_s"],
            nbar_s=v["nbar_s"],
            omega_d=self.omega_d,
            t_rise=v["t_rise"],
        )

    def reset_settings(self, params: SystemParams) -> ResetSettings:
        """Reset operating point; ``params`` converts the drive power."""
        v = self.values
        return ResetSettings(
            rabi_dr=params.rabi_of_dbm(v["reset_power"]),
            omega_rst=v["reset_freq"],
            nbar_rst=v["nbar_rst"],
            t_dr=v["t_dr"],
            omega_d=self.omega_d,
            t_rise=v["t_rise"],
        )

    def readout_model(self):
        from .protocols import ReadoutModel

        v = self.values
        return ReadoutModel(
            eps_ge=v["readout_eps_ge"],
            eps_eg=v["readout_eps_eg"],
            latch_delay=v["readout_latch"],
        )
