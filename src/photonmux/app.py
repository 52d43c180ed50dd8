"""Configuration, parameter sweeps, optimization and data emission."""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

from . import __version__
from .efficiency import (avg_linear_transmission, delay_transmission,
                         total_efficiency)
from .model import (
    MAX_BINS,
    PROTOCOL_ETA_DET,
    Detection,
    DomainError,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
    with_readings,
)


class ConfigError(Exception):
    """Invalid configuration file or sweep specification."""


_PARAM_KEYS = {
    "lambda": ("lam", float),
    "period": ("period", float),
    "eta_f": ("eta_f", float),
    "eta_c": ("eta_c", float),
    "eta_sw": ("eta_sw", float),
    "eta_det": ("eta_det", float),
    "eta_conv": ("eta_conv", float),
    "alpha_inc": ("alpha_inc", float),
    "pair_dist": ("pair_dist", PairDistribution),
}

_SCHEME_KEYS = {
    "n_bins": ("n_bins", int),
    "topology": ("topology", Topology),
    "detection": ("detection", Detection),
    "selection": ("selection", Selection),
    "allow_mismatched_selection": ("allow_mismatched_selection", bool),
}

#: Configuration keys accepted by sweep specifications.
SWEEPABLE = frozenset({"n_bins", "lambda", "eta_f", "eta_c", "eta_sw",
                       "eta_det", "eta_conv", "alpha_inc"})

#: Largest multiplexing depth of every default N range.
N_MAX = 128

#: Most points one sweep may hold; a grid is counted before it is built.
MAX_SWEEP_POINTS = 100_000


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_value(key: str, text: str, kind):
    try:
        if kind is bool:
            return _parse_bool(text)
        if isinstance(kind, type) and issubclass(kind, (PairDistribution, Topology,
                                                        Detection, Selection)):
            return kind(text.strip().lower())
        return kind(text)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {text!r}") from exc


def parse_config(text: str) -> tuple[SourceParams, SchemeConfig]:
    """Parse a flat key-value configuration.

    One ``key = value`` pair per line, ``#`` starts a comment, unknown and
    repeated keys are rejected.  ``eta_det`` defaults to the protocol-matched
    value when omitted (0.7 single detector, 0.8 array); ``n_bins`` defaults
    to 31.
    """
    param_values: dict = {}
    scheme_values: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"line {lineno}: repeated configuration key "
                              f"{key!r} (first set on line {first_line[key]})")
        first_line[key] = lineno
        if key in _PARAM_KEYS:
            field_name, kind = _PARAM_KEYS[key]
            param_values[field_name] = _parse_value(key, value, kind)
        elif key in _SCHEME_KEYS:
            field_name, kind = _SCHEME_KEYS[key]
            scheme_values[field_name] = _parse_value(key, value, kind)
        else:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
    scheme_values.setdefault("n_bins", 31)
    try:
        scheme = SchemeConfig(**scheme_values)
        params = SourceParams.table_defaults(scheme.detection, **param_values)
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return params, scheme


def load_config(path=None) -> tuple[SourceParams, SchemeConfig]:
    """Parse the configuration file at ``path``; no path gives the defaults."""
    if path is None:
        return parse_config("")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _sweep_key(parameter: str) -> tuple:
    """(field name, type) of a sweepable configuration key."""
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; "
            f"choose one of {sorted(SWEEPABLE)}")
    return _SCHEME_KEYS.get(parameter) or _PARAM_KEYS[parameter]


def sweep_values(parameter: str, values: str | None = None,
                 lo: float | None = None, hi: float | None = None,
                 step: float | None = None) -> tuple:
    """Sweep points from ``values`` (comma-separated, each item parsed like
    the key's config line) or from the grid ``round(lo + k*step, 12)``,
    k = 0..floor((hi - lo + 1e-12)/step); an ``n_bins`` grid is integral and
    defaults to 1..N_MAX step 1.  Bad input raises ConfigError, as does a
    sweep of more than MAX_SWEEP_POINTS points.
    """
    _, kind = _sweep_key(parameter)
    if values is not None:
        if (lo, hi, step) != (None, None, None):
            raise ConfigError("give either --values or --min/--max/--step, "
                              "not both")
        items = values.split(",")
        if len(items) > MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep has {len(items)} values; "
                              f"the limit is {MAX_SWEEP_POINTS}")
        return tuple(_parse_value(parameter, item, kind) for item in items)
    if kind is int:
        lo = 1 if lo is None else lo
        hi = N_MAX if hi is None else hi
        step = 1 if step is None else step
    elif None in (lo, hi, step):
        raise ConfigError("numeric sweeps need --min, --max and --step "
                          "(or --values)")
    grid = f"min={lo!r} max={hi!r} step={step!r}"
    if not all(math.isfinite(v) for v in (lo, hi, step)) or step <= 0:
        raise ConfigError(f"sweep grid needs finite bounds and a step > 0, "
                          f"got {grid}")
    if kind is int and not all(float(v).is_integer() for v in (lo, hi, step)):
        raise ConfigError(f"{parameter} grid needs integral bounds and step, "
                          f"got {grid}")
    last = (hi - lo + 1e-12) / step
    if last >= MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep grid {grid} holds more than "
                          f"{MAX_SWEEP_POINTS} points")
    ks = range(math.floor(last) + 1) if last >= 0 else ()
    return tuple(kind(round(lo + k * step, 12)) for k in ks)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep around a fixed baseline.

    An ``n_bins`` value over MAX_BINS raises DomainError here, before any
    point is evaluated.
    """

    parameter: str
    values: tuple
    params: SourceParams
    scheme: SchemeConfig

    def __post_init__(self) -> None:
        _sweep_key(self.parameter)
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if self.parameter == "n_bins" and max(self.values) > MAX_BINS:
            raise DomainError(f"n_bins must be <= {MAX_BINS}, "
                              f"got sweep value {max(self.values)}")


@dataclass(frozen=True)
class EfficiencyCurve:
    """Result of a sweep: (x, eta) points and the location of the maximum.

    Ties resolve to the smallest x.
    """

    label: str
    points: tuple[tuple[float, float], ...]
    best_x: float
    eta_max: float


def _apply_sweep_value(spec: SweepSpec, value):
    field_name, _ = _sweep_key(spec.parameter)
    if spec.parameter in _SCHEME_KEYS:
        return spec.params, replace(spec.scheme, **{field_name: value})
    return replace(spec.params, **{field_name: value}), spec.scheme


def sweep(spec: SweepSpec, *, include_filter_in_d0: bool | None = None,
          literal_exponent: bool | None = None) -> EfficiencyCurve:
    """Evaluate the total efficiency at every sweep point; a value outside
    the modeled domain raises DomainError."""
    spec = replace(spec, params=with_readings(
        spec.params, include_filter_in_d0, literal_exponent))
    points = []
    for value in spec.values:
        params, scheme = _apply_sweep_value(spec, value)
        points.append((value, total_efficiency(params, scheme).eta_total))
    best_x, eta_max = max(points, key=lambda p: (p[1], -p[0]))
    label = (f"{spec.scheme.topology.value}/{spec.scheme.detection.value}"
             f"/{spec.scheme.selection.value}")
    return EfficiencyCurve(label=label, points=tuple(points),
                           best_x=best_x, eta_max=eta_max)


def optimize_bins(params: SourceParams, scheme: SchemeConfig,
                  n_min: int = 1, n_max: int = N_MAX, *,
                  include_filter_in_d0: bool | None = None,
                  literal_exponent: bool | None = None) -> EfficiencyCurve:
    """Sweep the multiplexing depth and report the maximizing N."""
    if not 1 <= n_min <= n_max <= MAX_BINS:
        raise DomainError(f"need 1 <= n_min <= n_max <= {MAX_BINS}, "
                          f"got n_min={n_min}, n_max={n_max}")
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    spec = SweepSpec("n_bins", tuple(range(n_min, n_max + 1)), params, scheme)
    return sweep(spec)


#: Topology on which ``protocol_gap`` compares the protocols, each at its
#: ``PROTOCOL_ETA_DET``; the configured topology and ``eta_det`` are unused.
CROSSING_TOPOLOGY = Topology.BINARY_DELAY


def _protocol_curve(params: SourceParams, eta_sw: float, topology: Topology,
                    detection: Detection) -> EfficiencyCurve:
    """Efficiency versus N = 1..N_MAX of the protocol-matched design: switch
    transmission ``eta_sw`` and the protocol's ``PROTOCOL_ETA_DET``."""
    matched = replace(params, eta_sw=eta_sw, eta_det=PROTOCOL_ETA_DET[detection])
    scheme = SchemeConfig(n_bins=1, topology=topology, detection=detection)
    return optimize_bins(matched, scheme)


def protocol_gap(params: SourceParams, eta_sw: float, *,
                 include_filter_in_d0: bool | None = None,
                 literal_exponent: bool | None = None) -> float:
    """Best single-detector efficiency minus best detector-array efficiency
    over N = 1..N_MAX at one switch transmission (both on the binary
    topology)."""
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    single, array = (
        _protocol_curve(params, eta_sw, CROSSING_TOPOLOGY, detection)
        for detection in (Detection.SINGLE_DETECTOR, Detection.DETECTOR_ARRAY))
    return single.eta_max - array.eta_max


def find_crossing(params: SourceParams, lo: float, hi: float,
                  tol: float = 1e-3, *,
                  include_filter_in_d0: bool | None = None,
                  literal_exponent: bool | None = None) -> float:
    """Switch transmission at which the two detection protocols reach the
    same maximum efficiency, by bisection on the protocol gap.

    Bisection stops once the bracket is narrower than ``tol`` or its ends
    are adjacent floats, so any finite ``tol`` > 0 ends.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    if not lo <= hi:
        raise DomainError(f"need lo <= hi, got [{lo}, {hi}]")
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    g_lo = protocol_gap(params, lo)
    g_hi = protocol_gap(params, hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise DomainError(
            f"no protocol crossing in [{lo}, {hi}]: "
            f"gap {g_lo:+.4f} -> {g_hi:+.4f}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        g_mid = protocol_gap(params, mid)
        if g_mid == 0.0:
            return mid
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- reference data emission --------------------------------------------------

FIG3_N_RANGE = range(1, N_MAX + 1)
#: Switch transmission of fig3a and of fig3b.
FIG3AB_ETA_SW = (0.87, 0.98)
FIG3C_LAMBDAS = (0.02, 0.06, 0.10)
_FIG3AB_COLUMNS = ("N", "eta_binary_single", "eta_binary_array",
                   "eta_singleline_single", "eta_singleline_array")
#: (topology, detection) of each fig3a/fig3b efficiency column, in order.
_FIG3AB_PROTOCOLS = (
    (Topology.BINARY_DELAY, Detection.SINGLE_DETECTOR),
    (Topology.BINARY_DELAY, Detection.DETECTOR_ARRAY),
    (Topology.SINGLE_DELAY_LINE, Detection.SINGLE_DETECTOR),
    (Topology.SINGLE_DELAY_LINE, Detection.DETECTOR_ARRAY),
)


def _fig3ab_rows(params: SourceParams, eta_sw: float):
    curves = [_protocol_curve(params, eta_sw, topology, detection)
              for topology, detection in _FIG3AB_PROTOCOLS]
    for points in zip(*(curve.points for curve in curves)):
        yield [points[0][0]] + [eta for _, eta in points]


def _fig3c_rows(params: SourceParams):
    for n in FIG3_N_RANGE:
        row = [n] + [avg_linear_transmission(params, n, lam)
                     for lam in FIG3C_LAMBDAS]
        # control: a single occupied bin, uniformly placed
        control = math.fsum(
            delay_transmission(params, n - i) for i in range(1, n + 1)) / n
        row.append(control)
        yield row


def write_csv(path, header, rows) -> None:
    """Write CSV (ints as is, other cells as float reprs) or raise ConfigError."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_cell(c) for c in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _format_cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def emit_fig3(out_dir, params: SourceParams | None = None, *,
              include_filter_in_d0: bool | None = None,
              literal_exponent: bool | None = None) -> list[str]:
    """Write the three reference-curve CSV files plus a metadata sidecar.

    fig3a/fig3b: efficiency versus N for every topology and protocol at the
    switch transmissions of FIG3AB_ETA_SW.  fig3c: expected delay-line
    transmission under last-photon selection for several pumping strengths,
    against the single-photon control curve.  Nothing is random, so the
    output is byte-stable for a fixed configuration.
    """
    params = with_readings(params or SourceParams(), include_filter_in_d0,
                           literal_exponent)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {out_dir}: {exc}") from exc
    written = []

    for name, eta_sw in zip(("fig3a.csv", "fig3b.csv"), FIG3AB_ETA_SW):
        path = os.path.join(out_dir, name)
        write_csv(path, _FIG3AB_COLUMNS, _fig3ab_rows(params, eta_sw))
        written.append(path)

    path = os.path.join(out_dir, "fig3c.csv")
    header = ["N"] + [f"avglin_lambda{lam:g}" for lam in FIG3C_LAMBDAS]
    header.append("avglin_control")
    write_csv(path, header, _fig3c_rows(params))
    written.append(path)

    meta = {
        "code_version": __version__,
        "include_filter_in_d0": params.include_filter_in_d0,
        "literal_loss_exponent": params.literal_exponent,
        "parameters": {
            "lambda": params.lam,
            "period": params.period,
            "eta_f": params.eta_f,
            "eta_c": params.eta_c,
            "eta_sw_values": list(FIG3AB_ETA_SW),
            "eta_det": {d.value: v for d, v in PROTOCOL_ETA_DET.items()},
            "eta_conv": params.eta_conv,
            "alpha_inc": params.alpha_inc,
            "pair_dist": params.pair_dist.value,
        },
        "fig3c_lambdas": list(FIG3C_LAMBDAS),
        "n_range": [FIG3_N_RANGE.start, FIG3_N_RANGE.stop - 1],
    }
    meta_path = os.path.join(out_dir, "fig3_metadata.json")
    try:
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {meta_path}: {exc}") from exc
    written.append(meta_path)
    return written
