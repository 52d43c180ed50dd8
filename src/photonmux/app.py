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
    PROTOCOL_ETA_DET,
    Detection,
    DomainError,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
)
from .montecarlo import RNG_ALGORITHM


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

#: Parameters accepted by sweep specifications, mapped to their target.
SWEEPABLE = {
    "n_bins": "scheme",
    "lambda": "params",
    "eta_f": "params",
    "eta_c": "params",
    "eta_sw": "params",
    "eta_det": "params",
    "eta_conv": "params",
    "alpha_inc": "params",
}


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

    One ``key = value`` pair per line, ``#`` starts a comment, unknown keys
    are rejected.  ``eta_det`` defaults to the protocol-matched value when
    omitted (0.7 single detector, 0.8 array); ``n_bins`` defaults to 31.
    """
    param_values: dict = {}
    scheme_values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
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
        if "eta_det" in param_values:
            params = SourceParams(**param_values)
        else:
            params = SourceParams.table_defaults(scheme.detection, **param_values)
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return params, scheme


def load_config(path) -> tuple[SourceParams, SchemeConfig]:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep around a fixed baseline."""

    parameter: str
    values: tuple
    params: SourceParams
    scheme: SchemeConfig

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ConfigError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose one of {sorted(SWEEPABLE)}")
        if not self.values:
            raise ConfigError("sweep needs at least one value")


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
    target = SWEEPABLE[spec.parameter]
    field_name = "lam" if spec.parameter == "lambda" else spec.parameter
    try:
        if target == "params":
            return replace(spec.params, **{field_name: value}), spec.scheme
        return spec.params, replace(spec.scheme, **{field_name: value})
    except DomainError as exc:
        raise ConfigError(
            f"sweep value {value!r} out of domain for {spec.parameter!r}: {exc}"
        ) from exc


def sweep(spec: SweepSpec, *, include_filter_in_d0: bool = True,
          literal_exponent: bool = False) -> EfficiencyCurve:
    """Evaluate the total efficiency at every sweep point."""
    points = []
    for value in spec.values:
        params, scheme = _apply_sweep_value(spec, value)
        breakdown = total_efficiency(
            params, scheme, include_filter_in_d0=include_filter_in_d0,
            literal_exponent=literal_exponent)
        points.append((value, breakdown.eta_total))
    best_x, eta_max = max(points, key=lambda p: (p[1], -p[0]))
    label = (f"{spec.scheme.topology.value}/{spec.scheme.detection.value}"
             f"/{spec.scheme.selection.value}")
    return EfficiencyCurve(label=label, points=tuple(points),
                           best_x=best_x, eta_max=eta_max)


def optimize_bins(params: SourceParams, scheme: SchemeConfig,
                  n_min: int = 1, n_max: int = 128, *,
                  include_filter_in_d0: bool = True,
                  literal_exponent: bool = False) -> EfficiencyCurve:
    """Sweep the multiplexing depth and report the maximizing N."""
    spec = SweepSpec("n_bins", tuple(range(n_min, n_max + 1)), params, scheme)
    return sweep(spec, include_filter_in_d0=include_filter_in_d0,
                 literal_exponent=literal_exponent)


def _protocol_max(params: SourceParams, eta_sw: float, detection: Detection,
                  n_max: int, include_filter_in_d0: bool,
                  literal_exponent: bool) -> float:
    swept = replace(params, eta_sw=eta_sw, eta_det=PROTOCOL_ETA_DET[detection])
    scheme = SchemeConfig(n_bins=1, topology=Topology.BINARY_DELAY,
                          detection=detection)
    curve = optimize_bins(swept, scheme, 1, n_max,
                          include_filter_in_d0=include_filter_in_d0,
                          literal_exponent=literal_exponent)
    return curve.eta_max


def protocol_gap(params: SourceParams, eta_sw: float, *, n_max: int = 128,
                 include_filter_in_d0: bool = True,
                 literal_exponent: bool = False) -> float:
    """Best single-detector efficiency minus best detector-array efficiency
    at one switch transmission (both on the binary topology)."""
    return (_protocol_max(params, eta_sw, Detection.SINGLE_DETECTOR,
                          n_max, include_filter_in_d0, literal_exponent)
            - _protocol_max(params, eta_sw, Detection.DETECTOR_ARRAY,
                            n_max, include_filter_in_d0, literal_exponent))


def find_crossing(params: SourceParams, lo: float, hi: float,
                  tol: float = 1e-3, *, n_max: int = 128,
                  include_filter_in_d0: bool = True,
                  literal_exponent: bool = False) -> float:
    """Switch transmission at which the two detection protocols reach the
    same maximum efficiency, by bisection on the protocol gap."""
    if not lo <= hi:
        raise DomainError(f"need lo <= hi, got [{lo}, {hi}]")
    flags = dict(n_max=n_max, include_filter_in_d0=include_filter_in_d0,
                 literal_exponent=literal_exponent)
    g_lo = protocol_gap(params, lo, **flags)
    g_hi = protocol_gap(params, hi, **flags)
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
        g_mid = protocol_gap(params, mid, **flags)
        if g_mid == 0.0:
            return mid
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- reference data emission --------------------------------------------------

FIG3_N_RANGE = range(1, 129)
FIG3C_LAMBDAS = (0.02, 0.06, 0.10)
_FIG3AB_COLUMNS = ("N", "eta_binary_single", "eta_binary_array",
                   "eta_singleline_single", "eta_singleline_array")


def _fig3ab_rows(params: SourceParams, eta_sw: float, *,
                 include_filter_in_d0: bool = True,
                 literal_exponent: bool = False):
    combos = (
        (Topology.BINARY_DELAY, Detection.SINGLE_DETECTOR),
        (Topology.BINARY_DELAY, Detection.DETECTOR_ARRAY),
        (Topology.SINGLE_DELAY_LINE, Detection.SINGLE_DETECTOR),
        (Topology.SINGLE_DELAY_LINE, Detection.DETECTOR_ARRAY),
    )
    for n in FIG3_N_RANGE:
        row = [n]
        for topology, detection in combos:
            point_params = replace(params, eta_sw=eta_sw,
                                   eta_det=PROTOCOL_ETA_DET[detection])
            scheme = SchemeConfig(n_bins=n, topology=topology,
                                  detection=detection)
            breakdown = total_efficiency(
                point_params, scheme,
                include_filter_in_d0=include_filter_in_d0,
                literal_exponent=literal_exponent)
            row.append(breakdown.eta_total)
        yield row


def _fig3c_rows(params: SourceParams, literal_exponent: bool):
    for n in FIG3_N_RANGE:
        row = [n]
        for lam in FIG3C_LAMBDAS:
            if math.ceil(lam * n) > n:
                row.append(float("nan"))
            else:
                row.append(avg_linear_transmission(
                    params, n, lam, Selection.LAST_PHOTON,
                    literal_exponent=literal_exponent))
        # control: a single occupied bin, uniformly placed
        control = math.fsum(
            delay_transmission(params.alpha_inc, n - i,
                               literal_exponent=literal_exponent)
            for i in range(1, n + 1)) / n
        row.append(control)
        yield row


def _write_csv(path, header, rows) -> None:
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
              include_filter_in_d0: bool = True, literal_exponent: bool = False,
              seed=None) -> list[str]:
    """Write the three reference-curve CSV files plus a metadata sidecar.

    fig3a/fig3b: efficiency versus N for every topology and protocol at
    switch transmissions 0.87 and 0.98.  fig3c: expected delay-line
    transmission under last-photon selection for several pumping strengths,
    against the single-photon control curve.  Output is byte-stable for a
    fixed configuration.
    """
    params = params or SourceParams()
    os.makedirs(out_dir, exist_ok=True)
    written = []

    for name, eta_sw in (("fig3a.csv", 0.87), ("fig3b.csv", 0.98)):
        path = os.path.join(out_dir, name)
        _write_csv(path, _FIG3AB_COLUMNS,
                   _fig3ab_rows(params, eta_sw,
                                include_filter_in_d0=include_filter_in_d0,
                                literal_exponent=literal_exponent))
        written.append(path)

    path = os.path.join(out_dir, "fig3c.csv")
    header = ["N"] + [f"avglin_lambda{lam:g}" for lam in FIG3C_LAMBDAS]
    header.append("avglin_control")
    _write_csv(path, header, _fig3c_rows(params, literal_exponent))
    written.append(path)

    meta = {
        "code_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "seed": seed,
        "include_filter_in_d0": include_filter_in_d0,
        "literal_loss_exponent": literal_exponent,
        "parameters": {
            "lambda": params.lam,
            "period": params.period,
            "eta_f": params.eta_f,
            "eta_c": params.eta_c,
            "eta_sw_values": [0.87, 0.98],
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
