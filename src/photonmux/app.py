"""Parameter sweeps, optimization and data emission."""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

from . import __version__
from .config import KEYS, ConfigError, _parse_value
from .efficiency import (avg_linear_transmission, best_eta, delay_table,
                         eta_curve, total_efficiency)
from .model import (
    MAX_BINS,
    N_MAX,
    PROTOCOL_ETA_DET,
    Detection,
    DomainError,
    SchemeConfig,
    SourceParams,
    Topology,
    as_integer,
    as_real,
    check_depth,
    check_unit,
    shown,
    with_readings,
)


#: Configuration keys a sweep takes: every int or float key but ``period``.
SWEEPABLE = frozenset(key for key, (_, _, kind) in KEYS.items()
                      if kind in (int, float) and key != "period")

#: Depths of the protocol curves (crossing, fig3a, fig3b) and of fig3c.
N_RANGE = range(1, N_MAX + 1)

#: Most points one sweep may hold; a grid is counted before it is built.
MAX_SWEEP_POINTS = 100_000


def _sweep_key(parameter: str) -> tuple:
    """(class, field name, kind) of a sweepable configuration key."""
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; "
            f"choose one of {sorted(SWEEPABLE)}")
    return KEYS[parameter]


def sweep_values(parameter: str, values: str | None = None,
                 lo: float | None = None, hi: float | None = None,
                 step: float | None = None) -> tuple:
    """Sweep points from ``values`` (comma-separated, each item parsed like
    the key's config line) or from the grid ``round(lo + k*step, 12)``,
    k = 0..floor((hi - lo + 1e-12)/step), less any rounded point above
    ``hi`` (the slack keeps an endpoint that float error puts a hair past
    ``hi``, not a whole step past it); an ``n_bins`` grid is integral and
    defaults to 1..N_MAX step 1, and each bound and the step is read as a
    float (``model.as_real``).  Bad input raises ConfigError, as does a
    sweep of more than MAX_SWEEP_POINTS points or a grid whose rounded
    points are not strictly increasing.
    """
    _, _, kind = _sweep_key(parameter)
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
    grid = "min={} max={} step={}".format(
        *(shown(v, repr) for v in (lo, hi, step)))
    try:
        lo, hi, step = map(as_real, ("min", "max", "step"), (lo, hi, step))
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0:
        raise ConfigError(f"sweep grid needs finite bounds and a step > 0, "
                          f"got {grid}")
    if kind is int and not all(v.is_integer() for v in (lo, hi, step)):
        raise ConfigError(f"{parameter} grid needs integral bounds and step, "
                          f"got {grid}")
    last = (hi - lo + 1e-12) / step
    if last >= MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep grid {grid} holds more than "
                          f"{MAX_SWEEP_POINTS} points")
    ks = range(math.floor(last) + 1) if last >= 0 else ()
    points = tuple(kind(x) for x in (round(lo + k * step, 12) for k in ks)
                   if x <= hi)
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ConfigError(f"sweep grid {grid} repeats points after rounding "
                          f"to 12 decimals; list them with --values")
    return points


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep around a fixed baseline.

    ``n_bins`` values are stored as the ints :func:`check_depth` returns; one
    that is not an integer in 1..MAX_BINS raises DomainError here, before
    any point is evaluated.
    """

    parameter: str
    values: tuple
    params: SourceParams
    scheme: SchemeConfig

    def __post_init__(self) -> None:
        _sweep_key(self.parameter)
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if self.parameter == "n_bins":
            object.__setattr__(self, "values",
                               tuple(check_depth(n) for n in self.values))


@dataclass(frozen=True)
class EfficiencyCurve:
    """Result of a sweep: (x, eta) points and the location of the maximum.

    Ties resolve to the smallest x.
    """

    label: str
    points: tuple[tuple[float, float], ...]
    best_x: float
    eta_max: float


def sweep(spec: SweepSpec, **readings) -> EfficiencyCurve:
    """Evaluate the total efficiency at every sweep point; a value outside
    the modeled domain raises DomainError.  An ``n_bins`` sweep is one
    :func:`~photonmux.efficiency.eta_curve`."""
    params = with_readings(spec.params, **readings)
    if spec.parameter == "n_bins":
        etas = eta_curve(params, spec.scheme, spec.values)
    else:
        _, field_name, _ = _sweep_key(spec.parameter)
        etas = [total_efficiency(replace(params, **{field_name: value}),
                                 spec.scheme).eta_total
                for value in spec.values]
    points = tuple(zip(spec.values, etas))
    best_x, eta_max = max(points, key=lambda p: (p[1], -p[0]))
    label = (f"{spec.scheme.topology.value}/{spec.scheme.detection.value}"
             f"/{spec.scheme.selection.value}")
    return EfficiencyCurve(label=label, points=points,
                           best_x=best_x, eta_max=eta_max)


def optimize_bins(params: SourceParams, scheme: SchemeConfig,
                  n_min: int = 1, n_max: int = N_MAX,
                  **readings) -> EfficiencyCurve:
    """Sweep the multiplexing depth and report the maximizing N."""
    n_min, n_max = as_integer("n_min", n_min), as_integer("n_max", n_max)
    if not 1 <= n_min <= n_max <= MAX_BINS:
        raise DomainError(f"need 1 <= n_min <= n_max <= {MAX_BINS}, "
                          f"got n_min={shown(n_min)}, n_max={shown(n_max)}")
    spec = SweepSpec("n_bins", tuple(range(n_min, n_max + 1)), params, scheme)
    return sweep(spec, **readings)


#: Topology on which ``protocol_gap`` compares the protocols, each at its
#: ``PROTOCOL_ETA_DET``; the configured topology and ``eta_det`` are unused.
CROSSING_TOPOLOGY = Topology.BINARY_DELAY

#: ``PROTOCOL_ETA_DET`` by detection name, as crossing and fig3 report it.
PROTOCOL_ETA_DET_BY_NAME = {d.value: v for d, v in PROTOCOL_ETA_DET.items()}


def _protocol_design(params: SourceParams, eta_sw: float, topology: Topology,
                     detection: Detection) -> tuple[SourceParams, SchemeConfig]:
    """The protocol-matched design: switch transmission ``eta_sw`` and the
    protocol's ``PROTOCOL_ETA_DET``, with the protocol's selection."""
    return (replace(params, eta_sw=eta_sw, eta_det=PROTOCOL_ETA_DET[detection]),
            SchemeConfig(n_bins=1, topology=topology, detection=detection))


def _protocol_best(params: SourceParams, eta_sw: float) -> tuple[float, float]:
    """Best single-detector and best detector-array efficiency over N_RANGE
    at one switch transmission, on CROSSING_TOPOLOGY."""
    return tuple(best_eta(*_protocol_design(params, eta_sw, CROSSING_TOPOLOGY,
                                            detection), N_RANGE)
                 for detection in (Detection.SINGLE_DETECTOR,
                                   Detection.DETECTOR_ARRAY))


def protocol_gap(params: SourceParams, eta_sw: float, **readings) -> float:
    """Best single-detector minus best detector-array efficiency over
    N = 1..N_MAX at one eta_sw, both on the binary topology.  The array's
    last-photon curve never falls within an octave of N, so ``best_eta``
    reads it at each octave's last N; the single detector's can, so its
    best is read at all N."""
    params = with_readings(params, **readings)
    single, array = _protocol_best(params, eta_sw)
    return single - array


def find_crossing(params: SourceParams, lo: float, hi: float,
                  tol: float = 1e-3, **readings) -> float:
    """Switch transmission at which the two detection protocols reach the
    same maximum efficiency, by bisection on the protocol gap.

    Bisection stops once the bracket is narrower than ``tol`` or its ends
    are adjacent floats, so any finite ``tol`` > 0 ends.  The bracket must
    satisfy 0 < lo <= hi: at eta_sw = 0 neither protocol emits.  ``lo``,
    ``hi`` and ``tol`` are read as floats (``model.as_real``), and then
    ``lo`` and ``hi``, each under its own name, as switch transmissions
    (``model.check_unit``).  A zero gap is a crossing only where the
    protocols' best efficiency is > 0; where both are 0 the gap has no
    sign, and DomainError says so.
    """
    params = with_readings(params, **readings)
    given = lo, hi
    bracket, tol_text = f"[{shown(lo)}, {shown(hi)}]", shown(tol, repr)
    lo, hi, tol = map(as_real, ("lo", "hi", "tol"), (lo, hi, tol))
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol_text}")
    if not 0.0 < lo <= hi:
        raise DomainError(f"need 0 < lo <= hi, got {bracket}")
    lo, hi = map(check_unit, ("lo", "hi"), given)
    g_lo, g_hi = protocol_gap(params, lo), protocol_gap(params, hi)
    if g_lo and g_hi and math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise DomainError(
            f"no protocol crossing in {bracket}: "
            f"gap {g_lo:+.3g} -> {g_hi:+.3g}")
    while g_lo and g_hi and hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        g_mid = protocol_gap(params, mid)
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    for eta_sw, gap in ((lo, g_lo), (hi, g_hi)):
        if gap == 0.0:
            if max(_protocol_best(params, eta_sw)) > 0.0:
                return eta_sw
            raise DomainError(
                f"no protocol crossing in [{lo}, {hi}]: both protocols "
                f"reach eta = 0 at eta_sw = {eta_sw}")
    return 0.5 * (lo + hi)


# --- reference data emission --------------------------------------------------

#: Switch transmission of fig3a and of fig3b.
FIG3AB_ETA_SW = (0.87, 0.98)
FIG3C_LAMBDAS = (0.02, 0.06, 0.10)
#: Files that ``emit_fig3`` writes, in the order it returns them.
_FIG3_FILES = ("fig3a.csv", "fig3b.csv", "fig3c.csv", "fig3_metadata.json")
_FIG3C_COLUMNS = ("N", *(f"avglin_lambda{lam:g}" for lam in FIG3C_LAMBDAS),
                  "avglin_control")
#: (topology, detection) of each fig3a/fig3b efficiency column, in order.
_FIG3AB_PROTOCOLS = {
    "eta_binary_single": (Topology.BINARY_DELAY, Detection.SINGLE_DETECTOR),
    "eta_binary_array": (Topology.BINARY_DELAY, Detection.DETECTOR_ARRAY),
    "eta_singleline_single": (Topology.SINGLE_DELAY_LINE,
                              Detection.SINGLE_DETECTOR),
    "eta_singleline_array": (Topology.SINGLE_DELAY_LINE,
                             Detection.DETECTOR_ARRAY),
}


def _fig3ab_rows(params: SourceParams, eta_sw: float):
    return zip(N_RANGE, *(eta_curve(*_protocol_design(params, eta_sw, *p),
                                    N_RANGE)
                          for p in _FIG3AB_PROTOCOLS.values()))


def _fig3c_rows(params: SourceParams):
    delay = delay_table(params, N_RANGE[-1])
    for n in N_RANGE:
        # control: a single occupied bin, uniformly placed
        yield [n, *(avg_linear_transmission(params, n, lam)
                    for lam in FIG3C_LAMBDAS), math.fsum(delay[:n]) / n]


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` or raise ConfigError."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """Write CSV (the header and ints as is, other cells as float reprs) or
    raise ConfigError."""
    _write_text(path, "".join(",".join(map(_format_cell, row)) + "\n"
                              for row in (header, *rows)))


def _format_cell(value) -> str:
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def emit_fig3(out_dir, params: SourceParams, **readings) -> list[str]:
    """Write the three reference-curve CSV files plus a metadata sidecar.

    fig3a/fig3b: efficiency versus N for every topology and protocol at the
    switch transmissions of FIG3AB_ETA_SW.  fig3c: expected delay-line
    transmission under last-photon selection for several pumping strengths,
    against the single-photon control curve.  Nothing is random, so the
    output is byte-stable for a fixed configuration.  The metadata lists
    every config parameter; eta_sw and eta_det as the values fig3 sets.
    """
    params = with_readings(params, **readings)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {out_dir}: {exc}") from exc
    written = [os.path.join(out_dir, name) for name in _FIG3_FILES]
    *ab_paths, c_path, meta_path = written
    for path, eta_sw in zip(ab_paths, FIG3AB_ETA_SW):
        write_csv(path, ("N", *_FIG3AB_PROTOCOLS), _fig3ab_rows(params, eta_sw))
    write_csv(c_path, _FIG3C_COLUMNS, _fig3c_rows(params))

    parameters = {key: getattr(params, name) for key, (cls, name, _)
                  in KEYS.items() if cls is SourceParams and key != "eta_sw"}
    parameters.update(eta_sw_values=list(FIG3AB_ETA_SW),
                      eta_det=PROTOCOL_ETA_DET_BY_NAME)
    meta = {
        "code_version": __version__,
        "include_filter_in_d0": params.include_filter_in_d0,
        "literal_loss_exponent": params.literal_exponent,
        "parameters": parameters,
        "fig3c_lambdas": list(FIG3C_LAMBDAS),
        "n_range": [N_RANGE.start, N_RANGE.stop - 1],
    }
    _write_text(meta_path, json.dumps(meta, indent=2, sort_keys=True,
                                      default=lambda enum: enum.value) + "\n")
    return written
