"""Parameter sweeps, optimization and data emission."""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

from . import __version__
from .config import _PARAM_KEYS, _SCHEME_KEYS, ConfigError, _parse_value
from .efficiency import (avg_linear_transmission, delay_table, eta_curve,
                         total_efficiency)
from .model import (
    CANONICAL_SELECTION,
    MAX_BINS,
    N_MAX,
    PROTOCOL_ETA_DET,
    Detection,
    DomainError,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
    as_integer,
    check_depth,
    switch_passes,
    with_readings,
)


#: Configuration keys accepted by sweep specifications.
SWEEPABLE = frozenset({"n_bins", "lambda", "eta_f", "eta_c", "eta_sw",
                       "eta_det", "eta_conv", "alpha_inc"})

#: Depths of the protocol curves (crossing, fig3a, fig3b) and of fig3c.
N_RANGE = range(1, N_MAX + 1)

#: Most points one sweep may hold; a grid is counted before it is built.
MAX_SWEEP_POINTS = 100_000


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
    k = 0..floor((hi - lo + 1e-12)/step), less any rounded point above
    ``hi`` (the slack keeps an endpoint that float error puts a hair past
    ``hi``, not a whole step past it); an ``n_bins`` grid is integral and
    defaults to 1..N_MAX step 1.  Bad input raises ConfigError, as does a
    sweep of more than MAX_SWEEP_POINTS points or a grid whose rounded
    points are not strictly increasing.
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


def sweep(spec: SweepSpec, *, include_filter_in_d0: bool | None = None,
          literal_exponent: bool | None = None) -> EfficiencyCurve:
    """Evaluate the total efficiency at every sweep point; a value outside
    the modeled domain raises DomainError.  An ``n_bins`` sweep is one
    :func:`~photonmux.efficiency.eta_curve`."""
    spec = replace(spec, params=with_readings(
        spec.params, include_filter_in_d0, literal_exponent))
    if spec.parameter == "n_bins":
        etas = eta_curve(spec.params, spec.scheme, spec.values)
    else:
        field_name, _ = _sweep_key(spec.parameter)
        etas = [total_efficiency(replace(spec.params, **{field_name: value}),
                                 spec.scheme).eta_total
                for value in spec.values]
    points = tuple(zip(spec.values, etas))
    best_x, eta_max = max(points, key=lambda p: (p[1], -p[0]))
    label = (f"{spec.scheme.topology.value}/{spec.scheme.detection.value}"
             f"/{spec.scheme.selection.value}")
    return EfficiencyCurve(label=label, points=points,
                           best_x=best_x, eta_max=eta_max)


def optimize_bins(params: SourceParams, scheme: SchemeConfig,
                  n_min: int = 1, n_max: int = N_MAX, *,
                  include_filter_in_d0: bool | None = None,
                  literal_exponent: bool | None = None) -> EfficiencyCurve:
    """Sweep the multiplexing depth and report the maximizing N."""
    n_min, n_max = as_integer("n_min", n_min), as_integer("n_max", n_max)
    if not 1 <= n_min <= n_max <= MAX_BINS:
        raise DomainError(f"need 1 <= n_min <= n_max <= {MAX_BINS}, "
                          f"got n_min={n_min}, n_max={n_max}")
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    spec = SweepSpec("n_bins", tuple(range(n_min, n_max + 1)), params, scheme)
    return sweep(spec)


#: Topology on which ``protocol_gap`` compares the protocols, each at its
#: ``PROTOCOL_ETA_DET``; the configured topology and ``eta_det`` are unused.
CROSSING_TOPOLOGY = Topology.BINARY_DELAY

#: ``PROTOCOL_ETA_DET`` by detection name, as crossing and fig3 report it.
PROTOCOL_ETA_DET_BY_NAME = {d.value: v for d, v in PROTOCOL_ETA_DET.items()}


def _octave_tops() -> tuple[int, ...]:
    """The last N of each octave of N_RANGE: each run of N with one
    ``switch_passes(N)``, within which a last-photon curve never falls."""
    return tuple(n for n in N_RANGE if n == N_RANGE[-1]
                 or switch_passes(n + 1) != switch_passes(n))


OCTAVE_TOPS = _octave_tops()


def _protocol_curve(params: SourceParams, eta_sw: float, topology: Topology,
                    detection: Detection, n_values=N_RANGE) -> tuple[float, ...]:
    """Efficiency at each N of ``n_values`` of the protocol-matched
    design: switch transmission ``eta_sw`` and the protocol's
    ``PROTOCOL_ETA_DET``."""
    matched = replace(params, eta_sw=eta_sw, eta_det=PROTOCOL_ETA_DET[detection])
    scheme = SchemeConfig(n_bins=1, topology=topology, detection=detection)
    return eta_curve(matched, scheme, n_values)


def _protocol_best(params: SourceParams, eta_sw: float) -> tuple[float, float]:
    """Best single-detector and best detector-array efficiency over N_RANGE
    at one switch transmission, on CROSSING_TOPOLOGY.  Under last-photon
    selection a bin's term depends only on its delay and N's octave, so eta
    gains a term >= 0 per step within an octave and peaks at OCTAVE_TOPS.
    First-photon k(r) = r - 1 moves with N; that curve is read at every N."""
    return tuple(max(_protocol_curve(
        params, eta_sw, CROSSING_TOPOLOGY, detection,
        OCTAVE_TOPS if CANONICAL_SELECTION[detection] is Selection.LAST_PHOTON
        else N_RANGE))
        for detection in (Detection.SINGLE_DETECTOR, Detection.DETECTOR_ARRAY))


def protocol_gap(params: SourceParams, eta_sw: float, *,
                 include_filter_in_d0: bool | None = None,
                 literal_exponent: bool | None = None) -> float:
    """Best single-detector minus best detector-array efficiency over
    N = 1..N_MAX at one eta_sw, both on the binary topology.  The array's
    last-photon curve never falls within an octave of N, so its best is read
    at OCTAVE_TOPS; the single detector's can, so its best is read at all N."""
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    single, array = _protocol_best(params, eta_sw)
    return single - array


def find_crossing(params: SourceParams, lo: float, hi: float,
                  tol: float = 1e-3, *,
                  include_filter_in_d0: bool | None = None,
                  literal_exponent: bool | None = None) -> float:
    """Switch transmission at which the two detection protocols reach the
    same maximum efficiency, by bisection on the protocol gap.

    Bisection stops once the bracket is narrower than ``tol`` or its ends
    are adjacent floats, so any finite ``tol`` > 0 ends.  The bracket must
    satisfy 0 < lo <= hi: at eta_sw = 0 neither protocol emits.  A zero gap
    is a crossing only where the protocols' best efficiency is > 0; where
    both are 0 the gap has no sign, and DomainError says so.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    if not 0.0 < lo <= hi:
        raise DomainError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
    params = with_readings(params, include_filter_in_d0, literal_exponent)

    def zero_gap(eta_sw: float) -> float:
        if max(_protocol_best(params, eta_sw)) > 0.0:
            return eta_sw
        raise DomainError(
            f"no protocol crossing in [{lo}, {hi}]: both protocols reach "
            f"eta = 0 at eta_sw = {eta_sw}")

    g_lo = protocol_gap(params, lo)
    g_hi = protocol_gap(params, hi)
    if g_lo == 0.0:
        return zero_gap(lo)
    if g_hi == 0.0:
        return zero_gap(hi)
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise DomainError(
            f"no protocol crossing in [{lo}, {hi}]: "
            f"gap {g_lo:+.3g} -> {g_hi:+.3g}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        g_mid = protocol_gap(params, mid)
        if g_mid == 0.0:
            return zero_gap(mid)
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- reference data emission --------------------------------------------------

#: Switch transmission of fig3a and of fig3b.
FIG3AB_ETA_SW = (0.87, 0.98)
FIG3C_LAMBDAS = (0.02, 0.06, 0.10)
#: Files that ``emit_fig3`` writes, in the order it returns them.
_FIG3_FILES = ("fig3a.csv", "fig3b.csv", "fig3c.csv", "fig3_metadata.json")
_FIG3AB_COLUMNS = ("N", "eta_binary_single", "eta_binary_array",
                   "eta_singleline_single", "eta_singleline_array")
_FIG3C_COLUMNS = ("N", *(f"avglin_lambda{lam:g}" for lam in FIG3C_LAMBDAS),
                  "avglin_control")
#: (topology, detection) of each fig3a/fig3b efficiency column, in order.
_FIG3AB_PROTOCOLS = (
    (Topology.BINARY_DELAY, Detection.SINGLE_DETECTOR),
    (Topology.BINARY_DELAY, Detection.DETECTOR_ARRAY),
    (Topology.SINGLE_DELAY_LINE, Detection.SINGLE_DETECTOR),
    (Topology.SINGLE_DELAY_LINE, Detection.DETECTOR_ARRAY),
)


def _fig3ab_rows(params: SourceParams, eta_sw: float):
    return zip(N_RANGE, *(_protocol_curve(params, eta_sw, topology, detection)
                          for topology, detection in _FIG3AB_PROTOCOLS))


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


def emit_fig3(out_dir, params: SourceParams, *,
              include_filter_in_d0: bool | None = None,
              literal_exponent: bool | None = None) -> list[str]:
    """Write the three reference-curve CSV files plus a metadata sidecar.

    fig3a/fig3b: efficiency versus N for every topology and protocol at the
    switch transmissions of FIG3AB_ETA_SW.  fig3c: expected delay-line
    transmission under last-photon selection for several pumping strengths,
    against the single-photon control curve.  Nothing is random, so the
    output is byte-stable for a fixed configuration.  The metadata lists
    every config parameter; eta_sw and eta_det as the values fig3 sets.
    """
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {out_dir}: {exc}") from exc
    written = [os.path.join(out_dir, name) for name in _FIG3_FILES]
    *ab_paths, c_path, meta_path = written
    for path, eta_sw in zip(ab_paths, FIG3AB_ETA_SW):
        write_csv(path, _FIG3AB_COLUMNS, _fig3ab_rows(params, eta_sw))
    write_csv(c_path, _FIG3C_COLUMNS, _fig3c_rows(params))

    parameters = {key: getattr(params, name)
                  for key, (name, _) in _PARAM_KEYS.items() if key != "eta_sw"}
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
