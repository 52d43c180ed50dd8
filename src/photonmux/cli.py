"""Command-line interface.

Exit codes: 0 success, 1 standard output did not take the result (nothing
is printed to stderr when the reader closed it, one line for any other
write failure, such as a full disk), 2 configuration error (bad config
file, bad flag combination), 3 numeric-domain error (arguments outside the
modeled domain, bracket without a crossing).

:func:`main` reads the config and applies the model flags before any
subcommand runs, so a bad ``--config`` exits 2 for every subcommand, bell
too, whose results do not depend on it.  Each subcommand's handler returns
its ``--json`` payload and its text lines and prints nothing; ``main``
writes the one it asked for.

Only the subcommands that need them load :mod:`photonmux.app` (sweep,
optimize, crossing, fig3), :mod:`photonmux.montecarlo` and numpy (mc) and
:mod:`photonmux.bell` (bell); every subcommand loads config, model and
efficiency.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import NoReturn

from . import __version__
from .config import ConfigError, load_config
from .efficiency import detection_efficiency, generation_rate, total_efficiency
from .model import N_MAX, RNG_ALGORITHM, DomainError, check_unit

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1  # standard output did not take the result
EXIT_CONFIG = 2
EXIT_DOMAIN = 3


def _load(args):
    """``load_config``, with the two model flags set on the params."""
    params, scheme = load_config(args.config)
    return replace(params, include_filter_in_d0=not args.d0_excludes_filter,
                   literal_exponent=args.literal_loss_exponent), scheme


def _cmd_eval(args, params, scheme) -> tuple[dict, list[str]]:
    breakdown = total_efficiency(params, scheme)
    eta_d = detection_efficiency(params, scheme)
    rate = generation_rate(params, scheme)
    payload = {
        "eta_total": breakdown.eta_total,
        "eta_detection": eta_d,
        "d0": breakdown.d0,
        "generation_rate_hz": rate,
        "n_bins": scheme.n_bins,
        "topology": scheme.topology.value,
        "detection": scheme.detection.value,
        "selection": scheme.selection.value,
        "per_bin_success": list(breakdown.per_bin_success),
        "pic_transmission": list(breakdown.pic_transmission),
    }
    return payload, [
        f"eta_total          {breakdown.eta_total:.6f}",
        f"eta_detection      {eta_d:.6f}",
        f"no-herald prob d0  {breakdown.d0:.6f}",
        f"generation rate    {rate / 1e6:.1f} MHz",
        f"scheme             N={scheme.n_bins} {scheme.topology.value} "
        f"{scheme.detection.value} {scheme.selection.value}",
    ]


def _cmd_sweep(args, params, scheme) -> tuple[dict, list[str]]:
    from . import app  # eval, mc and bell do not need it

    values = app.sweep_values(args.param, args.values, args.min, args.max,
                              args.step)
    spec = app.SweepSpec(args.param, values, params, scheme)
    curve = app.sweep(spec)
    payload = {
        "parameter": args.param,
        "label": curve.label,
        "points": [[x, y] for x, y in curve.points],
        "best_x": curve.best_x,
        "eta_max": curve.eta_max,
    }
    lines = [f"# sweep {args.param} ({curve.label})"]
    lines += [f"{x}\t{y:.6f}" for x, y in curve.points]
    lines.append(f"# maximum eta={curve.eta_max:.6f} at {args.param}={curve.best_x}")
    if args.out:
        app.write_csv(args.out, (args.param, "eta"), curve.points)
        lines.append(f"# wrote {args.out}")
    return payload, lines


def _cmd_optimize(args, params, scheme) -> tuple[dict, list[str]]:
    from . import app

    curve = app.optimize_bins(params, scheme, args.n_min, args.n_max)
    payload = {"label": curve.label, "best_n": curve.best_x,
               "eta_max": curve.eta_max}
    return payload, [
        f"best N   {curve.best_x}",
        f"eta_max  {curve.eta_max:.6f}",
        f"scheme   {curve.label}",
    ]


def _cmd_crossing(args, params, scheme) -> tuple[dict, list[str]]:
    from . import app

    value = app.find_crossing(params, args.lo, args.hi, args.tol)
    eta_det = app.PROTOCOL_ETA_DET_BY_NAME
    topology = app.CROSSING_TOPOLOGY.value
    payload = {"crossing_eta_sw": value, "lo": args.lo, "hi": args.hi,
               "topology": topology, "eta_det": eta_det}
    return payload, [
        f"protocol crossing at eta_sw = {value:.4f}",
        f"compared on the {topology} topology with eta_det "
        + ", ".join(f"{d}={v}" for d, v in eta_det.items())
        + " (the configured topology and eta_det are not used)",
    ]


def _z_score(eta_hat: float, eta: float, n_trials: int) -> float | None:
    """Deviation of the estimate from the closed form ``eta`` in units of
    the binomial spread sqrt(eta (1 - eta) / n) that ``eta`` predicts.  With
    no spread (eta 0 or 1) it is 0 for an exact match and None otherwise."""
    sigma = math.sqrt(eta * (1.0 - eta) / n_trials)
    if sigma > 0.0:
        return (eta_hat - eta) / sigma
    return 0.0 if eta_hat == eta else None


def _cmd_mc(args, params, scheme) -> tuple[dict, list[str]]:
    from . import montecarlo  # loads numpy, which no other subcommand needs

    result = montecarlo.estimate_eta(params, scheme, args.trials, args.seed,
                                     workers=args.workers)
    analytic = total_efficiency(params, scheme).eta_total
    z = _z_score(result.eta_hat, analytic, result.n_trials)
    payload = {
        "eta_hat": result.eta_hat,
        "std_err": result.std_err,
        "analytic_eta": analytic,
        "z_score": z,
        "n_trials": result.n_trials,
        "n_single": result.n_single,
        "n_multi": result.n_multi,
        "n_vacuum": result.n_vacuum,
        "multi_given_emission": result.multi_given_emission,
        "per_bin_hist": list(result.per_bin_hist),
        "seed": args.seed,
        "rng_algorithm": RNG_ALGORITHM,
    }
    return payload, [
        f"eta_hat    {result.eta_hat:.6f} +/- {result.std_err:.6f}",
        f"analytic   {analytic:.6f}  "
        f"(z = {'n/a' if z is None else format(z, '+.2f')})",
        f"outcomes   single={result.n_single} multi={result.n_multi} "
        f"vacuum={result.n_vacuum}",
        f"rng        {RNG_ALGORITHM} seed={args.seed}",
    ]


def _cmd_bell(args, params, scheme) -> tuple[dict, list[str]]:
    from . import bell  # the Fock-space code no other subcommand needs

    eta = args.eta
    if eta is not None:
        check_unit("eta", eta)
    enum = bell.hbs_enumeration()
    two_prob, _ = bell.two_source_enumeration()
    payload = {
        "herald_probability": enum.herald_probability,
        "bell_yield": enum.bell_yield,
        "false_herald_probability": enum.false_herald_probability,
        "patterns": {
            name: {"probability": p.probability, "bell": p.bell_label,
                   "fidelity": p.fidelity}
            for name, p in enum.patterns.items()},
        "two_source_coincidence": two_prob,
    }
    lines = [
        f"four-source herald probability   {enum.herald_probability:.6f} "
        f"(= {enum.herald_probability * 16:.4f}/16)",
        f"  heralded-Bell yield            {enum.bell_yield:.6f}",
        f"  false heralds                  {enum.false_herald_probability:.6f}",
        f"two-source coincidence           {two_prob:.6f}",
    ]
    if eta is not None:
        # each circuit's enumerated probability times eta per source it takes
        hbs = enum.herald_probability * eta**bell.HBS_SOURCES
        ps2 = two_prob * eta**bell.POST_SELECTED_SOURCES
        payload["composed"] = {"eta": eta, "hbs4": hbs, "post_selected2": ps2}
        lines.append(f"composed at eta={eta}: hbs4={hbs:.6f} "
                     f"post-selected2={ps2:.6f}")
    return payload, lines


def _cmd_fig3(args, params, scheme) -> tuple[dict, list[str]]:
    from . import app

    written = app.emit_fig3(args.out, params)
    return {"written": written}, [f"wrote {p}" for p in written]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonmux",
        description="Time-multiplexed heralded single-photon source models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags that every subcommand takes
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="flat key=value configuration file")
    shared.add_argument("--json", action="store_true",
                        help="print machine-readable JSON to stdout")
    shared.add_argument("--literal-loss-exponent", action="store_true",
                        help="treat the per-bin delay loss as a bare decadic "
                             "exponent instead of decibels")
    shared.add_argument("--d0-excludes-filter", action="store_true",
                        help="drop the filtering-efficiency prefactor from "
                             "the per-bin no-herald probability")

    p = sub.add_parser("eval", parents=[shared],
                       help="efficiency breakdown at one design point")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", parents=[shared], help="sweep one parameter")
    p.add_argument("--param", default="n_bins")
    p.add_argument("--min", type=float)
    p.add_argument("--max", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--values", help="comma-separated explicit values")
    p.add_argument("--out", metavar="CSV", help="write points as CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", parents=[shared],
                       help="maximize efficiency over N")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=N_MAX)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("crossing", parents=[shared],
                       help="switch transmission equalizing the two protocols")
    p.add_argument("--lo", type=float, default=0.85)
    p.add_argument("--hi", type=float, default=0.99)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=_cmd_crossing)

    p = sub.add_parser("mc", parents=[shared],
                       help="Monte Carlo validation run")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("bell", parents=[shared],
                       help="entangled-state success probabilities")
    p.add_argument("--eta", type=float,
                   help="source efficiency for the composed success numbers")
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("fig3", parents=[shared],
                       help="emit the reference-curve CSV files")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_fig3)

    return parser


#: :mod:`photonmux.app` functions that stay resolvable as attributes here.
_APP_NAMES = frozenset({"sweep", "optimize_bins", "find_crossing",
                        "emit_fig3"})


def __getattr__(name: str):
    # ``photonmux.cli.estimate_eta`` and the _APP_NAMES stay resolvable
    # (perfbench's tracer rebinds them) without loading numpy or app when
    # this module is imported; the handlers call them through their module
    # (``montecarlo.estimate_eta``, ``app.sweep``, ...).
    if name == "estimate_eta":
        from .montecarlo import estimate_eta
        return estimate_eta
    if name in _APP_NAMES:
        from . import app
        return getattr(app, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _detach_stdout() -> None:
    """Point stdout at devnull, so that the last flush of what is still
    buffered stays silent."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    The answer is written in one flushed print, so that a failed write
    shows here and not at exit; files are written in ``with`` blocks.
    """
    args = build_parser().parse_args(argv)
    try:
        payload, text_lines = args.func(args, *_load(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json
              else "\n".join(text_lines), flush=True)
    except BrokenPipeError:
        _detach_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        _detach_stdout()
        print(f"output error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_BROKEN_PIPE
    return EXIT_OK


def run() -> NoReturn:
    """Entry point of the ``photonmux`` command and of ``python -m
    photonmux.cli``: :func:`main` on ``sys.argv``, then the process ends
    with its code without finalizing the interpreter, which would only
    free what the finished answer no longer needs.

    This relies on ``main`` flushing or closing everything it writes
    before it returns.  ``SystemExit`` from argparse (``--help``,
    ``--version``, a usage error) and uncaught exceptions leave through
    the normal interpreter exit.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
