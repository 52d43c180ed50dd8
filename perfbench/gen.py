"""Question generator: a workload seed becomes a fixed, ordered question list.

Every workload draws its design points from one distribution (the ranges
below).  Each question kind has its own stream, and each stream draws in
Latin-hypercube blocks: within a block of ``b`` questions every parameter
takes one value from each of ``b`` equal-probability strata, in a shuffled
order.  The marginals are exactly the stated ones, and each run covers the
whole range of every parameter, so per-kind medians do not hinge on a few
lucky draws.  The generator is stdlib-only and never imports photonmux: the
program sees only the values generated here.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

LAMBDA_RANGE = (0.01, 1.0)          # log-uniform
ETA_SW_RANGE = (0.80, 0.99)
ETA_C_RANGE = (0.60, 0.95)
ALPHA_INC_RANGE = (0.0, 0.1)        # dB per bin of delay
N_MAX = 128
MISMATCH_SHARE = 1 / 8
FLAG_SHARE = 1 / 4
THERMAL_SHARE = 1 / 2

#: Parameters a sweep question varies, with the range it covers.
SWEEP_RANGES = {
    "lambda": LAMBDA_RANGE,
    "eta_sw": ETA_SW_RANGE,
    "eta_c": ETA_C_RANGE,
    "alpha_inc": ALPHA_INC_RANGE,
}
SWEEP_POINTS = 20
CLI_SWEEP_POINTS = 5
CROSSING_BRACKET = (0.85, 0.99)
CROSSING_TOL = 1e-3
MC_TRIALS = 1_000_000
MC_WORKERS = (1, 2)
FRAME_BATCH = 512
CLI_MC_TRIALS = 200_000
BELL_ETA_RANGE = (0.5, 1.0)

#: Each workload's question mix as (kind, questions per cycle, Latin block
#: size).  A run answers whole cycles, and at least one whole block of every
#: kind.  The design counts give each kind a comparable share of the cycle's
#: time at the seed commit.
MIXES = {
    "design": (("eval", 512, 128), ("sweep", 24, 8), ("optimize", 12, 4),
               ("crossing", 2, 8), ("fig3", 1, 4)),
    "mc-oracle": (("oracle", 2, 8),),
    "cli": tuple((kind, 1, 4) for kind in
                 ("eval", "sweep", "optimize", "mc", "bell", "crossing")),
}

_DIMS = 12
_LAMBDA = 0
#: eta_c, alpha_inc and the two model flags (see _LatinStream).
_TIED = (2, 3, 9, 10)


def parameters() -> dict:
    """The generator's settings, recorded in every result."""
    return {
        "lambda_log_uniform": list(LAMBDA_RANGE),
        "eta_sw": list(ETA_SW_RANGE),
        "eta_c": list(ETA_C_RANGE),
        "alpha_inc_db_per_bin": list(ALPHA_INC_RANGE),
        "n_bins": [1, N_MAX],
        "mismatched_selection_share": MISMATCH_SHARE,
        "model_flag_share": FLAG_SHARE,
        "thermal_share": THERMAL_SHARE,
        "sweep_points": SWEEP_POINTS,
        "cli_sweep_points": CLI_SWEEP_POINTS,
        "crossing": [*CROSSING_BRACKET, CROSSING_TOL],
        "mc_trials": MC_TRIALS,
        "mc_workers": list(MC_WORKERS),
        "frame_batch": FRAME_BATCH,
        "cli_mc_trials": CLI_MC_TRIALS,
        "mixes": {w: {kind: {"per_cycle": count, "block": block}
                      for kind, count, block in m}
                  for w, m in MIXES.items()},
        "sampling": "latin-hypercube blocks per question kind",
    }


@dataclass(frozen=True)
class Point:
    """One design point, as plain values."""

    lam: float
    eta_sw: float
    eta_c: float
    alpha_inc: float
    n_bins: int
    topology: str           # "binary" or "single-line"
    detection: str          # "single" or "array"
    mismatched: bool        # non-canonical selection for the detection
    pair_dist: str          # "poisson" or "thermal"
    d0_excludes_filter: bool
    literal_exponent: bool

    @property
    def selection(self) -> str:
        canonical = "first" if self.detection == "single" else "last"
        if not self.mismatched:
            return canonical
        return "last" if canonical == "first" else "first"

    def config_text(self) -> str:
        """The point as a photonmux ``--config`` file."""
        lines = [
            f"lambda = {self.lam!r}",
            f"eta_sw = {self.eta_sw!r}",
            f"eta_c = {self.eta_c!r}",
            f"alpha_inc = {self.alpha_inc!r}",
            f"pair_dist = {self.pair_dist}",
            f"n_bins = {self.n_bins}",
            f"topology = {self.topology}",
            f"detection = {self.detection}",
            f"selection = {self.selection}",
            f"allow_mismatched_selection = {str(self.mismatched).lower()}",
        ]
        return "\n".join(lines) + "\n"

    def cli_flags(self) -> list[str]:
        flags = []
        if self.d0_excludes_filter:
            flags.append("--d0-excludes-filter")
        if self.literal_exponent:
            flags.append("--literal-loss-exponent")
        return flags


@dataclass(frozen=True)
class Question:
    qid: int
    kind: str
    point: Point
    sweep_param: str = ""
    sweep_values: tuple = field(default=())
    seed: int = 0
    workers: int = 1
    eta: float = 0.0


def _between(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _point(u) -> Point:
    log_lo, log_hi = (math.log(x) for x in LAMBDA_RANGE)
    return Point(
        lam=math.exp(_between(log_lo, log_hi, u[0])),
        eta_sw=_between(*ETA_SW_RANGE, u[1]),
        eta_c=_between(*ETA_C_RANGE, u[2]),
        alpha_inc=_between(*ALPHA_INC_RANGE, u[3]),
        n_bins=1 + min(N_MAX - 1, int(u[4] * N_MAX)),
        topology="binary" if u[5] < 0.5 else "single-line",
        detection="single" if u[6] < 0.5 else "array",
        mismatched=u[7] < MISMATCH_SHARE,
        pair_dist="thermal" if u[8] < THERMAL_SHARE else "poisson",
        d0_excludes_filter=u[9] < FLAG_SHARE,
        literal_exponent=u[10] < FLAG_SHARE,
    )


def _sweep_values(param: str, points: int) -> tuple:
    lo, hi = SWEEP_RANGES[param]
    if param == "lambda":
        ratio = (hi / lo) ** (1.0 / (points - 1))
        return tuple(lo * ratio**i for i in range(points))
    return tuple(lo + (hi - lo) * i / (points - 1) for i in range(points))


class _LatinStream:
    """Rows of ``_DIMS`` uniforms in [0, 1), stratified per block.

    Strata are shuffled independently per dimension, except for the
    dimensions in ``_TIED``, whose strata follow lambda's through a fixed
    permutation that is the same for every block and seed.  Together they
    decide whether a protocol crossing exists, and so whether a crossing
    question takes two gap evaluations or a dozen; tying them gives every
    block the same mix of those cases instead of leaving it to the shuffle.
    """

    def __init__(self, rng: random.Random, block: int):
        self._rng = rng
        self._block = block
        self._rows: list = []
        self.drawn = 0
        fixed = random.Random(f"photonmux-perfbench/tied/{block}")
        self._tied = {d: fixed.sample(range(block), block) for d in _TIED}

    def next(self):
        self.drawn += 1
        if not self._rows:
            b = self._block
            strata = []
            for _ in range(_DIMS):
                column = list(range(b))
                self._rng.shuffle(column)
                strata.append(column)
            for d, perm in self._tied.items():
                strata[d] = [perm[s] for s in strata[_LAMBDA]]
            cols = [[(s + self._rng.random()) / b for s in column]
                    for column in strata]
            self._rows = list(zip(*cols))
            self._rows.reverse()
        return self._rows.pop()

    def seed(self) -> int:
        return self._rng.getrandbits(32)


def min_cycles(workload: str) -> int:
    """Cycles needed for one whole block of every kind."""
    return max(-(-block // count) for _, count, block in MIXES[workload])


def cycles(workload: str, seed: int):
    """Yield the workload's question cycles, in order, without end.

    The same (workload, seed) always yields the same questions.
    """
    mix = MIXES[workload]
    streams = {
        kind: _LatinStream(
            random.Random(f"photonmux-perfbench/{workload}/{kind}/{seed}"),
            block)
        for kind, _, block in mix}
    order = random.Random(f"photonmux-perfbench/{workload}/order/{seed}")
    qid = 0
    while True:
        batch = []
        for kind, count, _ in mix:
            stream = streams[kind]
            for _ in range(count):
                batch.append(_question(workload, kind, stream))
        if workload == "design":
            order.shuffle(batch)
        yield [replace(q, qid=qid + i) for i, q in enumerate(batch)]
        qid += len(batch)


def _question(workload: str, kind: str, stream: _LatinStream) -> Question:
    u = stream.next()
    point = _point(u)
    aux = u[11]
    if kind == "sweep":
        names = sorted(SWEEP_RANGES)
        param = names[min(len(names) - 1, int(aux * len(names)))]
        points = SWEEP_POINTS if workload == "design" else CLI_SWEEP_POINTS
        return Question(0, kind, point, param,
                        _sweep_values(param, points))
    if kind == "oracle":
        workers = MC_WORKERS[(stream.drawn - 1) % len(MC_WORKERS)]
        return Question(0, kind, point, seed=stream.seed(),
                        workers=workers)
    if kind == "mc":
        return Question(0, kind, point, seed=stream.seed())
    if kind == "bell":
        return Question(0, kind, point, eta=_between(*BELL_ETA_RANGE, aux))
    return Question(0, kind, point)
