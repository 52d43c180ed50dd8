"""Property tests of the input boundary: configuration text and sweep input.

Only the parsers run here.  Generated ``n_bins`` values are never evaluated,
because a large N makes a single evaluation arbitrarily slow.
"""
from hypothesis import given, settings, strategies as st

from photonmux.app import (
    _PARAM_KEYS,
    _SCHEME_KEYS,
    MAX_SWEEP_POINTS,
    SWEEPABLE,
    ConfigError,
    parse_config,
    sweep_values,
)
from photonmux.model import DomainError

BOUNDARY = settings(deadline=None, derandomize=True, database=None)

KEYS = sorted(_PARAM_KEYS) + sorted(_SCHEME_KEYS)
NUMBER_TEXT = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "0x10", "1_000", "true",
                     "binary", "single-line", "array", "first", "last",
                     "thermal", "poisson"]),
    st.text(max_size=12),
)
CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(KEYS), NUMBER_TEXT),
    st.text(max_size=40),
)
PARAMETER = st.one_of(st.sampled_from(sorted(SWEEPABLE)), st.text())
BOUND = st.one_of(st.none(), st.floats(), st.integers(-200, 200).map(float))


@BOUNDARY
@given(st.one_of(st.text(), st.lists(CONFIG_LINE, max_size=8)
                 .map("\n".join)))
def test_parse_config_raises_only_boundary_errors(text):
    try:
        parse_config(text)
    except (ConfigError, DomainError):
        pass


def _bounded_or_rejected(*args):
    try:
        points = sweep_values(*args)
    except (ConfigError, DomainError):
        return
    assert len(points) <= MAX_SWEEP_POINTS


@BOUNDARY
@given(PARAMETER, st.one_of(st.text(), st.lists(NUMBER_TEXT, min_size=1,
                                               max_size=6).map(",".join)))
def test_sweep_values_text_is_bounded_or_rejected(parameter, values):
    _bounded_or_rejected(parameter, values)


@settings(BOUNDARY, max_examples=500)
@given(PARAMETER, BOUND, BOUND, BOUND)
def test_sweep_grid_is_bounded_or_rejected(parameter, lo, hi, step):
    _bounded_or_rejected(parameter, None, lo, hi, step)
