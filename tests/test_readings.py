"""The two model readings are ``SourceParams`` fields; eight entry points
still take them as keywords, because the benchmark harness passes them so.
Each passes ``**readings`` to ``model.with_readings``, the one function that
names the keywords.  The keyword form must give exactly the answer of the
field form; a misspelt keyword raises TypeError and a non-bool reading
DomainError, wherever it is given."""
import itertools
from pathlib import Path

import numpy as np
import pytest

from photonmux import app, efficiency, montecarlo
from photonmux.model import (
    DomainError,
    SchemeConfig,
    SourceParams,
    with_readings,
)

SCHEME = SchemeConfig(n_bins=8)


def _fig3_bytes(params, out_dir, **readings):
    written = app.emit_fig3(out_dir, params, **readings)
    return [Path(path).read_bytes() for path in written]


def _frames(params, out_dir, **readings):
    rng = np.random.default_rng(11)
    return [montecarlo.run_frame(params, SCHEME, rng, **readings)
            for _ in range(50)]


#: Every entry point that takes the readings as keywords, as a call on
#: (params, scratch directory, readings) that returns a comparable answer.
ENTRY_POINTS = {
    "total_efficiency": lambda p, _, **kw: efficiency.total_efficiency(
        p, SCHEME, **kw),
    "sweep": lambda p, _, **kw: app.sweep(
        app.SweepSpec("eta_sw", (0.87, 0.98), p, SCHEME), **kw),
    "optimize_bins": lambda p, _, **kw: app.optimize_bins(
        p, SCHEME, 1, 16, **kw),
    "protocol_gap": lambda p, _, **kw: app.protocol_gap(
        p, 0.95, **kw),
    "find_crossing": lambda p, _, **kw: app.find_crossing(
        p, 0.85, 1.0, 1e-4, **kw),
    "emit_fig3": _fig3_bytes,
    "estimate_eta": lambda p, _, **kw: montecarlo.estimate_eta(
        p, SCHEME, 20_000, seed=3, **kw),
    "run_frame": _frames,
}


@pytest.mark.parametrize("filt,lit",
                         list(itertools.product([True, False], [False, True])))
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_keywords_give_the_field_answer(name, filt, lit, tmp_path):
    call = ENTRY_POINTS[name]
    readings = {"include_filter_in_d0": filt, "literal_exponent": lit}
    fielded = SourceParams(**readings)
    opposite = SourceParams(include_filter_in_d0=not filt,
                            literal_exponent=not lit)
    want = call(fielded, tmp_path / "field")
    assert call(SourceParams(), tmp_path / "keywords", **readings) == want
    # an explicit keyword overrides a field that says the opposite
    assert call(opposite, tmp_path / "override", **readings) == want
    assert call(opposite, tmp_path / "opposite") != want
    # keywords equal to the fields build no new SourceParams
    assert with_readings(fielded, **readings) is fielded
    assert with_readings(fielded) is fielded
    assert with_readings(fielded, include_filter_in_d0=None,
                         literal_exponent=None) is fielded


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_misspelt_keyword_is_refused(name, tmp_path):
    with pytest.raises(TypeError, match="literal_exponnent"):
        ENTRY_POINTS[name](SourceParams(), tmp_path / "out",
                           literal_exponnent=True)
    # refused before any work: fig3 creates no directory
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reading", ["include_filter_in_d0",
                                     "literal_exponent"])
@pytest.mark.parametrize("value", ["no", 1, 0])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_a_non_bool_keyword_is_refused(name, reading, value, tmp_path):
    """Even a 1 or 0 equal to the field it would set; a warm plan cache
    keyed on an equal True or False does not let it through."""
    ENTRY_POINTS[name](SourceParams(), tmp_path / "warm",
                       **{reading: bool(value)})
    with pytest.raises(DomainError, match=reading):
        ENTRY_POINTS[name](SourceParams(), tmp_path / "out",
                           **{reading: value})
