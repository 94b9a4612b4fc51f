"""Property tests of config parsing.

Kept apart from ``test_cli.py``, which turns every warning into an error:
hypothesis' own failure report can warn, and would then hide the failing
example behind an internal error.
"""

import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kmaxwell import cli


@seed(20240611)
@settings(max_examples=50, deadline=None)
@given(
    experiment=st.sampled_from(["evolve", "green_suite", "symplectic_suite"]),
    cells=st.integers(-2, 80),
    length=st.one_of(st.floats(-1.0, 5.0), st.sampled_from([math.inf, math.nan])),
    dt=st.one_of(st.none(), st.floats(-0.01, 0.2), st.sampled_from([0.0, math.inf, math.nan])),
)
def test_accepted_configs_build_their_grid(tmp_path_factory, experiment, cells, length, dt):
    text = f"experiment = {experiment}\ncells = {cells}\nlength = {length!r}\n"
    path = tmp_path_factory.getbasetemp() / "run.cfg"
    path.write_text(text + ("" if dt is None else f"dt = {dt!r}\n"), encoding="utf-8")
    try:
        cfg = cli.parse_config(path)
    except cli.ConfigError:
        return
    grid = cli.build_grid(cfg)
    assert grid.cells_per_axis == (cells,) * (cfg.n - 1)
    if experiment != "evolve":
        # unit lapse and scale factor: the wave speed is 1
        assert cfg.dt <= 0.9 * min(grid.spacings) * (1 + 1e-12)
