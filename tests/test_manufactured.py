"""Tests for the closed-form verification families."""

import numpy as np
import pytest

from kmaxwell import manufactured, mesh, system

RNG_SEED = 902113
FD_TOL = 1e-5
ROUNDING_TOL = 1e-13
ORDER_BAND = (1.7, 2.3)


def box_grid(n, cells, dt=0.01, periodic=None):
    m = n - 1
    return mesh.GridSpec(
        n=n,
        cells_per_axis=(cells,) * m,
        lengths=(1.0,) * m,
        dt=dt,
        periodic=periodic,
    )


def simple_metric():
    return mesh.MetricField(
        beta=lambda t, *xs: 1.0 + 0.1 * sum(np.sin(2 * np.pi * np.asarray(x)) for x in xs),
        conf=lambda t: 1.0,
    )


class TestTrigFamily:
    @pytest.mark.parametrize("k", [1, 2])
    def test_residuals_converge_at_second_order(self, k):
        fam = manufactured.trig_family(k)
        grids = [box_grid(3, c) for c in (8, 16, 32)]
        table = system.formulation_equivalence_check(fam, grids, fam.metric, t=0.7)
        active = ("evo_e", "evo_b", "div_b" if k == 1 else "div_e")
        for key in active:
            res = table[key]
            assert np.all(res > 0)
            orders = np.log2(res[:-1] / res[1:])
            assert np.all(orders > ORDER_BAND[0]), (key, orders)
            assert np.all(orders < ORDER_BAND[1]), (key, orders)

    @pytest.mark.parametrize("k", [1, 2])
    def test_sampled_state_matches_boundary_staggering(self, k):
        # sine parities put zeros exactly on the face sites
        fam = manufactured.trig_family(k)
        grid = box_grid(3, 12)
        st = fam.state(grid, 0.3)
        assert mesh.face_maxabs(st.fb.lay, st.fb.vec).max() < 1e-12
        if k == 2:
            for face in mesh.faces(grid):
                tr = mesh.trace_pullback(st.fe, face)
                assert mesh.max_pointwise(tr) < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_state_dt_matches_finite_difference(self, k):
        fam = manufactured.trig_family(k)
        grid = box_grid(3, 8)
        t, delta = 0.42, 1e-3
        plus = fam.state(grid, t + delta)
        minus = fam.state(grid, t - delta)
        exact = fam.state_dt(grid, t)
        fd_fe = (plus.fe - minus.fe) * (0.5 / delta)
        fd_fb = (plus.fb - minus.fb) * (0.5 / delta)
        assert mesh.max_pointwise(fd_fe - exact.fe) < FD_TOL
        assert mesh.max_pointwise(fd_fb - exact.fb) < FD_TOL

    @pytest.mark.parametrize("k", [1, 2])
    def test_metric_rate_matches_finite_difference(self, k):
        fam = manufactured.trig_family(k)
        t, delta = 1.1, 1e-4
        x = np.linspace(0.05, 0.95, 7)
        fd = (fam.metric.beta(t + delta, x, x[::-1]) - fam.metric.beta(t - delta, x, x[::-1])) * (0.5 / delta)
        assert np.max(np.abs(fd - fam.metric.beta_dt(t, x, x[::-1]))) < FD_TOL
        assert np.min(fam.metric.beta(t, x, x[::-1])) > 0.5
        assert fam.metric.conf(t) > 0.5

    @pytest.mark.parametrize("k,je_none,zb_none", [(1, True, False), (2, False, True)])
    def test_source_degrees_and_presence(self, k, je_none, zb_none):
        fam = manufactured.trig_family(k)
        grid = box_grid(3, 8)
        src = fam.sources(grid)
        assert (src.je is None) == je_none
        assert (src.zb is None) == zb_none
        jb = src.jb(0.2)
        assert jb.shape == (mesh.cochain_size(grid, k - 1, True),)
        ze = src.ze(0.2)
        assert ze.shape == (mesh.cochain_size(grid, 3 - 1 - k, False),)
        assert src.window == (-np.inf, np.inf)

    def test_rejects_unsupported_degree(self):
        with pytest.raises(ValueError):
            manufactured.trig_family(3)

    def test_rejects_mismatched_grid(self):
        fam = manufactured.trig_family(1)
        wrong = mesh.GridSpec(n=3, cells_per_axis=(8, 8), lengths=(2.0, 1.0), dt=0.01)
        with pytest.raises(ValueError):
            fam.state(wrong, 0.0)


class TestBumpProfile:
    def test_hand_values(self):
        fn = manufactured.bump_profile((0.0,), 1.0)
        r = np.array([0.0, 0.5, 1.0, 1.5])
        vals = fn(0.0, r)
        np.testing.assert_allclose(vals[0], 1.0)
        np.testing.assert_allclose(vals[1], np.exp(1.0 - 1.0 / 0.75))
        assert vals[2] == 0.0
        assert vals[3] == 0.0

    def test_smooth_and_compact_in_two_axes(self):
        fn = manufactured.bump_profile((0.5, 0.5), 0.25)
        x = np.linspace(0, 1, 41)[:, None]
        y = np.linspace(0, 1, 41)[None, :]
        vals = fn(0.0, x, y)
        r = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2)
        assert np.all(vals[r >= 0.25] == 0.0)
        # strictly positive away from the rim (the tail underflows near it)
        assert np.all(vals[r < 0.24] > 0.0)
        assert vals.max() <= 1.0


class TestBumpState:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2)])
    def test_constraints_flux_and_trace(self, n, k):
        grid = box_grid(n, 16)
        met = simple_metric()
        st, r0 = manufactured.bump_state(grid, k, met, seed=5)
        r_e, r_b, r_bdy = system.constraint_residuals(st, system.zero_sources(grid, k), met)
        if r_e is not None:
            assert mesh.norm_sigma(r_e, 0.0, met) < ROUNDING_TOL
        if r_b is not None:
            assert mesh.norm_sigma(r_b, 0.0, met) < ROUNDING_TOL
        if r_bdy:
            assert max(mesh.max_pointwise(v) for v in r_bdy.values()) == 0.0
        assert mesh.face_maxabs(st.fb.lay, st.fb.vec).max() == 0.0
        assert mesh.max_pointwise(st.fe) > 0.0
        assert mesh.max_pointwise(st.fb) > 0.0

    def test_support_stays_inside_reported_radius(self):
        grid = box_grid(3, 24)
        st, r0 = manufactured.bump_state(grid, 2, simple_metric(), radius=0.2, seed=9)
        assert r0 == pytest.approx(0.2 + max(grid.spacings))
        for c in (st.fe, st.fb):
            for s, arr in c.comps.items():
                coords = mesh.component_coords(grid, s, c.dual)
                pts = np.meshgrid(*coords, indexing="ij", sparse=True)
                r = np.sqrt(sum((p - 0.5) ** 2 for p in pts))
                assert np.all(np.where(r > r0, arr, 0.0) == 0.0)

    def test_seed_determinism(self):
        grid = box_grid(3, 12)
        met = simple_metric()
        a1, _ = manufactured.bump_state(grid, 2, met, seed=3)
        a2, _ = manufactured.bump_state(grid, 2, met, seed=3)
        b, _ = manufactured.bump_state(grid, 2, met, seed=4)
        for s in a1.fb.comps:
            np.testing.assert_array_equal(a1.fb.comps[s], a2.fb.comps[s])
        assert any(np.any(a1.fb.comps[s] != b.fb.comps[s]) for s in a1.fb.comps)

    def test_custom_center_moves_support(self):
        grid = box_grid(3, 24)
        st, r0 = manufactured.bump_state(
            grid, 2, simple_metric(), center=(0.3, 0.6), radius=0.15, seed=1
        )
        for s, arr in st.fb.comps.items():
            coords = mesh.component_coords(grid, s, True)
            pts = np.meshgrid(*coords, indexing="ij", sparse=True)
            r = np.sqrt((pts[0] - 0.3) ** 2 + (pts[1] - 0.6) ** 2)
            assert np.all(np.where(r > r0, arr, 0.0) == 0.0)
