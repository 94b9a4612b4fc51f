"""Tests for the time integrator, validators, and monitored audits."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm
from test_mesh import reference_d_flat
from test_system import CROSS_PATH_METRICS

from kmaxwell import cli, evolution, green, io, manufactured, mesh, system
from kmaxwell.tolerances import CONSTRAINT_DRIFT_TOL, ENERGY_DRIFT_TOL, LINEARITY_TOL

RNG_SEED = 660917
ORACLE_TOL = 1e-8


def box_grid(n, cells, dt, lengths=1.0, periodic=None):
    m = n - 1
    return mesh.GridSpec(
        n=n,
        cells_per_axis=(cells,) * m,
        lengths=(lengths,) * m,
        dt=dt,
        periodic=periodic,
    )


def periodic_grid(n, cells, dt, lengths=1.0):
    return box_grid(n, cells, dt, lengths, periodic=(True,) * (n - 1))


def courant_dt(grid, metric, cfl, t_hi=2.0):
    return evolution.stable_dt(grid, metric, cfl, (grid.t0, t_hi))


class TestEvolveConfig:
    def test_cfl_range(self):
        with pytest.raises(ValueError, match="cfl"):
            evolution.EvolveConfig(t_final=1.0, cfl=0.0)
        with pytest.raises(ValueError, match="cfl"):
            evolution.EvolveConfig(t_final=1.0, cfl=0.95)
        assert evolution.EvolveConfig(t_final=1.0, cfl=0.9).cfl == 0.9

    def test_monitor_stride(self):
        with pytest.raises(ValueError, match="monitor_stride"):
            evolution.EvolveConfig(t_final=1.0, monitor_stride=0)

    def test_t_final_must_advance(self):
        grid = periodic_grid(3, 8, 0.01)
        s0 = system.zero_state(grid, 1)
        cfg = evolution.EvolveConfig(t_final=0.0)
        with pytest.raises(ValueError, match="t_final"):
            evolution.evolve(s0, system.zero_sources(grid, 1), mesh.unit_metric(), cfg)


class TestInputChecks:
    """The generator takes its degree from the sources and rejects states and sources that do not fit."""

    def test_evolve_and_step_reject_sources_of_another_degree(self):
        grid = box_grid(3, 8, 0.01)
        s0, src = system.zero_state(grid, 2), system.zero_sources(grid, 1)
        with pytest.raises(ValueError, match="degree"):
            evolution.evolve(s0, src, mesh.unit_metric(), evolution.EvolveConfig(t_final=2 * grid.dt))
        with pytest.raises(ValueError, match="degree"):
            evolution.step(s0, src, mesh.unit_metric(), grid.dt)

    def test_step_rejects_sources_on_a_grid_of_other_lengths(self):
        grid = box_grid(3, 8, 0.01)
        src = system.zero_sources(box_grid(3, 8, 0.01, lengths=2.0), 2)
        with pytest.raises(ValueError, match="different grid"):
            evolution.step(system.zero_state(grid, 2), src, mesh.unit_metric(), grid.dt)

    def test_generator_rejects_sources_on_an_incompatible_grid(self):
        src = system.zero_sources(periodic_grid(3, 8, 0.01), 2)
        with pytest.raises(ValueError, match="different grid"):
            evolution.Generator(box_grid(3, 8, 0.01), mesh.unit_metric(), src, 0.0)

    @pytest.mark.parametrize("other", ["degree", "grid"])
    def test_march_block_rejects_a_state_of_another_degree_or_grid(self, other):
        grid = box_grid(3, 8, 0.01)
        if other == "degree":
            state, match = system.zero_state(grid, 1), "degree"
        else:
            state, match = system.zero_state(box_grid(3, 8, 0.01, lengths=2.0), 2), "different grid"
        with pytest.raises(ValueError, match=match):
            green._march_block(grid, mesh.unit_metric(), system.zero_sources(grid, 2), grid.t0, 2, grid.dt, [state])


class TestStep:
    def test_zero_state_stays_zero(self):
        grid = box_grid(3, 8, 0.01)
        s0 = system.zero_state(grid, 2)
        out = evolution.step(s0, system.zero_sources(grid, 2), mesh.unit_metric(), 0.01)
        assert mesh.max_pointwise(out.fe) == 0.0
        assert mesh.max_pointwise(out.fb) == 0.0
        assert out.t == pytest.approx(0.01)

    def test_linearity(self):
        grid = box_grid(3, 12, 0.4 / 12)
        met = mesh.unit_metric()
        rng = np.random.default_rng(RNG_SEED)
        s1 = system.random_state(grid, 2, rng)
        s2 = system.random_state(grid, 2, rng)
        src = system.zero_sources(grid, 2)
        out1 = evolution.step(s1, src, met, grid.dt)
        out2 = evolution.step(s2, src, met, grid.dt)
        combo = system.FieldState(0.0, s1.fe + s2.fe * 0.7, s1.fb + s2.fb * 0.7, 2)
        out = evolution.step(combo, src, met, grid.dt)
        scale = max(mesh.max_pointwise(out.fe), mesh.max_pointwise(out.fb))
        err = max(
            mesh.max_pointwise(out.fe - (out1.fe + out2.fe * 0.7)),
            mesh.max_pointwise(out.fb - (out1.fb + out2.fb * 0.7)),
        )
        assert err / scale < 1e-13

    def test_cfl_violation_rejected(self):
        grid = box_grid(3, 8, 0.01)
        s0 = system.zero_state(grid, 1)
        with pytest.raises(ValueError, match="cfl"):
            evolution.step(s0, system.zero_sources(grid, 1), mesh.unit_metric(), 1.0)

    def test_one_step_matches_matrix_exponential(self):
        # dense semi-discrete generator on a periodic 8-cell line (n=2)
        grid = periodic_grid(2, 8, 2e-3)
        met = mesh.unit_metric()
        k = 1
        mat = evolution.operator_matrix(grid, k, met)
        nw = mesh.cochain_size(grid, 1, False)
        rng = np.random.default_rng(RNG_SEED)
        v0 = rng.standard_normal(mat.shape[0])
        exact = expm(grid.dt * mat) @ v0
        s0 = system.FieldState(
            0.0,
            mesh.layout(grid, 1, False).cochain(v0[:nw]),
            mesh.layout(grid, 1, True).cochain(v0[nw:]),
            k,
        )
        out = evolution.step(s0, system.zero_sources(grid, k), met, grid.dt)
        got = np.concatenate([out.fe.vec, out.fb.vec])
        assert np.abs(got - exact).max() < ORACLE_TOL

    def test_projected_operator_matches_projected_exponential(self):
        grid = box_grid(3, 6, 1e-3)
        met = mesh.unit_metric()
        mat = evolution.operator_matrix(grid, 2, met)
        nw = mesh.cochain_size(grid, 1, False)
        rng = np.random.default_rng(RNG_SEED + 1)
        fb0 = mesh.project_normal_flux(mesh.random_cochain(grid, 2, True, rng))
        s0 = system.FieldState(0.0, mesh.random_cochain(grid, 1, False, rng), fb0, 2)
        v0 = np.concatenate([s0.fe.vec, s0.fb.vec])
        exact = expm(grid.dt * mat) @ v0
        out = evolution.step(s0, system.zero_sources(grid, 2), met, grid.dt)
        got = np.concatenate([out.fe.vec, out.fb.vec])
        assert np.abs(got - exact).max() < ORACLE_TOL


class TestEnergy:
    def test_zero_state(self):
        grid = box_grid(3, 8, 0.01)
        assert evolution.energy(system.zero_state(grid, 1), mesh.unit_metric()) == 0.0

    def test_quadratic_scaling(self):
        grid = box_grid(3, 8, 0.01)
        rng = np.random.default_rng(RNG_SEED)
        s = system.random_state(grid, 2, rng)
        met = mesh.MetricField(
            beta=lambda t, x, y: 1.0 + 0.3 * np.cos(np.asarray(x)),
            conf=lambda t: 1.2,
        )
        e1 = evolution.energy(s, met)
        s2 = system.FieldState(s.t, s.fe * 2.0, s.fb * 2.0, s.k)
        assert evolution.energy(s2, met) == pytest.approx(4.0 * e1, rel=1e-13)
        assert e1 > 0.0

    def test_unit_lapse_reduces_to_component_norms(self):
        grid = box_grid(3, 8, 0.01)
        met = mesh.unit_metric()
        rng = np.random.default_rng(RNG_SEED)
        s = system.random_state(grid, 1, rng)
        expected = mesh.pair_sigma(s.fe, s.fe, s.t, met) + mesh.pair_sigma(s.fb, s.fb, s.t, met)
        assert evolution.energy(s, met) == pytest.approx(expected, rel=1e-14)


def lowest_mode_state(grid):
    """Single-axis lowest standing mode of the degree-2 magnetic component."""
    fb = mesh.zero_cochain(grid, 2, True)
    x = mesh.component_coords(grid, (0, 1), True)[0][:, None]
    ny = fb.comps[(0, 1)].shape[1]
    fb.comps[(0, 1)][...] = (
        np.sin(2 * np.pi * x) * np.ones((1, ny)) * mesh.cell_measure(grid, (0, 1))
    )
    return system.FieldState(0.0, mesh.zero_cochain(grid, 1, False), fb, 2)


def mode_energy_drift(cfl, steps=100):
    grid = periodic_grid(3, 16, cfl / 16)
    s0 = lowest_mode_state(grid)
    cfg = evolution.EvolveConfig(t_final=steps * grid.dt, cfl=cfl, monitor_stride=25)
    _, series = evolution.evolve(s0, system.zero_sources(grid, 2), mesh.unit_metric(), cfg)
    e = series.columns["energy"]
    return abs(float(e[-1] - e[0])) / float(e[0])


class TestEnergyConservation:
    def test_periodic_drift_small_and_vanishing_with_dt(self):
        drift1 = mode_energy_drift(0.1)
        drift2 = mode_energy_drift(0.05)
        assert drift1 < ENERGY_DRIFT_TOL
        # fourth-order local error predicts a factor >= 16; the monochromatic
        # mode does even better, so test the conservative one-sided bound
        assert drift1 / drift2 > 12.0


def energy_skew_defect(grid, k, metric, t=0.0):
    """max|HA + A^T H| / max|HA| of the projected generator A in the energy form H, both frozen at t.

    A is ``operator_matrix`` on the entries the boundary projection leaves
    free; H is diagonal, the ``pair_flat`` weight of each entry (with a(t))
    times the lapse there, on both the w and the fb entries
    (``fe^2/beta + beta fb^2``).
    """
    gen = evolution.Generator(grid, metric, system.zero_sources(grid, k), t)
    lapse = gen.lapse(t)
    weights = np.concatenate([
        mesh.pair_flat(lay, np.eye(lay.size), np.eye(lay.size), float(metric.conf(t)), beta)
        for lay, beta in zip((gen.lw, gen.lb), lapse)
    ])
    free = gen.project(np.ones(weights.size)) != 0.0
    a = evolution.operator_matrix(grid, k, metric, t)[np.ix_(free, free)]
    ha = weights[free, None] * a
    return np.abs(ha + ha.T).max() / np.abs(ha).max()


# (n, cells per axis, torus, k): the 8^2 box and torus at every k of n = 3, the 6^3 box at every k of n = 4
ENERGY_IDENTITY_CASES = [(3, 8, p, k) for p in (False, True) for k in (1, 2)] + [(4, 6, False, k) for k in (1, 2, 3)]


class TestEnergyIdentity:
    """The projected generator is skew-adjoint in the energy form H (static lapse, a(t) frozen)."""

    @pytest.mark.parametrize("beta", sorted(cli.BETA_CATALOGUE))
    @pytest.mark.parametrize(
        "n,cells,periodic,k", ENERGY_IDENTITY_CASES,
        ids=[f"n{n}-{'torus' if p else 'box'}-k{k}" for n, _, p, k in ENERGY_IDENTITY_CASES],
    )
    def test_skew_adjoint_in_energy_form(self, n, cells, periodic, k, beta):
        grid = box_grid(n, cells, 0.01, periodic=(True,) * (n - 1) if periodic else None)
        metric = mesh.MetricField(beta=cli.BETA_CATALOGUE[beta](1.0))
        assert energy_skew_defect(grid, k, metric) <= LINEARITY_TOL

    @pytest.mark.parametrize("beta", sorted(cli.BETA_CATALOGUE))
    @pytest.mark.parametrize(
        "n,cells,periodic,k", ENERGY_IDENTITY_CASES,
        ids=[f"n{n}-{'torus' if p else 'box'}-k{k}" for n, _, p, k in ENERGY_IDENTITY_CASES],
    )
    def test_skew_adjoint_with_expanding_scale_factor(self, n, cells, periodic, k, beta):
        # frozen at t = 2 (a = 1.2), with a(t) in H's weights; left out, the defect reads 0.306 at n = 3
        grid = box_grid(n, cells, 0.01, periodic=(True,) * (n - 1) if periodic else None)
        metric = mesh.MetricField(beta=cli.BETA_CATALOGUE[beta](1.0), conf=cli.A_CATALOGUE["expanding"](1.0))
        assert energy_skew_defect(grid, k, metric, t=2.0) <= LINEARITY_TOL


class TestEvolve:
    def test_bitwise_determinism(self):
        grid = box_grid(3, 12, 0.4 / 24)
        met = mesh.unit_metric()
        s0, _ = manufactured.bump_state(grid, 2, met, radius=0.2, seed=3)
        cfg = evolution.EvolveConfig(t_final=10 * grid.dt, cfl=0.4, monitor_stride=2)
        src = system.zero_sources(grid, 2)
        f1, ser1 = evolution.evolve(s0, src, met, cfg)
        f2, ser2 = evolution.evolve(s0, src, met, cfg)
        for col in ser1.columns:
            np.testing.assert_array_equal(ser1.columns[col], ser2.columns[col])
        for s in f1.fe.comps:
            np.testing.assert_array_equal(f1.fe.comps[s], f2.fe.comps[s])
        for s in f1.fb.comps:
            np.testing.assert_array_equal(f1.fb.comps[s], f2.fb.comps[s])

    def test_joint_linearity_in_state_and_sources(self):
        grid = box_grid(3, 12, 0.4 / 24)
        met = mesh.unit_metric()
        s0, _ = manufactured.bump_state(grid, 2, met, radius=0.2, seed=3)
        fam = manufactured.trig_family(2)
        src = fam.sources(grid)
        cfg = evolution.EvolveConfig(t_final=8 * grid.dt, cfl=0.4, monitor_stride=4)
        f_state, _ = evolution.evolve(s0, system.zero_sources(grid, 2), met, cfg)
        f_src, _ = evolution.evolve(system.zero_state(grid, 2), src, met, cfg)
        f_joint, _ = evolution.evolve(s0, src, met, cfg)
        scale = max(mesh.max_pointwise(f_joint.fe), mesh.max_pointwise(f_joint.fb))
        err = max(
            mesh.max_pointwise(f_joint.fe - (f_state.fe + f_src.fe)),
            mesh.max_pointwise(f_joint.fb - (f_state.fb + f_src.fb)),
        )
        assert err / scale < LINEARITY_TOL

    def test_monitor_stride_and_monotone_times(self):
        grid = periodic_grid(3, 8, 0.01)
        s0 = system.zero_state(grid, 1)
        cfg = evolution.EvolveConfig(t_final=10 * grid.dt, monitor_stride=3)
        _, series = evolution.evolve(s0, system.zero_sources(grid, 1), mesh.unit_metric(), cfg)
        # samples at t0, steps 3, 6, 9, and the forced final step
        times = np.asarray(series.columns["time"])
        assert times.shape == (5,)
        assert np.all(np.diff(times) > 0)

    def test_cfl_checked_up_front(self):
        grid = box_grid(3, 8, 1.0)
        s0 = system.zero_state(grid, 1)
        cfg = evolution.EvolveConfig(t_final=2.0)
        with pytest.raises(ValueError, match="cfl"):
            evolution.evolve(s0, system.zero_sources(grid, 1), mesh.unit_metric(), cfg)

    def test_boundary_flux_zero_after_every_sample(self):
        grid = box_grid(3, 16, 0.4 / 32)
        met = mesh.unit_metric()
        rng = np.random.default_rng(RNG_SEED)
        s0 = system.random_state(grid, 2, rng)  # flux NOT zero initially
        cfg = evolution.EvolveConfig(t_final=5 * grid.dt, cfl=0.4)
        final, _ = evolution.evolve(s0, system.zero_sources(grid, 2), met, cfg)
        assert mesh.face_maxabs(final.fb.lay, final.fb.vec).max() == 0.0

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_instability_reports_last_stable_state(self, monkeypatch):
        # a lapse spike between the Courant probe points drives a blow-up
        spike = manufactured.bump_profile((0.0625, 0.5), 0.03)
        met = mesh.MetricField(
            beta=lambda t, x, y: 1.0 + 80.0 * spike(t, np.asarray(x), np.asarray(y)),
            conf=lambda t: 1.0,
        )
        grid = box_grid(3, 16, 0.4 / 16)
        rng = np.random.default_rng(RNG_SEED)
        s0 = system.random_state(grid, 2, rng)
        cfg = evolution.EvolveConfig(t_final=400 * grid.dt, cfl=0.4, monitor_stride=1000)
        inputs = []
        step = evolution._rk4_step

        def spy(t, y, gen, dt):
            inputs.append((t, y.copy(), gen))
            return step(t, y, gen, dt)

        monkeypatch.setattr(evolution, "_rk4_step", spy)
        with pytest.raises(evolution.InstabilityError) as info:
            evolution.evolve(s0, system.zero_sources(grid, 2), met, cfg)
        err = info.value
        assert np.isfinite(mesh.max_pointwise(err.state_last.fe))
        assert err.t_last < cfg.t_final
        # the last stable state is the failed step's input
        t, y, gen = inputs[-1]
        want = gen.state(t, y)
        assert err.t_last == t and err.state_last.t == t
        assert same_bits(err.state_last.fe.vec, want.fe.vec) and same_bits(err.state_last.fb.vec, want.fb.vec)

    def test_series_csv_roundtrip(self, tmp_path):
        grid = box_grid(3, 8, 0.4 / 16)
        met = mesh.unit_metric()
        s0, _ = manufactured.bump_state(grid, 2, met, radius=0.2, seed=1)
        cfg = evolution.EvolveConfig(t_final=4 * grid.dt, cfl=0.4)
        _, series = evolution.evolve(s0, system.zero_sources(grid, 2), met, cfg)
        path = tmp_path / "series_run.csv"
        io.write_monitor_csv(path, series.columns)
        back = io.read_monitor_csv(path)
        np.testing.assert_allclose(back["energy"], series.columns["energy"], rtol=0)

    def test_monitor_series_rejects_decreasing_times(self):
        cols = {name: np.array([0.0, 1.0]) for name in io.MONITOR_COLUMNS}
        cols["time"] = np.array([1.0, 0.5])
        with pytest.raises(ValueError, match="time"):
            evolution.MonitorSeries(columns=cols, state_max=np.zeros(2))


class TestConstraintPreservation:
    def test_bump_run_drifts_at_roundoff(self):
        grid0 = box_grid(3, 32, 1.0)
        met = mesh.unit_metric()
        dt = courant_dt(grid0, met, 0.4)
        grid = box_grid(3, 32, dt)
        s0, _ = manufactured.bump_state(grid, 2, met, radius=0.2, seed=7)
        src = system.zero_sources(grid, 2)
        assert evolution.validate_problem(s0, src, grid, met).passed
        cfg = evolution.EvolveConfig(t_final=100 * dt, cfl=0.4, monitor_stride=10)
        _, series = evolution.evolve(s0, src, met, cfg)
        assert series.relative_drift("rE") < 1e-6
        assert series.relative_drift("rB") < 1e-6
        assert series.columns["rbdy"].max() == 0.0

    def test_injected_violation_is_transported_not_amplified(self):
        grid = periodic_grid(3, 16, 0.4 / 16)
        met = mesh.unit_metric()
        rng = np.random.default_rng(RNG_SEED)
        fb = mesh.random_cochain(grid, 1, True, rng)  # k=1: r_B = d fb, order one
        s0 = system.FieldState(0.0, mesh.zero_cochain(grid, 2, False), fb, 1)
        cfg = evolution.EvolveConfig(t_final=100 * grid.dt, cfl=0.4, monitor_stride=20)
        _, series = evolution.evolve(s0, system.zero_sources(grid, 1), met, cfg)
        assert series.columns["rB"][0] > 0.1
        assert series.relative_drift("rB") < 1e-3

    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic_test", "project_B"])
    def test_current_without_charge_drifts(self, periodic):
        # a constant magnetic current with no electric one breaks continuity, so
        # validate_problem would reject it; the electric constraint grows from zero
        # (torus and box, the ids naming the CLI boundary value of each)
        grid = box_grid(3, 16, 0.4 / 32, periodic=(True, True) if periodic else None)
        row = np.random.default_rng(RNG_SEED).standard_normal(mesh.cochain_size(grid, 1, True))
        src = system.SourceData(grid, 2, (0.0, 1.0), jb=lambda t: row)
        cfg = evolution.EvolveConfig(t_final=20 * grid.dt, cfl=0.4, monitor_stride=5)
        _, series = evolution.evolve(system.zero_state(grid, 2), src, mesh.unit_metric(), cfg)
        assert series.columns["rE"][0] == 0.0
        assert series.relative_drift("rE") > CONSTRAINT_DRIFT_TOL

    @pytest.mark.parametrize("first", [0.0, 1.0, 3.0])
    def test_relative_drift_keeps_a_nan_scale(self, first):
        # a nan state magnitude makes the scale nan, whichever term of the denominator is larger
        columns = {"time": [0.0, 0.1, 0.2], "rE": [first, 1.0, 1.5]}
        series = evolution.MonitorSeries(columns, np.array([1.0, np.nan, 2.0]))
        assert np.isnan(series.scale)
        assert np.isnan(series.relative_drift("rE"))

    def test_injected_boundary_violation_keeps_flux_enforced(self):
        grid = box_grid(3, 16, 0.4 / 32)
        met = mesh.unit_metric()
        rng = np.random.default_rng(RNG_SEED)
        s0 = system.random_state(grid, 2, rng)  # trace of fe violated on faces
        cfg = evolution.EvolveConfig(t_final=10 * grid.dt, cfl=0.4, monitor_stride=2)
        final, series = evolution.evolve(s0, system.zero_sources(grid, 2), met, cfg)
        assert np.all(series.columns["rbdy"] > 0.0)
        assert mesh.face_maxabs(final.fb.lay, final.fb.vec).max() == 0.0


class TestSupportAudit:
    def setup_cone_run(self, c_max):
        grid0 = box_grid(3, 32, 1.0)
        met = mesh.unit_metric()
        dt = courant_dt(grid0, met, 0.4)
        grid = box_grid(3, 32, dt)
        s0, r0 = manufactured.bump_state(grid, 2, met, radius=0.2, seed=7)
        cfg = evolution.EvolveConfig(t_final=100 * dt, cfl=0.4, monitor_stride=5)
        sup = evolution.SupportInfo(center=(0.5, 0.5), radius=r0, c_max=c_max)
        _, series = evolution.evolve(s0, system.zero_sources(grid, 2), met, cfg, support=sup)
        return series, r0

    def test_true_speed_passes(self):
        series, r0 = self.setup_cone_run(1.0)
        verdict = evolution.support_audit(series, r0, 1.0)
        assert verdict.passed
        assert verdict.measure < 1e-7

    def test_halved_speed_fails(self):
        series, r0 = self.setup_cone_run(0.5)
        verdict = evolution.support_audit(series, r0, 0.5)
        assert not verdict.passed
        assert verdict.measure > 1e-5

    def test_zero_state_trivially_passes(self):
        grid = box_grid(3, 8, 0.4 / 16)
        sup = evolution.SupportInfo(center=(0.5, 0.5), radius=0.1, c_max=1.0)
        cfg = evolution.EvolveConfig(t_final=3 * grid.dt, cfl=0.4)
        _, series = evolution.evolve(
            system.zero_state(grid, 2), system.zero_sources(grid, 2), mesh.unit_metric(), cfg, support=sup
        )
        verdict = evolution.support_audit(series, 0.1, 1.0)
        assert verdict.passed

    def test_parameter_mismatch_rejected(self):
        series, r0 = self.setup_cone_run(1.0)
        with pytest.raises(ValueError, match="cone"):
            evolution.support_audit(series, r0, 2.0)
        plain = evolution.MonitorSeries(
            columns={name: np.array([0.0]) for name in io.MONITOR_COLUMNS},
            state_max=np.array([0.0]),
        )
        with pytest.raises(ValueError, match="support"):
            evolution.support_audit(plain, 0.1, 1.0)


def scanned_cone_leak(s, support, t0):
    """The largest entry at any site outside the cone, found by scanning every site."""
    grid = s.grid
    radius = support.radius + support.c_max * (s.t - t0) + evolution.CONE_HALO_CELLS * max(grid.spacings)
    center = np.asarray(support.center, dtype=float)
    leak = 0.0
    for c in (s.fe, s.fb):
        for comp, arr in c.comps.items():
            pts = mesh.site_mesh(grid, comp, c.dual)
            dist2 = sum((p - center[i]) ** 2 for i, p in enumerate(pts))
            outside = np.broadcast_to(dist2, arr.shape) > radius**2
            if np.any(outside):
                leak = max(leak, float(np.abs(arr[outside]).max()))
    return leak


class TestConeLeak:
    @pytest.mark.parametrize(
        "grid",
        [box_grid(3, 16, 0.01), periodic_grid(3, 12, 0.01), box_grid(4, 6, 0.01)],
        ids=["box2", "torus2", "box3"],
    )
    def test_equals_the_scan(self, grid):
        # a random state is nonzero everywhere, so the leak is positive until the cone covers every site
        s = system.random_state(grid, 2, np.random.default_rng(RNG_SEED))
        support = evolution.SupportInfo(center=(0.4,) * grid.dim, radius=0.1, c_max=1.0)
        states = [system.FieldState(float(t), s.fe, s.fb, 2) for t in np.linspace(0.0, 1.2, 13)]
        want = [scanned_cone_leak(st, support, 0.0) for st in states]
        assert [evolution._cone_leak(st, support, 0.0) for st in states] == want
        assert want[0] > 0.0 and want[-1] == 0.0


class TestValidateProblem:
    def make_problem(self, radius=0.2, center=None):
        grid = box_grid(3, 16, 0.4 / 32)
        met = mesh.unit_metric()
        s0, _ = manufactured.bump_state(grid, 2, met, radius=radius, center=center, seed=2)
        return grid, met, s0

    def test_compatible_bump_passes(self):
        grid, met, s0 = self.make_problem()
        report = evolution.validate_problem(s0, system.zero_sources(grid, 2), grid, met)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "initial_support",
            "source_window",
            "closed_fb",
            "closed_fe",
            "continuity_charge",
            "continuity_flux",
            "beta_positive",
        ]

    def test_support_touching_boundary_fails(self):
        grid, met, s0 = self.make_problem(radius=0.2, center=(0.12, 0.5))
        report = evolution.validate_problem(s0, system.zero_sources(grid, 2), grid, met)
        failed = {c.name for c in report.checks if not c.passed}
        assert "initial_support" in failed
        check = next(c for c in report.checks if c.name == "initial_support")
        assert "boundary" in check.detail

    def test_initial_support_skips_periodic_axes(self):
        # a bump across the x = 0 seam touches a face of the box but none of the torus
        met = mesh.unit_metric()
        for periodic, passed in (((True, False), True), ((False, False), False)):
            grid = box_grid(3, 16, 0.4 / 32, periodic=periodic)
            s0, _ = manufactured.bump_state(grid, 2, met, radius=0.2, center=(0.05, 0.5), seed=2)
            report = evolution.validate_problem(s0, system.zero_sources(grid, 2), grid, met)
            check = next(c for c in report.checks if c.name == "initial_support")
            assert check.passed is passed, periodic

    def test_source_window_must_start_after_t0(self):
        grid, met, s0 = self.make_problem()
        src = system.SourceData(
            grid=grid,
            k=2,
            window=(0.0, 0.5),
            jb=lambda t: np.zeros(mesh.cochain_size(grid, 1, True)),
        )
        report = evolution.validate_problem(s0, src, grid, met)
        assert "source_window" in {c.name for c in report.checks if not c.passed}

    def test_unit_divergence_defect_reports_unit_residual(self):
        grid, met, s0 = self.make_problem()
        rng = np.random.default_rng(RNG_SEED)
        jb_raw = mesh.random_cochain(grid, 1, True, rng)
        defect = mesh.norm_sigma(
            mesh.d_sigma(mesh.multiply_scalar(mesh.hodge_sigma(jb_raw, 0.3, met), met.beta, 0.3)),
            0.3,
            met,
        )
        jb_unit = jb_raw * (1.0 / defect)
        src = system.SourceData(
            grid=grid,
            k=2,
            window=(0.2, 0.4),
            jb=lambda t: jb_unit.vec,
        )
        report = evolution.validate_problem(s0, src, grid, met)
        charge = next(c for c in report.checks if c.name == "continuity_charge")
        assert not charge.passed
        assert charge.measure == pytest.approx(1.0, rel=1e-10)

    def test_violation_confined_to_the_ramps_fails(self):
        # the current vanishes on the plateau of its window, so the charge
        # identity fails only on the ramps, never at the window midpoint
        grid, met, s0 = self.make_problem()
        prof = green.WindowProfile(0.1, 0.4)
        row = np.random.default_rng(RNG_SEED).standard_normal(mesh.cochain_size(grid, 1, True))
        src = system.SourceData(
            grid=grid, k=2, window=(0.1, 0.4), jb=lambda t: float(prof.rate(t)) * row
        )
        assert not np.any(src.jb(0.25))
        report = evolution.validate_problem(s0, src, grid, met)
        charge = next(c for c in report.checks if c.name == "continuity_charge")
        assert not charge.passed
        assert charge.measure > 1.0


    @pytest.mark.parametrize("family", ["fe", "fb"])
    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    def test_nan_on_a_face_site_fails_initial_support(self, family, end):
        # the bump vanishes near the faces, so one nan on a face site is the worst case
        grid, met, s0 = self.make_problem()
        c = getattr(s0, family)
        c.vec[c.lay.face_sites[end]] = np.nan
        report = evolution.validate_problem(s0, system.zero_sources(grid, 2), grid, met)
        check = next(c for c in report.checks if c.name == "initial_support")
        assert not check.passed
        assert np.isnan(check.measure)
        assert check.detail

    @pytest.mark.parametrize("mismatch", ["degree", "grid"])
    def test_rejects_what_evolve_rejects(self, mismatch):
        # a k = 2 bump on the 8^2 unit box against sources of degree 1, or
        # against sources and a grid with the same cells but lengths 2.0
        grid = box_grid(3, 8, 0.01)
        met = mesh.unit_metric()
        s0, _ = manufactured.bump_state(grid, 2, met, radius=0.2, seed=2)
        other = grid if mismatch == "degree" else box_grid(3, 8, 0.01, lengths=2.0)
        src = system.zero_sources(other, 1 if mismatch == "degree" else 2)
        with pytest.raises(ValueError) as rejected:
            evolution.evolve(s0, src, met, evolution.EvolveConfig(t_final=0.05))
        with pytest.raises(ValueError) as invalid:
            evolution.validate_problem(s0, src, other, met)
        assert str(invalid.value) == str(rejected.value)


class TestCheckCfl:
    def test_named_check(self):
        grid = box_grid(3, 8, 1.0)
        cfg = evolution.EvolveConfig(t_final=2.0, cfl=0.4)
        res = evolution.check_cfl(grid, mesh.unit_metric(), cfg)
        assert res.name == "cfl"
        assert not res.passed
        good = box_grid(3, 8, 0.4 / 8)
        assert evolution.check_cfl(good, mesh.unit_metric(), cfg).passed


def reference_rhs(gen, t, y):
    """The allocate-per-op right-hand side, from the one-shot operators."""
    beta_w, beta_b = gen.lapse(t)
    src_e, src_b = system.rhs_sources(gen.src, t, gen.metric)
    w, fb = y[..., : gen.nw], y[..., gen.nw :]
    curl_b, curl_e = system.curls(gen.lw, gen.lb, w, fb, beta_w, beta_b, float(gen.metric.conf(t)))
    dw = curl_b * gen.curl_sign
    if src_e is not None:
        dw = beta_w * src_e + dw
    if src_b is not None:
        curl_e = curl_e + src_b
    return np.concatenate([dw, curl_e], axis=-1)


def autonomous(gen, t, dt):
    """Whether an RK4 step of size dt from t has a constant generator: no jb/ze source,
    a static lapse and one a(t) at the stage times."""
    confs = {float(gen.metric.conf(s)) for s in (t, t + dt / 2, t + dt)}
    return gen.src.jb is None and gen.src.ze is None and gen.metric.beta_dt is None and len(confs) == 1


def reference_step(t, y, gen, dt):
    """The allocate-per-op RK4 step the assembled one must reproduce bit for bit."""
    if autonomous(gen, t, dt):
        return reference_horner_step(t, y, gen, dt)
    return reference_level_stage_step(t, y, gen, dt)


def reference_horner_step(t, y, gen, dt):
    """The Horner form y + hB(y + h/2 B(y + h/3 B(y + h/4 By))), B = P A, allocating per op.

    In the fused order: each level's coefficient and the curl sign scale the
    Hodge factors, and d (from ``lay.cofaces`` and ``np.diff``) starts each
    target from y.
    """
    beta_w, beta_b = gen.lapse(t)
    conf = float(gen.metric.conf(t))
    y_w, y_b = y[..., : gen.nw], y[..., gen.nw :]
    z = y
    for c in (dt / 4, dt / 3, dt / 2, dt):
        image_b = mesh.hodge_flat(gen.lb, beta_b * z[..., gen.nw :], conf, c * gen.curl_sign)
        image_w = mesh.hodge_flat(gen.lw, beta_w * z[..., : gen.nw], conf, c)
        z_w, z_b = reference_d_flat(gen.lb.star, image_b, y_w), reference_d_flat(gen.lw.star, image_w, y_b)
        z = gen.project(np.concatenate([z_w, z_b], axis=-1))
    return z


def reference_level(gen, s, c, src, base):
    """One level ``P(base + c (A(s) src + s(s)))``, allocating per op, in the fused order.

    c and the curl sign scale the Hodge factors taken at a(s), d (from
    ``lay.cofaces`` and ``np.diff``) starts each target from the base, and
    the source terms are added as ``c * term``.
    """
    beta_w, beta_b = gen.lapse(s)
    conf = float(gen.metric.conf(s))
    src_e, src_b = system.rhs_sources(gen.src, s, gen.metric)
    image_b = mesh.hodge_flat(gen.lb, beta_b * src[..., gen.nw :], conf, c * gen.curl_sign)
    image_w = mesh.hodge_flat(gen.lw, beta_w * src[..., : gen.nw], conf, c)
    z_w = reference_d_flat(gen.lb.star, image_b, base[..., : gen.nw])
    z_b = reference_d_flat(gen.lw.star, image_w, base[..., gen.nw :])
    if src_e is not None:
        z_w = z_w + c * (beta_w * src_e)
    if src_b is not None:
        z_b = z_b + c * src_b
    return gen.project(np.concatenate([z_w, z_b], axis=-1))


def reference_level_stage_step(t, y, gen, dt):
    """The classical stages as four levels, allocating per op::

        y2 = P(y + h/2 (A(t) y + s(t))),  y3 = P(y + h/2 (A(t+h/2) y2 + s(t+h/2))),
        y4 = P(y + h (A(t+h/2) y3 + s(t+h/2))),
        P((y2 + 2 y3 + y4 - y)/3 + h/6 (A(t+h) y4 + s(t+h)))
    """
    t_mid, t_end = t + dt / 2, t + dt
    y2 = reference_level(gen, t, dt / 2, y, y)
    y3 = reference_level(gen, t_mid, dt / 2, y2, y)
    y4 = reference_level(gen, t_mid, dt, y3, y)
    return reference_level(gen, t_end, dt / 6, y4, (y2 + y3 * 2.0 + y4 - y) / 3.0)


def reference_stage_step(t, y, gen, dt):
    """The classical four-stage RK4 step, allocating per op."""
    k1 = reference_rhs(gen, t, y)
    k2 = reference_rhs(gen, t + dt / 2, gen.project(y + k1 * (dt / 2)))
    k3 = reference_rhs(gen, t + dt / 2, gen.project(y + k2 * (dt / 2)))
    k4 = reference_rhs(gen, t + dt, gen.project(y + k3 * dt))
    return gen.project(y + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (dt / 6.0))


def same_bits(a, b):
    """Equal arrays, signed zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def small_grid(n, periodic):
    cells = (6, 5) if n == 3 else (4, 5, 4)
    return mesh.GridSpec(n=n, cells_per_axis=cells, lengths=(1.0,) * (n - 1), dt=0.01,
                         periodic=(periodic,) * (n - 1))


def rows_with_zeros(gen, seed):
    """Rows that are random on a few sites and +0.0 or -0.0 elsewhere.

    Until the support spreads, slopes vanish on most sites, so the sign of
    each zero a stage writes shows in the result.
    """
    y = np.zeros(gen.nw + gen.lb.size)
    y[1::2] = -0.0
    y[:4] = np.random.default_rng(seed).standard_normal(4)
    return gen.project(y)


def chain(gen, t, y, dt, steps, step_fn):
    """Every step's result, copied: an RK4 step's result is the generator's row, valid until the next step."""
    out = []
    for _ in range(steps):
        y = step_fn(t, y, gen, dt)
        t = t + dt
        out.append(y.copy())
    return out


class TestAssembledStep:
    """The assembled RK4 step against the allocate-per-op one, bit for bit.

    Every step runs four ``system.level_ops`` levels.  Unit-metric cases are
    autonomous and take the Horner table; the ``well_expanding`` and
    ``time_dependent`` cases, and sourced marches, take the stage table.
    Both agree with the classical four-stage step to round-off.
    """

    @pytest.mark.parametrize("name", sorted(CROSS_PATH_METRICS))
    @pytest.mark.parametrize("periodic", [False, True], ids=["box", "torus"])
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_twenty_chained_steps(self, name, periodic, n, k):
        grid = small_grid(n, periodic)
        metric = CROSS_PATH_METRICS[name]
        gen = evolution.Generator(grid, metric, system.zero_sources(grid, k), 0.37)
        y0 = rows_with_zeros(gen, RNG_SEED + k)
        got = chain(gen, 0.37, y0, grid.dt, 20, evolution._rk4_step)
        want = chain(gen, 0.37, y0, grid.dt, 20, reference_step)
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_static_lapse_horner_steps(self, n, k):
        # a static, non-uniform lapse on the Horner path: the level programs multiply by it
        grid = small_grid(n, False)
        metric = mesh.MetricField(beta=CROSS_PATH_METRICS["well_expanding"].beta)
        gen = evolution.Generator(grid, metric, system.zero_sources(grid, k), 0.37)
        assert autonomous(gen, 0.37, grid.dt) and not any(gen._unit)
        y0 = rows_with_zeros(gen, RNG_SEED + k)
        got = chain(gen, 0.37, y0, grid.dt, 20, evolution._rk4_step)
        want = chain(gen, 0.37, y0, grid.dt, 20, reference_step)
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("periodic", [False, True], ids=["box", "torus"])
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_horner_matches_classical_to_round_off(self, periodic, n, k):
        grid = small_grid(n, periodic)
        gen = evolution.Generator(grid, mesh.unit_metric(), system.zero_sources(grid, k), 0.0)
        y0 = gen.project(np.random.default_rng(RNG_SEED + k).standard_normal(gen.nw + gen.lb.size))
        assert autonomous(gen, 0.0, grid.dt)
        got = chain(gen, 0.0, y0, grid.dt, 100, evolution._rk4_step)[-1]
        want = chain(gen, 0.0, y0, grid.dt, 100, reference_stage_step)[-1]
        scale = np.abs(want).max()
        assert scale > 0.1 * np.abs(y0).max()
        assert np.abs(got - want).max() <= 1e-13 * scale

    @pytest.mark.parametrize("case", ["well_expanding", "time_dependent", "sourced"])
    @pytest.mark.parametrize("periodic", [False, True], ids=["box", "torus"])
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_stage_recurrence_matches_classical_to_round_off(self, case, periodic, n, k):
        grid = small_grid(n, periodic)
        if case == "sourced":
            metric = mesh.unit_metric()
            src = green.random_source_pair(grid, k, metric, (0.1, 0.8), np.random.default_rng(RNG_SEED))
        else:
            metric, src = CROSS_PATH_METRICS[case], system.zero_sources(grid, k)
        gen = evolution.Generator(grid, metric, src, 0.1)
        y0 = gen.project(np.random.default_rng(RNG_SEED + k).standard_normal(gen.nw + gen.lb.size))
        assert not autonomous(gen, 0.1, grid.dt)
        got = chain(gen, 0.1, y0, grid.dt, 100, evolution._rk4_step)[-1]
        want = chain(gen, 0.1, y0, grid.dt, 100, reference_stage_step)[-1]
        scale = np.abs(want).max()
        assert scale > 0.1 * np.abs(y0).max()
        assert np.abs(got - want).max() <= 1e-13 * scale

    @pytest.mark.parametrize("beta", ["unit", "well"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_random_source_pair(self, beta, k):
        grid = small_grid(3, False)
        metric = mesh.MetricField(beta=CROSS_PATH_METRICS["unit" if beta == "unit" else "well_expanding"].beta)
        src = green.random_source_pair(grid, k, metric, (0.1, 0.3), np.random.default_rng(RNG_SEED))
        gen = evolution.Generator(grid, metric, src, 0.1)
        y0 = rows_with_zeros(gen, RNG_SEED)
        got = chain(gen, 0.1, y0, grid.dt, 20, evolution._rk4_step)
        want = chain(gen, 0.1, y0, grid.dt, 20, reference_step)
        assert np.abs(want[-1]).max() > 0.0
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("name", sorted(CROSS_PATH_METRICS))
    def test_load_writes_each_state_row_into_y0(self, name):
        # fe * (1/beta) at the state's time and fb, zeros for None, projected, in the row the first step reads
        grid = small_grid(3, False)
        metric = CROSS_PATH_METRICS[name]
        gen = evolution.Generator(grid, metric, system.zero_sources(grid, 2), 0.37)
        rng = np.random.default_rng(RNG_SEED)
        states = [system.random_state(grid, 2, rng, t=t) for t in (0.37, 0.41)]
        want = [
            gen.project(np.concatenate([s.fe.vec * (1.0 / mesh.sample_flat(gen.lw, metric.beta, s.t)), s.fb.vec]))
            for s in states
        ]
        y = gen.load([states[0], None, states[1]])
        assert y is gen._rows[0] and y.shape == (3, gen.nw + gen.lb.size)
        assert same_bits(y[0], want[0]) and same_bits(y[1], np.zeros(y.shape[1])) and same_bits(y[2], want[1])
        y = gen.load(states[1])
        assert y is gen._rows[0] and same_bits(y, want[1])

    @pytest.mark.parametrize("name", sorted(CROSS_PATH_METRICS))
    def test_evolve_ends_with_a_shortened_step(self, name):
        grid = small_grid(3, False)
        metric = CROSS_PATH_METRICS[name]
        s0 = system.random_state(grid, 2, np.random.default_rng(RNG_SEED))
        cfg = evolution.EvolveConfig(t_final=7.5 * grid.dt, cfl=0.4, monitor_stride=100)
        src = system.zero_sources(grid, 2)
        final, _ = evolution.evolve(s0, src, metric, cfg)

        gen = evolution.Generator(grid, metric, src, s0.t)
        y, t = gen.load(s0), s0.t
        for i in range(8):
            h = min(grid.dt, cfg.t_final - t)
            y = reference_step(t, y, gen, h)
            t = cfg.t_final if i == 7 else t + h
        assert h == pytest.approx(0.5 * grid.dt)
        want = gen.state(t, y)
        assert final.t == t
        assert same_bits(final.fe.vec, want.fe.vec) and same_bits(final.fb.vec, want.fb.vec)

    @pytest.mark.parametrize("name", sorted(CROSS_PATH_METRICS))
    def test_a_generator_given_two_batch_shapes_in_turn_equals_fresh_ones(self, name):
        # the stage buffers are rebuilt when rows of another leading shape arrive
        grid = small_grid(3, False)
        make = lambda: evolution.Generator(grid, CROSS_PATH_METRICS[name], system.zero_sources(grid, 2), 0.37)
        shared = make()
        rng = np.random.default_rng(RNG_SEED)
        for batch in [(2,), (3,), (), (2,)]:
            y = shared.project(rng.standard_normal(batch + (shared.nw + shared.lb.size,)))
            got = chain(shared, 0.37, y, grid.dt, 3, evolution._rk4_step)
            want = chain(make(), 0.37, y, grid.dt, 3, evolution._rk4_step)
            assert all(same_bits(a, b) for a, b in zip(got, want))
            assert same_bits(shared.rhs(0.4, y), make().rhs(0.4, y))

    @pytest.mark.parametrize("name", sorted(CROSS_PATH_METRICS))
    @pytest.mark.parametrize("periodic", [False, True], ids=["project_B", "periodic_test"])
    def test_operator_matrix_columns_are_single_row_rhs(self, name, periodic):
        # box and torus, the ids naming the CLI boundary value of each
        grid = small_grid(3, periodic)
        metric = CROSS_PATH_METRICS[name]
        mat = evolution.operator_matrix(grid, 2, metric, t=0.37)
        gen = evolution.Generator(grid, metric, system.zero_sources(grid, 2), 0.37)
        for j in range(mat.shape[1]):
            e = gen.project(np.eye(1, mat.shape[1], j)[0])
            col = gen.project(gen.rhs(0.37, e))
            assert same_bits(np.ascontiguousarray(mat[:, j]), col)
            assert same_bits(col, gen.project(reference_rhs(gen, 0.37, e)))


class TestMemory:
    def test_generators_are_freed_by_refcount(self, monkeypatch):
        # no reference cycle: a finished march's buffers go with its last reference
        gens = []
        step = evolution._rk4_step

        def spy(t, y, gen, dt):
            gens.append(weakref.ref(gen))
            return step(t, y, gen, dt)

        monkeypatch.setattr(evolution, "_rk4_step", spy)
        grid = small_grid(3, False)
        met = mesh.unit_metric()
        src = green.random_source_pair(grid, 2, met, (0.05, 0.12), np.random.default_rng(RNG_SEED))
        s0 = system.random_state(grid, 2, np.random.default_rng(RNG_SEED))
        cfg = evolution.EvolveConfig(t_final=5 * grid.dt, cfl=0.4)
        gc.collect()
        gc.disable()
        try:
            green.g_plus(src, grid, met)
            evolution.evolve(s0, system.zero_sources(grid, 2), met, cfg)
            assert len({id(ref) for ref in gens}) == 2
            assert all(ref() is None for ref in gens)
        finally:
            gc.enable()

    @staticmethod
    def liveness_spy(monkeypatch, ref):
        """Record, at every RK4 step, whether ``ref`` still resolves."""
        alive = []
        step = evolution._rk4_step

        def spy(t, y, gen, dt):
            alive.append(ref() is not None)
            return step(t, y, gen, dt)

        monkeypatch.setattr(evolution, "_rk4_step", spy)
        return alive

    def test_evolve_frees_a_handed_over_initial_state(self, monkeypatch):
        # given the only reference, evolve drops the state once its first row is formed
        grid = small_grid(3, False)
        handed = [system.random_state(grid, 2, np.random.default_rng(RNG_SEED))]
        alive = self.liveness_spy(monkeypatch, weakref.ref(handed[0]))
        cfg = evolution.EvolveConfig(t_final=3 * grid.dt, cfl=0.4)
        gc.disable()
        try:
            evolution.evolve(handed.pop(), system.zero_sources(grid, 2), mesh.unit_metric(), cfg)
        finally:
            gc.enable()
        assert alive == [False] * 3

    def test_evolve_suite_keeps_no_initial_state(self, tmp_path, monkeypatch):
        refs = []
        bump_state = manufactured.bump_state

        def spy(*args, **kwargs):
            state, radius = bump_state(*args, **kwargs)
            refs.append(weakref.ref(state))
            return state, radius

        monkeypatch.setattr(manufactured, "bump_state", spy)
        alive = self.liveness_spy(monkeypatch, lambda: refs[0]())
        path = tmp_path / "evolve.cfg"
        path.write_text("experiment = evolve\ncells = 12\ndt = 0.01\nt_final = 0.04\n")
        gc.disable()
        try:
            manifest = cli.run(cli.parse_config(path), tmp_path / "out")
        finally:
            gc.enable()
        assert manifest["passed"]
        assert len(refs) == 1 and alive == [False] * 4

    @pytest.mark.parametrize("case", ["autonomous", "sourced", "expanding"])
    def test_warm_3d_step_allocates_nothing_of_row_size(self, case):
        # the step returns the generator's row z2; a sourced step reads its tabulated terms,
        # as a march's does, and adds them without a new row, a half row, or a smaller one
        grid = mesh.GridSpec(n=4, cells_per_axis=(32,) * 3, lengths=(1.0,) * 3, dt=0.005)
        metric = mesh.MetricField(conf=cli.A_CATALOGUE["expanding"](1.0)) if case == "expanding" else mesh.unit_metric()
        src = system.zero_sources(grid, 2)
        if case == "sourced":
            src = green.random_source_pair(grid, 2, metric, (0.0, 0.1), np.random.default_rng(RNG_SEED))
        gen = evolution.Generator(grid, metric, src, 0.0)
        y = gen.project(np.random.default_rng(RNG_SEED).standard_normal(gen.nw + gen.lb.size))
        if case == "sourced":
            gen.tabulate([0.0, grid.dt], grid.dt)
        y = evolution._rk4_step(0.0, y, gen, grid.dt)
        tracemalloc.start()
        try:
            y = evolution._rk4_step(grid.dt, y, gen, grid.dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy's iteration buffers for strided ufunc operands (three of 64 KiB) are the largest transient: 0.12 row
        assert y is gen._rows[2]
        assert peak < y.nbytes / 8

    def test_warm_autonomous_generator_holds_three_rows_and_the_scratch(self):
        # the Horner rows y0, z1, z2 and the difference scratch; no fourth row, no Hodge row
        grid = mesh.GridSpec(n=4, cells_per_axis=(32,) * 3, lengths=(1.0,) * 3, dt=0.005)
        make = lambda: evolution.Generator(grid, mesh.unit_metric(), system.zero_sources(grid, 2), 0.0)
        warm = make()
        y = warm.project(np.random.default_rng(RNG_SEED).standard_normal(warm.nw + warm.lb.size))
        evolution._rk4_step(0.0, y, warm, grid.dt)  # warm the layout caches
        del warm
        tracemalloc.start()
        try:
            gen = make()
            y1 = evolution._rk4_step(0.0, y, gen, grid.dt)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch = 8 * max(gen.lw.star.largest, gen.lb.star.largest)
        # y1 is the row z2 itself; the four programs' views and factors: about 60 kB here
        assert y1 is gen._rows[2]
        assert held <= 3 * y.nbytes + scratch + y.nbytes / 16

    def test_warm_3d_march_slice_allocates_nothing_of_row_size(self):
        # a slice's rows are views of the generator's rows, and the step between two slices allocates no row
        grid = mesh.GridSpec(n=4, cells_per_axis=(32,) * 3, lengths=(1.0,) * 3, dt=0.005)
        s0 = system.random_state(grid, 2, np.random.default_rng(RNG_SEED))
        march = green._march(grid, mesh.unit_metric(), system.zero_sources(grid, 2), 0.0, 4, grid.dt, [s0])
        for _ in range(2):
            next(march)
        tracemalloc.start()
        try:
            _, fe, fb = next(march)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row = fe.nbytes + fb.nbytes
        assert np.abs(fb).max() > 0.0
        assert peak < row / 8

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_constant_lapse_generator_holds_no_lapse_row(self, beta):
        # a static lapse that is one value is kept as a zero-stride view of it
        grid = periodic_grid(3, 32, 0.01)  # no faces, so no face index either
        metric = mesh.MetricField(beta=lambda t, *x: beta)
        make = lambda: evolution.Generator(grid, metric, system.zero_sources(grid, 2), 0.0)
        make()  # warm the layout caches
        tracemalloc.start()
        try:
            gen = make()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 0.25 * 8 * (gen.nw + gen.lb.size)

    def test_constant_lapse_march_equals_a_march_on_the_sampled_row(self, monkeypatch):
        # at beta = 2 the state's fe is w * 2, not the view of w a unit lapse hands out
        grid = box_grid(3, 12, 0.01)
        metric = mesh.MetricField(beta=lambda t, *x: 2.0)
        s0, _ = manufactured.bump_state(grid, 2, metric, radius=0.2, seed=3)
        cfg = evolution.EvolveConfig(t_final=6 * grid.dt, cfl=0.4, monitor_stride=2)
        src = system.zero_sources(grid, 2)
        final, series = evolution.evolve(s0, src, metric, cfg)
        monkeypatch.setattr(evolution, "_uniform", lambda row: row)
        want, want_series = evolution.evolve(s0, src, metric, cfg)
        assert same_bits(final.fe.vec, want.fe.vec) and same_bits(final.fb.vec, want.fb.vec)
        for name, column in want_series.columns.items():
            assert same_bits(series.columns[name], column), name
        assert mesh.max_pointwise(final.fe) > 0.0

    def test_sourced_march_holds_one_chunk_of_source_rows(self, monkeypatch):
        # between steps, a 64^2 march holds its history, the stage buffers and
        # the source table of one chunk: at most 3 * SOURCE_TABLE_STEPS rows
        grid = mesh.GridSpec(n=3, cells_per_axis=(64, 64), lengths=(1.0, 1.0), dt=0.005)
        met = mesh.unit_metric()
        src = green.random_source_pair(grid, 2, met, (0.02, 0.5), np.random.default_rng(RNG_SEED))
        green._march_block(grid, met, src, 0.05, 2, grid.dt, [None])  # warm the layout and factor caches
        held = []
        step = evolution._rk4_step

        def spy(t, y, gen, dt):
            held.append(tracemalloc.get_traced_memory()[0])
            return step(t, y, gen, dt)

        monkeypatch.setattr(evolution, "_rk4_step", spy)
        tracemalloc.start()
        try:
            h = green._march_block(grid, met, src, 0.05, 100, grid.dt, [None])[0]
        finally:
            tracemalloc.stop()
        row = h.fe[0].nbytes + h.fb[0].nbytes
        chunk = 3 * green.SOURCE_TABLE_STEPS * row
        beyond = max(held) - (h.fe.nbytes + h.fb.nbytes)
        assert len(held) == 100
        assert chunk / 2 < beyond <= chunk + 8 * row
