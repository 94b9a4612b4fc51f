"""Tests for the time integrator, validators, and monitored audits."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm
from test_system import CROSS_PATH_METRICS

from kmaxwell import evolution, green, io, manufactured, mesh, system
from kmaxwell.tolerances import ENERGY_DRIFT_TOL, LINEARITY_TOL

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

    def test_boundary_mode_and_stride(self):
        with pytest.raises(ValueError, match="boundary_mode"):
            evolution.EvolveConfig(t_final=1.0, boundary_mode="reflect")
        with pytest.raises(ValueError, match="monitor_stride"):
            evolution.EvolveConfig(t_final=1.0, monitor_stride=0)

    def test_t_final_must_advance(self):
        grid = periodic_grid(3, 8, 0.01)
        s0 = system.zero_state(grid, 1)
        cfg = evolution.EvolveConfig(t_final=0.0, boundary_mode="periodic_test")
        with pytest.raises(ValueError, match="t_final"):
            evolution.evolve(s0, system.zero_sources(grid, 1), mesh.unit_metric(), cfg)


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

    @pytest.mark.parametrize(
        "mode, match", [("project_b", "boundary_mode"), ("periodic_test", "periodic")], ids=["unknown", "periodic-on-box"]
    )
    def test_step_and_operator_matrix_check_the_boundary_mode(self, mode, match):
        grid = box_grid(3, 8, 0.01)
        s0 = system.zero_state(grid, 1)
        with pytest.raises(ValueError, match=match):
            evolution.step(s0, system.zero_sources(grid, 1), mesh.unit_metric(), grid.dt, boundary_mode=mode)
        with pytest.raises(ValueError, match=match):
            evolution.operator_matrix(grid, 1, mesh.unit_metric(), boundary_mode=mode)

    def test_one_step_matches_matrix_exponential(self):
        # dense semi-discrete generator on a periodic 8-cell line (n=2)
        grid = periodic_grid(2, 8, 2e-3)
        met = mesh.unit_metric()
        k = 1
        mat = evolution.operator_matrix(grid, k, met, boundary_mode="periodic_test")
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
        out = evolution.step(s0, system.zero_sources(grid, k), met, grid.dt, boundary_mode="periodic_test")
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
    cfg = evolution.EvolveConfig(
        t_final=steps * grid.dt, cfl=cfl, boundary_mode="periodic_test", monitor_stride=25
    )
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
        cfg = evolution.EvolveConfig(
            t_final=10 * grid.dt, boundary_mode="periodic_test", monitor_stride=3
        )
        _, series = evolution.evolve(s0, system.zero_sources(grid, 1), mesh.unit_metric(), cfg)
        # samples at t0, steps 3, 6, 9, and the forced final step
        assert series.times.shape == (5,)
        assert np.all(np.diff(series.times) > 0)

    def test_periodic_mode_requires_periodic_grid(self):
        grid = box_grid(3, 8, 0.001)
        s0 = system.zero_state(grid, 1)
        cfg = evolution.EvolveConfig(t_final=0.01, boundary_mode="periodic_test")
        with pytest.raises(ValueError, match="periodic"):
            evolution.evolve(s0, system.zero_sources(grid, 1), mesh.unit_metric(), cfg)

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
        assert mesh.normal_flux_maxabs(final.fb) == 0.0

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_instability_reports_last_stable_state(self):
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
        with pytest.raises(evolution.InstabilityError) as info:
            evolution.evolve(s0, system.zero_sources(grid, 2), met, cfg)
        err = info.value
        assert np.isfinite(mesh.max_pointwise(err.state_last.fe))
        assert err.t_last < cfg.t_final

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
        report = evolution.constraint_propagation_audit(s0, src, met, cfg)
        assert report["rE"]["relative_drift"] < 1e-6
        assert report["rB"]["relative_drift"] < 1e-6
        assert report["rbdy"]["max"] == 0.0

    def test_injected_violation_is_transported_not_amplified(self):
        grid = periodic_grid(3, 16, 0.4 / 16)
        met = mesh.unit_metric()
        rng = np.random.default_rng(RNG_SEED)
        fb = mesh.random_cochain(grid, 1, True, rng)  # k=1: r_B = d fb, order one
        s0 = system.FieldState(0.0, mesh.zero_cochain(grid, 2, False), fb, 1)
        cfg = evolution.EvolveConfig(
            t_final=100 * grid.dt, cfl=0.4, boundary_mode="periodic_test", monitor_stride=20
        )
        report = evolution.constraint_propagation_audit(s0, system.zero_sources(grid, 1), met, cfg)
        assert report["rB"]["initial"] > 0.1
        assert report["rB"]["relative_drift"] < 1e-3

    def test_injected_boundary_violation_keeps_flux_enforced(self):
        grid = box_grid(3, 16, 0.4 / 32)
        met = mesh.unit_metric()
        rng = np.random.default_rng(RNG_SEED)
        s0 = system.random_state(grid, 2, rng)  # trace of fe violated on faces
        cfg = evolution.EvolveConfig(t_final=10 * grid.dt, cfl=0.4, monitor_stride=2)
        final, series = evolution.evolve(s0, system.zero_sources(grid, 2), met, cfg)
        assert np.all(series.columns["rbdy"] > 0.0)
        assert mesh.normal_flux_maxabs(final.fb) == 0.0


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
        failed = {c.name for c in report.failures()}
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
        assert "source_window" in {c.name for c in report.failures()}

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

    def test_report_serializes(self):
        import json

        grid, met, s0 = self.make_problem()
        report = evolution.validate_problem(s0, system.zero_sources(grid, 2), grid, met)
        assert json.loads(json.dumps(report.to_dict()))["passed"] is True


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


def reference_step(t, y, gen, dt):
    """The allocate-per-op RK4 step the assembled one must reproduce bit for bit."""
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
    out = []
    for _ in range(steps):
        y = step_fn(t, y, gen, dt)
        t = t + dt
        out.append(y)
    return out


class TestAssembledStep:
    """The assembled RK4 step against the allocate-per-op one, bit for bit."""

    @pytest.mark.parametrize("name", sorted(CROSS_PATH_METRICS))
    @pytest.mark.parametrize("periodic", [False, True], ids=["box", "torus"])
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_twenty_chained_steps(self, name, periodic, n, k):
        grid = small_grid(n, periodic)
        metric = CROSS_PATH_METRICS[name]
        gen = evolution.Generator(grid, k, metric, system.zero_sources(grid, k), "project_B", 0.37)
        y0 = rows_with_zeros(gen, RNG_SEED + k)
        got = chain(gen, 0.37, y0, grid.dt, 20, evolution._rk4_step)
        want = chain(gen, 0.37, y0, grid.dt, 20, reference_step)
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("beta", ["unit", "well"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_random_source_pair(self, beta, k):
        grid = small_grid(3, False)
        metric = mesh.MetricField(beta=CROSS_PATH_METRICS["unit" if beta == "unit" else "well_expanding"].beta)
        src = green.random_source_pair(grid, k, metric, (0.1, 0.3), np.random.default_rng(RNG_SEED))
        gen = evolution.Generator(grid, k, metric, src, "project_B", 0.1)
        y0 = rows_with_zeros(gen, RNG_SEED)
        got = chain(gen, 0.1, y0, grid.dt, 20, evolution._rk4_step)
        want = chain(gen, 0.1, y0, grid.dt, 20, reference_step)
        assert np.abs(want[-1]).max() > 0.0
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("name", sorted(CROSS_PATH_METRICS))
    def test_evolve_ends_with_a_shortened_step(self, name):
        grid = small_grid(3, False)
        metric = CROSS_PATH_METRICS[name]
        s0 = system.random_state(grid, 2, np.random.default_rng(RNG_SEED))
        cfg = evolution.EvolveConfig(t_final=7.5 * grid.dt, cfl=0.4, monitor_stride=100)
        src = system.zero_sources(grid, 2)
        final, _ = evolution.evolve(s0, src, metric, cfg)

        gen = evolution.Generator(grid, 2, metric, src, "project_B", s0.t)
        y, t = gen.project(gen.rows(s0)), s0.t
        for i in range(8):
            h = min(grid.dt, cfg.t_final - t)
            y = reference_step(t, y, gen, h)
            t = cfg.t_final if i == 7 else t + h
        assert h == pytest.approx(0.5 * grid.dt)
        want = gen.state(t, y)
        assert final.t == t
        assert same_bits(final.fe.vec, want.fe.vec) and same_bits(final.fb.vec, want.fb.vec)

    @pytest.mark.parametrize("name", sorted(CROSS_PATH_METRICS))
    @pytest.mark.parametrize("mode", ["project_B", "periodic_test"])
    def test_operator_matrix_columns_are_single_row_rhs(self, name, mode):
        grid = small_grid(3, mode == "periodic_test")
        metric = CROSS_PATH_METRICS[name]
        mat = evolution.operator_matrix(grid, 2, metric, t=0.37, boundary_mode=mode)
        gen = evolution.Generator(grid, 2, metric, system.zero_sources(grid, 2), mode, 0.37)
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

    def test_warm_3d_step_allocates_only_its_result(self):
        grid = mesh.GridSpec(n=4, cells_per_axis=(32,) * 3, lengths=(1.0,) * 3, dt=0.005)
        gen = evolution.Generator(grid, 2, mesh.unit_metric(), system.zero_sources(grid, 2), "project_B", 0.0)
        y = gen.project(np.random.default_rng(RNG_SEED).standard_normal(gen.nw + gen.lb.size))
        y = evolution._rk4_step(0.0, y, gen, grid.dt)
        tracemalloc.start()
        try:
            y = evolution._rk4_step(grid.dt, y, gen, grid.dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * y.nbytes

    def test_sourced_march_holds_one_chunk_of_source_rows(self, monkeypatch):
        # between steps, a 64^2 march holds its history, the stage buffers and
        # the source table of one chunk: at most 3 * SOURCE_TABLE_STEPS rows
        grid = mesh.GridSpec(n=3, cells_per_axis=(64, 64), lengths=(1.0, 1.0), dt=0.005)
        met = mesh.unit_metric()
        src = green.random_source_pair(grid, 2, met, (0.02, 0.5), np.random.default_rng(RNG_SEED))
        green._integrate(grid, 2, met, src, 0.05, 2, grid.dt)  # warm the layout and factor caches
        held = []
        step = evolution._rk4_step

        def spy(t, y, gen, dt):
            held.append(tracemalloc.get_traced_memory()[0])
            return step(t, y, gen, dt)

        monkeypatch.setattr(evolution, "_rk4_step", spy)
        tracemalloc.start()
        try:
            h = green._integrate(grid, 2, met, src, 0.05, 100, grid.dt)
        finally:
            tracemalloc.stop()
        row = h.fe[0].nbytes + h.fb[0].nbytes
        chunk = 3 * green.SOURCE_TABLE_STEPS * row
        beyond = max(held) - (h.fe.nbytes + h.fb.nbytes)
        assert len(held) == 100
        assert chunk / 2 < beyond <= chunk + 8 * row
