"""Tests for one-sided/causal solution operators and the cutoff pairing."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kmaxwell import cli, evolution, green, manufactured, mesh, system
from kmaxwell.tolerances import (
    CONTINUITY_TOL,
    GREEN_DEFECT_TOL,
    PRESYMPLECTIC_REL_TOL,
    SKEW_TOL,
    SOURCE_COMPAT_TOL,
    SOURCE_FORM_AGREEMENT_TOL,
)

DT = 0.005
FINE_DT = 0.0025
EXACT_TOL = 1e-12
PIN_RTOL = 1e-6

# Frozen reference values for the fixed seeds below; every pipeline that
# produces them is deterministic, so drift signals a behavior change.
RIGHT_INVERSE_16 = 2.343268e-3
RIGHT_INVERSE_FRAC = 0.5968
SEQUENCE_DEFECTS = (6.688899534047e-4, 1.042452189431e-3, 2.830730130629e-3)
FORWARD_RESIDUAL = 3.144412679176e-3
SIGMA_01 = 5.579560890932e-1
SIGMA_23 = -7.374913405715e-1
SIGMA_CAUSAL_TORUS = 1.884290913e-2
VARSIGMA_TORUS = 1.884313544e-2
VARSIGMA_TORUS_SWAPPED = -1.884231152e-2
FALSIFICATION_MAX = 2.789996494794e-2

METRIC = mesh.unit_metric()
TILTED = mesh.MetricField(beta=lambda t, *x: 1.0 + 0.2 * x[0] * x[1])


def box_grid(cells=16, dt=DT):
    return mesh.GridSpec(n=3, cells_per_axis=(cells, cells), lengths=(1.0, 1.0), dt=dt)


def box4_grid(cells=8, dt=DT):
    return mesh.GridSpec(n=4, cells_per_axis=(cells,) * 3, lengths=(1.0,) * 3, dt=dt)


def torus_grid(cells=16, dt=DT):
    return mesh.GridSpec(
        n=3, cells_per_axis=(cells, cells), lengths=(1.0, 1.0), dt=dt, periodic=(True, True)
    )


def bundle_norm(bundle):
    return float(np.sqrt(sum(h.norm(METRIC) ** 2 for h in bundle.values())))


def history_equal(a, b):
    np.testing.assert_array_equal(a.fe, b.fe)
    np.testing.assert_array_equal(a.fb, b.fb)


def assert_one_time_bits(profile, ts):
    """``value`` and ``rate`` on an array of times equal the one-time calls bit for bit."""
    for method in (profile.value, profile.rate):
        batched = method(ts)
        one_time = np.array([method(float(t)) for t in ts])
        mismatches = np.flatnonzero(batched.view(np.uint64) != one_time.view(np.uint64))
        assert mismatches.size == 0, (method.__name__, ts[mismatches[:5]])


def source_rows(sh):
    return {name: rows for name, rows, _ in sh._families()}


@functools.lru_cache(maxsize=None)
def torus_bundles():
    g = torus_grid()
    return g, tuple(green.random_solution_bundle(g, METRIC, 120, seed=i) for i in range(5))


@functools.lru_cache(maxsize=None)
def forward_setup():
    g = box_grid(dt=FINE_DT)
    a = green.random_potential(g, 2, METRIC, 240, seed=5)
    probes = tuple(
        green.causal(
            green.random_source_pair(g, 1, METRIC, (0.1, 0.4), np.random.default_rng(100 + sd)),
            g,
            METRIC,
            t_final=float(a.times[-1]),
        )
        for sd in range(10)
    )
    report = green.degeneracy_forward_check(a, g, METRIC, probes)
    return g, a, probes, report


@functools.lru_cache(maxsize=None)
def torus_sources():
    """The causal-pairing demo setup: a degree-2 and a degree-1 pair and their causal fields."""
    g = torus_grid()
    src2 = green.random_source_pair(
        g, 2, METRIC, (0.1, 0.35), np.random.default_rng(31), with_harmonic=True
    )
    src1 = green.random_source_pair(
        g, 1, METRIC, (0.15, 0.4), np.random.default_rng(32), with_harmonic=True
    )
    causal = {k: green.causal(src, g, METRIC, t_final=0.6) for k, src in ((2, src2), (1, src1))}
    return g, src2, src1, causal


@functools.lru_cache(maxsize=None)
def causal_reference():
    g = box_grid()
    pair = green.random_source_pair(g, 1, METRIC, (0.1, 0.4), np.random.default_rng(40))
    return g, pair, green.causal(pair, g, METRIC, t_start=0.0, t_final=0.5)


def scaled_pair(sp, factor):
    kw = {}
    for name in ("je", "jb", "ze", "zb", "je_rate", "zb_rate"):
        fn = getattr(sp, name)
        if fn is not None:
            kw[name] = (lambda f: lambda t: factor * f(t))(fn)
    return green.SourcePair(grid=sp.grid, k=sp.k, window=sp.window, metric=sp.metric, **kw)


class TestCutoffProfile:
    def test_endpoints_and_plateau(self):
        chi = green.CutoffProfile(0.3, 0.1)
        assert chi.value(0.24) == 0.0
        assert chi.value(0.36) == 1.0
        assert chi.value(0.3) == pytest.approx(0.5)
        assert chi.rate(0.2) == 0.0
        assert chi.rate(0.4) == 0.0

    def test_rate_matches_value_derivative(self):
        chi = green.CutoffProfile(0.3, 0.1)
        ts = np.linspace(0.26, 0.34, 17)
        h = 1e-6
        fd = (chi.value(ts + h) - chi.value(ts - h)) / (2 * h)
        np.testing.assert_allclose(chi.rate(ts), fd, rtol=0.0, atol=1e-6)

    def test_exponent_catalogue(self):
        with pytest.raises(ValueError, match="width"):
            green.CutoffProfile(0.0, 0.0)
        for t_c, width in ((np.nan, 0.1), (np.inf, 0.1), (0.3, np.inf), (0.3, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                green.CutoffProfile(t_c, width)

    def test_array_of_times_rounds_as_one_time_calls(self):
        # both plateaus, both ramp ends and the ramp between them
        assert_one_time_bits(green.CutoffProfile(0.3, 0.1), np.linspace(0.2, 0.4, 2001))

    @settings(max_examples=40, deadline=None)
    @seed(2024)
    @given(
        t1=st.floats(-2.0, 2.0, allow_nan=False),
        t2=st.floats(-2.0, 2.0, allow_nan=False),
    )
    def test_monotone(self, t1, t2):
        chi = green.CutoffProfile(0.0, 0.5)
        lo, hi = min(t1, t2), max(t1, t2)
        assert chi.value(lo) <= chi.value(hi) + 1e-15


class TestWindowProfile:
    def test_support_and_plateau(self):
        p = green.WindowProfile(0.1, 0.4, ramp=0.1)
        assert p.value(0.05) == 0.0
        assert p.value(0.45) == 0.0
        assert p.value(0.25) == 1.0
        assert p.rate(0.05) == 0.0

    def test_rate_matches_value_derivative(self):
        p = green.WindowProfile(0.1, 0.4, ramp=0.1)
        ts = np.linspace(0.08, 0.42, 35)
        h = 1e-6
        fd = (p.value(ts + h) - p.value(ts - h)) / (2 * h)
        np.testing.assert_allclose(p.rate(ts), fd, rtol=0.0, atol=1e-5)

    def test_array_of_times_rounds_as_one_time_calls(self):
        assert_one_time_bits(green.WindowProfile(0.1, 0.4, ramp=0.1), np.linspace(0.0, 0.5, 2001))

    def test_default_ramp_is_a_third(self):
        p = green.WindowProfile(0.0, 0.3)
        assert p.ramp == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            green.WindowProfile(0.4, 0.1)
        with pytest.raises(ValueError, match="ramp"):
            green.WindowProfile(0.0, 0.2, ramp=0.3)
        for t_a, t_b in ((0.0, np.inf), (-np.inf, 0.2), (np.nan, 0.2), (0.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                green.WindowProfile(t_a, t_b)


class TestHistory:
    def test_shape_validation(self):
        g = box_grid(cells=4)
        times = DT * np.arange(3)
        fe = np.zeros((3, mesh.cochain_size(g, 2, False)))
        fb = np.zeros((3, mesh.cochain_size(g, 1, True)))
        green.History(g, 1, times, fe, fb)
        with pytest.raises(ValueError, match="shape"):
            green.History(g, 1, times, fe[:, :-1], fb)
        with pytest.raises(ValueError, match="two slices"):
            green.History(g, 1, times[:1], fe[:1], fb[:1])
        with pytest.raises(ValueError, match="uniform"):
            green.History(g, 1, np.array([0.0, 0.1, 0.15]), fe, fb)

    def test_algebra(self):
        _, _, c = causal_reference()
        history_equal(2.0 * c, c + c)
        history_equal(-c, c * -1.0)
        d = c - c
        assert d.maxabs() == 0.0
        r = c.restrict(3, 10)
        assert len(r.times) == 7
        assert r.times[0] == pytest.approx(c.times[3])

    def test_mismatch_errors(self):
        g, _, c = causal_reference()
        other = green.History(g, 2, c.times, np.zeros((len(c.times), mesh.cochain_size(g, 1, False))), np.zeros((len(c.times), mesh.cochain_size(g, 2, True))))
        with pytest.raises(ValueError, match="degrees"):
            c + other
        shifted = green.History(g, 1, c.times + 1.0, c.fe, c.fb)
        with pytest.raises(ValueError, match="time samples"):
            c + shifted
        g12 = box_grid(cells=12)
        elsewhere = green.History(
            g12, 1, c.times, np.zeros((len(c.times), mesh.cochain_size(g12, 2, False))),
            np.zeros((len(c.times), mesh.cochain_size(g12, 1, True))),
        )
        with pytest.raises(ValueError, match="histories on mismatched grids"):
            c - elsewhere

    @pytest.mark.parametrize("times", [[0.3, 0.2, 0.1], [0.1, 0.1, 0.1]], ids=["falling", "constant"])
    @pytest.mark.parametrize("kind", ["History", "SourceHistory"])
    def test_times_must_increase(self, times, kind):
        g = box_grid(cells=8)
        rng = np.random.default_rng(3)
        rows = lambda degree, dual: rng.standard_normal((3, mesh.cochain_size(g, degree, dual)))
        with pytest.raises(ValueError, match="history times must increase"):
            if kind == "History":
                green.History(g, 2, np.array(times), rows(1, False), rows(2, True))
            else:
                green.SourceHistory(g, 2, np.array(times), (0.1, 0.3), rows(2, False), rows(1, True), None, None)

    def test_norm_and_maxabs_zero(self):
        g = box_grid(cells=4)
        times = DT * np.arange(4)
        h = green.History(
            g,
            1,
            times,
            np.zeros((4, mesh.cochain_size(g, 2, False))),
            np.zeros((4, mesh.cochain_size(g, 1, True))),
        )
        assert h.norm(METRIC) == 0.0
        assert h.maxabs() == 0.0


class TestSourceHistory:
    def rows(self, g, degree, dual, times):
        return np.ones((len(times), mesh.cochain_size(g, degree, dual)))

    def test_rows_checked_like_history_rows(self):
        g = box_grid(cells=4)
        times = DT * np.arange(3)
        jb, ze = self.rows(g, 0, True, times), self.rows(g, 1, False, times)
        sh = green.SourceHistory(g, 1, times, (0.0, 0.01), None, jb, ze, None)
        assert sh.dt == pytest.approx(DT)
        assert sorted(source_rows(sh)) == ["jb", "ze"]
        with pytest.raises(ValueError, match="shape"):
            green.SourceHistory(g, 1, times, (0.0, 0.01), None, np.pad(jb, ((0, 0), (0, 5))), ze, None)
        with pytest.raises(ValueError, match="shape"):
            green.SourceHistory(g, 1, times, (0.0, 0.01), None, jb[:2], ze, None)
        with pytest.raises(ValueError, match="two slices"):
            green.SourceHistory(g, 1, times[:1], (0.0, 0.01), None, jb[:1], ze[:1], None)

    def test_families_outside_the_slice_complex_must_be_none(self):
        g = box_grid(cells=4)
        times = DT * np.arange(3)
        jb = self.rows(g, 0, True, times)
        with pytest.raises(ValueError, match="je must be None"):
            green.SourceHistory(g, 1, times, (0.0, 0.01), self.rows(g, 2, False, times), jb, None, None)
        with pytest.raises(ValueError, match="zb must be None"):
            green.SourceHistory(g, 2, times, (0.0, 0.01), None, None, None, self.rows(g, 2, True, times))


class TestSourcePair:
    def test_rate_callables_required(self):
        g = box_grid()
        je = lambda t: np.zeros(mesh.cochain_size(g, 2, False))
        with pytest.raises(ValueError, match="je_rate"):
            green.SourcePair(grid=g, k=2, window=(0.1, 0.4), je=je, metric=METRIC)
        zb = lambda t: np.zeros(mesh.cochain_size(g, 2, True))
        with pytest.raises(ValueError, match="zb_rate"):
            green.SourcePair(grid=g, k=1, window=(0.1, 0.4), zb=zb, metric=METRIC)

    def test_window_validation(self):
        g = box_grid()
        with pytest.raises(ValueError, match="window"):
            green.SourcePair(grid=g, k=1, window=(0.4, 0.1), metric=METRIC)

    def test_declaration_rejects_charge_violation(self):
        g = box_grid()
        prof = manufactured.bump_profile((0.5, 0.5), 0.2)
        jb0 = mesh.zero_cochain(g, 1, True)
        for s in jb0.comps:
            jb0.comps[s][...] = mesh.sample_scalar(g, s, True, prof, 0.0) * mesh.cell_measure(g, s)
        with pytest.raises(ValueError, match="admissibility"):
            green.SourcePair(grid=g, k=2, window=(0.1, 0.4), jb=lambda t: jb0.vec, metric=METRIC)

    @pytest.mark.parametrize("metric", [METRIC, TILTED], ids=["unit", "tilted"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_continuity_residuals_of_random_pairs(self, k, metric):
        # on the ramps the analytic rates leave roundoff only; a finite
        # difference of the window profiles misses CONTINUITY_TOL there
        g = box_grid()
        pair = green.random_source_pair(g, k, metric, (0.1, 0.4), np.random.default_rng(k))
        spaces = {"charge": (4 - k, False), "flux": (k + 1, True), "flux_closed": (k + 2, True)}
        for t in (0.15, 0.2, 0.35):
            rows = system.continuity_residuals(pair, metric, t)
            present = {name for name, row in rows.items() if row is not None}
            assert present == ({"flux"} if k == 1 else {"charge"})
            for name in present:
                norm = mesh.norm_flat(mesh.layout(g, *spaces[name]), rows[name], metric.conf(t))
                assert norm <= CONTINUITY_TOL, (name, t, norm)

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_pair_passes_validation(self, k):
        g = box_grid()
        pair = green.random_source_pair(g, k, TILTED, (0.1, 0.4), np.random.default_rng(k))
        report = evolution.validate_problem(system.zero_state(g, k), pair, g, TILTED)
        assert report.passed, [c.to_dict() for c in report.failures()]

    def test_random_pair_legs_by_degree(self):
        g = box_grid()
        p1 = green.random_source_pair(g, 1, METRIC, (0.1, 0.4), np.random.default_rng(0))
        assert p1.je is None and p1.jb is not None and p1.ze is not None and p1.zb is not None
        p2 = green.random_source_pair(g, 2, METRIC, (0.1, 0.4), np.random.default_rng(0))
        assert p2.je is not None and p2.zb is None
        alpha_only = green.random_source_pair(
            g, 2, METRIC, (0.1, 0.4), np.random.default_rng(0), with_zeta=False
        )
        assert alpha_only.ze is None

    def test_random_pair_requires_static_metric(self):
        g = box_grid()
        drifting = mesh.MetricField(
            beta=lambda t, *x: 1.0 + 0.1 * t,
            conf=lambda t: 1.0,
            beta_dt=lambda t, *x: 0.1,
        )
        with pytest.raises(ValueError, match="lapse"):
            green.random_source_pair(g, 1, drifting, (0.1, 0.4), np.random.default_rng(0))
        breathing = mesh.MetricField(beta=lambda t, *x: 1.0, conf=lambda t: 1.0 + 0.1 * t)
        with pytest.raises(ValueError, match="conformal"):
            green.random_source_pair(g, 1, breathing, (0.1, 0.4), np.random.default_rng(0))

    def test_electric_current_normal_flux_is_checked_for_k3(self):
        # from k = 3 on, the Hodge dual of je is a dual form with normal legs on the faces
        g = box4_grid()
        pair = green.random_source_pair(g, 3, METRIC, (0.1, 0.4), np.random.default_rng(3))
        assert pair.je is not None
        lay = mesh.layout(g, 1, True)
        face = np.zeros(lay.size)
        face[mesh.normal_face_sites(lay)[0]] = 1e-3
        leak = mesh.hodge_inverse_flat(lay, face, 1.0)
        with pytest.raises(ValueError, match="source admissibility residual 1.000e-03"):
            dataclasses.replace(pair, je=lambda t: pair.je(t) + leak)

    def test_magnetic_defect_must_be_closed(self):
        # on a 3-D slice the closedness row of a k = 1 zb lives in the dual degree-3 layout
        g = box4_grid()
        pair = green.random_source_pair(g, 1, METRIC, (0.1, 0.4), np.random.default_rng(1))
        closed = system.continuity_residuals(pair, METRIC, 0.25)["flux_closed"]
        assert closed.shape == (mesh.layout(g, 3, True).size,)
        assert np.max(np.abs(closed)) <= SOURCE_COMPAT_TOL
        lay = mesh.layout(g, 2, True)
        kink = np.zeros(lay.size)
        lay.view(kink, 0)[4, 4, 4] = 1e-3
        with pytest.raises(ValueError, match="source admissibility residual 1.000e-03"):
            dataclasses.replace(pair, zb=lambda t: pair.zb(t) + kink)

    def test_harmonic_requires_torus(self):
        g = box_grid()
        with pytest.raises(ValueError, match="periodic"):
            green.random_source_pair(
                g, 1, METRIC, (0.1, 0.4), np.random.default_rng(0), with_harmonic=True
            )

    def test_harmonic_requires_uniform_lapse(self):
        g = torus_grid()
        tilted = mesh.MetricField(beta=lambda t, *x: 1.0 + 0.2 * x[0], conf=lambda t: 1.0)
        with pytest.raises(ValueError, match="uniform lapse"):
            green.random_source_pair(
                g, 2, tilted, (0.1, 0.4), np.random.default_rng(0), with_harmonic=True
            )


class TestOneSidedSolves:
    def test_zero_sources_give_zero_history(self):
        g = box_grid()
        sp = green.SourcePair(grid=g, k=1, window=(0.1, 0.4), metric=METRIC)
        h = green.g_plus(sp, g, METRIC, t_start=0.0, t_final=0.5)
        assert not np.any(h.fe) and not np.any(h.fb)

    def test_support_is_bit_exact(self):
        g, pair, _ = causal_reference()
        fwd = green.g_plus(pair, g, METRIC, t_start=0.0, t_final=0.5)
        # one-dt margin: a float time landing epsilon inside the window edge
        # samples the profile's flat tail, so test strictly-outside slices
        before = fwd.times <= pair.window[0] - DT + 1e-12
        assert np.count_nonzero(before) >= 2
        assert not np.any(fwd.fe[before]) and not np.any(fwd.fb[before])
        assert np.any(fwd.fe[~before])
        bwd = green.g_minus(pair, g, METRIC, t_start=0.0, t_final=0.5)
        after = bwd.times >= pair.window[1] + DT - 1e-12
        assert np.count_nonzero(after) >= 2
        assert not np.any(bwd.fe[after]) and not np.any(bwd.fb[after])
        assert np.any(bwd.fe[~after])

    def test_window_margin_enforced(self):
        g = box_grid()
        sp = green.SourcePair(grid=g, k=1, window=(0.005, 0.3), metric=METRIC)
        with pytest.raises(ValueError, match="touches"):
            green.g_plus(sp, g, METRIC, t_start=0.0, t_final=0.4)

    def test_budgets_and_cfl(self):
        g = box_grid()
        sp = green.SourcePair(grid=g, k=1, window=(0.1, 0.4), metric=METRIC)
        with pytest.raises(ValueError, match="budget"):
            green.g_plus(sp, g, METRIC, t_start=0.0, t_final=600 * DT)
        wide = box_grid(cells=128)
        spw = green.SourcePair(grid=wide, k=1, window=(0.1, 0.4), metric=METRIC)
        with pytest.raises(ValueError, match="budget"):
            green.g_plus(spw, wide, METRIC, t_start=0.0, t_final=0.5)
        coarse = box_grid(dt=0.2)  # far above the 0.9*h/c Courant bound
        spc = green.SourcePair(grid=coarse, k=1, window=(0.45, 0.6), metric=METRIC)
        with pytest.raises(ValueError, match="cfl"):
            green.g_plus(spc, coarse, METRIC, t_start=0.0, t_final=1.0)

    def test_mismatched_grid_rejected(self):
        g = box_grid()
        other = box_grid(cells=12)
        sp = green.SourcePair(grid=g, k=1, window=(0.1, 0.4), metric=METRIC)
        with pytest.raises(ValueError, match="different grid"):
            green.g_plus(sp, other, METRIC, t_start=0.0, t_final=0.5)

    def test_unsupported_source_rejected(self):
        with pytest.raises(TypeError, match="unsupported source object dict"):
            green.g_plus({}, box_grid(), METRIC, t_start=0.0, t_final=0.5)

    def test_source_on_torus_rejected_on_box(self):
        g = box_grid()
        sp = green.SourcePair(grid=torus_grid(), k=1, window=(0.1, 0.4), metric=METRIC)
        with pytest.raises(ValueError, match="different grid"):
            green.g_plus(sp, g, METRIC, t_start=0.0, t_final=0.5)

    def test_determinism(self):
        g, pair, _ = causal_reference()
        a = green.g_plus(pair, g, METRIC, t_start=0.0, t_final=0.5)
        b = green.g_plus(pair, g, METRIC, t_start=0.0, t_final=0.5)
        history_equal(a, b)


def same_bits(a, b):
    """Equal arrays, signed zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def histories_same_bits(a, b):
    return same_bits(a.times, b.times) and same_bits(a.fe, b.fe) and same_bits(a.fb, b.fb)


def per_stage(monkeypatch):
    """March without source tables: one rhs_sources call per RK4 stage."""
    monkeypatch.setattr(evolution.Generator, "tabulate", lambda self, steps, dt: None)


def march_sources(kind, g):
    """A source pair or a history's sources, nonzero over most of [0, 0.4]."""
    if kind == "pair":
        return green.random_source_pair(g, 2, TILTED, (0.02, 0.38), np.random.default_rng(5))
    times = g.t0 + g.dt * np.arange(81)
    omega = green.random_compact_history(g, 2, TILTED, times, (0.03, 0.37), np.random.default_rng(5))
    return green.apply_operator(omega, TILTED)


class TestTabulatedMarch:
    """Marches that read their sources from chunk tables equal per-stage marches, bit for bit."""

    @pytest.mark.parametrize("kind", ["pair", "history"])
    @pytest.mark.parametrize("direction", [1, -1], ids=["forward", "backward"])
    @pytest.mark.parametrize("steps", [1, 31, 32, 33, 65])
    def test_integrate(self, kind, direction, steps, monkeypatch):
        # the march of g_plus (dt > 0) and g_minus (dt < 0) from a slice inside the window
        g = box_grid(cells=12)
        data = green._as_source_data(march_sources(kind, g), g)
        t0 = 0.03 if direction == 1 else 0.37
        march = functools.partial(green._integrate, g, 2, TILTED, data, t0, steps, direction * g.dt)
        tabulated = march()
        per_stage(monkeypatch)
        assert histories_same_bits(tabulated, march())
        assert np.abs(tabulated.fb).max() > 0.0

    @pytest.mark.parametrize("kind", ["pair", "history"])
    @pytest.mark.parametrize("steps", [31, 32, 33, 65])
    def test_g_plus_and_g_minus(self, kind, steps, monkeypatch):
        g = box_grid(cells=12)
        src = march_sources(kind, g)
        t0 = src.window[0] - 2 * g.dt if kind == "pair" else 0.0
        span = dict(t_start=t0, t_final=t0 + steps * g.dt)
        if kind == "pair":
            window = (t0 + 2.5 * g.dt, t0 + (steps - 2.5) * g.dt)
            src = green.random_source_pair(g, 2, TILTED, window, np.random.default_rng(5))
        else:
            src = green.sample_sources(src.data(), src.times, tag_window=(t0 + 2 * g.dt, t0 + (steps - 2) * g.dt))
        tabulated = [solve(src, g, TILTED, **span) for solve in (green.g_plus, green.g_minus)]
        per_stage(monkeypatch)
        for want, solve in zip(tabulated, (green.g_plus, green.g_minus)):
            assert len(want.times) == steps + 1
            assert histories_same_bits(want, solve(src, g, TILTED, **span))

    def test_one_batched_call_per_chunk(self, monkeypatch):
        calls = []
        rhs_sources = system.rhs_sources

        def spy(src, t, metric):
            calls.append(np.ndim(t))
            return rhs_sources(src, t, metric)

        monkeypatch.setattr(system, "rhs_sources", spy)
        g = box_grid(cells=12)
        green._integrate(g, 2, TILTED, march_sources("pair", g), 0.03, 65, g.dt)
        assert calls == [1, 1, 1]


class TestCausal:
    def test_scaling_is_exact(self):
        g, pair, c = causal_reference()
        c2 = green.causal(scaled_pair(pair, 2.0), g, METRIC, t_start=0.0, t_final=0.5)
        history_equal(c2, 2.0 * c)

    def test_additivity(self):
        g, pair, c = causal_reference()
        other = green.random_source_pair(g, 1, METRIC, (0.12, 0.38), np.random.default_rng(41))
        c_other = green.causal(other, g, METRIC, t_start=0.0, t_final=0.5)
        combined = green.SourcePair(
            grid=g,
            k=1,
            window=(0.1, 0.4),
            metric=METRIC,
            jb=lambda t: pair.jb(t) + other.jb(t),
            ze=lambda t: pair.ze(t) + other.ze(t),
            zb=lambda t: pair.zb(t) + other.zb(t),
            zb_rate=lambda t: pair.zb_rate(t) + other.zb_rate(t),
        )
        c_sum = green.causal(combined, g, METRIC, t_start=0.0, t_final=0.5)
        diff = c_sum - (c + c_other)
        assert diff.maxabs() <= 1e-13 * c_sum.maxabs()

    def test_time_mirror_symmetry(self):
        # for a window symmetric about t_m with even magnetic current and
        # odd flux source, reflecting time and flipping fb maps the causal
        # solution to itself; the discrete forward/backward marches mirror
        # each other exactly, so the residual sits at roundoff
        _, _, c = causal_reference()
        scale = c.maxabs()
        assert np.max(np.abs(c.fe - c.fe[::-1])) <= EXACT_TOL * scale
        assert np.max(np.abs(c.fb + c.fb[::-1])) <= EXACT_TOL * scale

    def test_zero_source_history_stays_zero(self):
        g = box_grid(cells=8)
        times = DT * np.arange(41)
        zero = green.History(
            g,
            2,
            times,
            np.zeros((41, mesh.cochain_size(g, 1, False))),
            np.zeros((41, mesh.cochain_size(g, 2, True))),
        )
        src = green.apply_operator(zero, METRIC)
        assert src.norm(METRIC) == 0.0
        out = green.causal(src, g, METRIC, t_start=0.0, t_final=float(times[-1]))
        assert not np.any(out.fe) and not np.any(out.fb)


class TestRightInverse:
    def test_defect_and_halving(self):
        d = {}
        for cells, dtv in ((16, DT), (32, DT / np.sqrt(2.0))):
            g = box_grid(cells=cells, dt=dtv)
            steps = int(round(0.6 / dtv))
            times = dtv * np.arange(steps + 1)
            omega = green.random_compact_history(
                g, 2, METRIC, times, (0.1, 0.5), np.random.default_rng(11)
            )
            d[cells] = green.right_inverse_check(omega, g, METRIC)["defect"]
        assert d[16] < GREEN_DEFECT_TOL
        assert d[16] == pytest.approx(RIGHT_INVERSE_16, rel=1e-5)
        frac = d[32] / d[16]
        assert 0.35 <= frac <= 0.65
        assert frac == pytest.approx(RIGHT_INVERSE_FRAC, rel=1e-3)

    def test_zero_omega(self):
        g = box_grid(cells=8)
        times = DT * np.arange(41)
        omega = green.History(
            g,
            2,
            times,
            np.zeros((41, mesh.cochain_size(g, 1, False))),
            np.zeros((41, mesh.cochain_size(g, 2, True))),
        )
        assert green.right_inverse_check(omega, g, METRIC)["defect"] == 0.0

    def test_boundary_violation_rejected(self):
        g = box_grid(cells=8)
        times = DT * np.arange(41)
        omega = green.History(
            g,
            2,
            times,
            np.zeros((41, mesh.cochain_size(g, 1, False))),
            np.ones((41, mesh.cochain_size(g, 2, True))),
        )
        with pytest.raises(ValueError, match="boundary condition"):
            green.right_inverse_check(omega, g, METRIC)
        with pytest.raises(ValueError, match="history declared on a different grid"):
            green.right_inverse_check(omega, box_grid(cells=12), METRIC)


class TestExactSequence:
    def test_frozen_defects(self):
        g = box_grid(dt=FINE_DT)
        rep = green.exact_sequence_suite(g, METRIC, trials=3, seed=0)
        for key, pinned in zip(("defect_a", "defect_b", "defect_c"), SEQUENCE_DEFECTS):
            assert rep[key] < GREEN_DEFECT_TOL
            assert rep[key] == pytest.approx(pinned, rel=PIN_RTOL)
        assert rep["trials"] == 3
        assert all(len(v) == 3 for v in rep["per_trial"].values())

    def test_defects_converge_second_order(self):
        coarse = green.exact_sequence_suite(box_grid(16, 0.004), METRIC, trials=1, seed=0)
        fine = green.exact_sequence_suite(box_grid(32, 0.002), METRIC, trials=1, seed=0)
        for key in ("defect_a", "defect_b"):
            ratio = coarse[key] / fine[key]
            assert 2.6 <= ratio <= 5.4

    def test_full_cutoff_degenerates_to_right_inverse(self):
        # chi == 1 over the support makes the future part the whole field:
        # its cutoff sources equal the plain operator image bit for bit, the
        # past part is bit-zero, and the reconstruction defect is exactly
        # the right-inverse defect
        g = box_grid()
        times = DT * np.arange(121)
        omega = green.random_compact_history(
            g, 2, METRIC, times, (0.15, 0.45), np.random.default_rng(7)
        )
        chi = green.CutoffProfile(0.05, 0.04)
        fut = green.cutoff_sources(omega, chi, METRIC)
        direct = green.apply_operator(omega, METRIC)
        fut_rows = source_rows(fut)
        for name, rows in source_rows(direct).items():
            np.testing.assert_array_equal(fut_rows[name], rows)
        past = green.cutoff_sources(omega, chi, METRIC, complement=True)
        assert all(not np.any(rows) for rows in source_rows(past).values())
        lead = green.g_plus(fut, g, METRIC, t_start=0.0, t_final=0.61)
        defect = (lead.restrict(0, 121) - omega).norm(METRIC) / omega.norm(METRIC)
        ri = green.right_inverse_check(omega, g, METRIC)["defect"]
        assert defect == pytest.approx(ri, rel=EXACT_TOL)
        assert defect < GREEN_DEFECT_TOL


class TestPresymplectic:
    def test_skew_and_cutoff_independence_on_ten_pairs(self):
        g, bundles = torus_bundles()
        chi = green.CutoffProfile(0.3, 10 * DT)
        wide = green.CutoffProfile(0.3, 20 * DT)
        shifted = green.CutoffProfile(0.35, 10 * DT)
        rels = []
        for i, j in itertools.combinations(range(5), 2):
            v = green.presymplectic(bundles[i], bundles[j], chi, g, METRIC)
            vr = green.presymplectic(bundles[j], bundles[i], chi, g, METRIC)
            assert abs(v + vr) <= SKEW_TOL * abs(v)
            for other in (wide, shifted):
                vo = green.presymplectic(bundles[i], bundles[j], other, g, METRIC)
                assert abs(vo - v) <= PRESYMPLECTIC_REL_TOL * abs(v)
            rels.append(abs(v) / (bundle_norm(bundles[i]) * bundle_norm(bundles[j])))
        assert min(rels) > 1e-3

    def test_frozen_values(self):
        g, bundles = torus_bundles()
        chi = green.CutoffProfile(0.3, 10 * DT)
        v01 = green.presymplectic(bundles[0], bundles[1], chi, g, METRIC)
        v23 = green.presymplectic(bundles[2], bundles[3], chi, g, METRIC)
        assert v01 == pytest.approx(SIGMA_01, rel=1e-8)
        assert v23 == pytest.approx(SIGMA_23, rel=1e-8)

    def test_self_pairing_vanishes(self):
        g, bundles = torus_bundles()
        chi = green.CutoffProfile(0.3, 10 * DT)
        assert green.presymplectic(bundles[0], bundles[0], chi, g, METRIC) == 0.0

    def test_single_degree_bundles_decouple(self):
        g, bundles = torus_bundles()
        chi = green.CutoffProfile(0.3, 10 * DT)
        one = {2: bundles[0][2]}
        two = {2: bundles[1][2]}
        assert green.presymplectic(one, two, chi, g, METRIC) == 0.0

    def test_bilinear_scaling_exact(self):
        g, bundles = torus_bundles()
        chi = green.CutoffProfile(0.3, 10 * DT)
        v = green.presymplectic(bundles[0], bundles[1], chi, g, METRIC)
        doubled = {k: 2.0 * h for k, h in bundles[0].items()}
        assert green.presymplectic(doubled, bundles[1], chi, g, METRIC) == pytest.approx(
            2.0 * v, rel=EXACT_TOL
        )

    def test_box_solutions_pair_to_machine_zero(self):
        # on a box every homogeneous solution built from coboundary data is
        # invisible to the pairing; the nonzero values above need the torus
        g = box_grid()
        b0 = green.random_solution_bundle(g, METRIC, 120, seed=0)
        b1 = green.random_solution_bundle(g, METRIC, 120, seed=1)
        chi = green.CutoffProfile(0.3, 10 * DT)
        v = green.presymplectic(b0, b1, chi, g, METRIC)
        assert abs(v) <= 1e-10 * bundle_norm(b0) * bundle_norm(b1)

    @pytest.mark.parametrize("beta", ["unit", "well"])
    def test_torus_bundles_meet_the_constraints_on_every_slice(self, beta):
        # the constant electric mode carries the lapse, so d(fe / beta) = 0 for any lapse
        g = torus_grid()
        metric = mesh.MetricField(beta=cli.BETA_CATALOGUE[beta](1.0))
        for k, h in green.random_solution_bundle(g, metric, 40, seed=1).items():
            zero = system.zero_sources(g, k)
            for t, fe, fb in zip(h.times, h.fe, h.fb):
                state = system.FieldState(float(t), h.le.cochain(fe), h.lb.cochain(fb), k)
                assert max(system.constraint_norms(state, zero, metric)) <= 1e-12 * h.maxabs(), (k, t)

    @pytest.mark.parametrize("beta", ["unit", "well"])
    def test_generator_conserves_the_slice_current(self, beta):
        # semi-discrete, so free of RK4 error: the current C is bilinear in the
        # two bundles' slices and the metric is static, so dC/dt at t0 is
        # C(x1, x2') + C(x1', x2) with x' = Generator.rhs(t0, x); it reads at most
        # 2.4e-15 |C|, and 0.32 |C| at well lapse with the constant electric
        # mode not lapse-weighted
        g = torus_grid()
        metric = mesh.MetricField(beta=cli.BETA_CATALOGUE[beta](1.0))
        b1, b2 = (green.random_solution_bundle(g, metric, 1, seed=s) for s in (0, 1))
        times = b1[1].times

        def slice_and_rate(h):
            gen = evolution.Generator(g, h.k, metric, system.zero_sources(g, h.k), "project_B", g.t0)
            y = gen.rows(system.FieldState(g.t0, h.le.cochain(h.fe[0]), h.lb.cochain(h.fb[0]), h.k))
            rate = gen.state(g.t0, gen.rhs(g.t0, y))
            return (h.fe[0], h.fb[0]), (rate.fe.vec, rate.fb.vec)

        def two_slices(parts, first, second):
            # the bundle whose slices are the parts at index ``first``, then ``second``
            return {
                k: green.History(g, k, times, *(np.stack([p[first][i], p[second][i]]) for i in range(2)))
                for k, p in parts.items()
            }

        p1 = {k: slice_and_rate(h) for k, h in b1.items()}
        p2 = {k: slice_and_rate(h) for k, h in b2.items()}
        current = green._currents(b1, b2, times, metric)[0]
        rate = np.sum(green._currents(two_slices(p1, 0, 1), two_slices(p2, 1, 0), times, metric))
        assert abs(current) > 1e-3
        assert abs(rate) <= 1e-12 * abs(current), (rate, current)

    def test_cutoff_ramp_must_fit(self):
        g, bundles = torus_bundles()
        with pytest.raises(ValueError, match="ramp"):
            green.presymplectic(
                bundles[0], bundles[1], green.CutoffProfile(0.0, 0.1), g, METRIC
            )

    def test_bundle_validation(self):
        g, bundles = torus_bundles()
        chi = green.CutoffProfile(0.3, 10 * DT)
        h2 = bundles[0][2]
        with pytest.raises(ValueError, match="does not match"):
            green.presymplectic({1: h2}, bundles[1], chi, g, METRIC)
        with pytest.raises(ValueError, match="duplicate degree"):
            green.presymplectic([h2, h2], bundles[1], chi, g, METRIC)
        short = {k: h.restrict(0, 100) for k, h in bundles[0].items()}
        with pytest.raises(ValueError, match="time samples"):
            green.presymplectic(short, bundles[1], chi, g, METRIC)
        ragged = {1: bundles[0][1].restrict(0, 100), 2: h2}
        with pytest.raises(ValueError, match="histories on mismatched time samples"):
            green.presymplectic(ragged, bundles[1], chi, g, METRIC)
        with pytest.raises(ValueError, match="empty solution bundle"):
            green.presymplectic({}, bundles[1], chi, g, METRIC)
        other = box_grid(cells=12)
        b = green.random_solution_bundle(other, METRIC, 120, seed=0)
        with pytest.raises(ValueError, match="grids"):
            green.presymplectic(b, bundles[1], chi, g, METRIC)


class TestSourceForm:
    def test_zero_second_source(self):
        g = torus_grid()
        src1 = green.random_source_pair(g, 2, METRIC, (0.1, 0.35), np.random.default_rng(31))
        empty = green.SourcePair(grid=g, k=1, window=(0.15, 0.4), metric=METRIC)
        assert green.presymplectic_source_form(src1, empty, g, METRIC, t_final=0.6) == 0.0

    def test_agreement_with_causal_pairing_on_torus(self):
        g = torus_grid()
        src1 = green.random_source_pair(
            g, 2, METRIC, (0.1, 0.35), np.random.default_rng(31), with_harmonic=True
        )
        src2 = green.random_source_pair(
            g, 1, METRIC, (0.15, 0.4), np.random.default_rng(32), with_harmonic=True
        )
        s1 = green.causal(src1, g, METRIC, t_final=0.6)
        s2 = green.causal(src2, g, METRIC, t_final=0.6)
        chi = green.CutoffProfile(0.3, 10 * DT)
        sig = green.presymplectic({2: s1}, {1: s2}, chi, g, METRIC)
        varsigma = green.presymplectic_source_form(src1, src2, g, METRIC, t_final=0.6)
        assert sig == pytest.approx(SIGMA_CAUSAL_TORUS, rel=1e-8)
        assert varsigma == pytest.approx(VARSIGMA_TORUS, rel=1e-8)
        assert abs(sig - varsigma) <= GREEN_DEFECT_TOL * abs(sig)

    def test_agreement_on_box_is_scale_relative(self):
        # the box pairing is degenerate, so both sides sit at the
        # discretization floor; agreement is measured against the solution
        # norms rather than the (vanishing) value
        g = box_grid()
        src1 = green.random_source_pair(g, 2, METRIC, (0.1, 0.35), np.random.default_rng(31))
        src2 = green.random_source_pair(g, 1, METRIC, (0.15, 0.4), np.random.default_rng(32))
        s1 = green.causal(src1, g, METRIC, t_final=0.6)
        s2 = green.causal(src2, g, METRIC, t_final=0.6)
        chi = green.CutoffProfile(0.3, 10 * DT)
        sig = green.presymplectic({2: s1}, {1: s2}, chi, g, METRIC)
        varsigma = green.presymplectic_source_form(src1, src2, g, METRIC, t_final=0.6)
        scale = s1.norm(METRIC) * s2.norm(METRIC)
        assert abs(sig) <= 1e-12 * scale
        assert abs(sig - varsigma) <= GREEN_DEFECT_TOL * scale

    def test_zeta_leg_with_the_bundles_swapped(self):
        # the degree-1 pair meets the degree-2 causal field through its zeta leg only
        g, src2, src1, causal = torus_sources()
        chi = green.CutoffProfile(0.3, 10 * DT)
        sig = green.presymplectic({1: causal[1]}, {2: causal[2]}, chi, g, METRIC)
        varsigma = green.presymplectic_source_form(src1, src2, g, METRIC, t_final=0.6)
        forward = green.presymplectic_source_form(src2, src1, g, METRIC, t_final=0.6)
        assert varsigma == pytest.approx(VARSIGMA_TORUS_SWAPPED, rel=1e-8)
        assert abs(sig - varsigma) <= SOURCE_FORM_AGREEMENT_TOL * abs(sig)
        assert abs(forward + varsigma) <= SOURCE_FORM_AGREEMENT_TOL * abs(forward)

    def test_default_t_final_ends_two_steps_after_the_last_window(self):
        g, src2, src1, _ = torus_sources()
        ends = max(src1.window[1], src2.window[1])
        default = green.presymplectic_source_form(src1, src2, g, METRIC)
        assert default == green.presymplectic_source_form(src1, src2, g, METRIC, t_final=ends + 2 * DT)

    def test_bilinearity_is_exact(self):
        g = torus_grid()
        src1 = green.random_source_pair(
            g, 2, METRIC, (0.1, 0.35), np.random.default_rng(31), with_harmonic=True
        )
        src2 = green.random_source_pair(
            g, 1, METRIC, (0.15, 0.4), np.random.default_rng(32), with_harmonic=True
        )
        v = green.presymplectic_source_form(src1, src2, g, METRIC, t_final=0.6)
        v1 = green.presymplectic_source_form(scaled_pair(src1, 2.0), src2, g, METRIC, t_final=0.6)
        v2 = green.presymplectic_source_form(src1, scaled_pair(src2, 2.0), g, METRIC, t_final=0.6)
        assert v1 == pytest.approx(2.0 * v, rel=EXACT_TOL)
        assert v2 == pytest.approx(2.0 * v, rel=EXACT_TOL)


class TestSmoothing:
    def test_periodic_axes_wrap(self):
        g = torus_grid()
        c = mesh.random_cochain(g, 1, True, np.random.default_rng(0))
        smooth = green._smooth_components(c, green.SMOOTHING_PASSES)
        assert not np.array_equal(smooth.vec, c.vec)
        for s, v in c.comps.items():
            assert abs(smooth.comps[s].sum() - v.sum()) <= 1e-13 * np.abs(v).sum()
        constant = green._constant_cochain(g, 1, True, [0.5, -0.7])
        np.testing.assert_array_equal(green._smooth_components(constant, 3).vec, constant.vec)


class TestDegeneracy:
    def test_forward_check_passes(self):
        _, _, _, report = forward_setup()
        assert report["field_residual"] < GREEN_DEFECT_TOL
        assert report["field_residual"] == pytest.approx(FORWARD_RESIDUAL, rel=PIN_RTOL)
        assert len(report["values"]) == 10
        assert report["max_relative"] < 1e-12

    def test_zero_potential(self):
        g, a, probes, _ = forward_setup()
        zero = green.History(g, 1, a.times, np.zeros_like(a.fe), np.zeros_like(a.fb))
        report = green.degeneracy_forward_check(zero, g, METRIC, probes[:2])
        assert report["field_residual"] == 0.0
        assert report["values"] == [0.0, 0.0]

    def test_solution_gate_trips(self):
        g, a, probes, _ = forward_setup()
        with pytest.raises(ValueError, match="solution tolerance"):
            green.degeneracy_forward_check(a, g, METRIC, probes[:1], solution_tol=1e-12)

    def test_probe_must_cover_field_times(self):
        g, a, _, _ = forward_setup()
        pair = green.random_source_pair(g, 1, METRIC, (0.1, 0.2), np.random.default_rng(100))
        short = green.causal(pair, g, METRIC, t_final=0.3)
        with pytest.raises(ValueError, match="does not cover"):
            green.degeneracy_forward_check(a, g, METRIC, [short])

    def test_falsification_detects_non_exact_content(self):
        # constant modes on the torus are genuine solutions that are not
        # differentials; pairing them against causal fields with permanent
        # constant tails must clear the tolerance the exact fields satisfied
        g = torus_grid()
        chi = green.CutoffProfile(0.3, 10 * DT)
        field = green.random_solution_bundle(g, METRIC, 120, seed=77, degrees=(2,))[2]
        rels = []
        for sd in range(3):
            pair = green.random_source_pair(
                g, 1, METRIC, (0.1, 0.4), np.random.default_rng(200 + sd), with_harmonic=True
            )
            probe = green.causal(pair, g, METRIC, t_final=float(field.times[-1]))
            v = green.presymplectic({1: probe}, {2: field}, chi, g, METRIC)
            rels.append(abs(v) / (probe.norm(METRIC) * field.norm(METRIC)))
        assert max(rels) > GREEN_DEFECT_TOL
        assert max(rels) == pytest.approx(FALSIFICATION_MAX, rel=PIN_RTOL)

    def test_random_potential_degree_range(self):
        g = box_grid()
        with pytest.raises(ValueError, match="range"):
            green.random_potential(g, 1, METRIC, 40)
        with pytest.raises(ValueError, match="range"):
            green.random_potential(g, 3, METRIC, 40)

    def test_history_differential_degree_cap(self):
        g, bundles = torus_bundles()
        with pytest.raises(ValueError, match="degree"):
            green.history_differential(bundles[0][2], METRIC)
