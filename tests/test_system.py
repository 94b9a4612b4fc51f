"""Tests for the split field system, principal symbol, and admissibility.

The sign exponents are audited against ground truth: a random constant
first jet of the field on flat spacetime, whose defect and current are
*defined* through the covariant exterior derivative and codifferential of
the independently tested fiber algebra.  The hand-frozen values below were
derived from the diagonal Hodge weight formula and the fiber eigenstructure.
"""

from math import comb

import numpy as np
import pytest
from scipy.linalg import null_space, subspace_angles

from kmaxwell import evolution, exterior, green, manufactured, mesh, system
from kmaxwell.tolerances import ADMISSIBILITY_TOL, FIBER_MATCH_TOL, LINEARITY_TOL, SYMBOL_SYMMETRY_TOL

RNG_SEED = 771541

SUPPORTED_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]


def box_grid(cells, lengths=None, periodic=None):
    cells = tuple(cells)
    if lengths is None:
        lengths = tuple(float(c) for c in cells)
    return mesh.GridSpec(n=len(cells) + 1, cells_per_axis=cells, lengths=lengths, dt=0.02,
                         periodic=periodic)


class TestSignExponents:
    def test_frozen_exponent_values(self):
        # hand evaluation of the two exponents at n=4, k=2
        assert system.eps_sign(4, 2) == (-1) ** (3 * 3 + 1) == 1
        assert system.source_sign(4, 2) == (-1) ** (2 * 3) == 1

    def test_exponent_parity_identity(self):
        # (n-k+1)(k+1)+1 and k(n-k)+n have equal parity for all pairs
        for n, k in SUPPORTED_PAIRS:
            assert system.eps_sign(n, k) == (-1) ** (k * (n - k) + n)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(1, n)])
    def test_split_system_matches_covariant_equations(self, n, k):
        # defining the current/defect through the covariant derivative and
        # codifferential of a random jet, the four split equations must hold
        assert system.fiber_equivalence_audit(n, k, trials=30, seed=RNG_SEED) < 1e-13

    @pytest.mark.parametrize("k", [0, 3])
    def test_fiber_equivalence_degree_range(self, k):
        with pytest.raises(ValueError, match=rf"field degree {k} out of range \[1, 2\]"):
            system.fiber_equivalence_audit(3, k, trials=1)


class TestFieldState:
    def test_degree_validation(self):
        g = box_grid((4, 4))
        fe = mesh.zero_cochain(g, 1, False)
        fb = mesh.zero_cochain(g, 2, True)
        s = system.FieldState(0.0, fe, fb, 2)
        assert s.grid is g
        with pytest.raises(ValueError, match="expected degrees"):
            system.FieldState(0.0, fe, fb, 1)
        with pytest.raises(ValueError, match="out of range"):
            system.FieldState(0.0, fe, fb, 3)

    def test_family_validation(self):
        g = box_grid((4, 4))
        fe = mesh.zero_cochain(g, 1, True)
        fb = mesh.zero_cochain(g, 1, True)
        with pytest.raises(ValueError, match="primal"):
            system.FieldState(0.0, fe, fb, 2)

    def test_grid_validation(self):
        fe = mesh.zero_cochain(box_grid((4, 4)), 1, False)
        fb = mesh.zero_cochain(box_grid((4, 5)), 2, True)
        with pytest.raises(ValueError, match="fe and fb live on different grids"):
            system.FieldState(0.0, fe, fb, 2)


class TestSplitAssemble:
    def test_purely_spatial_gives_zero_electric(self):
        g = box_grid((4, 5))
        rng = np.random.default_rng(RNG_SEED)
        fb = mesh.random_cochain(g, 2, True, rng)
        s = system.split(mesh.zero_cochain(g, 1, True), fb, 0.0, mesh.unit_metric())
        assert mesh.max_pointwise(s.fe) == 0.0
        np.testing.assert_array_equal(s.fb.comps[(0, 1)], fb.comps[(0, 1)])

    def test_pure_dt_part_inverts_hodge(self):
        g = box_grid((4, 5), lengths=(0.9, 1.7))
        rng = np.random.default_rng(RNG_SEED)
        metric = mesh.MetricField(conf=lambda t: 1.2)
        eta = mesh.random_cochain(g, 1, False, rng)
        s = system.split(
            mesh.hodge_sigma(eta, 0.3, metric), mesh.zero_cochain(g, 2, True), 0.3, metric
        )
        for comp in s.fe.comps:
            np.testing.assert_allclose(s.fe.comps[comp], eta.comps[comp], rtol=1e-14)

    def test_roundtrip(self):
        g = box_grid((4, 4, 4), lengths=(1.0, 1.3, 0.7))
        rng = np.random.default_rng(RNG_SEED)
        metric = mesh.MetricField(conf=lambda t: 0.8)
        s = system.random_state(g, 2, rng, t=0.1)
        dt_part, spatial = system.assemble(s, metric)
        back = system.split(dt_part, spatial, s.t, metric)
        for comp in s.fe.comps:
            np.testing.assert_allclose(back.fe.comps[comp], s.fe.comps[comp], rtol=1e-14)
        for comp in s.fb.comps:
            np.testing.assert_array_equal(back.fb.comps[comp], s.fb.comps[comp])

    def test_degree_mismatch(self):
        g = box_grid((4, 4))
        with pytest.raises(ValueError, match="degree"):
            system.split(
                mesh.zero_cochain(g, 1, True), mesh.zero_cochain(g, 1, True), 0.0, mesh.unit_metric()
            )

    def test_primal_pieces_rejected(self):
        g = box_grid((4, 4))
        with pytest.raises(ValueError, match="spacetime form pieces must be dual-family cochains"):
            system.split(
                mesh.zero_cochain(g, 1, False), mesh.zero_cochain(g, 2, True), 0.0, mesh.unit_metric()
            )


class TestApplyS:
    def test_static_uniform_state_is_stationary(self):
        g = box_grid((4, 4), periodic=(True, True))
        fb = mesh.zero_cochain(g, 2, True)
        fb.comps[(0, 1)][...] = 2.0
        s = system.FieldState(0.0, mesh.zero_cochain(g, 1, False), fb, 2)
        slot_e, slot_b = system.apply_S(s, mesh.unit_metric(), system.zero_state(g, 2))
        assert mesh.max_pointwise(slot_e) == 0.0
        assert mesh.max_pointwise(slot_b) == 0.0

    def test_linearity(self):
        g = box_grid((4, 5), lengths=(1.0, 0.8))
        rng = np.random.default_rng(RNG_SEED)
        metric = mesh.MetricField(
            beta=lambda t, x, y: 1.0 + 0.3 * np.sin(x) * np.cos(y),
            conf=lambda t: 1.1,
        )
        s1 = system.random_state(g, 1, rng)
        s2 = system.random_state(g, 1, rng)
        d1 = system.random_state(g, 1, rng)
        d2 = system.random_state(g, 1, rng)
        a = 1.7
        combo = system.FieldState(0.0, a * s1.fe + s2.fe, a * s1.fb + s2.fb, 1)
        combo_dot = system.FieldState(0.0, a * d1.fe + d2.fe, a * d1.fb + d2.fb, 1)
        le, lb = system.apply_S(combo, metric, combo_dot)
        e1, b1 = system.apply_S(s1, metric, d1)
        e2, b2 = system.apply_S(s2, metric, d2)
        for comp in le.comps:
            np.testing.assert_allclose(
                le.comps[comp], a * e1.comps[comp] + e2.comps[comp],
                rtol=LINEARITY_TOL, atol=LINEARITY_TOL,
            )
        for comp in lb.comps:
            np.testing.assert_allclose(
                lb.comps[comp], a * b1.comps[comp] + b2.comps[comp],
                rtol=LINEARITY_TOL, atol=LINEARITY_TOL,
            )

    def test_lapse_rate_term(self):
        # spatially uniform lapse 2+sin(t): with a static state the electric
        # slot reduces to -beta'(t)/beta(t)^3 * fe
        g = box_grid((4, 4), periodic=(True, True))
        rng = np.random.default_rng(RNG_SEED)
        metric = mesh.MetricField(
            beta=lambda t, *x: 2.0 + np.sin(t) + 0.0 * x[0],
            beta_dt=lambda t, *x: np.cos(t) + 0.0 * x[0],
        )
        t0 = 0.6
        fe = mesh.random_cochain(g, 2, False, rng)
        s = system.FieldState(t0, fe, mesh.zero_cochain(g, 1, True), 1)
        slot_e, _ = system.apply_S(s, metric, system.zero_state(g, 1, t=t0))
        factor = -np.cos(t0) / (2.0 + np.sin(t0)) ** 3
        for comp in slot_e.comps:
            np.testing.assert_allclose(slot_e.comps[comp], factor * fe.comps[comp], rtol=1e-13)

    def test_mismatched_derivative_slot(self):
        g = box_grid((4, 4))
        s = system.zero_state(g, 1)
        with pytest.raises(ValueError, match="mismatched"):
            system.apply_S(s, mesh.unit_metric(), system.zero_state(g, 2))


class TestRhsSources:
    def test_zero_sources(self):
        g = box_grid((4, 4))
        src = system.zero_sources(g, 1)
        slot_e, slot_b = system.rhs_sources(src, 0.0, mesh.unit_metric())
        assert slot_e is None and slot_b is None

    def test_unit_magnetic_current_bump(self):
        # n=3, k=2: a single unit degree of freedom of jb on the extent-(0,)
        # component maps to the extent-(1,) electric slot with weight
        # sign * h1/h0 = -(0.2/0.3) at the same site
        g = box_grid((4, 5), lengths=(1.2, 1.0))
        jb = mesh.zero_cochain(g, 1, True)
        jb.comps[(0,)][2, 1] = 1.0
        src = system.SourceData(grid=g, k=2, window=(0.0, 1.0), jb=lambda t: jb.vec)
        slot_e, slot_b = system.rhs_sources(src, 0.0, mesh.unit_metric())
        slot_e = mesh.layout(g, 1, False).cochain(slot_e)
        expected = np.zeros((5, 5))
        expected[2, 1] = -(0.2 / 0.3)
        np.testing.assert_allclose(slot_e.comps[(1,)], expected, rtol=1e-15)
        np.testing.assert_array_equal(slot_e.comps[(0,)], 0.0)
        assert slot_b is None


def same_bits(a, b):
    """Equal arrays, signed zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


METRIC = mesh.unit_metric()
WELL = mesh.MetricField(beta=lambda t, *x: 1.0 + 0.3 * np.sin(3.0 * x[0]) * np.cos(2.0 * x[-1]))
STATIC_A = mesh.MetricField(conf=lambda t: 1.3)


def batched_matches_scalar(src, metric, times):
    """Batched rhs_sources, family rows and continuity residuals against
    stacked one-time calls, bit for bit; the number of rows compared."""
    times = np.asarray(times, dtype=float)
    compared = 0
    for got, fn in zip(system.rhs_sources(src, times, metric), (0, 1)):
        want = [system.rhs_sources(src, float(t), metric)[fn] for t in times]
        assert (got is None) == (want[0] is None)
        if got is not None:
            assert same_bits(got, np.stack(want))
            compared += len(want)
    for name in ("je", "jb", "ze", "zb", "je_rate", "zb_rate"):
        fn = getattr(src, name)
        if fn is not None:
            assert same_bits(system.family_rows(fn, times), np.stack([fn(float(t)) for t in times]))
    residuals = system.continuity_residuals(src, metric, times)
    for name, got in residuals.items():
        want = [system.continuity_residuals(src, metric, float(t))[name] for t in times]
        assert (got is None) == (want[0] is None)
        if got is not None:
            assert same_bits(got, np.stack(want))
    return compared


class TestBatchedSources:
    """rhs_sources on an array of times equals its one-time rows, bit for bit."""

    @pytest.mark.parametrize(
        "case", ["box-unit-1", "box-unit-2", "box-well-1", "box-well-2", "torus-harmonic-1",
                 "torus-harmonic-2", "box-static_a-2"]
    )
    def test_random_source_pair(self, case):
        domain, lapse, k = case.split("-")
        periodic = (True, True) if domain == "torus" else None
        g = box_grid((12, 10), lengths=(1.0, 1.0), periodic=periodic)
        metric = {"unit": METRIC, "harmonic": METRIC, "well": WELL, "static_a": STATIC_A}[lapse]
        src = green.random_source_pair(
            g, int(k), metric, (0.1, 0.4), np.random.default_rng(RNG_SEED), with_harmonic=domain == "torus"
        )
        # both ramps, the plateau, the window ends and outside it
        times = np.concatenate([np.linspace(0.05, 0.45, 97), [0.1, 0.4, 0.1 + 1e-12, 0.4 - 1e-12]])
        assert batched_matches_scalar(src, metric, times) == 2 * len(times)

    @pytest.mark.parametrize("kind", ["apply_operator", "cutoff_sources"])
    def test_history_interpolants(self, kind):
        g = box_grid((10, 10), lengths=(1.0, 1.0))
        times = g.t0 + 0.01 * np.arange(41)
        h = green.random_compact_history(g, 2, STATIC_A, times, (0.07, 0.33), np.random.default_rng(RNG_SEED))
        if kind == "apply_operator":
            sh = green.apply_operator(h, STATIC_A)
        else:
            sh = green.cutoff_sources(h, green.CutoffProfile(0.2, 0.08), STATIC_A)
        dt = sh.dt
        ends = [sh.times[0], sh.times[-1], *sh.window]
        near = [e + s * dt for e in ends for s in (-2e-9, -1e-9, -0.5e-9, 0.0, 0.5e-9, 1e-9, 2e-9)]
        inside = np.random.default_rng(RNG_SEED).uniform(sh.times[0], sh.times[-1], 20)
        outside = [sh.times[0] - dt, sh.times[-1] + 3.5 * dt]
        # the stage times of a march backwards over the history
        stages = [s for t in sh.times[::-1] for s in evolution._stage_times(float(t), -dt)]
        times = np.array(ends + near + list(inside) + outside + stages)
        assert batched_matches_scalar(sh.data(), STATIC_A, times) == 2 * len(times)
        zero = system.rhs_sources(sh.data(), np.array(outside), STATIC_A)
        assert not any(np.any(rows) for rows in zero)

    def test_interpolant_matches_the_one_time_formula(self):
        # the row interpolant against its one-time formula, written out here:
        # zero outside, clamped inside, signed zeros included (t = -0.0)
        def one_time(times, rows, t):
            t0, dt, last = float(times[0]), float(times[1] - times[0]), len(times) - 1
            x = (float(t) - t0) / dt
            if x <= -1e-9 or x >= last + 1e-9:
                return np.zeros(rows.shape[1])
            x = min(max(x, 0.0), float(last))
            i = min(int(x), last - 1)
            u = x - i
            return (1.0 - u) * rows[i] + u * rows[i + 1]

        g = box_grid((6, 5), lengths=(1.0, 1.0))
        times = 0.1 * np.arange(6)
        rows = np.random.default_rng(RNG_SEED).standard_normal((6, mesh.cochain_size(g, 1, True)))
        rows[0, ::3], rows[0, 1::3] = 0.0, -0.0
        fn = green.SourceHistory(g, 2, times, (0.0, 0.5), None, rows, None, None).data().jb
        # dt = 0.1: 1e-10 is the 1e-9-slice tolerance at either end
        probe = [-0.0, 0.0, 0.5, 0.25, 0.3, -0.1, 0.6, 0.5 + 5e-11, -5e-11, 0.5 + 1e-10, -1e-10, 0.5 + 2e-10, -2e-10]
        want = np.stack([one_time(times, rows, t) for t in probe])
        assert same_bits(fn(np.array(probe)), want)
        assert all(same_bits(fn(t), row) for t, row in zip(probe, want))
        assert np.all(np.any(want[7:9], axis=1)) and not np.any(want[5:7]) and not np.any(want[-2:])

    def test_scalar_only_families_are_stacked(self):
        # an unmarked family is called once per time, with a float
        g = box_grid((6, 5), lengths=(1.0, 1.0))
        row = np.random.default_rng(RNG_SEED).standard_normal(mesh.cochain_size(g, 1, True))
        seen = []

        def jb(t):
            seen.append(type(t))
            return np.sin(t) * row

        src = system.SourceData(grid=g, k=2, window=(0.0, 1.0), jb=jb)
        times = np.linspace(0.0, 1.0, 7)
        assert batched_matches_scalar(src, STATIC_A, times) == len(times)
        assert set(seen) == {float}

    @pytest.mark.parametrize("k", [1, 2])
    def test_manufactured_family(self, k):
        family = manufactured.trig_family(k)
        g = mesh.GridSpec(n=3, cells_per_axis=(8, 8), lengths=family.lengths, dt=0.01)
        src = family.sources(g)
        assert not getattr(src.jb, "vectorized", False)
        times = np.array([0.0, 0.13, 0.13 + 0.005, 0.41])
        assert batched_matches_scalar(src, family.metric, times) == 2 * len(times)


class TestContinuityResiduals:
    def test_charge_rate_includes_the_lapse_rate(self):
        # je = sin(t) * beta * c: the analytic rate, with its -je*beta_dt/beta^2
        # term, must match a finite difference of je/beta
        g = box_grid((6, 5), lengths=(1.0, 1.0))
        metric = mesh.MetricField(
            beta=lambda t, *x: 1.0 + 0.3 * t * x[0], beta_dt=lambda t, *x: 0.3 * x[0]
        )
        lay = mesh.layout(g, 2, False)
        c = np.random.default_rng(RNG_SEED).standard_normal(lay.size)
        je = lambda t: np.sin(t) * mesh.sample_flat(lay, metric.beta, t) * c
        je_rate = lambda t: (
            np.cos(t) * mesh.sample_flat(lay, metric.beta, t) + np.sin(t) * mesh.sample_flat(lay, metric.beta_dt, t)
        ) * c
        exact = system.SourceData(grid=g, k=2, window=(0.0, 1.0), je=je, je_rate=je_rate)
        sampled = system.SourceData(grid=g, k=2, window=(0.0, 1.0), je=je)
        for t in (0.3, 0.7):
            want = system.continuity_residuals(sampled, metric, t)["charge"]
            got = system.continuity_residuals(exact, metric, t)["charge"]
            # (-1)^(n-k) d/dt(je/beta) with n = 3, k = 2, and no jb
            np.testing.assert_allclose(got, -np.cos(t) * c, rtol=1e-12)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


class TestConstraintResiduals:
    def test_exact_coboundary_data_is_constraint_free(self):
        g = box_grid((6, 6))
        rng = np.random.default_rng(RNG_SEED)
        potential = mesh.random_cochain(g, 0, True, rng)
        fb = mesh.d_sigma(potential)
        s = system.FieldState(0.0, mesh.zero_cochain(g, 2, False), fb, 1)
        r_e, r_b, r_bdy = system.constraint_residuals(s, system.zero_sources(g, 1), mesh.unit_metric())
        assert r_e is None  # k = 1: electric component has top degree
        assert r_bdy is None  # ... so its tangential trace is vacuous too
        assert mesh.max_pointwise(r_b) < 1e-13

    def test_boundary_traces_present_for_higher_degree(self):
        g = box_grid((4, 4, 4))
        rng = np.random.default_rng(RNG_SEED)
        s = system.random_state(g, 2, rng)
        _, _, r_bdy = system.constraint_residuals(s, system.zero_sources(g, 2), mesh.unit_metric())
        assert set(r_bdy) == set(mesh.faces(g))
        for face, c in r_bdy.items():
            assert c.degree == 2 and not c.dual
            assert mesh.max_pointwise(c) > 0.0

    def test_magnetic_residual_matches_hand_stencil(self):
        # independent bookkeeping for the dual-family coboundary, n=3, k=1
        g = box_grid((4, 5), lengths=(1.0, 1.0))
        rng = np.random.default_rng(RNG_SEED)
        fb = mesh.random_cochain(g, 1, True, rng)
        s = system.FieldState(0.0, mesh.zero_cochain(g, 2, False), fb, 1)
        _, r_b, _ = system.constraint_residuals(s, system.zero_sources(g, 1), mesh.unit_metric())
        f0, f1 = fb.comps[(0,)], fb.comps[(1,)]
        want = np.zeros((5, 6))
        want[1:-1, :] += f1[1:, :] - f1[:-1, :]        # axis-0 differences of the axis-1 leg
        want[:, 1:-1] -= f0[:, 1:] - f0[:, :-1]        # axis-1 differences of the axis-0 leg
        np.testing.assert_allclose(r_b.comps[(0, 1)], want, rtol=1e-15, atol=0)

    def test_degree_edges_give_none(self):
        g3 = box_grid((4, 4))
        r_e, r_b, r_bdy = system.constraint_residuals(
            system.zero_state(g3, 2), system.zero_sources(g3, 2), mesh.unit_metric()
        )
        assert r_e is not None and r_b is None and r_bdy is not None
        g2 = box_grid((4,))
        r_e, r_b, r_bdy = system.constraint_residuals(
            system.zero_state(g2, 1), system.zero_sources(g2, 1), mesh.unit_metric()
        )
        assert r_e is None and r_b is None and r_bdy is None

    def test_electric_residual_sign(self):
        # fe sampled from an exact coboundary with je := sign * d fe must
        # cancel: r_E = d(fe) - (-1)^(n-k) je = 0 at beta = 1
        g = box_grid((5, 5, 4))
        rng = np.random.default_rng(RNG_SEED)
        fe = mesh.d_sigma(mesh.random_cochain(g, 0, False, rng))
        n, k = 4, 3
        je_val = ((-1) ** (n - k)) * mesh.d_sigma(fe)
        s = system.FieldState(0.0, fe, mesh.zero_cochain(g, 3, True), k)
        src = system.SourceData(grid=g, k=k, window=(0.0, 1.0), je=lambda t: je_val.vec)
        r_e, _, _ = system.constraint_residuals(s, src, mesh.unit_metric())
        assert mesh.max_pointwise(r_e) < 1e-13


CROSS_PATH_METRICS = {
    "unit": mesh.unit_metric(),
    "well_expanding": mesh.MetricField(
        beta=lambda t, *x: 1.0 + 0.3 * np.sin(3.0 * x[0]) * np.cos(2.0 * x[-1]),
        conf=lambda t: 1.0 + 0.1 * t,
    ),
    "time_dependent": mesh.MetricField(
        beta=lambda t, *x: 1.5 + 0.2 * np.sin(t) * np.cos(3.0 * x[0]),
        beta_dt=lambda t, *x: 0.2 * np.cos(t) * np.cos(3.0 * x[0]),
    ),
}


class TestOneSplitOperator:
    @pytest.mark.parametrize("name", sorted(CROSS_PATH_METRICS))
    @pytest.mark.parametrize("cells", [(5, 4), (4, 5, 4)], ids=["n3", "n4"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_generator_apply_s_and_closedness_agree(self, name, cells, k):
        # the march's right-hand side solves apply_S's slots (zero sources)
        # for the time derivative, and validate_problem's closedness checks
        # measure the source-free constraint residuals
        metric = CROSS_PATH_METRICS[name]
        g = box_grid(cells, lengths=(1.0,) * len(cells))
        t = 0.37
        src = system.zero_sources(g, k)
        gen = evolution.Generator(g, k, metric, src, "project_B", t)
        y = np.random.default_rng(RNG_SEED).standard_normal(gen.nw + gen.lb.size)
        y_dot = gen.rhs(t, y)
        s = gen.state(t, y)
        w, w_dot = y[: gen.nw], y_dot[: gen.nw]
        fe_dot = mesh.sample_flat(gen.lw, metric.beta, t) * w_dot
        if metric.beta_dt is not None:
            fe_dot = fe_dot + mesh.sample_flat(gen.lw, metric.beta_dt, t) * w
        s_dot = system.FieldState(t, gen.lw.cochain(fe_dot), gen.lb.cochain(y_dot[gen.nw :]), k)
        slot_e, slot_b = system.apply_S(s, metric, s_dot)
        scale = max(np.abs(y).max(), np.abs(y_dot).max())
        assert np.abs(slot_e.vec).max() < 1e-12 * scale
        assert np.abs(slot_b.vec).max() < 1e-12 * scale

        r_e, r_b, _ = system.constraint_residuals(s, src, metric)
        checks = {c.name: c.measure for c in evolution.validate_problem(s, src, g, metric).checks}
        for key, r in (("closed_fe", r_e), ("closed_fb", r_b)):
            assert checks[key] == (mesh.norm_sigma(r, t, metric) if r is not None else 0.0)
        assert checks["closed_fe"] > 0.0 or r_e is None
        assert checks["closed_fb"] > 0.0 or r_b is None


    @pytest.mark.parametrize("periodic", [False, True], ids=["box", "torus"])
    @pytest.mark.parametrize("cells", [(5, 4), (4, 5, 4)], ids=["n3", "n4"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_curls_are_d_of_the_weighted_hodge_duals(self, periodic, cells, k):
        # bit for bit, on one row and on stacked rows with one lapse and a(t)
        # per row: the curl program shares one Hodge buffer and one
        # difference scratch between its two curls
        g = box_grid(cells, lengths=(1.0,) * len(cells), periodic=(periodic,) * len(cells))
        lw, lb = mesh.layout(g, g.n - k, False), mesh.layout(g, k, True)
        rng = np.random.default_rng(RNG_SEED + k)
        w, fb = rng.standard_normal((3, lw.size)), rng.standard_normal((3, lb.size))
        w[:, ::4], fb[:, 1::4] = 0.0, -0.0
        beta_w, beta_b = 1.0 + rng.random((3, lw.size)), 1.0 + rng.random((3, lb.size))
        conf = np.array([1.0, 1.2, 0.9])
        for rows in (slice(None), 1):
            curl_b, curl_e = system.curls(lw, lb, w[rows], fb[rows], beta_w[rows], beta_b[rows], conf[rows])
            lh_b, lh_e = mesh.layout(g, g.dim - k, False), mesh.layout(g, k - 1, True)
            want_b = mesh.d_flat(lh_b, mesh.hodge_flat(lb, beta_b[rows] * fb[rows], conf[rows]))
            want_e = mesh.d_flat(lh_e, mesh.hodge_flat(lw, beta_w[rows] * w[rows], conf[rows]))
            assert np.array_equal(curl_b.view(np.uint64), want_b.view(np.uint64))
            assert np.array_equal(curl_e.view(np.uint64), want_e.view(np.uint64))


class TestPrincipalSymbol:
    def test_dt_covector_gives_identity_blocks(self):
        sig = system.symbol_matrix(1.0, np.zeros(3), 1.0, 1.0, 4, 2)
        np.testing.assert_array_equal(sig, np.eye(6))

    def test_lapse_weights_electric_block(self):
        sig = system.symbol_matrix(1.0, np.zeros(2), 2.0, 1.0, 3, 1)
        np.testing.assert_array_equal(sig, np.diag([0.25, 1.0, 1.0]))

    @pytest.mark.parametrize("n,k", SUPPORTED_PAIRS)
    def test_principal_symbol_samples_the_metric(self, n, k):
        metric = mesh.MetricField(
            beta=lambda t, *x: 1.3 + 0.2 * np.sin(x[0] + t), conf=lambda t: 1.7 + 0.1 * t
        )
        rng = np.random.default_rng(RNG_SEED + 10 * n + k)
        xi, x, t = rng.standard_normal(n), tuple(rng.uniform(0.0, 1.0, n - 1)), 0.37
        want = system.symbol_matrix(xi[0], xi[1:], metric.beta(t, *x), metric.conf(t), n, k)
        got = system.principal_symbol(xi, t, x, metric, n, k)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_covector_length_checked(self):
        with pytest.raises(ValueError, match="components"):
            system.principal_symbol(np.ones(3), 0.0, (0.5, 0.5, 0.5), mesh.unit_metric(), 4, 2)

    @pytest.mark.parametrize("n,k", SUPPORTED_PAIRS)
    def test_symmetry_defect(self, n, k):
        rng = np.random.default_rng(RNG_SEED + n * 10 + k)
        for _ in range(100):
            sig = system.symbol_matrix(
                rng.standard_normal(), rng.standard_normal(n - 1),
                rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), n, k,
            )
            assert np.max(np.abs(sig - sig.T)) < 1e-13

    def test_spacelike_unit_eigenvalues_frozen(self):
        rng = np.random.default_rng(RNG_SEED)
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        sig = system.symbol_matrix(0.0, xi, 1.0, 1.0, 4, 2)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(sig)), [-1.0, -1.0, 0.0, 0.0, 1.0, 1.0], atol=1e-12
        )

    @pytest.mark.parametrize("n,k", SUPPORTED_PAIRS)
    def test_conormal_eigenstructure_counts(self, n, k):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            xi = rng.standard_normal(n - 1)
            xi /= np.linalg.norm(xi)
            conf = rng.uniform(0.5, 2.0)
            sig = system.symbol_matrix(0.0, conf * xi, rng.uniform(0.5, 2.0), conf, n, k)
            kernel, plus, minus = system.classify_eigenvalues(np.linalg.eigvalsh(sig))
            assert kernel == comb(n - 2, n - k) + comb(n - 2, k)
            assert plus == minus == comb(n - 2, k - 1)
            assert kernel + plus + minus == comb(n - 1, n - k) + comb(n - 1, k)

    @pytest.mark.parametrize("n,k", SUPPORTED_PAIRS)
    def test_timelike_future_positive_definite(self, n, k):
        rng = np.random.default_rng(RNG_SEED + k)
        for _ in range(100):
            xi0 = rng.uniform(0.1, 2.0)
            beta = rng.uniform(0.5, 2.0)
            conf = rng.uniform(0.5, 2.0)
            direction = rng.standard_normal(n - 1)
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(0.0, 0.99) * xi0 / beta
            sig = system.symbol_matrix(xi0, conf * radius * direction, beta, conf, n, k)
            assert np.min(np.linalg.eigvalsh(sig)) > 0.0


AUDIT_METRIC = mesh.MetricField(
    beta=lambda t, *x: 1.3 + 0.2 * float(np.sin(x[0] + t)), conf=lambda t: 1.7
)


def symbol_audit_reference(n, k, trials, rng, metric):
    """The symbol audit's measures as a loop of one-point symbols and one-matrix ``eigvalsh`` calls."""
    symmetry, min_eig, mismatches = 0.0, np.inf, 0
    for _ in range(trials):
        sig = system.symbol_matrix(
            rng.standard_normal(), rng.standard_normal(n - 1),
            rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), n, k,
        )
        symmetry = max(symmetry, float(np.max(np.abs(sig - sig.T))))
        xi0 = rng.uniform(0.1, 2.0)
        beta = rng.uniform(0.5, 2.0)
        conf = rng.uniform(0.5, 2.0)
        direction = rng.standard_normal(n - 1)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(0.0, 0.99) * xi0 / beta
        timelike = system.symbol_matrix(xi0, conf * radius * direction, beta, conf, n, k)
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(timelike))))
        conormal = system.symbol_matrix(0.0, conf * direction, beta, conf, n, k)
        counts = system.classify_eigenvalues(np.linalg.eigvalsh(conormal))
        if counts != (comb(n - 2, n - k) + comb(n - 2, k), comb(n - 2, k - 1), comb(n - 2, k - 1)):
            mismatches += 1
    worst, passed = 0.0, True
    for axis in range(n - 1):
        for side in (0, 1):
            for _ in range(3):
                point = tuple(rng.uniform(0.0, 1.0, n - 1))
                t = rng.uniform(0.0, 2.0)
                report = system.admissibility_audit(mesh.Face(axis, side), t, point, metric, n, k)
                passed = passed and report.passed()
                worst = max(worst, max(c.measure for c in report.admissibility))
    return [symmetry, min_eig, float(mismatches), worst], passed


class TestBatchedSymbols:
    @pytest.mark.parametrize("n,k", SUPPORTED_PAIRS)
    def test_stacked_symbols_match_one_point_calls(self, n, k):
        rng = np.random.default_rng(RNG_SEED + 10 * n + k)
        rows = 40
        xi0 = rng.standard_normal(rows)
        xi = rng.standard_normal((rows, n - 1))
        beta = rng.uniform(0.5, 2.0, rows)
        beta[0] = 1.8903560604397107  # beta**2 as a float rounds unlike the array square here
        conf = rng.uniform(0.5, 2.0, rows)
        stack = system.symbol_matrix(xi0, xi, beta, conf, n, k)
        one_point = [
            system.symbol_matrix(float(a), x, float(b), float(c), n, k)
            for a, x, b, c in zip(xi0, xi, beta, conf)
        ]
        assert same_bits(stack, np.stack(one_point))
        # the electric block is xi0 / beta**2 in Python floats, as the one-point symbol always was
        lapse_weighted = np.array([a / b**2 for a, b in zip(xi0.tolist(), beta.tolist())])
        assert same_bits(stack[:, 0, 0], lapse_weighted)
        conormal = system.symbol_matrix(0.0, xi, beta, conf, n, k)
        assert same_bits(conormal[0], system.symbol_matrix(0.0, xi[0], float(beta[0]), float(conf[0]), n, k))

    @pytest.mark.parametrize("n,k", SUPPORTED_PAIRS)
    def test_symbol_audit_matches_the_one_point_loop(self, n, k):
        trials = system._SYMBOL_BLOCK + 10
        checks = system.symbol_audit(n, k, trials, np.random.default_rng(n + k), AUDIT_METRIC)
        measures, admissible = symbol_audit_reference(
            n, k, trials, np.random.default_rng(n + k), AUDIT_METRIC
        )
        assert [c.measure for c in checks] == measures
        symmetric, positive, counted = measures[0] < SYMBOL_SYMMETRY_TOL, measures[1] > 0.0, measures[2] == 0.0
        assert [c.passed for c in checks] == [symmetric, positive, counted, admissible]
        assert all(c.passed for c in checks)

    def test_classify_counts_along_the_last_axis(self):
        eigs = np.array([[-1.0, 0.0, 1e-12, 2.0], [-3.0, -2.0, 0.5, 1.0]])
        assert [c.tolist() for c in system.classify_eigenvalues(eigs)] == [[2, 0], [1, 2], [1, 2]]
        assert system.classify_eigenvalues(eigs[0]) == (2, 1, 1)


class TestAdmissibility:
    def test_boundary_rank_identity(self):
        # the flux-free basis dimension matches C(n-1,k-1)+C(n-2,k)
        for n, k in SUPPORTED_PAIRS:
            for axis in range(n - 1):
                basis = system.boundary_basis(n, k, axis)
                assert basis.shape[1] == system.boundary_rank(n, k)
                assert basis.shape[1] == comb(n - 1, k - 1) + comb(n - 2, k)

    def test_frozen_rank_example(self):
        assert system.boundary_rank(4, 2) == comb(3, 1) + comb(2, 2) == 4

    @pytest.mark.parametrize("n,k", SUPPORTED_PAIRS)
    def test_all_faces_pass(self, n, k):
        metric = mesh.MetricField(
            beta=lambda t, *x: 1.3 + 0.2 * np.sin(x[0] + t), conf=lambda t: 1.7
        )
        rng = np.random.default_rng(RNG_SEED)
        for axis in range(n - 1):
            for side in (0, 1):
                x = tuple(rng.uniform(0.0, 1.0, n - 1))
                rep = system.admissibility_audit(
                    mesh.Face(axis, side), 0.4, x, metric, n, k, tol=ADMISSIBILITY_TOL
                )
                assert rep.passed(), rep.admissibility
                assert rep.symmetry_defect < 1e-13
                total = rep.kernel_dim + rep.plus_dim + rep.minus_dim
                assert total == comb(n - 1, n - k) + comb(n - 1, k)

    def test_nonnegative_count_example(self):
        rep = system.admissibility_audit(
            mesh.Face(0, 1), 0.0, (0.5, 0.5, 0.5), mesh.unit_metric(), 4, 2
        )
        assert rep.plus_dim + rep.kernel_dim == 4
        assert rep.plus_dim == 2 and rep.kernel_dim == 2

    @pytest.mark.parametrize("rank", range(2, 8))
    def test_complement_angle_matches_scipy(self, rank):
        # arcsin amplifies an error of the largest sine by 1/cos(theta), so the
        # bound is 64 eps in |theta - theta_scipy| * cos(theta_scipy); over
        # 20,000 random subspaces of rank 2-7 the largest reading was 6 eps
        rng = np.random.default_rng(RNG_SEED + rank)
        dim = 2 * rank
        for trial in range(40):
            basis = np.linalg.qr(rng.standard_normal((dim, rank)))[0]
            image = rng.standard_normal((dim, rank))
            if trial % 2:  # near the admissible case: image close to the complement of the basis
                scale = 10.0 ** rng.uniform(-14.0, -2.0)
                image = null_space(basis.T) @ image[:rank] + scale * rng.standard_normal((dim, rank))
            angle = system._complement_angle(basis, image)
            reference = float(np.max(subspace_angles(basis, null_space(image.T))))
            assert abs(angle - reference) * np.cos(reference) <= 64 * np.finfo(float).eps, (trial, angle, reference)

    @pytest.mark.parametrize("rank", range(2, 8))
    def test_complement_of_another_dimension_reads_a_right_angle(self, rank):
        rng = np.random.default_rng(RNG_SEED + rank)
        for dim, image_rank in ((2 * rank + 1, rank), (2 * rank, rank - 1), (2 * rank - 1, rank)):
            basis = np.linalg.qr(rng.standard_normal((dim, rank)))[0]
            image = rng.standard_normal((dim, image_rank)) @ rng.standard_normal((image_rank, rank))
            assert null_space(image.T).shape[1] != rank
            assert system._complement_angle(basis, image) == np.pi / 2

    @pytest.mark.parametrize("n,k", SUPPORTED_PAIRS)
    def test_a_flux_carrying_column_fails_the_audit(self, n, k, monkeypatch):
        flux_free = system.boundary_basis

        def with_flux(n, k, axis):
            # add the first magnetic direction with a leg along the face normal
            basis = flux_free(n, k, axis)
            de = comb(n - 1, n - k)
            i = next(i for i, s in enumerate(exterior.basis_tuples(n - 1, k)) if axis in s)
            column = np.zeros((basis.shape[0], 1))
            column[de + i] = 1.0
            return np.hstack([basis, column])

        monkeypatch.setattr(system, "boundary_basis", with_flux)
        for axis in range(n - 1):
            for side in (0, 1):
                rep = system.admissibility_audit(mesh.Face(axis, side), 0.4, (0.3,) * (n - 1), AUDIT_METRIC, n, k)
                form, _, angle = rep.admissibility
                assert not (form.passed and angle.passed), rep.admissibility
        checks = system.symbol_audit(n, k, 2, np.random.default_rng(n + k), AUDIT_METRIC)
        assert checks[3].name == f"symbol_admissibility_n{n}k{k}" and not checks[3].passed

    def test_report_serializes(self):
        import json

        rep = system.admissibility_audit(
            mesh.Face(1, 0), 0.1, (0.2, 0.9), mesh.unit_metric(), 3, 2
        )
        text = json.dumps(rep.to_dict())
        assert "eigenvalues" in text


class TestSplitSystemResiduals:
    def test_zero_state_zero_residuals(self):
        g = box_grid((4, 4))
        s = system.zero_state(g, 1)
        res = system.split_system_residuals(s, system.zero_state(g, 1), system.zero_sources(g, 1), mesh.unit_metric())
        assert res == {"evo_e": 0.0, "evo_b": 0.0, "div_e": 0.0, "div_b": 0.0, "bdy": 0.0}
