"""Tests for the staggered cubical cochain complex.

Oracles:
  * coboundary signs: Green's theorem — on sampled exact edge integrals the
    degree-2 output must equal the hand-computed circulation of each cell;
  * Hodge weights: cross-validation against the independently tested fiber
    algebra (constant cochains are single fibers);
  * incidence examples and boundary slices: frozen by hand below;
  * summation by parts and face duality: the codifferential, normal
    contraction and boundary pairing defined below, next to their tests.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmaxwell import exterior, mesh
from kmaxwell.tolerances import FIBER_MATCH_TOL, SBP_TOL

RNG_SEED = 481207
ROUNDING_TOL = 1e-13


def cochain_of(g, degree, dual, comps):
    """A cochain with the given component arrays, the rest zero."""
    c = mesh.zero_cochain(g, degree, dual)
    for s, arr in comps.items():
        c.comps[s][...] = arr
    return c


def box_grid(cells, lengths=None, periodic=None, dt=0.05):
    cells = tuple(cells)
    if lengths is None:
        lengths = tuple(float(c) for c in cells)
    return mesh.GridSpec(
        n=len(cells) + 1, cells_per_axis=cells, lengths=lengths, dt=dt, periodic=periodic
    )


@st.composite
def grids(draw):
    """Valid grids with 1 to 3 spatial axes of 4 to 7 cells."""
    m = draw(st.integers(1, 3))
    axes = lambda strategy: st.lists(strategy, min_size=m, max_size=m).map(tuple)
    return mesh.GridSpec(
        n=m + 1,
        cells_per_axis=draw(axes(st.integers(4, 7))),
        lengths=draw(axes(st.floats(0.1, 10.0))),
        dt=draw(st.floats(1e-4, 1.0)),
        t0=draw(st.floats(-1.0, 1.0)),
        periodic=draw(axes(st.booleans())),
    )


NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
NOT_POSITIVE_FINITE = st.one_of(st.floats(max_value=0.0), NON_FINITE)


class TestGridSpec:
    def test_spacings_and_dim(self):
        g = box_grid((4, 8), lengths=(1.0, 2.0))
        assert g.dim == 2
        np.testing.assert_allclose(g.spacings, (0.25, 0.25))

    def test_n_out_of_range(self):
        with pytest.raises(ValueError, match=r"n out of supported range \[2,5\]"):
            mesh.GridSpec(n=7, cells_per_axis=(4,) * 6, lengths=(1.0,) * 6, dt=0.1)
        with pytest.raises(ValueError, match=r"n out of supported range \[2,5\]"):
            mesh.GridSpec(n=1, cells_per_axis=(), lengths=(), dt=0.1)

    def test_bad_axis_counts(self):
        with pytest.raises(ValueError, match="spatial axes"):
            mesh.GridSpec(n=3, cells_per_axis=(4,), lengths=(1.0, 1.0), dt=0.1)

    def test_too_few_cells(self):
        with pytest.raises(ValueError, match="at least 4 cells"):
            box_grid((4, 3))

    def test_bad_dt_and_lengths(self):
        with pytest.raises(ValueError, match="dt"):
            box_grid((4, 4), dt=0.0)
        with pytest.raises(ValueError, match="positive"):
            box_grid((4, 4), lengths=(1.0, -1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lengths_and_dt(self, bad):
        with pytest.raises(ValueError, match="finite"):
            box_grid((4, 4), lengths=(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            box_grid((4, 4), dt=bad)

    def test_compatible_ignores_time_step_but_not_periodicity(self):
        g = box_grid((4, 6))
        assert g.compatible(box_grid((4, 6), dt=0.01))
        assert not g.compatible(box_grid((4, 6), periodic=(True, False)))
        assert not g.compatible(box_grid((4, 5)))

    def test_bad_periodic_flags(self):
        with pytest.raises(ValueError, match="periodic"):
            box_grid((4, 4), periodic=(True,))

    @seed(RNG_SEED)
    @settings(max_examples=50, deadline=None)
    @given(
        grid=grids(),
        bad=NOT_POSITIVE_FINITE,
        non_finite=NON_FINITE,
        axis=st.integers(0, 2),
        field=st.sampled_from(["lengths", "dt", "t0"]),
    )
    def test_rejects_non_positive_or_non_finite_lengths_and_dt(self, grid, bad, non_finite, axis, field):
        # any finite t0 is valid, so t0 draws from the non-finite values only
        if field == "t0":
            change = {"t0": non_finite}
        elif field == "dt":
            change = {"dt": bad}
        else:
            lengths = list(grid.lengths)
            lengths[axis % grid.dim] = bad
            change = {"lengths": tuple(lengths)}
        with pytest.raises(ValueError):
            dataclasses.replace(grid, **change)

    @seed(RNG_SEED)
    @settings(max_examples=50, deadline=None)
    @given(grid=grids(), few=st.integers(-2, 3), axis=st.integers(0, 2))
    def test_rejects_fewer_than_four_cells(self, grid, few, axis):
        cells = list(grid.cells_per_axis)
        cells[axis % grid.dim] = few
        with pytest.raises(ValueError):
            dataclasses.replace(grid, cells_per_axis=tuple(cells))

    @seed(RNG_SEED)
    @settings(max_examples=50, deadline=None)
    @given(a=grids(), b=grids(), dt=st.floats(1e-4, 1.0), t0=st.floats(-1.0, 1.0))
    def test_compatible_is_reflexive_symmetric_and_ignores_time(self, a, b, dt, t0):
        retimed = dataclasses.replace(a, dt=dt, t0=t0)
        assert a.compatible(a)
        assert a.compatible(retimed) and retimed.compatible(a)
        assert a.compatible(b) == b.compatible(a)
        assert a.compatible(b) == retimed.compatible(b)


class TestCochainBasics:
    def test_component_shapes_primal_vs_dual(self):
        g = box_grid((4, 6))
        # primal: centers along extent axes, nodes along the rest
        assert mesh.component_shape(g, (0,), dual=False) == (4, 7)
        assert mesh.component_shape(g, (1,), dual=False) == (5, 6)
        # dual: reversed staggering
        assert mesh.component_shape(g, (0,), dual=True) == (5, 6)
        assert mesh.component_shape(g, (0, 1), dual=True) == (5, 7)

    def test_periodic_axes_have_no_face_nodes(self):
        g = box_grid((4, 6), periodic=(True, False))
        assert mesh.component_shape(g, (1,), dual=False) == (4, 6)
        assert mesh.component_shape(g, (0,), dual=True) == (4, 6)

    def test_length_validation(self):
        g = box_grid((4, 4))
        lay = mesh.layout(g, 1, False)
        assert lay.size == 40
        for bad in (np.zeros(39), np.zeros(41), np.zeros((1, 40))):
            with pytest.raises(ValueError, match="does not match cochain size"):
                lay.cochain(bad)

    def test_degree_range(self):
        g = box_grid((4, 4))
        with pytest.raises(ValueError, match="degree"):
            mesh.zero_cochain(g, 3, False)

    def test_arithmetic(self):
        g = box_grid((4, 4))
        rng = np.random.default_rng(RNG_SEED)
        a = mesh.random_cochain(g, 1, False, rng)
        b = mesh.random_cochain(g, 1, False, rng)
        c = 2.0 * a + b - a
        np.testing.assert_allclose(c.comps[(0,)], a.comps[(0,)] + b.comps[(0,)])
        d = -a
        np.testing.assert_allclose((a + d).comps[(1,)], 0.0, atol=0.0)

    def test_arithmetic_mismatch(self):
        g = box_grid((4, 4))
        rng = np.random.default_rng(RNG_SEED)
        a = mesh.random_cochain(g, 1, False, rng)
        b = mesh.random_cochain(g, 1, True, rng)
        with pytest.raises(ValueError, match="different spaces"):
            _ = a + b

    def test_vec_roundtrip(self):
        g = box_grid((4, 5))
        rng = np.random.default_rng(RNG_SEED)
        c = mesh.random_cochain(g, 1, True, rng)
        back = mesh.layout(g, 1, True).cochain(c.vec.copy())
        for s in mesh.subsets(g, 1):
            np.testing.assert_array_equal(back.comps[s], c.comps[s])
        # components are views: writing one writes the vector
        back.comps[(1,)][0, 0] = 42.0
        assert back.vec[mesh.layout(g, 1, True).offsets[1]] == 42.0

    def test_components_cannot_be_rebound(self):
        g = box_grid((4, 4))
        c = mesh.zero_cochain(g, 1, False)
        with pytest.raises(TypeError):
            c.comps[(0,)] = np.ones(c.comps[(0,)].shape)
        with pytest.raises(AttributeError):
            c.vec = np.ones(c.vec.size)
        np.testing.assert_array_equal(c.vec, 0.0)

    @pytest.mark.parametrize(
        "adapter",
        [
            mesh.d_sigma,
            lambda c: mesh.hodge_sigma(c, 0.3, mesh.MetricField(conf=lambda t: 1.5)),
            lambda c: mesh.multiply_scalar(c, lambda t, *x: 2.0 + x[0], 0.3),
            mesh.project_normal_flux,
        ],
        ids=["d_sigma", "hodge_sigma", "multiply_scalar", "project_normal_flux"],
    )
    def test_adapters_leave_their_input_unchanged(self, adapter):
        g = box_grid((4, 5, 4))
        rng = np.random.default_rng(RNG_SEED)
        c = mesh.random_cochain(g, 1, True, rng)
        before = c.vec.tobytes()
        out = adapter(c)
        assert c.vec.tobytes() == before
        assert not np.shares_memory(out.vec, c.vec)


@seed(RNG_SEED)
@settings(max_examples=50, deadline=None)
@given(grid=grids(), dual=st.booleans(), data=st.data())
def test_component_views_concatenate_to_the_vector(grid, dual, data):
    lay = mesh.layout(grid, data.draw(st.integers(0, grid.dim)), dual)
    v = data.draw(arrays(np.float64, lay.size))
    c = lay.cochain(v)
    assert c.vec is v
    assert tuple(c.comps) == lay.subsets
    views = [c.comps[s] for s in lay.subsets]
    assert all(np.shares_memory(view, v) for view in views if view.size)
    assert np.concatenate([view.ravel() for view in views]).tobytes() == v.tobytes()


class TestCoboundary:
    def test_constant_scalar_has_zero_gradient(self):
        g = box_grid((4, 4))
        c = cochain_of(g, 0, False, {(): np.full((5, 5), 3.7)})
        dc = mesh.d_sigma(c)
        for arr in dc.comps.values():
            np.testing.assert_array_equal(arr, 0.0)

    def test_line_grid_hand_differences(self):
        # node values 0,1,4,9,16 -> edge differences 1,3,5,7
        g = box_grid((4,))
        c = cochain_of(g, 0, False, {(): np.array([0.0, 1.0, 4.0, 9.0, 16.0])})
        np.testing.assert_array_equal(mesh.d_sigma(c).comps[(0,)], [1.0, 3.0, 5.0, 7.0])

    def test_line_grid_periodic_wraps(self):
        g = box_grid((4,), periodic=(True,))
        c = cochain_of(g, 0, False, {(): np.array([0.0, 1.0, 4.0, 9.0])})
        np.testing.assert_array_equal(mesh.d_sigma(c).comps[(0,)], [1.0, 3.0, 5.0, -9.0])

    def test_single_edge_curl_signs(self):
        # unit flux on one axis-0 edge at interior node line j=2:
        # the two cells sharing it see opposite circulations.
        g = box_grid((4, 4))
        c = mesh.zero_cochain(g, 1, False)
        c.comps[(0,)][1, 2] = 1.0
        dc = mesh.d_sigma(c).comps[(0, 1)]
        expected = np.zeros((4, 4))
        expected[1, 1] = -1.0
        expected[1, 2] = 1.0
        np.testing.assert_array_equal(dc, expected)

    def test_curl_matches_green_theorem(self):
        # Sample exact edge integrals of P dx + Q dy; the coboundary of the
        # result must equal the circulation integral around each cell, which
        # Green's theorem gives in closed form from the antiderivatives.
        g = box_grid((4, 5), lengths=(1.3, 0.9))
        x = np.arange(5) * g.spacings[0]
        y = np.arange(6) * g.spacings[1]

        f0ant = lambda u: -0.5 * np.cos(2.0 * u + 0.3)   # antiderivative of sin(2u+0.3)
        g0 = lambda v: v * v + 1.0
        f1 = lambda u: np.cos(1.7 * u)
        g1ant = lambda v: np.sin(v) / 1.0

        c = mesh.zero_cochain(g, 1, False)
        c.comps[(0,)][...] = (f0ant(x[1:]) - f0ant(x[:-1]))[:, None] * g0(y)[None, :]
        c.comps[(1,)][...] = f1(x)[:, None] * (g1ant(y[1:]) - g1ant(y[:-1]))[None, :]

        circulation = (
            (f0ant(x[1:]) - f0ant(x[:-1]))[:, None] * (g0(y[:-1]) - g0(y[1:]))[None, :]
            + (f1(x[1:]) - f1(x[:-1]))[:, None] * (g1ant(y[1:]) - g1ant(y[:-1]))[None, :]
        )
        np.testing.assert_allclose(mesh.d_sigma(c).comps[(0, 1)], circulation, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("cells,periodic", [((4, 4, 4), None), ((4, 6), (True, False))])
    def test_dd_is_zero(self, cells, periodic, dual):
        g = box_grid(cells, periodic=periodic)
        rng = np.random.default_rng(RNG_SEED)
        c = mesh.random_cochain(g, 0, dual, rng)
        ddc = mesh.d_sigma(mesh.d_sigma(c))
        for arr in ddc.comps.values():
            np.testing.assert_allclose(arr, 0.0, atol=ROUNDING_TOL)

    def test_dd_bit_zero_on_integer_data(self):
        # integer-valued data incurs no rounding, so the signed sums of
        # equal terms cancel bit-exactly
        g = box_grid((4, 4, 4))
        rng = np.random.default_rng(RNG_SEED)
        for dual in (False, True):
            c = mesh.zero_cochain(g, 1, dual)
            for s in c.comps:
                c.comps[s][...] = rng.integers(-50, 50, c.comps[s].shape).astype(float)
            ddc = mesh.d_sigma(mesh.d_sigma(c))
            for arr in ddc.comps.values():
                np.testing.assert_array_equal(arr, 0.0)

    def test_top_degree_raises(self):
        g = box_grid((4, 4))
        with pytest.raises(ValueError, match="top-degree"):
            mesh.d_sigma(mesh.zero_cochain(g, 2, False))

    def test_coboundary_preserves_flux_free_subspace(self):
        # on flux-free dual data the face rule keeps the coboundary flux-free:
        # every face-node output term is a difference of exact zeros
        g = box_grid((4, 5, 4))
        rng = np.random.default_rng(RNG_SEED)
        for k in (0, 1, 2):
            dc = mesh.d_sigma(mesh.project_normal_flux(mesh.random_cochain(g, k, True, rng)))
            assert mesh.face_maxabs(dc.lay, dc.vec).max() == 0.0


class TestHodge:
    def test_unit_cells_scalar_to_top(self):
        g = box_grid((4, 4))  # unit cells: lengths default to cell counts
        ones = cochain_of(g, 0, False, {(): np.ones((5, 5))})
        top = mesh.hodge_sigma(ones, 0.0, mesh.unit_metric())
        assert top.dual and top.degree == 2
        np.testing.assert_array_equal(top.comps[(0, 1)], np.ones((5, 5)))

    def test_conformal_weight_vanishes_mid_degree(self):
        # 1-cochains on a 2-axis slice scale as a^(m-2k) = a^0
        g = box_grid((4, 4), lengths=(2.0, 3.0))
        rng = np.random.default_rng(RNG_SEED)
        c = mesh.random_cochain(g, 1, False, rng)
        m1 = mesh.unit_metric()
        m2 = mesh.MetricField(conf=lambda t: 2.0)
        a1 = mesh.hodge_sigma(c, 0.0, m1)
        a2 = mesh.hodge_sigma(c, 0.0, m2)
        for s in a1.comps:
            np.testing.assert_array_equal(a1.comps[s], a2.comps[s])

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_fiber_cross_validation(self, m):
        # constant cochains are single fibers: pointwise Hodge values must
        # match the fiber algebra with metric diag(a^2) exactly
        rng = np.random.default_rng(RNG_SEED + m)
        cells = tuple(rng.integers(4, 7) for _ in range(m))
        lengths = tuple(float(v) for v in rng.uniform(0.5, 2.0, m))
        g = box_grid(cells, lengths=lengths)
        a = float(rng.uniform(0.5, 2.0))
        metric = mesh.MetricField(conf=lambda t: a)
        fiber_g = exterior.Metric(diag=np.full(m, a * a))
        for k in range(m + 1):
            vals = rng.standard_normal(exterior.space_dim(m, k))
            form = exterior.Form(m, k, vals)
            comps = {
                s: np.full(mesh.component_shape(g, s, False), vals[i] * mesh.cell_measure(g, s))
                for i, s in enumerate(mesh.subsets(g, k))
            }
            c = cochain_of(g, k, False, comps)
            star = mesh.hodge_sigma(c, 0.0, metric)
            want = exterior.hodge(form, fiber_g)
            for i, s in enumerate(mesh.subsets(g, m - k)):
                np.testing.assert_allclose(
                    star.comps[s] / mesh.cell_measure(g, s), want.comps[i], rtol=FIBER_MATCH_TOL, atol=FIBER_MATCH_TOL
                )

    def test_double_hodge_sign_and_inverse(self):
        g = box_grid((4, 5, 6), lengths=(1.0, 0.7, 1.9))
        rng = np.random.default_rng(RNG_SEED)
        metric = mesh.MetricField(conf=lambda t: 1.4)
        for k in range(4):
            for dual in (False, True):
                c = mesh.random_cochain(g, k, dual, rng)
                sign = (-1.0) ** (k * (3 - k))
                twice = mesh.hodge_sigma(mesh.hodge_sigma(c, 0.3, metric), 0.3, metric)
                back = mesh.hodge_inverse_sigma(mesh.hodge_sigma(c, 0.3, metric), 0.3, metric)
                for s in c.comps:
                    np.testing.assert_allclose(twice.comps[s], sign * c.comps[s], rtol=1e-14)
                    np.testing.assert_allclose(back.comps[s], c.comps[s], rtol=1e-14)


def codiff_sigma(c: mesh.Cochain, t: float, metric: mesh.MetricField) -> mesh.Cochain:
    """Codifferential ``(-1)^k * hodge^{-1} d hodge``, degree k -> k-1."""
    if c.degree < 1:
        raise ValueError("codiff_sigma: degree-0 input")
    inner = mesh.d_sigma(mesh.hodge_sigma(c, t, metric))
    return ((-1) ** c.degree) * mesh.hodge_inverse_sigma(inner, t, metric)


def face_slice(arr: np.ndarray, axis: int, side: int) -> np.ndarray:
    """The node layer of a component array at one face: index 0 (side 0) or -1 (side 1) along ``axis``."""
    sl = [slice(None)] * arr.ndim
    sl[axis] = -1 if side == 1 else 0
    return arr[tuple(sl)]


def drop_axis(subset: tuple[int, ...], axis: int) -> tuple[int, ...]:
    """An extent avoiding ``axis``, relabelled on the face grid across it."""
    return tuple(a - 1 if a > axis else a for a in subset if a != axis)


def normal_contract(c: mesh.Cochain, face: mesh.Face, t: float, metric: mesh.MetricField) -> mesh.Cochain:
    """Interior product with the outward unit normal, restricted to a face.

    Only components whose extent contains the face axis contribute.  For the
    dual family those components carry exact face-node values; for the
    primal family the nearest center layer is used (first-layer proxy, one
    half cell inside).

    Args:
        c: cochain of degree >= 1.
        face: boundary face.
        t: time (the unit normal carries 1/a(t)).
        metric: slice metric data.

    Returns:
        Face cochain of degree k-1 in the same family as ``c``.
    """
    if c.degree < 1:
        raise ValueError("normal_contract: degree-0 input")
    if c.grid.periodic[face.axis]:
        raise ValueError("normal_contract: periodic axis has no face")
    side_sign = 1.0 if face.side == 1 else -1.0
    h_axis = c.grid.spacings[face.axis]
    scale = float(metric.conf(t))
    fg = mesh.face_grid(c.grid, face)
    out = mesh.zero_cochain(fg, c.degree - 1, dual=c.dual)
    for s, arr in c.comps.items():
        if face.axis not in s:
            continue
        pos = s.index(face.axis)
        factor = side_sign * ((-1.0) ** pos) / (scale * h_axis)
        face_values = face_slice(arr, face.axis, face.side)
        out.comps[drop_axis(s, face.axis)][...] = factor * face_values
    return out


def induced_orientation(face: mesh.Face) -> int:
    """Orientation sign of a face under the outward-normal-first convention."""
    sign = (-1) ** face.axis
    return sign if face.side == 1 else -sign


def boundary_pairing(a: mesh.Cochain, b: mesh.Cochain, t: float, metric: mesh.MetricField) -> float:
    """Sum over faces of <trace_pullback(a), normal_contract(b)> on the face.

    This is the boundary term of the discrete summation-by-parts identity
    ``<d a, b> - <a, codiff b> = boundary_pairing(a, b)`` for primal a of
    degree k-1 and primal b of degree k.
    """
    total = 0.0
    for face in mesh.faces(a.grid):
        ta = mesh.trace_pullback(a, face)
        nb = normal_contract(b, face, t, metric)
        total += mesh.pair_sigma(ta, nb, t, metric)
    return total


class TestCodifferential:
    def test_degree_zero_raises(self):
        g = box_grid((4, 4))
        with pytest.raises(ValueError, match="degree-0"):
            codiff_sigma(mesh.zero_cochain(g, 0, False), 0.0, mesh.unit_metric())

    def test_codiff_squared_vanishes(self):
        g = box_grid((4, 4, 5))
        rng = np.random.default_rng(RNG_SEED)
        c = mesh.random_cochain(g, 2, False, rng)
        m = mesh.MetricField(conf=lambda t: 0.8)
        dd = codiff_sigma(codiff_sigma(c, 0.1, m), 0.1, m)
        for arr in dd.comps.values():
            np.testing.assert_allclose(arr, 0.0, atol=ROUNDING_TOL)

    def test_codiff_of_uniform_top_cochain(self):
        g = box_grid((4, 4))
        top = cochain_of(
            g, 2, False, {(0, 1): np.full(mesh.component_shape(g, (0, 1), False), 2.5)}
        )
        out = codiff_sigma(top, 0.0, mesh.unit_metric())
        for arr in out.comps.values():
            np.testing.assert_array_equal(arr, 0.0)

    @pytest.mark.parametrize("cells,k", [((8, 8), 1), ((8, 8), 2), ((4, 5, 4), 2)])
    def test_summation_by_parts(self, cells, k):
        # <d a, b> - <a, codiff b> equals the boundary trace/normal pairing
        g = box_grid(cells, lengths=tuple(0.9 + 0.2 * i for i in range(len(cells))))
        rng = np.random.default_rng(RNG_SEED + k)
        metric = mesh.MetricField(conf=lambda t: 1.3)
        a = mesh.random_cochain(g, k - 1, False, rng)
        b = mesh.random_cochain(g, k, False, rng)
        t = 0.2
        lhs = mesh.pair_sigma(mesh.d_sigma(a), b, t, metric) - mesh.pair_sigma(
            a, codiff_sigma(b, t, metric), t, metric
        )
        rhs = boundary_pairing(a, b, t, metric)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= SBP_TOL * scale

    def test_summation_by_parts_periodic_has_no_boundary(self):
        g = box_grid((8, 8), periodic=(True, True))
        rng = np.random.default_rng(RNG_SEED)
        metric = mesh.unit_metric()
        a = mesh.random_cochain(g, 0, False, rng)
        b = mesh.random_cochain(g, 1, False, rng)
        lhs = mesh.pair_sigma(mesh.d_sigma(a), b, 0.0, metric)
        rhs = mesh.pair_sigma(a, codiff_sigma(b, 0.0, metric), 0.0, metric)
        assert abs(lhs - rhs) <= SBP_TOL * max(1.0, abs(lhs))


class TestPairing:
    def test_unit_scalar_pairing_is_box_volume(self):
        g = box_grid((4, 8), lengths=(1.25, 2.0))
        ones = cochain_of(g, 0, False, {(): np.ones((5, 9))})
        vol = mesh.pair_sigma(ones, ones, 0.0, mesh.unit_metric())
        assert vol == pytest.approx(2.5, abs=1e-14)

    def test_unit_scalar_pairing_periodic(self):
        g = box_grid((4, 8), lengths=(1.25, 2.0), periodic=(True, True))
        ones = cochain_of(g, 0, False, {(): np.ones((4, 8))})
        assert mesh.pair_sigma(ones, ones, 0.0, mesh.unit_metric()) == pytest.approx(2.5, abs=1e-14)

    def test_conformal_scaling_on_scalars(self):
        g = box_grid((4, 4, 4))
        rng = np.random.default_rng(RNG_SEED)
        c = mesh.random_cochain(g, 0, False, rng)
        base = mesh.pair_sigma(c, c, 0.0, mesh.unit_metric())
        doubled = mesh.pair_sigma(c, c, 0.0, mesh.MetricField(conf=lambda t: 2.0))
        assert doubled == pytest.approx((2.0 ** 3) * base, rel=1e-14)

    def test_symmetric_positive_definite(self):
        g = box_grid((4, 5))
        rng = np.random.default_rng(RNG_SEED)
        metric = mesh.MetricField(conf=lambda t: 1.1)
        a = mesh.random_cochain(g, 1, True, rng)
        b = mesh.random_cochain(g, 1, True, rng)
        assert mesh.pair_sigma(a, b, 0.0, metric) == pytest.approx(
            mesh.pair_sigma(b, a, 0.0, metric), rel=1e-14
        )
        assert mesh.pair_sigma(a, a, 0.0, metric) > 0.0
        z = mesh.zero_cochain(g, 1, True)
        assert mesh.pair_sigma(z, z, 0.0, metric) == 0.0

    def test_degree_mismatch_raises(self):
        g = box_grid((4, 4))
        with pytest.raises(ValueError, match="different spaces"):
            mesh.pair_sigma(
                mesh.zero_cochain(g, 0, False), mesh.zero_cochain(g, 1, False), 0.0, mesh.unit_metric()
            )

    def test_weight_field(self):
        # weighted scalar pairing = trapezoid sum of w(x) against the values
        g = box_grid((4,), lengths=(2.0,))
        c = cochain_of(g, 0, False, {(): np.ones(5)})
        w = lambda t, x: x + t
        got = mesh.pair_sigma(c, c, 1.0, mesh.unit_metric(), weight=w)
        x = np.arange(5) * 0.5
        want = 0.5 * np.sum(np.array([0.5, 1, 1, 1, 0.5]) * (x + 1.0))
        assert got == pytest.approx(want, rel=1e-14)

    @seed(RNG_SEED)
    @settings(max_examples=30, deadline=None)
    @given(
        data=arrays(
            np.float64,
            (4, 5),
            elements=st.floats(-10, 10, allow_nan=False, allow_subnormal=False),
        ),
        k=st.integers(0, 2),
        conf=st.floats(0.5, 2.0, allow_nan=False),
    )
    def test_hodge_is_a_pairing_isometry(self, data, k, conf):
        g = box_grid((4, 4), lengths=(1.1, 0.8))
        rng = np.random.default_rng(int(abs(data.sum()) * 1e6) % 2**32)
        metric = mesh.MetricField(conf=lambda t: conf)
        a = mesh.random_cochain(g, k, False, rng)
        b = mesh.random_cochain(g, k, False, rng)
        plain = mesh.pair_sigma(a, b, 0.0, metric)
        starred = mesh.pair_sigma(
            mesh.hodge_sigma(a, 0.0, metric), mesh.hodge_sigma(b, 0.0, metric), 0.0, metric
        )
        np.testing.assert_allclose(starred, plain, rtol=1e-12, atol=1e-12)


class TestBoundaryOperators:
    def test_faces_enumeration(self):
        g = box_grid((4, 4), periodic=(True, False))
        assert mesh.faces(g) == [mesh.Face(1, 0), mesh.Face(1, 1)]

    def test_face_grid_drops_axis(self):
        g = box_grid((4, 6, 8), lengths=(1.0, 2.0, 3.0))
        fg = mesh.face_grid(g, mesh.Face(1, 0))
        assert fg.cells_per_axis == (4, 8)
        assert fg.lengths == (1.0, 3.0)
        assert fg.n == 3

    def test_face_grid_of_line_is_unsupported(self):
        g = box_grid((4,))
        with pytest.raises(ValueError, match=r"n out of supported range \[2,5\]"):
            mesh.face_grid(g, mesh.Face(0, 0))

    def test_trace_keeps_tangential_slice(self):
        g = box_grid((4, 4))
        c = mesh.zero_cochain(g, 1, False)
        c.comps[(1,)][...] = np.arange(20.0).reshape(5, 4)
        east = mesh.trace_pullback(c, mesh.Face(0, 1))
        np.testing.assert_array_equal(east.comps[(0,)], np.arange(16.0, 20.0))
        west = mesh.trace_pullback(c, mesh.Face(0, 0))
        np.testing.assert_array_equal(west.comps[(0,)], np.arange(0.0, 4.0))

    def test_trace_kills_normal_leg(self):
        g = box_grid((4, 4))
        for face in mesh.faces(g):
            c = mesh.zero_cochain(g, 1, False)
            c.comps[(face.axis,)][:] = 7.0
            tc = mesh.trace_pullback(c, face)
            for arr in tc.comps.values():
                np.testing.assert_array_equal(arr, 0.0)

    def test_trace_rejects_dual_and_periodic(self):
        g = box_grid((4, 4), periodic=(True, False))
        with pytest.raises(ValueError, match="primal"):
            mesh.trace_pullback(mesh.zero_cochain(g, 1, True), mesh.Face(1, 0))
        with pytest.raises(ValueError, match="periodic"):
            mesh.trace_pullback(mesh.zero_cochain(g, 1, False), mesh.Face(0, 0))
        with pytest.raises(ValueError, match="degree exceeds the face dimension"):
            mesh.trace_pullback(mesh.zero_cochain(g, 2, False), mesh.Face(1, 0))

    def test_normal_contract_kills_tangential(self):
        g = box_grid((4, 4))
        c = mesh.zero_cochain(g, 1, True)
        c.comps[(1,)][:] = 3.0
        out = normal_contract(c, mesh.Face(0, 1), 0.0, mesh.unit_metric())
        for arr in out.comps.values():
            np.testing.assert_array_equal(arr, 0.0)

    def test_normal_contract_unit_entries(self):
        # unit-cell grid, unit metric: a normal-leg indicator contracts to ones
        g = box_grid((4, 4))
        c = mesh.zero_cochain(g, 1, True)
        c.comps[(0,)][-1, :] = 1.0
        out = normal_contract(c, mesh.Face(0, 1), 0.0, mesh.unit_metric())
        np.testing.assert_array_equal(out.comps[()], np.ones(4))

    def test_normal_contract_degree_zero_raises(self):
        g = box_grid((4, 4))
        with pytest.raises(ValueError, match="degree-0"):
            normal_contract(mesh.zero_cochain(g, 0, True), mesh.Face(0, 0), 0.0, mesh.unit_metric())

    def test_normal_contract_periodic_axis_raises(self):
        g = box_grid((4, 4), periodic=(True, False))
        with pytest.raises(ValueError, match="normal_contract: periodic axis has no face"):
            normal_contract(mesh.zero_cochain(g, 1, True), mesh.Face(0, 0), 0.0, mesh.unit_metric())

    @pytest.mark.parametrize("cells,lengths", [((4, 5), (1.2, 0.7)), ((4, 4, 5), (1.0, 1.4, 0.6))])
    def test_duality_with_hodge_trace(self, cells, lengths):
        # face-hodge(n . c) = trace(hodge c) with the induced face orientation
        g = box_grid(cells, lengths=lengths)
        rng = np.random.default_rng(RNG_SEED)
        metric = mesh.MetricField(conf=lambda t: 1.7)
        t = 0.4
        for k in range(1, g.dim + 1):
            c = mesh.random_cochain(g, k, True, rng)
            star_c = mesh.hodge_sigma(c, t, metric)
            for face in mesh.faces(g):
                contracted = normal_contract(c, face, t, metric)
                lhs = contracted.lay.star.cochain(
                    mesh.hodge_flat(contracted.lay, contracted.vec, metric.conf(t), induced_orientation(face))
                )
                rhs = mesh.trace_pullback(star_c, face)
                for s in rhs.comps:
                    np.testing.assert_allclose(
                        lhs.comps[s], rhs.comps[s], rtol=FIBER_MATCH_TOL, atol=FIBER_MATCH_TOL
                    )

    def test_projection_zeroes_normal_flux_and_is_idempotent(self):
        g = box_grid((4, 5, 4))
        rng = np.random.default_rng(RNG_SEED)
        c = mesh.random_cochain(g, 2, True, rng)
        assert mesh.face_maxabs(c.lay, c.vec).max() > 0.0
        p = mesh.project_normal_flux(c)
        assert mesh.face_maxabs(p.lay, p.vec).max() == 0.0
        pp = mesh.project_normal_flux(p)
        for s in p.comps:
            np.testing.assert_array_equal(pp.comps[s], p.comps[s])
        # interior values untouched
        np.testing.assert_array_equal(p.comps[(0, 1)][1:-1, 1:-1, :], c.comps[(0, 1)][1:-1, 1:-1, :])

    def test_projection_requires_dual(self):
        g = box_grid((4, 4))
        with pytest.raises(ValueError, match="dual"):
            mesh.project_normal_flux(mesh.zero_cochain(g, 1, False))


def face_table_grids():
    """Box, torus and (from two axes on) mixed-periodic grids for n = 2..5."""
    for n in range(2, 6):
        m = n - 1
        kinds = {"box": (False,) * m, "torus": (True,) * m}
        if m > 1:
            kinds["mixed"] = tuple(a % 2 == 1 for a in range(m))
        for name, periodic in kinds.items():
            yield pytest.param(box_grid((4,) * (m - 1) + (5,), periodic=periodic), id=f"n{n}-{name}")


class TestFaceTable:
    """``Layout.faces`` against per-component slicing of a position-valued cochain."""

    @pytest.mark.parametrize("g", face_table_grids())
    def test_faces_select_the_node_layers(self, g):
        rng = np.random.default_rng(RNG_SEED)
        bounded = [a for a in range(g.dim) if not g.periodic[a]]
        for k in range(g.dim + 1):
            for dual in (False, True):
                lay = mesh.layout(g, k, dual)
                c = lay.cochain(np.arange(lay.size, dtype=float))
                # periodic axes have no faces
                assert list(lay.faces) == [mesh.Face(a, side) for a in bounded for side in (0, 1)]
                for face, sites in lay.faces.items():
                    # the components sampled at nodes across the face, in component order
                    layers = [face_slice(arr, face.axis, face.side).ravel()
                              for s, arr in c.comps.items() if (face.axis in s) == dual]
                    assert np.array_equal(sites, np.concatenate([np.zeros(0)] + layers))
                    if not dual and k < g.dim and g.n > 2:
                        # the trace in the face layout's order, filled component by component
                        trace = mesh.zero_cochain(mesh.face_grid(g, face), k, dual=False)
                        for s, arr in c.comps.items():
                            if face.axis not in s:
                                trace.comps[drop_axis(s, face.axis)][...] = face_slice(arr, face.axis, face.side)
                        assert np.array_equal(c.vec[sites], trace.vec)
                        assert np.array_equal(mesh.trace_pullback(c, face).vec, trace.vec)
                union = set(np.concatenate([np.zeros(0)] + list(lay.faces.values())).astype(int).tolist())
                assert lay.face_sites.tolist() == sorted(union)
                if dual:
                    # both face layers of every normal leg
                    legs = {int(v) for s, arr in c.comps.items() for a in s if a in bounded
                            for side in (0, 1) for v in face_slice(arr, a, side).ravel()}
                    assert union == legs
                rows = rng.standard_normal((3, lay.size))
                want = [max((np.max(np.abs(r[v])) for v in lay.faces.values() if v.size), default=0.0) for r in rows]
                assert np.array_equal(mesh.face_maxabs(lay, rows), want)


class TestFlatRows:
    def test_stacked_rows_match_single_cochains(self):
        # history algebra applies the flat operators to stacked time slices
        # with one a(t) per slice; elementwise results must match the
        # single-cochain operators bit for bit, reductions to rounding
        g = box_grid((4, 5, 4), periodic=(True, False, False))
        rng = np.random.default_rng(RNG_SEED)
        confs = np.array([1.0, 1.3, 0.7])
        for k in range(g.dim + 1):
            for dual in (False, True):
                lay = mesh.layout(g, k, dual)
                cs = [mesh.random_cochain(g, k, dual, rng) for _ in confs]
                rows = np.stack([c.vec for c in cs])
                star = mesh.hodge_flat(lay, rows, confs)
                pairs = mesh.pair_flat(lay, rows, rows[::-1], confs)
                d_rows = mesh.d_flat(lay, rows) if k < g.dim else None
                for i, c in enumerate(cs):
                    metric = mesh.MetricField(conf=lambda t, a=confs[i]: a)
                    np.testing.assert_array_equal(star[i], mesh.hodge_sigma(c, 0.0, metric).vec)
                    assert pairs[i] == pytest.approx(mesh.pair_sigma(c, cs[-1 - i], 0.0, metric), rel=ROUNDING_TOL)
                    if d_rows is not None:
                        np.testing.assert_array_equal(d_rows[i], mesh.d_sigma(c).vec)
                if dual:
                    projected = mesh.project_flat(lay, rows.copy())
                    for i, c in enumerate(cs):
                        np.testing.assert_array_equal(projected[i], mesh.project_normal_flux(c).vec)


def reference_d_flat(lay, x, base=0.0):
    """Coboundary plus ``base`` written with one fresh array per operation (np.roll wraps).

    Every target starts at ``base`` (+0.0 by default) and takes its incidence
    terms in ``lay.cofaces`` order.
    """
    m = lay.grid.dim
    out_lay = mesh.layout(lay.grid, lay.degree + 1, lay.dual)
    out = np.array(np.broadcast_to(base, x.shape[:-1] + (out_lay.size,)), dtype=float)
    for i, b, j, sign in lay.cofaces:
        arr, target, axis = lay.view(x, i), out_lay.view(out, j), b - m
        if lay.grid.periodic[b]:
            diff = arr - np.roll(arr, 1, axis=axis) if lay.dual else np.roll(arr, -1, axis=axis) - arr
        else:
            diff = np.diff(arr, axis=axis)
            if lay.dual:
                target = np.moveaxis(target, axis, -1)[..., 1:-1]
                diff = np.moveaxis(diff, axis, -1)
        if sign > 0:
            target += diff
        else:
            target -= diff
    return out


def reference_hodge_flat(lay, x, conf):
    m = lay.grid.dim
    out_lay = mesh.layout(lay.grid, m - lay.degree, not lay.dual)
    power = np.array([float(c) ** (m - 2 * lay.degree) for c in np.ravel(conf)]).reshape(np.shape(conf) + (1,))
    out = np.empty(x.shape)
    for i, j in enumerate(lay.stars):
        outer, inner = lay.measures[i]
        src = x[..., lay.offsets[i] : lay.offsets[i + 1]]
        out[..., out_lay.offsets[j] : out_lay.offsets[j + 1]] = (lay.signs[i] * power * outer / inner) * src
    return out


def reference_normal_faces(lay, x):
    """Face-node views of the normal-leg components of dual-family rows."""
    m = lay.grid.dim
    for i, axes in enumerate(lay.node_axes):
        arr = lay.view(x, i)
        for axis in axes:
            yield np.moveaxis(arr, axis - m, -1)[..., 0]
            yield np.moveaxis(arr, axis - m, -1)[..., -1]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPrograms:
    @pytest.mark.parametrize(
        "periodic", [(False, False, False), (True, False, True), (True, True, True)], ids=["box", "mixed", "torus"]
    )
    def test_programs_match_the_allocating_operators(self, periodic):
        # bit for bit, signed zeros included: the zero fill and +=/-= keep
        # 0 - (+0) at +0 where a straight write would leave -0
        g = box_grid((4, 5, 4), periodic=periodic)
        rng = np.random.default_rng(RNG_SEED)
        confs = np.array([1.0, 1.3, 0.7])
        for k in range(g.dim + 1):
            for dual in (False, True):
                lay = mesh.layout(g, k, dual)
                rows = rng.standard_normal((3, lay.size))
                rows[:, ::3] = 0.0
                rows[:, 1::5] = -0.0
                rows[:, 1::2] *= rng.random((3, 1)) < 0.5
                assert same_bits(mesh.hodge_flat(lay, rows, confs), reference_hodge_flat(lay, rows, confs))
                assert same_bits(mesh.hodge_flat(lay, rows[0], 1.3), reference_hodge_flat(lay, rows[0], 1.3))
                if k < g.dim:
                    assert same_bits(mesh.d_flat(lay, rows), reference_d_flat(lay, rows))
                    assert same_bits(mesh.d_flat(lay, rows[1]), reference_d_flat(lay, rows[1]))
                if dual:
                    projected = rows.copy()
                    for face in reference_normal_faces(lay, projected):
                        face[...] = 0.0
                    assert same_bits(mesh.project_flat(lay, rows.copy()), projected)
                    faces = [np.max(np.abs(f), initial=0.0) for f in reference_normal_faces(lay, rows)]
                    assert same_bits(np.float64(mesh.face_maxabs(lay, rows).max()), np.float64(max(faces, default=0.0)))


class TestZeroRule:
    @pytest.mark.parametrize("periodic", [False, True], ids=["box", "torus"])
    @pytest.mark.parametrize("cells", [(5, 4), (4, 5, 4)], ids=["n3", "n4"])
    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_d_starts_every_target_at_positive_zero(self, periodic, cells, dual):
        # the first incidence term writes 0 + diff or 0 - diff with no fill before it:
        # +0 - (+0) is +0 and -0 - (+0) is -0, as the zero-filled reference leaves them
        g = box_grid(cells, periodic=(periodic,) * len(cells))
        rng = np.random.default_rng(RNG_SEED)
        for k in range(g.dim):
            lay = mesh.layout(g, k, dual)
            rows = np.zeros((2, lay.size))
            rows[:, 1::3] = -0.0
            rows[:, rng.choice(lay.size, 3, replace=False)] = rng.standard_normal((2, 3))
            got = mesh.d_flat(lay, rows)
            assert same_bits(got, reference_d_flat(lay, rows))
            assert same_bits(mesh.d_flat(lay, rows[1]), got[1])
            assert (got == 0.0).any() and (got != 0.0).any()


class TestSampling:
    def test_sample_scalar_coordinates(self):
        g = box_grid((4, 4), lengths=(1.0, 2.0))
        vals = mesh.sample_scalar(g, (0,), False, lambda t, x, y: x + 10 * y + t, 0.5)
        # axis 0 centers at 0.125+0.25i, axis 1 nodes at 0.5j
        assert vals[0, 0] == pytest.approx(0.125 + 0.5)
        assert vals[3, 4] == pytest.approx(0.875 + 20.0 + 0.5)

    def test_sample_cochain_applies_cell_measure(self):
        g = box_grid((4, 4), lengths=(1.0, 2.0))
        c = mesh.sample_cochain(g, 1, False, {(0,): lambda t, x, y: 1.0})
        np.testing.assert_allclose(c.comps[(0,)], 0.25)
        np.testing.assert_array_equal(c.comps[(1,)], 0.0)

    @pytest.mark.parametrize("component", [1, 2])
    def test_max_pointwise_keeps_a_nan_in_a_later_component(self, component):
        g = box_grid((4, 4, 4))
        c = mesh.random_cochain(g, 2, False, np.random.default_rng(RNG_SEED))
        c.vec[c.lay.offsets[component]] = np.nan
        assert np.isnan(mesh.max_pointwise(c))

    def test_max_pointwise_uses_values_not_dofs(self):
        g = box_grid((4, 4), lengths=(0.5, 0.5))
        c = mesh.sample_cochain(g, 2, False, {(0, 1): lambda t, x, y: 3.0})
        assert mesh.max_pointwise(c) == pytest.approx(3.0)

    @seed(RNG_SEED)
    @settings(max_examples=100, deadline=None)
    @given(grid=grids(), dual=st.booleans(), data=st.data())
    def test_max_pointwise_is_the_max_of_the_divided_values(self, grid, dual, data):
        # dividing each component's largest magnitude by its measure gives the bits of dividing every value
        lay = mesh.layout(grid, data.draw(st.integers(0, grid.dim)), dual)
        c = lay.cochain(data.draw(arrays(np.float64, lay.size, elements=st.floats(allow_subnormal=True))))
        with np.errstate(over="ignore"):
            want = exterior.worst([exterior.maxabs(arr / mesh.cell_measure(grid, s)) for s, arr in c.comps.items()])
            got = mesh.max_pointwise(c)
        assert same_bits(np.float64(got), np.float64(want))
