"""Tests for the pointwise exterior algebra: frozen sign tables, an
independent wedge oracle, and the identity audit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmaxwell import exterior as ext
from kmaxwell.tolerances import IDENTITY_TOL

RNG_SEED = 20339


def form(dim, degree, comps):
    return ext.Form(dim, degree, np.asarray(comps, dtype=float))


def wedge_reference(a, b):
    """Slow, independent wedge: explicit bubble-sort permutation sign."""
    out = np.zeros(ext.space_dim(a.dim, a.degree + b.degree))
    for i, s in enumerate(ext.basis_tuples(a.dim, a.degree)):
        for j, t in enumerate(ext.basis_tuples(b.dim, b.degree)):
            seq = list(s + t)
            if len(set(seq)) != len(seq):
                continue
            sign = 1
            for p in range(len(seq)):
                for q in range(len(seq) - 1 - p):
                    if seq[q] > seq[q + 1]:
                        seq[q], seq[q + 1] = seq[q + 1], seq[q]
                        sign = -sign
            out[ext.basis_index(a.dim, len(seq))[tuple(seq)]] += sign * a.comps[i] * b.comps[j]
    return ext.Form(a.dim, a.degree + b.degree, out)


class TestSignTables:
    # Hand-expanded 2-d Euclidean table: *dx0 = dx1, *dx1 = -dx0,
    # *1 = dx0^dx1, *(dx0^dx1) = 1.
    def test_hodge_euclidean_2d(self):
        g = ext.euclidean(2)
        np.testing.assert_array_equal(ext.hodge(ext.unit(2, (0,)), g).comps, [0.0, 1.0])
        np.testing.assert_array_equal(ext.hodge(ext.unit(2, (1,)), g).comps, [-1.0, 0.0])
        np.testing.assert_array_equal(ext.hodge(ext.unit(2, ()), g).comps, [1.0])
        np.testing.assert_array_equal(ext.hodge(ext.unit(2, (0, 1)), g).comps, [1.0])

    def test_contract_hodge_chain_2d(self):
        # *( d0 interior *dx0 ) = *( d0 interior dx1 ) = *0 = 0
        g = ext.euclidean(2)
        step = ext.interior(np.array([1.0, 0.0]), ext.hodge(ext.unit(2, (0,)), g))
        np.testing.assert_array_equal(ext.hodge(step, g).comps, [0.0])

    def test_hodge_lorentzian_2d(self):
        # diag(-1, 1): *dt = -dx, *dx = -dt, and the double dual on degree 1
        # carries sign (-1)^(1*1+1) = +1.
        g = ext.lorentzian(2)
        np.testing.assert_array_equal(ext.hodge(ext.unit(2, (0,)), g).comps, [0.0, -1.0])
        np.testing.assert_array_equal(ext.hodge(ext.unit(2, (1,)), g).comps, [-1.0, 0.0])
        w = form(2, 1, [0.3, -0.7])
        np.testing.assert_allclose(ext.hodge(ext.hodge(w, g), g).comps, w.comps, atol=1e-15)

    def test_hodge_lorentzian_4d(self):
        g = ext.lorentzian(4)
        dt = ext.unit(4, (0,))
        expected = -1.0 * ext.unit(4, (1, 2, 3))
        np.testing.assert_array_equal(ext.hodge(dt, g).comps, expected.comps)
        assert ext.inner(dt, dt, g) == -1.0

    def test_double_hodge_lorentzian_two_forms(self):
        # m=4, sigma=1, k=2: sign (-1)^(2*2+1) = -1.
        g = ext.lorentzian(4)
        rng = np.random.default_rng(RNG_SEED)
        w = ext.Form(4, 2, rng.standard_normal(6))
        np.testing.assert_allclose(ext.hodge(ext.hodge(w, g), g).comps, -w.comps, atol=1e-14)

    def test_wedge_basis_cases(self):
        e01 = ext.wedge(ext.unit(4, (0,)), ext.unit(4, (1,)))
        np.testing.assert_array_equal(e01.comps, ext.unit(4, (0, 1)).comps)
        mixed = ext.wedge(form(2, 1, [1.0, 1.0]), ext.unit(2, (0,)))
        np.testing.assert_array_equal(mixed.comps, [-1.0])
        quad = ext.wedge(ext.unit(4, (0, 1)), ext.unit(4, (2, 3)))
        np.testing.assert_array_equal(quad.comps, ext.unit(4, (0, 1, 2, 3)).comps)

    def test_interior_signs(self):
        e01 = ext.unit(2, (0, 1))
        np.testing.assert_array_equal(ext.interior(np.array([1.0, 0.0]), e01).comps, [0.0, 1.0])
        np.testing.assert_array_equal(ext.interior(np.array([0.0, 1.0]), e01).comps, [-1.0, 0.0])

    def test_sharp_scaling(self):
        g = ext.Metric((4.0, 1.0))
        np.testing.assert_array_equal(ext.sharp(ext.unit(2, (0,)), g), [0.25, 0.0])

    def test_orientation_flip(self):
        flipped = ext.Metric((1.0, 1.0), orientation=(1, 0))
        np.testing.assert_array_equal(ext.hodge(ext.unit(2, (0,)), flipped).comps, [0.0, -1.0])


class TestErrors:
    def test_wedge_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            ext.wedge(ext.unit(2, (0, 1)), ext.unit(2, (0,)))

    def test_wedge_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ext.wedge(ext.unit(2, (0,)), ext.unit(3, (0,)))

    def test_interior_degree_zero(self):
        with pytest.raises(ValueError, match="degree-0"):
            ext.interior(np.array([1.0, 0.0]), ext.unit(2, ()))

    def test_inner_degree_mismatch(self):
        g = ext.euclidean(2)
        with pytest.raises(ValueError):
            ext.inner(ext.unit(2, (0,)), ext.unit(2, (0, 1)), g)

    def test_metric_zero_entry(self):
        with pytest.raises(ValueError):
            ext.Metric((0.0, 1.0))

    def test_bad_orientation(self):
        with pytest.raises(ValueError):
            ext.Metric((1.0, 1.0), orientation=(0, 0))

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            ext.Form(2, 3, np.zeros(0))

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: ext.Form(0, 0, np.ones(1)), r"fiber dimension must be in \[1, 6\], got 0"),
            (lambda: ext.Form(3, 1, np.ones(2)), "expected 3 components for degree 1 in dimension 3"),
            (lambda: ext.unit(2, (0,)) + ext.unit(3, (0,)), "cannot add forms of different dimension or degree"),
            (lambda: ext.unit(2, (0,)) - ext.unit(2, (0, 1)), "cannot subtract forms of different dimension or degree"),
            (lambda: ext.interior(np.ones(3), ext.unit(2, (0,))), "interior: vector must have 2 components"),
            (lambda: ext.hodge(ext.unit(2, (0,)), ext.euclidean(3)), "hodge: metric dimension mismatch"),
            (lambda: ext.inner(ext.unit(2, (0,)), ext.unit(3, (0,)), ext.euclidean(2)), "inner: dimension mismatch"),
            (lambda: ext.flat(np.ones(2), ext.euclidean(3)), "flat: vector must have 3 components"),
            (lambda: ext.sharp(ext.unit(2, (0, 1)), ext.euclidean(2)), "sharp: degree-1 input required"),
        ],
        ids=["dimension", "shape", "add", "subtract", "interior", "hodge", "inner", "flat", "sharp"],
    )
    def test_input_checks(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


@seed(RNG_SEED)
@settings(max_examples=60, deadline=None)
@given(
    a=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    b=arrays(np.float64, 6, elements=st.floats(-10, 10)),
)
def test_wedge_matches_reference(a, b):
    fa = ext.Form(4, 1, a)
    fb = ext.Form(4, 2, b)
    np.testing.assert_allclose(
        ext.wedge(fa, fb).comps, wedge_reference(fa, fb).comps, atol=1e-12
    )


@seed(RNG_SEED)
@settings(max_examples=60, deadline=None)
@given(
    a=arrays(np.float64, 3, elements=st.floats(-10, 10)),
    b=arrays(np.float64, 3, elements=st.floats(-10, 10)),
)
def test_wedge_graded_commutativity(a, b):
    fa = ext.Form(3, 1, a)
    fb = ext.Form(3, 1, b)
    lhs = ext.wedge(fa, fb).comps
    rhs = -ext.wedge(fb, fa).comps
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@seed(RNG_SEED)
@settings(max_examples=40, deadline=None)
@given(
    comps=arrays(np.float64, 10, elements=st.floats(-10, 10)),
    entries=arrays(np.float64, 5, elements=st.floats(0.5, 2.0)),
    signs=st.tuples(*(st.sampled_from([-1.0, 1.0]) for _ in range(5))),
)
def test_double_hodge_random_metric(comps, entries, signs):
    g = ext.Metric(tuple(e * s for e, s in zip(entries, signs)))
    w = ext.Form(5, 2, comps)
    expected = ((-1) ** (2 * 3 + g.sigma)) * w.comps
    np.testing.assert_allclose(ext.hodge(ext.hodge(w, g), g).comps, expected, atol=1e-11)


def test_hodge_inverse_roundtrip():
    rng = np.random.default_rng(RNG_SEED)
    for m, k in [(2, 1), (3, 1), (4, 2), (5, 3)]:
        g = ext.Metric(tuple(rng.uniform(0.5, 2.0, m) * np.where(np.arange(m) == 0, -1, 1)))
        w = ext.Form(m, k, rng.standard_normal(ext.space_dim(m, k)))
        back = ext.hodge_inverse(ext.hodge(w, g), g)
        np.testing.assert_allclose(back.comps, w.comps, atol=1e-13)


def test_operator_matrix_reproduces_hodge():
    g = ext.euclidean(3)
    mat = ext.operator_matrix(lambda w: ext.hodge(w, g), 3, 1)
    rng = np.random.default_rng(RNG_SEED)
    w = ext.Form(3, 1, rng.standard_normal(3))
    np.testing.assert_allclose(mat @ w.comps, ext.hodge(w, g).comps, atol=1e-15)


def test_identity_audit_all_signatures():
    rng = np.random.default_rng(RNG_SEED)
    for m in range(2, 6):
        for sigma in (0, 1):
            magnitudes = rng.uniform(0.5, 2.0, m)
            signs = np.ones(m)
            signs[:sigma] = -1.0
            g = ext.Metric(tuple(magnitudes * signs))
            report = ext.identity_audit(g, trials=50, seed=RNG_SEED + m + sigma)
            assert report, "audit produced no identities"
            for name, defect in report.items():
                assert defect < IDENTITY_TOL, f"m={m} sigma={sigma} {name}: {defect}"


@pytest.mark.parametrize("diag", [(1.0, np.nan), (np.nan, -1.0, 1.0), (2.0, -1.0, 1.0, np.nan)])
def test_identity_audit_keeps_nan_defects(diag):
    # a nan metric entry makes some defects nan: their worst case must not pass the tolerance
    report = ext.identity_audit(ext.Metric(diag), trials=3)
    assert any(np.isnan(defect) for defect in report.values())
    assert not all(defect < IDENTITY_TOL for defect in report.values())


def test_identity_audit_requires_trials():
    with pytest.raises(ValueError):
        ext.identity_audit(ext.euclidean(2), trials=0)


def same_bits(a, b):
    """Equal float arrays, signed zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@seed(RNG_SEED)
@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, ext.MAX_DIM),
    ka=st.integers(0, ext.MAX_DIM),
    kb=st.integers(0, ext.MAX_DIM),
    rows=st.integers(1, 5),
    sigma=st.integers(0, ext.MAX_DIM),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_stacked_kernels_match_row_by_row_form_calls(m, ka, kb, rows, sigma, data_seed):
    ka, kb = ka % (m + 1), kb % (m + 1)
    rng = np.random.default_rng(data_seed)
    g = ext.Metric(tuple(rng.uniform(0.5, 2.0, m) * np.where(np.arange(m) < sigma, -1.0, 1.0)))
    a = rng.standard_normal((rows, ext.space_dim(m, ka)))
    b = rng.standard_normal((rows, ext.space_dim(m, ka)))
    c = rng.standard_normal((rows, ext.space_dim(m, kb)))
    x = rng.standard_normal((rows, m))
    forms = [(ext.Form(m, ka, a[t]), ext.Form(m, ka, b[t]), ext.Form(m, kb, c[t])) for t in range(rows)]

    def stacked(results):
        return np.stack([r.comps if isinstance(r, ext.Form) else np.asarray(r) for r in results])

    assert same_bits(ext._hodge(ka, a, g), stacked(ext.hodge(fa, g) for fa, _, _ in forms))
    assert same_bits(ext._inner(ka, a, b, g), stacked(ext.inner(fa, fb, g) for fa, fb, _ in forms))
    assert same_bits(ext._flat(x, g), stacked(ext.flat(v, g) for v in x))
    if ka == 1:
        assert same_bits(ext._sharp(a, g), stacked(ext.sharp(fa, g) for fa, _, _ in forms))
    if ka >= 1:
        assert same_bits(
            ext._interior(m, ka, x, a), stacked(ext.interior(v, f[0]) for v, f in zip(x, forms))
        )
    if ka + kb <= m:
        assert same_bits(ext._wedge(m, ka, kb, a, c), stacked(ext.wedge(fa, fc) for fa, _, fc in forms))


def identity_audit_reference(g, trials, seed):
    """The identity audit as a per-sample loop over the public ``Form`` functions."""
    rng = np.random.default_rng(seed)
    m, sigma = g.dim, g.sigma
    vol = ext.volume_form(g)
    defects = {}

    def record(name, value):
        defects[name] = max(defects.get(name, 0.0), value)

    def maxabs(values):
        return float(np.max(np.abs(values), initial=0.0))

    hodge, inner, wedge, flat, interior = ext.hodge, ext.inner, ext.wedge, ext.flat, ext.interior
    for k in range(m + 1):
        for _ in range(trials):
            w = ext.Form(m, k, rng.standard_normal(ext.space_dim(m, k)))
            v = ext.Form(m, k, rng.standard_normal(ext.space_dim(m, k)))
            r = ext.Form(m, m - k, rng.standard_normal(ext.space_dim(m, m - k)))
            x = rng.standard_normal(m)
            dd = hodge(hodge(w, g), g) - ((-1) ** (k * (m - k) + sigma)) * w
            record("double_hodge", maxabs(dd.comps))
            record(
                "hodge_transpose",
                abs(inner(hodge(w, g), r, g) - ((-1) ** (k * (m - k))) * inner(w, hodge(r, g), g)),
            )
            wp = wedge(w, hodge(v, g))
            record("wedge_pairing", maxabs(wp.comps - inner(w, v, g) * vol.comps))
            record("inner_via_hodge", abs(inner(w, v, g) - ((-1) ** sigma) * hodge(wp, g).comps[0]))
            if k >= 1:
                lhs = wedge(flat(x, g), hodge(w, g))
                rhs = ((-1) ** (k + 1)) * hodge(interior(x, w), g)
                record("flat_wedge_hodge", maxabs((lhs - rhs).comps))
            if k <= m - 1:
                lhs = hodge(wedge(flat(x, g), w), g)
                rhs = ((-1) ** k) * interior(x, hodge(w, g))
                record("hodge_flat_wedge", maxabs((lhs - rhs).comps))
                eta = ext.Form(m, k + 1, rng.standard_normal(ext.space_dim(m, k + 1)))
                record(
                    "wedge_interior_adjoint",
                    abs(inner(wedge(flat(x, g), w), eta, g) - inner(w, interior(x, eta), g)),
                )
            if 1 <= k <= m - 1:
                b = ext.Form(m, 1, rng.standard_normal(m))
                lhs = interior(x, wedge(w, b))
                rhs = wedge(interior(x, w), b) + ((-1) ** k) * wedge(w, interior(x, b))
                record("interior_antiderivation", maxabs((lhs - rhs).comps))
                record("graded_commutativity", maxabs((wedge(w, b) - ((-1) ** k) * wedge(b, w)).comps))
        alpha = ext.Form(m, 1, rng.standard_normal(m))
        record("flat_sharp_roundtrip", maxabs(flat(ext.sharp(alpha, g), g).comps - alpha.comps))
        y = rng.standard_normal(m)
        record("sharp_flat_roundtrip", maxabs(ext.sharp(flat(y, g), g) - y))
    return defects


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("signature", [ext.euclidean, ext.lorentzian])
def test_identity_audit_matches_per_sample_reference(m, signature):
    g = signature(m)
    for trials, seed_ in ((1, 0), (7, 3)):
        audit = ext.identity_audit(g, trials=trials, seed=seed_)
        assert list(audit.items()) == list(identity_audit_reference(g, trials, seed_).items())
