"""First-order split form of the field equations on a product spacetime.

A degree-k spacetime field strength F on R x Sigma decomposes against dt into
an electric component fe (degree n-k, primal family) and a magnetic component
fb (degree k, dual family).  This module provides:

* the split operator on flat rows, in its one home: one program,
  :func:`level_ops` (``base + c A src``, with c folded into the Hodge
  factors), which the RK4 generator keeps and reruns for every level of a
  step and :func:`curls` runs once (base 0.0, c = 1), and the evolution
  slots :func:`slots`, which ``green.apply_operator`` and :func:`apply_S`
  share, with the source right-hand side and the sign exponents;
* the continuity residuals of a source family (the identities a source
  pair must satisfy for the Cauchy problem to be well posed);
* the interior and boundary constraint residuals;
* the principal symbol with its symmetry/positivity structure, and the full
  boundary admissibility audit of the flux-free subbundle;
* mesh-level equivalence checks between the split system and the covariant
  exterior-calculus form of the equations.

Sign exponents used throughout (n spacetime dimension, k field degree):
``eps_sign = (-1)^((n-k+1)(k+1)+1)`` on the magnetic curl in the electric
evolution slot, and ``source_sign = (-1)^((n-k)(k+1))`` on the magnetic
current.

Source families are flat rows: a family is a callable ``t -> ndarray`` whose
value is one float64 vector in ``mesh.layout(grid, degree, dual)`` order
(the order of ``Cochain.vec``), and :func:`rhs_sources` and
:func:`continuity_residuals` return rows in the same order.  A family marked
:func:`vectorized` also takes a 1-D array of times and returns ``(T, N)``
rows; :func:`family_rows` is the one place families are evaluated on many
times, so both functions take such an array too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Callable

import numpy as np

from . import exterior, mesh
from .tolerances import ADMISSIBILITY_TOL, EIGEN_TOL, SYMBOL_SYMMETRY_TOL


@dataclass
class CheckResult:
    """One named validation check with its measured value and threshold."""

    name: str
    passed: bool
    measure: float
    threshold: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measure": float(self.measure),
            "threshold": float(self.threshold),
            "detail": self.detail,
        }


def eps_sign(n: int, k: int) -> int:
    return (-1) ** ((n - k + 1) * (k + 1) + 1)


def source_sign(n: int, k: int) -> int:
    return (-1) ** ((n - k) * (k + 1))


@dataclass
class FieldState:
    """Split field state at one time: electric and magnetic cochains.

    Args:
        t: slice time.
        fe: electric component, primal cochain of degree n-k.
        fb: magnetic component, dual cochain of degree k.
        k: spacetime field degree, 1 <= k <= n-1.
    """

    t: float
    fe: mesh.Cochain
    fb: mesh.Cochain
    k: int

    def __post_init__(self):
        n = self.fe.grid.n
        if not 1 <= self.k <= n - 1:
            raise ValueError(f"field degree {self.k} out of range [1, {n - 1}]")
        if self.fe.grid != self.fb.grid:
            raise ValueError("fe and fb live on different grids")
        if self.fe.dual or not self.fb.dual:
            raise ValueError("fe must be primal and fb dual")
        if self.fe.degree != n - self.k or self.fb.degree != self.k:
            raise ValueError(
                f"expected degrees ({n - self.k}, {self.k}), "
                f"got ({self.fe.degree}, {self.fb.degree})"
            )

    @property
    def grid(self) -> mesh.GridSpec:
        return self.fe.grid


def zero_state(grid: mesh.GridSpec, k: int, t: float = 0.0) -> FieldState:
    return FieldState(
        t, mesh.zero_cochain(grid, grid.n - k, False), mesh.zero_cochain(grid, k, True), k
    )


def random_state(grid: mesh.GridSpec, k: int, rng: np.random.Generator, t: float = 0.0) -> FieldState:
    return FieldState(
        t, mesh.random_cochain(grid, grid.n - k, False, rng),
        mesh.random_cochain(grid, k, True, rng), k,
    )


@dataclass
class SourceData:
    """Time-dependent source families for the split system.

    Each family is a callable ``t -> ndarray`` returning one flat row in
    ``mesh.layout`` order (or None when the degree falls outside the slice
    complex, or the source vanishes identically).  A family marked with
    :func:`vectorized` may also take a 1-D array of times and return
    ``(T, N)`` rows, each bit for bit its one-time row; an unmarked family
    is called once per time (:func:`family_rows`).

    * ``je``: electric current, primal degree n+1-k (None when k = 1);
    * ``jb``: magnetic current, dual degree k-1;
    * ``ze``: electric defect, primal degree n-1-k;
    * ``zb``: magnetic defect, dual degree k+1 (None when k = n-1).

    ``je_rate`` and ``zb_rate`` are the optional analytic time derivatives of
    ``je`` and ``zb`` (rows of the same layouts); :func:`continuity_residuals`
    uses them in place of a finite difference.  ``window`` is the declared
    temporal support [t_a, t_b]; outside it every family must evaluate to zero.
    """

    grid: mesh.GridSpec
    k: int
    window: tuple[float, float]
    je: Callable | None = None
    jb: Callable | None = None
    ze: Callable | None = None
    zb: Callable | None = None
    je_rate: Callable | None = None
    zb_rate: Callable | None = None


def zero_sources(grid: mesh.GridSpec, k: int) -> SourceData:
    return SourceData(grid=grid, k=k, window=(0.0, 0.0))


def vectorized(fn: Callable) -> Callable:
    """Mark a source family that also takes a 1-D array of times (see :class:`SourceData`)."""
    fn.vectorized = True
    return fn


def family_rows(fn: Callable | None, times: np.ndarray):
    """The ``(T, N)`` rows of a source family at a 1-D array of times, None when absent.

    One call on the array for a :func:`vectorized` family, one call per time,
    stacked, otherwise.
    """
    if fn is None:
        return None
    if getattr(fn, "vectorized", False):
        return fn(times)
    return np.stack([fn(float(t)) for t in times])


def level_ops(lw: mesh.Layout, lb: mesh.Layout, src, dst, base, beta, fac, spare, scratch, pad):
    """One level of an RK4 step, ``dst = base + c A src``, as a program: the split operator's one program.

    ``src``, ``dst`` and ``base`` are ``(w, fb)`` pairs of row halves (a
    ``base`` entry may be 0.0), and ``c A`` is the split operator with a
    coefficient: the w half of ``dst`` is ``base_w + d(*(beta_b fb))`` and
    the fb half is ``base_fb + d(*(beta_w w))``, where ``fac = (fac_w,
    fac_b)`` are the Hodge factors with c and the curl sign folded in and a
    lapse ``beta`` entry of None adds no product.  ``d`` starts each target
    from ``base`` (:func:`mesh.d_ops`), so no half is filled or rescaled.
    The curl that writes the smaller half runs first; its Hodge image goes
    into the other half of ``dst``, which the second curl writes last.  The
    second image goes into the leading entries of ``spare`` when it is given
    and of the source's other half, consumed by then, otherwise.
    ``scratch`` is the difference scratch, flat, at least the batch size
    times the larger ``star.largest`` of the two layouts, and ``pad`` the
    reshaping buffer of ``d``'s strided terms, at least the batch size times
    the larger ``largest``.  Every multiply, add and subtract acts on
    C-contiguous rows, so numpy allocates no iteration buffers.  The calls
    read ``src``, ``base``, ``beta`` and ``fac`` anew each time they run.
    """
    lays = (lw, lb)
    first = 0 if lw.size <= lb.size else 1
    spare = src[1 - first] if spare is None else spare
    for target, image in ((first, dst[1 - first]), (1 - first, spare[..., : lays[first].size])):
        other = 1 - target
        yield from mesh.hodge_ops(lays[other], src[other], image, fac[other], beta[other])
        yield from mesh.d_ops(lays[other].star, image, dst[target], scratch, pad, base[target])


def curls(lw: mesh.Layout, lb: mesh.Layout, w, fb, beta_w, beta_b, conf):
    """The split system's two curls of flat rows: ``d(*(beta fb))`` and ``d(*(beta w))``.

    ``lw``/``lb`` are the layouts of ``w`` (primal, degree n-k) and ``fb``
    (dual, degree k); the lapse samples and a(t) are one row or one per row
    of ``w`` and ``fb``.  The :func:`level_ops` program with base 0.0 and
    c = 1, run as it is built.
    """
    batch = w.shape[:-1]
    curl_b, curl_e = np.empty(batch + (lw.size,)), np.empty(batch + (lb.size,))
    fac = (mesh.hodge_factors(lw, conf), mesh.hodge_factors(lb, conf))
    spare = mesh.empty_aligned(batch + (min(lw.size, lb.size),))
    scratch = mesh.empty_aligned((prod(batch) * max(lw.star.largest, lb.star.largest),))
    pad = mesh.empty_aligned((prod(batch) * max(lw.largest, lb.largest),))
    mesh.run_ops(level_ops(lw, lb, (w, fb), (curl_b, curl_e), (0.0, 0.0), (beta_w, beta_b), fac, spare, scratch, pad))
    return curl_b, curl_e


def slots(lw: mesh.Layout, lb: mesh.Layout, w, fb, w_dot, fb_dot, beta_w, beta_b, conf):
    """The split evolution slots of flat rows and their time derivatives::

        ((w_dot + eps_sign * d(*(beta fb))) / beta,  fb_dot - d(*(beta w)))

    with ``w = fe/beta``; arguments as for :func:`curls`.  The sources of a
    solution are ``(source_sign * hodge(jb), hodge(ze))`` in these slots.
    Each slot is built in the curl buffer it starts from.
    """
    curl_b, curl_e = curls(lw, lb, w, fb, beta_w, beta_b, conf)
    eps = float(eps_sign(lb.grid.n, lb.degree))
    np.add(w_dot, np.multiply(curl_b, eps, out=curl_b), out=curl_b)
    np.multiply(curl_b, 1.0 / beta_w, out=curl_b)
    return curl_b, np.subtract(fb_dot, curl_e, out=curl_e)


def apply_S(s: FieldState, metric: mesh.MetricField, s_dot: FieldState) -> tuple[mesh.Cochain, mesh.Cochain]:
    """Apply the split evolution operator with a caller-supplied time slot.

    Returns the pair::

        (beta^-1 d/dt(beta^-1 fe) + eps_sign * beta^-1 d(hodge(beta fb)),
         d/dt fb - d(hodge fe))

    where the time-derivative terms are expanded analytically using
    ``metric.beta_dt`` (zero when absent) and the supplied state derivative
    ``s_dot``; all Hodge factors are evaluated at ``s.t``.  The integrator
    owns the time differencing; this function is linear in (s, s_dot).  A
    Cochain adapter over :func:`slots`.

    Args:
        s: field state.
        metric: slice metric data.
        s_dot: time derivative of the state (same degrees as ``s``).

    Returns:
        (electric slot, magnetic slot) cochain pair.
    """
    if (s_dot.k, s_dot.grid) != (s.k, s.grid):
        raise ValueError("state derivative has mismatched degrees or grid")
    lw, lb, t = s.fe.lay, s.fb.lay, s.t
    beta_w, beta_b = mesh.sample_flat(lw, metric.beta, t), mesh.sample_flat(lb, metric.beta, t)
    inv_beta = 1.0 / beta_w
    w_dot = s_dot.fe.vec * inv_beta
    if metric.beta_dt is not None:
        w_dot = w_dot - s.fe.vec * mesh.sample_flat(lw, metric.beta_dt, t) * inv_beta**2
    slot_e, slot_b = slots(
        lw, lb, s.fe.vec * inv_beta, s.fb.vec, w_dot, s_dot.fb.vec, beta_w, beta_b, float(metric.conf(t))
    )
    return lw.cochain(slot_e), lb.cochain(slot_b)


def rhs_sources(src: SourceData, t, metric: mesh.MetricField):
    """Source side of the split system as rows: (sign * hodge(jb), hodge(ze)).

    ``t`` is one time (one row per slot) or a 1-D array of times (``(T, N)``
    rows, one Hodge map over all of them with one a(t) per row); one time is
    evaluated as an array of one.  Either slot is None when its family is
    absent, and with neither family present nothing is sampled.
    """
    if src.jb is None and src.ze is None:
        return None, None
    times = np.atleast_1d(t)
    n, k, conf = src.grid.n, src.k, mesh.sample_conf(metric, times)
    jb, ze = family_rows(src.jb, times), family_rows(src.ze, times)
    slot_e = slot_b = None
    if jb is not None:
        slot_e = mesh.hodge_flat(mesh.layout(src.grid, k - 1, True), jb, conf, source_sign(n, k))
    if ze is not None:
        slot_b = mesh.hodge_flat(mesh.layout(src.grid, n - 1 - k, False), ze, conf)
    if np.ndim(t) == 0:
        return tuple(None if r is None else r[0] for r in (slot_e, slot_b))
    return slot_e, slot_b


# Fractions of a finite source window at which the continuity residuals are
# sampled: the plateau and both ramps of a smooth window profile.
CONTINUITY_PROBES = (0.25, 0.5, 0.75)


def _source_rate(fn, t, delta: float = 1e-5):
    """Centred finite-difference rate of rows ``fn(t)`` without an analytic rate."""
    return (fn(t + delta) - fn(t - delta)) * (0.5 / delta)


def continuity_residuals(src: SourceData, metric: mesh.MetricField, t) -> dict:
    """Continuity residual rows of the split sources at time t.

    The current pair satisfies ``(-1)^(n-k) d/dt (je/beta) = s * d(beta * hodge jb)``
    (the identity that transports the electric constraint), and the flux pair
    satisfies ``d/dt zb = d(hodge ze)`` together with ``d zb = 0``.  The time
    derivatives use ``je_rate``/``zb_rate`` (and ``metric.beta_dt``) when
    present, a centred finite difference otherwise.  ``t`` is one time or a
    1-D array of times, as for :func:`rhs_sources`.

    Returns:
        dict with the rows ``charge`` (primal, degree n+1-k), ``flux`` (dual,
        degree k+1) and ``flux_closed`` (dual, degree k+2); an entry is None
        where its identity has no degree to live in or, for ``flux_closed``,
        no ``zb`` family.
    """
    grid, k, n = src.grid, src.k, src.grid.n
    times = np.atleast_1d(t)
    conf = mesh.sample_conf(metric, times)
    out = {"charge": None, "flux": None, "flux_closed": None}
    if k >= 2:
        lay_j = mesh.layout(grid, k - 1, True)
        jb = family_rows(src.jb, times) if src.jb is not None else np.zeros((len(times), lay_j.size))
        weighted = mesh.hodge_flat(lay_j, jb, conf) * mesh.sample_lapse(lay_j.star, metric, times)
        charge = mesh.d_flat(lay_j.star, weighted) * float(-source_sign(n, k))
        if src.je is not None:
            lay_e = mesh.layout(grid, n + 1 - k, False)
            inv_beta = 1.0 / mesh.sample_lapse(lay_e, metric, times)
            if src.je_rate is None:
                rate = _source_rate(lambda tt: family_rows(src.je, tt) / mesh.sample_lapse(lay_e, metric, tt), times)
            else:
                rate = family_rows(src.je_rate, times) * inv_beta
                if metric.beta_dt is not None:
                    beta_dt = np.stack([mesh.sample_flat(lay_e, metric.beta_dt, float(s)) for s in times])
                    rate = rate - family_rows(src.je, times) * beta_dt * inv_beta**2
            charge = rate * float((-1) ** (n - k)) + charge
        out["charge"] = charge
    if k <= n - 2:
        lay_z = mesh.layout(grid, n - 1 - k, False)
        ze = family_rows(src.ze, times) if src.ze is not None else np.zeros((len(times), lay_z.size))
        flux = -mesh.d_flat(lay_z.star, mesh.hodge_flat(lay_z, ze, conf))
        if src.zb is not None:
            if src.zb_rate is not None:
                rate = family_rows(src.zb_rate, times)
            else:
                rate = _source_rate(lambda tt: family_rows(src.zb, tt), times)
            flux = rate + flux
            if k + 2 <= grid.dim:
                out["flux_closed"] = mesh.d_flat(mesh.layout(grid, k + 1, True), family_rows(src.zb, times))
        out["flux"] = flux
    if np.ndim(t) == 0:
        return {name: None if r is None else r[0] for name, r in out.items()}
    return out


def constraint_residuals(s: FieldState, src: SourceData, metric: mesh.MetricField, beta=None):
    """Interior and boundary constraint residuals of a state.

    ``beta`` is the lapse row at fe's sites at ``s.t`` (``evolution.Generator.lapse``),
    sampled when None; at a unit lapse (``mesh.unit_lapse``) fe is its own
    ``fe / beta``, since x * 1.0 == x.

    Returns:
        (r_e, r_b, r_bdy) where
        r_e = d(beta^-1 fe) - (-1)^(n-k) beta^-1 je(t)  (None when fe has top
        degree, i.e. k = 1: the slice complex has no degree to hold it),
        r_b = d fb - zb(t)  (None when fb has top degree, k = n-1),
        r_bdy = per-face tangential traces of fe as {Face: Cochain} (None when
        the trace degree exceeds the face dimension, i.e. k = 1, where the
        tangential boundary condition is vacuous).
    """
    n, k, t = s.grid.n, s.k, s.t
    m = s.grid.dim
    lw, lb = s.fe.lay, s.fb.lay
    r_e = r_b = r_bdy = None
    if lw.degree < m:
        if beta is None:
            beta = mesh.sample_flat(lw, metric.beta, t)
        r_e = mesh.d_flat(lw, s.fe.vec if mesh.unit_lapse(beta) else s.fe.vec * (1.0 / beta))
        if src.je is not None:
            je = src.je(t) * (1.0 / mesh.sample_flat(lw.up, metric.beta, t))
            r_e = r_e - float((-1) ** (n - k)) * je
        r_e = lw.up.cochain(r_e)
        r_bdy = {face: mesh.trace_pullback(s.fe, face) for face in mesh.faces(s.grid)}
    if lb.degree < m:
        r_b = mesh.d_flat(lb, s.fb.vec)
        if src.zb is not None:
            r_b = r_b - src.zb(t)
        r_b = lb.up.cochain(r_b)
    return r_e, r_b, r_bdy


def constraint_norms(s: FieldState, src: SourceData, metric: mesh.MetricField, beta=None) -> tuple[float, float, float]:
    """Slice norms of :func:`constraint_residuals` (``beta`` as there): r_e, r_b and the largest
    face trace, each 0.0 where absent."""
    r_e, r_b, r_bdy = constraint_residuals(s, src, metric, beta)
    norm = lambda c: mesh.norm_sigma(c, s.t, metric) if c is not None else 0.0
    return norm(r_e), norm(r_b), exterior.worst([norm(c) for c in (r_bdy or {}).values()])


# ---------------------------------------------------------------------------
# principal symbol and boundary admissibility


@lru_cache(maxsize=None)
def _wedge_star_matrix(m: int, degree: int, axis: int):
    """Matrix of w -> e^axis ^ (euclidean hodge of w) on degree-``degree`` fibers."""
    g = exterior.euclidean(m)
    cov = exterior.unit(m, (axis,))

    def op(w):
        return exterior.wedge(cov, exterior.hodge(w, g))

    return exterior.operator_matrix(op, m, degree)


def _symbol_blocks(xi_hat: np.ndarray, n: int, k: int):
    m = n - 1
    mb = sum(xi_hat[..., a, None, None] * _wedge_star_matrix(m, k, a) for a in range(m))
    me = sum(xi_hat[..., a, None, None] * _wedge_star_matrix(m, n - k, a) for a in range(m))
    return mb, me


def symbol_matrix(xi0, xi_spatial: np.ndarray, beta, conf, n: int, k: int) -> np.ndarray:
    """Principal symbol at a fiber, in h-orthonormal frame components.

    The state fiber is R^C(n-1,n-k) (+) R^C(n-1,k); the off-diagonal blocks
    are the wedge-with-xi of the slice Hodge, the diagonal blocks are
    ``beta^-2 xi0`` and ``xi0`` identities.  The arguments may carry the
    same leading batch axes (``xi_spatial`` before its last axis), giving a
    stack of symbols; each is bit for bit the symbol of a one-point call,
    with ``beta**2`` taken per element as a Python float.

    Args:
        xi0: dt-component of the covector, xi(d/dt).
        xi_spatial: coordinate components of the spatial part (length n-1).
        beta: lapse value at the point.
        conf: conformal factor value (converts coordinate to orthonormal
            covector components).
        n: spacetime dimension.
        k: field degree.

    Returns:
        Symmetric matrix of size C(n-1,n-k)+C(n-1,k) (after the batch axes).
    """
    m = n - 1
    xi0 = np.asarray(xi0, dtype=float)[..., None, None]
    xi_hat = np.asarray(xi_spatial, dtype=float) / np.asarray(conf, dtype=float)[..., None]
    beta_sq = np.reshape([b**2 for b in np.ravel(beta).tolist()], np.shape(beta))
    mb, me = _symbol_blocks(xi_hat, n, k)
    de = comb(m, n - k)
    db = comb(m, k)
    out = np.zeros(xi_hat.shape[:-1] + (de + db, de + db))
    out[..., :de, :de] = (xi0 / beta_sq[..., None, None]) * np.eye(de)
    out[..., de:, de:] = xi0 * np.eye(db)
    out[..., :de, de:] = eps_sign(n, k) * mb
    out[..., de:, :de] = -me
    return out


def classify_eigenvalues(eigs: np.ndarray, tol: float = EIGEN_TOL):
    """Counts of (kernel, positive, negative) eigenvalues with a +-tol band, along the last axis."""
    kernel = np.count_nonzero(np.abs(eigs) <= tol, axis=-1)
    plus = np.count_nonzero(eigs > tol, axis=-1)
    minus = np.count_nonzero(eigs < -tol, axis=-1)
    return kernel, plus, minus


# trials per (T, d, d) symbol stack of symbol_audit; bounds the stacks' memory
_SYMBOL_BLOCK = 250
# uniform ranges of a symbol_audit trial: beta, conf of the first covector,
# then xi0, beta, conf of the timelike one and its radius fraction
_TRIAL_LOW = np.array([0.5, 0.5, 0.1, 0.5, 0.5, 0.0])
_TRIAL_SPAN = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 0.99]) - _TRIAL_LOW


def symbol_audit(
    n: int, k: int, trials: int, rng: np.random.Generator, metric: mesh.MetricField
) -> list[CheckResult]:
    """Principal-symbol audit of one (n, k) on random covectors: four checks.

    Each trial draws, in this order, a covector with its lapse and conformal
    factor (the symbol must be symmetric), then a timelike-future covector
    (its symbol must be positive definite), whose direction also gives a
    conormal symbol with closed-form kernel/plus/minus counts.  The trials
    are drawn in four generator calls each, with the values of one-value
    draws in the same order, and evaluated as ``(T, d, d)`` stacks of at
    most ``_SYMBOL_BLOCK`` trials, one ``eigvalsh`` per stack.  After them
    comes one :func:`admissibility_audit` evaluation on each face (axis and
    side), at t = 0 and the point (0.5, ..., 0.5): the conormal symbol has
    no dt-component and its spatial part over a(t) is the unit normal
    exactly, so its verdicts depend on neither the point nor the metric.

    Returns:
        The symmetry, positivity, counts and admissibility checks.  ValueError when ``trials < 1``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = n - 1
    symmetries, least_eigs, mismatches = [], [], 0
    counts = (comb(n - 2, n - k) + comb(n - 2, k), comb(n - 2, k - 1), comb(n - 2, k - 1))
    for start in range(0, trials, _SYMBOL_BLOCK):
        size = min(_SYMBOL_BLOCK, trials - start)
        # per trial: xi0 and xi, five uniforms, the direction, the radius fraction
        normals = np.empty((size, m + 1))
        uniforms = np.empty((size, 6))
        direction = np.empty((size, m))
        for i in range(size):
            normals[i] = rng.standard_normal(m + 1)
            uniforms[i, :5] = rng.random(5)
            direction[i] = rng.standard_normal(m)
            uniforms[i, 5] = rng.random()
        xi0_any, xi = normals[:, 0], normals[:, 1:]
        # numpy's own uniform(low, high) formula, so each value keeps its bits
        beta_any, conf_any, xi0, beta, conf, fraction = (_TRIAL_LOW + _TRIAL_SPAN * uniforms).T
        # the stacked matmul rounds as the one-vector norm does; a sum along an axis does not
        direction /= np.sqrt(direction[:, None, :] @ direction[:, :, None])[:, 0]
        sig = symbol_matrix(xi0_any, xi, beta_any, conf_any, n, k)
        symmetries.append(exterior.maxabs(sig - np.swapaxes(sig, -1, -2)))
        radius = fraction * xi0 / beta
        timelike = symbol_matrix(xi0, (conf * radius)[:, None] * direction, beta, conf, n, k)
        least_eigs.append(np.min(np.linalg.eigvalsh(timelike)))
        conormal = symbol_matrix(0.0, conf[:, None] * direction, beta, conf, n, k)
        found = np.stack(classify_eigenvalues(np.linalg.eigvalsh(conormal)), axis=-1)
        mismatches += int(np.count_nonzero(np.any(found != counts, axis=-1)))

    symmetry, min_eig = exterior.worst(symmetries), float(np.min(least_eigs))
    reports = [
        admissibility_audit(mesh.Face(axis, side), 0.0, (0.5,) * m, metric, n, k)
        for axis, side in itertools.product(range(m), (0, 1))
    ]
    admissible = all(report.passed() for report in reports)
    worst = exterior.worst([c.measure for report in reports for c in report.admissibility])
    return [
        CheckResult(
            f"symbol_symmetry_n{n}k{k}", symmetry < SYMBOL_SYMMETRY_TOL, symmetry, SYMBOL_SYMMETRY_TOL
        ),
        CheckResult(
            f"symbol_positivity_n{n}k{k}", min_eig > 0.0, min_eig, 0.0,
            "least eigenvalue over timelike-future covectors must be positive",
        ),
        CheckResult(
            f"symbol_counts_n{n}k{k}", mismatches < 1, float(mismatches), 1.0,
            "trials whose kernel/plus/minus dimensions missed the closed form",
        ),
        CheckResult(
            f"symbol_admissibility_n{n}k{k}", admissible, worst, ADMISSIBILITY_TOL,
            "boundary subbundle conditions at sampled wall points",
        ),
    ]


def boundary_basis(n: int, k: int, axis: int) -> np.ndarray:
    """Orthonormal fiber basis of the flux-free boundary subbundle.

    The subbundle keeps every electric direction and the magnetic directions
    whose extent avoids the face axis (those with a normal leg carry the flux
    that the boundary condition kills).
    """
    m = n - 1
    de = comb(m, n - k)
    db = comb(m, k)
    cols = list(range(de))
    for i, s in enumerate(exterior.basis_tuples(m, k)):
        if axis not in s:
            cols.append(de + i)
    basis = np.zeros((de + db, len(cols)))
    for j, c in enumerate(cols):
        basis[c, j] = 1.0
    return basis


def _complement_angle(basis: np.ndarray, image: np.ndarray) -> float:
    """Verdict (iii) of :func:`admissibility_audit` for orthonormal ``basis`` columns and a symbol image."""
    _, s, vh = np.linalg.svd(image.T, full_matrices=True)
    cut = max(image.shape) * np.finfo(float).eps * np.max(s, initial=0.0)
    complement = vh[np.count_nonzero(s > cut) :].T
    if complement.shape[1] != basis.shape[1]:
        return float(np.pi / 2)
    residual = complement - basis @ (basis.T @ complement)
    return float(np.arcsin(np.minimum(1.0, np.linalg.norm(residual, 2))))


@dataclass
class SymbolReport:
    """Outcome of one symbol/admissibility evaluation at a boundary point."""

    symmetry_defect: float
    eigenvalues: np.ndarray
    kernel_dim: int
    plus_dim: int
    minus_dim: int
    admissibility: tuple

    def passed(self) -> bool:
        return all(c.passed for c in self.admissibility)


def admissibility_audit(
    face: mesh.Face,
    t: float,
    x: tuple,
    metric: mesh.MetricField,
    n: int,
    k: int,
    tol: float = ADMISSIBILITY_TOL,
) -> SymbolReport:
    """Audit the boundary subbundle against the outward conormal symbol.

    Three verdicts are recorded:
      (i)  the symbol quadratic form vanishes on the subbundle
           (max |B^T sigma B| over the basis, including cross terms);
      (ii) the subbundle rank equals the count of eigenvalues >= -tol;
      (iii) the subbundle equals the orthogonal complement of its own symbol
           image (max principal angle below tol).

    Verdict (iii) is numpy only.  The complement is the null space of
    ``(sigma B)^T`` from a full SVD, with the rank cut of
    ``scipy.linalg.null_space``: singular values above
    ``max(shape) * eps * s_max``.  A complement of another dimension than
    the subbundle reads pi/2.  Otherwise the largest principal angle is
    ``arcsin(min(1, s_max(Q - B B^T Q)))`` for the complement Q, since the
    columns of B (from :func:`boundary_basis`) are orthonormal.

    Args:
        face: boundary face supplying the outward normal axis and side.
        t: evaluation time.
        x: spatial point on the face.
        metric: metric data.
        n: spacetime dimension.
        k: field degree.
        tol: verdict tolerance.

    Returns:
        SymbolReport with eigenvalue classification and the verdicts as
        checks named ``i``, ``ii`` and ``iii``.
    """
    side_sign = 1.0 if face.side == 1 else -1.0
    conf = float(metric.conf(t))
    xi_spatial = np.zeros(n - 1)
    xi_spatial[face.axis] = side_sign * conf  # unit outward conormal
    beta = float(np.asarray(metric.beta(t, *x)))
    sigma = symbol_matrix(0.0, xi_spatial, beta, conf, n, k)

    symmetry_defect = float(np.max(np.abs(sigma - sigma.T)))
    eigs = np.linalg.eigvalsh(sigma)
    kernel, plus, minus = (int(c) for c in classify_eigenvalues(eigs, tol))

    basis = boundary_basis(n, k, face.axis)
    rank = basis.shape[1]

    quad = basis.T @ sigma @ basis
    form_measure = float(np.max(np.abs(quad)))

    nonneg = plus + kernel
    angle_measure = _complement_angle(basis, sigma @ basis)

    admissibility = (
        CheckResult("i", form_measure < tol, form_measure, tol),
        CheckResult("ii", nonneg == rank, float(nonneg - rank), 0.0),
        CheckResult("iii", angle_measure < tol, angle_measure, tol),
    )
    return SymbolReport(
        symmetry_defect=symmetry_defect,
        eigenvalues=eigs,
        kernel_dim=kernel,
        plus_dim=plus,
        minus_dim=minus,
        admissibility=admissibility,
    )


# ---------------------------------------------------------------------------
# equivalence of the split system with the covariant equations


def split_system_residuals(
    s: FieldState, s_dot: FieldState, src: SourceData, metric: mesh.MetricField
) -> dict:
    """Norms of the four split-equation residuals at one time.

    Returns:
        dict with keys ``evo_e``, ``evo_b`` (evolution slots minus sources)
        and ``div_e``, ``div_b`` (constraint residuals; absent degrees give
        0.0), plus ``bdy`` (largest face-trace norm, 0.0 without faces).
    """
    t = s.t
    out = {}
    for key, slot, rhs in zip(("evo_e", "evo_b"), apply_S(s, metric, s_dot), rhs_sources(src, t, metric)):
        if rhs is not None:
            slot = slot - slot.lay.cochain(rhs)
        out[key] = mesh.norm_sigma(slot, t, metric)
    out["div_e"], out["div_b"], out["bdy"] = constraint_norms(s, src, metric)
    return out


def formulation_equivalence_check(family, grids: list, metric: mesh.MetricField, t: float = 0.0) -> dict:
    """Residual convergence of the split system on a manufactured family.

    ``family`` must provide ``state(grid, t)``, ``state_dt(grid, t)`` and
    ``sources(grid)``; the four equation residual norms are evaluated on each
    grid.  Second-order convergence of these residuals is the mesh-level
    witness that the split system and the covariant equations agree.

    Returns:
        dict with ``h`` (max spacings) and per-equation residual arrays.
    """
    table = {"h": [], "evo_e": [], "evo_b": [], "div_e": [], "div_b": []}
    for grid in grids:
        s = family.state(grid, t)
        s_dot = family.state_dt(grid, t)
        src = family.sources(grid)
        res = split_system_residuals(s, s_dot, src, metric)
        table["h"].append(max(grid.spacings))
        for key in ("evo_e", "evo_b", "div_e", "div_b"):
            table[key].append(res[key])
    return {key: np.asarray(vals) for key, vals in table.items()}
