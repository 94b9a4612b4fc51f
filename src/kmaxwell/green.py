"""Retarded, advanced, and causal solution operators with spacetime pairings.

The first-order operator D sends a degree-k field to the source pair
(delta omega, d omega); :func:`apply_operator` evaluates it on histories
through ``system.slots``, the split operator's one home.  Zero-data marches
started from a slice on either side of a compactly supported source realize
the two one-sided inverses of D; their difference maps source pairs onto
homogeneous solutions.  Dense snapshot histories feed the right-inverse and
exact-sequence defect suites and a pre-symplectic pairing evaluated through a
smooth time cutoff.

A march tabulates its sources once per ``SOURCE_TABLE_STEPS`` steps, with one
batched ``system.rhs_sources`` call on the distinct RK4 stage times of those
steps; the source families built here (the linear-in-time interpolants of a
:class:`SourceHistory` and the window-profile families of
:func:`random_source_pair`) are ``system.vectorized``, each batched row equal
bit for bit to its one-time row.

Histories are time-major float64 arrays of cochain vectors at uniformly
spaced slice times; fields (:class:`History`) and sources
(:class:`SourceHistory`) share one row base, which checks every family's rows
where they enter.  Since the pairing structure couples a degree-k history
only with histories of degrees k-1 and k+1, the multi-degree phase space is
realized as bundles: plain dicts (or sequences) of single-degree histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evolution, exterior, manufactured, mesh, system
from .tolerances import DEGENERACY_TOL, SOURCE_COMPAT_TOL

# Slices of margin required between a source window and the time-range ends.
SUPPORT_MARGIN_SLICES = 2
# Default cutoff ramp width, in units of the grid time step.
DEFAULT_WIDTH_STEPS = 10.0
# History budget: dense snapshots only at desk scale.
MAX_HISTORY_STEPS = 512
MAX_HISTORY_CELLS = 64
# 1-2-1 averaging passes of random_potential's sampled data; each pass spreads
# the support by one cell per side, so radius + passes * h stays clear of walls.
SMOOTHING_PASSES = 2
# Steps per source table of a march: one batched source evaluation per chunk
# of this many steps, so a march holds at most 3 * 32 stage rows of sources.
SOURCE_TABLE_STEPS = 32

# Fiber sign of a dt-leg in the spacetime metric, from the exterior algebra's
# Lorentzian convention (axis 0 carries the negative diagonal entry).
DT_LEG_SIGN = exterior.lorentzian(2).diag[0]


def _maxabs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


# ---------------------------------------------------------------------------
# time profiles


# The quintic smoothstep and its rate (zero unless 0 < u < 1) at the ramp
# argument u clipped to s, with products only: a power would round differently
# as an array ufunc than as a one-time libm ``pow``; one time must round as an array of times does
def _smoothstep(s):
    return s * s * s * (10.0 + s * (6.0 * s - 15.0))


def _smoothstep_rate(u, s):
    v = s * (1.0 - s)
    return np.where((u > 0.0) & (u < 1.0), 30.0 * (v * v), 0.0)


@dataclass(frozen=True)
class CutoffProfile:
    """Monotone time cutoff: 0 below t_c - width/2, 1 above t_c + width/2.

    The ramp is the quintic smoothstep, which has two continuous derivatives
    at the ramp ends, so the cutoff's rate stays smooth enough for
    finite-difference operators.  ``value`` and ``rate`` take one time or an
    array of times, and each entry of an array is bit for bit the value of
    its one-time call.
    """

    t_c: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.t_c) and math.isfinite(self.width) and self.width > 0):
            raise ValueError("cutoff centre must be finite, and width positive and finite")

    def _ramp(self, t):
        u = (np.asarray(t, dtype=float) - self.t_c) / self.width + 0.5
        return u, np.clip(u, 0.0, 1.0)

    def value(self, t):
        return _smoothstep(self._ramp(t)[1])

    def rate(self, t):
        """Time derivative of the cutoff; identically zero off the ramp."""
        return _smoothstep_rate(*self._ramp(t)) / self.width


@dataclass(frozen=True)
class WindowProfile:
    """Smooth compactly supported time bump: 0 outside [t_a, t_b].

    The profile ramps up over ``ramp`` after t_a, holds 1 on the plateau,
    and ramps down before t_b; ``rate`` is its exact derivative, so sources
    built from a window satisfy their continuity identities analytically.
    Its two ramps are :class:`CutoffProfile` objects of width ``ramp``, built once.
    """

    t_a: float
    t_b: float
    ramp: float = 0.0
    _up: CutoffProfile = field(init=False, repr=False, compare=False)
    _down: CutoffProfile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.t_a) and math.isfinite(self.t_b) and self.t_b > self.t_a):
            raise ValueError("window must be a finite interval of positive length")
        if self.ramp == 0.0:
            object.__setattr__(self, "ramp", (self.t_b - self.t_a) / 3.0)
        if not 0.0 < self.ramp <= (self.t_b - self.t_a) / 2.0 + 1e-12:
            raise ValueError("ramp must fit inside the window")
        object.__setattr__(self, "_up", CutoffProfile(self.t_a + self.ramp / 2.0, self.ramp))
        object.__setattr__(self, "_down", CutoffProfile(self.t_b - self.ramp / 2.0, self.ramp))

    def value(self, t):
        return self._up.value(t) * (1.0 - self._down.value(t))

    def rate(self, t):
        (u, s), (v, r) = self._up._ramp(t), self._down._ramp(t)
        up, down = _smoothstep_rate(u, s) / self.ramp, _smoothstep_rate(v, r) / self.ramp
        return up * (1.0 - _smoothstep(r)) - _smoothstep(s) * down


# ---------------------------------------------------------------------------
# histories


def _same_times(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two uniform time samplings agree: rtol 1e-12, atol 1e-12 * max(dt, 1)."""
    dt = float(a[1] - a[0]) if len(a) > 1 else 0.0
    return len(a) == len(b) and np.allclose(a, b, rtol=1e-12, atol=1e-12 * max(dt, 1.0))


@dataclass
class _Rows:
    """Time-major row families of one degree-k object on uniform slice times.

    A subclass names its families in :meth:`_spaces`, with the slice degree
    and duality of their rows.  On construction every present family is
    converted to float64 (without a copy when it already is) and must hold
    one row per slice time in its layout; a family whose degree leaves the
    slice complex must be None, and only families of an ``_optional``
    subclass may be None otherwise.  There must be at least two uniformly
    spaced, increasing times; ``dt`` is their spacing.
    """

    grid: mesh.GridSpec
    k: int
    times: np.ndarray

    _optional = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self._lays = {}
        for name, degree, dual in self._spaces():
            rows = getattr(self, name)
            if not 0 <= degree <= self.grid.dim:
                if rows is not None:
                    raise ValueError(f"{name} must be None at k={self.k}: its degree {degree} is not a slice degree")
            elif rows is not None or not self._optional:
                lay = self._lays[name] = mesh.layout(self.grid, degree, dual)
                rows = np.asarray(rows, dtype=float)
                want = (len(self.times), lay.size)
                if rows.shape != want:
                    raise ValueError(f"{name} rows have shape {rows.shape}, want {want}")
                setattr(self, name, rows)
        steps = np.diff(self.times)
        if len(steps) == 0:
            raise ValueError("a history needs at least two slices")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("history times must be uniformly spaced")
        if steps[0] <= 0:
            raise ValueError("history times must increase")
        self.dt = float(steps[0])

    def _families(self) -> list:
        """``(name, rows, layout)`` of each present family, in the order of :meth:`_spaces`."""
        return [(name, getattr(self, name), lay) for name, lay in self._lays.items()]

    def maxabs(self) -> float:
        return max((_maxabs(rows) for _, rows, _ in self._families()), default=0.0)

    def norm(self, metric: mesh.MetricField) -> float:
        """Spacetime L2 norm: trapezoidal time quadrature of the slice pairings of every family."""
        conf = mesh.sample_conf(metric, self.times)
        vals = np.zeros(len(self.times))
        for _, rows, lay in self._families():
            vals += mesh.pair_flat(lay, rows, rows, conf)
        return float(np.sqrt(max(np.trapezoid(vals, self.times), 0.0)))


@dataclass
class History(_Rows):
    """Dense time-major snapshots of one degree-k field on a fixed grid.

    Args:
        grid: spatial grid shared by every slice.
        k: spacetime field degree.
        times: at least two uniformly spaced, increasing slice times.
        fe: electric snapshots, shape (len(times), primal size).
        fb: magnetic snapshots, shape (len(times), dual size).

    ``le``/``lb`` are the layouts of the fe/fb rows, ``dt`` the slice spacing.
    """

    fe: np.ndarray
    fb: np.ndarray

    def _spaces(self):
        return (("fe", self.grid.n - self.k, False), ("fb", self.k, True))

    le = property(lambda self: self._lays["fe"])
    lb = property(lambda self: self._lays["fb"])
    # an attribute of its own, so it can be wrapped without touching SourceHistory
    norm = _Rows.norm

    def restrict(self, i0: int, i1: int) -> "History":
        return History(self.grid, self.k, self.times[i0:i1], self.fe[i0:i1], self.fb[i0:i1])

    def _compat(self, other: "History") -> None:
        if not self.grid.compatible(other.grid):
            raise ValueError("histories on mismatched grids")
        if self.k != other.k:
            raise ValueError(f"histories of mismatched degrees {self.k} and {other.k}")
        if not _same_times(self.times, other.times):
            raise ValueError("histories on mismatched time samples")

    def __add__(self, other: "History") -> "History":
        self._compat(other)
        return History(self.grid, self.k, self.times, self.fe + other.fe, self.fb + other.fb)

    def __sub__(self, other: "History") -> "History":
        self._compat(other)
        return History(self.grid, self.k, self.times, self.fe - other.fe, self.fb - other.fb)

    def __mul__(self, factor: float) -> "History":
        return History(self.grid, self.k, self.times, self.fe * factor, self.fb * factor)

    __rmul__ = __mul__

    def __neg__(self) -> "History":
        return self * -1.0


@dataclass
class SourceHistory(_Rows):
    """Snapshots of a source pair on history times; absent families are None.

    ``window`` is the temporal support of the linear-in-time interpolants
    that :meth:`data` exposes to the evolution loop.
    """

    window: tuple[float, float]
    je: np.ndarray | None
    jb: np.ndarray | None
    ze: np.ndarray | None
    zb: np.ndarray | None

    _optional = True

    def _spaces(self):
        n, k = self.grid.n, self.k
        return (("je", n + 1 - k, False), ("jb", k - 1, True), ("ze", n - 1 - k, False), ("zb", k + 1, True))

    def data(self) -> system.SourceData:
        kw = {name: _row_interpolant(self.times, rows) for name, rows, _ in self._families()}
        return system.SourceData(grid=self.grid, k=self.k, window=self.window, **kw)


def _row_interpolant(times, rows):
    """The linear-in-time interpolant ``t -> row`` of rows on uniform times, zero outside.

    A :func:`system.vectorized` family: at a 1-D array of times it gathers
    both neighbours of every time at once and returns ``(T, N)`` rows.
    """
    t0 = float(times[0])
    dt = float(times[1] - times[0])
    last = len(times) - 1

    @system.vectorized
    def fn(t):
        shape = np.shape(t)
        x = (np.asarray(t, dtype=float).reshape(-1) - t0) / dt
        outside = (x <= -1e-9) | (x >= last + 1e-9)
        # clamp to [0, last] as Python's max(x, 0.0) and min(x, last) pick, signed zeros included
        x = np.where(0.0 > x, 0.0, x)
        x = np.where(float(last) < x, float(last), x)
        i = np.minimum(x.astype(np.intp), last - 1)
        u = (x - i)[..., None]
        out = rows[i]
        out *= 1.0 - u
        upper = rows[i + 1]
        upper *= u
        out += upper
        out[outside] = 0.0
        return out.reshape(shape + rows.shape[1:])

    return fn


# ---------------------------------------------------------------------------
# admissible source pairs


@dataclass
class SourcePair(system.SourceData):
    """Admissible source pair for one degree-k problem.

    ``alpha`` (split into je/jb) is the target of the codifferential: it must
    be divergence-compatible (the charge-continuity identity) and carry no
    normal flux at the boundary.  ``zeta`` (split into ze/zb) is the target
    of the differential: it must be closed (the flux-continuity identity).
    The families are :class:`system.SourceData` rows; ``je_rate`` and
    ``zb_rate`` are required wherever ``je`` and ``zb`` are given, so the
    continuity identities are certified exactly.

    Invariants are checked at declaration by sampling the residuals at
    probe times inside the window against ``SOURCE_COMPAT_TOL``; the check
    uses ``metric`` (unit lapse when omitted), which must match the metric
    the sources were built for.
    """

    metric: mesh.MetricField | None = None

    def __post_init__(self):
        wa, wb = self.window
        if not (np.isfinite(wa) and np.isfinite(wb) and wb > wa):
            raise ValueError("source window must be a finite interval")
        if self.je is not None and self.je_rate is None:
            raise ValueError("je_rate is required to certify charge continuity")
        if self.zb is not None and self.zb_rate is None:
            raise ValueError("zb_rate is required to certify flux continuity")
        probes = [wa + (wb - wa) * frac for frac in system.CONTINUITY_PROBES]
        for t, defect in zip(probes, self._admissibility_defects(np.array(probes))):
            if defect > SOURCE_COMPAT_TOL:
                raise ValueError(
                    f"source admissibility residual {defect:.3e} at t={t:.6g} "
                    f"exceeds {SOURCE_COMPAT_TOL:.1e}"
                )

    def _admissibility_defects(self, times: np.ndarray) -> list:
        """The worst admissibility residual at each time, the families sampled once on all."""
        grid, n, k = self.grid, self.grid.n, self.k
        metric = self.metric if self.metric is not None else mesh.unit_metric()
        rows = lambda fn: system.family_rows(fn, times)
        # charge and flux continuity, and d zb = 0
        residuals = [r for r in system.continuity_residuals(self, metric, times).values() if r is not None]
        worst = [max((_maxabs(r[i]) for r in residuals), default=0.0) for i in range(len(times))]
        # no normal flux: both legs of alpha and zb vanish against the boundary
        checks = []
        if self.jb is not None:
            checks.append((mesh.layout(grid, k - 1, True), rows(self.jb)))
        if self.je is not None and k >= 3:
            lay_je = mesh.layout(grid, n + 1 - k, False)
            star = mesh.hodge_flat(lay_je, rows(self.je), mesh.sample_conf(metric, times))
            checks.append((lay_je.star, star))
        if self.zb is not None:
            checks.append((mesh.layout(grid, k + 1, True), rows(self.zb)))
        for lay, flux in checks:
            worst = [max(w, mesh.flux_maxabs_flat(lay, row)) for w, row in zip(worst, flux)]
        # ze has no tangential trace
        if self.ze is not None:
            ze = [mesh.layout(grid, n - 1 - k, False).cochain(row) for row in rows(self.ze)]
            for face in mesh.faces(grid):
                worst = [max(w, _maxabs(mesh.trace_pullback(c, face).vec)) for w, c in zip(worst, ze)]
        return worst


def _as_source_data(src, grid) -> system.SourceData:
    data = src.data() if isinstance(src, SourceHistory) else src
    if not isinstance(data, system.SourceData):
        raise TypeError(f"unsupported source object {type(src).__name__}")
    if not data.grid.compatible(grid):
        raise ValueError("source declared on a different grid")
    return data


# ---------------------------------------------------------------------------
# one-sided and causal solution operators


def _integrate(grid, k, metric, data, t_start, n_steps, dt, state0=None) -> History:
    """March the split system, storing every slice; dt may be negative.

    The sources are tabulated for ``SOURCE_TABLE_STEPS`` steps at a time
    (``Generator.tabulate``), from the same step times the march takes.
    """
    if n_steps > MAX_HISTORY_STEPS:
        raise ValueError(f"history of {n_steps} steps exceeds the {MAX_HISTORY_STEPS}-step budget")
    if max(grid.cells_per_axis) > MAX_HISTORY_CELLS:
        raise ValueError(f"grid exceeds the {MAX_HISTORY_CELLS}-cell history budget")
    t_end = t_start + n_steps * dt
    evolution.require_stable_dt(grid, metric, dt, (min(t_start, t_end), max(t_start, t_end)))
    gen = evolution.Generator(grid, k, metric, data, "project_B", t_start)
    nw = gen.nw
    y = gen.project(np.zeros(nw + gen.lb.size) if state0 is None else gen.rows(state0))
    fe_rows = np.empty((n_steps + 1, nw))
    fb_rows = np.empty((n_steps + 1, gen.lb.size))
    times = t_start + dt * np.arange(n_steps + 1)
    for i in range(n_steps + 1):
        t = float(times[i])
        fe_rows[i] = y[:nw] * gen.lapse(t)[0]
        fb_rows[i] = y[nw:]
        if i < n_steps:
            if i % SOURCE_TABLE_STEPS == 0:
                gen.tabulate([float(s) for s in times[i : min(i + SOURCE_TABLE_STEPS, n_steps)]], dt)
            y = evolution._rk4_step(t, y, gen, dt)
    if dt < 0:
        times, fe_rows, fb_rows = times[::-1].copy(), fe_rows[::-1].copy(), fb_rows[::-1].copy()
    return History(grid, k, times, fe_rows, fb_rows)


def _solve_plan(grid, data, t_start, t_final):
    dt = grid.dt
    t_start = grid.t0 if t_start is None else float(t_start)
    if t_final is None:
        t_final = data.window[1] + SUPPORT_MARGIN_SLICES * dt
    n_steps = max(1, math.ceil((t_final - t_start) / dt - 1e-9))
    t_end = t_start + n_steps * dt
    wa, wb = data.window
    margin = SUPPORT_MARGIN_SLICES * dt
    if wa - t_start < margin - 1e-9 * dt or t_end - wb < margin - 1e-9 * dt:
        raise ValueError("source support window touches the time range ends")
    return t_start, t_end, n_steps


def g_plus(src, grid: mesh.GridSpec, metric: mesh.MetricField, t_start=None, t_final=None) -> History:
    """Forward zero-data solve: the retarded-side inverse of the operator.

    Zero data is imposed on the earliest slice; the march runs forward
    through and past the source window, so the output vanishes identically
    (bit-zero) before the window and is supported in its causal future.

    Args:
        src: SourcePair, SourceHistory, or SourceData.
        grid: spatial grid (its ``dt`` is the slice spacing).
        metric: lapse and conformal factor.
        t_start: earliest slice (defaults to ``grid.t0``).
        t_final: latest time to reach (defaults to two slices past the
            window); snapped up to a whole number of steps.

    Raises:
        ValueError: when the source window comes within two slices of
            either end of the time range.
    """
    data = _as_source_data(src, grid)
    t_start, t_end, n_steps = _solve_plan(grid, data, t_start, t_final)
    return _integrate(grid, data.k, metric, data, t_start, n_steps, grid.dt)


def g_minus(src, grid: mesh.GridSpec, metric: mesh.MetricField, t_start=None, t_final=None) -> History:
    """Backward zero-data solve: time mirror of :func:`g_plus`.

    Zero data is imposed on the latest slice and the march runs backward,
    so the output vanishes identically after the source window; the
    returned history is in ascending time order.
    """
    data = _as_source_data(src, grid)
    t_start, t_end, n_steps = _solve_plan(grid, data, t_start, t_final)
    return _integrate(grid, data.k, metric, data, t_end, n_steps, -grid.dt)


def causal(src, grid: mesh.GridSpec, metric: mesh.MetricField, t_start=None, t_final=None) -> History:
    """Causal propagator: forward minus backward solve, a homogeneous solution."""
    plus = g_plus(src, grid, metric, t_start, t_final)
    minus = g_minus(src, grid, metric, t_start, t_final)
    return plus - minus


# ---------------------------------------------------------------------------
# the discrete first-order operator on histories


def apply_operator(h: History, metric: mesh.MetricField) -> SourceHistory:
    """Discrete first-order operator on a history: the source pair it solves.

    Reassembles (delta omega, d omega) from the split equations, on all
    slices at once, taking time derivatives by centered differences (one-sided
    second-order stencils at the ends).  Rows where the input is bit-zero
    through the difference stencil come out exactly zero, so compact
    temporal support survives with one slice of smearing per side.

    Returns:
        SourceHistory on the same times, with the support window inferred
        from the nonzero rows (one slice of interpolation pad each side).
    """
    grid, k = h.grid, h.k
    n = grid.n
    lw, lb, conf = h.le, h.lb, mesh.sample_conf(metric, h.times)
    beta_w = mesh.sample_lapse(lw, metric, h.times)
    beta_b = mesh.sample_lapse(lb, metric, h.times)

    w = h.fe * (1.0 / beta_w)
    w_dot = np.gradient(w, h.dt, axis=0, edge_order=2)
    fb_dot = np.gradient(h.fb, h.dt, axis=0, edge_order=2)
    slot_e, slot_b = system.slots(lw, lb, w, h.fb, w_dot, fb_dot, beta_w, beta_b, conf)
    jb = float(system.source_sign(n, k)) * mesh.hodge_inverse_flat(lw, slot_e, conf)
    ze = mesh.hodge_inverse_flat(lb, slot_b, conf)
    je = None
    if k >= 2:
        beta_j = mesh.sample_lapse(lw.up, metric, h.times)
        je = float((-1) ** (n - k)) * (mesh.d_flat(lw, w) * beta_j)
    zb = mesh.d_flat(lb, h.fb) if k <= n - 2 else None

    window = _support_window(h.times, (je, jb, ze, zb))
    return SourceHistory(grid, k, h.times, window, je, jb, ze, zb)


def _support_window(times, families) -> tuple[float, float]:
    """Temporal support of row families, padded by one interpolation slice."""
    T = len(times)
    mags = np.zeros(T)
    for rows in families:
        if rows is not None and rows.shape[1]:
            mags = np.maximum(mags, np.max(np.abs(rows), axis=1))
    nz = np.nonzero(mags)[0]
    if not len(nz):
        # empty support: report a degenerate mid-range window so the
        # slice-margin requirement stays vacuously satisfiable
        return (float(times[T // 2]), float(times[T // 2]))
    return (float(times[max(nz[0] - 1, 0)]), float(times[min(nz[-1] + 1, T - 1)]))


def cutoff_sources(h: History, chi: CutoffProfile, metric: mesh.MetricField, complement: bool = False) -> SourceHistory:
    """Sources of the cutoff-split history chi*h, by the exact product rule.

    Splitting a field with a time cutoff adds a ramp current to the scaled
    sources: D(chi*omega) = chi*(D omega) + chi'*(R omega), where R feeds
    the electric part into the magnetic current slot and the magnetic part
    into the electric defect slot.  Using the analytic cutoff rate here
    avoids differencing through the ramp, which would otherwise dominate
    every defect budget.

    Args:
        h: the history to split.
        chi: the cutoff profile.
        metric: lapse and conformal factor.
        complement: split with 1 - chi instead (the past-supported part).
    """
    base = apply_operator(h, metric)
    grid, k = h.grid, h.k
    n = grid.n
    ssign = float(system.source_sign(n, k))
    values = np.asarray(chi.value(h.times), dtype=float)
    rates = np.asarray(chi.rate(h.times), dtype=float)
    if complement:
        values = 1.0 - values
        rates = -rates
    lw, lb, conf = h.le, h.lb, mesh.sample_conf(metric, h.times)
    beta_w = mesh.sample_lapse(lw, metric, h.times)
    ramp_jb = ssign * mesh.hodge_inverse_flat(lw, h.fe * (1.0 / beta_w**2), conf)
    ramp_ze = mesh.hodge_inverse_flat(lb, h.fb, conf)
    je = None if base.je is None else values[:, None] * base.je
    jb = values[:, None] * base.jb + rates[:, None] * ramp_jb
    ze = values[:, None] * base.ze + rates[:, None] * ramp_ze
    zb = None if base.zb is None else values[:, None] * base.zb
    window = _support_window(h.times, (je, jb, ze, zb))
    return SourceHistory(grid, k, h.times, window, je, jb, ze, zb)


def sample_sources(data: system.SourceData, times: np.ndarray, tag_window=None) -> SourceHistory:
    """Snapshot a source family onto history times (for norms and defects)."""
    times = np.asarray(times, dtype=float)
    families = (data.je, data.jb, data.ze, data.zb)
    return SourceHistory(
        data.grid, data.k, times, tag_window or data.window, *(system.family_rows(fn, times) for fn in families)
    )


# ---------------------------------------------------------------------------
# identity suites


def right_inverse_check(omega: History, grid: mesh.GridSpec, metric: mesh.MetricField) -> dict:
    """Defect of the one-sided inverse identity on a compact history.

    Applies the discrete operator to ``omega``, feeds the resulting source
    pair back through :func:`g_plus`, and reports the relative mismatch.

    Raises:
        ValueError: when ``omega`` carries boundary flux (the identity only
            holds for fields with vanishing normal trace), or when its
            support leaves no slice margin at the ends.
    """
    if not omega.grid.compatible(grid):
        raise ValueError("history declared on a different grid")
    scale = 1.0 + omega.maxabs()
    lw, lb, conf = omega.le, omega.lb, mesh.sample_conf(metric, omega.times)
    worst = mesh.flux_maxabs_flat(lb, omega.fb)
    if omega.k >= 2:
        star = mesh.hodge_flat(lw, omega.fe, conf)
        worst = max(worst, mesh.flux_maxabs_flat(lw.star, star))
    if worst > SOURCE_COMPAT_TOL * scale:
        raise ValueError(
            f"history violates the boundary condition: normal flux {worst:.3e}"
        )
    src = apply_operator(omega, metric)
    recon = g_plus(src, grid, metric, t_start=float(omega.times[0]), t_final=float(omega.times[-1]))
    nr = omega.norm(metric)
    defect = (recon - omega).norm(metric)
    return {"defect": defect / nr if nr > 0 else defect}


def random_compact_history(
    grid: mesh.GridSpec,
    k: int,
    metric: mesh.MetricField,
    times: np.ndarray,
    window: tuple[float, float],
    rng: np.random.Generator,
) -> History:
    """Smooth admissible field supported inside the given time window.

    Two independent bump states ride two offset window profiles, so the
    field has genuine time structure while every slice keeps exact zero
    boundary flux.
    """
    times = np.asarray(times, dtype=float)
    wa, wb = window
    span = wb - wa
    n = grid.n
    fe_rows = np.zeros((len(times), mesh.cochain_size(grid, n - k, False)))
    fb_rows = np.zeros((len(times), mesh.cochain_size(grid, k, True)))
    for part in range(2):
        lo = wa + 0.15 * span * part
        hi = wb - 0.15 * span * (1 - part)
        profile = WindowProfile(lo, hi, ramp=(hi - lo) / 3.0)
        center = np.asarray(grid.lengths) * rng.uniform(0.46, 0.54, size=grid.dim)
        radius = float(rng.uniform(0.24, 0.3) * min(grid.lengths))
        state, _ = manufactured.bump_state(
            grid, k, metric, t=0.0, center=center, radius=radius, seed=int(rng.integers(2**31))
        )
        w = profile.value(times)
        fe_rows += w[:, None] * state.fe.vec[None, :]
        fb_rows += w[:, None] * state.fb.vec[None, :]
    return History(grid, k, times, fe_rows, fb_rows)


def _constant_cochain(grid: mesh.GridSpec, degree: int, dual: bool, amps) -> mesh.Cochain:
    """Cochain of a constant-coefficient form (one amplitude per component)."""
    c = mesh.zero_cochain(grid, degree, dual)
    amps = np.atleast_1d(np.asarray(amps, dtype=float))
    for i, (s, view) in enumerate(c.comps.items()):
        view[...] = float(amps[i % len(amps)]) * mesh.cell_measure(grid, s)
    return c


def _riding(*terms):
    """The source family ``t -> sum of profile(t) * row`` over ``(profile, row)`` terms.

    A :func:`system.vectorized` family: at a 1-D array of times each profile
    is evaluated once on the array and its term is an outer product, so
    every row is bit for bit the row of a one-time call.
    """

    @system.vectorized
    def fn(t):
        out = None
        for profile, row in terms:
            term = np.multiply.outer(profile(t), row)
            out = term if out is None else np.add(out, term, out=out)
        return out

    return fn


def random_source_pair(
    grid: mesh.GridSpec,
    k: int,
    metric: mesh.MetricField,
    window: tuple[float, float],
    rng: np.random.Generator,
    with_zeta: bool = True,
    with_harmonic: bool = False,
) -> SourcePair:
    """Admissible random source pair with analytically exact continuity.

    The alpha part is built from interior potentials so that charge
    continuity holds to roundoff: a divergence-free magnetic current plus,
    for k >= 2, a paired (je, jb) piece whose time profiles differentiate
    into each other.  The zeta part rides one window profile whose exact
    rate certifies flux continuity.  Requires a time-independent metric.

    With ``with_harmonic`` the currents gain constant-coefficient pieces
    whose time profiles have nonzero integral, so the causal solution is
    left with permanent constant modes after the window.  Constant
    cochains are coboundary-free, hence only possible on fully periodic
    grids, where they are killed by no continuity condition.
    """
    if metric.beta_dt is not None:
        raise ValueError("random sources require a time-independent lapse")
    if not np.isclose(metric.conf(0.37), metric.conf(1.73), rtol=1e-13, atol=0.0):
        raise ValueError("random sources require a time-independent conformal factor")
    if with_harmonic and not all(grid.periodic):
        raise ValueError("harmonic source content requires a fully periodic grid")
    n = grid.n
    wa, wb = window
    p = WindowProfile(wa, wb, ramp=(wb - wa) / 3.0)
    q = WindowProfile(wa + 0.1 * (wb - wa), wb - 0.05 * (wb - wa), ramp=(wb - wa) / 4.0)
    inv_beta = lambda t, *x: 1.0 / metric.beta(t, *x)

    def interior_potential(degree, dual):
        center = np.asarray(grid.lengths) * rng.uniform(0.42, 0.58, size=grid.dim)
        radius = float(rng.uniform(0.13, 0.19) * min(grid.lengths))
        return manufactured.bump_potential(grid, degree, dual, manufactured.bump_profile(center, radius), rng)

    kw = {}
    # divergence-free piece: beta * hodge(jb) is an exact coboundary
    x = mesh.d_sigma(interior_potential(n - k - 1, False))
    jb0 = mesh.hodge_inverse_sigma(mesh.multiply_scalar(x, inv_beta, 0.0), 0.0, metric)
    if with_harmonic:
        jb_h = _constant_cochain(grid, k - 1, True, rng.uniform(0.3, 1.0, size=4))
        weighted = mesh.multiply_scalar(mesh.hodge_sigma(jb_h, 0.0, metric), metric.beta, 0.0)
        if weighted.degree < grid.dim:
            leak = mesh.d_sigma(weighted).vec
            if _maxabs(leak) > SOURCE_COMPAT_TOL * (1.0 + _maxabs(jb_h.vec)):
                raise ValueError("harmonic magnetic current requires a spatially uniform lapse")
        jb0 = jb0 + jb_h
    jb0 = jb0.vec
    if k >= 2:
        # charged piece: (-1)^(n-k) d/dt(je/beta) balances d(beta*hodge(jb))
        jb1 = interior_potential(k - 1, True)
        curl = mesh.d_sigma(
            mesh.multiply_scalar(mesh.hodge_sigma(jb1, 0.0, metric), metric.beta, 0.0)
        )
        sgn = float((-1) ** (n - k) * system.source_sign(n, k))
        je0 = (sgn * mesh.multiply_scalar(curl, metric.beta, 0.0)).vec
        jb1 = jb1.vec
        kw["je"] = _riding((q.value, je0))
        kw["je_rate"] = _riding((q.rate, je0))
        kw["jb"] = _riding((p.value, jb0), (q.rate, jb1))
    else:
        kw["jb"] = _riding((p.value, jb0))
    if with_zeta:
        pot = interior_potential(k, True)
        inv = mesh.hodge_inverse_sigma(pot, 0.0, metric).vec
        if with_harmonic:
            ze_h = mesh.hodge_inverse_sigma(
                _constant_cochain(grid, k, True, rng.uniform(0.3, 1.0, size=4)), 0.0, metric
            ).vec
            kw["ze"] = _riding((p.rate, inv), (p.value, ze_h))
        else:
            kw["ze"] = _riding((p.rate, inv))
        if k <= n - 2:
            dpot = mesh.d_sigma(pot).vec
            kw["zb"] = _riding((p.value, dpot))
            kw["zb_rate"] = _riding((p.rate, dpot))
    return SourcePair(grid=grid, k=k, window=window, metric=metric, **kw)


def solution_history(
    grid: mesh.GridSpec,
    k: int,
    metric: mesh.MetricField,
    n_steps: int,
    seed: int = 0,
) -> History:
    """Homogeneous solution history from compatible random bump data, from ``grid.t0``."""
    rng = np.random.default_rng(seed)
    center = np.asarray(grid.lengths) * rng.uniform(0.42, 0.58, size=grid.dim)
    radius = float(rng.uniform(0.15, 0.22) * min(grid.lengths))
    state, _ = manufactured.bump_state(grid, k, metric, t=grid.t0, center=center, radius=radius, seed=seed)
    data = system.zero_sources(grid, k)
    return _integrate(grid, k, metric, data, grid.t0, n_steps, grid.dt, state0=state)


def random_solution_bundle(
    grid: mesh.GridSpec,
    metric: mesh.MetricField,
    n_steps: int,
    seed: int = 0,
    degrees=None,
) -> dict:
    """Random homogeneous solution bundle {degree: history} for pairings.

    Each degree is evolved from coboundary bump data.  On fully periodic
    grids the data additionally carries random constant modes in both
    components, the electric one times the lapse so that the electric
    constraint d(fe / beta) = 0 holds; those are the only field content a
    box without handles leaves visible to the pre-symplectic pairing, so
    bundles built here pair to machine zero unless every axis is periodic.

    Args:
        grid: spatial grid.
        metric: lapse and conformal factor.
        n_steps: history length in steps, from ``grid.t0``.
        seed: reproducible data seed.
        degrees: iterable of field degrees (default: all of 1..n-1).

    Returns:
        dict mapping each degree to its History.
    """
    n = grid.n
    if degrees is None:
        degrees = range(1, n)
    rng = np.random.default_rng(seed)
    t0 = grid.t0
    data_free = all(grid.periodic)
    out = {}
    for k in sorted(set(int(d) for d in degrees)):
        center = np.asarray(grid.lengths) * rng.uniform(0.42, 0.58, size=grid.dim)
        radius = float(rng.uniform(0.15, 0.22) * min(grid.lengths))
        state, _ = manufactured.bump_state(
            grid, k, metric, t=t0, center=center, radius=radius, seed=int(rng.integers(2**31))
        )
        fe, fb = state.fe, state.fb
        if data_free:
            constant = _constant_cochain(grid, n - k, False, rng.uniform(-1.0, 1.0, size=4))
            fe = fe + mesh.multiply_scalar(constant, metric.beta, t0)
            fb = fb + _constant_cochain(grid, k, True, rng.uniform(-1.0, 1.0, size=4))
        st = system.FieldState(t=t0, fe=fe, fb=fb, k=k)
        out[k] = _integrate(
            grid, k, metric, system.zero_sources(grid, k), t0, n_steps, grid.dt, state0=st
        )
    return out


def _smooth_components(c: mesh.Cochain, passes: int) -> mesh.Cochain:
    """Per-axis 1-2-1 averaging of every component array, repeated ``passes`` times.

    Softens the grid-scale tail of sampled data; coboundaries of raw bump
    samples carry enough content at the mesh cutoff that centred time
    differences of their evolutions are dominated by it.  Periodic axes
    wrap, bounded axes replicate the end values.
    """
    out = mesh.zero_cochain(c.grid, c.degree, c.dual)
    for v, target in zip(c.comps.values(), out.comps.values()):
        for _ in range(int(passes)):
            for ax in range(v.ndim):
                if c.grid.periodic[ax]:
                    lo = np.roll(v, 1, axis=ax)
                    hi = np.roll(v, -1, axis=ax)
                else:
                    body = v.take(range(v.shape[ax] - 1), axis=ax)
                    lo = np.concatenate([v.take([0], axis=ax), body], axis=ax)
                    body = v.take(range(1, v.shape[ax]), axis=ax)
                    hi = np.concatenate([body, v.take([-1], axis=ax)], axis=ax)
                v = 0.5 * v + 0.25 * (lo + hi)
        target[...] = v
    return out


def random_potential(
    grid: mesh.GridSpec,
    k: int,
    metric: mesh.MetricField,
    n_steps: int,
    seed: int = 0,
) -> History:
    """Potential history with vanishing dt-leg whose differential solves the system.

    Builds smoothed interior bump potentials, evolves the induced degree-k
    field data homogeneously, and accumulates the magnetic potential rows
    by trapezoidal quadrature of the starred electric history, so that
    ``history_differential`` of the result reproduces the evolved solution
    up to discretisation error.

    Args:
        grid: spatial grid.
        k: degree of the field the potential generates (the history itself
            has degree k - 1, which must stay inside the supported sector,
            so 2 <= k <= n - 1).
        metric: lapse and conformal factor.
        n_steps: history length in steps, from ``grid.t0``.
        seed: reproducible amplitude seed.

    Returns:
        History of degree k - 1.
    """
    n = grid.n
    if not 2 <= k <= n - 1:
        raise ValueError(f"generated field degree {k} outside the supported range [2, {n - 1}]")
    rng = np.random.default_rng(seed)
    t0 = grid.t0
    center = 0.5 * np.asarray(grid.lengths)
    radius = 0.3 * float(min(grid.lengths))
    prof = manufactured.bump_profile(tuple(center), radius)
    pot_b = _smooth_components(manufactured.bump_potential(grid, k - 1, True, prof, rng, t0), SMOOTHING_PASSES)
    pot_e = _smooth_components(manufactured.bump_potential(grid, n - k - 1, False, prof, rng, t0), SMOOTHING_PASSES)
    fb0 = mesh.d_sigma(pot_b)
    fe0 = mesh.multiply_scalar(mesh.d_sigma(pot_e), metric.beta, t0)
    sol = _integrate(
        grid,
        k,
        metric,
        system.zero_sources(grid, k),
        t0,
        n_steps,
        grid.dt,
        state0=system.FieldState(t=t0, fe=fe0, fb=fb0, k=k),
    )
    star_rows = mesh.hodge_flat(sol.le, sol.fe, mesh.sample_conf(metric, sol.times))
    ab_rows = np.empty_like(star_rows)
    ab_rows[0] = pot_b.vec
    ab_rows[1:] = ab_rows[0] + np.cumsum(
        0.5 * grid.dt * (star_rows[:-1] + star_rows[1:]), axis=0
    )
    ae_rows = np.zeros((len(sol.times), mesh.cochain_size(grid, n - (k - 1), False)))
    return History(grid, k - 1, sol.times, ae_rows, ab_rows)


def exact_sequence_suite(
    grid: mesh.GridSpec,
    metric: mesh.MetricField,
    trials: int = 3,
    seed: int = 0,
    k: int | None = None,
) -> dict:
    """Defects of the three exactness statements for the causal propagator.

    (a) ``causal(D omega)`` vanishes for compact admissible omega (both
    one-sided solves reproduce omega, so their difference cancels);
    (b) ``D(causal(src))`` vanishes for admissible src (the causal image is
    made of homogeneous solutions); (c) a homogeneous solution splits
    through a cutoff into past/future parts whose one-sided reconstructions
    sum back to the solution.

    Returns:
        dict with the worst relative defect per statement plus per-trial
        values, all measured in spacetime L2 norms.
    """
    rng = np.random.default_rng(seed)
    if k is None:
        k = min(2, grid.n - 1)
    dt = grid.dt
    t0 = grid.t0
    steps = int(np.clip(round(0.6 / dt), 24, 400))
    span = steps * dt
    times = t0 + dt * np.arange(steps + 1)
    window = (t0 + span / 6.0, t0 + 5.0 * span / 6.0)
    out = {"defect_a": [], "defect_b": [], "defect_c": []}
    for _ in range(max(1, trials)):
        omega = random_compact_history(grid, k, metric, times, window, rng)
        src = apply_operator(omega, metric)
        spread = causal(src, grid, metric, t_start=t0, t_final=float(times[-1]))
        out["defect_a"].append(spread.norm(metric) / omega.norm(metric))

        pair = random_source_pair(grid, k, metric, window, rng)
        h = causal(pair, grid, metric, t_start=t0, t_final=float(times[-1]))
        resid = apply_operator(h, metric)
        src_norm = sample_sources(pair, h.times).norm(metric)
        out["defect_b"].append(resid.norm(metric) / src_norm)

        sol = solution_history(grid, k, metric, steps, seed=int(rng.integers(2**31)))
        chi = CutoffProfile(t0 + span / 2.0, span / 4.0)
        fut = cutoff_sources(sol, chi, metric)
        past = cutoff_sources(sol, chi, metric, complement=True)
        lead = g_plus(fut, grid, metric, t_start=t0, t_final=float(times[-1]) + 2 * dt)
        trail = g_minus(past, grid, metric, t_start=t0 - 2 * dt, t_final=float(times[-1]))
        recon = lead.restrict(0, steps + 1) + trail.restrict(2, steps + 3)
        out["defect_c"].append((recon - sol).norm(metric) / sol.norm(metric))
    report = {key: float(np.max(vals)) for key, vals in out.items()}
    report["per_trial"] = {key: [float(v) for v in vals] for key, vals in out.items()}
    report["trials"] = int(max(1, trials))
    return report


# ---------------------------------------------------------------------------
# pre-symplectic pairings


def _by_degree(f) -> dict:
    """A {degree: item} bundle from one History or source, a sequence of them, or a dict."""
    if isinstance(f, (History, system.SourceData)):
        return {f.k: f}
    if isinstance(f, dict):
        for key, item in f.items():
            if key != item.k:
                raise ValueError(f"bundle key {key} does not match the degree {item.k} of its entry")
        return dict(f)
    out = {}
    for item in f:
        if item.k in out:
            raise ValueError(f"duplicate degree {item.k} in the bundle")
        out[item.k] = item
    return out


def _bundle_times(bundle: dict, grid) -> np.ndarray:
    times = None
    for h in bundle.values():
        if not h.grid.compatible(grid):
            raise ValueError("histories on mismatched grids")
        if times is None:
            times = h.times
        elif not _same_times(times, h.times):
            raise ValueError("histories on mismatched time samples")
    if times is None:
        raise ValueError("empty solution bundle")
    return times


def _currents(b1: dict, b2: dict, times: np.ndarray, metric) -> np.ndarray:
    """Boundary current of the cutoff pairing at every slice.

    Couples degree k of the first bundle against degrees k-1 and k+1 of the
    second; the lapse weight is 1/beta because the dt-leg fiber sign
    contributes ``DT_LEG_SIGN / beta^2`` against the lapse-weighted volume.
    """
    conf = mesh.sample_conf(metric, times)
    total = np.zeros(len(times))
    for k in sorted(b1):
        h1 = b1[k]
        if k - 1 in b2:
            lb = h1.le.star
            star_fe1 = mesh.hodge_flat(h1.le, h1.fe, conf)
            weight = 1.0 / mesh.sample_lapse(lb, metric, times)
            total += mesh.pair_flat(lb, star_fe1, b2[k - 1].fb, conf, weight)
        if k + 1 in b2:
            star_fe2 = mesh.hodge_flat(b2[k + 1].le, b2[k + 1].fe, conf)
            weight = 1.0 / mesh.sample_lapse(h1.lb, metric, times)
            total -= mesh.pair_flat(h1.lb, h1.fb, star_fe2, conf, weight)
    return total


def presymplectic(f1, f2, chi: CutoffProfile, grid: mesh.GridSpec, metric: mesh.MetricField) -> float:
    """Pre-symplectic pairing of two solution bundles through a time cutoff.

    Splits the first bundle into past/future parts with ``chi``, applies
    the first-order operator to the future part, and pairs the result with
    the second bundle over spacetime.  With a cutoff depending on t alone
    this collapses to a Stieltjes integral of a slice current against
    d(chi); the current couples each degree k only with degrees k-1 and
    k+1, so single-degree bundles pair to zero identically.  Along
    homogeneous solutions the current is conserved, which is what makes
    the value independent of the cutoff.

    Args:
        f1, f2: History, sequence of History, or {degree: History} dict.
        chi: time cutoff whose ramp must lie inside the common time range.
        grid: common spatial grid.
        metric: lapse and conformal factor.

    Returns:
        The pairing value (skew-symmetric in the two bundles).
    """
    b1, b2 = _by_degree(f1), _by_degree(f2)
    times = _bundle_times(b1, grid)
    if not _same_times(times, _bundle_times(b2, grid)):
        raise ValueError("histories on mismatched time samples")
    lo, hi = chi.t_c - chi.width / 2.0, chi.t_c + chi.width / 2.0
    if lo < times[0] - 1e-9 or hi > times[-1] + 1e-9:
        raise ValueError("cutoff ramp leaves the history time range")
    current = _currents(b1, b2, times, metric)
    steps = np.diff(chi.value(times))
    return float(np.sum(steps * 0.5 * (current[1:] + current[:-1])))


def _pair_against_history(data: system.SourceData, h: History, metric, kind: str) -> float:
    """Spacetime pairing of one source leg against a matching-degree history.

    ``kind`` selects the alpha leg (je/jb against a degree k-1 history) or
    the zeta leg (ze/zb against a degree k+1 history).  The electric terms
    carry the dt-leg fiber sign over beta^2 against the beta-weighted
    volume, the magnetic terms the plain beta weight.
    """
    dual_fn, prim_fn = (data.jb, data.je) if kind == "alpha" else (data.zb, data.ze)
    le, lb, conf = h.le, h.lb, mesh.sample_conf(metric, h.times)
    vals = np.zeros(len(h.times))
    if dual_fn is not None:
        beta_b = mesh.sample_lapse(lb, metric, h.times)
        vals += mesh.pair_flat(lb, system.family_rows(dual_fn, h.times), h.fb, conf, beta_b)
    if prim_fn is not None:
        inv_beta_e = 1.0 / mesh.sample_lapse(le, metric, h.times)
        vals += DT_LEG_SIGN * mesh.pair_flat(le, system.family_rows(prim_fn, h.times), h.fe, conf, inv_beta_e)
    return float(np.trapezoid(vals, h.times))


def presymplectic_source_form(src1, src2, grid: mesh.GridSpec, metric: mesh.MetricField, t_final=None) -> float:
    """Source-side pre-symplectic form: pair src1 against causal(src2).

    The degree-k component of a source bundle contributes through its
    alpha leg (degree k-1) and zeta leg (degree k+1), each paired over
    spacetime with the causal solution of the matching degree in the
    second bundle.  Agrees with :func:`presymplectic` applied to the two
    causal solution bundles up to discretization error.
    """
    b1, b2 = _by_degree(src1), _by_degree(src2)
    dt = grid.dt
    if t_final is None:
        hi = max(pair.window[1] for pair in list(b1.values()) + list(b2.values()))
        t_final = hi + SUPPORT_MARGIN_SLICES * dt
    sols = {k: causal(pair, grid, metric, t_final=t_final) for k, pair in b2.items()}
    total = 0.0
    for k, pair in b1.items():
        if k - 1 in sols:
            total += _pair_against_history(pair, sols[k - 1], metric, "alpha")
        if k + 1 in sols:
            total += _pair_against_history(pair, sols[k + 1], metric, "zeta")
    return float(total)


def history_differential(a: History, metric: mesh.MetricField) -> History:
    """Discrete spacetime differential of a potential history.

    For a degree-j history (dt ^ star(a_e) + a_b) the differential has
    magnetic part d(a_b) and electric part star-inverse of
    (d/dt a_b - d(star a_e)), assembled with centered time differences.
    """
    grid, j = a.grid, a.k
    n = grid.n
    if j + 1 > n - 1:
        raise ValueError("differential would leave the supported field degrees")
    le, lb, conf = a.le, a.lb, mesh.sample_conf(metric, a.times)
    fb_dot = np.gradient(a.fb, a.dt, axis=0, edge_order=2)
    x = fb_dot - mesh.d_flat(le.star, mesh.hodge_flat(le, a.fe, conf))
    fe_rows = mesh.hodge_inverse_flat(lb, x, conf)
    return History(grid, j + 1, a.times, fe_rows, mesh.d_flat(lb, a.fb))


def _restrict_to(h: History, times: np.ndarray) -> History:
    """The history restricted to a contiguous sub-range of its times."""
    i0 = int(np.searchsorted(h.times, times[0] - 0.5 * h.dt))
    i1 = i0 + len(times)
    if i1 > len(h.times) or not _same_times(h.times[i0:i1], times):
        raise ValueError("history does not cover the requested time samples")
    return h.restrict(i0, i1)


def degeneracy_forward_check(
    a_potential,
    grid: mesh.GridSpec,
    metric: mesh.MetricField,
    probes,
    solution_tol: float = DEGENERACY_TOL,
) -> dict:
    """Forward degeneracy of the pairing: exact fields pair to zero.

    Differentiates the potential bundle into a field bundle F, verifies F
    solves the homogeneous system to ``solution_tol``, and evaluates the
    pre-symplectic pairing of every probe solution against F through a
    cutoff at mid-range, ``DEFAULT_WIDTH_STEPS`` time steps wide.  The first
    and last two slices of the differentiated bundle are dropped before
    gating and pairing: the centred reconstruction is second-order clean
    only away from the one-sided end stencils.  Probes are restricted to
    the surviving time range, so they must cover it on the same samples.

    Args:
        a_potential: History or bundle of potential histories (degree j
            potentials produce degree j+1 fields).
        probes: iterable of History/bundles of homogeneous solutions; a
            probe sees F only through adjacent degrees.
        solution_tol: relative residual allowed for D(dA).

    Returns:
        dict with the pairing values, their norm-relative sizes, and the
        field's solution residual.

    Raises:
        ValueError: when the differentiated field fails the solution
            tolerance.
    """
    a_bundle = _by_degree(a_potential)
    f_bundle = {}
    for a in a_bundle.values():
        f = history_differential(a, metric)
        f_bundle[f.k] = f.restrict(2, len(f.times) - 2)
    times = _bundle_times(f_bundle, grid)
    f_norm = math.sqrt(sum(f.norm(metric) ** 2 for f in f_bundle.values()))
    residual = 0.0
    for f in f_bundle.values():
        resid = apply_operator(f, metric)
        residual = max(residual, resid.norm(metric) / f_norm if f_norm > 0 else 0.0)
    if residual > solution_tol:
        raise ValueError(
            f"potential field fails the solution tolerance: residual {residual:.3e}"
        )
    chi = CutoffProfile(float(0.5 * (times[0] + times[-1])), DEFAULT_WIDTH_STEPS * grid.dt)
    values, rels = [], []
    for probe in probes:
        p_bundle = {k: _restrict_to(p, times) for k, p in _by_degree(probe).items()}
        value = presymplectic(p_bundle, f_bundle, chi, grid, metric)
        p_norm = math.sqrt(sum(p.norm(metric) ** 2 for p in p_bundle.values()))
        scale = p_norm * f_norm
        values.append(float(value))
        rels.append(abs(value) / scale if scale > 0 else 0.0)
    return {
        "values": values,
        "relative": rels,
        "max_relative": float(max(rels)) if rels else 0.0,
        "field_residual": float(residual),
    }
