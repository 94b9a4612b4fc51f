"""Retarded, advanced, and causal solution operators with spacetime pairings.

The first-order operator D sends a degree-k field to the source pair
(delta omega, d omega); :func:`apply_operator` evaluates it on histories
through ``system.slots``, the split operator's one home.  Zero-data marches
started from a slice on either side of a compactly supported source realize
the two one-sided inverses of D; their difference maps source pairs onto
homogeneous solutions.  Dense snapshot histories feed the right-inverse and
exact-sequence defect suites and a pre-symplectic pairing evaluated through a
smooth time cutoff.

A sourced march tabulates its sources once per ``SOURCE_TABLE_STEPS`` steps,
with one batched ``system.rhs_sources`` call on the distinct RK4 stage times
of those steps; the source families built here (the linear-in-time
interpolants of a :class:`SourceHistory` and the window-profile families of
:func:`random_source_pair`) are ``system.vectorized``, each batched row equal
bit for bit to its one-time row.  Every march is a block of initial states
sharing one source family and one generator, marched as one ``(B, N)``
array; a single solve is a block of one, and
:func:`random_solution_bundles` marches each degree of many bundles as one
block, every row bit for bit its own march.  A march yields its slices as
it reaches them (``_march``); storing them as histories is one consumer,
and :func:`causal`, the cutoff split of the exact-sequence suite and
:func:`bundle_currents` fold one march into what they keep, slice by slice.
:func:`apply_operator` works in slabs of the same ``SOURCE_TABLE_STEPS``
slices, :func:`cutoff_sources` is that one pass with the cutoff's product
rule applied slab by slab, and the pairing currents are summed in runs of
that many slices.

The pairing of two bundles is a Stieltjes sum of a slice current against
d(chi).  The current does not depend on the cutoff, so
:func:`pairing_currents` computes it once per ordered pair, from one Hodge
image per history and run of slices, and :func:`cutoff_pairing` integrates
it against any cutoff; :func:`presymplectic` is the two composed for one
pair.  :func:`bundle_currents` streams random bundles into their currents
and norms without storing them.

Histories are time-major float64 arrays of cochain vectors at uniformly
spaced slice times; fields (:class:`History`) and sources
(:class:`SourceHistory`) share one row base, which checks every family's rows
where they enter.  Since the pairing structure couples a degree-k history
only with histories of degrees k-1 and k+1, the multi-degree phase space is
realized as bundles: ``{degree: History}`` dicts of single-degree histories,
a single History being a bundle of one.
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
# The one run length of the history code: a march tabulates its sources once per
# run of this many steps (so it holds at most 3 * 32 stage rows of sources), and
# apply_operator and the pairing currents work on runs of this many slices.
SOURCE_TABLE_STEPS = 32
# Rows held by bundle_currents: a chunk of SOURCE_TABLE_STEPS slices of every
# bundle and degree, or fewer slices where that would exceed this many bytes.
_CHUNK_BYTES = 16 * 2**20

# Fiber sign of a dt-leg in the spacetime metric, from the exterior algebra's
# Lorentzian convention (axis 0 carries the negative diagonal entry).
DT_LEG_SIGN = exterior.lorentzian(2).diag[0]


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
        return exterior.worst([exterior.maxabs(rows) for _, rows, _ in self._families()])

    def norm(self, metric: mesh.MetricField) -> float:
        """Spacetime L2 norm: trapezoidal time quadrature of the slice pairings of every family."""
        conf = mesh.sample_conf(metric, self.times)
        return _norm_of(_norm_density([(lay, rows) for _, rows, lay in self._families()], conf), self.times)


def _norm_density(families, conf) -> np.ndarray:
    """The slice pairing of each row with itself, summed over ``(layout, rows)`` families."""
    vals = np.zeros(len(conf))
    for lay, rows in families:
        vals += mesh.pair_flat(lay, rows, rows, conf)
    return vals


def _norm_of(density: np.ndarray, times: np.ndarray) -> float:
    """The spacetime L2 norm of a slice density: the root of its trapezoidal time integral."""
    return float(np.sqrt(max(np.trapezoid(density, times), 0.0)))


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

    def __isub__(self, other: "History") -> "History":
        self._compat(other)
        np.subtract(self.fe, other.fe, out=self.fe)
        np.subtract(self.fb, other.fb, out=self.fb)
        return self


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
        probes = np.array([wa + (wb - wa) * frac for frac in system.CONTINUITY_PROBES])
        for t, defect in zip(probes, self._admissibility_defects(probes)):
            if not defect <= SOURCE_COMPAT_TOL:
                raise ValueError(
                    f"source admissibility residual {defect:.3e} at t={t:.6g} "
                    f"exceeds {SOURCE_COMPAT_TOL:.1e}"
                )

    def _admissibility_defects(self, times: np.ndarray) -> np.ndarray:
        """The worst admissibility residual at each time, the families sampled once on all.

        A time at which any family or rate has a non-finite entry reads inf or nan.
        """
        metric = self.metric if self.metric is not None else mesh.unit_metric()
        families = sample_sources(self, times)._families()
        rates = [system.family_rows(fn, times) for fn in (self.je_rate, self.zb_rate) if fn is not None]
        worst = np.zeros(len(times))
        for r in rates + [rows for _, rows, _ in families]:
            worst[~np.isfinite(r).all(axis=-1)] = np.inf
        # charge and flux continuity, and d zb = 0
        for r in system.continuity_residuals(self, metric, times).values():
            if r is not None:
                worst = np.maximum(worst, np.max(np.abs(r), axis=-1, initial=0.0))
        # no normal flux on jb, zb and star(je), no tangential trace of ze
        for name, rows, lay in families:
            if name == "je":
                rows, lay = mesh.hodge_flat(lay, rows, mesh.sample_conf(metric, times)), lay.star
            worst = np.maximum(worst, mesh.face_maxabs(lay, rows))
        return worst


def _as_source_data(src) -> system.SourceData:
    data = src.data() if isinstance(src, SourceHistory) else src
    if not isinstance(data, system.SourceData):
        raise TypeError(f"unsupported source object {type(src).__name__}")
    return data


# ---------------------------------------------------------------------------
# one-sided and causal solution operators


def _march(grid, metric, data, t_start, n_steps, dt, states):
    """March a block of initial states as one ``(B, N)`` array, yielding each slice as it is reached.

    ``states`` holds a ``system.FieldState`` of degree ``data.k`` or None
    (zero data) per row; every row shares the sources ``data`` and is bit
    for bit the march of its state alone, since the RK4 step acts on each
    row elementwise.  dt may be negative.  Sources with a ``jb`` or a
    ``ze`` family are tabulated for ``SOURCE_TABLE_STEPS`` steps at a time
    (``Generator.tabulate``), from the same step times the march takes;
    other data have no source terms to tabulate.

    Yields ``(at, fe, fb)`` for every slice in march order: ``at`` is the
    slice's index on ascending times (``n_steps - i`` for the i-th slice of
    a backward march), and ``fe``/``fb`` are its ``(B, N)`` rows: fb, and fe
    at a unit lapse, are views of the generator's rows, which the march
    overwrites once the consumer asks for the next slice.  A slice's rows
    are therefore valid until then: a consumer copies or accumulates them
    at once.  Nothing is stored, so a consumer that keeps no rows holds one
    slice.  The states are loaded straight into the generator's row y0
    (``Generator.load``), and the march holds the generator's rows only.
    """
    t_end = t_start + n_steps * dt
    evolution.require_stable_dt(grid, metric, dt, (min(t_start, t_end), max(t_start, t_end)))
    gen = evolution.Generator(grid, metric, data, t_start)
    y = gen.load(states)
    sourced = data.jb is not None or data.ze is not None
    times = _march_times(t_start, n_steps, dt)
    for i in range(n_steps + 1):
        t = float(times[i])
        yield (i if dt > 0 else n_steps - i), gen.electric(t, y[:, : gen.nw]), y[:, gen.nw :]
        if i < n_steps:
            if sourced and i % SOURCE_TABLE_STEPS == 0:
                gen.tabulate([float(s) for s in times[i : min(i + SOURCE_TABLE_STEPS, n_steps)]], dt)
            y = evolution._rk4_step(t, y, gen, dt)


def _march_times(t_start, n_steps, dt) -> np.ndarray:
    """The slice times of a march, in march order."""
    return t_start + dt * np.arange(n_steps + 1)


def _march_block(grid, metric, data, t_start, n_steps, dt, states) -> list:
    """The march of a block of initial states (:func:`_march`) stored whole: one History per state.

    The history budget applies here, where the rows are stored.  A
    backward march (dt < 0) writes slice i at index ``n_steps - i``, so its
    rows come out in ascending time without a copy.
    """
    if n_steps > MAX_HISTORY_STEPS:
        raise ValueError(f"history of {n_steps} steps exceeds the {MAX_HISTORY_STEPS}-step budget")
    if max(grid.cells_per_axis) > MAX_HISTORY_CELLS:
        raise ValueError(f"grid exceeds the {MAX_HISTORY_CELLS}-cell history budget")
    k = data.k
    fe_rows = np.empty((len(states), n_steps + 1, mesh.cochain_size(grid, grid.n - k, False)))
    fb_rows = np.empty((len(states), n_steps + 1, mesh.cochain_size(grid, k, True)))
    for at, fe, fb in _march(grid, metric, data, t_start, n_steps, dt, states):
        fe_rows[:, at] = fe
        fb_rows[:, at] = fb
    times = _march_times(t_start, n_steps, dt)
    if dt < 0:
        times = times[::-1].copy()
    return [History(grid, k, times, fe, fb) for fe, fb in zip(fe_rows, fb_rows)]


def _solve_march(src, grid, metric, t_start, t_final, backward=False) -> tuple:
    """The arguments of the zero-data march of :func:`g_plus`, or of :func:`g_minus` when ``backward``.

    Everything :func:`_march` takes but the states.
    """
    data = _as_source_data(src)
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
    if backward:
        return grid, metric, data, t_end, n_steps, -dt
    return grid, metric, data, t_start, n_steps, dt


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
            either end of the time range, or the sources are declared on
            another grid (``evolution.Generator``).
    """
    return _march_block(*_solve_march(src, grid, metric, t_start, t_final), [None])[0]


def g_minus(src, grid: mesh.GridSpec, metric: mesh.MetricField, t_start=None, t_final=None) -> History:
    """Backward zero-data solve: time mirror of :func:`g_plus`.

    Zero data is imposed on the latest slice and the march runs backward,
    so the output vanishes identically after the source window; the
    returned history is in ascending time order.
    """
    return _march_block(*_solve_march(src, grid, metric, t_start, t_final, backward=True), [None])[0]


def causal(src, grid: mesh.GridSpec, metric: mesh.MetricField, t_start=None, t_final=None) -> History:
    """Causal propagator: forward minus backward solve, a homogeneous solution.

    The backward march is subtracted from the forward solve's rows slice by
    slice as it runs, so it is never stored.
    """
    return _minus_backward(g_plus(src, grid, metric, t_start, t_final), src, grid, metric, t_start, t_final)


def _minus_backward(plus: History, src, grid, metric, t_start, t_final) -> History:
    """``plus`` minus :func:`g_minus` of the same arguments, subtracted in its rows as the march runs."""
    for at, fe, fb in _march(*_solve_march(src, grid, metric, t_start, t_final, backward=True), [None]):
        plus.fe[at] -= fe[0]
        plus.fb[at] -= fb[0]
    return plus


# ---------------------------------------------------------------------------
# the discrete first-order operator on histories


def apply_operator(h: History, metric: mesh.MetricField) -> SourceHistory:
    """Discrete first-order operator on a history: the source pair it solves.

    Reassembles (delta omega, d omega) from the split equations, taking time
    derivatives by centered differences (one-sided second-order stencils at
    the ends).  Rows where the input is bit-zero through the difference
    stencil come out exactly zero, so compact temporal support survives
    with one slice of smearing per side.

    The operator runs over slabs of ``SOURCE_TABLE_STEPS`` slices and
    writes each slab into the preallocated source rows, so its temporaries
    span one slab and not the history.  A slab's time differences read a
    one-slice halo on each side (three slices at least, for the end
    stencils): every slice is differenced as ``np.gradient`` differences the
    whole history, and every other operation acts per slice, so the rows are
    bit for bit those of the whole-history expressions.  Each slab samples
    the lapse on its own slices (one row when it is static).
    :func:`cutoff_sources` is the same pass with the cutoff applied per slab.

    Returns:
        SourceHistory on the same times, with the support window inferred
        from the nonzero rows (one slice of interpolation pad each side).
    """
    return _operator(h, metric, None)


def cutoff_sources(h: History, chi: CutoffProfile, metric: mesh.MetricField, complement: bool = False) -> SourceHistory:
    """Sources of the cutoff-split history chi*h, by the exact product rule.

    Splitting a field with a time cutoff adds a ramp current to the scaled
    sources: D(chi*omega) = chi*(D omega) + chi'*(R omega), where R feeds
    the electric part into the magnetic current slot and the magnetic part
    into the electric defect slot.  Using the analytic cutoff rate here
    avoids differencing through the ramp, which would otherwise dominate
    every defect budget.  It is :func:`apply_operator`'s one slab pass: each
    slab's rows are scaled by chi, and gain their ramp terms, in place, so
    no temporary spans the history, and the rows are bit for bit those of
    the product rule applied to the whole history.

    Args:
        h: the history to split.
        chi: the cutoff profile.
        metric: lapse and conformal factor.
        complement: split with 1 - chi instead (the past-supported part).
    """
    values, rates = chi.value(h.times), chi.rate(h.times)
    return _operator(h, metric, (1.0 - values, -rates) if complement else (values, rates))


def _operator(h: History, metric: mesh.MetricField, cut: tuple | None) -> SourceHistory:
    """D on a history in slabs; with ``cut`` = (values, rates) of a cutoff on
    ``h.times``, D of the cut history by the product rule."""
    grid, k, T = h.grid, h.k, len(h.times)
    n = grid.n
    lw, lb, conf = h.le, h.lb, mesh.sample_conf(metric, h.times)
    ssign, esign = float(system.source_sign(n, k)), float((-1) ** (n - k))
    jb, ze = np.empty((T, lw.size)), np.empty((T, lb.size))
    je = np.empty((T, lw.up.size)) if k >= 2 else None
    zb = np.empty((T, lb.up.size)) if k <= n - 2 else None
    for a in range(0, T, SOURCE_TABLE_STEPS):
        b = min(a + SOURCE_TABLE_STEPS, T)
        lo, hi = max(a - 1, 0), min(b + 1, T)
        lo = max(min(lo, hi - 3), 0)  # a last slab of one slice still reads the three of the end stencil
        core, c, times = slice(a - lo, b - lo), conf[a:b], h.times[a:b]
        beta_w = mesh.sample_lapse(lw, metric, h.times[lo:hi])
        w = h.fe[lo:hi] * (1.0 / beta_w)
        w_dot = np.gradient(w, h.dt, axis=0, edge_order=2)[core]
        fb_dot = np.gradient(h.fb[lo:hi], h.dt, axis=0, edge_order=2)[core]
        w, fb = w[core], h.fb[a:b]
        beta_w = beta_w if beta_w.ndim == 1 else beta_w[core]
        slot_e, slot_b = system.slots(lw, lb, w, fb, w_dot, fb_dot, beta_w, mesh.sample_lapse(lb, metric, times), c)
        np.multiply(mesh.hodge_inverse_flat(lw, slot_e, c), ssign, out=jb[a:b])
        ze[a:b] = mesh.hodge_inverse_flat(lb, slot_b, c)
        if je is not None:
            dw = mesh.d_flat(lw, w)
            np.multiply(np.multiply(dw, mesh.sample_lapse(lw.up, metric, times), out=dw), esign, out=je[a:b])
        if zb is not None:
            zb[a:b] = mesh.d_flat(lb, fb)
        if cut is not None:
            values, rates = cut[0][a:b, None], cut[1][a:b, None]
            for rows in (je, jb, ze, zb):
                if rows is not None:
                    np.multiply(rows[a:b], values, out=rows[a:b])
            ramp_jb = mesh.hodge_inverse_flat(lw, h.fe[a:b] * (1.0 / beta_w**2), c)
            np.multiply(ramp_jb, ssign, out=ramp_jb)
            np.add(jb[a:b], np.multiply(ramp_jb, rates, out=ramp_jb), out=jb[a:b])
            ramp_ze = mesh.hodge_inverse_flat(lb, fb, c)
            np.add(ze[a:b], np.multiply(ramp_ze, rates, out=ramp_ze), out=ze[a:b])

    window = _support_window(h.times, (je, jb, ze, zb))
    return SourceHistory(grid, k, h.times, window, je, jb, ze, zb)


def _support_window(times, families) -> tuple[float, float]:
    """Temporal support of row families, padded by one interpolation slice.

    A slice is in the support when a row holds a nonzero (or NaN) entry,
    found from the row maxima and minima, so no array of the rows' size is made.
    """
    T = len(times)
    held = np.zeros(T, dtype=bool)
    for rows in families:
        if rows is not None and rows.shape[1]:
            held |= (rows.max(axis=1) != 0.0) | (rows.min(axis=1) != 0.0)
    nz = np.flatnonzero(held)
    if not len(nz):
        # empty support: report a degenerate mid-range window so the
        # slice-margin requirement stays vacuously satisfiable
        return (float(times[T // 2]), float(times[T // 2]))
    return (float(times[max(nz[0] - 1, 0)]), float(times[min(nz[-1] + 1, T - 1)]))


def sample_sources(data: system.SourceData, times: np.ndarray) -> SourceHistory:
    """Snapshot a source family onto history times (for norms and defects)."""
    times = np.asarray(times, dtype=float)
    families = (data.je, data.jb, data.ze, data.zb)
    return SourceHistory(data.grid, data.k, times, data.window, *(system.family_rows(fn, times) for fn in families))


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
    recon = _forward_of_image(omega, grid, metric)[1]  # D omega is freed here
    nr = omega.norm(metric)
    recon -= omega
    defect = recon.norm(metric)
    return {"defect": defect / nr if nr > 0 else defect}


def _forward_of_image(omega: History, grid: mesh.GridSpec, metric: mesh.MetricField) -> tuple:
    """``(D omega, G+ D omega)`` on omega's times; ValueError when omega carries boundary flux."""
    scale = 1.0 + omega.maxabs()
    lw, lb, conf = omega.le, omega.lb, mesh.sample_conf(metric, omega.times)
    legs = (mesh.face_maxabs(lb, omega.fb), mesh.face_maxabs(lw.star, mesh.hodge_flat(lw, omega.fe, conf)))
    worst = np.max(np.concatenate(legs))
    if not worst <= SOURCE_COMPAT_TOL * scale:
        raise ValueError(f"history violates the boundary condition: normal flux {worst:.3e} at scale {scale:.3e}")
    src = apply_operator(omega, metric)
    return src, g_plus(src, grid, metric, t_start=float(omega.times[0]), t_final=float(omega.times[-1]))


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
            if not exterior.maxabs(leak) <= SOURCE_COMPAT_TOL * (1.0 + exterior.maxabs(jb_h.vec)):
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
    return _march_block(grid, metric, system.zero_sources(grid, k), grid.t0, n_steps, grid.dt, [state])[0]


def random_solution_bundles(
    grid: mesh.GridSpec,
    metric: mesh.MetricField,
    n_steps: int,
    seeds,
    degrees=None,
) -> list:
    """Random homogeneous solution bundles {degree: history} for pairings, one per seed.

    Each degree is evolved from coboundary bump data.  On fully periodic
    grids the data additionally carries random constant modes in both
    components, the electric one times the lapse so that the electric
    constraint d(fe / beta) = 0 holds; those are the only field content a
    box without handles leaves visible to the pre-symplectic pairing, so
    bundles built here pair to machine zero unless every axis is periodic.

    Every bundle's data is drawn first (:func:`_bundle_states`), and then
    each degree of all bundles is marched as one block, so every history is
    bit for bit the one-seed bundle's.

    Args:
        grid: spatial grid.
        metric: lapse and conformal factor.
        n_steps: history length in steps, from ``grid.t0``.
        seeds: reproducible data seeds, one bundle each.
        degrees: iterable of field degrees (default: all of 1..n-1).

    Returns:
        list of dicts mapping each degree to its History, in seed order.
    """
    seeds = list(seeds)
    states = _bundle_states(grid, metric, seeds, degrees)
    marched = {
        k: _march_block(grid, metric, system.zero_sources(grid, k), grid.t0, n_steps, grid.dt, rows)
        for k, rows in states.items()
    }
    return [{k: histories[b] for k, histories in marched.items()} for b in range(len(seeds))]


def _bundle_states(grid, metric, seeds, degrees) -> dict:
    """The initial states of :func:`random_solution_bundles`: {degree: one state per seed}, degrees ascending.

    Each seed's data is drawn in ascending degree order.
    """
    n = grid.n
    if degrees is None:
        degrees = range(1, n)
    t0 = grid.t0
    data_free = all(grid.periodic)
    states = {k: [] for k in sorted(set(int(d) for d in degrees))}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for k, rows in states.items():
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
            rows.append(system.FieldState(t=t0, fe=fe, fb=fb, k=k))
    return states


def bundle_currents(
    grid: mesh.GridSpec,
    metric: mesh.MetricField,
    n_steps: int,
    seeds,
    pairs,
) -> tuple:
    """The pairing currents and norms of :func:`random_solution_bundles`, with no history stored.

    The bundles' degree blocks (every degree in 1..n-1) are marched in
    lockstep, and every ``SOURCE_TABLE_STEPS`` slices of all of them (fewer
    where their rows would exceed ``_CHUNK_BYTES``) feed the accumulator
    behind :func:`pairing_currents`, so the values are bit for bit
    ``pairing_currents(bundles, pairs, grid, metric)`` and the
    root-sum-square of each bundle's ``History.norm``, while the rows held
    are one chunk.

    Returns:
        ``(times, currents, norms)``: the slice times, a dict mapping each
        ordered pair to its current, and one norm per bundle, in seed order.
    """
    seeds = list(seeds)
    states = _bundle_states(grid, metric, seeds, None)
    times = _march_times(grid.t0, n_steps, grid.dt)
    bundles = range(len(seeds))
    sums = _SliceSums(grid, metric, times, [set(states)] * len(seeds), pairs, norms=True)
    # one chunk of (fe, fb) rows per degree, indexed (bundle, slice, entry)
    sizes = {k: (mesh.cochain_size(grid, grid.n - k, False), mesh.cochain_size(grid, k, True)) for k in states}
    slice_bytes = 8 * len(seeds) * sum(map(sum, sizes.values()))
    length = max(1, min(SOURCE_TABLE_STEPS, _CHUNK_BYTES // slice_bytes))
    chunk = {k: tuple(np.empty((len(seeds), length, size)) for size in pair) for k, pair in sizes.items()}
    marches = [
        _march(grid, metric, system.zero_sources(grid, k), grid.t0, n_steps, grid.dt, rows)
        for k, rows in states.items()
    ]
    for slices in zip(*marches):
        at = slices[0][0]
        c = at % length
        for (fe_rows, fb_rows), (_, fe, fb) in zip(chunk.values(), slices):
            fe_rows[:, c] = fe
            fb_rows[:, c] = fb
        if c == length - 1 or at == n_steps:
            rows = {(b, k): (fe[b, : c + 1], fb[b, : c + 1]) for k, (fe, fb) in chunk.items() for b in bundles}
            sums.add(at - c, rows)
    norms = [float(np.sqrt(sum(_norm_of(sums.densities[b, k], times) ** 2 for k in states))) for b in bundles]
    return times, sums.currents, norms


def random_solution_bundle(
    grid: mesh.GridSpec,
    metric: mesh.MetricField,
    n_steps: int,
    seed: int = 0,
    degrees=None,
) -> dict:
    """One random homogeneous solution bundle: :func:`random_solution_bundles` of one seed."""
    return random_solution_bundles(grid, metric, n_steps, [seed], degrees)[0]


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
                mode = "wrap" if c.grid.periodic[ax] else "edge"
                padded = np.pad(v, [(1, 1) if a == ax else (0, 0) for a in range(v.ndim)], mode=mode)
                size = v.shape[ax]
                v = 0.5 * v + 0.25 * (padded.take(range(size), axis=ax) + padded.take(range(2, size + 2), axis=ax))
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
    sol = _march_block(
        grid,
        metric,
        system.zero_sources(grid, k),
        t0,
        n_steps,
        grid.dt,
        [system.FieldState(t=t0, fe=fe0, fb=fb0, k=k)],
    )[0]
    star_rows = mesh.hodge_flat(sol.le, sol.fe, mesh.sample_conf(metric, sol.times))
    ab_rows = np.empty_like(star_rows)
    ab_rows[0] = pot_b.vec
    ab_rows[1:] = ab_rows[0] + np.cumsum(
        0.5 * grid.dt * (star_rows[:-1] + star_rows[1:]), axis=0
    )
    ae_rows = np.zeros((len(sol.times), mesh.cochain_size(grid, n - (k - 1), False)))
    return History(grid, k - 1, sol.times, ae_rows, ab_rows)


def sequence_steps(dt: float) -> int:
    """History steps of :func:`exact_sequence_suite`: ``round(0.6 / dt)`` clipped to 24..400 (in budget)."""
    return int(round(min(max(0.6 / dt, 24.0), 400.0)))


def exact_sequence_suite(
    grid: mesh.GridSpec,
    metric: mesh.MetricField,
    trials: int = 3,
    seed: int = 0,
    k: int | None = None,
) -> dict:
    """Defects of the right inverse and of the three exactness statements for the causal propagator.

    (a) ``causal(D omega)`` vanishes for compact admissible omega (both
    one-sided solves reproduce omega, so their difference cancels; the right
    inverse ``|G+ D omega - omega| / |omega|`` is read off the same solve);
    (b) ``D(causal(src))`` vanishes for admissible src (the causal image is
    made of homogeneous solutions); (c) a homogeneous solution splits
    through a cutoff into past/future parts whose one-sided reconstructions
    sum back to the solution.  Histories have :func:`sequence_steps` steps.

    Returns:
        dict with the worst relative defect of ``right_inverse`` and each
        ``defect_*`` plus per-trial values, all measured in spacetime L2
        norms, the trial count and the history steps.  ValueError when ``trials < 1``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    if k is None:
        k = min(2, grid.n - 1)
    dt, t0, steps = grid.dt, grid.t0, sequence_steps(grid.dt)
    span = steps * dt
    times = t0 + dt * np.arange(steps + 1)
    window = (t0 + span / 6.0, t0 + 5.0 * span / 6.0)
    # one helper per statement, so each statement's histories are freed before the next is drawn
    rows = [
        (
            *_causal_of_image_defects(grid, k, metric, times, window, rng),
            _image_of_causal_defect(grid, k, metric, times, window, rng),
            _cutoff_split_defect(grid, k, metric, times, rng),
        )
        for _ in range(trials)
    ]
    keys = ("right_inverse", "defect_a", "defect_b", "defect_c")
    per_trial = {key: [float(v) for v in vals] for key, vals in zip(keys, zip(*rows))}
    worst = {key: float(np.max(vals)) for key, vals in per_trial.items()}
    return {**worst, "per_trial": per_trial, "trials": trials, "steps": steps}


def _causal_of_image_defects(grid, k, metric, times, window, rng) -> tuple[float, float]:
    """The right inverse |G+ D omega - omega| / |omega| and statement (a), on one random omega and its G+ D omega."""
    omega = random_compact_history(grid, k, metric, times, window, rng)
    src, plus = _forward_of_image(omega, grid, metric)
    nr = omega.norm(metric)
    # G+ D omega - omega goes into omega's own rows: the right inverse holds no history that (a) does not
    np.subtract(plus.fe, omega.fe, out=omega.fe)
    np.subtract(plus.fb, omega.fb, out=omega.fb)
    right = omega.norm(metric) / nr
    del omega
    spread = _minus_backward(plus, src, grid, metric, float(times[0]), float(times[-1]))
    return right, spread.norm(metric) / nr


def _image_of_causal_defect(grid, k, metric, times, window, rng) -> float:
    """Statement (b): |D causal(src)| / |src| for a random admissible source pair.

    The history and its image are freed before the source is sampled.
    """
    pair = random_source_pair(grid, k, metric, window, rng)
    h = causal(pair, grid, metric, t_start=float(times[0]), t_final=float(times[-1]))
    defect, times = apply_operator(h, metric).norm(metric), h.times
    del h
    return defect / sample_sources(pair, times).norm(metric)


def _cutoff_split_defect(grid, k, metric, times, rng) -> float:
    """Statement (c): the one-sided reconstructions of a solution's cutoff split, against it."""
    dt, t0, steps = grid.dt, float(times[0]), len(times) - 1
    span = steps * dt
    sol = solution_history(grid, k, metric, steps, seed=int(rng.integers(2**31)))
    chi = CutoffProfile(t0 + span / 2.0, span / 4.0)
    # each part's sources are freed once its march returns; the sums are formed in lead's rows
    lead = g_plus(cutoff_sources(sol, chi, metric), grid, metric, t_start=t0, t_final=float(times[-1]) + 2 * dt)
    recon = lead.restrict(0, steps + 1)
    del lead
    # the trail march runs backward from times[-1] to t0 - 2 dt: its slice at is recon's at - 2
    trail = _solve_march(
        cutoff_sources(sol, chi, metric, complement=True), grid, metric, t0 - 2 * dt, float(times[-1]), backward=True
    )
    for at, fe, fb in _march(*trail, [None]):
        if 2 <= at <= steps + 2:
            recon.fe[at - 2] += fe[0]
            recon.fb[at - 2] += fb[0]
    recon -= sol
    return recon.norm(metric) / sol.norm(metric)


# ---------------------------------------------------------------------------
# pre-symplectic pairings


def _by_degree(f) -> dict:
    """A {degree: item} bundle from one History or source, or from a {degree: item} dict."""
    if isinstance(f, (History, system.SourceData)):
        return {f.k: f}
    if not isinstance(f, dict):
        raise TypeError(f"a bundle is a History, a source or a {{degree: item}} dict, not {type(f).__name__}")
    for key, item in f.items():
        if key != item.k:
            raise ValueError(f"bundle key {key} does not match the degree {item.k} of its entry")
    return dict(f)


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


class _SliceSums:
    """The slice currents of ordered bundle pairs, and the norm densities, summed a run of slices at a time.

    Bundle b holds the degrees ``degrees[b]``.  :meth:`add` takes the fe/fb
    rows of every history on consecutive slices and fills those slices of
    each pair's current C_ij and, with ``norms``, of each history's norm
    density (the integrand of ``History.norm``).  C_ij couples degree k of
    bundle i against degrees k-1 and k+1 of bundle j; the lapse weight is
    1/beta because the dt-leg fiber sign contributes ``DT_LEG_SIGN / beta^2``
    against the lapse-weighted volume.  Within a run, the Hodge image
    star(fe) of each history that a pair term reads, and the weight at the
    sites of each layout, are computed once, and each pair's terms are
    summed in degree order.  A slice's values read only that slice's rows, and
    ``mesh.hodge_flat`` and ``mesh.pair_flat`` give a row the same bits in a
    run of any length, so the sums do not depend on how the slices are split
    into runs.
    """

    def __init__(self, grid, metric, times, degrees, pairs, norms=False):
        self.metric, self.times, self.degrees, self.pairs = metric, times, degrees, list(pairs)
        lay = lambda k: (mesh.layout(grid, grid.n - k, False), mesh.layout(grid, k, True))
        self.lays = {k: lay(k) for k in set().union(*degrees)}
        self.currents = {pair: np.empty(len(times)) for pair in self.pairs}
        self.densities = {(b, k): np.empty(len(times)) for b, ks in enumerate(degrees) for k in ks} if norms else {}

    def add(self, lo: int, rows: dict) -> None:
        """Fill slices lo, lo + 1, ... from ``rows``: (b, k) -> the (fe, fb) rows of bundle b's degree k on them."""
        count = len(next(iter(rows.values()))[0])
        run = slice(lo, lo + count)
        times = self.times[run]
        conf = mesh.sample_conf(self.metric, times)
        images, weights = {}, {}

        def image(b, k):
            """star(fe) of bundle b's degree k on the run, and 1/beta at its sites."""
            le = self.lays[k][0]
            if le not in weights:
                weights[le] = 1.0 / mesh.sample_lapse(le.star, self.metric, times)
            if (b, k) not in images:
                images[b, k] = mesh.hodge_flat(le, rows[b, k][0], conf), weights[le]
            return images[b, k]

        for i, j in self.pairs:
            total = np.zeros(count)
            for k in sorted(self.degrees[i]):
                if k - 1 in self.degrees[j]:
                    star, weight = image(i, k)
                    total += mesh.pair_flat(self.lays[k][0].star, star, rows[j, k - 1][1], conf, weight)
                if k + 1 in self.degrees[j]:
                    star, weight = image(j, k + 1)
                    total -= mesh.pair_flat(self.lays[k][1], rows[i, k][1], star, conf, weight)
            self.currents[i, j][run] = total
        for (b, k), density in self.densities.items():
            density[run] = _norm_density(zip(self.lays[k], rows[b, k]), conf)


def pairing_currents(bundles, pairs, grid: mesh.GridSpec, metric: mesh.MetricField) -> tuple:
    """The slice current C_ij(t) of the cutoff pairing for each ordered pair (i, j) of bundles.

    The histories are summed ``SOURCE_TABLE_STEPS`` slices at a time
    (:class:`_SliceSums`), so the temporaries span one run of slices.  The
    current does not depend on the cutoff: :func:`cutoff_pairing`
    integrates it against any d(chi).

    Args:
        bundles: sequence of bundles, each a History or a {degree: History}
            dict, all on the same times.
        pairs: ordered index pairs (i, j) into ``bundles``.
        grid: common spatial grid.
        metric: lapse and conformal factor.

    Returns:
        ``(times, currents)``: the common slice times and a dict mapping each
        pair to its current, one value per slice.
    """
    bundles = [_by_degree(b) for b in bundles]
    times = _bundle_times(bundles[0], grid)
    for b in bundles[1:]:
        if not _same_times(times, _bundle_times(b, grid)):
            raise ValueError("histories on mismatched time samples")
    sums = _SliceSums(grid, metric, times, [set(b) for b in bundles], pairs)
    for lo in range(0, len(times), SOURCE_TABLE_STEPS):
        run = slice(lo, lo + SOURCE_TABLE_STEPS)
        sums.add(lo, {(b, k): (h.fe[run], h.fb[run]) for b, bundle in enumerate(bundles) for k, h in bundle.items()})
    return times, sums.currents


def cutoff_pairing(current: np.ndarray, times: np.ndarray, chi: CutoffProfile) -> float:
    """The pairing through cutoff ``chi``: the Stieltjes sum of a slice current against d(chi).

    Raises:
        ValueError: when the ramp of ``chi`` leaves the time range.
    """
    lo, hi = chi.t_c - chi.width / 2.0, chi.t_c + chi.width / 2.0
    if lo < times[0] - 1e-9 or hi > times[-1] + 1e-9:
        raise ValueError("cutoff ramp leaves the history time range")
    steps = np.diff(chi.value(times))
    return float(np.sum(steps * 0.5 * (current[1:] + current[:-1])))


def presymplectic(f1, f2, chi: CutoffProfile, grid: mesh.GridSpec, metric: mesh.MetricField) -> float:
    """Pre-symplectic pairing of two solution bundles through a time cutoff.

    Splits the first bundle into past/future parts with ``chi``, applies
    the first-order operator to the future part, and pairs the result with
    the second bundle over spacetime.  With a cutoff depending on t alone
    this collapses to a Stieltjes integral of a slice current
    (:func:`pairing_currents`) against d(chi) (:func:`cutoff_pairing`); the
    current couples each degree k only with degrees k-1 and k+1, so
    single-degree bundles pair to zero identically.  Along homogeneous
    solutions the current is conserved, which is what makes the value
    independent of the cutoff.

    Args:
        f1, f2: History or {degree: History} dict.
        chi: time cutoff whose ramp must lie inside the common time range.
        grid: common spatial grid.
        metric: lapse and conformal factor.

    Returns:
        The pairing value (skew-symmetric in the two bundles).
    """
    times, currents = pairing_currents([f1, f2], [(0, 1)], grid, metric)
    return cutoff_pairing(currents[0, 1], times, chi)


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
) -> dict:
    """Forward degeneracy of the pairing: exact fields pair to zero.

    Differentiates the potential bundle into a field bundle F, verifies F
    solves the homogeneous system to ``DEGENERACY_TOL``, and evaluates the
    pre-symplectic pairing of every probe solution against F through a
    cutoff at mid-range, ``DEFAULT_WIDTH_STEPS`` time steps wide.  The first
    and last two slices of the differentiated bundle are dropped before
    gating and pairing: the centred reconstruction is second-order clean
    only away from the one-sided end stencils.  Probes are restricted to
    the surviving time range, so they must cover it on the same samples.

    Args:
        a_potential: History or {degree: History} dict of potentials
            (degree j potentials produce degree j+1 fields).
        probes: iterable of homogeneous solutions, each a History or a
            {degree: History} dict; a probe sees F only through adjacent
            degrees.

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
    residual = exterior.worst(
        [apply_operator(f, metric).norm(metric) / f_norm if f_norm > 0 else 0.0 for f in f_bundle.values()]
    )
    if not residual <= DEGENERACY_TOL:
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
        "max_relative": exterior.worst(rels),
        "field_residual": float(residual),
    }
