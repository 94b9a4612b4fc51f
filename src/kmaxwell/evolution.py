"""Explicit time integration with strong boundary enforcement.

The integrator advances the lapse-weighted electric component ``w = fe/beta``
together with ``fb`` using the classical four-stage Runge-Kutta scheme, on the
curls of ``system`` (the split operator's one home); after every stage the
magnetic normal-leg values on the boundary are zeroed, which is an exact
orthogonal projection onto the admissible subspace.  A :class:`Generator`
assembles the curls once per batch shape, as the ``system.curl_ops`` program
of bound ufunc calls over buffers it owns, and :func:`_rk4_step` runs all four
stages in those buffers, so a step allocates only the row it returns.
Sources are evaluated once per stage, or read from the table a generator
builds for a chunk of steps (:meth:`Generator.tabulate`).  Constraint norms,
an energy functional, and an optional causal-support leak are sampled into a
monitor series.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import io, mesh, system
from .system import CheckResult
from .tolerances import CLOSEDNESS_TOL, CONE_HALO_CELLS, CONE_LEAK_TOL, CONTINUITY_TOL, SUPPORT_TOL

BOUNDARY_MODES = ("project_B", "periodic_test")
MAX_CFL = 0.9
# Sites next to each boundary face where validate_problem requires zero initial data.
SUPPORT_MARGIN_CELLS = 2


@dataclass(frozen=True)
class EvolveConfig:
    """Integration parameters.

    Args:
        t_final: end time (finite; must exceed the grid's initial time).
        cfl: Courant number in (0, 0.9].
        boundary_mode: ``project_B`` zeroes the magnetic normal legs on the
            boundary after every stage; ``periodic_test`` requires an
            all-periodic grid and applies no boundary handling.
        monitor_stride: steps between monitor samples.
    """

    t_final: float
    cfl: float = 0.4
    boundary_mode: str = "project_B"
    monitor_stride: int = 1

    def __post_init__(self):
        if not np.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite: {self.t_final}")
        if not 0.0 < self.cfl <= MAX_CFL:
            raise ValueError(f"cfl must lie in (0, {MAX_CFL}]: {self.cfl}")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be at least 1")


@dataclass(frozen=True)
class SupportInfo:
    """Initial support ball and speed bound for the causal-cone monitor."""

    center: tuple
    radius: float
    c_max: float


@dataclass
class MonitorSeries:
    """Sampled diagnostics along an evolution.

    ``columns`` holds the canonical CSV table (time, rE, rB, rbdy, energy,
    cone_leak); ``state_max`` is retained for audits but not serialized.
    """

    columns: dict
    state_max: np.ndarray
    support: SupportInfo | None = None

    def __post_init__(self):
        times = np.asarray(self.columns["time"])
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("monitor time stamps must increase")

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self.columns["time"])

    @property
    def scale(self) -> float:
        """The largest sampled state magnitude, floored at 1e-300."""
        return max(float(self.state_max.max()), 1e-300)

    def relative_drift(self, key: str) -> float:
        """|last - first| of a column over the larger of its first value and the scale."""
        first, last = float(self.columns[key][0]), float(self.columns[key][-1])
        return abs(last - first) / max(first, self.scale)


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _lapse_probe(grid: mesh.GridSpec, metric: mesh.MetricField, t: float) -> np.ndarray:
    """The lapse at time t on a 9-point-per-axis probe mesh of the box."""
    coords = [np.linspace(0.0, l, 9) for l in grid.lengths]
    pts = np.meshgrid(*coords, indexing="ij", sparse=True)
    return np.broadcast_to(np.asarray(metric.beta(t, *pts), dtype=float), (9,) * grid.dim)


def wave_speed_bound(grid: mesh.GridSpec, metric: mesh.MetricField, t_span) -> float:
    """Largest coordinate wave speed beta/a over a space-time probe grid of 5 times."""
    t_lo, t_hi = t_span
    c_max = 0.0
    for t in np.linspace(t_lo, t_hi, 5):
        c_max = max(c_max, float(np.max(_lapse_probe(grid, metric, t))) / float(metric.conf(t)))
    return c_max


def stable_dt(grid: mesh.GridSpec, metric: mesh.MetricField, cfl: float, t_span) -> float:
    """Time step meeting the Courant bound cfl * h_min / c_max."""
    return cfl * min(grid.spacings) / wave_speed_bound(grid, metric, t_span)


def require_stable_dt(grid: mesh.GridSpec, metric: mesh.MetricField, dt: float, t_span) -> None:
    """Raise ValueError when |dt| exceeds the hard Courant bound MAX_CFL * h_min / c_max."""
    limit = stable_dt(grid, metric, MAX_CFL, t_span)
    if abs(dt) > limit * (1 + 1e-12):
        raise ValueError(f"cfl violation: dt={abs(dt)!r} exceeds {limit!r}")


def require_boundary_mode(grid: mesh.GridSpec, boundary_mode: str) -> None:
    """Raise ValueError for a mode outside BOUNDARY_MODES, or ``periodic_test`` on a grid with faces."""
    if boundary_mode not in BOUNDARY_MODES:
        raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}: {boundary_mode!r}")
    if boundary_mode == "periodic_test" and not all(grid.periodic):
        raise ValueError("periodic_test mode requires an all-periodic grid")


def check_cfl(grid: mesh.GridSpec, metric: mesh.MetricField, cfg: EvolveConfig) -> CheckResult:
    """Named check that the grid's dt satisfies the configured Courant bound."""
    limit = stable_dt(grid, metric, cfg.cfl, (grid.t0, cfg.t_final))
    return CheckResult(
        name="cfl",
        passed=grid.dt <= limit * (1 + 1e-12),
        measure=grid.dt,
        threshold=limit,
        detail=f"dt must not exceed cfl*h_min/c_max = {limit!r}",
    )


def _boundary_layer_max(c: mesh.Cochain) -> float:
    """Largest |value| within ``SUPPORT_MARGIN_CELLS`` sites of any non-periodic face."""
    grid = c.grid
    worst = 0.0
    for s, arr in c.comps.items():
        for axis in range(grid.dim):
            if grid.periodic[axis]:
                continue
            sl_lo = [slice(None)] * grid.dim
            sl_hi = [slice(None)] * grid.dim
            sl_lo[axis] = slice(0, SUPPORT_MARGIN_CELLS)
            sl_hi[axis] = slice(arr.shape[axis] - SUPPORT_MARGIN_CELLS, None)
            worst = max(worst, float(np.abs(arr[tuple(sl_lo)]).max(initial=0.0)))
            worst = max(worst, float(np.abs(arr[tuple(sl_hi)]).max(initial=0.0)))
    return worst


def validate_problem(
    s0: system.FieldState,
    src: system.SourceData,
    grid: mesh.GridSpec,
    metric: mesh.MetricField | None = None,
) -> ValidationReport:
    """Check the well-posedness hypotheses on initial data and sources.

    Checks (each reported with its measured norm):
      * ``initial_support``: both components vanish within
        ``SUPPORT_MARGIN_CELLS`` sites of every boundary face;
      * ``source_window``: the source window starts at least two steps after
        the initial time (trivially satisfied when no sources are given);
      * ``closed_fb`` / ``closed_fe``: the magnetic component and the
        lapse-weighted electric component are coboundary-closed (the
        source-free ``system.constraint_norms``);
      * ``continuity_charge`` / ``continuity_flux``: the worst split
        continuity residual norms of the sources at the window fractions
        ``system.CONTINUITY_PROBES`` (a finite window only);
      * ``beta_positive``: sampled lapse stays positive.
    """
    metric = metric if metric is not None else mesh.unit_metric()
    report = ValidationReport()

    sup = max(_boundary_layer_max(s0.fe), _boundary_layer_max(s0.fb))
    report.checks.append(
        CheckResult(
            "initial_support",
            sup <= SUPPORT_TOL,
            sup,
            SUPPORT_TOL,
            "initial support meets the boundary" if sup > SUPPORT_TOL else "",
        )
    )

    has_sources = any(f is not None for f in (src.je, src.jb, src.ze, src.zb))
    t_lo = src.window[0]
    window_ok = (not has_sources) or (t_lo >= grid.t0 + 2 * grid.dt)
    report.checks.append(
        CheckResult(
            "source_window",
            window_ok,
            float(t_lo) if np.isfinite(t_lo) else 0.0,
            grid.t0 + 2 * grid.dt,
            "" if window_ok else "source window must start after the initial slice",
        )
    )

    closed_e, closed_b, _ = system.constraint_norms(s0, system.zero_sources(s0.grid, s0.k), metric)
    for name, closed in (("closed_fb", closed_b), ("closed_fe", closed_e)):
        report.checks.append(CheckResult(name, closed < CLOSEDNESS_TOL, closed, CLOSEDNESS_TOL))

    norms = {"charge": 0.0, "flux": 0.0, "flux_closed": 0.0}
    if has_sources and np.isfinite(src.window).all():
        k, n = src.k, src.grid.n
        spaces = {"charge": (n + 1 - k, False), "flux": (k + 1, True), "flux_closed": (k + 2, True)}
        wa, wb = src.window
        probes = np.array([wa + (wb - wa) * frac for frac in system.CONTINUITY_PROBES])
        conf = mesh.sample_conf(metric, probes)
        for name, rows in system.continuity_residuals(src, metric, probes).items():
            if rows is not None:
                lay = mesh.layout(src.grid, *spaces[name])
                for row, a in zip(rows, conf):
                    norms[name] = float(np.maximum(norms[name], mesh.norm_flat(lay, row, a)))
    report.checks.append(
        CheckResult("continuity_charge", norms["charge"] < CONTINUITY_TOL, norms["charge"], CONTINUITY_TOL)
    )
    flux_measure = max(norms["flux"], norms["flux_closed"])
    report.checks.append(
        CheckResult("continuity_flux", flux_measure < CONTINUITY_TOL, flux_measure, CONTINUITY_TOL)
    )

    beta_min = float(np.min(_lapse_probe(grid, metric, s0.t)))
    report.checks.append(CheckResult("beta_positive", beta_min > 0.0, beta_min, 0.0))
    return report


class _Stages:
    """The buffers of one leading batch shape and the curl program on them.

    ``ops`` reads the stage input ``ys`` and writes the slope ``k`` (its
    parts ``k_w`` and ``k_b``); ``acc``, the slope sum of an RK4 step, is
    allocated on first use, so a right-hand side alone never holds it.
    """

    def __init__(self, ys, k, ops, k_w, k_b):
        self.ys, self.k, self.ops, self.k_w, self.k_b = ys, k, ops, k_w, k_b

    @functools.cached_property
    def acc(self) -> np.ndarray:
        return np.empty_like(self.k)


class Generator:
    """Semi-discrete generator of the split system on stacked ``[w; fb]`` rows.

    ``w = fe / beta`` is the lapse-weighted electric component (primal,
    degree n-k) and ``fb`` the magnetic one (dual, degree k); a row is the
    two flat cochains end to end, and leading axes hold independent rows.

    The generator assembles its split operator once per leading batch shape
    (:meth:`stages`): the ``system.curl_ops`` program, kept as a list of
    bound ``np.multiply``/``np.subtract``/``np.add`` calls from a
    stage-input buffer into a slope buffer, which :func:`_rk4_step` and
    :meth:`rhs` run.
    The program reads the lapse rows and Hodge factors the generator owns:
    the lapse is sampled once when ``metric.beta_dt`` is None and at every
    evaluation otherwise, and the factors are recomputed only when a(t)
    changes value.  The buffers live as long as the generator and reference
    nothing back, so they are freed with it.  With ``project_B`` on a grid
    with faces, :meth:`project` zeroes the magnetic normal legs on the
    boundary.  The mode passes :func:`require_boundary_mode` first, so every
    step and march checks it.

    Sources are evaluated by ``system.rhs_sources`` once per stage, or, for
    a march that knows its step times, once per chunk of steps:
    :meth:`tabulate` evaluates them on all distinct stage times of the
    chunk in one batched call, and :meth:`run` reads each tabulated stage's
    terms from that table.
    """

    def __init__(self, grid, k, metric, src, boundary_mode, t):
        require_boundary_mode(grid, boundary_mode)
        n = grid.n
        self.k, self.metric, self.src = k, metric, src
        self.lw = mesh.layout(grid, n - k, False)
        self.lb = mesh.layout(grid, k, True)
        self.nw = self.lw.size
        self.curl_sign = float(-system.eps_sign(n, k))
        self.projects = boundary_mode == "project_B" and not all(grid.periodic)
        self._faces = self.nw + mesh.normal_face_sites(self.lb) if self.projects else None
        self._lapse = None
        if metric.beta_dt is None:
            self._lapse = self.lapse(t)
            self._beta = self._lapse
        else:
            self._beta = (np.empty(self.nw), np.empty(self.lb.size))
        self._conf = float(metric.conf(t))
        # one (1,) view per component, so the program sees the factors refreshed in place
        self._fac = tuple(np.array(mesh.hodge_factors(lay, self._conf))[:, None] for lay in (self.lw, self.lb))
        self._stages = {}
        self._table = None

    def lapse(self, t):
        """Lapse samples at the (w, fb) sites at time t."""
        if self._lapse is not None:
            return self._lapse
        return mesh.sample_flat(self.lw, self.metric.beta, t), mesh.sample_flat(self.lb, self.metric.beta, t)

    def project(self, y: np.ndarray) -> np.ndarray:
        """Zero the boundary normal flux of the fb part of ``y`` in place; returns ``y``."""
        if self.projects:
            y[..., self._faces] = 0.0
        return y

    def stages(self, batch: tuple) -> _Stages:
        """The buffers and curl program for rows of leading shape ``batch``, built once."""
        st = self._stages.get(batch)
        if st is None:
            size = self.nw + self.lb.size
            ys, k = np.empty(batch + (size,)), np.empty(batch + (size,))
            k_w, k_b = k[..., : self.nw], k[..., self.nw :]
            # x * 1.0 == x bit for bit: a unit lapse and a unit sign add no pass
            beta = [None if self._lapse is not None and (b == 1.0).all() else b for b in self._beta]
            w, fb = ys[..., : self.nw], ys[..., self.nw :]
            ops = list(system.curl_ops(self.lw, self.lb, w, fb, *beta, self._fac, k_w, k_b))
            if self.curl_sign != 1.0:
                ops.append((np.multiply, (k_w, self.curl_sign, k_w)))
            st = self._stages[batch] = _Stages(ys, k, ops, k_w, k_b)
        return st

    def tabulate(self, steps, dt) -> None:
        """Tabulate the sources of the RK4 steps of size dt from each time in ``steps``.

        One ``system.rhs_sources`` call on the distinct stage times
        (:func:`_stage_times`) replaces the previous table, which is dropped
        first, so a march holds one chunk of rows at a time.  The rows are
        read only.
        """
        self._table = None
        times = list(dict.fromkeys(s for t in steps for s in _stage_times(t, dt)))
        slots = system.rhs_sources(self.src, np.array(times), self.metric)
        for rows in slots:
            if rows is not None:
                rows.flags.writeable = False
        columns = [itertools.repeat(None) if rows is None else rows for rows in slots]
        self._table = dict(zip(times, zip(*columns)))

    def _sources(self, t):
        """Bring the lapse and Hodge factors to time t; the source terms at t.

        The terms are ``beta_w * src_e`` and ``src_b`` of
        ``system.rhs_sources``, read from the table when t is tabulated,
        None where a source is absent.
        """
        if self._lapse is None:
            for buf, row in zip(self._beta, self.lapse(t)):
                buf[...] = row
        conf = float(self.metric.conf(t))
        if conf != self._conf:
            self._conf = conf
            for fac, lay in zip(self._fac, (self.lw, self.lb)):
                fac[:, 0] = mesh.hodge_factors(lay, conf)
        rows = None if self._table is None else self._table.get(t)
        src_e, src_b = rows if rows is not None else system.rhs_sources(self.src, t, self.metric)
        return None if src_e is None else self._beta[0] * src_e, src_b

    def run(self, t: float, st: _Stages) -> np.ndarray:
        """Time derivative of the rows ``st.ys`` at time t, written into ``st.k``."""
        term_e, term_b = self._sources(t)
        mesh.run_ops(st.ops)
        if term_e is not None:
            np.add(st.k_w, term_e, out=st.k_w)
        if term_b is not None:
            np.add(st.k_b, term_b, out=st.k_b)
        return st.k

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """Time derivative of the rows ``y`` at time t, sources included (a new array)."""
        st = self.stages(y.shape[:-1])
        np.copyto(st.ys, y)
        return self.run(t, st).copy()

    def rows(self, s: system.FieldState) -> np.ndarray:
        """The stacked row of a state."""
        return np.concatenate([s.fe.vec * (1.0 / self.lapse(s.t)[0]), s.fb.vec])

    def state(self, t: float, y: np.ndarray) -> system.FieldState:
        """The field state of a stacked row."""
        fe = self.lw.cochain(y[: self.nw] * self.lapse(t)[0])
        return system.FieldState(t, fe, self.lb.cochain(y[self.nw :]), self.k)


def _stage_times(t, dt):
    """The times at which an RK4 step of size dt from t evaluates its slopes.

    ``t``, ``t + dt/2`` (stages 2 and 3) and ``t + dt``, as the float
    expressions :func:`_rk4_step` uses, so a table keyed on them is hit
    exactly, for either sign of dt.
    """
    return t, t + dt / 2, t + dt


def _rk4_step(t, y, gen: Generator, dt):
    """One classical RK4 step of projected rows, projecting every stage.

    The stages run in the generator's buffers for ``y``'s batch shape: each
    stage input ``y + k * h`` is formed in place, the slopes are summed as
    ``((k1 + 2 k2) + 2 k3) + k4``, and only the returned row is new.
    """
    st = gen.stages(y.shape[:-1])
    ys, k, acc = st.ys, st.k, st.acc
    _, t_mid, t_end = _stage_times(t, dt)

    def stage_input(slope, h):
        np.multiply(slope, h, out=ys)
        np.add(y, ys, out=ys)
        gen.project(ys)

    np.copyto(ys, y)
    np.copyto(acc, gen.run(t, st))
    stage_input(acc, dt / 2)
    gen.run(t_mid, st)
    stage_input(k, dt / 2)
    np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
    gen.run(t_mid, st)
    stage_input(k, dt)
    np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
    np.add(acc, gen.run(t_end, st), out=acc)
    np.multiply(acc, dt / 6.0, out=acc)
    return gen.project(np.add(y, acc))


def operator_matrix(
    grid: mesh.GridSpec,
    k: int,
    metric: mesh.MetricField,
    t: float = 0.0,
    boundary_mode: str = "project_B",
) -> np.ndarray:
    """Dense matrix of the semi-discrete generator at frozen time t.

    Acts on the stacked vector [w_flat, fb_flat] of the evolved variables
    (w = fe/beta); with project_B the generator is conjugated by the boundary
    projection, so its exponential propagates admissible data exactly.  Used
    as an oracle against the stepped integrator and for reference histories.
    """
    gen = Generator(grid, k, metric, system.zero_sources(grid, k), boundary_mode, t)
    st = gen.stages((gen.nw + gen.lb.size,))
    st.ys.fill(0.0)
    np.fill_diagonal(st.ys, 1.0)
    gen.project(st.ys)
    return gen.project(gen.run(t, st)).T


def step(
    s: system.FieldState,
    src: system.SourceData,
    metric: mesh.MetricField,
    dt: float,
    boundary_mode: str = "project_B",
) -> system.FieldState:
    """One Runge-Kutta step with per-stage boundary projection.

    Raises:
        ValueError: when dt exceeds the hard Courant bound 0.9*h_min/c_max,
            or for a boundary mode the :class:`Generator` rejects.
    """
    require_stable_dt(s.grid, metric, dt, (s.t, s.t + dt))
    gen = Generator(s.grid, s.k, metric, src, boundary_mode, s.t)
    return gen.state(s.t + dt, _rk4_step(s.t, gen.project(gen.rows(s)), gen, dt))


class InstabilityError(RuntimeError):
    """Raised when the state leaves float range; carries the last stable data."""

    def __init__(self, t_last: float, state_last, series):
        super().__init__(f"evolution became non-finite after t={t_last!r}")
        self.t_last = t_last
        self.state_last = state_last
        self.series = series


def energy(s: system.FieldState, metric: mesh.MetricField) -> float:
    """Quadratic diagnostic: the time-leg symbol applied to the state.

    Equal to pair(fe, fe) with weight 1/beta^2 plus pair(fb, fb); positive
    definite, and exactly the sum of squared component norms when beta = 1.
    """
    inv_b2 = lambda t, *x: 1.0 / np.asarray(metric.beta(t, *x)) ** 2
    return mesh.pair_sigma(s.fe, s.fe, s.t, metric, weight=inv_b2) + mesh.pair_sigma(
        s.fb, s.fb, s.t, metric
    )


def _cone_leak(s: system.FieldState, support: SupportInfo, t0: float) -> float:
    grid = s.grid
    radius = support.radius + support.c_max * (s.t - t0) + CONE_HALO_CELLS * max(grid.spacings)
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


def _state_maxabs(s: system.FieldState) -> float:
    return max(mesh.max_pointwise(s.fe), mesh.max_pointwise(s.fb))


def _monitor_row(s, src, metric, support, t0):
    r_e, r_b, r_bdy = system.constraint_norms(s, src, metric)
    row = {"time": s.t, "rE": r_e, "rB": r_b, "rbdy": r_bdy, "energy": energy(s, metric)}
    row["cone_leak"] = _cone_leak(s, support, t0) if support is not None else 0.0
    return row, _state_maxabs(s)


def evolve(
    s0: system.FieldState,
    src: system.SourceData,
    metric: mesh.MetricField,
    cfg: EvolveConfig,
    support: SupportInfo | None = None,
) -> tuple[system.FieldState, MonitorSeries]:
    """Integrate from the initial state to cfg.t_final with monitoring.

    The grid's dt is used as the step (the final step is shortened to land
    exactly on t_final) and must satisfy the configured Courant bound.
    Callers are responsible for running validate_problem first; the command
    line driver does.

    Raises:
        ValueError: cfl violation, non-increasing time span, or
            ``periodic_test`` on a grid with faces.
        InstabilityError: non-finite values; carries the last stable state.
    """
    grid = s0.grid
    if not cfg.t_final > s0.t:
        raise ValueError("t_final must exceed the initial time")
    cfl_res = check_cfl(grid, metric, cfg)
    if not cfl_res.passed:
        raise ValueError(f"cfl violation: {cfl_res.detail}")

    dt = grid.dt
    n_steps = int(np.ceil((cfg.t_final - s0.t) / dt - 1e-9))
    gen = Generator(grid, s0.k, metric, src, cfg.boundary_mode, s0.t)
    y = gen.project(gen.rows(s0))
    t = s0.t

    samples = [_monitor_row(gen.state(t, y), src, metric, support, s0.t)]

    for i in range(n_steps):
        h = min(dt, cfg.t_final - t)
        y_new = _rk4_step(t, y, gen, h)
        t_new = cfg.t_final if i == n_steps - 1 else t + h
        if not np.isfinite(y_new).all():
            raise InstabilityError(t, gen.state(t, y), _series_from(samples, support))
        y, t = y_new, t_new
        if (i + 1) % cfg.monitor_stride == 0 or i == n_steps - 1:
            samples.append(_monitor_row(gen.state(t, y), src, metric, support, s0.t))
    return gen.state(t, y), _series_from(samples, support)


def _series_from(samples, support) -> MonitorSeries:
    """The series of ``_monitor_row`` samples ``(row, state max)``."""
    rows, maxima = zip(*samples)
    columns = {name: np.array([r[name] for r in rows]) for name in io.MONITOR_COLUMNS}
    return MonitorSeries(
        columns=columns,
        state_max=np.asarray(maxima, dtype=float),
        support=support,
    )


def support_audit(series: MonitorSeries, radius: float, c_max: float) -> CheckResult:
    """Verify the state stayed inside the causal cone of its initial support.

    Passes when every sampled leak outside radius + c_max*(t - t0) + 4h is
    below 1e-7 relative to the largest state magnitude seen.
    """
    if series.support is None:
        raise ValueError("series was not produced with a support monitor")
    if not (series.support.radius == radius and series.support.c_max == c_max):
        raise ValueError("audit parameters disagree with the monitored cone")
    scale = float(series.state_max.max())
    if scale == 0.0:
        return CheckResult("cone_leak", True, 0.0, CONE_LEAK_TOL, "zero state")
    worst = float(np.max(series.columns["cone_leak"])) / scale
    return CheckResult("cone_leak", worst < CONE_LEAK_TOL, worst, CONE_LEAK_TOL)


def constraint_propagation_audit(
    s0: system.FieldState,
    src: system.SourceData,
    metric: mesh.MetricField,
    cfg: EvolveConfig,
) -> dict:
    """Evolve and report how the constraint-violation norms transport.

    Theory predicts the residuals are advected, not amplified: their norms
    stay at the initial value up to integrator error.  The report carries the
    initial, final, and extremal norms plus relative drifts (over the larger
    of the initial norm and the state scale, :meth:`MonitorSeries.relative_drift`).
    """
    final, series = evolve(s0, src, metric, cfg)
    out = {"t_final": final.t}
    for key in ("rE", "rB", "rbdy"):
        vals = series.columns[key]
        out[key] = {
            "initial": float(vals[0]),
            "final": float(vals[-1]),
            "max": float(vals.max()),
            "relative_drift": series.relative_drift(key),
        }
    out["state_scale"] = series.scale
    return out
