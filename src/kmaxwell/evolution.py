"""Explicit time integration with strong boundary enforcement.

The integrator advances the lapse-weighted electric component ``w = fe/beta``
together with ``fb`` using the classical four-stage Runge-Kutta scheme, on
the split operator of ``system`` (its one program, ``system.level_ops``);
after every stage the magnetic normal-leg values on the boundary are
zeroed, which is an exact orthogonal projection onto the admissible
subspace.  Every step is four level programs, one per level, each
``base + c A src`` plus c times the stage time's source terms, projected,
from one of two tables (:meth:`Generator.levels`): a step over which the
generator is constant (no ``jb``/``ze`` source, a static lapse, one a(t))
runs the RK4 stability polynomial of B = P A in Horner form, any other the
classical stages rewritten as levels.  The two agree to round-off.  A
:class:`Generator` builds each table on the first step that takes it (a
sourced march builds no Horner programs), over 64-byte-aligned rows it
owns, which are a march's only state: initial data are loaded into them,
and a step returns one of them, so a warm step allocates nothing of row size.
Sources are evaluated once per level, or read from the table a generator
builds for a chunk of steps (:meth:`Generator.tabulate`).  Constraint norms,
an energy functional, and an optional causal-support leak are sampled into a
monitor series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import exterior, io, mesh, system
from .system import CheckResult
from .tolerances import CLOSEDNESS_TOL, CONE_HALO_CELLS, CONE_LEAK_TOL, CONTINUITY_TOL, SUPPORT_TOL

MAX_CFL = 0.9
# Sites next to each boundary face where validate_problem requires zero initial data.
SUPPORT_MARGIN_CELLS = 2


@dataclass(frozen=True)
class EvolveConfig:
    """Integration parameters.

    Args:
        t_final: end time (finite; must exceed the grid's initial time).
        cfl: Courant number in (0, 0.9].
        monitor_stride: steps between monitor samples.
    """

    t_final: float
    cfl: float = 0.4
    monitor_stride: int = 1

    def __post_init__(self):
        if not np.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite: {self.t_final}")
        if not 0.0 < self.cfl <= MAX_CFL:
            raise ValueError(f"cfl must lie in (0, {MAX_CFL}]: {self.cfl}")
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
    def scale(self) -> float:
        """The largest sampled state magnitude, floored at 1e-300."""
        return float(np.max(self.state_max, initial=1e-300))

    def relative_drift(self, key: str) -> float:
        """|last - first| of a column over the larger of its first value and the scale."""
        first, last = float(self.columns[key][0]), float(self.columns[key][-1])
        return abs(last - first) / exterior.worst((first, self.scale))


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _lapse_probe(grid: mesh.GridSpec, metric: mesh.MetricField, t: float) -> np.ndarray:
    """The lapse at time t on a 9-point-per-axis probe mesh of the box."""
    coords = [np.linspace(0.0, l, 9) for l in grid.lengths]
    pts = np.meshgrid(*coords, indexing="ij", sparse=True)
    return np.broadcast_to(np.asarray(metric.beta(t, *pts), dtype=float), (9,) * grid.dim)


def wave_speed_bound(grid: mesh.GridSpec, metric: mesh.MetricField, t_span) -> float:
    """Largest coordinate wave speed beta/a over a space-time probe grid of 5 times."""
    speeds = [float(np.max(_lapse_probe(grid, metric, t))) / float(metric.conf(t)) for t in np.linspace(*t_span, 5)]
    return exterior.worst(speeds)


def stable_dt(grid: mesh.GridSpec, metric: mesh.MetricField, cfl: float, t_span) -> float:
    """Time step meeting the Courant bound cfl * h_min / c_max."""
    return cfl * min(grid.spacings) / wave_speed_bound(grid, metric, t_span)


def require_stable_dt(grid: mesh.GridSpec, metric: mesh.MetricField, dt: float, t_span) -> None:
    """Raise ValueError when |dt| exceeds the hard Courant bound MAX_CFL * h_min / c_max."""
    limit = stable_dt(grid, metric, MAX_CFL, t_span)
    if abs(dt) > limit * (1 + 1e-12):
        raise ValueError(f"cfl violation: dt={abs(dt)!r} exceeds {limit!r}")


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


def _boundary_layer_max(s: system.FieldState) -> float:
    """Largest |value| of fe and fb within ``SUPPORT_MARGIN_CELLS`` sites of any non-periodic face."""
    grid = s.grid
    return exterior.worst([
        exterior.maxabs(arr[(slice(None),) * axis + (margin,)])
        for c in (s.fe, s.fb)
        for arr in c.comps.values()
        for axis in range(grid.dim)
        if not grid.periodic[axis]
        for margin in (slice(0, SUPPORT_MARGIN_CELLS), slice(arr.shape[axis] - SUPPORT_MARGIN_CELLS, None))
    ])


def require_consistent(grid: mesh.GridSpec, src: system.SourceData, s: system.FieldState | None = None) -> None:
    """Raise ValueError unless ``src``, and the state ``s`` when given, are declared on ``grid``'s slice
    and ``s`` has the sources' degree: the checks of :class:`Generator` and of :func:`validate_problem`."""
    if not src.grid.compatible(grid):
        raise ValueError("source declared on a different grid")
    if s is None:
        return
    if s.k != src.k:
        raise ValueError(f"state of degree {s.k} given to a generator of degree {src.k}")
    if not s.grid.compatible(grid):
        raise ValueError("state declared on a different grid")


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
        ``s0.t`` (trivially satisfied when no sources are given);
      * ``closed_fb`` / ``closed_fe``: the magnetic component and the
        lapse-weighted electric component are coboundary-closed (the
        source-free ``system.constraint_norms``);
      * ``continuity_charge`` / ``continuity_flux``: the worst split
        continuity residual norms of the sources at the window fractions
        ``system.CONTINUITY_PROBES`` (a finite window only);
      * ``beta_positive``: sampled lapse stays positive.

    Raises ValueError, with :func:`evolve`'s message, for sources, state and
    grid of different degrees or slices (:func:`require_consistent`).
    """
    require_consistent(s0.grid, src, s0)
    require_consistent(grid, src)
    metric = metric if metric is not None else mesh.unit_metric()
    report = ValidationReport()

    sup = _boundary_layer_max(s0)
    report.checks.append(
        CheckResult(
            "initial_support",
            sup <= SUPPORT_TOL,
            sup,
            SUPPORT_TOL,
            "" if sup <= SUPPORT_TOL else "initial support meets the boundary",
        )
    )

    has_sources = any(f is not None for f in (src.je, src.jb, src.ze, src.zb))
    t_lo, t_min = src.window[0], s0.t + 2 * grid.dt
    window_ok = (not has_sources) or (t_lo >= t_min)
    report.checks.append(
        CheckResult(
            "source_window",
            window_ok,
            float(t_lo) if np.isfinite(t_lo) else 0.0,
            t_min,
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
                norms[name] = exterior.worst([mesh.norm_flat(lay, row, a) for row, a in zip(rows, conf)])
    report.checks.append(
        CheckResult("continuity_charge", norms["charge"] < CONTINUITY_TOL, norms["charge"], CONTINUITY_TOL)
    )
    flux_measure = exterior.worst((norms["flux"], norms["flux_closed"]))
    report.checks.append(
        CheckResult("continuity_flux", flux_measure < CONTINUITY_TOL, flux_measure, CONTINUITY_TOL)
    )

    beta_min = float(np.min(_lapse_probe(grid, metric, s0.t)))
    report.checks.append(CheckResult("beta_positive", beta_min > 0.0, beta_min, 0.0))
    return report


def _uniform(row: np.ndarray) -> np.ndarray:
    """``row`` as a read-only zero-stride view of its one value when every site holds it.

    The view is of the value, not of ``row``, so the sampled row is freed;
    ``x * view`` rounds as ``x * row`` does.
    """
    if row.size and (row == row[0]).all():
        return np.broadcast_to(row[0], row.shape)
    return row


class Generator:
    """Semi-discrete generator of the split system on stacked ``[w; fb]`` rows.

    ``w = fe / beta`` is the lapse-weighted electric component (primal,
    degree n-k) and ``fb`` the magnetic one (dual, degree k); a row is the
    two flat cochains end to end, and leading axes hold independent rows.

    The generator assembles its split operator as the four level programs
    of each of the two tables of :meth:`levels`, each table built once
    (:meth:`_build_table`) on the first step that takes it: one program per
    level, kept as a list of bound ``np.multiply``/``np.subtract``/``np.add``
    calls on contiguous rows and ``np.copyto`` copies, which runs a
    ``system.level_ops`` level, adds the source-term row's halves and runs
    the ``mesh.project_ops`` program of the level's fb half.  The tables
    share one set of rows, one difference scratch, one reshaping buffer
    (``mesh.d_ops``' pad) and one set of Hodge factors.  A generator that
    takes only autonomous (Horner) steps holds three rows and builds no
    fourth row, source-term row or stage program; a sourced one builds no
    Horner program.  The rows are a march's only state: :meth:`load` writes
    the initial states into y0, and each step (:func:`_rk4_step`) reads y0
    and returns z2, which the next step copies into y0.  The buffers have
    one leading batch shape at a time (the source-term row is one row,
    added to each), are rebuilt only when rows of another shape arrive, and
    are allocated 64-byte aligned (``mesh.empty_aligned``).
    The programs read the lapse rows and Hodge factors the generator owns:
    the lapse is sampled once when ``metric.beta_dt`` is None and at every
    level otherwise, and the factors are recomputed only when h or a(t)
    changes value.  A static lapse row whose sites all hold one value is
    kept as a zero-stride view of that value (:func:`_uniform`); where it is
    1.0, decided once per component, the programs multiply by no lapse,
    :meth:`electric` hands out w itself as fe and the electric source term
    is ``src_e`` itself, since ``w * 1.0 == w`` bit for bit.  The buffers
    live as long as the generator and reference nothing back, so they are
    freed with it.  :meth:`project` zeroes the magnetic normal legs on the
    boundary faces, of which a torus has none.  :meth:`rhs` is the
    allocating oracle of the operator, apart from these buffers.

    The degree k is the sources' (``src.k``).  Sources declared on a grid
    that is not ``grid.compatible`` are rejected on construction, and a
    state of another degree or grid by :meth:`load`.

    Sources are evaluated by ``system.rhs_sources`` once per level, or, for
    a sourced march that knows its step times, once per chunk of steps:
    :meth:`tabulate` evaluates them on all distinct stage times of the
    chunk in one batched call, and each level of a tabulated step reads its
    stage time's terms from that table into the source-term row.
    """

    def __init__(self, grid, metric, src, t):
        require_consistent(grid, src)
        n, k = grid.n, src.k
        self.k, self.metric, self.src = k, metric, src
        self.lw = mesh.layout(grid, n - k, False)
        self.lb = mesh.layout(grid, k, True)
        self.nw = self.lw.size
        self._min_measure = min(inner for lay in (self.lw, self.lb) for _, inner in lay.measures)
        self.curl_sign = float(-system.eps_sign(n, k))
        self._beta = tuple(mesh.sample_flat(lay, metric.beta, t) for lay in (self.lw, self.lb))
        if metric.beta_dt is None:
            self._beta = tuple(map(_uniform, self._beta))
        # x * 1.0 == x bit for bit: a unit lapse (zero stride, so static and uniform) adds no product
        self._unit = tuple(map(mesh.unit_lapse, self._beta))
        # the lapse rows the programs multiply by: None, no pass, at a unit lapse
        self._weights = tuple(None if unit else b for b, unit in zip(self._beta, self._unit))
        # a static lapse scales |w| by at most its largest value (nan when it holds a nan): :meth:`finite`
        self._bound = None if metric.beta_dt is not None else float(np.maximum(1.0, np.max(self._beta[0])))
        self._tabulated = None
        # no source term and a static lapse: a step with one a(t) is autonomous (levels)
        self._autonomous = src.jb is None and src.ze is None and metric.beta_dt is None
        self._rows = self._level_key = None
        # the (w, fb) halves of the source-term row :meth:`_sources` fills, None for an absent family
        self._term = (None, None)
        if src.jb is not None or src.ze is not None:
            halves = np.split(mesh.empty_aligned((self.nw + self.lb.size,)), [self.nw])
            self._term = tuple(h if fn is not None else None for h, fn in zip(halves, (src.jb, src.ze)))

    def lapse(self, t):
        """Lapse samples at the (w, fb) sites at time t."""
        if self.metric.beta_dt is None:
            return self._beta
        return mesh.sample_flat(self.lw, self.metric.beta, t), mesh.sample_flat(self.lb, self.metric.beta, t)

    def electric(self, t, w: np.ndarray) -> np.ndarray:
        """The fe rows ``w * beta`` of w rows at time t: ``w`` itself at a unit lapse."""
        return w if self._unit[0] else w * self.lapse(t)[0]

    def finite(self, t, y: np.ndarray) -> bool:
        """Whether the state of rows ``y`` at time t has finite pointwise values (``mesh.max_pointwise``).

        Tested on the rows handed out, fe through :meth:`electric` (w * beta
        can overflow where w does not): their largest magnitude over the
        smallest cell measure, which bounds the pointwise values, must be
        finite.  A nan fails.  At a static lapse one pass decides most rows:
        no magnitude exceeds the root of the rows' sum of squares (times the
        lapse's largest value, on w), so the answer is True when twice that
        bound over the smallest measure is finite.  Other rows, and every
        row at a moving lapse, take the largest magnitudes; the answer is
        the same either way.
        """
        if self._bound is not None:
            flat = y.ravel()
            with np.errstate(over="ignore", invalid="ignore"):
                squares = float(np.dot(flat, flat))
            if math.isfinite(2.0 * math.sqrt(squares) * self._bound / self._min_measure):
                return True
        rows = (self.electric(t, y[..., : self.nw]), y[..., self.nw :])
        peak = exterior.worst([v for row in rows for v in (np.max(row), -np.min(row))])
        return bool(np.isfinite(peak / self._min_measure))

    def project(self, y: np.ndarray) -> np.ndarray:
        """Zero the boundary normal flux of the fb part of ``y`` in place; returns ``y``."""
        mesh.project_flat(self.lb, y[..., self.nw :])
        return y

    def levels(self, t, dt, batch: tuple):
        """The four levels of an RK4 step of size dt from t: ``(stage time, c, program)`` each.

        Level L's one program writes ``base + c_L A src`` into its row halves
        (``system.level_ops``, c_L and the curl sign folded into Hodge
        factors taken at a(stage time)), adds the source-term row, which
        :meth:`_sources` fills with c_L times the stage time's terms, half
        by half for each family the sources have, and projects (the
        ``mesh.project_ops`` program of the fb half).  The levels come from
        one of two tables, over rows the generator owns:

        * Horner, when the step is autonomous (no ``jb``/``ze`` family, a
          static lapse, one a(t) at the stage times): the RK4 stability
          polynomial ``y + hB(y + h/2 B(y + h/3 B(y + h/4 By)))`` of B = P A,
          ``z_L = P(y + c_L A z_(L-1))`` with ``c = h/4, h/3, h/2, h``, run
          over the three rows ``(y0, z1, z2)`` as y0 -> z1 -> z2 -> z1 -> z2;
        * stages, otherwise: ``y2 = P(y + h/2 (A y + s))``,
          ``y3 = P(y + h/2 (A y2 + s))``, ``y4 = P(y + h (A y3 + s))`` and
          ``P((y2 + 2 y3 + y4 - y)/3 + h/6 (A y4 + s))``, each A and s at
          its stage time, which is classical RK4 since P y = y.  They run
          over a fourth row z3 as y0 -> z1 -> z2 -> z3 -> z2; level 3 first
          folds ``y2 + 2 y3`` into z1 through z3, and level 4 first forms
          its base ``(y2 + 2 y3 + y4 - y)/3`` in z1.

        Either way y0 holds the step's input and z2 ends holding the step.
        The rows are built for one batch shape at a time, each table's
        programs (:meth:`_build_table`) on the first step of that shape
        that takes the table, and the Hodge factors the programs read are
        refreshed in place when h or a(t) changes.
        """
        t_mid, t_end = _stage_times(t, dt)[1:]
        times = (t, t_mid, t_mid, t_end)
        a0, a_mid, a1 = (float(self.metric.conf(s)) for s in (t, t_mid, t_end))
        confs = (a0, a_mid, a_mid, a1)
        horner = self._autonomous and a0 == a_mid == a1
        self._build_levels(batch)
        if horner not in self._programs:
            self._build_table(horner)
        coefs = (dt / 4, dt / 3, dt / 2, dt) if horner else (dt / 2, dt / 2, dt, dt / 6)
        if self._level_key != (coefs, confs):
            self._level_key = (coefs, confs)
            for facs, c, conf in zip(self._level_fac, coefs, confs):
                for fac, lay, scale in zip(facs, (self.lw, self.lb), (c, c * self.curl_sign)):
                    fac[:, 0] = mesh.hodge_factors(lay, conf, scale)
        return zip(times, coefs, self._programs[horner])

    def _level(self, fac, src, dst, base, spare, first):
        """A level's program over the factors ``fac``: the ops ``first``, one ``system.level_ops`` level
        over the generator's lapse rows and buffers, an add of each source-term half that is not None,
        and the projection program of dst's fb half."""
        ops = system.level_ops(self.lw, self.lb, src, dst, base, self._weights, fac, spare, self._scratch, self._pad)
        adds = [(np.add, (half, term, half)) for half, term in zip(dst, self._term) if term is not None]
        return [*first, *ops, *adds, *mesh.project_ops(self.lb, dst[1])]

    def _build_levels(self, batch: tuple) -> None:
        """The three rows, difference scratch, reshaping buffer and factors for rows of leading shape
        ``batch``, with no programs yet, unless they are built for it already."""
        if self._rows is not None and self._rows[0].shape[:-1] == batch:
            return
        size = self.nw + self.lb.size
        self._rows = [mesh.empty_aligned(batch + (size,)) for _ in range(3)]
        self._halves = [(row[..., : self.nw], row[..., self.nw :]) for row in self._rows]
        self._scratch = mesh.empty_aligned((math.prod(batch) * max(self.lw.star.largest, self.lb.star.largest),))
        self._pad = mesh.empty_aligned((math.prod(batch) * max(self.lw.largest, self.lb.largest),))
        # one (n, 1) array per level and component, so the programs see the factors refreshed in place
        self._level_fac = [tuple(np.empty((len(lay.subsets), 1)) for lay in (self.lw, self.lb)) for _ in range(4)]
        self._level_key, self._programs = None, {}

    def _build_table(self, horner: bool) -> None:
        """The four level programs of the Horner table (``horner``) or of the stage table, which first
        adds the fourth row z3, over the rows' batch shape (:meth:`levels`)."""
        if horner:
            y0, z1, z2 = self._halves[:3]
            # level 1 reads y0, which every level needs, so its second Hodge image goes into z2
            hops = [(y0, z1, self._rows[2]), (z1, z2, None), (z2, z1, None), (z1, z2, None)]
            levels = [(src, dst, y0, spare, ()) for src, dst, spare in hops]
        else:
            self._rows.append(mesh.empty_aligned(self._rows[0].shape))
            self._halves.append((self._rows[3][..., : self.nw], self._rows[3][..., self.nw :]))
            r0, r1, r2, r3 = self._rows
            y0, z1, z2, z3 = self._halves
            fold = [(np.multiply, (r2, 2.0, r3)), (np.add, (r1, r3, r1))]
            base = [(np.add, (r1, r3, r1)), (np.subtract, (r1, r0, r1)), (np.divide, (r1, 3.0, r1))]
            # y2 and y3 live on until they are folded, so levels 1 and 2 put their second Hodge image into a dead row
            levels = [(y0, z1, y0, r2, ()), (z1, z2, y0, r3, ()), (z2, z3, y0, None, fold), (z3, z2, z1, None, base)]
        self._programs[horner] = [self._level(fac, *level) for fac, level in zip(self._level_fac, levels)]

    def tabulate(self, steps, dt) -> None:
        """Tabulate the sources of the RK4 steps of size dt from each time in ``steps``.

        One ``system.rhs_sources`` call on the distinct stage times
        (:func:`_stage_times`) replaces the previous table, which is dropped
        first, so a march holds one chunk of rows at a time.  The rows are
        read only.
        """
        self._tabulated = None
        times = list(dict.fromkeys(s for t in steps for s in _stage_times(t, dt)))
        slots = system.rhs_sources(self.src, np.array(times), self.metric)
        for rows in slots:
            if rows is not None:
                rows.flags.writeable = False
        columns = [itertools.repeat(None) if rows is None else rows for rows in slots]
        self._tabulated = dict(zip(times, zip(*columns)))

    def _sources(self, t, c) -> None:
        """Bring the lapse to time t and write c times the source terms at t into the source-term row.

        The terms are ``system.rhs_sources``' ``(src_e, src_b)``, read from
        the table when t is tabulated; the w half gets ``c * (beta_w *
        src_e)`` (``c * src_e`` at a unit lapse) and the fb half ``c *
        src_b``, each formed in place, so a level allocates nothing.
        """
        if self.metric.beta_dt is not None:
            for buf, row in zip(self._beta, self.lapse(t)):
                buf[...] = row
        rows = None if self._tabulated is None else self._tabulated.get(t)
        rows = rows if rows is not None else system.rhs_sources(self.src, t, self.metric)
        for term, row, weight in zip(self._term, rows, (self._weights[0], None)):
            if row is not None:
                if weight is not None:
                    row = np.multiply(weight, row, out=term)
                np.multiply(row, c, out=term)

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """Time derivative of the rows ``y`` at time t, sources included (a new array).

        ``system.curls`` and ``system.rhs_sources``, once each, allocating
        as they go: an oracle apart from the step's own buffers.
        """
        beta_w, beta_b = self.lapse(t)
        src_e, src_b = system.rhs_sources(self.src, t, self.metric)
        w, fb = y[..., : self.nw], y[..., self.nw :]
        curl_b, curl_e = system.curls(self.lw, self.lb, w, fb, beta_w, beta_b, float(self.metric.conf(t)))
        dw = curl_b * self.curl_sign
        if src_e is not None:
            dw = beta_w * src_e + dw
        if src_b is not None:
            curl_e = curl_e + src_b
        return np.concatenate([dw, curl_e], axis=-1)

    def load(self, states) -> np.ndarray:
        """Load initial states into the row y0, projected; returns y0.

        ``states`` is one ``system.FieldState`` or a sequence of states or
        None (zero data), one per row of a ``(B, N)`` block.  The
        generator's rows are built for that batch shape first, and each
        state's ``fe * (1/beta)`` (beta at the state's time) and ``fb`` are
        written into its row of y0 in place, so loading allocates nothing of
        row size and the first step reads y0 without a copy.
        ValueError for a state of another degree or grid.
        """
        single = isinstance(states, system.FieldState)
        states = [states] if single else list(states)
        self._build_levels(() if single else (len(states),))
        y0 = self._rows[0]
        for row, s in zip(y0.reshape(len(states), -1), states):
            if s is None:
                row[...] = 0.0
                continue
            require_consistent(self.lw.grid, self.src, s)
            w = row[: self.nw]
            np.multiply(s.fe.vec, np.divide(1.0, self.lapse(s.t)[0], out=w), out=w)
            row[self.nw :] = s.fb.vec
        return self.project(y0)

    def state(self, t: float, y: np.ndarray) -> system.FieldState:
        """The field state of a stacked row; at a unit lapse its fe is a view of ``y``, as fb is."""
        fe = self.lw.cochain(self.electric(t, y[: self.nw]))
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

    y is copied into the generator's row y0 unless it is y0 (a row
    :meth:`Generator.load` filled), and the four levels of
    :meth:`Generator.levels` run in turn: each brings the generator to its
    stage time (lapse and source-term row, ``Generator._sources``) and runs
    its one program, which ends in the source adds and the projection.  No
    level writes y0.  The step returns the generator's row z2 itself, valid
    until the next step, so a warm step allocates nothing of row size;
    handing z2 back costs one copy into y0.  An autonomous step takes the
    Horner table, any other the stage table; the two agree to round-off.
    """
    levels = gen.levels(t, dt, y.shape[:-1])
    if y is not gen._rows[0]:
        np.copyto(gen._rows[0], y)
    for s, c, program in levels:
        gen._sources(s, c)
        mesh.run_ops(program)
    return gen._rows[2]


def operator_matrix(
    grid: mesh.GridSpec,
    k: int,
    metric: mesh.MetricField,
    t: float = 0.0,
) -> np.ndarray:
    """Dense matrix of the semi-discrete generator at frozen time t.

    Acts on the stacked vector [w_flat, fb_flat] of the evolved variables
    (w = fe/beta); the generator is conjugated by the boundary projection
    (the identity on a torus), so its exponential propagates admissible
    data exactly.  Used as an oracle against the stepped integrator and for
    reference histories.
    """
    gen = Generator(grid, metric, system.zero_sources(grid, k), t)
    return gen.project(gen.rhs(t, gen.project(np.eye(gen.nw + gen.lb.size)))).T


def step(
    s: system.FieldState,
    src: system.SourceData,
    metric: mesh.MetricField,
    dt: float,
) -> system.FieldState:
    """One Runge-Kutta step with per-stage boundary projection.

    Raises:
        ValueError: when dt exceeds the hard Courant bound 0.9*h_min/c_max,
            or for sources of another degree or grid than ``s``
            (:class:`Generator`).
    """
    require_stable_dt(s.grid, metric, dt, (s.t, s.t + dt))
    gen = Generator(s.grid, metric, src, s.t)
    return gen.state(s.t + dt, _rk4_step(s.t, gen.load(s), gen, dt))


class InstabilityError(RuntimeError):
    """Raised when the state leaves float range; carries the last stable data."""

    def __init__(self, t_last: float, state_last, series):
        super().__init__(f"evolution became non-finite after t={t_last!r}")
        self.t_last = t_last
        self.state_last = state_last
        self.series = series


def energy(s: system.FieldState, metric: mesh.MetricField, beta: np.ndarray | None = None) -> float:
    """Quadratic diagnostic: the time-leg symbol applied to the state.

    Equal to pair(fe, fe) with weight 1/beta^2 plus pair(fb, fb); positive
    definite, and exactly the sum of squared component norms when beta = 1.
    ``beta`` is the lapse row at fe's sites at ``s.t`` (``Generator.lapse``),
    sampled when None; at a unit lapse (``mesh.unit_lapse``) no weight is
    multiplied in, since x * 1.0 == x.
    """
    if beta is None:
        beta = mesh.sample_flat(s.fe.lay, metric.beta, s.t)
    weight = None if mesh.unit_lapse(beta) else 1.0 / beta**2
    electric = float(mesh.pair_flat(s.fe.lay, s.fe.vec, s.fe.vec, metric.conf(s.t), weight))
    return electric + mesh.pair_sigma(s.fb, s.fb, s.t, metric)


def _cone_leak(s: system.FieldState, support: SupportInfo, t0: float) -> float:
    grid = s.grid
    radius = support.radius + support.c_max * (s.t - t0) + CONE_HALO_CELLS * max(grid.spacings)
    center = np.asarray(support.center, dtype=float)
    leaks = []
    for c in (s.fe, s.fb):
        for comp, arr in c.comps.items():
            # axis i's squared offsets along axis i only, summed by broadcasting
            coords = mesh.component_coords(grid, comp, c.dual)
            dist2 = sum(
                ((p - center[i]) ** 2).reshape((-1,) + (1,) * (len(coords) - 1 - i)) for i, p in enumerate(coords)
            )
            leaks.append(exterior.maxabs(arr[np.broadcast_to(dist2, arr.shape) > radius**2]))
    return exterior.worst(leaks)


def _monitor_row(s, beta, src, metric, support, t0):
    """One monitor sample of the state ``s``; ``beta`` is the lapse row at fe's sites at ``s.t``."""
    r_e, r_b, r_bdy = system.constraint_norms(s, src, metric, beta)
    row = {"time": s.t, "rE": r_e, "rB": r_b, "rbdy": r_bdy, "energy": energy(s, metric, beta)}
    row["cone_leak"] = _cone_leak(s, support, t0) if support is not None else 0.0
    return row, exterior.worst((mesh.max_pointwise(s.fe), mesh.max_pointwise(s.fb)))


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
    line driver does.  ``s0`` is dropped once it is loaded into the
    generator's row y0 (:meth:`Generator.load`), so a caller that hands over
    its only reference frees the initial state then.  Each step continues
    from the generator's row z2 (:func:`_rk4_step`), and the state returned
    holds views of it.  A monitor sample reads the generator's lapse rows.

    Raises:
        ValueError: cfl violation, non-increasing time span, or sources
            of another degree or grid than ``s0`` (:class:`Generator`).
        InstabilityError: a state whose pointwise values leave float range
            (:meth:`Generator.finite`); carries the last stable state, a
            copy of y0, which the failed step read and did not write.
    """
    grid, t0 = s0.grid, s0.t
    if not cfg.t_final > t0:
        raise ValueError("t_final must exceed the initial time")
    cfl_res = check_cfl(grid, metric, cfg)
    if not cfl_res.passed:
        raise ValueError(f"cfl violation: {cfl_res.detail}")

    dt = grid.dt
    n_steps = int(np.ceil((cfg.t_final - t0) / dt - 1e-9))
    gen = Generator(grid, metric, src, t0)
    y = gen.load(s0)
    del s0
    t = t0
    sample = lambda t, y: _monitor_row(gen.state(t, y), gen.lapse(t)[0], src, metric, support, t0)
    samples = [sample(t, y)]

    for i in range(n_steps):
        h = min(dt, cfg.t_final - t)
        y_new = _rk4_step(t, y, gen, h)
        t_new = cfg.t_final if i == n_steps - 1 else t + h
        if not gen.finite(t_new, y_new):
            raise InstabilityError(t, gen.state(t, gen._rows[0].copy()), _series_from(samples, support))
        y, t = y_new, t_new
        if (i + 1) % cfg.monitor_stride == 0 or i == n_steps - 1:
            samples.append(sample(t, y))
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
    below 1e-7 relative to the largest state magnitude seen.  The leak
    (:func:`_cone_leak`) is the largest integral degree of freedom outside
    the cone, a value times its cell measure, but the scale is the largest
    pointwise value (``mesh.max_pointwise``): a pointwise leak reads 32x
    higher at n = 3 and 1024x at n = 4 on criterion 5's 32-cell runs.
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
