"""Cubical cochain complex on a box (or torus) slice with staggered families.

The slice is an axis-aligned box discretized into cells.  Two interleaved
cochain families live on it:

* the primal family (``dual=False``): a degree-k component with extent S
  is sampled at cell centers along the axes in S and at nodes (including
  the two faces) along the remaining axes;
* the dual family (``dual=True``): the staggering is reversed — nodes along
  the axes in S, centers along the rest.

Values are integral degrees of freedom: the entry of a component S at a site
approximates the integral of the form over the little k-cell spanned by the
S-axes there.  The coboundary is then pure incidence arithmetic (signed
differences, no mesh factors) and satisfies d∘d = 0 to rounding; on the dual
family the one-sided outputs at face nodes are defined to be zero, which is
exact for the flux-free boundary condition enforced by
:func:`project_normal_flux`.

The Hodge dual maps component S to its complement and swaps families; with
this staggering both live on the same index set, so the map is diagonal and
invertible, with weight ``eps(S) * a(t)^(m-2k) * prod(h_out) / prod(h_in)``.

Storage is flat.  A :class:`Layout`, cached per (grid, degree, family),
fixes the component order (lexicographic extents), each component's shape
and its offset in one float64 vector, plus the per-component Hodge and
pairing constants.  A :class:`Cochain` is a layout plus one such vector
(``Cochain.vec``); its ``comps`` are read-only-mapped views into that
vector, and :meth:`Layout.cochain` is its only constructor.  The operators
(``d_flat``, ``hodge_flat``, ``pair_flat``, ``project_flat``, lapse samples
from ``sample_flat``) act on such vectors, or on arrays of them stacked
along leading axes (a history's time slices, an operator's columns): ``d``
differences reshaped component views, the Hodge dual rescales and permutes
whole component blocks.  These two stencils and the projection are op
builders: :func:`d_ops`, :func:`hodge_ops` and :func:`project_ops` yield a
program, bound ``np.subtract``/``np.add``/``np.multiply``/``np.copyto``
calls as ``(function, arguments)`` pairs that write into given buffers and
read their inputs anew on every run (:func:`run_ops`); the arithmetic
calls act on C-contiguous rows only, and raw copies do any reshaping.  A
caller that keeps the program as a list with its buffers
(``evolution.Generator``) pays the slicing once; ``d_flat``,
``hodge_flat`` and ``project_flat`` run the program on fresh arrays as it
is built.  The :class:`Cochain` functions (``d_sigma``, ``hodge_sigma``,
``pair_sigma``, ...) are adapters that apply the flat operator to ``vec``
and wrap the result, so every operator has one implementation; none of
them changes its input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from . import exterior


@dataclass(frozen=True)
class GridSpec:
    """Spacetime grid parameters: spatial box plus time step.

    Args:
        n: spacetime dimension (2 to 5); the slice has n-1 spatial axes.
        cells_per_axis: cells along each spatial axis (each >= 4).
        lengths: physical box size along each spatial axis.
        dt: time step used by the integrator and history containers.
        t0: initial time (finite).
        periodic: per-axis periodicity; periodic axes have no boundary faces
            (testing mode — the physical setup is the box with boundary).
    """

    n: int
    cells_per_axis: tuple[int, ...]
    lengths: tuple[float, ...]
    dt: float
    t0: float = 0.0
    periodic: tuple[bool, ...] | None = None

    def __post_init__(self):
        if not 2 <= self.n <= 5:
            raise ValueError(f"n out of supported range [2,5]: {self.n}")
        object.__setattr__(self, "cells_per_axis", tuple(int(c) for c in self.cells_per_axis))
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        m = self.n - 1
        if len(self.cells_per_axis) != m or len(self.lengths) != m:
            raise ValueError(f"expected {m} spatial axes for n={self.n}")
        if any(c < 4 for c in self.cells_per_axis):
            raise ValueError("each axis needs at least 4 cells")
        if not all(math.isfinite(v) and v > 0 for v in self.lengths):
            raise ValueError("axis lengths must be positive and finite")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if not math.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        if self.periodic is None:
            object.__setattr__(self, "periodic", (False,) * m)
        else:
            object.__setattr__(self, "periodic", tuple(bool(p) for p in self.periodic))
            if len(self.periodic) != m:
                raise ValueError("periodic flags must match the spatial axes")

    @property
    def dim(self) -> int:
        """Number of spatial axes."""
        return self.n - 1

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(l / c for l, c in zip(self.lengths, self.cells_per_axis))

    def compatible(self, other: "GridSpec") -> bool:
        """Whether ``other`` carries the same slice: cells, lengths and periodicity.

        The time step and initial time may differ.
        """
        return self is other or (self.cells_per_axis, self.lengths, self.periodic) == (
            other.cells_per_axis, other.lengths, other.periodic
        )


@dataclass
class MetricField:
    """Product metric data: lapse beta(t, x) and conformal factor a(t).

    The slice metric is ``a(t)^2`` times the flat box metric.  ``beta`` must
    broadcast over numpy coordinate arrays.  ``beta_dt`` is the analytic time
    derivative of the lapse; leaving it None declares the lapse
    time-independent (the operators never finite-difference the metric).

    Args:
        beta: callable ``beta(t, *coords) -> array`` (positive).
        conf: callable ``a(t) -> float`` (positive).
        beta_dt: optional callable with the same signature as ``beta``.
    """

    beta: Callable = lambda t, *x: 1.0
    conf: Callable = lambda t: 1.0
    beta_dt: Callable | None = None


def unit_metric() -> MetricField:
    return MetricField()


class Face(NamedTuple):
    """One boundary face of the box: spatial axis index and side (0 or 1)."""

    axis: int
    side: int


def faces(grid: GridSpec) -> list[Face]:
    """All boundary faces (periodic axes contribute none)."""
    return [Face(axis, side) for axis in range(grid.dim) if not grid.periodic[axis] for side in (0, 1)]


def face_grid(grid: GridSpec, face: Face) -> GridSpec:
    """The (m-1)-axis grid of one boundary face."""
    keep = [a for a in range(grid.dim) if a != face.axis]
    return GridSpec(
        n=grid.n - 1,
        cells_per_axis=tuple(grid.cells_per_axis[a] for a in keep),
        lengths=tuple(grid.lengths[a] for a in keep),
        dt=grid.dt,
        t0=grid.t0,
        periodic=tuple(grid.periodic[a] for a in keep),
    )


def subsets(grid: GridSpec, degree: int) -> tuple[tuple[int, ...], ...]:
    return exterior.basis_tuples(grid.dim, degree)


def component_shape(grid: GridSpec, subset: tuple[int, ...], dual: bool) -> tuple[int, ...]:
    shape = []
    for a in range(grid.dim):
        centers = (a in subset) != dual
        nc = grid.cells_per_axis[a]
        shape.append(nc if (centers or grid.periodic[a]) else nc + 1)
    return tuple(shape)


def component_coords(grid: GridSpec, subset: tuple[int, ...], dual: bool) -> list[np.ndarray]:
    """Per-axis sample coordinates of one component (centers or nodes)."""
    coords = []
    for a in range(grid.dim):
        h = grid.spacings[a]
        nc = grid.cells_per_axis[a]
        centers = (a in subset) != dual
        if centers:
            coords.append((np.arange(nc) + 0.5) * h)
        elif grid.periodic[a]:
            coords.append(np.arange(nc) * h)
        else:
            coords.append(np.arange(nc + 1) * h)
    return coords


def site_mesh(grid: GridSpec, subset: tuple[int, ...], dual: bool) -> list[np.ndarray]:
    """Sparse meshgrid of the component's sample sites."""
    return np.meshgrid(*component_coords(grid, subset, dual), indexing="ij", sparse=True)


def cell_measure(grid: GridSpec, subset: tuple[int, ...]) -> float:
    out = 1.0
    for a in subset:
        out *= grid.spacings[a]
    return out


@dataclass(frozen=True, eq=False)
class Layout:
    """Flat storage order of one cochain space (grid, degree, family).

    Component i (extent S = ``subsets[i]``, shape ``shapes[i]``) is stored
    row-major in ``[offsets[i], offsets[i + 1])`` of the last axis of a flat
    array; leading axes, if any, index independent rows (time slices, or
    columns of an operator).  The per-component operator constants:

    * ``measures[i] = (cell_measure(S^c), cell_measure(S))``: their ratio is
      the pairing factor and, times ``signs[i] = eps(S)``, the Hodge factor
      (kept apart so both round exactly as the per-cell formula does);
    * ``stars[i]``: the position of S^c in the Hodge image;
    * ``node_axes[i]``: the bounded axes sampled at nodes (trapezoid ends and
      :attr:`faces`; on the dual family exactly the normal legs);
    * ``cofaces``: the incidence terms (i, axis, target, sign) of ``d``;
    * ``star`` and ``up``: the layouts of the Hodge image (degree m-k, the
      other family) and of the coboundary (degree k+1, the same family).
    """

    grid: GridSpec
    degree: int
    dual: bool
    subsets: tuple
    shapes: tuple
    offsets: tuple
    measures: tuple
    signs: tuple
    stars: tuple
    node_axes: tuple
    cofaces: tuple

    @property
    def size(self) -> int:
        return self.offsets[-1]

    @functools.cached_property
    def largest(self) -> int:
        """Size of the largest component."""
        return max(b - a for a, b in zip(self.offsets, self.offsets[1:]))

    @property
    def star(self) -> "Layout":
        return layout(self.grid, self.grid.dim - self.degree, not self.dual)

    @property
    def up(self) -> "Layout":
        return layout(self.grid, self.degree + 1, self.dual)

    def view(self, x: np.ndarray, i: int) -> np.ndarray:
        """Component i of flat rows ``x`` as a ``(..., *shapes[i])`` view."""
        return x[..., self.offsets[i] : self.offsets[i + 1]].reshape(x.shape[:-1] + self.shapes[i])

    def cochain(self, vec: np.ndarray) -> "Cochain":
        """The cochain of this layout holding the flat vector ``vec`` (not copied)."""
        return Cochain(self, vec)

    @functools.cached_property
    def faces(self) -> MappingProxyType:
        """Flat positions on each non-periodic face: ``{Face: positions}``.

        The node layer at the face of each component sampled at nodes across
        it, in component order: on the dual family the normal legs, on the
        primal family the tangential trace in the face layout's order.
        """
        m, sites, out = self.grid.dim, np.arange(self.size), {}
        for face in faces(self.grid):
            end = _along(face.axis - m, (0, -1)[face.side])
            layers = [self.view(sites, i)[end].ravel() for i, axes in enumerate(self.node_axes) if face.axis in axes]
            out[face] = np.concatenate([np.zeros(0, dtype=np.intp)] + layers)
            out[face].flags.writeable = False
        return MappingProxyType(out)

    @functools.cached_property
    def face_sites(self) -> np.ndarray:
        """The union of :attr:`faces`, sorted: every flat position on a boundary face."""
        on_face = np.zeros(self.size, dtype=bool)
        for positions in self.faces.values():
            on_face[positions] = True
        sites = np.flatnonzero(on_face)
        sites.flags.writeable = False
        return sites


@functools.lru_cache(maxsize=256)
def layout(grid: GridSpec, degree: int, dual: bool) -> Layout:
    """The cached flat layout of degree-``degree`` cochains of one family."""
    m = grid.dim
    if not 0 <= degree <= m:
        raise ValueError(f"degree {degree} out of range [0, {m}]")
    subs = subsets(grid, degree)
    shapes = tuple(component_shape(grid, s, dual) for s in subs)
    sizes = [int(np.prod(shape)) for shape in shapes]
    comps = [tuple(a for a in range(m) if a not in s) for s in subs]
    up = exterior.basis_index(m, degree + 1)
    return Layout(
        grid=grid,
        degree=degree,
        dual=dual,
        subsets=subs,
        shapes=shapes,
        offsets=tuple(int(v) for v in np.cumsum([0] + sizes)),
        measures=tuple((cell_measure(grid, c), cell_measure(grid, s)) for s, c in zip(subs, comps)),
        signs=tuple(exterior.complement_sign(m, s) for s in subs),
        stars=tuple(exterior.basis_index(m, m - degree)[c] for c in comps),
        node_axes=tuple(
            tuple(a for a in range(m) if (a in s) == dual and not grid.periodic[a]) for s in subs
        ),
        cofaces=tuple(
            (i, b, up[tuple(sorted(s + (b,)))], exterior.merge_sign((b,), s))
            for i, s in enumerate(subs)
            for b in range(m)
            if b not in s
        ),
    )


@dataclass(frozen=True, eq=False)
class Cochain:
    """Discrete degree-k field: one value per k-cell of one staggered family.

    Build it with :meth:`Layout.cochain`.

    Args:
        lay: the layout fixing grid, degree, family and storage order.
        vec: the float64 values, one flat vector in ``lay`` order.
    """

    lay: Layout
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", np.ascontiguousarray(self.vec, dtype=float))
        if self.vec.shape != (self.lay.size,):
            raise ValueError(f"vector of shape {self.vec.shape} does not match cochain size {self.lay.size}")

    @property
    def grid(self) -> GridSpec:
        return self.lay.grid

    @property
    def degree(self) -> int:
        return self.lay.degree

    @property
    def dual(self) -> bool:
        return self.lay.dual

    @property
    def comps(self) -> MappingProxyType:
        """Read-only mapping extent -> component view (writes go to ``vec``)."""
        lay = self.lay
        return MappingProxyType({s: lay.view(self.vec, i) for i, s in enumerate(lay.subsets)})

    def _check_match(self, other: "Cochain") -> None:
        if (self.grid, self.degree, self.dual) != (other.grid, other.degree, other.dual):
            raise ValueError("cochains live on different spaces")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_match(other)
        return self.lay.cochain(self.vec + other.vec)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_match(other)
        return self.lay.cochain(self.vec - other.vec)

    def __mul__(self, scalar: float) -> "Cochain":
        return self.lay.cochain(self.vec * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Cochain":
        return self.lay.cochain(-self.vec)


def zero_cochain(grid: GridSpec, degree: int, dual: bool) -> Cochain:
    lay = layout(grid, degree, dual)
    return lay.cochain(np.zeros(lay.size))


def random_cochain(grid: GridSpec, degree: int, dual: bool, rng: np.random.Generator) -> Cochain:
    lay = layout(grid, degree, dual)
    return lay.cochain(rng.standard_normal(lay.size))


def sample_scalar(grid: GridSpec, subset: tuple[int, ...], dual: bool, fn, t: float) -> np.ndarray:
    """Evaluate a scalar callback fn(t, *coords) on one component's sites."""
    mesh = site_mesh(grid, subset, dual)
    value = np.asarray(fn(t, *mesh), dtype=float)
    shape = component_shape(grid, subset, dual)
    if value.shape != shape:
        value = np.broadcast_to(value, shape).copy()
    return value


def sample_flat(lay: Layout, fn, t: float) -> np.ndarray:
    """A scalar callback fn(t, *coords) at every site of a layout, in flat order."""
    return np.concatenate([sample_scalar(lay.grid, s, lay.dual, fn, t).ravel() for s in lay.subsets])


def sample_lapse(lay: Layout, metric: MetricField, times: np.ndarray) -> np.ndarray:
    """The lapse at a layout's sites: one flat row when it is time independent
    (``metric.beta_dt is None``), else one row per time."""
    if metric.beta_dt is None:
        return sample_flat(lay, metric.beta, float(times[0]))
    return np.stack([sample_flat(lay, metric.beta, float(t)) for t in times])


def unit_lapse(row: np.ndarray) -> bool:
    """Whether a lapse row is a zero-stride row of 1.0 (a static unit lapse), by which a product
    can be skipped, since x * 1.0 == x bit for bit."""
    return row.strides == (0,) and row[0] == 1.0


def sample_conf(metric: MetricField, times) -> np.ndarray:
    """The conformal factor a(t) at every time, one scalar call per time."""
    return np.array([float(metric.conf(float(t))) for t in times])


def sample_cochain(grid: GridSpec, degree: int, dual: bool, component_fns, t: float = 0.0) -> Cochain:
    """Sample pointwise component functions into integral degrees of freedom.

    ``component_fns`` maps an extent tuple S to a callable ``f(t, *coords)``
    giving the S-component of the form; missing components are zero.  The
    stored value is the midpoint-rule integral: sample times the flat measure
    of the S-cell.

    Args:
        grid: target grid.
        degree: form degree.
        dual: target family.
        component_fns: mapping extent -> callable.
        t: time passed through to the callables.

    Returns:
        Cochain with de Rham (integral) degrees of freedom.
    """
    c = zero_cochain(grid, degree, dual)
    for s, view in c.comps.items():
        if s in component_fns:
            view[...] = sample_scalar(grid, s, dual, component_fns[s], t) * cell_measure(grid, s)
    return c


def multiply_scalar(c: Cochain, fn, t: float) -> Cochain:
    """Multiply a cochain pointwise by a scalar field sampled at its sites.

    The sites are the component sample locations, so diagonal operators
    (Hodge, lapse weights) commute with this multiplication exactly.
    """
    return c.lay.cochain(c.vec * sample_flat(c.lay, fn, t))


def max_pointwise(c: Cochain) -> float:
    """Sup norm of the pointwise values: each component's largest magnitude over its positive cell measure."""
    return exterior.worst([exterior.maxabs(arr) / cell_measure(c.grid, s) for s, arr in c.comps.items()])


def cochain_size(grid: GridSpec, degree: int, dual: bool) -> int:
    return layout(grid, degree, dual).size


# ---------------------------------------------------------------------------
# operators on flat rows; the Cochain functions below are adapters over these


def _along(axis: int, index) -> tuple:
    """Index tuple taking ``index`` along ``axis``, counted from the end (< 0)."""
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


def _conf_power(conf, p: int):
    """a(t)^p for one a(t) (a float) or one per leading row (an array).

    Each power is a Python float power, so batched rows round exactly as
    the single-row operators do.
    """
    if np.ndim(conf) == 0:
        return float(conf) ** p
    return np.array([float(c) ** p for c in np.ravel(conf)]).reshape(np.shape(conf))


def empty_aligned(shape) -> np.ndarray:
    """An uninitialised float64 array of ``shape`` whose data starts on a 64-byte (cache line) boundary."""
    size = math.prod(shape) * 8
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(np.float64).reshape(shape)


def run_ops(ops) -> None:
    """Run a program, an iterable of ``(function, arguments)`` calls, in order."""
    for fn, args in ops:
        fn(*args)


def _dense(view: np.ndarray, lead: int) -> bool:
    """Whether each row of ``view`` (its axes after the first ``lead``) is C-contiguous: a ufunc then
    runs over whole rows, where a strided row goes through numpy's buffered iterator."""
    step = view.itemsize
    for size, stride in zip(reversed(view.shape[lead:]), reversed(view.strides[lead:])):
        if size > 1 and stride != step:
            return False
        step *= size
    return True


_ZERO = np.array(0.0)
# the zero that leaves x bit for bit: x + (-0.0) and x - (+0.0) keep a signed zero's sign
_IDENTITY_ZERO = {np.add: np.array(-0.0), np.subtract: _ZERO}


def d_ops(lay: Layout, x: np.ndarray, out: np.ndarray, scratch: np.ndarray, pad: np.ndarray, base=0.0):
    """The coboundary of flat rows ``x`` in ``lay``, added to ``base``, as a program writing ``out``.

    Yields, lazily, ``(function, arguments)`` calls of ufuncs and raw
    copies with their output buffer that, run in order, write ``base`` plus
    the signed differences of the incidence terms into ``out`` (degree k+1
    rows of the same batch shape, last axis contiguous).  ``base`` is 0.0
    (plain ``d``) or rows shaped like ``out``.  Each target starts from
    ``base`` at its first incidence term, which writes ``base + diff`` or
    ``base - diff``; the later terms add or subtract in place.  Each
    difference is written first into ``scratch`` (flat, at least the batch
    size times ``lay.largest``) and only then meets the base, so a zero base
    comes out as ``0 + diff`` or ``0 - diff`` would leave it (``0 - (+0)``
    is +0, where negating a straight write would give -0).  Along an axis of
    stride s, one subtraction of the flat component shifted by s writes from
    entry 0 (primal) or s (dual); the entries that straddle the axis end are
    then dropped or wrapped.

    Every arithmetic call acts on C-contiguous rows (``_dense``); raw
    ``np.copyto`` copies, which numpy runs unbuffered, do the reshaping
    through ``pad`` (flat, at least the batch size times
    ``lay.up.largest``).  Where a term's valid differences or target region
    are strided (an axis other than the outermost, on a box), one copy moves
    the differences into ``pad`` shaped as the target component, and the
    term combines whole components.  On the dual family the two face layers
    along the axis, which no difference reaches, then hold the combining
    op's identity zero (-0.0 for add, +0.0 for subtract), so they come out
    equal to ``base``, signed zeros and nans included; a contiguous dual
    term copies them from ``base``.  A strided wrap (a periodic axis other
    than the outermost) copies the two end layers into ``pad``, differences
    them there and copies the result back.  The calls read ``x`` and
    ``base`` anew each time they run.
    """
    grid, m, out_lay, lead = lay.grid, lay.grid.dim, lay.up, x.ndim - 1

    def from_base(j, index):
        return base if np.ndim(base) == 0 else out_lay.view(base, j)[index]

    started = set()
    for i, b, j, sign in lay.cofaces:
        arr, target, axis = lay.view(x, i), out_lay.view(out, j), b - m
        flat, s = x[..., lay.offsets[i] : lay.offsets[i + 1]], math.prod(lay.shapes[i][b + 1 :])
        rows = scratch[: flat.size].reshape(flat.shape)
        combine = np.add if sign > 0 else np.subtract
        yield np.subtract, (flat[..., s:], flat[..., :-s], rows[..., s:] if lay.dual else rows[..., :-s])
        diff, region = rows.reshape(arr.shape), (Ellipsis,)
        if grid.periodic[b]:
            # primal: roll(arr, -1) - arr; dual: arr - roll(arr, 1)
            first, last = arr[_along(axis, slice(0, 1))], arr[_along(axis, slice(-1, None))]
            wrap = diff[_along(axis, slice(0, 1) if lay.dual else slice(-1, None))]
            if _dense(wrap, lead):
                yield np.subtract, (first, last, wrap)
            else:
                # the end layers one after the other in pad, then their difference back into place
                ends = np.moveaxis(arr[_along(axis, slice(None, None, arr.shape[axis] - 1))], axis, 0)
                pair = pad[: ends.size].reshape(ends.shape)
                yield np.copyto, (pair, ends)
                yield np.subtract, (pair[0], pair[1], pair[0])
                yield np.copyto, (wrap, pair[0].reshape(wrap.shape))
        else:
            diff = diff[_along(axis, slice(1, None) if lay.dual else slice(None, -1))]
            if lay.dual:
                region = _along(axis, slice(1, -1))
            if not (_dense(diff, lead) and _dense(target[region], lead)):
                buf = pad[: target.size].reshape(target.shape)
                if lay.dual:
                    layers = _along(axis, slice(None, None, target.shape[axis] - 1))
                    yield np.copyto, (buf[layers], _IDENTITY_ZERO[combine])
                yield np.copyto, (buf[region], diff)
                diff, region = buf, (Ellipsis,)
            elif lay.dual and j not in started:
                for end in (_along(axis, 0), _along(axis, -1)):
                    yield np.copyto, (target[end], from_base(j, end))
        start = target[region] if j in started else from_base(j, region)
        started.add(j)
        yield combine, (start, diff, target[region])


def d_flat(lay: Layout, x: np.ndarray) -> np.ndarray:
    """Coboundary of flat rows in ``lay``: signed differences, degree k -> k+1.

    The :func:`d_ops` program, run as it is built.
    """
    if lay.degree >= lay.grid.dim:
        raise ValueError("d_sigma: top-degree input")
    out = np.empty(x.shape[:-1] + (lay.up.size,))
    rows = math.prod(x.shape[:-1])
    run_ops(d_ops(lay, x, out, np.empty(rows * lay.largest), np.empty(rows * lay.up.largest)))
    return out


def hodge_factors(lay: Layout, conf, scale: float = 1.0) -> list:
    """Per-component Hodge weights of ``lay``: ``scale * eps(S) * a^(m-2k) * outer / inner``.

    ``conf`` is a(t), one float or one value per leading row; entry i is a
    float, or an array of shape ``(*np.shape(conf), 1)``, that broadcasts
    against component i of flat rows.
    """
    power = _conf_power(conf, lay.grid.dim - 2 * lay.degree)
    if isinstance(power, np.ndarray):
        power = power[..., None]
    return [scale * sign * power * outer / inner for sign, (outer, inner) in zip(lay.signs, lay.measures)]


def hodge_ops(lay: Layout, x: np.ndarray, out: np.ndarray, fac, weight=None):
    """The diagonal Hodge dual of flat rows ``x`` as a program writing ``out``.

    Yields, lazily, ``(function, arguments)`` calls of ``np.multiply``:
    component S of ``x`` (times the matching entries of ``weight``, a lapse
    row or rows, when given) is scaled by ``fac[i]`` (see
    :func:`hodge_factors`) into the block of S^c in the other family.  The
    calls read ``x`` and ``weight`` anew each time they run; an owner that
    refreshes the factors in place passes each ``fac[i]`` as an array.
    """
    out_lay = lay.star
    for i, j in enumerate(lay.stars):
        src = x[..., lay.offsets[i] : lay.offsets[i + 1]]
        dst = out[..., out_lay.offsets[j] : out_lay.offsets[j + 1]]
        if weight is not None:
            yield np.multiply, (weight[..., lay.offsets[i] : lay.offsets[i + 1]], src, dst)
            src = dst
        yield np.multiply, (fac[i], src, dst)


def hodge_flat(lay: Layout, x: np.ndarray, conf, scale: float = 1.0) -> np.ndarray:
    """Diagonal Hodge dual of flat rows: component S -> S^c, family swapped.

    ``conf`` is a(t), one float or one value per leading row; ``scale``
    multiplies every weight (orientation and inverse signs).  The
    :func:`hodge_ops` program, run as it is built.
    """
    out = np.empty(x.shape)
    run_ops(hodge_ops(lay, x, out, hodge_factors(lay, conf, scale)))
    return out


def hodge_inverse_flat(lay: Layout, x: np.ndarray, conf) -> np.ndarray:
    """Inverse Hodge dual of flat rows in ``lay``."""
    k = lay.degree
    return hodge_flat(lay, x, conf, (-1) ** (k * (lay.grid.dim - k)))


def pair_flat(lay: Layout, a: np.ndarray, b: np.ndarray, conf, weight=None):
    """Slice inner products of matching flat rows, one per leading row.

    ``weight`` is a flat row (or rows) multiplied in pointwise; node-sampled
    bounded directions get trapezoidal 1/2 end weights.
    """
    m = lay.grid.dim
    power = _conf_power(conf, m - 2 * lay.degree)
    total = 0.0
    for i, shape in enumerate(lay.shapes):
        sl = slice(lay.offsets[i], lay.offsets[i + 1])
        prod = a[..., sl] * b[..., sl]
        prod = prod.reshape(prod.shape[:-1] + shape)
        for axis in lay.node_axes[i]:
            prod[_along(axis - m, 0)] *= 0.5
            prod[_along(axis - m, -1)] *= 0.5
        if weight is not None:
            prod = prod * lay.view(weight, i)
        outer, inner = lay.measures[i]
        total = total + (power * outer / inner) * prod.sum(axis=tuple(range(-m, 0)))
    return total


def norm_flat(lay: Layout, x: np.ndarray, conf) -> float:
    """Slice L2 norm of one flat row in ``lay``, induced by :func:`pair_flat`."""
    return float(np.sqrt(max(float(pair_flat(lay, x, x, conf)), 0.0)))


def project_ops(lay: Layout, x: np.ndarray):
    """Zeroing the face sites of rows ``x`` (:attr:`Layout.face_sites`) as a program.

    Yields, lazily, one ``np.copyto`` of +0.0 per component and node axis,
    onto the component's two node layers along that axis: raw strided
    writes, where an index array would gather the sites one by one.
    """
    m = lay.grid.dim
    for i, axes in enumerate(lay.node_axes):
        arr = lay.view(x, i)
        for a in axes:
            yield np.copyto, (arr[_along(a - m, slice(None, None, arr.shape[a - m] - 1))], _ZERO)


def project_flat(lay: Layout, x: np.ndarray) -> np.ndarray:
    """Zero the face sites of rows in place (the normal flux of dual-family rows); returns ``x``.

    The :func:`project_ops` program, run as it is built.
    """
    run_ops(project_ops(lay, x))
    return x


def face_maxabs(lay: Layout, rows: np.ndarray) -> np.ndarray:
    """Largest |value| at the face sites of each flat row, 0.0 without faces: the
    normal flux of dual-family rows, the tangential trace on every face of primal ones."""
    return np.max(np.abs(rows[..., lay.face_sites]), axis=-1, initial=0.0)


def d_sigma(c: Cochain) -> Cochain:
    """Mimetic coboundary: signed incidence differences, degree k -> k+1.

    On the primal family the differenced axis runs over nodes, so the
    stencil is complete.  On the dual family the differenced axis runs over
    centers and the outputs at the two face nodes are zero by definition
    (see the module docstring); d_sigma∘d_sigma vanishes to rounding on both
    families, and exactly on integer data.
    """
    vec = d_flat(c.lay, c.vec)
    return c.lay.up.cochain(vec)


def hodge_sigma(c: Cochain, t: float, metric: MetricField) -> Cochain:
    """Diagonal Hodge dual on the slice: component S -> S^c, family swapped.

    The weight is ``eps(S) * a(t)^(m-2k) * prod(h_b, b not in S) /
    prod(h_a, a in S)`` per degree of freedom.
    """
    vec = hodge_flat(c.lay, c.vec, metric.conf(t))
    return c.lay.star.cochain(vec)


def hodge_inverse_sigma(c: Cochain, t: float, metric: MetricField) -> Cochain:
    """Inverse of hodge_sigma: hodge_inverse_sigma(hodge_sigma(c)) = c."""
    return c.lay.star.cochain(hodge_inverse_flat(c.lay, c.vec, metric.conf(t)))


def pair_sigma(a: Cochain, b: Cochain, t: float, metric: MetricField, weight=None) -> float:
    """Slice inner product sum over cells: symmetric, positive definite.

    Node-sampled directions get trapezoidal 1/2 end weights so that, e.g.,
    the pairing of two unit 0-cochains is exactly the box volume.  The
    optional ``weight`` is a scalar callback ``w(t, *coords)`` multiplied in
    pointwise (used for lapse-weighted pairings).

    Args:
        a: first cochain.
        b: second cochain (same grid, degree, and family).
        t: slice time (enters through the conformal factor and weight).
        metric: slice metric data.
        weight: optional scalar field callback.

    Returns:
        The pairing value as a float.
    """
    a._check_match(b)
    w = None if weight is None else sample_flat(a.lay, weight, t)
    return float(pair_flat(a.lay, a.vec, b.vec, metric.conf(t), w))


def norm_sigma(c: Cochain, t: float, metric: MetricField) -> float:
    """Slice L2 norm induced by pair_sigma."""
    return norm_flat(c.lay, c.vec, metric.conf(t))


def trace_pullback(c: Cochain, face: Face) -> Cochain:
    """Tangential restriction (pullback) of a primal cochain to one face.

    Components whose extent contains the face axis are annihilated; the rest
    restrict their node values on the face (``c.lay.faces[face]``, which
    lists them in the face layout's order).  Only the primal family carries
    exact face values for its tangential components.
    """
    if c.dual:
        raise ValueError("trace_pullback: primal-family cochain required")
    if c.grid.periodic[face.axis]:
        raise ValueError("trace_pullback: periodic axis has no face")
    if c.degree > c.grid.dim - 1:
        raise ValueError("trace_pullback: degree exceeds the face dimension")
    return layout(face_grid(c.grid, face), c.degree, False).cochain(c.vec[c.lay.faces[face]])


def project_normal_flux(c: Cochain) -> Cochain:
    """Zero the face-node values of every normal-leg component (dual family).

    This is the orthogonal projection onto the flux-free boundary subspace:
    the affected degrees of freedom sit exactly on the faces, so the
    projection is idempotent and commutes with the interior dynamics.
    """
    if not c.dual:
        raise ValueError("normal flux: dual-family cochain required")
    return c.lay.cochain(project_flat(c.lay, c.vec.copy()))
