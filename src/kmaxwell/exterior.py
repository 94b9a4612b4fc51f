"""Pointwise exterior algebra over an oriented space with a diagonal metric.

Degree-k elements are dense coefficient vectors over the lexicographically
ordered strictly increasing index tuples (0-based axes).  Every sign
convention used elsewhere in the package is fixed once here:

* ``vol = orientation_sign * sqrt(|det g|) * e_{0...m-1}``,
* ``wedge(a, hodge(b, g)) = inner(a, b, g) * vol`` for equal degrees,
* ``hodge(hodge(a)) = (-1)^(k(m-k) + sigma) * a`` with ``sigma`` the number
  of negative metric entries.

All operations are pure functions over immutable-by-convention values; the
index bookkeeping is cached per (dimension, degree) so repeated application
is vectorized numpy work.  Each operation has one private array kernel
(``_wedge``, ``_interior``, ``_hodge``, ``_inner``, ``_flat``, ``_sharp``)
acting on coefficient arrays with leading batch axes, e.g. ``(T, C)`` stacks
of T samples, the vector and component index last.  Every sample of a stack
gets the arithmetic of a one-sample call, in the same order, so the results
are bit for bit those of the public ``Form`` functions, which are the
checked one-sample entry points over the same kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DIM = 6


@lru_cache(maxsize=None)
def basis_tuples(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing index tuples of length ``degree`` in 0..dim-1."""
    if degree < 0 or degree > dim:
        return ()
    return tuple(itertools.combinations(range(dim), degree))


@lru_cache(maxsize=None)
def basis_index(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    """Position of each index tuple in the lexicographic basis order."""
    return {idx: pos for pos, idx in enumerate(basis_tuples(dim, degree))}


def space_dim(dim: int, degree: int) -> int:
    """Number of independent degree-k components, C(dim, degree)."""
    return len(basis_tuples(dim, degree))


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int | None:
    """Permutation sign of sorting ``left + right``, or None if they overlap.

    Both inputs must already be strictly increasing.
    """
    if set(left) & set(right):
        return None
    inversions = sum(1 for a in left for b in right if b < a)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def complement_sign(dim: int, subset: tuple[int, ...]) -> int:
    """Sign eps(S) defined by e_S wedge e_{S^c} = eps(S) e_{0...dim-1}."""
    rest = tuple(i for i in range(dim) if i not in subset)
    sign = merge_sign(subset, rest)
    assert sign is not None
    return sign


def perm_sign(perm: tuple[int, ...]) -> int:
    """Sign of a permutation given as a tuple of 0-based positions."""
    inversions = sum(
        1
        for i, j in itertools.combinations(range(len(perm)), 2)
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


@dataclass
class Form:
    """A degree-k element of the exterior algebra on an m-dimensional fiber.

    Args:
        dim: fiber dimension m, at most MAX_DIM.
        degree: form degree k with 0 <= k <= m.
        comps: coefficients of length C(m, k) in ``basis_tuples`` order.
    """

    dim: int
    degree: int
    comps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"fiber dimension must be in [1, {MAX_DIM}], got {self.dim}")
        if not 0 <= self.degree <= self.dim:
            raise ValueError(f"degree {self.degree} out of range [0, {self.dim}]")
        self.comps = np.asarray(self.comps, dtype=float)
        want = space_dim(self.dim, self.degree)
        if self.comps.shape != (want,):
            raise ValueError(
                f"expected {want} components for degree {self.degree} in dimension {self.dim}, "
                f"got shape {self.comps.shape}"
            )

    def __add__(self, other: "Form") -> "Form":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("cannot add forms of different dimension or degree")
        return Form(self.dim, self.degree, self.comps + other.comps)

    def __sub__(self, other: "Form") -> "Form":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("cannot subtract forms of different dimension or degree")
        return Form(self.dim, self.degree, self.comps - other.comps)

    def __mul__(self, scalar: float) -> "Form":
        return Form(self.dim, self.degree, self.comps * float(scalar))

    __rmul__ = __mul__


def zero(dim: int, degree: int) -> Form:
    return Form(dim, degree, np.zeros(space_dim(dim, degree)))


def unit(dim: int, indices: tuple[int, ...]) -> Form:
    """Basis form e_{indices} with coefficient one."""
    indices = tuple(indices)
    comps = np.zeros(space_dim(dim, len(indices)))
    comps[basis_index(dim, len(indices))[indices]] = 1.0
    return Form(dim, len(indices), comps)


@dataclass(frozen=True)
class Metric:
    """Diagonal metric with a declared coframe orientation.

    Args:
        diag: nonzero diagonal entries g_ii, one per axis.
        orientation: permutation of the axes giving the positively oriented
            coframe order; natural order if omitted.
    """

    diag: tuple[float, ...]
    orientation: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(float(v) for v in self.diag))
        if any(v == 0.0 for v in self.diag):
            raise ValueError("metric diagonal entries must be nonzero")
        if self.orientation is not None:
            orientation = tuple(self.orientation)
            if sorted(orientation) != list(range(len(self.diag))):
                raise ValueError("orientation must be a permutation of the axes")
            object.__setattr__(self, "orientation", orientation)

    @property
    def dim(self) -> int:
        return len(self.diag)

    @property
    def sigma(self) -> int:
        """Signature index: number of negative diagonal entries."""
        return sum(1 for v in self.diag if v < 0)

    @property
    def orientation_sign(self) -> int:
        return 1 if self.orientation is None else perm_sign(self.orientation)

    @property
    def volume_factor(self) -> float:
        """Oriented volume density: orientation sign times sqrt(|det g|)."""
        det = 1.0
        for v in self.diag:
            det *= v
        return self.orientation_sign * math.sqrt(abs(det))


def euclidean(dim: int) -> Metric:
    return Metric((1.0,) * dim)


def lorentzian(dim: int) -> Metric:
    """Diagonal metric (-1, 1, ..., 1); axis 0 is the negative direction."""
    return Metric((-1.0,) + (1.0,) * (dim - 1))


@lru_cache(maxsize=None)
def _wedge_table(dim: int, ka: int, kb: int):
    pos_out = basis_index(dim, ka + kb)
    ia, ib, io, sg = [], [], [], []
    for i, s in enumerate(basis_tuples(dim, ka)):
        for j, t in enumerate(basis_tuples(dim, kb)):
            sign = merge_sign(s, t)
            if sign is None:
                continue
            ia.append(i)
            ib.append(j)
            io.append(pos_out[tuple(sorted(s + t))])
            sg.append(float(sign))
    return (
        np.asarray(ia, dtype=np.intp),
        np.asarray(ib, dtype=np.intp),
        np.asarray(io, dtype=np.intp),
        np.asarray(sg, dtype=float),
    )


def _wedge(dim: int, ka: int, kb: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ia, ib, io, sg = _wedge_table(dim, ka, kb)
    terms = sg * a[..., ia] * b[..., ib]
    out = np.zeros(terms.shape[:-1] + (space_dim(dim, ka + kb),))
    np.add.at(out, (..., io), terms)
    return out


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; bilinear, associative, graded-commutative."""
    if a.dim != b.dim:
        raise ValueError("wedge: fiber dimensions differ")
    degree = a.degree + b.degree
    if degree > a.dim:
        raise ValueError(f"wedge: degree overflow ({a.degree}+{b.degree} > {a.dim})")
    return Form(a.dim, degree, _wedge(a.dim, a.degree, b.degree, a.comps, b.comps))


@lru_cache(maxsize=None)
def _interior_table(dim: int, degree: int):
    pos_out = basis_index(dim, degree - 1)
    ii, ax, io, sg = [], [], [], []
    for i, s in enumerate(basis_tuples(dim, degree)):
        for p, axis in enumerate(s):
            ii.append(i)
            ax.append(axis)
            io.append(pos_out[s[:p] + s[p + 1 :]])
            sg.append(-1.0 if p % 2 else 1.0)
    return (
        np.asarray(ii, dtype=np.intp),
        np.asarray(ax, dtype=np.intp),
        np.asarray(io, dtype=np.intp),
        np.asarray(sg, dtype=float),
    )


def _interior(dim: int, degree: int, vector: np.ndarray, a: np.ndarray) -> np.ndarray:
    ii, ax, io, sg = _interior_table(dim, degree)
    terms = sg * vector[..., ax] * a[..., ii]
    out = np.zeros(terms.shape[:-1] + (space_dim(dim, degree - 1),))
    np.add.at(out, (..., io), terms)
    return out


def interior(vector: np.ndarray, a: Form) -> Form:
    """Interior product (contraction) of a tangent vector with a form."""
    if a.degree < 1:
        raise ValueError("interior: degree-0 input")
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (a.dim,):
        raise ValueError(f"interior: vector must have {a.dim} components")
    return Form(a.dim, a.degree - 1, _interior(a.dim, a.degree, vector, a.comps))


@lru_cache(maxsize=None)
def _hodge_table(dim: int, degree: int):
    tuples = basis_tuples(dim, degree)
    pos_out = basis_index(dim, dim - degree)
    perm = np.asarray(
        [pos_out[tuple(i for i in range(dim) if i not in s)] for s in tuples],
        dtype=np.intp,
    )
    eps = np.asarray([complement_sign(dim, s) for s in tuples], dtype=float)
    mask = np.zeros((len(tuples), dim), dtype=bool)
    for i, s in enumerate(tuples):
        mask[i, list(s)] = True
    return perm, eps, mask


def _index_weights(dim: int, degree: int, g: Metric) -> np.ndarray:
    """Per-basis-tuple product of inverse metric entries over the tuple."""
    _, _, mask = _hodge_table(dim, degree)
    inv = 1.0 / np.asarray(g.diag)
    return np.prod(np.where(mask, inv, 1.0), axis=1)


def _hodge(degree: int, a: np.ndarray, g: Metric) -> np.ndarray:
    perm, eps, _ = _hodge_table(g.dim, degree)
    factor = eps * _index_weights(g.dim, degree, g) * g.volume_factor
    out = np.zeros(a.shape[:-1] + (space_dim(g.dim, g.dim - degree),))
    out[..., perm] = factor * a
    return out


def hodge(a: Form, g: Metric) -> Form:
    """Hodge dual; diagonal in the index basis for a diagonal metric."""
    if g.dim != a.dim:
        raise ValueError("hodge: metric dimension mismatch")
    return Form(a.dim, a.dim - a.degree, _hodge(a.degree, a.comps, g))


def hodge_inverse(a: Form, g: Metric) -> Form:
    """Inverse Hodge dual: hodge_inverse(hodge(a)) = a."""
    sign = (-1) ** (a.degree * (g.dim - a.degree) + g.sigma)
    out = hodge(a, g)
    out.comps *= sign
    return out


def _inner(degree: int, a: np.ndarray, b: np.ndarray, g: Metric) -> np.ndarray:
    return np.sum(_index_weights(g.dim, degree, g) * a * b, axis=-1)


def inner(a: Form, b: Form, g: Metric) -> float:
    """Pointwise inner product; positive definite iff sigma is zero."""
    if a.degree != b.degree:
        raise ValueError("inner: degree mismatch")
    if a.dim != b.dim or a.dim != g.dim:
        raise ValueError("inner: dimension mismatch")
    return float(_inner(a.degree, a.comps, b.comps, g))


def volume_form(g: Metric) -> Form:
    comps = np.array([g.volume_factor])
    return Form(g.dim, g.dim, comps)


def _flat(vector: np.ndarray, g: Metric) -> np.ndarray:
    return vector * np.asarray(g.diag)


def flat(vector: np.ndarray, g: Metric) -> Form:
    """Musical lowering: component-wise multiplication by the metric diagonal."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (g.dim,):
        raise ValueError(f"flat: vector must have {g.dim} components")
    return Form(g.dim, 1, _flat(vector, g))


def _sharp(a: np.ndarray, g: Metric) -> np.ndarray:
    return a / np.asarray(g.diag)


def sharp(a: Form, g: Metric) -> np.ndarray:
    """Musical raising of a 1-form; inverse of ``flat``."""
    if a.degree != 1:
        raise ValueError("sharp: degree-1 input required")
    return _sharp(a.comps, g)


def operator_matrix(op, dim: int, degree: int) -> np.ndarray:
    """Dense matrix of a linear map on degree-k forms (basis columns)."""
    cols = [op(unit(dim, s)).comps for s in basis_tuples(dim, degree)]
    return np.stack(cols, axis=1)


def worst(values) -> float:
    """The largest of a check's measures, 0.0 for none; nan when any is nan, so a nan measure fails its check."""
    return float(np.max(values, initial=0.0))


def maxabs(values) -> float:
    """The :func:`worst` of the magnitudes of ``values``."""
    return worst(np.abs(values))


def identity_audit(g: Metric, trials: int = 100, seed: int = 0) -> dict[str, float]:
    """Evaluate the pointwise sign identities on random forms and vectors.

    For every degree k the audit draws ``trials`` random forms/vectors with
    standard-normal coefficients and records the maximum absolute defect of
    each identity:

    * double Hodge sign,
    * ``flat(X) ^ hodge(w) = (-1)^(k+1) hodge(interior(X, w))``,
    * ``hodge(flat(X) ^ w) = (-1)^k interior(X, hodge(w))``,
    * adjointness of wedge against interior,
    * the Hodge transpose sign ``<hodge(w), r> = (-1)^(k(m-k)) <w, hodge(r)>``,
    * ``w ^ hodge(v) = <w, v> vol`` and ``<w, v> = (-1)^sigma hodge(w ^ hodge(v))``,
    * interior antiderivation, graded commutativity, sharp/flat round-trips.

    The draws of all trials of a degree are taken at once, in per-trial
    order, and each identity is evaluated once on the ``(trials, C)``
    stacks, so the defects equal those of a loop over single samples.

    Args:
        g: fiber metric under audit.
        trials: number of random draws per degree.
        seed: RNG seed; the audit is deterministic given (g, trials, seed).

    Returns:
        Mapping from identity name to maximum absolute defect.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    m = g.dim
    sigma = g.sigma
    vol = volume_form(g).comps
    defects: dict[str, list] = {}

    def record(name: str, value: float) -> None:
        defects.setdefault(name, []).append(value)

    for k in range(m + 1):
        # one trial's draws, in order: w, v, r, x, then eta (k <= m-1), then b (1 <= k <= m-1)
        widths = [space_dim(m, k), space_dim(m, k), space_dim(m, m - k), m]
        if k <= m - 1:
            widths.append(space_dim(m, k + 1))
        if 1 <= k <= m - 1:
            widths.append(m)
        draws = rng.standard_normal((trials, sum(widths)))
        w, v, r, x, *rest = np.split(draws, np.cumsum(widths)[:-1], axis=1)
        hw = _hodge(k, w, g)
        fx = _flat(x, g)

        record("double_hodge", maxabs(_hodge(m - k, hw, g) - w * (-1) ** (k * (m - k) + sigma)))
        transpose = _inner(m - k, hw, r, g) - ((-1) ** (k * (m - k))) * _inner(k, w, _hodge(m - k, r, g), g)
        record("hodge_transpose", maxabs(transpose))

        wp = _wedge(m, k, m - k, w, _hodge(k, v, g))
        wv = _inner(k, w, v, g)
        record("wedge_pairing", maxabs(wp - wv[:, None] * vol))
        record("inner_via_hodge", maxabs(wv - ((-1) ** sigma) * _hodge(m, wp, g)[:, 0]))

        if k >= 1:
            lhs = _wedge(m, 1, m - k, fx, hw)
            rhs = _hodge(k - 1, _interior(m, k, x, w), g) * (-1) ** (k + 1)
            record("flat_wedge_hodge", maxabs(lhs - rhs))

        if k <= m - 1:
            fw = _wedge(m, 1, k, fx, w)
            rhs = _interior(m, m - k, x, hw) * (-1) ** k
            record("hodge_flat_wedge", maxabs(_hodge(k + 1, fw, g) - rhs))

            eta = rest[0]
            adjoint = _inner(k + 1, fw, eta, g) - _inner(k, w, _interior(m, k + 1, x, eta), g)
            record("wedge_interior_adjoint", maxabs(adjoint))

        if 1 <= k <= m - 1:
            b = rest[1]
            wb = _wedge(m, k, 1, w, b)
            lhs = _interior(m, k + 1, x, wb)
            rhs = _wedge(m, k - 1, 1, _interior(m, k, x, w), b)
            rhs = rhs + _wedge(m, k, 0, w, _interior(m, 1, x, b)) * (-1) ** k
            record("interior_antiderivation", maxabs(lhs - rhs))
            record("graded_commutativity", maxabs(wb - _wedge(m, 1, k, b, w) * (-1) ** k))

        alpha = rng.standard_normal(m)
        record("flat_sharp_roundtrip", maxabs(_flat(_sharp(alpha, g), g) - alpha))
        y = rng.standard_normal(m)
        record("sharp_flat_roundtrip", maxabs(_sharp(_flat(y, g), g) - y))

    return {name: worst(values) for name, values in defects.items()}
