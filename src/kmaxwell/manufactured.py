"""Closed-form field families for verification.

Two kinds of data are produced:

* trig families on the unit box (n = 3): smooth product-of-sines solutions
  whose sources are *derived* symbolically from the split equations, so the
  discrete residual of the sampled family is pure truncation error.  The
  component parities are matched to the boundary (sine factors along axes
  where the staggering places nodes on the faces), which keeps the one-sided
  boundary stencils consistent;
* compactly supported bump states on any grid: exact discrete coboundaries
  of interior bump potentials, giving constraint-free, boundary-compatible
  initial data with a known support radius.

sympy is imported lazily inside the builders.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mesh, system


@dataclass
class ManufacturedField:
    """A closed-form state family with sources derived from the equations.

    Component callables take ``(t, *coords)`` and broadcast over numpy
    arrays; source families evaluate to flat rows on demand.
    """

    n: int
    k: int
    lengths: tuple
    metric: mesh.MetricField
    fe_fns: dict
    fb_fns: dict
    fe_dt_fns: dict
    fb_dt_fns: dict
    je_fns: dict | None
    jb_fns: dict
    ze_fns: dict
    zb_fns: dict | None

    def _check(self, grid: mesh.GridSpec) -> None:
        if grid.n != self.n or grid.lengths != self.lengths:
            raise ValueError("grid does not match the family's box")

    def state(self, grid: mesh.GridSpec, t: float) -> system.FieldState:
        self._check(grid)
        fe = mesh.sample_cochain(grid, self.n - self.k, False, self.fe_fns, t)
        fb = mesh.sample_cochain(grid, self.k, True, self.fb_fns, t)
        return system.FieldState(t, fe, fb, self.k)

    def state_dt(self, grid: mesh.GridSpec, t: float) -> system.FieldState:
        self._check(grid)
        fe = mesh.sample_cochain(grid, self.n - self.k, False, self.fe_dt_fns, t)
        fb = mesh.sample_cochain(grid, self.k, True, self.fb_dt_fns, t)
        return system.FieldState(t, fe, fb, self.k)

    def sources(self, grid: mesh.GridSpec) -> system.SourceData:
        self._check(grid)
        n, k = self.n, self.k

        def family(degree, dual, fns):
            if fns is None:
                return None
            return lambda t: mesh.sample_cochain(grid, degree, dual, fns, t).vec

        return system.SourceData(
            grid=grid,
            k=k,
            window=(-np.inf, np.inf),
            je=family(n + 1 - k, False, self.je_fns),
            jb=family(k - 1, True, self.jb_fns),
            ze=family(n - 1 - k, False, self.ze_fns),
            zb=family(k + 1, True, self.zb_fns),
        )


@functools.cache
def trig_family(k: int) -> ManufacturedField:
    """Smooth trig solution with derived sources on the unit box, n = 3.

    The lapse varies in space and time and the conformal factor in time, so
    every metric weight in the split system is exercised.  Sources are the
    exact continuum left-hand sides, computed symbolically; sampling the
    family on any grid therefore leaves only O(h^2) truncation residual.

    Args:
        k: field degree, 1 or 2.

    Returns:
        ManufacturedField on the unit box.
    """
    import sympy as sp

    if k not in (1, 2):
        raise ValueError("trig families are built for n=3 with k in {1, 2}")
    n = 3
    t, x, y = sp.symbols("t x y", real=True)
    pi = sp.pi

    beta = 1 + sp.Rational(1, 4) * sp.cos(pi * x) * sp.cos(pi * y) * sp.sin(t)
    conf = 1 + sp.Rational(1, 10) * sp.sin(t)

    # slice operators for two spatial axes with metric conf^2 * flat
    def star_pair(p, q):
        return (-q, p)

    def star_top(w):
        return w / conf**2

    def d_scalar(s):
        return (sp.diff(s, x), sp.diff(s, y))

    def d_pair(p, q):
        return sp.diff(q, x) - sp.diff(p, y)

    eps = system.eps_sign(n, k)
    ssign = system.source_sign(n, k)

    if k == 1:
        # electric: top degree (even parity); magnetic legs: sine along own axis
        f01 = sp.cos(pi * x) * sp.cos(pi * y) * (1 + sp.sin(2 * t) / 2)
        b0 = sp.sin(pi * x) * sp.cos(pi * y) * sp.cos(t)
        b1 = sp.cos(pi * x) * sp.sin(2 * pi * y) * sp.sin(t)

        lhs_e = sp.diff(f01 / beta, t) / beta + eps * d_pair(*star_pair(beta * b0, beta * b1)) / beta
        jb_expr = lhs_e / ssign / conf**2  # invert star on scalars
        rb0, rb1 = d_scalar(star_top(f01))
        ze0 = sp.diff(b1, t) - rb1          # invert star_pair: (p,q) = (r1, -r0)
        ze1 = -(sp.diff(b0, t) - rb0)
        zb_expr = d_pair(b0, b1)

        fe_fns = {(0, 1): f01}
        fb_fns = {(0,): b0, (1,): b1}
        je_fns = None
        jb_fns = {(): jb_expr}
        ze_fns = {(0,): ze0, (1,): ze1}
        zb_fns = {(0, 1): zb_expr}
    else:
        # electric legs: sine along the *other* axis; magnetic: sine in both
        e0 = sp.cos(pi * x) * sp.sin(pi * y) * (1 + sp.cos(t) / 2)
        e1 = sp.sin(pi * x) * sp.cos(pi * y) * sp.sin(t + 1)
        b01 = sp.sin(pi * x) * sp.sin(pi * y) * sp.cos(2 * t)

        scal = star_top(beta * b01)
        lhs_e0 = sp.diff(e0 / beta, t) / beta + eps * sp.diff(scal, x) / beta
        lhs_e1 = sp.diff(e1 / beta, t) / beta + eps * sp.diff(scal, y) / beta
        # rhs = ssign * star_pair(jb) = ssign * (-jb1, jb0)
        jb0 = lhs_e1 / ssign
        jb1 = -lhs_e0 / ssign
        ze_expr = (sp.diff(b01, t) - d_pair(*star_pair(e0, e1))) / conf**2
        je_expr = ((-1) ** (n - k)) * beta * d_pair(e0 / beta, e1 / beta)

        fe_fns = {(0,): e0, (1,): e1}
        fb_fns = {(0, 1): b01}
        je_fns = {(0, 1): je_expr}
        jb_fns = {(0,): jb0, (1,): jb1}
        ze_fns = {(): ze_expr}
        zb_fns = None

    syms = (t, x, y)

    def lam(expr):
        fn = sp.lambdify(syms, expr, modules="numpy")
        return lambda tt, xx, yy: fn(tt, xx, yy)

    def lam_dict(d):
        return {s: lam(expr) for s, expr in d.items()}

    def lam_dt_dict(d):
        return {s: lam(sp.diff(expr, t)) for s, expr in d.items()}

    metric = mesh.MetricField(
        beta=lam(beta),
        conf=sp.lambdify((t,), conf, modules="numpy"),
        beta_dt=lam(sp.diff(beta, t)),
    )
    return ManufacturedField(
        n=n,
        k=k,
        lengths=(1.0, 1.0),
        metric=metric,
        fe_fns=lam_dict(fe_fns),
        fb_fns=lam_dict(fb_fns),
        fe_dt_fns=lam_dt_dict(fe_fns),
        fb_dt_fns=lam_dt_dict(fb_fns),
        je_fns=None if je_fns is None else lam_dict(je_fns),
        jb_fns=lam_dict(jb_fns),
        ze_fns=lam_dict(ze_fns),
        zb_fns=None if zb_fns is None else lam_dict(zb_fns),
    )


def bump_profile(center, radius: float) -> Callable:
    """Smooth compactly supported profile exp(1 - 1/(1 - r^2)) around a point.

    Vanishes identically (with all derivatives) outside the given radius.
    """
    center = np.asarray(center, dtype=float)

    def fn(t, *coords):
        r2 = sum(
            (np.asarray(c) - center[i]) ** 2 for i, c in enumerate(coords)
        ) / radius**2
        out = np.zeros(np.broadcast(*coords).shape if len(coords) > 1 else np.shape(coords[0]))
        r2 = np.broadcast_to(r2, out.shape)
        inside = r2 < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.exp(1.0 - 1.0 / np.where(inside, 1.0 - r2, 1.0))
        out[inside] = vals[inside]
        return out

    return fn


def bump_potential(grid: mesh.GridSpec, degree: int, dual: bool, profile, rng, t: float = 0.0) -> mesh.Cochain:
    """Integral cochain of a profile on every component, each scaled by a random amplitude in [0.5, 1)."""
    c = mesh.zero_cochain(grid, degree, dual)
    for s, view in c.comps.items():
        view[...] = rng.uniform(0.5, 1.0) * mesh.sample_scalar(grid, s, dual, profile, t) * mesh.cell_measure(grid, s)
    return c


def bump_state(
    grid: mesh.GridSpec,
    k: int,
    metric: mesh.MetricField,
    t: float = 0.0,
    center=None,
    radius: float | None = None,
    seed: int = 0,
) -> tuple[system.FieldState, float]:
    """Constraint-compatible bump initial data with known support radius.

    Both components are exact discrete coboundaries of interior bump
    potentials: the magnetic part is d(dual potential) (closed to roundoff,
    flux-free on the boundary), the electric part is the lapse times
    d(primal potential) (so the lapse-weighted constraint is a double
    coboundary).  The potentials sit on every component with small random
    amplitudes.

    Args:
        grid: target grid.
        k: field degree.
        metric: metric data (the lapse multiplies the electric part).
        t: sampling time.
        center: bump center (defaults to the box center).
        radius: support radius (defaults to a third of the shortest side).
        seed: amplitude seed.

    Returns:
        (state, support_radius) pair; the support radius accounts for one
        extra cell of smearing from the coboundary stencils.
    """
    n = grid.n
    if center is None:
        center = tuple(l / 2 for l in grid.lengths)
    if radius is None:
        radius = min(grid.lengths) / 3.0
    rng = np.random.default_rng(seed)
    profile = bump_profile(center, radius)

    fb = mesh.project_normal_flux(mesh.d_sigma(bump_potential(grid, k - 1, True, profile, rng, t)))
    pot_e = bump_potential(grid, n - k - 1, False, profile, rng, t)
    fe = mesh.multiply_scalar(mesh.d_sigma(pot_e), metric.beta, t)

    support_radius = radius + float(max(grid.spacings))
    return system.FieldState(t, fe, fb, k), support_radius
