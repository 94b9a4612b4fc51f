"""Mutation probe: does tier-1 catch each of a fixed table of single-line mutants?

For every mutant in ``MUTANTS`` the probe copies the repository into a
temporary directory, applies the mutant's one exact-string replacement to a
file under ``src/``, runs the tier-1 suite there with ``-x``, and prints
``caught`` (the suite failed) or ``survived`` (it passed).  A replacement
whose text is not found exactly once in the current source aborts the probe
before anything runs, so the table cannot silently go stale, and so does a
failure of the suite on an unmutated copy, which would count every mutant
as caught.

Standard library only; pytest does not collect this file.  Run from the
repository root::

    python3 tools/mutants.py

It runs the unmutated copy, then every mutant one after another.  The exit
status is 0 when every mutant was caught and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file under the repository root, exact original text, replacement)
MUTANTS = {
    "source_lapse": (
        "src/kmaxwell/evolution.py",
        "zip(self._term, rows, (self._weights[0], None))",
        "zip(self._term, rows, (None, None))",
    ),
    "current_lapse": (
        "src/kmaxwell/green.py",
        "1.0 / mesh.sample_lapse(le.star, self.metric, times)",
        "mesh.sample_lapse(le.star, self.metric, times)",
    ),
    "trapezoid_end": (
        "src/kmaxwell/mesh.py",
        "prod[_along(axis - m, -1)] *= 0.5",
        "prod[_along(axis - m, -1)] *= 1.0",
    ),
    "rk4_third_stage": (
        "src/kmaxwell/evolution.py",
        "(dt / 2, dt / 2, dt, dt / 6)",
        "(dt / 2, dt / 2, dt / 2, dt / 6)",
    ),
    "stage_projection": (
        "src/kmaxwell/evolution.py",
        "*mesh.project_ops(self.lb, dst[1])]",
        "*(mesh.project_ops(self.lb, dst[1]) if dst is not self._halves[3] else ())]",
    ),
    "stage_combination": (
        "src/kmaxwell/evolution.py",
        "(np.multiply, (r2, 2.0, r3))",
        "(np.multiply, (r2, 1.0, r3))",
    ),
    "level_source_coefficient": (
        "src/kmaxwell/evolution.py",
        "np.multiply(row, c, out=term)",
        "np.multiply(row, 1.0, out=term)",
    ),
    "source_term_temporary": (
        "src/kmaxwell/evolution.py",
        "np.multiply(row, c, out=term)",
        "term[...] = row * c",
    ),
    "stage_source_fb_add": (
        "src/kmaxwell/evolution.py",
        "for half, term in zip(dst, self._term) if term is not None]",
        "for half, term in zip(dst[:1], self._term[:1]) if term is not None]",
    ),
    "horner_coefficient": (
        "src/kmaxwell/evolution.py",
        "(dt / 4, dt / 3, dt / 2, dt)",
        "(dt / 4, dt / 2, dt / 2, dt)",
    ),
    "horner_projection": (
        "src/kmaxwell/evolution.py",
        "*mesh.project_ops(self.lb, dst[1])]",
        "*(() if dst is self._halves[1] else mesh.project_ops(self.lb, dst[1]))]",
    ),
    "horner_base": (
        "src/kmaxwell/evolution.py",
        "src, dst, base, self._weights, fac, spare, self._scratch, self._pad)",
        "src, dst, (0.0, 0.0) if fac is self._level_fac[3] else base, self._weights, fac, spare, "
        "self._scratch, self._pad)",
    ),
    "conformal_power": (
        "src/kmaxwell/mesh.py",
        "power = _conf_power(conf, m - 2 * lay.degree)",
        "power = _conf_power(conf, m - lay.degree)",
    ),
    "boundary_residual": (
        "src/kmaxwell/system.py",
        "exterior.worst([norm(c) for c in (r_bdy or {}).values()])",
        "0.0",
    ),
    "magnetic_energy": (
        "src/kmaxwell/evolution.py",
        "return electric + mesh.pair_sigma(",
        "return electric + 0.0 * mesh.pair_sigma(",
    ),
    "cone_halo": (
        "src/kmaxwell/evolution.py",
        "+ CONE_HALO_CELLS * max(grid.spacings)",
        "+ 2 * CONE_HALO_CELLS * max(grid.spacings)",
    ),
    "ramp_ze_sign": (
        "src/kmaxwell/green.py",
        "np.add(ze[a:b], np.multiply(ramp_ze, rates, out=ramp_ze), out=ze[a:b])",
        "np.subtract(ze[a:b], np.multiply(ramp_ze, rates, out=ramp_ze), out=ze[a:b])",
    ),
    "ramp_lapse_square": (
        "src/kmaxwell/green.py",
        "h.fe[a:b] * (1.0 / beta_w**2)",
        "h.fe[a:b] * (1.0 / beta_w)",
    ),
    "courant_bound": (
        "src/kmaxwell/evolution.py",
        "limit = stable_dt(grid, metric, MAX_CFL, t_span)",
        "limit = 2 * stable_dt(grid, metric, MAX_CFL, t_span)",
    ),
    "drift": (
        "src/kmaxwell/evolution.py",
        "return abs(last - first) / exterior.worst((first, self.scale))",
        "return 0.0",
    ),
    "slab_halo": (
        "src/kmaxwell/green.py",
        "lo, hi = max(a - 1, 0), min(b + 1, T)",
        "lo, hi = a, b",
    ),
    "unit_view": (
        "src/kmaxwell/mesh.py",
        "return row.strides == (0,) and row[0] == 1.0",
        "return row.strides == (0,)",
    ),
    "run_weights": (
        "src/kmaxwell/green.py",
        "images, weights = {}, {}",
        'images, weights = {}, self.__dict__.setdefault("stale", {})',
    ),
    "magnetic_lapse": (
        "src/kmaxwell/green.py",
        "mesh.sample_lapse(lb, metric, times)",
        "mesh.sample_lapse(lw, metric, times)",
    ),
    "stage_source_time": (
        "src/kmaxwell/evolution.py",
        "times = (t, t_mid, t_mid, t_end)",
        "times = (t, t_mid, t_mid, t_mid)",
    ),
    "lockstep_offset": (
        "src/kmaxwell/green.py",
        "fe_rows[:, c] = fe",
        "fe_rows[:, c - 1] = fe",
    ),
    "causal_sign": (
        "src/kmaxwell/green.py",
        "plus.fe[at] -= fe[0]",
        "plus.fe[at] += fe[0]",
    ),
    "pair_term_sign": (
        "src/kmaxwell/green.py",
        "total -= mesh.pair_flat(self.lays[k][1]",
        "total += mesh.pair_flat(self.lays[k][1]",
    ),
    "face_sides": (
        "src/kmaxwell/mesh.py",
        "end = _along(face.axis - m, (0, -1)[face.side])",
        "end = _along(face.axis - m, (-1, 0)[face.side])",
    ),
    "face_node_axes": (
        "src/kmaxwell/mesh.py",
        "for i, axes in enumerate(self.node_axes) if face.axis in axes]",
        "for i, axes in enumerate(self.node_axes)]",
    ),
    "skew_python_max": (
        "src/kmaxwell/cli.py",
        '"skew", exterior.worst(columns["skew_rel"]),',
        '"skew", max(columns["skew_rel"]),',
    ),
    "rows_python_max": (
        "src/kmaxwell/green.py",
        "return exterior.worst([exterior.maxabs(rows) for _, rows, _ in self._families()])",
        "return max(exterior.maxabs(rows) for _, rows, _ in self._families())",
    ),
    "stage_shape": (
        "src/kmaxwell/evolution.py",
        "if self._rows is not None and self._rows[0].shape[:-1] == batch:",
        "if self._rows is not None:",
    ),
    "load_lapse": (
        "src/kmaxwell/evolution.py",
        "np.multiply(s.fe.vec, np.divide(1.0, self.lapse(s.t)[0], out=w), out=w)",
        "w[...] = s.fe.vec",
    ),
    "instability_row": (
        "src/kmaxwell/evolution.py",
        "gen.state(t, gen._rows[0].copy())",
        "gen.state(t, gen._rows[2].copy())",
    ),
    "step_input_copy": (
        "src/kmaxwell/evolution.py",
        "    if y is not gen._rows[0]:\n        np.copyto(gen._rows[0], y)\n",
        "",
    ),
    "dual_pad_sign": (
        "src/kmaxwell/mesh.py",
        "_IDENTITY_ZERO = {np.add: np.array(-0.0), np.subtract: _ZERO}",
        "_IDENTITY_ZERO = {np.add: _ZERO, np.subtract: np.array(-0.0)}",
    ),
    "dual_pad_one_layer": (
        "src/kmaxwell/mesh.py",
        "layers = _along(axis, slice(None, None, target.shape[axis] - 1))",
        "layers = _along(axis, slice(0, 1))",
    ),
    "rows_degree_check": (
        "src/kmaxwell/evolution.py",
        "    if s.k != src.k:\n        raise ValueError(",
        "    if False:\n        raise ValueError(",
    ),
    "source_window_start": (
        "src/kmaxwell/evolution.py",
        "t_lo, t_min = src.window[0], s0.t + 2 * grid.dt",
        "t_lo, t_min = src.window[0], grid.t0 + 2 * grid.dt",
    ),
    "validate_consistency": (
        "src/kmaxwell/evolution.py",
        "    require_consistent(s0.grid, src, s0)\n    require_consistent(grid, src)\n",
        "",
    ),
    "pointwise_measure": (
        "src/kmaxwell/mesh.py",
        "exterior.maxabs(arr) / cell_measure(c.grid, s) for",
        "exterior.maxabs(arr) for",
    ),
    "right_inverse_fb": (
        "src/kmaxwell/green.py",
        "    np.subtract(plus.fb, omega.fb, out=omega.fb)\n",
        "",
    ),
    "suite_trials": (
        "src/kmaxwell/green.py",
        "    if trials < 1:\n        raise ValueError(",
        "    if False:\n        raise ValueError(",
    ),
    "symbol_trials": (
        "src/kmaxwell/system.py",
        "    if trials < 1:\n        raise ValueError(",
        "    if False:\n        raise ValueError(",
    ),
}

# a mutant that makes tier-1 hang (tier-1 takes well under a minute) counts as caught
TIMEOUT_S = 600
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "out_*", "*.egg-info")


def check_table() -> None:
    """Raise SystemExit unless every mutant's text occurs exactly once."""
    for name, (path, old, _) in MUTANTS.items():
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            raise SystemExit(f"mutant {name}: expected one match in {path}, found {count}")


def run_mutant(name: str | None) -> tuple[bool, float, str]:
    """Tier-1 on a copy with the named mutant (None: unmutated): (failed, seconds, first failing test or '')."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if name is not None:
            path, old, new = MUTANTS[name]
            target = tree / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode != 0, seconds, failed[0] if failed else ""


def main() -> int:
    check_table()
    failed, seconds, first = run_mutant(None)
    print(f"{'unmutated':<18} {'FAILED' if failed else 'passed':<9} {seconds:6.1f} s  {first}", flush=True)
    if failed:
        return 1
    caught = 0
    for name in MUTANTS:
        hit, seconds, first = run_mutant(name)
        caught += hit
        print(f"{name:<18} {'caught' if hit else 'SURVIVED':<9} {seconds:6.1f} s  {first}", flush=True)
    print(f"{caught} of {len(MUTANTS)} mutants caught")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
