"""Outside-in span tracer for the kmaxwell layers.

Wrappers are installed on the public module attributes of the library, so
every call that goes through a module attribute is caught, including calls
between library modules (``evolution`` -> ``mesh.d_sigma``) and calls to
names another module imported by value (``io.flatten`` is ``mesh.flatten``;
both attributes get the same wrapper and the span is named after the module
that defines the function).

Attribution rule: a span is opened only around a public function or one of
the methods listed in ``METHODS``.  Private functions (leading underscore),
class methods not listed, ``lru_cache``-wrapped functions and the small
helpers in ``HELPERS`` open no span, so their time counts toward the public
span that called them.  For example ``evolution._rk4_step`` called from
``green._integrate`` called from ``green.g_plus`` is ``green`` self time, so
``green.march.*`` includes the RK4 bookkeeping.  The helpers are left out
because they run hundreds of thousands of times per suite and a wrapper
would cost more than their body.

Spans carry name, start, end and parent id.  They stay in memory (parallel
lists) and are written out once, by :meth:`Tracer.write`, after the traced
call.  Self time is a span's duration minus the durations of its direct
children; the self times of all spans under a root add up to the root's
duration.

This module imports nothing heavy, so it can be loaded before ``numpy``
without disturbing the thread caps that ``kmaxwell.cli`` applies on import.
"""

import functools
import json
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("exterior", "mesh", "system", "evolution", "manufactured", "green", "io", "cli")

# Public functions that open no span (attributed to their caller).
HELPERS = {
    "exterior": {"space_dim", "merge_sign", "perm_sign", "zero", "unit", "euclidean", "lorentzian"},
    "mesh": {
        "subsets", "component_shape", "component_coords", "site_mesh", "cell_measure",
        "cochain_size", "zero_cochain", "faces", "face_grid", "induced_orientation", "unit_metric",
    },
    "system": {"eps_sign", "source_sign"},
}

# Methods that open a span, as (module, class, method) -> span name.
METHODS = {("green", "History", "norm"): "green.history_norm"}

# Outermost spans of these functions are the history marches.
MARCHES = (
    "green.g_plus", "green.g_minus", "green.solution_history",
    "green.random_solution_bundle", "green.random_potential",
)

# Private RK4 step: counted (not timed) by the span that called it.
RK4 = ("evolution", "_rk4_step")

# mesh functions whose calls and self time are reported one by one
MESH_FUNCTIONS = (
    "d_sigma", "hodge_sigma", "multiply_scalar", "sample_scalar", "unflatten", "flatten",
    "pair_sigma", "project_normal_flux",
)


def _cochain_bytes(c) -> int:
    return sum(arr.nbytes for arr in c.comps.values())


def _history_steps(result) -> int:
    histories = result.values() if isinstance(result, dict) else (result,)
    return sum(len(h.times) - 1 for h in histories)


def _written_bytes(args, result) -> int:
    paths = result if isinstance(result, tuple) else (args[0],)
    return sum(Path(p).stat().st_size for p in paths)


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        # per-span extras recorded on exit: sid -> number
        self.steps: dict[int, int] = {}
        self.bytes_moved: dict[int, int] = {}
        self.bytes_written: dict[int, int] = {}
        # RK4 steps keyed by the name of the span that took them
        self.rk4_steps: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, on_exit=None):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(sid, args, result)
            return result

        return wrapper

    def _counter(self, fn):
        names, stack, counts = self.names, self.stack, self.rk4_steps

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[names[stack[-1]] if stack else ""] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_exit(self, name):
        if name == "mesh.d_sigma":
            def hook(sid, args, result):
                self.bytes_moved[sid] = _cochain_bytes(args[0]) + _cochain_bytes(result)
            return hook
        if name in MARCHES:
            def hook(sid, args, result):
                self.steps[sid] = _history_steps(result)
            return hook
        if name.startswith("io.write_"):
            def hook(sid, args, result):
                self.bytes_written[sid] = _written_bytes(args, result)
            return hook
        return None

    # -- install / uninstall -----------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        qualified = {m.__name__: layer for layer, m in modules.items()}
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                layer = qualified.get(obj.__module__)
                if layer is None or obj.__name__ in HELPERS.get(layer, ()):
                    continue
                if id(obj) not in wrappers:
                    name = f"{layer}.{obj.__name__}"
                    wrappers[id(obj)] = self._span(name, obj, self._on_exit(name))
                self._patch(module, attr, wrappers[id(obj)])
        for (layer, cls, method), name in METHODS.items():
            owner = getattr(modules[layer], cls)
            self._patch(owner, method, self._span(name, getattr(owner, method)))
        module, attr = modules[RK4[0]], RK4[1]
        self._patch(module, attr, self._counter(getattr(module, attr)))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the durations of direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        return own

    def _outermost(self, members) -> list[int]:
        """Spans named in ``members`` with no ancestor also named in ``members``."""
        inside = [False] * len(self.names)
        out = []
        for sid, (name, parent) in enumerate(zip(self.names, self.parents)):
            enclosed = parent >= 0 and (inside[parent] or self.names[parent] in members)
            inside[sid] = enclosed
            if name in members and not enclosed:
                out.append(sid)
        return out

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the recorded spans: name -> (value, unit).

        ``wall_s`` is the wall time of the traced call; the part of it no
        span covers is reported as ``trace.outside_s``.
        """
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for sid, name in enumerate(self.names):
            calls[name] += 1
            total[name] += self.ends[sid] - self.starts[sid]
            self_s[name] += own[sid]
            layer_self[name.split(".", 1)[0]] += own[sid]
        roots = sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        for fn in MESH_FUNCTIONS:
            out[f"mesh.{fn}.calls"] = (calls[f"mesh.{fn}"], "count")
            out[f"mesh.{fn}.self_s"] = (self_s[f"mesh.{fn}"], "s")
        rhs_calls = calls["system.rhs_sources"]
        out["mesh.sample_scalar.per_rhs"] = (
            calls["mesh.sample_scalar"] / rhs_calls if rhs_calls else 0.0, "count"
        )
        moved = sum(self.bytes_moved.values())
        out["mesh.d_sigma.bytes_computed"] = (moved, "B")
        d_total = total["mesh.d_sigma"]
        out["mesh.d_sigma.gbps_computed"] = (moved / d_total / 1e9 if d_total else 0.0, "GB/s")

        evolve_steps = self.rk4_steps["evolution.evolve"] + self.rk4_steps["evolution.step"]
        out["evolution.steps"] = (evolve_steps, "count")
        out["evolution.evolve.s_per_step"] = (
            total["evolution.evolve"] / evolve_steps if evolve_steps else 0.0, "s"
        )

        marches = self._outermost(set(MARCHES))
        march_s = sum(self.ends[sid] - self.starts[sid] for sid in marches)
        march_steps = sum(self.steps.get(sid, 0) for sid in marches)
        out["green.march.total_s"] = (march_s, "s")
        out["green.march.steps"] = (march_steps, "count")
        out["green.march.s_per_step"] = (march_s / march_steps if march_steps else 0.0, "s")
        for fn in ("apply_operator", "history_norm", "presymplectic"):
            out[f"green.{fn}.calls"] = (calls[f"green.{fn}"], "count")
            out[f"green.{fn}.total_s"] = (total[f"green.{fn}"], "s")
        out["green.cutoff_sources.total_s"] = (total["green.cutoff_sources"], "s")

        out["system.rhs_sources.calls"] = (rhs_calls, "count")
        out["system.rhs_sources.total_s"] = (total["system.rhs_sources"], "s")
        out["system.constraint_residuals.total_s"] = (total["system.constraint_residuals"], "s")
        out["system.symbol_matrix.calls"] = (calls["system.symbol_matrix"], "count")
        out["system.admissibility_audit.total_s"] = (total["system.admissibility_audit"], "s")
        out["exterior.identity_audit.total_s"] = (total["exterior.identity_audit"], "s")
        out["manufactured.bump_state.total_s"] = (total["manufactured.bump_state"], "s")

        writes = self._outermost({n for n in calls if n.startswith("io.write_")})
        out["io.write.total_s"] = (sum(self.ends[s] - self.starts[s] for s in writes), "s")
        out["io.bytes_written"] = (sum(self.bytes_written.get(s, 0) for s in writes), "B")

        out["trace.spans"] = (len(self.names), "count")
        out["trace.outside_s"] = (wall_s - roots, "s")
        return out

    def write(self, path) -> None:
        """Write every span as [id, parent, name, start, end] rows of one JSON file."""
        rows = [
            [sid, parent, name, start, end]
            for sid, (parent, name, start, end) in enumerate(
                zip(self.parents, self.names, self.starts, self.ends)
            )
        ]
        Path(path).write_text(json.dumps({"columns": ["id", "parent", "name", "start", "end"], "spans": rows}))
