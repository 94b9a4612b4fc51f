"""The benchmark's workloads and the layer-to-end-to-end metric map.

Every workload is a single-process closed loop: one repetition in a fresh
child process at a time, each starting after the previous one has ended.  A
repetition runs the workload's suites in order.  The benchmark seed becomes
each config's ``seed``; everything else is fixed.

Why two workloads of several suites each, not one workload per suite: on the
shared 2-vCPU machine the benchmark was built on, machine speed drifts by up
to 25% over tens of seconds to minutes (a fixed pure-Python loop shows it
too), so medians of 30-second runs of the green and symplectic suites alone
spread by 0.16-0.21 (quartile distance over median, ten seeds).  Runs of
about a minute cut that to 0.11-0.13, and a full parent-versus-change
comparison (4 + 22 runs per workload, under an hour in all) fits one-minute
runs for two workloads, not four.
"""

from tracer import MESH_FUNCTIONS

WORKLOADS = {
    "marches": {
        "why": "evolve n=4 32^3 (134k DOFs, array-bound), then green_suite on the 16^2 box and "
               "symplectic_suite on the 16^2 torus (overhead-bound history marches and pairings)",
        "configs": [
            # acceptance criteria 4/5 setting: 100 RK4 steps; never touches green
            {"experiment": "evolve", "n": 4, "k": 2, "cells": 32, "boundary": "project_B",
             "dt": 0.0125, "t_final": 1.25, "monitor_stride": 5},
            # 240-step histories, right-inverse check plus one exact-sequence trial
            {"experiment": "green_suite", "n": 3, "k": 2, "cells": 16, "dt": 0.0025,
             "steps": 240, "trials": 1},
            # 5 bundles x degrees {1, 2} x 120 steps, 10 pairs x 3 pairings, no projection
            {"experiment": "symplectic_suite", "n": 3, "cells": 16, "periodic": "true",
             "bundles": 5, "steps": 120},
        ],
    },
    "fiber_audits": {
        "why": "identities then symbol_audit at their defaults: exterior and symbol code only, "
               "so changes to mesh, evolution or green should leave it unchanged",
        "configs": [
            {"experiment": "identities"},
            {"experiment": "symbol_audit"},
        ],
    },
}

EVOLVE, GREEN, SYMPLECTIC = ("evolve",), ("green_suite",), ("symplectic_suite",)
MARCHES = EVOLVE + GREEN + SYMPLECTIC
FIBER = ("identities", "symbol_audit")

# Layer metric -> (end-to-end metrics it should move, workload, suites of that
# workload whose share of it should move).  fiber_audits is the control for
# the mesh, evolution and green metrics: they should leave it unchanged.
LAYER_MAP = {
    "mesh.self_s": (("run_s",), "marches", MARCHES),
    "mesh.sample_scalar.per_rhs": (("run_s",), "marches", GREEN + SYMPLECTIC),
    "mesh.d_sigma.bytes_computed": (("run_s",), "marches", EVOLVE),
    "mesh.d_sigma.gbps_computed": (("run_s",), "marches", EVOLVE),
    "evolution.self_s": (("run_s",), "marches", EVOLVE),
    "evolution.steps": (("run_s",), "marches", EVOLVE),
    "evolution.evolve.s_per_step": (("run_s",), "marches", EVOLVE),
    "green.self_s": (("run_s",), "marches", GREEN + SYMPLECTIC),
    "green.march.total_s": (("run_s",), "marches", GREEN + SYMPLECTIC),
    "green.march.steps": (("run_s",), "marches", GREEN + SYMPLECTIC),
    "green.march.s_per_step": (("run_s",), "marches", GREEN + SYMPLECTIC),
    "green.apply_operator.total_s": (("run_s", "peak_rss_mb"), "marches", GREEN),
    "green.cutoff_sources.total_s": (("run_s", "peak_rss_mb"), "marches", GREEN),
    "green.history_norm.total_s": (("run_s", "peak_rss_mb"), "marches", GREEN),
    "green.presymplectic.total_s": (("run_s",), "marches", SYMPLECTIC),
    "system.rhs_sources.calls": (("run_s",), "marches", MARCHES),
    "system.rhs_sources.total_s": (("run_s",), "marches", MARCHES),
    "system.constraint_residuals.total_s": (("run_s",), "marches", EVOLVE),
    "system.symbol_matrix.calls": (("run_s",), "fiber_audits", FIBER),
    "system.admissibility_audit.total_s": (("run_s",), "fiber_audits", FIBER),
    "exterior.self_s": (("run_s",), "fiber_audits", FIBER),
    "exterior.identity_audit.total_s": (("run_s",), "fiber_audits", FIBER),
    "cli.self_s": (("run_s",), "fiber_audits", FIBER),
    "manufactured.bump_state.total_s": (("run_s",), "marches", EVOLVE),
    "io.write.total_s": (("run_s",), "marches", EVOLVE),
    "io.bytes_written": (("run_s",), "marches", EVOLVE),
}
LAYER_MAP.update({
    f"mesh.{fn}.{field}": (("run_s",), "marches", GREEN + SYMPLECTIC)
    for fn in MESH_FUNCTIONS
    for field in ("calls", "self_s")
})
