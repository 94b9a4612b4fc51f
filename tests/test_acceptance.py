"""Acceptance gates: every advertised guarantee at its stated tolerance.

Each test runs one criterion end to end at its published configuration, so
``pytest -v tests/test_acceptance.py`` prints exactly one pass/fail line per
criterion; run with ``-s`` to also see the measured values.  Thresholds are
imported from :mod:`kmaxwell.tolerances` — the same constants every suite and
manifest reports against.
"""

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest

from kmaxwell import cli, evolution, exterior, green, io, manufactured, mesh, system
from kmaxwell.tolerances import (
    ADMISSIBILITY_TOL,
    BOUNDARY_RESIDUAL_TOL,
    CONE_LEAK_TOL,
    CONSTRAINT_DRIFT_TOL,
    DEGENERACY_TOL,
    GREEN_DEFECT_TOL,
    GREEN_HALVING_WINDOW,
    IDENTITY_TOL,
    MMS_ORDER,
    MMS_ORDER_WINDOW,
    PRESYMPLECTIC_REL_TOL,
    SOURCE_FORM_AGREEMENT_TOL,
    SYMBOL_SYMMETRY_TOL,
)

METRIC = mesh.unit_metric()
DT = 0.005
FINE_DT = 0.0025

SYMBOL_TABLE = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))


def box_grid(n=3, cells=16, dt=DT, periodic=False):
    m = n - 1
    return mesh.GridSpec(
        n=n,
        cells_per_axis=(cells,) * m,
        lengths=(1.0,) * m,
        dt=dt,
        periodic=(periodic,) * m,
    )


@functools.lru_cache(maxsize=None)
def bump_cone_run(n, c_factor=1.0):
    """Bump-data run on the 32^(n-1) box: 100 RK4 steps at CFL 0.4.

    ``c_factor`` scales the wave-speed bound handed to the cone monitor; 1.0
    is the true bound, 0.5 is the deliberately wrong falsification value.
    """
    coarse = box_grid(n, cells=32, dt=1.0)
    dt = evolution.stable_dt(coarse, METRIC, 0.4, (0.0, 2.0))
    grid = box_grid(n, cells=32, dt=dt)
    state0, radius = manufactured.bump_state(grid, 2, METRIC, radius=0.2, seed=7)
    src = system.zero_sources(grid, 2)
    assert evolution.validate_problem(state0, src, grid, METRIC).passed
    c_max = c_factor * evolution.wave_speed_bound(grid, METRIC, (0.0, 100 * dt))
    support = evolution.SupportInfo(
        center=(0.5,) * (n - 1), radius=radius, c_max=c_max
    )
    cfg = evolution.EvolveConfig(t_final=100 * dt, cfl=0.4, monitor_stride=5)
    _, series = evolution.evolve(state0, src, METRIC, cfg, support=support)
    return series, radius, c_max


@functools.lru_cache(maxsize=None)
def torus_bundles():
    g = box_grid(periodic=True)
    return g, tuple(green.random_solution_bundles(g, METRIC, 120, range(5)))


def bundle_norm(bundle):
    return float(np.sqrt(sum(h.norm(METRIC) ** 2 for h in bundle.values())))


def test_criterion_1_pointwise_identity_suite():
    start = time.monotonic()
    worst = 0.0
    for m in (2, 3, 4, 5):
        for signature in (exterior.euclidean(m), exterior.lorentzian(m)):
            defects = exterior.identity_audit(signature, trials=100, seed=0)
            worst = max(worst, max(defects.values()))
            assert max(defects.values()) < IDENTITY_TOL
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        f"\ncriterion 1 PASS: max pointwise identity defect {worst:.3e} < {IDENTITY_TOL:.0e} "
        f"(100 trials per degree, m in 2..5, both signatures); {elapsed:.2f}s"
    )


def test_criterion_2_principal_symbol_audit():
    start = time.monotonic()
    audit_metric = mesh.MetricField(
        beta=lambda t, *x: 1.3 + 0.2 * float(np.sin(x[0] + t)), conf=lambda t: 1.7
    )
    worst_symmetry = 0.0
    worst_min_eig = np.inf
    for n, k in SYMBOL_TABLE:
        rng = np.random.default_rng(10 * n + k)
        symmetry = 0.0
        min_eig = np.inf
        for _ in range(1000):
            sig = system.symbol_matrix(
                rng.standard_normal(),
                rng.standard_normal(n - 1),
                rng.uniform(0.5, 2.0),
                rng.uniform(0.5, 2.0),
                n,
                k,
            )
            symmetry = max(symmetry, float(np.max(np.abs(sig - sig.T))))

            xi0 = rng.uniform(0.1, 2.0)
            beta = rng.uniform(0.5, 2.0)
            conf = rng.uniform(0.5, 2.0)
            direction = rng.standard_normal(n - 1)
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(0.0, 0.99) * xi0 / beta
            timelike = system.symbol_matrix(xi0, conf * radius * direction, beta, conf, n, k)
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(timelike))))

            conormal = system.symbol_matrix(0.0, conf * direction, beta, conf, n, k)
            kernel, plus, minus = system.classify_eigenvalues(np.linalg.eigvalsh(conormal))
            assert kernel == math.comb(n - 2, n - k) + math.comb(n - 2, k)
            assert plus == minus == math.comb(n - 2, k - 1)
        assert symmetry < SYMBOL_SYMMETRY_TOL
        assert min_eig > 0.0
        worst_symmetry = max(worst_symmetry, symmetry)
        worst_min_eig = min(worst_min_eig, min_eig)
        for axis, side in itertools.product(range(n - 1), (0, 1)):
            for _ in range(3):
                report = system.admissibility_audit(
                    mesh.Face(axis, side),
                    rng.uniform(0.0, 2.0),
                    tuple(rng.uniform(0.0, 1.0, n - 1)),
                    audit_metric,
                    n,
                    k,
                    tol=ADMISSIBILITY_TOL,
                )
                assert report.passed(), (n, k, axis, side, report.admissibility)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"\ncriterion 2 PASS: symmetry defect {worst_symmetry:.3e} < {SYMBOL_SYMMETRY_TOL:.0e}, "
        f"timelike min eigenvalue {worst_min_eig:.3e} > 0, eigenspace counts exact, "
        f"boundary admissibility at tol {ADMISSIBILITY_TOL:.0e} (1000 covectors per (n,k)); {elapsed:.1f}s"
    )


def test_criterion_3_split_system_convergence():
    start = time.monotonic()
    orders = {}
    for k in (1, 2):
        family = manufactured.trig_family(k)
        grids = [box_grid(3, cells, dt=0.01) for cells in (16, 64)]
        table = system.formulation_equivalence_check(family, grids, family.metric, t=0.7)
        for key in ("evo_e", "evo_b", "div_b" if k == 1 else "div_e"):
            coarse, fine = table[key]
            order = math.log(coarse / fine) / math.log(4.0)
            assert abs(order - MMS_ORDER) < MMS_ORDER_WINDOW, (k, key, order)
            orders[(k, key)] = order
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    summary = ", ".join(f"k={k} {key}:{order:.2f}" for (k, key), order in orders.items())
    print(
        f"\ncriterion 3 PASS: split-system residual orders between grids 16 and 64 within "
        f"{MMS_ORDER} +/- {MMS_ORDER_WINDOW} ({summary}); {elapsed:.1f}s"
    )


def test_criterion_4_constraint_preservation():
    start = time.monotonic()
    drifts = {}
    for n in (3, 4):
        series, _, _ = bump_cone_run(n)
        scale = max(float(series.state_max.max()), 1e-300)
        for key in ("rE", "rB"):
            values = series.columns[key]
            first, last = float(values[0]), float(values[-1])
            drift = abs(last - first) / max(first, scale)
            assert drift < CONSTRAINT_DRIFT_TOL, (n, key, drift)
            drifts[(n, key)] = drift
        boundary = float(np.max(series.columns["rbdy"])) / scale
        assert boundary < BOUNDARY_RESIDUAL_TOL, (n, boundary)
        drifts[(n, "rbdy")] = boundary
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    worst = max(drifts.values())
    print(
        f"\ncriterion 4 PASS: constraint drift and boundary residual <= {worst:.3e} "
        f"< {CONSTRAINT_DRIFT_TOL:.0e} on 32^2 (n=3) and 32^3 (n=4), 100 RK4 steps at "
        f"CFL 0.4; {elapsed:.1f}s"
    )


def test_criterion_5_finite_speed():
    start = time.monotonic()
    leaks = {}
    for n in (3, 4):
        series, radius, c_max = bump_cone_run(n)
        verdict = evolution.support_audit(series, radius, c_max)
        assert verdict.passed and verdict.measure < CONE_LEAK_TOL, (n, verdict.measure)
        leaks[n] = verdict.measure
    series_bad, radius_bad, c_half = bump_cone_run(3, 0.5)
    falsified = evolution.support_audit(series_bad, radius_bad, c_half)
    assert not falsified.passed
    assert falsified.measure > CONE_LEAK_TOL
    elapsed = time.monotonic() - start
    print(
        f"\ncriterion 5 PASS: cone-exterior leak n=3:{leaks[3]:.2e}, n=4:{leaks[4]:.2e} "
        f"< {CONE_LEAK_TOL:.0e} with 4h halo; halved-speed falsification leaks "
        f"{falsified.measure:.2e} and fails as required; {elapsed:.1f}s"
    )


def test_criterion_6_green_identities():
    start = time.monotonic()
    defects = {}
    for cells, dt in ((16, DT), (32, DT / np.sqrt(2.0))):
        g = box_grid(cells=cells, dt=dt)
        steps = int(round(0.6 / dt))
        times = dt * np.arange(steps + 1)
        omega = green.random_compact_history(
            g, 2, METRIC, times, (0.1, 0.5), np.random.default_rng(11)
        )
        defects[cells] = green.right_inverse_check(omega, g, METRIC)["defect"]
    assert defects[16] < GREEN_DEFECT_TOL
    ratio = defects[32] / defects[16]
    low = 0.5 * (1.0 - GREEN_HALVING_WINDOW)
    high = 0.5 * (1.0 + GREEN_HALVING_WINDOW)
    assert low <= ratio <= high, ratio

    g16 = box_grid()
    pair = green.random_source_pair(g16, 1, METRIC, (0.1, 0.4), np.random.default_rng(40))
    forward = green.g_plus(pair, g16, METRIC, t_start=0.0, t_final=0.5)
    # one-dt margin: a float time epsilon inside the window edge samples the
    # profile's flat tail, so bit-exactness is asserted strictly outside
    before = forward.times <= pair.window[0] - DT + 1e-12
    assert np.count_nonzero(before) >= 2
    assert not np.any(forward.fe[before]) and not np.any(forward.fb[before])
    assert np.any(forward.fe[~before])
    backward = green.g_minus(pair, g16, METRIC, t_start=0.0, t_final=0.5)
    after = backward.times >= pair.window[1] + DT - 1e-12
    assert np.count_nonzero(after) >= 2
    assert not np.any(backward.fe[after]) and not np.any(backward.fb[after])
    assert np.any(backward.fe[~after])

    sequence = green.exact_sequence_suite(box_grid(dt=FINE_DT), METRIC, trials=3, seed=0)
    for key in ("defect_a", "defect_b", "defect_c"):
        assert sequence[key] < GREEN_DEFECT_TOL, (key, sequence[key])
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    print(
        f"\ncriterion 6 PASS: right-inverse defect {defects[16]:.3e} < {GREEN_DEFECT_TOL:.0e} "
        f"on 16^2, refinement ratio {ratio:.3f} in [{low:.2f},{high:.2f}]; one-sided "
        f"histories bit-exact zero outside the causal side; exact-sequence defects "
        f"a={sequence['defect_a']:.2e}, b={sequence['defect_b']:.2e}, "
        f"c={sequence['defect_c']:.2e}; {elapsed:.1f}s"
    )


def test_criterion_7_presymplectic_structure():
    start = time.monotonic()
    g, bundles = torus_bundles()
    chi = green.CutoffProfile(0.3, 10 * DT)
    wide = green.CutoffProfile(0.3, 20 * DT)
    shifted = green.CutoffProfile(0.35, 10 * DT)
    worst_skew = 0.0
    worst_chi = 0.0
    for i, j in itertools.combinations(range(5), 2):
        value = green.presymplectic(bundles[i], bundles[j], chi, g, METRIC)
        swapped = green.presymplectic(bundles[j], bundles[i], chi, g, METRIC)
        scale = abs(value)
        assert scale > 0.0
        worst_skew = max(worst_skew, abs(value + swapped) / scale)
        for other in (wide, shifted):
            moved = green.presymplectic(bundles[i], bundles[j], other, g, METRIC)
            worst_chi = max(worst_chi, abs(moved - value) / scale)
    assert worst_skew < PRESYMPLECTIC_REL_TOL
    assert worst_chi < PRESYMPLECTIC_REL_TOL

    src1 = green.random_source_pair(g, 2, METRIC, (0.1, 0.35), np.random.default_rng(31), with_harmonic=True)
    src2 = green.random_source_pair(g, 1, METRIC, (0.15, 0.4), np.random.default_rng(32), with_harmonic=True)
    sol1 = green.causal(src1, g, METRIC, t_final=0.6)
    sol2 = green.causal(src2, g, METRIC, t_final=0.6)
    sigma = green.presymplectic({2: sol1}, {1: sol2}, chi, g, METRIC)
    varsigma = green.presymplectic_source_form(src1, src2, g, METRIC, t_final=0.6)
    agreement = abs(sigma - varsigma) / abs(sigma)
    assert agreement < SOURCE_FORM_AGREEMENT_TOL

    gb = box_grid()
    box1 = green.random_source_pair(gb, 2, METRIC, (0.1, 0.35), np.random.default_rng(31))
    box2 = green.random_source_pair(gb, 1, METRIC, (0.15, 0.4), np.random.default_rng(32))
    bsol1 = green.causal(box1, gb, METRIC, t_final=0.6)
    bsol2 = green.causal(box2, gb, METRIC, t_final=0.6)
    bsigma = green.presymplectic({2: bsol1}, {1: bsol2}, chi, gb, METRIC)
    bvarsigma = green.presymplectic_source_form(box1, box2, gb, METRIC, t_final=0.6)
    box_scale = bsol1.norm(METRIC) * bsol2.norm(METRIC)
    box_agreement = abs(bsigma - bvarsigma) / box_scale
    assert box_agreement < SOURCE_FORM_AGREEMENT_TOL

    fine = box_grid(dt=FINE_DT)
    potential = green.random_potential(fine, 2, METRIC, 240, seed=5)
    probes = [
        green.causal(
            green.random_source_pair(fine, 1, METRIC, (0.1, 0.4), np.random.default_rng(100 + s)),
            fine,
            METRIC,
            t_final=float(potential.times[-1]),
        )
        for s in range(10)
    ]
    report = green.degeneracy_forward_check(potential, fine, METRIC, probes)
    assert report["field_residual"] < DEGENERACY_TOL
    assert report["max_relative"] < DEGENERACY_TOL

    field = green.random_solution_bundle(g, METRIC, 120, seed=77, degrees=(2,))[2]
    rels = []
    for s in range(3):
        pair = green.random_source_pair(
            g, 1, METRIC, (0.1, 0.4), np.random.default_rng(200 + s), with_harmonic=True
        )
        probe = green.causal(pair, g, METRIC, t_final=float(field.times[-1]))
        value = green.presymplectic({1: probe}, {2: field}, chi, g, METRIC)
        rels.append(abs(value) / (probe.norm(METRIC) * field.norm(METRIC)))
    assert max(rels) > DEGENERACY_TOL
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    print(
        f"\ncriterion 7 PASS: skew {worst_skew:.2e} and cutoff-independence {worst_chi:.2e} "
        f"< {PRESYMPLECTIC_REL_TOL:.0e} on 10 pairs; source-form agreement torus "
        f"{agreement:.2e} / box {box_agreement:.2e} < {SOURCE_FORM_AGREEMENT_TOL:.0e}; "
        f"degeneracy max relative pairing {report['max_relative']:.2e} < {DEGENERACY_TOL:.0e} "
        f"and falsification rel {max(rels):.2e} exceeds it; {elapsed:.1f}s"
    )


def test_criterion_8_byte_identical_outputs(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("experiment = evolve\ndt = 0.01\nt_final = 0.1\nseed = 3\n")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(config), "--out", str(out2)]) == 0
    capsys.readouterr()
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    for name in sorted(p.name for p in out1.glob("snapshot_*")):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    first = json.loads((out1 / "manifest.json").read_text())
    second = json.loads((out2 / "manifest.json").read_text())
    for manifest in (first, second):
        manifest.pop("started")
        manifest.pop("finished")
    assert first == second
    print(
        f"\ncriterion 8 PASS: repeated runs with identical config and seed produced "
        f"byte-identical CSV outputs ({', '.join(csvs)}) and matching manifests"
    )
