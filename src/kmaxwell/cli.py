"""Command-line front end: config parsing, canned suites, artifact output.

Run configurations are plain ``key=value`` text files (UTF-8, ``#`` starts a
comment).  A run executes one named experiment suite, writes every artifact
into the output directory, and finishes with ``manifest.json`` describing the
configuration echo, code version, timestamps, every check (measured value and
threshold), and an index of every emitted file.

Exit status contract: 0 when every check passed, 1 when at least one check
failed, 2 for usage errors (bad arguments, unreadable or invalid config), 3
when the suite raised at run time (an ``evolution.InstabilityError``, for
example); the manifest is written in that case too, with ``passed: false``
and an ``error`` record, and an unstable ``evolve`` run first writes its
monitor series up to the last stable step.
The only environment variable honoured is ``KMAXWELL_THREADS``; it caps the
thread count of the numerical backend and must be set before heavy imports,
which is why it is applied at module import time.
"""

import os

_threads = os.environ.get("KMAXWELL_THREADS", "")
if _threads.isdigit() and int(_threads) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import datetime
import itertools
import traceback
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, evolution, exterior, green, io, manufactured, mesh, system
from .system import CheckResult
from .tolerances import (
    BOUNDARY_RESIDUAL_TOL,
    CONSTRAINT_DRIFT_TOL,
    GREEN_DEFECT_TOL,
    IDENTITY_TOL,
    PRESYMPLECTIC_REL_TOL,
)

# spacetime dimensions the discrete machinery is audited for
SUPPORTED_N = (2, 3, 4, 5)

# accepted values of the boundary key: both run the projected march (a torus has no
# face sites to zero); periodic_test also requires periodic = true
BOUNDARIES = ("project_B", "periodic_test")

# (n, k) pairs covered by the principal-symbol audit
SYMBOL_TABLE = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))

# per-suite overrides of RunConfig's defaults; the one-sided solve audits need the
# finer step for the differential/codifferential round trip to clear its tolerance,
# and the pairing audit needs the torus (bundles on a box pair to zero)
SUITE_DEFAULTS = {
    "identities": {"trials": 100},
    "symbol_audit": {"trials": 1000},
    "green_suite": {"dt": 0.0025},
    "symplectic_suite": {"periodic": True},
}


def _beta_unit(length: float):
    return lambda t, *x: 1.0


def _beta_well(length: float):
    center = 0.5 * length
    radius = 0.2 * length
    return lambda t, *x: 1.0 - 0.25 * np.exp(-sum((xi - center) ** 2 for xi in x) / radius**2)


def _a_unit(length: float):
    return lambda t: 1.0


def _a_expanding(length: float):
    return lambda t: 1.0 + 0.1 * t


# fixed expression catalogues for the metric; configs refer to entries by id
BETA_CATALOGUE = {"unit": _beta_unit, "well": _beta_well}
A_CATALOGUE = {"unit": _a_unit, "expanding": _a_expanding}


@dataclass
class RunConfig:
    """Fully resolved run configuration: the config keys, their types and defaults."""

    experiment: str
    n: int = 3
    k: int = 2
    cells: int = 16
    length: float = 1.0
    dt: float = 0.005
    periodic: bool = False
    beta: str = "unit"
    a: str = "unit"
    t_final: float = 0.5
    cfl: float = 0.4
    boundary: str = "project_B"
    monitor_stride: int = 1
    steps: int = 120
    trials: int = 3
    bundles: int = 5
    seed: int = 0
    out: str | None = None


class ConfigError(ValueError):
    """Invalid run configuration; carries the full list of problems found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _parse_bool(text: str) -> bool:
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(text)


# field type -> (converter, malformed-value description)
_CONVERTERS = {
    int: (int, "integer"),
    float: (float, "number"),
    bool: (_parse_bool, "boolean (true/false)"),
    str: (str, "text"),
}
_HINTS = typing.get_type_hints(RunConfig)
# config key -> (converter, malformed-value description); an ``X | None`` field converts as X
_SCHEMA = {
    f.name: _CONVERTERS[(typing.get_args(_HINTS[f.name]) or (_HINTS[f.name],))[0]]
    for f in fields(RunConfig)
}


def parse_config(path) -> RunConfig:
    """Parse and validate a ``key=value`` run configuration file.

    Args:
        path: configuration file path (UTF-8 text, ``#`` comments).

    Returns:
        The validated configuration with every default filled in.

    Raises:
        ConfigError: listing every syntax and validation problem at once.
        OSError, UnicodeDecodeError: when the file cannot be read as UTF-8 text.
    """
    text = Path(path).read_text(encoding="utf-8")
    errors: list[str] = []
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected key=value, got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        convert, kind = _SCHEMA[key]
        try:
            raw[key] = convert(value)
        except ValueError:
            errors.append(f"line {lineno}: malformed {kind} for {key!r}: {value!r}")

    if "experiment" not in raw and not errors:
        errors.append(f"experiment is required; expected one of {', '.join(EXPERIMENTS)}")
    experiment = raw.pop("experiment", "identities")
    cfg = RunConfig(experiment, **{**SUITE_DEFAULTS.get(experiment, {}), **raw})
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _validate(cfg: RunConfig) -> list[str]:
    errors = []
    if cfg.experiment not in EXPERIMENTS:
        errors.append(
            f"unknown experiment {cfg.experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    if cfg.n not in SUPPORTED_N:
        errors.append("n out of supported range [2,5]")
    elif not 1 <= cfg.k <= cfg.n - 1:
        errors.append(f"k out of supported range [1,{cfg.n - 1}]")
    if cfg.beta not in BETA_CATALOGUE:
        errors.append(
            f"unknown beta expression id {cfg.beta!r}; catalogue: {', '.join(sorted(BETA_CATALOGUE))}"
        )
    if cfg.a not in A_CATALOGUE:
        errors.append(
            f"unknown a expression id {cfg.a!r}; catalogue: {', '.join(sorted(A_CATALOGUE))}"
        )
    if cfg.boundary not in BOUNDARIES:
        errors.append(f"boundary must be one of {', '.join(BOUNDARIES)}")
    for key in ("cells", "monitor_stride", "steps", "trials", "bundles"):
        if getattr(cfg, key) < 1:
            errors.append(f"{key} must be a positive integer")
    for key in ("length", "dt", "t_final", "cfl"):
        if not getattr(cfg, key) > 0:
            errors.append(f"{key} must be positive")
    if cfg.seed < 0:
        errors.append("seed must be non-negative")
    if cfg.out == "":
        errors.append("out must not be empty")
    if cfg.experiment in ("green_suite", "symplectic_suite") and cfg.a != "unit":
        errors.append(f"{cfg.experiment} requires the static scale factor a=unit")
    # the history budget, checked before any work starts: green_suite stores dense histories
    # (green._march_block) of green.sequence_steps, at most 400; symplectic_suite streams its marches
    if cfg.experiment == "green_suite" and cfg.cells > green.MAX_HISTORY_CELLS:
        errors.append(f"green_suite keeps dense histories: cells must not exceed {green.MAX_HISTORY_CELLS}")
    if cfg.experiment == "symplectic_suite" and cfg.steps > green.MAX_HISTORY_STEPS:
        errors.append(f"symplectic_suite history budget: steps must not exceed {green.MAX_HISTORY_STEPS}")
    if cfg.experiment == "green_suite" and cfg.n in SUPPORTED_N and not 2 <= cfg.k <= cfg.n - 1:
        errors.append(f"green_suite requires 2 <= k <= {cfg.n - 1}")
    if cfg.experiment == "symplectic_suite" and cfg.n == 2:
        errors.append("symplectic_suite requires n >= 3 so bundles span coupled degrees")
    if cfg.experiment == "symplectic_suite" and cfg.bundles == 1:
        errors.append("symplectic_suite requires at least two bundles to pair")
    if cfg.experiment == "symplectic_suite" and not cfg.periodic:
        errors.append("symplectic_suite pairs solution bundles on the torus; a box pairs them to zero")
    if cfg.experiment == "symplectic_suite" and cfg.steps < 20:
        # the cutoffs of _run_symplectic: a 20 dt ramp at mid-range, 10 dt ramps at mid -/+ span/4
        errors.append(
            "symplectic_suite requires steps >= 20: the widest cutoff ramp (20 dt at mid-range) and "
            "the shifted ramps (mid -/+ span/4, width 10 dt) must lie inside the history"
        )
    if cfg.experiment in ("evolve", "green_suite", "symplectic_suite") and not errors:
        # the grid, an evolve run's integration parameters, and the Courant guard
        # of green._march for the history marches, checked before any work starts
        try:
            grid = build_grid(cfg)
            if cfg.experiment == "evolve":
                _evolve_config(cfg)
                if cfg.boundary == "periodic_test" and not cfg.periodic:
                    raise ValueError("periodic_test mode requires an all-periodic grid")
            else:
                steps = green.sequence_steps(cfg.dt) if cfg.experiment == "green_suite" else cfg.steps
                span = (grid.t0, grid.t0 + steps * cfg.dt)
                evolution.require_stable_dt(grid, build_metric(cfg), cfg.dt, span)
        except ValueError as err:
            errors.append(f"{cfg.experiment}: {err}")
    return errors


def build_grid(cfg: RunConfig) -> mesh.GridSpec:
    """Uniform spatial grid from the configuration (same cells on every axis)."""
    m = cfg.n - 1
    return mesh.GridSpec(
        cfg.n,
        (cfg.cells,) * m,
        (cfg.length,) * m,
        cfg.dt,
        periodic=(cfg.periodic,) * m,
    )


def build_metric(cfg: RunConfig) -> mesh.MetricField:
    """Lapse and scale factor looked up in the expression catalogues."""
    return mesh.MetricField(
        beta=BETA_CATALOGUE[cfg.beta](cfg.length), conf=A_CATALOGUE[cfg.a](cfg.length)
    )


def _evolve_config(cfg: RunConfig) -> evolution.EvolveConfig:
    """The integration parameters of an evolve run; ValueError when they break its rules."""
    return evolution.EvolveConfig(cfg.t_final, cfg.cfl, cfg.monitor_stride)


def _check(name: str, measure: float, threshold: float, detail: str = "") -> CheckResult:
    return CheckResult(name, measure < threshold, float(measure), float(threshold), detail)


# ---------------------------------------------------------------------------
# experiment suites


def _run_identities(cfg: RunConfig, out: Path):
    """Pointwise exterior-algebra identity audit over both signatures."""
    checks = []
    columns: dict[str, list] = {"m": [], "lorentzian": []}
    for m in SUPPORTED_N:
        for label, metric in (("euclidean", exterior.euclidean(m)), ("lorentzian", exterior.lorentzian(m))):
            defects = exterior.identity_audit(metric, trials=cfg.trials, seed=cfg.seed)
            checks.append(
                _check(
                    f"identities_m{m}_{label}",
                    exterior.worst(list(defects.values())),
                    IDENTITY_TOL,
                    detail=f"worst of {len(defects)} identities over {cfg.trials} trials",
                )
            )
            columns["m"].append(float(m))
            columns["lorentzian"].append(1.0 if label == "lorentzian" else 0.0)
            for key, value in defects.items():
                columns.setdefault(key, []).append(value)
    io.write_table_csv(out / "series_identities.csv", columns)
    return checks, ["series_identities.csv"]


def _run_symbol_audit(cfg: RunConfig, out: Path):
    """Principal-symbol audit: symmetry, spectra, boundary admissibility."""
    checks = []
    measures = ("symmetry_defect", "min_timelike_eig", "count_mismatches", "admissibility_worst")
    columns: dict[str, list] = {name: [] for name in ("n", "k") + measures}
    audit_metric = mesh.MetricField(
        beta=lambda t, *x: 1.3 + 0.2 * float(np.sin(x[0] + t)), conf=lambda t: 1.7
    )
    for n, k in SYMBOL_TABLE:
        rng = np.random.default_rng(cfg.seed + 10 * n + k)
        entry = system.symbol_audit(n, k, cfg.trials, rng, audit_metric)
        checks.extend(entry)
        columns["n"].append(float(n))
        columns["k"].append(float(k))
        for name, check in zip(measures, entry):
            columns[name].append(check.measure)
    io.write_table_csv(out / "series_symbol.csv", columns)
    return checks, ["series_symbol.csv"]


def _run_evolve(cfg: RunConfig, out: Path):
    """Bump-data evolution with constraint, boundary, and cone monitoring."""
    grid = build_grid(cfg)
    metric = build_metric(cfg)
    state0, radius = manufactured.bump_state(grid, cfg.k, metric, seed=cfg.seed)
    src = system.zero_sources(grid, cfg.k)
    run_cfg = _evolve_config(cfg)
    checks = list(evolution.validate_problem(state0, src, grid, metric).checks)
    checks.append(evolution.check_cfl(grid, metric, run_cfg))
    if not all(c.passed for c in checks):
        return checks, []

    c_max = evolution.wave_speed_bound(grid, metric, (grid.t0, cfg.t_final))
    support = evolution.SupportInfo(
        center=tuple(0.5 * length for length in grid.lengths), radius=radius, c_max=c_max
    )
    # evolve gets the only reference to the initial state, and drops it once its first row is formed
    handed = [state0]
    del state0
    try:
        final, series = evolution.evolve(handed.pop(), src, metric, run_cfg, support=support)
    except evolution.InstabilityError as err:
        # keep what was monitored up to the last stable step; run() indexes it
        if err.series is not None:
            io.write_monitor_csv(out / "series_monitor.csv", err.series.columns)
        raise
    io.write_monitor_csv(out / "series_monitor.csv", series.columns)
    files = ["series_monitor.csv"]
    for name, cochain in (("fe", final.fe), ("fb", final.fb)):
        json_path, bin_path = io.write_cochain_binary(out / f"snapshot_final_{name}", cochain, final.t)
        files.extend([json_path.name, bin_path.name])

    for key in ("rE", "rB"):
        checks.append(
            _check(
                f"constraint_drift_{key}", series.relative_drift(key), CONSTRAINT_DRIFT_TOL,
                detail="relative drift of the constraint norm over the run",
            )
        )
    boundary_residual = float(np.max(series.columns["rbdy"])) / series.scale
    checks.append(
        _check(
            "boundary_residual", boundary_residual, BOUNDARY_RESIDUAL_TOL,
            detail="largest boundary-condition residual relative to the state scale",
        )
    )
    checks.append(evolution.support_audit(series, radius, c_max))
    return checks, files


def _run_green(cfg: RunConfig, out: Path):
    """One-sided solve audits: each check is the worst over the trials of ``green.exact_sequence_suite``."""
    grid = build_grid(cfg)
    metric = build_metric(cfg)
    sequence = green.exact_sequence_suite(grid, metric, trials=cfg.trials, seed=cfg.seed, k=cfg.k)
    over = f"over the trials, on histories of {sequence['steps']} steps"
    checks = [
        _check(
            "right_inverse_defect", sequence["right_inverse"], GREEN_DEFECT_TOL,
            detail=f"worst relative reconstruction defect of the forward solve {over}",
        )
    ] + [
        _check(f"sequence_{key}", sequence[key], GREEN_DEFECT_TOL, detail=f"worst relative defect {over}")
        for key in ("defect_a", "defect_b", "defect_c")
    ]
    columns = {"trial": [float(i) for i in range(cfg.trials)], **dict(sorted(sequence["per_trial"].items()))}
    io.write_table_csv(out / "series_green.csv", columns)
    return checks, ["series_green.csv"]


def _run_symplectic(cfg: RunConfig, out: Path):
    """Pairing audit on random solution bundles: skew, cutoff independence and cutoff shift.

    The bundles are marched one block per degree and streamed into each
    ordered pair's slice current and each bundle's norm, so no history is
    stored; every pairing value is a Stieltjes sum of a current against one
    cutoff.
    """
    grid = build_grid(cfg)
    metric = build_metric(cfg)
    pairs = list(itertools.combinations(range(cfg.bundles), 2))
    # the skew check reads C_ji from its own evaluation: it tests exactly C_ji = -C_ij
    times, currents, norms = green.bundle_currents(
        grid, metric, cfg.steps, [cfg.seed + i for i in range(cfg.bundles)], pairs + [(j, i) for i, j in pairs]
    )
    mid = grid.t0 + 0.5 * cfg.steps * grid.dt
    quarter = 0.25 * cfg.steps * grid.dt
    chi = green.CutoffProfile(mid, 10.0 * grid.dt)
    chi_wide = green.CutoffProfile(mid, 20.0 * grid.dt)
    chi_early = green.CutoffProfile(mid - quarter, 10.0 * grid.dt)
    chi_late = green.CutoffProfile(mid + quarter, 10.0 * grid.dt)
    columns: dict[str, list] = {"first": [], "second": [], "sigma": [], "skew_rel": [], "cutoff_rel": []}
    shift_rels = []
    for i, j in pairs:
        current = currents[i, j]
        value = green.cutoff_pairing(current, times, chi)
        swapped = green.cutoff_pairing(currents[j, i], times, chi)
        widened = green.cutoff_pairing(current, times, chi_wide)
        shift = green.cutoff_pairing(current, times, chi_early) - green.cutoff_pairing(current, times, chi_late)
        scale = max(norms[i] * norms[j], 1e-300)
        shift_rels.append(abs(shift) / scale)
        columns["first"].append(float(i))
        columns["second"].append(float(j))
        columns["sigma"].append(value)
        columns["skew_rel"].append(abs(value + swapped) / scale)
        columns["cutoff_rel"].append(abs(value - widened) / scale)
    pair_count = len(pairs)
    checks = [
        _check(
            "skew", exterior.worst(columns["skew_rel"]), PRESYMPLECTIC_REL_TOL,
            detail=f"worst relative skew defect over {pair_count} bundle pairs",
        ),
        _check(
            "cutoff_independence", exterior.worst(columns["cutoff_rel"]), PRESYMPLECTIC_REL_TOL,
            detail=f"worst relative change under a doubled cutoff width over {pair_count} pairs",
        ),
        _check(
            "cutoff_shift", exterior.worst(shift_rels), PRESYMPLECTIC_REL_TOL,
            detail=f"worst relative change between cutoffs a quarter span before and after mid-range "
            f"over {pair_count} pairs",
        ),
    ]
    io.write_table_csv(out / "series_symplectic.csv", columns)
    return checks, ["series_symplectic.csv"]


_SUITES = {
    "identities": _run_identities,
    "symbol_audit": _run_symbol_audit,
    "evolve": _run_evolve,
    "green_suite": _run_green,
    "symplectic_suite": _run_symplectic,
}
EXPERIMENTS = tuple(_SUITES)


# ---------------------------------------------------------------------------
# run driver and manifest


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _error_record(err: Exception) -> dict:
    """The manifest's account of a runtime failure.

    ``phase`` is the innermost function of this package on the traceback
    (``module.qualified_name``, e.g. ``evolution.Generator.__init__``; the
    bare function name before Python 3.11); an ``InstabilityError`` adds the
    last stable time.
    """
    package = Path(__file__).parent
    codes = [f.f_code for f, _ in traceback.walk_tb(err.__traceback__)]
    code = [c for c in codes if Path(c.co_filename).parent == package][-1]
    record = {
        "type": type(err).__name__,
        "message": str(err),
        "phase": f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}",
    }
    if isinstance(err, evolution.InstabilityError):
        record["t_last"] = float(err.t_last)
    return record


def run(cfg: RunConfig, out_dir) -> dict:
    """Execute the configured suite and write every artifact plus the manifest.

    An exception raised by the suite is not propagated: the manifest then
    has no checks, ``passed: false``, an ``error`` record (type, message,
    phase, and ``t_last`` for an ``InstabilityError``) and, as its file
    index, the files the suite created or rewrote (by modification time)
    before it raised.

    Args:
        cfg: validated run configuration.
        out_dir: output directory (created if missing).

    Returns:
        The manifest dictionary that was written to ``manifest.json``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
    started = _timestamp()
    error = None
    try:
        checks, files = _SUITES[cfg.experiment](cfg, out)
    except Exception as err:  # the run boundary: record the failure in the manifest
        files = [p.name for p in out.iterdir() if before.get(p.name) != p.stat().st_mtime_ns]
        checks, error = [], _error_record(err)
    manifest = {
        "config": asdict(cfg),
        "version": __version__,
        "started": started,
        "finished": _timestamp(),
        "checks": [c.to_dict() for c in checks],
        "files": sorted(files) + ["manifest.json"],
        "passed": error is None and all(c.passed for c in checks),
    }
    if error is not None:
        manifest["error"] = error
    io.write_json(out / "manifest.json", manifest)
    return manifest


def _print_manifest(manifest: dict) -> None:
    for check in manifest["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"{status}  {check['name']:<28} measure={check['measure']:.6e} "
            f"threshold={check['threshold']:.6e}"
        )
    total = len(manifest["checks"])
    passed = sum(1 for c in manifest["checks"] if c["passed"])
    print(f"{passed}/{total} checks passed")
    if "error" in manifest:
        error = manifest["error"]
        print(f"ERROR {error['type']} in {error['phase']}: {error['message']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kmaxwell",
        description="Discrete Maxwell field suites: evolve, audit, and report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute the configured suite")
    run_parser.add_argument("--config", required=True, help="key=value configuration file")
    run_parser.add_argument("--out", default=None, help="output directory (overrides the config)")
    run_parser.add_argument("--seed", type=int, default=None, help="seed override")
    validate_parser = sub.add_parser("validate", help="check a configuration file")
    validate_parser.add_argument("--config", required=True, help="key=value configuration file")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as err:
        for problem in err.errors:
            print(f"config error: {problem}")
        return 2
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read config: {err}")
        return 2

    if args.command == "validate":
        print("config ok")
        for key, value in asdict(cfg).items():
            print(f"{key} = {value}")
        return 0

    if args.seed is not None:
        if args.seed < 0:
            print("config error: seed must be non-negative")
            return 2
        cfg.seed = args.seed
    if args.out == "":
        print("config error: --out must not be empty")
        return 2
    out_dir = args.out or cfg.out or f"out_{cfg.experiment}"
    try:
        manifest = run(cfg, out_dir)
    except OSError as err:  # run records every suite failure, so this is the directory itself
        print(f"cannot write to output directory: {err}")
        return 2
    _print_manifest(manifest)
    print(f"manifest: {Path(out_dir) / 'manifest.json'}")
    if "error" in manifest:
        return 3
    return 0 if manifest["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
