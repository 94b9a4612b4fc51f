"""kmaxwell benchmark: one suite workload, repeated in fresh child processes.

Run from the root of a source checkout (nothing to build; ``src`` is put on
the children's ``PYTHONPATH``)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each repetition starts ``child.py`` in a new interpreter, one at a time, and
waits for it.  Repetitions continue until the next one would end past
``--seconds`` (at least ``MIN_REPS``).  Every repetition is checked:

* the child exited cleanly and every suite's manifest has ``passed: true``;
* at seed 0, each discretisation-error measure matches ``pins.json`` within
  ``PIN_RTOL`` (round-off-level measures only have to pass);
* its ``series_*.csv`` and snapshot files are byte-identical to the first
  repetition's.

A miss counts as a failed run; it never stops the benchmark.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions (and prints each suite's median share of ``run_s``).  ``--trace 1`` runs untraced repetitions for a reference median,
then one repetition with the layer wrappers of ``tracer.py`` installed, and
reports the per-layer metrics of that repetition plus ``trace.overhead_s``
(traced ``run_s`` minus the untraced median).

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A record of the run (environment, load average around each repetition, every
sample and problem) is written to ``.perfbench/`` in the checkout.
"""

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
PINS = BENCH_DIR / "pins.json"

# same relative tolerance as the repo's pinned reference values
PIN_RTOL = 1e-6

MIN_REPS = 3
MIN_REPS_TRACED = 2
# a traced repetition is budgeted at this multiple of an untraced one
TRACE_COST = 1.6
# no repetition starts after this many seconds, and none may run longer
HARD_LIMIT_S = 150.0

# numerical-backend threads of every child (at or below nproc)
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def config_text(keys: dict, seed: int) -> str:
    return "".join(f"{key} = {value}\n" for key, value in {**keys, "seed": seed}.items())


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(KMAXWELL_THREADS=THREADS, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    return env


def git_sha(root: Path) -> str:
    """Commit of the checkout read from ``.git`` files; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment(root: Path) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "KMAXWELL_THREADS": THREADS,
        "machine": platform.machine(),
    }


def output_hashes(out: Path) -> dict:
    """sha256 of every series CSV and snapshot file under ``out``."""
    files = sorted(out.glob("*/series_*.csv")) + sorted(out.glob("*/snapshot_*"))
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def check_pins(manifests: dict, pins: dict) -> list[str]:
    """Problems of the pinned measures: {experiment: {check: value}} at seed 0."""
    problems = []
    for experiment, pinned in pins.items():
        measures = {c["name"]: c["measure"] for c in manifests.get(experiment, {}).get("checks", [])}
        for name, value in pinned.items():
            got = measures.get(name)
            if got is None:
                problems.append(f"{experiment}: pinned check {name} missing")
            elif abs(got - value) > PIN_RTOL * abs(value):
                problems.append(f"{experiment}: {name} = {got!r}, pinned {value!r}")
    return problems


def run_child(root, configs, out, trace_path, timeout):
    """One repetition; returns (child result or None, problems, record)."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--out", str(out)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    record = {"load_before": loadavg()}
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawn", repr(spawn)] + [str(c) for c in configs],
            env=child_env(root), cwd=root, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        record["load_after"] = loadavg()
        return None, [f"child exceeded {timeout:.0f} s and was killed"], record
    record["load_after"] = loadavg()
    record["wall_s"] = time.perf_counter() - spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, [f"child exited {proc.returncode}: {tail[0]}"], record
    result = json.loads(lines[-1])
    problems = []
    if result["error"] is not None:
        problems.append("suite raised: " + result["error"].strip().splitlines()[-1])
    manifests = {}
    for path in sorted(out.glob("*/manifest.json")):
        manifests[path.parent.name] = json.loads(path.read_text())
    for cfg in configs:
        experiment = cfg.stem
        if not manifests.get(experiment, {}).get("passed", False):
            problems.append(f"{experiment}: manifest missing or not passed")
    record["manifests"] = {
        name: {c["name"]: c["measure"] for c in m["checks"]} for name, m in manifests.items()
    }
    result["manifests"] = manifests
    return result, problems, record


def bench(root: Path, workload: str, seed: int, seconds: float, trace: bool, configs=None) -> dict:
    """Run one workload for about ``seconds``; returns the summary dictionary.

    ``configs`` overrides the workload's config list (used by the tests).
    """
    state = root / ".perfbench"
    work = state / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    cfg_paths = []
    for keys in configs or WORKLOADS[workload]["configs"]:
        path = work / "configs" / f"{keys['experiment']}.cfg"
        path.write_text(config_text(keys, seed))
        cfg_paths.append(path)
    pins = {}
    if seed == 0 and configs is None:
        pins = json.loads(PINS.read_text()).get(workload, {})
    compileall.compile_dir(root / "src", quiet=1)

    reps, samples = [], []
    reference = None
    started = time.perf_counter()

    def repetition(trace_path):
        nonlocal reference
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        timeout = max(1.0, HARD_LIMIT_S + 20.0 - (time.perf_counter() - started))
        result, problems, record = run_child(root, cfg_paths, out, trace_path, timeout)
        if result is not None:
            if pins:
                problems.extend(check_pins(result["manifests"], pins))
            reference = check_outputs(out, reference, problems)
            record.update({k: result[k] for k in ("setup_s", "run_s", "suites", "cpu_s", "peak_rss_mb")})
        reps.append({**record, "problems": problems})
        return result

    min_reps = MIN_REPS_TRACED if trace else MIN_REPS
    while True:
        elapsed = time.perf_counter() - started
        estimate = max((r["wall_s"] for r in reps if "wall_s" in r), default=0.0)
        reserve = TRACE_COST * estimate if trace else 0.0
        if elapsed > HARD_LIMIT_S or (len(reps) >= min_reps and elapsed + estimate + reserve > seconds):
            break
        result = repetition(None)
        if result is not None:
            samples.append(result)
    traced = None
    if trace and time.perf_counter() - started <= HARD_LIMIT_S:
        traced = repetition(state / f"spans-{workload}.json")

    failed = sum(1 for r in reps if r["problems"])
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(reps),
        "failed": failed,
        "failed_share": failed / len(reps),
        "environment": environment(root),
        "reps": reps,
        "metrics": {},
    }
    if samples:
        summary["environment"]["child_threads"] = samples[0]["threads"]
    if trace:
        if traced is not None and samples:
            untraced = statistics.median(s["run_s"] for s in samples)
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = (traced["run_s"] - untraced, "s")
            summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    elif samples:
        summary["metrics"] = {
            name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        summary["suites"] = {
            suite: statistics.median(s["suites"][suite] for s in samples if suite in s["suites"])
            for suite in samples[0]["suites"]
        }
    (state / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1)
    )
    return summary


def check_outputs(out: Path, reference, problems: list):
    """Compare this repetition's output bytes with the first; returns the reference."""
    hashes = output_hashes(out)
    shutil.rmtree(out, ignore_errors=True)
    if reference is None:
        return hashes
    if hashes != reference:
        changed = sorted(k for k in set(hashes) | set(reference) if hashes.get(k) != reference.get(k))
        problems.append("outputs differ from the first repetition: " + ", ".join(changed))
    return reference


def report(summary: dict) -> None:
    """Print every metric by name with its unit, then the JSON result line."""
    print(f"workload {summary['workload']} seed {summary['seed']} trace {int(summary['trace'])}")
    for key, value in summary["environment"].items():
        print(f"env {key} {value}")
    for i, rep in enumerate(summary["reps"]):
        status = "ok" if not rep["problems"] else "FAILED " + "; ".join(rep["problems"])
        print(f"rep {i} run_s {rep.get('run_s', float('nan')):.4f} load {rep['load_before']} -> "
              f"{rep['load_after']} {status}")
    print(f"failed_share {summary['failed_share']!r} ratio")
    for suite, seconds in summary.get("suites", {}).items():
        print(f"suite {suite} run_s {seconds!r} s")
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = Path.cwd()
    if not (root / "src" / "kmaxwell" / "cli.py").is_file():
        print(f"run.py: no kmaxwell sources at {root / 'src' / 'kmaxwell'}; "
              "run from the root of a kmaxwell checkout", file=sys.stderr)
        return 2
    summary = bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    if not summary["metrics"]:
        print("run.py: no repetition produced a result", file=sys.stderr)
        for rep in summary["reps"]:
            print("  " + "; ".join(rep["problems"]), file=sys.stderr)
        return 1
    report(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
