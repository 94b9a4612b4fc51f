"""Peak memory of the suites of the benchmark's ``marches`` workload.

Run from the repository root::

    python3 tools/peaks.py [--seed N]

First it runs the workload's three configs (read from
``perfbench/workloads.py``) in one process, in the order
``perfbench/child.py`` runs them: every config is parsed and its grid and
metric built, then the suites run one after another.  After the setup and
after each suite it prints the process's VmRSS and VmHWM, in kB / 1024 as
perfbench reports ``peak_rss_mb``.  Then it runs each suite alone in a fresh
process under ``tracemalloc`` and prints the peak of the traced allocations
in MiB.  Outputs go to a temporary directory that is removed afterwards.

Standard library and kmaxwell only (``src`` is put on ``sys.path``);
pytest does not collect this file.  Reads ``/proc/self/status``, so the
VmRSS/VmHWM part needs Linux.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's thread cap, applied by kmaxwell.cli before numpy loads
os.environ.setdefault("KMAXWELL_THREADS", "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def status_mb(*keys) -> list[float]:
    """The given ``/proc/self/status`` fields (kB) divided by 1024."""
    fields = dict(line.split(":", 1) for line in Path("/proc/self/status").read_text().splitlines())
    return [int(fields[key].split()[0]) / 1024.0 for key in keys]


def write_configs(directory: Path, seed: int) -> list[Path]:
    from workloads import WORKLOADS

    paths = []
    for keys in WORKLOADS["marches"]["configs"]:
        path = directory / f"{keys['experiment']}.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in {**keys, "seed": seed}.items()))
        paths.append(path)
    return paths


def in_one_process(paths: list[Path], out: Path) -> None:
    from kmaxwell import cli

    cfgs = [cli.parse_config(path) for path in paths]
    for cfg in cfgs:
        cli.build_grid(cfg)
        cli.build_metric(cfg)
    print(f"{'setup':<18} VmRSS {status_mb('VmRSS')[0]:7.2f} MB  VmHWM {status_mb('VmHWM')[0]:7.2f} MB", flush=True)
    for cfg in cfgs:
        manifest = cli.run(cfg, out / cfg.experiment)
        rss, hwm = status_mb("VmRSS", "VmHWM")
        verdict = "passed" if manifest["passed"] else "FAILED"
        print(f"{cfg.experiment:<18} VmRSS {rss:7.2f} MB  VmHWM {hwm:7.2f} MB  {verdict}", flush=True)


def traced(path: Path, out: Path) -> None:
    """One suite under tracemalloc, started after the config is parsed and its grid built."""
    import tracemalloc

    from kmaxwell import cli

    cfg = cli.parse_config(path)
    cli.build_grid(cfg)
    cli.build_metric(cfg)
    tracemalloc.start()
    cli.run(cfg, out / cfg.experiment)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{cfg.experiment:<18} tracemalloc peak {peak / 2**20:6.2f} MiB", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", type=Path, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.traced is not None:
        traced(args.traced, args.out)
        return 0
    with tempfile.TemporaryDirectory(prefix="kmaxwell-peaks-") as tmp:
        tmp = Path(tmp)
        paths = write_configs(tmp, args.seed)
        print(f"marches configs in one process, seed {args.seed}")
        in_one_process(paths, tmp / "one")
        print("each suite in a fresh process")
        for path in paths:
            cmd = [sys.executable, __file__, "--traced", str(path), "--out", str(tmp / "fresh")]
            subprocess.run(cmd, check=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
