"""Regenerate ``pins.json``: the seed-0 discretisation-error measures of every workload.

    python3 perfbench/pin.py

Run from the root of a checkout, only on a commit whose numerical results are
the accepted reference.  A measure whose magnitude is at or below
``ROUNDOFF`` is round-off and is not pinned (it only has to pass), nor are
the checks that echo an input rather than measure an error.
"""

import json
import shutil
from pathlib import Path

import run
from workloads import WORKLOADS

ROUNDOFF = 1e-9
# evolve's preflight checks report the lapse minimum and the step size
INPUT_CHECKS = ("beta_positive", "cfl")


def main() -> int:
    root = Path.cwd()
    pins = {}
    for workload, spec in WORKLOADS.items():
        work = root / ".perfbench" / "pin"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        configs = []
        for keys in spec["configs"]:
            path = work / f"{keys['experiment']}.cfg"
            path.write_text(run.config_text(keys, 0))
            configs.append(path)
        result, problems, _ = run.run_child(root, configs, work / "out", None, timeout=170.0)
        if problems:
            raise SystemExit(f"{workload}: {'; '.join(problems)}")
        pins[workload] = {
            experiment: {
                c["name"]: c["measure"] for c in manifest["checks"]
                if abs(c["measure"]) > ROUNDOFF and c["name"] not in INPUT_CHECKS
            }
            for experiment, manifest in result["manifests"].items()
        }
        shutil.rmtree(work)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
