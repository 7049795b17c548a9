"""Write perfbench/pins.json: the digest of every workload's inputs for
seeds 0-31 at the run_seconds of BENCHMARK.json.

    python3 perfbench/pin.py

A run whose inputs differ from their pin aborts, so that a change to
corpus generation, to the fills that make the validate certificates, or to
the workloads themselves cannot move the benchmark silently.  Re-pin only
in a change that means to move the inputs, and say so.  Seeds without a
pin are held out: they run without the check.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    pins = {"seconds": seconds, "inputs": {}}
    work = os.path.join(ROOT, ".perfbench_work", f"pin-{os.getpid()}")
    try:
        for name, (setup, _) in workloads.WORKLOADS.items():
            pins["inputs"][name] = {}
            for seed in SEEDS:
                d = os.path.join(work, f"{name}-{seed}")
                os.makedirs(d)
                setup(seed, seconds, d)
                pins["inputs"][name][str(seed)] = workloads.inputs_digest(d)
                shutil.rmtree(d)
                print(name, seed, pins["inputs"][name][str(seed)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
