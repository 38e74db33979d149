"""Set-up probe: in a fresh process, time importing selfnorm and validating
a workload's specs, then time the calibration kernel.  Prints both as JSON.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import json
import sys
import time
from pathlib import Path

from workloads import build_specs

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    specs = build_specs(argv[0], int(argv[1]))
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from selfnorm.experiments import load_spec

    for raw in specs:
        load_spec(raw)
    setup = time.perf_counter() - start
    import calibrate  # imported earlier, it would load NumPy outside the timed region

    kernels = [calibrate.kernel_seconds() for _ in range(3)]
    print(json.dumps({"setup_s": setup, "scaled_s": calibrate.to_reference(setup, kernels)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
