"""Set up one workload in a fresh interpreter, then print ``ready``.

``run.py`` times this from process start to the ``ready`` line: imports,
weights, spectra and spec validation. Usage: ``setup_probe.py WORKLOAD``.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](seed=0)
    print("ready", flush=True)
