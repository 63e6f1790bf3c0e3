"""One set-up sample: a fresh interpreter imports funcdiss and builds the
inputs of a workload, then prints time.monotonic_ns().

    python3 perfbench/setup_probe.py <workload> <seed>

run.py starts this script and takes the time from just before the start to
the printed instant, which is what every ``funcdiss run.yaml`` call pays
before it does any work.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import yaml  # noqa: E402

import funcdiss.cli  # noqa: E402,F401  (what the funcdiss entry point loads)
import workloads  # noqa: E402

documents = [yaml.safe_dump(op.doc)
             for op in workloads.build(sys.argv[1], int(sys.argv[2]))]
print(time.monotonic_ns())
