"""One set-up as the runner does it: start, import rdmix.cli, generate inputs.

    python3 benchmarks/setup_probe.py <workload> <seed>

The runner times several of these processes and reports their median as
``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins the BLAS threads before numpy is imported)

run.prepare(run.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
