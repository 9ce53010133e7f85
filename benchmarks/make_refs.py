"""Generate the fine-step reference E_B curves in ``benchmarks/refs/``.

Each curve is the case's run to tau = 6 with a fixed step of 1e-4, ten times
finer than the ``certify`` step (1e-3) and a hundred times finer than the
``adaptive`` step ceiling (1e-2), sampled every 0.02 like both workloads.

    python3 benchmarks/make_refs.py [label ...]

One case takes four to six minutes on one core.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from cases import CASES, REF_DTAU, REF_TAU_END, config_text  # noqa: E402
from rdmix import runio  # noqa: E402
from rdmix.simulate import run  # noqa: E402


def main(labels: list[str]) -> None:
    for label in labels or list(CASES):
        config = runio.parse_config(config_text(label, REF_TAU_END, REF_DTAU, REF_DTAU))
        result = run(config)
        path = HERE / "refs" / f"{label}.csv"
        runio.write_csv(path, ["tau", "E_B"], ([r.tau, r.E_B] for r in result.records))
        print(f"{label}: {result.steps_accepted} steps, {result.wall_time:.0f} s -> {path.name}",
              flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
