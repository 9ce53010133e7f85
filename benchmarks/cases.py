"""The case pool shared by the simulate workloads and their reference curves.

Each case is one of the six acceptance-suite problems of the
``certified_runs`` fixture: (alpha, beta, d1, d2, k, A_minus, A_plus), a
multiplicative Gaussian bump of amplitude 0.2, n = 2001 and L = 16.  The
half-width is written out, so a change to the default-width rule does not
move these grids away from their committed reference curves.
"""

from __future__ import annotations

CASES = {
    "a1": (1, 1, 1, 3, 1, 1, 2),
    "a15": (1.5, 1.5, 1, 3, 1, 1, 2),
    "a2": (2, 2, 1, 3, 1, 1, 2),
    "a4": (4, 4, 1, 3, 1, 1, 2),
    "equal_diff": (2, 2, 1, 1, 1, 1, 2),
    "unequal": (2, 1, 1, 2, 1, 1, 2),
}

SAMPLE_INTERVAL = 0.02
REF_DTAU = 1e-4
REF_TAU_END = 6.0


def config_text(label: str, tau_end: float, dtau: float, dtau_max: float | None) -> str:
    """Config file text for one case; ``dtau_max=None`` keeps the default controller."""
    alpha, beta, d1, d2, k, a_minus, a_plus = CASES[label]
    lines = [
        f"problem.alpha = {alpha}",
        f"problem.beta = {beta}",
        f"problem.d1 = {d1}",
        f"problem.d2 = {d2}",
        f"problem.k = {k}",
        f"problem.A_minus = {a_minus}",
        f"problem.A_plus = {a_plus}",
        "grid.L = 16",
        "grid.n = 2001",
        f"time.tau_end = {tau_end!r}",
        f"time.dtau = {dtau!r}",
        f"output.sample_interval = {SAMPLE_INTERVAL!r}",
        "ic.kind = gaussian_bump",
        "ic.amplitude = 0.2",
    ]
    if dtau_max is not None:
        lines.append(f"time.dtau_max = {dtau_max!r}")
    return "\n".join(lines) + "\n"
