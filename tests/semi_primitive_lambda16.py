"""The semi-primitive wall-crossing formula at lambda 16: one case.

Tier-1 checks the formula at lambda <= 8 (``test_semi_primitive_wall_crossing``
in ``tests/test_engine.py``).  This script runs one case past that reach:
<g1, g2> = m = 3 in twisted mode, Omega(g1) = Omega(g2) = 1 and
Omega(2 g2) = -1, transported along crossing.scn's path at cutoff 16
(236 members; about 10 s).  Every Omega(g1 + N g2) with N < 16 must equal
the coefficient of q^N in the halo series.

    python tests/semi_primitive_lambda16.py

Exit 0 when every coefficient matches, 1 naming each that differs.  It needs
pytest and hypothesis, as the tests do; the file is not a test module, so
pytest does not collect it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
M, MODE, CUTOFF = 3, "twisted", 16
OMEGA_G1, OMEGAS = 1, [1, -1]  # Omega(g1), then Omega(k g2) for k = 1, 2


def main() -> int:
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from conftest import ray_invariants
    from test_engine import crossing_transport, halo_series, omega_weights

    began = time.perf_counter()
    omega = {(1, 0): OMEGA_G1, **{(0, k): v for k, v in enumerate(OMEGAS, start=1)}}
    struct, after = crossing_transport(M, CUTOFF, omega_weights(omega, CUTOFF), MODE)
    got = ray_invariants(after, CUTOFF)
    want = halo_series(M, MODE, OMEGA_G1, OMEGAS, CUTOFF)
    bad = [(n, got.get((1, n), 0), w) for n, w in enumerate(want) if got.get((1, n), 0) != w]
    for n, g, w in bad:
        print(f"Omega(1, {n}) = {g}, the halo series gives {w}")
    print(f"m = {M} {MODE}, lambda {CUTOFF}, {len(struct.members)} members: "
          f"{CUTOFF - len(bad)} of {CUTOFF} coefficients match "
          f"({sum(1 for w in want if w)} nonzero) in {time.perf_counter() - began:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
