#!/usr/bin/env python3
"""Outflow closures compared on one solution snapshot.

Advects the kink datum (x-0.5)_+^3 with Lax-Wendroff (a=1, lambda=0.7)
on a J=40 grid to T=0.2625 (15 steps), while the profile is passing
through the outflow end.  With kb=0 the ghost cells are pinned to zero,
which acts like an artificial wall and reflects a visible defect back
into the interior; with kb=1 (constant extrapolation) the defect drops
by orders of magnitude, and kb=2 (linear extrapolation) restores the
interior convergence rate.  The table shows the last cells before the
boundary; the footer shows sup-over-steps errors for the whole run.
"""

import numpy as np

from transportbc.scheme import make_builtin
from transportbc.solver import (BoundarySpec, GridSpec, PowerPlusDatum,
                                error_metrics, reference_values,
                                run_interval)

T = 0.2625
SHOW = 8  # trailing cells to print


def main() -> None:
    lw = make_builtin("lax-wendroff", a=1.0, lam=0.7)
    datum = PowerPlusDatum(0.5, 3.0)
    grid = GridSpec(L=1.0, J=40, lam=0.7)

    runs = {kb: run_interval(datum, grid, lw, BoundarySpec(kb), T,
                             record="sup_error")
            for kb in (0, 1, 2)}
    t_final = runs[0].t_final
    exact = reference_values(datum, grid, t_final, 1.0, "midpoint")
    mids = grid.cell_midpoints

    print(f"snapshot after {runs[0].n_steps} steps, t={t_final}")
    print(f"{'x_mid':>8} {'exact':>12} {'kb=0':>12} {'kb=1':>12} "
          f"{'kb=2':>12}")
    for j in range(grid.J - SHOW, grid.J):
        row = [runs[kb].final_state[j] for kb in (0, 1, 2)]
        print(f"{mids[j]:>8.4f} {exact[j]:>12.6f} "
              + " ".join(f"{v:>12.6f}" for v in row))

    print()
    print("defect against the exact profile (max over the last "
          f"{SHOW} cells at t={t_final}, then sup over all steps):")
    for kb in (0, 1, 2):
        tail = np.abs(runs[kb].final_state[-SHOW:] - exact[-SHOW:])
        sup = error_metrics(runs[kb]).linf_sup
        print(f"  kb={kb}: tail defect {float(np.max(tail)):.3e}, "
              f"sup error {sup:.3e}")


if __name__ == "__main__":
    main()
