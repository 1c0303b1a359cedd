#!/usr/bin/env python3
"""Spectral portrait of the one-step interval operator.

Assembles the Lax-Wendroff transition matrix (a=1, lambda=0.7) with the
boundary closures folded in and prints, for a few grid sizes:

  - the spectral radius (all eigenvalues stay strictly inside the unit
    disk, so powers eventually decay),
  - the l2 operator norm (slightly above the radius: one step can
    amplify transiently),
  - the largest power norm over the first 4J steps (the actual
    transient envelope),
  - the smallest singular value of zI - A at points z outside the
    spectrum.

The last block is the point of the portrait: sigma_min stays tiny well
outside the eigenvalue cloud, so the resolvent is huge there and the
operator behaves, over finite horizons, as if its spectrum filled the
larger pseudospectral region.  This is why the eigenvalue radius alone
says little at moderate J, and why a float64 eigensolver applied to the
matrix as it stands returns large-J radii near 1 instead of the true
values near sqrt(0.51).  The package avoids that for every stencil and
closure order by solving one balanced similar matrix, D^-1 A D with
D = diag(rho^j), whose largest eigenvalue is well conditioned
(``radius_condition`` measures it); norms and envelopes are robust either
way.
"""

import numpy as np

from transportbc.scheme import make_builtin
from transportbc.spectral import (assemble_transition_matrix, eigenvalues,
                                  operator_norm_l2, power_norm_envelope,
                                  smallest_singular_value)


def portrait(J: int, kb: int) -> None:
    lw = make_builtin("lax-wendroff", a=1.0, lam=0.7)
    M = assemble_transition_matrix(J, lw, kb)
    eigs = eigenvalues(M)
    rho = float(np.max(np.abs(eigs)))
    nrm = operator_norm_l2(M)
    envelope = power_norm_envelope(M, 4 * J)
    n_peak = int(np.argmax(envelope))
    print(f"J={J} kb={kb}:")
    print(f"  spectral radius      {rho:.6f}")
    print(f"  one-step l2 norm     {nrm:.6f}")
    print(f"  max ||A^n||, n<=4J   {float(np.max(envelope)):.6f} "
          f"(at n={n_peak})")
    print(f"  ||A^{4 * J}||          {float(envelope[-1]):.3e}")
    A = M.entries
    eye = np.eye(J)
    print("  resolvent probes (z outside the eigenvalue cloud):")
    for z in (1.0, 1.02 + 0.0j, 0.9 + 0.45j):
        sigma = smallest_singular_value(z * eye - A)
        dist = float(np.min(np.abs(eigs - z)))
        print(f"    z={z:<12} dist to spectrum {dist:.4f}, "
              f"sigma_min {sigma:.3e}")
    print()


def main() -> None:
    for J in (20, 80):
        for kb in (1, 2):
            portrait(J, kb)


if __name__ == "__main__":
    main()
