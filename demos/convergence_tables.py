#!/usr/bin/env python3
"""Refinement study for the power-kink data family.

Runs the Lax-Wendroff scheme (a=1, lambda=0.7) on (0, 1] up to T=0.5 for
the data (x-0.5)_+^alpha with alpha in {3.0, 2.6, 2.5}, both outflow
extrapolation orders, and prints the sup-over-steps midpoint errors with
their observed orders.  The closure sets the order only for kb=1, where
it goes to 1.  For kb=2 the orders are the interior scheme's: for
alpha=3.0 they drift toward 2, and for the fractional exponents toward
the interior rate 2*alpha/3 of a second-order scheme on data of
smoothness alpha (1.732 against 1.733 at alpha=2.6), because the errors
with and without the boundary agree within 1.2% from J=80 to 1280.
"""

from transportbc.scheme import make_builtin
from transportbc.solver import PowerPlusDatum, convergence_study

J_LIST = [10, 20, 40, 80, 160, 320, 640, 1280]


def table(alpha: float, kb: int) -> None:
    lw = make_builtin("lax-wendroff", a=1.0, lam=0.7)
    print(f"datum (x-0.5)_+^{alpha}, outflow extrapolation order kb={kb}")
    print(f"{'J':>6} {'sup error':>16} {'order':>8}")
    for i, row in enumerate(convergence_study(PowerPlusDatum(0.5, alpha), lw,
                                              kb, J_LIST, 0.5)):
        order = "" if i == 0 else f"{row.observed_order:8.4f}"
        print(f"{row.J:>6} {row.error_sup:>16.10e} {order:>8}")
    print()


def main() -> None:
    for alpha in (3.0, 2.6, 2.5):
        for kb in (2, 1):
            table(alpha, kb)


if __name__ == "__main__":
    main()
