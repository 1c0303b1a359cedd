"""Acceptance checklist for the package: nine checks, one test each.

Every test states its tolerance inline and fails with the full list of
offending entries, so a plain ``pytest -v`` run reads as the checklist.
The spectral-table check compares eigenvalue moduli of strongly
non-normal matrices against four-decimal reference values; see the
comment there for why a plain dense float64 solve cannot produce them.
"""

import math
import time
import warnings

import numpy as np

from _reference import (REFERENCE_SPECTRA, REFERENCE_SUP_ERRORS,
                        naive_amplification)
from transportbc.energy import (_energy_split, dissipation_and_boundary_form,
                                verify_energy_balance)
from transportbc.rng import Xoshiro256StarStar
from transportbc.scheme import SchemeStencil, make_builtin
from transportbc.solver import (BoundarySpec, CallableDatum, FieldState,
                                GridSpec, PowerPlusDatum, convergence_study,
                                error_metrics, n_steps, run_halfline_outflow,
                                run_interval, stability_functional_ratio,
                                step)
from transportbc.spectral import (assemble_transition_matrix, eigenvalues,
                                  operator_norm_l2)

BUILTINS = ("upwind", "lax-friedrichs", "lax-wendroff")


def _modulated_bump(seed):
    """Seeded smooth bump on (0.6, 0.95): sin^2 carrier times a random
    low-order cosine polynomial, exactly zero outside the support."""
    coeffs = Xoshiro256StarStar(seed).symmetric(4)

    def fn(x):
        x = np.asarray(x, dtype=float)
        xi = (x - 0.6) / 0.35
        inside = (xi > 0.0) & (xi < 1.0)
        xi_c = np.where(inside, xi, 0.5)
        mod = sum(c * np.cos((i + 1) * math.pi * xi_c)
                  for i, c in enumerate(coeffs))
        out = np.where(inside,
                       np.sin(math.pi * xi_c) ** 2 * (1.0 + 0.5 * mod), 0.0)
        return out if out.ndim else float(out)

    return fn


def _poly_bump(x):
    """C^3 bump 256 (xi (1-xi))^4 on (0.55, 0.9), zero elsewhere."""
    x = np.asarray(x, dtype=float)
    xi = (x - 0.55) / 0.35
    inside = (xi > 0.0) & (xi < 1.0)
    xi_c = np.where(inside, xi, 0.0)
    out = np.where(inside, 256.0 * (xi_c * (1.0 - xi_c)) ** 4, 0.0)
    return out if out.ndim else float(out)


def test_sup_error_table_lax_wendroff_kink_datum():
    # Lax-Wendroff, a=1, lambda=0.7, datum (x-0.5)_+^3, T=0.5: the sup-
    # over-steps midpoint errors match the sixteen tabulated values
    # (kb in {1,2} x eight refinements) to relative 1e-3, in under 10 s.
    t0 = time.perf_counter()
    lw = make_builtin("lax-wendroff", a=1.0, lam=0.7)
    datum = PowerPlusDatum(0.5, 3.0)
    bad = []
    for kb in (1, 2):
        for J, want in sorted(REFERENCE_SUP_ERRORS[3.0][kb].items()):
            grid = GridSpec(L=1.0, J=J, lam=0.7)
            run = run_interval(datum, grid, lw, BoundarySpec(kb), 0.5)
            got = error_metrics(run).linf_sup
            rel = abs(got - want) / want
            if rel > 1e-3:
                bad.append(f"kb={kb} J={J}: got {got!r}, want {want!r}, "
                           f"rel {rel:.2e}")
    elapsed = time.perf_counter() - t0
    assert not bad, "sup-error table mismatches (rel tol 1e-3):\n" + \
        "\n".join(bad)
    assert elapsed < 10.0, f"table sweep took {elapsed:.1f}s, budget 10s"


def test_convergence_orders_fractional_regularity_data():
    # data (x-0.5)_+^2.6 and (x-0.5)_+^2.5: the observed orders at the
    # three largest refinements sit in (1.7, 1.75) respectively
    # (1.65, 1.7) for kb=2, and within 1.0 +- 0.1 for kb=1.
    lw = make_builtin("lax-wendroff", a=1.0, lam=0.7)
    J_list = [10, 20, 40, 80, 160, 320, 640, 1280]
    windows = {(2.6, 2): (1.7, 1.75), (2.5, 2): (1.65, 1.7),
               (2.6, 1): (0.9, 1.1), (2.5, 1): (0.9, 1.1)}
    bad = []
    for (alpha, kb), (lo, hi) in windows.items():
        rows = convergence_study(PowerPlusDatum(0.5, alpha), lw, kb,
                                 J_list, 0.5)
        last3 = [r.observed_order for r in rows[-3:]]
        for J, order in zip(J_list[-3:], last3):
            if not lo < order < hi:
                bad.append(f"alpha={alpha} kb={kb} J={J}: order {order:.4f} "
                           f"outside ({lo}, {hi})")
    assert not bad, "order windows violated:\n" + "\n".join(bad)


def test_transition_matrix_spectra_and_norms_table():
    # Lax-Wendroff, a=1, lambda=0.7: spectral radius and l2 norm of the
    # one-step interval operator for J in {20, 80, 320, 1280} and
    # kb in {1, 2}, all sixteen values within 1e-3 absolute of the
    # tabulated four-decimal reference values, and the kb in {3, 4} radii
    # at J in {320, 1280} within 1e-3 of the J -> infinity limit
    # sqrt(0.51) = 0.714143 of the Toeplitz symbol, in under 2 minutes.
    #
    # These operators are strongly non-normal: for J >= 40 a float64
    # eigensolver applied to them as they stand returns points of the
    # machine-eps pseudospectrum, whose largest modulus moves away from
    # that limit toward 1 (about 0.77 at J=80 and 0.98 at J=1280).  The
    # true radii sit next to the limit.  ``eigenvalues`` solves the
    # balanced similar copy, a scaling by rho^(k-i) with entries bounded by
    # the Frobenius norm; at J=1280, where rho^J overflows, no warning may
    # arise.  The reference radii for J >= 80 come from 60-digit arithmetic
    # and from the balanced copy (provenance in _reference.py).
    t0 = time.perf_counter()
    lw = make_builtin("lax-wendroff", a=1.0, lam=0.7)
    limit = math.sqrt(0.51)
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kb in (1, 2):
            for J in (20, 80, 320, 1280):
                want_rho, want_norm = REFERENCE_SPECTRA[kb][J]
                M = assemble_transition_matrix(J, lw, kb)
                rho = float(np.max(np.abs(eigenvalues(M))))
                nrm = operator_norm_l2(M)
                for label, got, want in (("radius", rho, want_rho),
                                         ("norm", nrm, want_norm)):
                    dev = abs(got - want)
                    if dev > 1e-3:
                        bad.append(f"kb={kb} J={J} {label}: measured "
                                   f"{got:.6f}, reference {want:.4f}, "
                                   f"|dev| {dev:.2e}")
        for kb in (3, 4):
            for J in (320, 1280):
                M = assemble_transition_matrix(J, lw, kb)
                rho = float(np.max(np.abs(eigenvalues(M))))
                if abs(rho - limit) > 1e-3:
                    bad.append(f"kb={kb} J={J} radius: measured {rho:.6f}, "
                               f"limit {limit:.6f}")
    elapsed = time.perf_counter() - t0
    assert not bad, (
        "spectral table mismatches (abs tol 1e-3, runtime "
        f"{elapsed:.1f}s; see the non-normality note in this test):\n"
        + "\n".join(bad))
    assert elapsed < 120.0, f"spectral sweep took {elapsed:.1f}s, budget 120s"


def test_energy_balance_identity_on_random_sequences():
    # one-step whole-line energy balance for 1000 seeded compactly
    # supported sequences per built-in stencil: identity residual within
    # 1e-12 of the energy scale, dissipation sum nonpositive to 1e-12.
    bad = []
    for name in BUILTINS:
        st = make_builtin(name, a=1.0, lam=0.7)
        for trial in range(1000):
            gen = Xoshiro256StarStar(2400 + trial)
            v = gen.symmetric(1 + gen.integer(40))
            lhs, rhs, residual = verify_energy_balance(st, v, dx=0.01)
            scale = max(1.0, abs(lhs), abs(rhs),
                        0.01 * float(np.dot(v, v)))
            if residual > 1e-12 * scale:
                bad.append(f"{name} trial {trial}: residual {residual:.3e} "
                           f"above 1e-12 * {scale:.3e}")
            if rhs > 1e-12:
                bad.append(f"{name} trial {trial}: dissipation sum "
                           f"{rhs:.3e} is positive")
    assert not bad, "energy balance violations:\n" + "\n".join(bad[:20])


def test_zero_sum_form_decomposition_roundtrip():
    # 1000 seeded random first-order consistent stencils, sizes 2..12: the
    # one-step form S, built here by polarizing the scalar energy change,
    # is rebuilt from the split (d, T) within 1e-12 * max|S|, and d is the
    # negative autocorrelation of the coefficients at the same tolerance.
    bad = []
    for trial in range(1000):
        gen = Xoshiro256StarStar(5000 + trial)
        m = 2 + gen.integer(11)
        r = gen.integer(m)
        lam = 0.05 + 0.9 * gen.uniform()
        w = 0.3 * gen.symmetric(m)
        ell = np.arange(-r, m - r, dtype=float)
        w[[0, -1]] = np.linalg.solve(
            [[1.0, 1.0], [ell[0], ell[-1]]],
            [1.0 - w[1:-1].sum(), -lam - float(np.dot(ell[1:-1], w[1:-1]))])
        coeffs = tuple(w.tolist())
        eye = np.eye(m)
        S = np.array([[naive_amplification(coeffs, r, eye[i] + eye[j])
                       - naive_amplification(coeffs, r, eye[i] - eye[j])
                       for j in range(m)] for i in range(m)]) / 4.0
        tol = 1e-12 * max(1.0, float(np.max(np.abs(S))))
        st = SchemeStencil(r=r, p=m - 1 - r, coeffs=coeffs, velocity_a=1.0,
                           lam=lam)
        d, T = _energy_split(st)
        rec = np.zeros((m, m))
        rec[1:, 1:] += T
        rec[:-1, :-1] -= T
        for k, dk in enumerate(d, start=1):
            diff = eye[0] - eye[k]
            rec += dk * np.outer(diff, diff)
        err = float(np.max(np.abs(rec - S)))
        if err > tol:
            bad.append(f"trial {trial} (m={m}): reconstruction off by "
                       f"{err:.3e}")
        dd = float(np.max(np.abs(d + np.correlate(w, w, "full")[m:])))
        if dd > tol:
            bad.append(f"trial {trial} (m={m}): d differs from the "
                       f"autocorrelation by {dd:.3e}")
    assert not bad, "energy split roundtrip failures:\n" + \
        "\n".join(bad[:20])


def test_boundary_form_center_value_is_minus_cfl():
    # the boundary quadratic form T evaluated on a constant window (the sum
    # of its entries) equals -lambda*a within 1e-12 for every built-in
    # stencil.
    bad = []
    for name in BUILTINS:
        for a, lam in ((1.0, 0.7), (1.0, 0.3), (2.0, 0.45)):
            st = make_builtin(name, a=a, lam=lam)
            _, T = dissipation_and_boundary_form(st)
            got = math.fsum(T.ravel())
            if abs(got + lam * a) > 1e-12:
                bad.append(f"{name} a={a} lam={lam}: center value {got!r}, "
                           f"want {-lam * a!r}")
    assert not bad, "constant-window values off (abs tol 1e-12):\n" + \
        "\n".join(bad)


def test_transition_matrix_matches_one_solver_step():
    # the assembled one-step matrix applied to 100 seeded random states
    # agrees with one solver step (ghost fill + stencil) for
    # J in {5, 13, 40} and kb in {0, 1, 2}: bit-identical or within
    # 1e-15 relative.
    bad = []
    for name in BUILTINS:
        st = make_builtin(name, a=1.0, lam=0.7)
        for J in (5, 13, 40):
            for kb in (0, 1, 2):
                M = assemble_transition_matrix(J, st, kb).entries
                bc = BoundarySpec(outflow_order_kb=kb)
                gen = Xoshiro256StarStar(700 + J + 10 * kb)
                for trial in range(100):
                    u = gen.symmetric(J)
                    state = FieldState(
                        J=J, r=st.r, p=st.p,
                        values=np.concatenate([np.zeros(st.r), u,
                                               np.zeros(st.p)]))
                    via_solver = step(state, st, bc).interior
                    via_matrix = M @ u
                    if np.array_equal(via_solver, via_matrix):
                        continue
                    dev = float(np.max(np.abs(via_solver - via_matrix)))
                    rel = dev / max(1.0, float(np.max(np.abs(via_solver))))
                    if rel > 1e-15:
                        bad.append(f"{name} J={J} kb={kb} trial {trial}: "
                                   f"rel dev {rel:.3e}")
    assert not bad, "matrix/solver disagreements (rel tol 1e-15):\n" + \
        "\n".join(bad[:20])


def test_stability_functional_ratio_bounded_in_resolution():
    # half-line runs with seeded smooth data, gamma=1 exponential
    # weights: the ratio of the two sides of the weighted-in-time energy
    # bound varies by at most 1.5x across J in {20, 40, 80, 160} for
    # every built-in stencil and kb in {0, 1, 2}.
    T = 0.35
    bad = []
    for name in BUILTINS:
        st = make_builtin(name, a=1.0, lam=0.7)
        for kb in (0, 1, 2):
            ratios = []
            for J in (20, 40, 80, 160):
                grid = GridSpec(L=1.0, J=J, lam=0.7)
                datum = CallableDatum(_modulated_bump(2026),
                                      support_min=0.6)
                run = run_halfline_outflow(datum, grid, st, kb=kb,
                                           steps=n_steps(T, grid.dt))
                ratios.append(stability_functional_ratio(run, 1.0).ratio)
            spread = max(ratios) / min(ratios)
            if spread > 1.5:
                bad.append(f"{name} kb={kb}: ratios "
                           + " ".join(f"{v:.4f}" for v in ratios)
                           + f", max/min {spread:.3f} > 1.5")
    assert not bad, "functional ratio not resolution-robust:\n" + \
        "\n".join(bad)


def test_halfline_l2_orders_meet_rate_floor():
    # Lax-Wendroff on the half-line with a C^3 bump: the sup-over-steps
    # l2 error converges at order >= min(2, kb) - 0.05 at the finest
    # refinement pair, for kb in {1, 2}.
    lw = make_builtin("lax-wendroff", a=1.0, lam=0.7)
    T = 0.3
    bad = []
    for kb in (1, 2):
        errs = []
        for J in (40, 80, 160, 320, 640):
            grid = GridSpec(L=1.0, J=J, lam=0.7)
            datum = CallableDatum(_poly_bump, support_min=0.55)
            run = run_halfline_outflow(datum, grid, lw, kb=kb,
                                       steps=n_steps(T, grid.dt))
            errs.append(float(np.max(run.l2_history)))
        orders = [math.log2(errs[i - 1] / errs[i])
                  for i in range(1, len(errs))]
        floor = min(2, kb) - 0.05
        if orders[-1] < floor:
            bad.append(f"kb={kb}: orders "
                       + " ".join(f"{o:.4f}" for o in orders)
                       + f", finest {orders[-1]:.4f} below {floor}")
    assert not bad, "convergence-rate floor violated:\n" + "\n".join(bad)
