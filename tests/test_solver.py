import itertools
import math

import numpy as np
import pytest

from transportbc import (BoundarySpec, CallableDatum, FieldState, GridSpec,
                         PowerPlusDatum, SchemeStencil,
                         assemble_transition_matrix,
                         consistency_error_field, convergence_study,
                         error_metrics, fill_inflow_ghosts,
                         fill_outflow_ghosts, initial_state, make_builtin,
                         n_steps, power_norm_envelope, pseudospectrum_grid,
                         reference_values, run_halfline_outflow,
                         run_interval, solver, stability_functional_ratio,
                         step)

from _reference import REFERENCE_SUP_ERRORS, naive_run

LW = make_builtin("lax_wendroff", 1.0, 0.7)


def _bits_equal(got, want):
    want = np.asarray(want, dtype=float)
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def test_grid_spec_derived_quantities():
    grid = GridSpec(L=1.0, J=40, lam=0.7)
    assert grid.dx == pytest.approx(0.025)
    assert grid.dt == pytest.approx(0.0175)
    assert grid.cell_edges[0] == 0.0
    assert grid.cell_edges[-1] == pytest.approx(1.0)
    assert grid.cell_midpoints[0] == pytest.approx(0.0125)
    with pytest.raises(ValueError):
        GridSpec(L=0.0, J=10, lam=0.5)
    with pytest.raises(ValueError):
        GridSpec(L=1.0, J=0, lam=0.5)


def test_grid_ratio_must_match_stencil():
    # LW's coefficients at lambda = 0.7 on a grid with dt = 0.5 dx would
    # march 80 steps of another problem
    grid = GridSpec(L=1.0, J=80, lam=0.5)
    datum = PowerPlusDatum(0.5, 3.0)
    calls = [
        lambda: run_interval(datum, grid, LW, BoundarySpec(1), 0.5),
        lambda: run_halfline_outflow(PowerPlusDatum(0.5, 2.0), grid, LW, 1,
                                     2),
        lambda: consistency_error_field(datum, grid, LW, 1, (1, 3)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"0\.5 .*0\.7"):
            call()
    good = GridSpec(L=1.0, J=80, lam=0.7)
    assert run_interval(datum, good, LW, BoundarySpec(1), 0.5).n_steps == 58


def test_grid_size_must_be_an_integer():
    for bad in (2.5, 10.0, "10", None):
        with pytest.raises(ValueError, match="integer"):
            GridSpec(L=1.0, J=bad, lam=0.7)
    grid = GridSpec(L=1.0, J=np.int64(10), lam=0.7)
    assert type(grid.J) is int and grid.J == 10


def test_n_steps_rejects_a_vanishing_time_step():
    assert n_steps(0.5, 0.0175) == 29
    for dt in (1e-310, 1e-321, 0.0, -0.1):
        with pytest.raises(ValueError, match="too small"):
            n_steps(0.5, dt)
    assert n_steps(0.0, 0.0) == 0
    # past 2**53 steps not every count is a float: T / dt is finite, but no
    # exact step count or final time exists
    assert n_steps(1.0, 2.0 ** -53) == 2 ** 53
    for T, dt in ((1.0, 2.0 ** -54), (0.5, 1e-301)):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            n_steps(T, dt)


def test_grid_refuses_a_cell_width_below_the_normal_floats():
    tiny = np.finfo(float).tiny
    assert GridSpec(L=2 * tiny, J=2, lam=0.7).dx == tiny
    for L, J in ((5e-324, 2), (tiny, 2), (1e-300, 10 ** 9)):
        with pytest.raises(ValueError, match="L / J"):
            GridSpec(L=L, J=J, lam=0.7)
    with pytest.raises(ValueError, match="dt = "):
        GridSpec(L=1e308, J=1, lam=2.0)


def test_march_whose_datum_moves_past_2_to_the_40_cells_is_refused():
    # a t / dx = 1e308 * 0.5 * 5: the shifted cell edges would lose their
    # width, and the cell averages divide by it
    fast = SchemeStencil(r=0, p=2, coeffs=(1.0, 0.25, 0.25),
                         velocity_a=1e308, lam=0.5)
    grid = GridSpec(L=1.0, J=5, lam=0.5)
    with pytest.raises(ValueError, match="2\\*\\*40"):
        run_interval(PowerPlusDatum(0.2, 1.5), grid, fast, BoundarySpec(3),
                     0.5, convention="cell_average")


def test_march_of_too_many_cell_updates_is_refused():
    # about 1.2e16 cell updates at J = 40; refused before any array is made
    lf = make_builtin("lax_friedrichs", 0.5, 1e-13)
    grid = GridSpec(L=0.7, J=40, lam=1e-13)
    with pytest.raises(ValueError, match="dt = "):
        run_interval(PowerPlusDatum(0.5, 3.0), grid, lf, BoundarySpec(1),
                     0.5)
    # a level counts as at least _STEP_CELLS cells, whatever its length
    grid = GridSpec(L=1.0, J=1, lam=0.7)
    steps = solver._MAX_CELL_UPDATES // solver._STEP_CELLS + 1
    with pytest.raises(ValueError, match="cell updates"):
        run_halfline_outflow(_bump(0.9), GridSpec(L=1.0, J=4, lam=0.7),
                             make_builtin("upwind", 1.0, 0.7), 1, steps)
    with pytest.raises(ValueError, match="cell updates"):
        run_interval(PowerPlusDatum(0.5, 3.0), grid, LW, BoundarySpec(0),
                     steps * grid.dt)


def test_non_finite_inputs_rejected():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(L=bad, J=10, lam=0.5)
        with pytest.raises(ValueError, match="finite"):
            PowerPlusDatum(bad, 2.0)
        with pytest.raises(ValueError, match="finite"):
            PowerPlusDatum(0.5, bad)
        with pytest.raises(ValueError, match="finite"):
            n_steps(bad, 0.0175)
    with pytest.raises(ValueError, match="finite"):
        PowerPlusDatum(-math.inf, 2.0)
    with pytest.raises(ValueError, match="finite"):
        n_steps(-math.inf, 0.0175)


def test_power_datum_values_and_averages():
    d = PowerPlusDatum(0.5, 3.0)
    assert d(0.4) == 0.0
    assert d(0.5) == 0.0
    assert d(1.5) == pytest.approx(1.0)
    assert d(np.array([0.0, 0.75])) == pytest.approx([0.0, 0.25 ** 3])
    # closed-form average vs 16-point quadrature of the same profile
    quad = CallableDatum(lambda x: np.maximum(x - 0.5, 0.0) ** 3,
                         support_min=0.5)
    xl = np.array([0.0, 0.45, 0.6, 0.9])
    xr = xl + 0.05
    assert d.cell_average(xl, xr) == pytest.approx(
        quad.cell_average(xl, xr), rel=1e-12, abs=1e-14)
    with pytest.raises(ValueError):
        PowerPlusDatum(0.5, 0.0)


def _plain_power(x, c, alpha):
    return np.maximum(np.asarray(x, dtype=float) - c, 0.0) ** alpha


def _plain_average(lo, hi, c, alpha, gate=False):
    """Closed-form average over (lo, hi) of the datum, with ``gate`` of the
    datum cut to zero at x <= 0 (integrated from max(lo, 0) on)."""
    top, bottom = (np.maximum(hi, 0.0), np.maximum(lo, 0.0)) if gate \
        else (hi, lo)
    big = _plain_power(top, c, alpha + 1.0) / (alpha + 1.0)
    small = _plain_power(bottom, c, alpha + 1.0) / (alpha + 1.0)
    return (big - small) / (hi - lo)


def test_power_datum_arithmetic_matches_plain_formulas():
    # mostly zero bases (left of the support), a NaN coordinate, 1-D and
    # 2-D inputs; every value must be the plain formula's, bit for bit
    x = np.linspace(-1.0, 1.2, 301)
    x[17] = np.nan
    shifts = np.linspace(0.0, 0.4, 7)[:, None]
    grid = GridSpec(L=1.0, J=53, lam=0.7)
    times = np.arange(9) * grid.dt
    a = 1.1
    for c in (-0.2, 0.0, 0.5):
        for alpha in (2.0, 3.0, 2.6, 0.5):
            d = PowerPlusDatum(c, alpha)
            case = (c, alpha)
            for xx in (x, x - shifts):
                assert np.array_equal(d(xx), _plain_power(xx, c, alpha),
                                      equal_nan=True), case
                assert np.array_equal(
                    d.antiderivative(xx),
                    _plain_power(xx, c, alpha + 1.0) / (alpha + 1.0),
                    equal_nan=True), case
                lo, hi = xx[..., :-1], xx[..., 1:]
                assert np.array_equal(d.cell_average(lo, hi),
                                      _plain_average(lo, hi, c, alpha),
                                      equal_nan=True), case
            assert np.isnan(d(x)[17]) and np.isnan(d.antiderivative(x)[17])
            mids = grid.cell_midpoints - a * times[:, None]
            want = _plain_power(mids, c, alpha)
            if c < 0.0:
                want = np.where(mids > 0.0, want, 0.0)
            assert np.array_equal(
                reference_values(d, grid, times, a, "midpoint"), want), case
            lo = grid.cell_edges[:-1] - a * times[:, None]
            hi = grid.cell_edges[1:] - a * times[:, None]
            want = _plain_average(lo, hi, c, alpha, gate=True)
            assert np.array_equal(
                reference_values(d, grid, times, a, "cell_average"),
                want), case
            assert np.array_equal(
                reference_values(d, grid, times[3], a, "cell_average"),
                want[3]), case
            # scalars in, numpy scalars out
            for xs in (0.1, 0.9, math.nan):
                got = d(xs)
                assert isinstance(got, np.float64), case
                assert np.array_equal(got, _plain_power(xs, c, alpha),
                                      equal_nan=True), case
                assert isinstance(d.antiderivative(xs), np.float64), case


def test_callable_datum_average_exact_on_polynomials():
    d = CallableDatum(lambda x: x ** 5 - 2.0 * x ** 2)
    lo, hi = 0.3, 0.9
    exact = (hi ** 6 - lo ** 6) / 6.0 - 2.0 * (hi ** 3 - lo ** 3) / 3.0
    assert d.cell_average(lo, hi) == pytest.approx(exact / (hi - lo),
                                                   rel=1e-14)


def test_reference_values_zero_gate():
    # data extended by zero to the left of the origin: the shifted profile
    # must vanish wherever x - a t <= 0 even if the raw datum would not
    d = PowerPlusDatum(-0.2, 2.0)
    assert d(-0.1) > 0.0
    grid = GridSpec(L=1.0, J=10, lam=0.7)  # midpoints 0.05, 0.15, ...
    vals = reference_values(d, grid, 0.2, 1.0, "midpoint")
    assert np.all(vals[:2] == 0.0)
    assert vals[2] == pytest.approx(0.25 ** 2)
    assert vals[4] == pytest.approx(0.45 ** 2)


def test_initial_state_conventions():
    grid = GridSpec(L=1.0, J=8, lam=0.7)
    d = PowerPlusDatum(0.25, 2.0)
    mid = initial_state(d, grid, LW, "midpoint")
    avg = initial_state(d, grid, LW, "cell_average")
    assert mid.interior == pytest.approx(d(grid.cell_midpoints))
    assert avg.interior == pytest.approx(
        d.cell_average(grid.cell_edges[:-1], grid.cell_edges[1:]))
    assert np.all(mid.left_ghosts == 0.0)
    assert np.all(avg.right_ghosts == 0.0)
    assert initial_state(d, grid, LW).interior == pytest.approx(
        mid.interior)
    with pytest.raises(ValueError):
        initial_state(d, grid, LW, "nodal")


def test_step_matches_scalar_oracle():
    rng = np.random.default_rng(90125)
    for _ in range(60):
        r = int(rng.integers(0, 3))
        p = int(rng.integers(0, 3))
        st = SchemeStencil(r=r, p=p,
                           coeffs=tuple(rng.uniform(-1, 1, r + p + 1)),
                           velocity_a=1.0, lam=0.5)
        J = int(rng.integers(max(4, r + p + 1), 12))
        kb = int(rng.integers(0, min(J, 3) + 1))
        u0 = rng.uniform(-2, 2, J)
        steps = int(rng.integers(1, 5))
        expected = naive_run(list(u0), list(st.coeffs), r, p, kb, steps)
        state = FieldState(J=J, r=r, p=p)
        state.interior[:] = u0
        bc = BoundarySpec(kb)
        for n in range(steps):
            state = step(state, st, bc)
            assert state.interior == pytest.approx(expected[n + 1],
                                                   rel=1e-12, abs=1e-12)
        assert state.time_index == steps


_KINK = PowerPlusDatum(0.55, 2.5)
_GRID40 = GridSpec(L=1.0, J=40, lam=LW.lam)


@pytest.mark.parametrize("call, name", [
    (lambda: run_halfline_outflow(_KINK, _GRID40, LW, 1.5, 5), "k_b"),
    (lambda: run_halfline_outflow(_KINK, _GRID40, LW, 1, 2.5), "steps"),
    (lambda: assemble_transition_matrix(10.0, LW, 1), "cell count J"),
    (lambda: assemble_transition_matrix(10, LW, 1.5), "k_b"),
    (lambda: fill_outflow_ghosts(FieldState(J=5, r=1, p=1), 1.5), "k_b"),
    (lambda: power_norm_envelope(np.eye(3), 2.5), "n_max"),
    (lambda: pseudospectrum_grid(np.eye(3), resolution=2.5), "resolution"),
    (lambda: consistency_error_field(_KINK, _GRID40, LW, n=1.5,
                                     window=(21, 23)), "time index n"),
    (lambda: consistency_error_field(_KINK, _GRID40, LW, n=1,
                                     window=(21, 23.0)), "window"),
], ids=["halfline_kb", "halfline_steps", "matrix_J", "matrix_kb",
        "ghosts_kb", "envelope_n_max", "pseudospectrum_resolution",
        "consistency_n", "consistency_window"])
def test_non_integer_counts_are_refused(call, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


def test_step_rejects_too_small_grid():
    st = make_builtin("lax_wendroff", 1.0, 0.7)
    state = FieldState(J=1, r=1, p=1)
    with pytest.raises(ValueError):
        step(state, st, BoundarySpec(2))


def test_n_steps_convention():
    dt = 0.0175
    assert n_steps(0.5, dt) == 29
    assert n_steps(29 * dt, dt) == 29
    assert n_steps(29 * dt + 1e-6, dt) == 30
    # the slop is an absolute 1e-9 of T / dt, not relative to it
    assert n_steps(29 * dt * (1 + 1e-10), dt) == 30
    assert n_steps(0.0, dt) == 0
    assert n_steps(-1.0, dt) == 0


def test_run_interval_record_modes():
    d = PowerPlusDatum(0.5, 3.0)
    grid = GridSpec(L=1.0, J=20, lam=0.7)
    bc = BoundarySpec(2)
    final = run_interval(d, grid, LW, bc, 0.1, record="final")
    assert final.linf_history is None and final.history is None
    assert final.final_state.shape == (grid.J,)
    sup = run_interval(d, grid, LW, bc, 0.1, record="sup_error")
    assert len(sup.linf_history) == sup.n_steps + 1
    assert sup.history is None
    full = run_interval(d, grid, LW, bc, 0.1, record="full_history")
    assert full.history.shape == (full.n_steps + 1, grid.J)
    assert _bits_equal(full.final_state, full.history[-1])
    # all three agree on the final state
    assert _bits_equal(final.final_state, sup.final_state)
    assert _bits_equal(final.final_state, full.final_state)
    for mode in ("everything", "sup", "history"):
        with pytest.raises(ValueError):
            run_interval(d, grid, LW, bc, 0.1, record=mode)


def test_run_interval_step_count_and_final_time():
    d = PowerPlusDatum(0.5, 3.0)
    grid = GridSpec(L=1.0, J=40, lam=0.7)
    run = run_interval(d, grid, LW, BoundarySpec(2), 0.5, record="final")
    assert run.n_steps == 29
    assert run.t_final == pytest.approx(0.5075)


def test_error_metrics_and_history_requirements():
    d = PowerPlusDatum(0.5, 3.0)
    grid = GridSpec(L=1.0, J=20, lam=0.7)
    bc = BoundarySpec(2)
    sup = run_interval(d, grid, LW, bc, 0.2, record="sup_error")
    rep = error_metrics(sup)
    assert rep.linf_sup >= rep.linf_final > 0.0
    assert rep.l2_sup >= rep.l2_final > 0.0
    assert rep.sup_at_step == int(np.argmax(sup.linf_history))

    final = run_interval(d, grid, LW, bc, 0.2, record="final")
    rep_final = error_metrics(final)
    # the final level alone is measured as the recorded runs measure it
    assert rep_final.linf_final == rep.linf_final
    assert rep_final.l2_final == rep.l2_final
    assert rep_final.linf_sup is None
    for run in (final, sup):
        with pytest.raises(ValueError, match="full_history"):
            error_metrics(run, convention="cell_average")

    full = run_interval(d, grid, LW, bc, 0.2, record="full_history")
    rep_avg = error_metrics(full, convention="cell_average")
    assert rep_avg.convention == "cell_average"
    assert rep_avg.linf_sup > 0.0


def test_reference_error_tables():
    # frozen sup-over-steps midpoint errors for the power datum family,
    # all three exponents, both closures, eight refinements each
    worst = 0.0
    for alpha, by_kb in REFERENCE_SUP_ERRORS.items():
        d = PowerPlusDatum(0.5, alpha)
        for kb, by_J in by_kb.items():
            for J, expected in by_J.items():
                grid = GridSpec(L=1.0, J=J, lam=0.7)
                run = run_interval(d, grid, LW, BoundarySpec(kb), 0.5)
                got = error_metrics(run).linf_sup
                rel = abs(got - expected) / expected
                worst = max(worst, rel)
                assert rel <= 1e-3, (alpha, kb, J, got, expected)
    assert worst <= 1e-6  # they agree far better than the headline bound


def test_convergence_study_orders_and_validation():
    d = PowerPlusDatum(0.5, 3.0)
    rows = convergence_study(d, LW, 2, [40, 80, 160], 0.5)
    assert [r.J for r in rows] == [40, 80, 160]
    assert math.isnan(rows[0].observed_order)
    assert rows[-1].observed_order == pytest.approx(1.96, abs=0.1)
    assert rows[0].dx == pytest.approx(1.0 / 40)
    with pytest.raises(ValueError):
        convergence_study(d, LW, 2, [80, 40], 0.5)
    with pytest.raises(ValueError):
        convergence_study(d, LW, 2, [40, 40, 80], 0.5)


def _bump(x0=0.55, width=0.3):
    def fn(x):
        xi = (np.asarray(x) - x0) / width
        out = np.zeros_like(np.asarray(xi, dtype=float))
        inside = (xi > 0.0) & (xi < 1.0)
        out[inside] = np.sin(np.pi * xi[inside]) ** 4
        return out
    return CallableDatum(fn, support_min=x0)


def test_halfline_padding_enforced():
    d = _bump(x0=0.1)
    grid = GridSpec(L=1.0, J=20, lam=0.7)
    with pytest.raises(ValueError, match="window"):
        run_halfline_outflow(d, grid, LW, 1, steps=10)
    bare = CallableDatum(lambda x: np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValueError, match="support_min"):
        run_halfline_outflow(bare, grid, LW, 1, steps=1)


def test_halfline_matches_interval_when_inflow_idle():
    # with the support far from the left edge, the truncated half-line run
    # and the interval run perform identical arithmetic
    d = PowerPlusDatum(0.5, 3.0)
    grid = GridSpec(L=1.0, J=40, lam=0.7)
    steps = 8
    half = run_halfline_outflow(d, grid, LW, 2, steps=steps,
                                convention="midpoint")
    full = run_interval(d, grid, LW, BoundarySpec(2), steps * grid.dt,
                        record="final", convention="midpoint")
    assert full.n_steps == steps
    assert _bits_equal(half.final_state, full.final_state)


def test_halfline_traces_satisfy_closure_relation():
    d = _bump()
    grid = GridSpec(L=1.0, J=25, lam=0.7)
    rng = np.random.default_rng(5)
    steps = 6
    kb = 2
    sources = rng.uniform(-0.5, 0.5, (steps + 1, LW.p))
    res = run_halfline_outflow(d, grid, LW, kb, steps=steps, sources=sources)
    # traces cover cells J+1-r-kb .. J+p; the ghost row must satisfy the
    # defining backward-difference relation at every level
    for n in range(steps + 1):
        tr = res.traces[n]
        for ell in range(1, LW.p + 1):
            pos = len(tr) - 1 - (LW.p - ell)
            diff = sum(math.comb(kb, mm) * (-1.0) ** mm * tr[pos - mm]
                       for mm in range(kb + 1))
            assert diff == pytest.approx(sources[n, ell - 1], abs=1e-12)
    with pytest.raises(ValueError, match="sources"):
        run_halfline_outflow(d, grid, LW, kb, steps=steps,
                             sources=np.zeros((steps, LW.p)))


def test_halfline_diagnostics_match_direct_sums():
    d = _bump()
    grid = GridSpec(L=1.0, J=30, lam=0.7)
    res = run_halfline_outflow(d, grid, LW, 1, steps=5)
    u_end = res.final_state
    assert res.masses[-1] == pytest.approx(grid.dx * float(np.sum(u_end)))
    assert res.energies[-1] == pytest.approx(
        grid.dx * float(np.dot(u_end, u_end)))
    assert res.initial_interior == pytest.approx(
        d.cell_average(grid.cell_edges[:-1], grid.cell_edges[1:]))
    # errors measured against the shifted datum
    t = 5 * grid.dt
    ref = d.cell_average(grid.cell_edges[:-1] - t, grid.cell_edges[1:] - t)
    assert res.linf_history[-1] == pytest.approx(
        float(np.max(np.abs(u_end - ref))))


def test_runs_reject_grids_smaller_than_the_closure():
    # the march fills the outflow ghosts of every level, the last one of a
    # zero-step run included, so a zero-step run is refused like any other
    d = PowerPlusDatum(0.5, 2.5)
    for J, kb in ((1, 6), (2, 3)):
        for T in (0.0, 0.1):
            with pytest.raises(ValueError, match="grid too small"):
                run_interval(d, GridSpec(1.0, J, LW.lam), LW,
                             BoundarySpec(kb), T)


def test_halfline_small_case_matches_scalar_oracle():
    d = _bump(x0=0.5, width=0.2)
    grid = GridSpec(L=1.0, J=16, lam=0.7)
    steps = 3
    res = run_halfline_outflow(d, grid, LW, 1, steps=steps)
    u0 = d.cell_average(grid.cell_edges[:-1], grid.cell_edges[1:])
    levels = naive_run(list(u0), list(LW.coeffs), 1, 1, 1, steps)
    assert res.final_state == pytest.approx(levels[-1], rel=1e-12)


def test_consistency_error_vanishes_for_exact_cases():
    grid = GridSpec(L=1.0, J=32, lam=1.0)
    shift = make_builtin("upwind", 1.0, 1.0)  # pure shift, exact transport
    d = PowerPlusDatum(-5.0, 3.0)  # smooth polynomial over the window
    e = consistency_error_field(d, grid, shift, n=3, window=(4, 20))
    assert np.max(np.abs(e)) <= 1e-12

    lin = PowerPlusDatum(-5.0, 1.0)  # linear data: second-order scheme exact
    grid2 = GridSpec(L=1.0, J=32, lam=0.7)
    e2 = consistency_error_field(lin, grid2, LW, n=2, window=(4, 20))
    assert np.max(np.abs(e2)) <= 3e-10


def test_consistency_error_second_order_decay():
    d = PowerPlusDatum(-5.0, 3.0)
    errs = []
    for J in (40, 80):
        grid = GridSpec(L=1.0, J=J, lam=0.7)
        e = consistency_error_field(d, grid, LW, n=1,
                                    window=(2, J - 2))
        errs.append(float(np.max(np.abs(e))))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order == pytest.approx(2.0, abs=0.2)
    with pytest.raises(ValueError):
        consistency_error_field(d, GridSpec(1.0, 10, 0.7), LW, n=0,
                                window=(2, 5))


def test_stability_functional_formula():
    d = _bump()
    grid = GridSpec(L=1.0, J=24, lam=0.7)
    steps = 4
    res = run_halfline_outflow(d, grid, LW, 1, steps=steps)
    gamma = 1.0
    out = stability_functional_ratio(res, gamma)
    # recompute both sides with bare loops
    lhs = 0.0
    for n in range(steps + 1):
        lhs = max(lhs, math.exp(-2 * gamma * n * grid.dt) * res.energies[n])
    trace_part = 0.0
    for n in range(steps + 1):
        trace_part += (grid.dt * math.exp(-2 * gamma * n * grid.dt)
                       * float(np.sum(res.traces[n] ** 2)))
    rhs = grid.dx * float(np.dot(res.initial_interior, res.initial_interior))
    assert out.lhs == pytest.approx(lhs + trace_part, rel=1e-12)
    assert out.rhs == pytest.approx(rhs, rel=1e-12)
    assert out.ratio == pytest.approx(out.lhs / out.rhs, rel=1e-12)
    with pytest.raises(ValueError):
        stability_functional_ratio(res, 0.0)


def test_stability_functional_rejects_non_finite_gamma():
    # inf passes a positivity check, and 0 * inf in the weights makes the
    # ratio nan
    res = run_halfline_outflow(_bump(), GridSpec(L=1.0, J=40, lam=0.7), LW,
                               1, steps=4)
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError):
            stability_functional_ratio(res, bad)


# -- the march against a loop of public step() calls -------------------------

WIDE = SchemeStencil(r=2, p=2, coeffs=(0.05, 0.4, 0.35, 0.25, -0.05),
                     velocity_a=1.3, lam=0.5)
MARCH_STENCILS = [make_builtin(name, 1.25, 0.6) for name in
                  ("upwind", "lax_friedrichs", "lax_wendroff")] + [WIDE]


def _stepped_interval(datum, grid, st, kb, T, record, convention):
    """run_interval's arrays, from one step() call per level."""
    a, N = st.velocity_a, n_steps(T, grid.dt)
    state = initial_state(datum, grid, st, convention)
    history, linf, l2 = [], np.zeros(N + 1), np.zeros(N + 1)
    for n in range(N + 1):
        if n:
            state = step(state, st, BoundarySpec(kb))
        history.append(state.copy())
        err = state.interior - reference_values(datum, grid, n * grid.dt, a,
                                                convention)
        linf[n] = np.max(np.abs(err))
        l2[n] = math.sqrt(grid.dx * float(np.einsum("i,i->", err, err)))
    if record == "final":
        return state, None, None, None
    return (state, linf, l2,
            history if record == "full_history" else None)


def _stepped_halfline(datum, grid, st, kb, steps, sources, convention):
    """run_halfline_outflow's arrays, from one step() call per level."""
    a, r, J = st.velocity_a, st.r, grid.J
    state = initial_state(datum, grid, st, convention)
    f0 = state.interior.copy()
    lo, width = J - kb, r + kb + st.p
    traces = np.zeros((steps + 1, width))
    masses, energies, linf, l2 = (np.zeros(steps + 1) for _ in range(4))
    g = (lambda n: None) if sources is None else (lambda n: sources[n])
    for n in range(steps + 1):
        if n:
            state = step(state, st, BoundarySpec(kb), sources=g(n - 1))
        fill_inflow_ghosts(state)
        fill_outflow_ghosts(state, kb, g(n))
        traces[n] = state.values[lo:lo + width]
        u = state.interior
        masses[n] = grid.dx * float(np.sum(u))
        energies[n] = grid.dx * float(np.einsum("i,i->", u, u))
        err = u - reference_values(datum, grid, n * grid.dt, a, convention)
        linf[n] = np.max(np.abs(err))
        l2[n] = math.sqrt(grid.dx * float(np.einsum("i,i->", err, err)))
    return state, f0, traces, masses, energies, linf, l2


def _same(got, want):
    if want is None:
        return got is None
    return np.array_equal(got, want)


@pytest.mark.parametrize("st", MARCH_STENCILS,
                         ids=["upwind", "lax_friedrichs", "lax_wendroff",
                              "wide"])
def test_interval_march_matches_stepped_runs(st):
    grid = GridSpec(L=1.0, J=23, lam=st.lam)
    cases = [(d, kb, conv, rec)
             for d in (PowerPlusDatum(0.5, 2.5), PowerPlusDatum(-0.2, 2.0),
                       _bump(0.3, 0.4))
             for kb in range(4) for conv in ("midpoint", "cell_average")
             for rec in ("final", "sup_error", "full_history")]
    for d, kb, conv, rec in cases:
        run = run_interval(d, grid, st, BoundarySpec(kb), 0.6, record=rec,
                           convention=conv)
        state, linf, l2, history = _stepped_interval(d, grid, st, kb, 0.6,
                                                     rec, conv)
        case = (d, kb, conv, rec)
        assert _bits_equal(run.final_state, state.interior), case
        assert run.n_steps == state.time_index, case
        assert _same(run.linf_history, linf), case
        assert _same(run.l2_history, l2), case
        if history is None:
            assert run.history is None, case
            continue
        assert _bits_equal(run.history, [s.interior for s in history]), case


@pytest.mark.parametrize("st", MARCH_STENCILS,
                         ids=["upwind", "lax_friedrichs", "lax_wendroff",
                              "wide"])
def test_halfline_march_matches_stepped_runs(st):
    grid = GridSpec(L=1.0, J=30, lam=st.lam)
    rng = np.random.default_rng(17)
    steps = 7
    for d in (PowerPlusDatum(0.55, 2.5), _bump(0.6, 0.3)):
        for kb in range(4):
            for conv in ("midpoint", "cell_average"):
                for sources in (None, rng.uniform(-0.5, 0.5,
                                                  (steps + 1, st.p))):
                    res = run_halfline_outflow(d, grid, st, kb, steps,
                                               sources=sources,
                                               convention=conv)
                    want = _stepped_halfline(d, grid, st, kb, steps,
                                             sources, conv)
                    got = (res.final_state, res.initial_interior, res.traces,
                           res.masses, res.energies, res.linf_history,
                           res.l2_history)
                    case = (d, kb, conv, sources is None)
                    assert _bits_equal(got[0], want[0].interior), case
                    # traces[-1] holds the final outflow ghosts (cells
                    # J+1..J+p); the inflow ghosts are always zero
                    for g, w in zip(got[1:], want[1:]):
                        assert np.array_equal(g, w), case


def test_wide_block_norms_match_per_row_sums():
    # J = 2560 rows are long enough for a kernel to split its sums: the
    # whole-block l2 norms, masses and energies must equal per-row einsum
    # and np.sum bit for bit
    grid = GridSpec(L=1.0, J=2560, lam=LW.lam)
    assert solver._BLOCK_ENTRIES // (grid.J + LW.r + LW.p) > 1  # several rows
    for d in (PowerPlusDatum(0.5, 2.6), _bump(0.6, 0.3)):
        for conv in ("midpoint", "cell_average"):
            run = run_interval(d, grid, LW, BoundarySpec(2), 0.02,
                               record="sup_error", convention=conv)
            _, linf, l2, _ = _stepped_interval(d, grid, LW, 2, 0.02,
                                               "sup_error", conv)
            assert np.array_equal(run.linf_history, linf), (d, conv)
            assert np.array_equal(run.l2_history, l2), (d, conv)
            res = run_halfline_outflow(d, grid, LW, 1, 20, convention=conv)
            want = _stepped_halfline(d, grid, LW, 1, 20, None, conv)
            got = (res.masses, res.energies, res.linf_history,
                   res.l2_history)
            for g, w in zip(got, want[3:]):
                assert np.array_equal(g, w), (d, conv)


def test_march_results_do_not_depend_on_block_size(monkeypatch):
    # one level per block, and the whole run in one block, give the same
    # arrays as the default blocks
    grid = GridSpec(L=1.0, J=320, lam=0.7)
    d = PowerPlusDatum(0.5, 2.6)

    def arrays():
        full = run_interval(d, grid, LW, BoundarySpec(2), 1.0,
                            record="full_history", convention="cell_average")
        rep = error_metrics(full, convention="midpoint")
        half = run_halfline_outflow(_bump(0.7, 0.25), grid, LW, 1, steps=220)
        return [full.final_state, full.linf_history, full.l2_history,
                full.history,
                np.array([rep.linf_sup, rep.l2_sup, rep.linf_final]),
                half.final_state, half.traces, half.masses,
                half.energies, half.linf_history, half.l2_history]

    default = arrays()
    # the default splits both runs (history, traces) into several blocks
    rows = solver._BLOCK_ENTRIES // (grid.J + LW.r + LW.p)
    assert len(default[3]) > 4 * rows and len(default[6]) > 2 * rows
    for entries in (1, 2 ** 30):
        monkeypatch.setattr(solver, "_BLOCK_ENTRIES", entries)
        for got, want in zip(arrays(), default):
            assert _bits_equal(got, want), entries



def _identity_levels(st, kb, J):
    """The interiors of levels ``0..2J`` of the identity marched as one
    2-D interior, one level per column, gathered from the observer."""
    levels = np.empty((2 * J + 1, J, J))
    n1 = 0

    def observe(n0, block):
        nonlocal n1
        assert n0 == n1 and block.shape[1:] == (st.r + J + st.p, J)
        n1 = n0 + len(block)
        levels[n0:n1] = block[:, st.r:st.r + J]

    final = solver._march(np.eye(J), st, kb, 2 * J, observe)
    assert n1 == 2 * J + 1 and _bits_equal(final, levels[-1])
    return levels


def test_identity_march_gives_the_matrix_powers(monkeypatch):
    # level n of the marched identity is A^n; level 1 is the transition
    # matrix bit for bit, and no level depends on the block size
    cases = list(itertools.product(MARCH_STENCILS, range(4), (12, 40)))
    default = []
    for st, kb, J in cases:
        A = assemble_transition_matrix(J, st, kb).entries
        levels = _identity_levels(st, kb, J)
        assert _bits_equal(levels[0], np.eye(J))
        assert _bits_equal(levels[1], A), (st, kb, J)
        P = np.eye(J)
        for n in range(1, 2 * J + 1):
            P = P @ A
            scale = np.max(np.abs(P))
            assert np.max(np.abs(levels[n] - P)) <= 1e-12 * scale, \
                (st, kb, J, n)
        default.append(levels)
    for entries in (1, 2 ** 30):
        monkeypatch.setattr(solver, "_BLOCK_ENTRIES", entries)
        for (st, kb, J), want in zip(cases, default):
            assert _bits_equal(_identity_levels(st, kb, J), want), \
                (entries, st, kb, J)

# -- the march against the scalar loop of _reference.naive_run ---------------
#
# naive_run sums every cell in order from zero in plain Python floats, so it
# pins the march's arithmetic to the bit: a numpy or BLAS that reorders the
# stencil sum, or starts it from the first product (which turns a sum of
# -0.0 products into -0.0), fails here even though step() would still agree.

def _cellwise_datum(values, dx, support_min):
    """``values[j-1]`` on cell ``j`` of width ``dx``, zero off the cells:
    sampling it at the midpoints gives ``values`` back bit for bit."""
    def fn(x):
        idx = np.floor(x / dx)
        inside = (idx >= 0) & (idx < len(values))
        at = np.clip(idx, 0, len(values) - 1).astype(int)
        return np.where(inside, values[at], 0.0)
    return CallableDatum(fn, support_min=support_min)


@pytest.mark.parametrize("width", range(1, 15))
def test_march_is_bit_exact_against_scalar_loop(width):
    assert 1 <= solver._CORRELATE_WIDTH < 14  # both kernels are exercised
    rng = np.random.default_rng(7000 + width)
    steps = 4
    for kb in range(4):
        for nonnegative in (False, True):
            coeffs = rng.uniform(-1.0, 1.0, width)
            coeffs[rng.random(width) < 0.25] = 0.0
            if nonnegative:  # every product on a run of -0.0 is -0.0
                coeffs = np.abs(coeffs)
            r = int(rng.integers(0, width))
            p = width - 1 - r
            st = SchemeStencil(r=r, p=p, coeffs=tuple(coeffs),
                               velocity_a=1.0, lam=0.5)
            pad = steps * p + r  # zero cells the half-line window needs
            J = pad + 30
            u0 = rng.uniform(-1.0, 1.0, J)
            zeros = rng.random(J) < 0.3
            u0[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5,
                                 0.0, -0.0)
            u0[:pad] = -0.0
            u0[pad + 8:pad + 24] = -0.0
            grid = GridSpec(L=1.0, J=J, lam=st.lam)
            d = _cellwise_datum(u0, grid.dx, pad * grid.dx)
            case = (width, r, p, kb, nonnegative)

            want = naive_run(list(u0), list(st.coeffs), r, p, kb, steps)
            run = run_interval(d, grid, st, BoundarySpec(kb),
                               steps * grid.dt, record="full_history")
            assert run.n_steps == steps, case
            assert _bits_equal(run.history, want), case
            assert _bits_equal(run.final_state, want[-1]), case

            sources = rng.uniform(-0.5, 0.5, (steps + 1, p))
            sources[rng.random(sources.shape) < 0.3] = -0.0
            want = naive_run(list(u0), list(st.coeffs), r, p, kb, steps,
                             sources=sources.tolist())
            res = run_halfline_outflow(d, grid, st, kb, steps,
                                       sources=sources, convention="midpoint")
            assert _bits_equal(res.initial_interior, want[0]), case
            assert _bits_equal(res.final_state, want[-1]), case
            tail = [level[J - r - kb:] for level in want]
            assert _bits_equal(res.traces[:, :r + kb], tail), case


def test_grid_rejects_non_finite_ratio():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(L=1.0, J=10, lam=bad)


def test_callable_datum_rejects_non_finite_support_min():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="support_min"):
            CallableDatum(np.cos, support_min=bad)
    assert CallableDatum(np.cos, support_min=1).support_min == 1.0
    assert CallableDatum(np.cos).support_min is None


def test_gated_power_average_is_exact_for_negative_offset():
    # the zero gate puts a jump at x = a t inside one cell; the average of
    # ((x + 0.2)^+)^0.5 cut to zero at x <= 0 is closed-form on every cell
    c, alpha = -0.2, 0.5
    grid = GridSpec(L=1.0, J=40, lam=0.7)
    d = PowerPlusDatum(c, alpha)

    def exact_average(j, shift):
        lo, hi = (j - 1) * grid.dx - shift, j * grid.dx - shift
        if hi <= 0.0:
            return 0.0
        F = (lambda x: (x - c) ** (alpha + 1.0) / (alpha + 1.0))
        return (F(hi) - F(max(lo, 0.0))) / (hi - lo)

    for t in (0.31, np.array([0.0, 0.1, 0.31])):
        got = reference_values(d, grid, t, 1.0, "cell_average")
        for row, tt in zip(np.atleast_2d(got), np.atleast_1d(t)):
            want = [exact_average(j, tt) for j in range(1, grid.J + 1)]
            assert row == pytest.approx(want, rel=1e-13, abs=1e-15), tt
    # the cell holding the jump, against mpmath.quad at 30 digits
    jump = math.ceil(0.31 / grid.dx)
    assert reference_values(d, grid, 0.31, 1.0, "cell_average")[jump - 1] \
        == pytest.approx(0.273298126042326066, rel=1e-12)


# -- reference values evaluated only where the shifted support reaches ------

def _full_width_reference(datum, grid, shift, convention):
    """Reference values on every cell of ``grid`` of the datum shifted by
    ``shift`` and cut to zero at x <= 0."""
    xs = grid.cell_midpoints - shift
    lo = grid.cell_edges[:-1] - shift
    hi = grid.cell_edges[1:] - shift
    if convention == "midpoint":
        return np.where(xs > 0.0, datum(xs), 0.0)
    if isinstance(datum, PowerPlusDatum):
        F = datum.antiderivative
        return (F(np.maximum(hi, 0.0)) - F(np.maximum(lo, 0.0))) / (hi - lo)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    acc = np.zeros(lo.shape)
    for node, w in zip(*np.polynomial.legendre.leggauss(16)):
        xs = half * node + mid
        acc += w * np.where(xs > 0.0, datum(xs), 0.0)
    return 0.5 * acc


def _row_norms(levels, ref, dx):
    err = levels - ref
    return (np.array([np.max(np.abs(e)) for e in err]),
            np.array([math.sqrt(dx * float(np.einsum("i,i->", e, e)))
                      for e in err]))


LIVE_DATA = [PowerPlusDatum(-0.2, 0.5), PowerPlusDatum(0.0, 2.6),
             PowerPlusDatum(0.55, 2.5), _bump(0.6, 0.3),
             CallableDatum(lambda x: np.cos(3.0 * x) + x * x)]


@pytest.mark.parametrize("entries", [None, 1, 2 ** 30])
def test_live_columns_match_full_width_evaluation(monkeypatch, entries):
    if entries is not None:
        monkeypatch.setattr(solver, "_BLOCK_ENTRIES", entries)
    with pytest.raises(ValueError, match="1-D"):
        reference_values(LIVE_DATA[0], GridSpec(L=1.0, J=8, lam=0.7),
                         np.zeros((2, 8)), 1.0, "midpoint")
    nan_right = CallableDatum(
        lambda x: np.where(x > 0.9, np.nan,
                           np.where(x > 0.2, np.sin(5.0 * x - 1.0), 0.0)),
        support_min=0.2)
    for J in (37, 160):
        grid = GridSpec(L=1.0, J=J, lam=LW.lam)
        times = np.arange(40) * grid.dt
        for d in LIVE_DATA + [nan_right]:
            for conv in ("midpoint", "cell_average"):
                case = (J, d, conv)
                for a in (1.0, 2.3, 0.0, -0.5):
                    want = _full_width_reference(d, grid, a * times[:, None],
                                                 conv)
                    got = reference_values(d, grid, times, a, conv)
                    assert np.array_equal(got, want, equal_nan=True), case
                    got = reference_values(d, grid, times[9], a, conv)
                    assert np.array_equal(got, want[9], equal_nan=True), case
                if d is nan_right:
                    continue
                # the interval run's errors, and error_metrics re-measuring
                # its levels in both conventions
                run = run_interval(d, grid, LW, BoundarySpec(1), 0.5,
                                   record="full_history", convention=conv)
                levels = run.history
                shift = LW.velocity_a * (np.arange(len(levels))
                                         * grid.dt)[:, None]
                for measure in ("midpoint", "cell_average"):
                    linf, l2 = _row_norms(
                        levels, _full_width_reference(d, grid, shift, measure),
                        grid.dx)
                    if measure == conv:
                        assert np.array_equal(run.linf_history, linf), case
                        assert np.array_equal(run.l2_history, l2), case
                    rep = error_metrics(run, convention=measure)
                    assert (rep.linf_sup, rep.l2_sup, rep.linf_final) == \
                        (np.max(linf), np.max(l2), linf[-1]), (case, measure)
                if d.support_min is None or d.support_min < 0.5:
                    continue
                # the half-line run measures the same way
                steps = 12
                res = run_halfline_outflow(d, grid, LW, 1, steps,
                                           convention=conv)
                levels = [res.initial_interior]
                state = initial_state(d, grid, LW, conv)
                for _ in range(steps):
                    state = step(state, LW, BoundarySpec(1))
                    levels.append(state.interior)
                shift = LW.velocity_a * (np.arange(steps + 1)
                                         * grid.dt)[:, None]
                linf, l2 = _row_norms(
                    np.array(levels),
                    _full_width_reference(d, grid, shift, conv), grid.dx)
                assert np.array_equal(res.linf_history, linf), case
                assert np.array_equal(res.l2_history, l2), case


# -- the run's meter against the public reference path ----------------------

@pytest.mark.parametrize("conv", ["midpoint", "cell_average"])
def test_meter_matches_block_errors_of_reference_values(conv):
    # one meter per run: its block norms have the bits of _block_errors on
    # reference_values at the block's times, for every datum kind (power c
    # below, at and above 0, callables with and without support_min), for
    # growing, still and falling shifts, and for blocks whose levels reach
    # different first cells; the levels hold signed zeros and subnormals,
    # whose errors left of the live columns are copied, not subtracted
    grid = GridSpec(L=1.0, J=64, lam=0.7)
    rng = np.random.default_rng(23)
    moved = 0
    for d in LIVE_DATA:
        for a in (1.0, 2.3, 0.0, -0.5):
            measure = solver._meter(d, grid, a, conv)
            for n0, rows in ((0, 9), (5, 12), (30, 1), (41, 7)):
                case = (d, a, n0, rows)
                u = rng.standard_normal((rows, grid.J))
                u[:, ::5] = -0.0
                u[:, 1::7] = 5e-324 * rng.integers(-9, 9, (rows, 1))
                times = np.arange(n0, n0 + rows) * grid.dt
                ref = reference_values(d, grid, times, a, conv)
                first = (ref != 0.0).argmax(axis=1)
                moved += len(set(first.tolist())) > 1
                want_linf, want_l2 = np.empty(rows), np.empty(rows)
                solver._block_errors(u, ref, grid.dx, want_linf, want_l2)
                linf, l2 = np.full(rows, np.nan), np.full(rows, np.nan)
                measure(u, n0, linf, l2)
                assert np.array_equal(linf, want_linf), case
                assert np.array_equal(l2, want_l2), case
    assert moved >= 20  # blocks whose first nonzero column moves


def test_reference_values_take_times_in_any_order():
    grid = GridSpec(L=1.0, J=37, lam=0.7)
    times = np.random.default_rng(7).permutation(25) * grid.dt
    assert not np.all(np.diff(times) > 0)
    for d in LIVE_DATA:
        for conv in ("midpoint", "cell_average"):
            for a in (1.0, -0.5):
                got = reference_values(d, grid, times, a, conv)
                for n, t in enumerate(times):
                    want = reference_values(d, grid, t, a, conv)
                    assert _bits_equal(got[n], want), (d, conv, a, n)


# -- grouped Gauss nodes and the edges-once power average -------------------

GAUSS_DATA = {
    "bump": _bump(0.55, 0.3),
    "cos": CallableDatum(lambda x: np.cos(3.0 * x) + x * x),
    # -0.0 off its support: a sum started from the first product, not from
    # +0.0, would keep the sign there
    "signed_zero": CallableDatum(
        lambda x: np.where(x > 0.5, np.sin(4.0 * (x - 0.5)), -0.0)),
}


@pytest.mark.parametrize("entries, groups", [
    (1600, [16]), (500, [5, 5, 5, 1]), (100, [1] * 16),
], ids=["one_group", "remainder", "per_node"])
@pytest.mark.parametrize("name", sorted(GAUSS_DATA))
def test_grouped_gauss_nodes_match_one_call_per_node(monkeypatch, name,
                                                     entries, groups):
    monkeypatch.setattr(solver, "_BLOCK_ENTRIES", entries)
    datum = GAUSS_DATA[name]
    edges = np.linspace(-0.3, 1.2, 101)  # 100 cells
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    acc = np.zeros(100)
    for node, w in zip(*np.polynomial.legendre.leggauss(16)):
        acc += w * datum(mid + half * node)
    want = 0.5 * acc
    shapes = []

    def f(xs):
        shapes.append(xs.shape)
        return datum(xs)

    assert _bits_equal(solver._gauss_average(f, lo, hi), want)
    assert shapes == [(g, 100) for g in groups]
    got = solver._gauss_average(datum, lo.reshape(4, 25), hi.reshape(4, 25))
    assert _bits_equal(got, want.reshape(4, 25))


@pytest.mark.parametrize("datum", [
    PowerPlusDatum(0.5, 2.6), PowerPlusDatum(0.0, 3.0),
    PowerPlusDatum(-0.004, 0.5), PowerPlusDatum(0.37, 1.0),
], ids=repr)
def test_power_average_takes_each_edge_once(datum):
    # one default block at J = 2560, with cells straddling x = 0 and x = c
    grid = GridSpec(L=1.0, J=2560, lam=0.7)
    rows = solver._BLOCK_ENTRIES // (grid.J + LW.r + LW.p)
    assert rows >= 12
    times = (np.arange(rows) + 0.37) * grid.dt
    edges = grid.cell_edges
    straddled = set()
    for a in (1.0, 2.3, -0.5):
        shift = a * times[:, None]
        lo, hi = edges[:-1] - shift, edges[1:] - shift
        F = datum.antiderivative
        want = (F(np.maximum(hi, 0.0)) - F(np.maximum(lo, 0.0))) / (hi - lo)
        got = reference_values(datum, grid, times, a, "cell_average")
        assert _bits_equal(got, want), a
        straddled |= {point for point in (0.0, datum.c)
                      if np.any((lo < point) & (point < hi))}
    assert straddled == {0.0, datum.c}


def test_initial_cell_averages_are_the_datum_cell_averages():
    # the initial state takes its cell averages from the gated reference
    # values at t = 0, which skip the unreachable cells; they keep the bits
    # of the datum's own averages, signed zeros included
    signed_zero = CallableDatum(
        lambda x: np.where(x > 0.5, np.sin(4.0 * (x - 0.5)), -0.0),
        support_min=0.5)
    for J in (37, 160):
        grid = GridSpec(L=1.0, J=J, lam=LW.lam)
        edges = grid.cell_edges
        for d in LIVE_DATA + [signed_zero]:
            got = initial_state(d, grid, LW, "cell_average").interior
            assert _bits_equal(got, d.cell_average(edges[:-1], edges[1:])), \
                (J, d)


def test_halfline_errors_are_norms_against_reference_values():
    # at a != 1 the half-line levels are measured as the interval's are:
    # against the gated reference_values at t = n * dt, bit for bit
    st = make_builtin("lax_wendroff", 1.3, 0.7)
    grid = GridSpec(L=1.0, J=40, lam=st.lam)
    steps = 20
    times = np.arange(steps + 1) * grid.dt
    for d in (PowerPlusDatum(0.55, 2.5), _bump(0.6, 0.3)):
        for conv in ("midpoint", "cell_average"):
            res = run_halfline_outflow(d, grid, st, 1, steps,
                                       convention=conv)
            levels = [res.initial_interior]
            state = initial_state(d, grid, st, conv)
            for _ in range(steps):
                state = step(state, st, BoundarySpec(1))
                levels.append(state.interior)
            linf, l2 = _row_norms(
                np.array(levels),
                reference_values(d, grid, times, st.velocity_a, conv),
                grid.dx)
            assert np.array_equal(res.linf_history, linf), (d, conv)
            assert np.array_equal(res.l2_history, l2), (d, conv)


def test_datum_is_evaluated_only_on_live_columns():
    # midpoint samples are taken on a block's live columns: every point lies
    # at most a few cells left of the support shifted by the block's
    # smallest shift (a > 0: its first row).  The Gauss quadrature of cell
    # averages runs on each level's own live columns, the cells whose right
    # edge shifted back by a t_n lies right of x0 - dx: exactly 16 points
    # per such cell.
    x0 = 0.6
    calls = []
    bump = _bump(x0, 0.3)

    def fn(x):
        calls.append(np.array(x))
        return bump(x)
    d = CallableDatum(fn, support_min=x0)
    grid = GridSpec(L=1.0, J=160, lam=LW.lam)
    times = np.arange(30) * grid.dt

    def lowest_point(run, ndim):
        calls.clear()
        run()
        firsts = [x if x.ndim == 1 else x[0] for x in calls if x.ndim == ndim]
        assert firsts
        return min(float(np.min(x)) for x in firsts)

    def points(run):
        calls.clear()
        run()
        return sum(x.size for x in calls)

    def quadrature_points(t):
        # 16 nodes on each cell of each level whose right edge, shifted
        # back, lies right of x0 - dx
        shift = LW.velocity_a * np.asarray(t)[..., None]
        return 16 * int(np.sum(grid.cell_edges[1:] - shift > x0 - grid.dx))

    floor = x0 - 3 * grid.dx
    assert lowest_point(
        lambda: reference_values(d, grid, times, 1.0, "midpoint"), 2) >= floor
    assert lowest_point(
        lambda: reference_values(d, grid, times[7], 1.0, "midpoint"), 1) \
        >= floor
    # fewer than on the block's columns, those of its first row
    assert quadrature_points(times) < len(times) * quadrature_points(times[0])
    for t in (times, times[7], times[:1]):
        assert points(lambda: reference_values(d, grid, t, 1.0,
                                               "cell_average")) \
            == quadrature_points(t)
    # the runs' 2-D calls are their per-block midpoint samples (the initial
    # midpoint state is one 1-D call on the whole grid); initial cell
    # averages are the reference values at t = 0, on their live columns
    assert lowest_point(
        lambda: run_interval(d, grid, LW, BoundarySpec(1), 0.5,
                             convention="midpoint"), 2) >= floor
    run = run_interval(d, grid, LW, BoundarySpec(1), 0.5,
                       convention="cell_average")
    levels = np.arange(run.n_steps + 1) * grid.dt
    assert points(lambda: run_interval(d, grid, LW, BoundarySpec(1), 0.5,
                                       convention="cell_average")) \
        == quadrature_points(levels) + quadrature_points(0.0)
    full = run_interval(d, grid, LW, BoundarySpec(1), 0.5,
                        record="full_history", convention="midpoint")
    assert points(lambda: error_metrics(full, convention="cell_average")) \
        == quadrature_points(levels)
    full = run_interval(d, grid, LW, BoundarySpec(1), 0.5,
                        record="full_history", convention="cell_average")
    assert lowest_point(
        lambda: error_metrics(full, convention="midpoint"), 2) >= floor
    assert lowest_point(
        lambda: run_halfline_outflow(d, grid, LW, 1, 20,
                                     convention="midpoint"), 2) >= floor
    assert points(lambda: run_halfline_outflow(d, grid, LW, 1, 20,
                                               convention="cell_average")) \
        == quadrature_points(np.arange(21) * grid.dt) \
        + quadrature_points(0.0)


def test_nothing_is_skipped_when_coordinates_dwarf_the_cell_width():
    # shifted by -2**50 the coordinates are rounded to quarters, far coarser
    # than the cell width 1/37: a one-cell margin would skip cells whose
    # rounded points lie in the support, so the guard skips nothing, for the
    # block's first live column and for each level's quadrature alike
    big = 2.0 ** 50
    grid = GridSpec(L=1.0, J=37, lam=0.7)
    lower = big + 0.5
    d = CallableDatum(lambda x: np.where(x >= lower, 1.0 + (x - lower), 0.0),
                      support_min=lower)
    times = big - 0.25 * np.arange(3)  # each level reaches fewer cells
    _, edges = solver._grid_coordinates(grid.L, grid.J)
    assert solver._skip_edge(edges, -times[0], -times[-1], lower) is None
    # the cells of each level whose right edge, shifted back, lies a cell
    # width left of the support: a margin without the guard would skip them
    margin = grid.cell_edges[1:] + times[:, None] <= lower - grid.dx
    for conv in ("midpoint", "cell_average"):
        want = _full_width_reference(d, grid, -times[:, None], conv)
        assert (want * margin).any(axis=1).all()  # on every level
        got = reference_values(d, grid, times, -1.0, conv)
        assert _bits_equal(got, want), conv
        for n in range(len(times)):
            got = reference_values(d, grid, times[n], -1.0, conv)
            assert _bits_equal(got, want[n]), (conv, n)
