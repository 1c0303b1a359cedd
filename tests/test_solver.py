import math

import numpy as np
import pytest

from transportbc import (BoundarySpec, CallableDatum, FieldState, GridSpec,
                         PowerPlusDatum, SchemeStencil,
                         consistency_error_field, convergence_study,
                         error_metrics, exact_solution, fill_inflow_ghosts,
                         fill_outflow_ghosts, initial_state, make_builtin,
                         n_steps, reference_values, run_halfline_outflow,
                         run_interval, solver, stability_functional_ratio,
                         step)

from _reference import REFERENCE_SUP_ERRORS, naive_run

LW = make_builtin("lax_wendroff", 1.0, 0.7)


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
    """Closed-form average, or for a gated datum with c < 0 the 16-point
    Gauss average of the datum cut to zero at x <= 0."""
    if not gate or c >= 0.0:
        big = _plain_power(hi, c, alpha + 1.0) / (alpha + 1.0)
        small = _plain_power(lo, c, alpha + 1.0) / (alpha + 1.0)
        return (big - small) / (hi - lo)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    acc = np.zeros(np.shape(mid))
    for node, w in zip(nodes, weights):
        xs = mid + half * node
        acc = acc + w * np.where(xs > 0.0, _plain_power(xs, c, alpha), 0.0)
    return 0.5 * acc


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
                plain = _plain_power(xx - 0.3 * a, c, alpha)
                if c < 0.0:
                    plain = np.where(xx - 0.3 * a > 0.0, plain, 0.0)
                assert np.array_equal(exact_solution(d, xx, 0.3, a), plain,
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
            assert exact_solution(d, 1.0, 0.3, a) == float(
                _plain_power(1.0 - 0.3 * a, c, alpha))


def test_callable_datum_average_exact_on_polynomials():
    d = CallableDatum(lambda x: x ** 5 - 2.0 * x ** 2)
    lo, hi = 0.3, 0.9
    exact = (hi ** 6 - lo ** 6) / 6.0 - 2.0 * (hi ** 3 - lo ** 3) / 3.0
    assert d.cell_average(lo, hi) == pytest.approx(exact / (hi - lo),
                                                   rel=1e-14)


def test_exact_solution_zero_gate():
    # data extended by zero to the left of the origin: the shifted profile
    # must vanish wherever x - a t <= 0 even if the raw datum would not
    d = PowerPlusDatum(-0.2, 2.0)
    assert d(-0.1) > 0.0
    assert exact_solution(d, 0.05, 0.2, 1.0) == 0.0
    assert exact_solution(d, 0.5, 0.2, 1.0) == pytest.approx(0.5 ** 2)
    vals = exact_solution(d, np.array([0.1, 0.3]), 0.2, 1.0)
    assert vals[0] == 0.0 and vals[1] > 0.0


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
    assert n_steps(0.0, dt) == 0
    assert n_steps(-1.0, dt) == 0


def test_run_interval_record_modes():
    d = PowerPlusDatum(0.5, 3.0)
    grid = GridSpec(L=1.0, J=20, lam=0.7)
    bc = BoundarySpec(2)
    final = run_interval(d, grid, LW, bc, 0.1, record="final")
    assert final.linf_history is None and final.history is None
    sup = run_interval(d, grid, LW, bc, 0.1, record="sup_error")
    assert len(sup.linf_history) == sup.n_steps + 1
    assert sup.history is None
    full = run_interval(d, grid, LW, bc, 0.1, record="full_history")
    assert len(full.history) == full.n_steps + 1
    assert full.final_state.interior == pytest.approx(
        full.history[-1].interior)
    # all three agree on the final state
    assert final.final_state.interior == pytest.approx(
        sup.final_state.interior)
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
    assert rep_final.linf_final == pytest.approx(rep.linf_final)
    assert rep_final.linf_sup is None
    with pytest.raises(ValueError):
        error_metrics(final, convention="cell_average")

    full = run_interval(d, grid, LW, bc, 0.2, record="full_history")
    rep_avg = error_metrics(full, convention="cell_average")
    assert rep_avg.convention == "cell_average"
    assert rep_avg.linf_sup > 0.0


def test_error_metrics_honours_explicit_datum_and_velocity():
    # an explicit datum= or a= must be measured against, not answered with
    # the errors recorded for the run's own datum and velocity
    grid = GridSpec(L=1.0, J=40, lam=0.7)
    d = PowerPlusDatum(0.5, 3.0)
    other = PowerPlusDatum(0.2, 1.0)
    full = run_interval(d, grid, LW, BoundarySpec(1), 0.5,
                        record="full_history")
    own = error_metrics(full).linf_sup
    for kwargs, a, datum in (({"datum": other}, 1.0, other),
                             ({"a": 3.0}, 3.0, d)):
        got = error_metrics(full, **kwargs)
        errs = [float(np.max(np.abs(
            s.interior - reference_values(datum, grid, n * grid.dt, a,
                                          "midpoint"))))
                for n, s in enumerate(full.history)]
        assert got.linf_sup == max(errs) != own
        assert got.linf_final == errs[-1]
    # the run's own datum and velocity, passed explicitly, reuse the record
    assert error_metrics(full, datum=d, a=1.0).linf_sup == own
    sup = run_interval(d, grid, LW, BoundarySpec(1), 0.5, record="sup_error")
    for kwargs in ({"datum": other}, {"a": 3.0}):
        with pytest.raises(ValueError, match="full_history"):
            error_metrics(sup, **kwargs)


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
    assert half.final_state.interior == pytest.approx(
        full.final_state.interior, rel=0, abs=0)


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
    u_end = res.final_state.interior
    assert res.masses[-1] == pytest.approx(grid.dx * float(np.sum(u_end)))
    assert res.energies[-1] == pytest.approx(
        grid.dx * float(np.dot(u_end, u_end)))
    assert res.initial_interior == pytest.approx(
        d.cell_average(grid.cell_edges[:-1], grid.cell_edges[1:]))
    # errors measured against the ungated shifted datum
    t = 5 * grid.dt
    ref = d.cell_average(grid.cell_edges[:-1] - t, grid.cell_edges[1:] - t)
    assert res.linf_history[-1] == pytest.approx(
        float(np.max(np.abs(u_end - ref))))


def test_halfline_small_case_matches_scalar_oracle():
    d = _bump(x0=0.5, width=0.2)
    grid = GridSpec(L=1.0, J=16, lam=0.7)
    steps = 3
    res = run_halfline_outflow(d, grid, LW, 1, steps=steps)
    u0 = d.cell_average(grid.cell_edges[:-1], grid.cell_edges[1:])
    levels = naive_run(list(u0), list(LW.coeffs), 1, 1, 1, steps)
    assert res.final_state.interior == pytest.approx(levels[-1], rel=1e-12)


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
        l2[n] = math.sqrt(grid.dx * float(np.dot(err, err)))
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
        energies[n] = grid.dx * float(np.dot(u, u))
        shift = a * n * grid.dt
        if convention == "midpoint":
            ref = datum(grid.cell_midpoints - shift)
        else:
            ref = datum.cell_average(grid.cell_edges[:-1] - shift,
                                     grid.cell_edges[1:] - shift)
        err = u - ref
        linf[n] = np.max(np.abs(err))
        l2[n] = math.sqrt(grid.dx * float(np.dot(err, err)))
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
        assert np.array_equal(run.final_state.values, state.values), case
        assert run.final_state.time_index == state.time_index, case
        assert _same(run.linf_history, linf), case
        assert _same(run.l2_history, l2), case
        if history is None:
            assert run.history is None, case
            continue
        assert [s.time_index for s in run.history] == \
            [s.time_index for s in history], case
        assert np.array_equal([s.values for s in run.history],
                              [s.values for s in history]), case


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
                    assert np.array_equal(got[0].values, want[0].values), \
                        case
                    for g, w in zip(got[1:], want[1:]):
                        assert np.array_equal(g, w), case


def test_wide_block_norms_match_per_row_sums():
    # J = 2560 rows reach the wide BLAS kernels: the whole-block l2 norms,
    # masses and energies must equal per-row np.dot and np.sum bit for bit
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
    grid = GridSpec(L=1.0, J=160, lam=0.7)
    d = PowerPlusDatum(0.5, 2.6)

    def arrays():
        full = run_interval(d, grid, LW, BoundarySpec(2), 0.5,
                            record="full_history", convention="cell_average")
        rep = error_metrics(full, convention="midpoint")
        half = run_halfline_outflow(_bump(0.6, 0.3), grid, LW, 1, steps=60)
        return [full.final_state.values, full.linf_history, full.l2_history,
                np.array([s.values for s in full.history]),
                np.array([rep.linf_sup, rep.l2_sup, rep.linf_final]),
                half.final_state.values, half.traces, half.masses,
                half.energies, half.linf_history, half.l2_history]

    default = arrays()
    assert 160 * 115 > solver._BLOCK_ENTRIES  # the default splits the runs
    for entries in (1, 2 ** 30):
        monkeypatch.setattr(solver, "_BLOCK_ENTRIES", entries)
        for got, want in zip(arrays(), default):
            assert np.array_equal(got, want), entries


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


def _bits_equal(got, want):
    want = np.asarray(want, dtype=float)
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


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
            got = np.array([s.interior for s in run.history])
            assert _bits_equal(got, want), case
            assert _bits_equal(run.final_state.interior, want[-1]), case

            sources = rng.uniform(-0.5, 0.5, (steps + 1, p))
            sources[rng.random(sources.shape) < 0.3] = -0.0
            want = naive_run(list(u0), list(st.coeffs), r, p, kb, steps,
                             sources=sources.tolist())
            res = run_halfline_outflow(d, grid, st, kb, steps,
                                       sources=sources, convention="midpoint")
            assert _bits_equal(res.initial_interior, want[0]), case
            assert _bits_equal(res.final_state.interior, want[-1]), case
            tail = [level[J - r - kb:] for level in want]
            assert _bits_equal(res.traces[:, :r + kb], tail), case


def test_grid_rejects_non_finite_ratio():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(L=1.0, J=10, lam=bad)
