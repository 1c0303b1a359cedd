r"""Grids, initial data, time stepping, error metrics, and stability functionals.

The interval problem lives on cells ``1..J`` covering ``(0, L]`` with the
inflow ghosts pinned to zero and the outflow ghosts closed by order-``k_b``
extrapolation.  The half-line variant drops the inflow boundary: the window is
a truncated view of cells extending to the left, valid exactly (not
approximately) while the data's support cannot reach the artificial edge,
which is checked, never assumed.

Two state semantics are supported throughout and selected by ``convention``:

- ``"midpoint"``: cell values are point samples at cell midpoints, errors are
  measured against midpoint samples of the shifted datum;
- ``"cell_average"``: cell values are exact cell averages, errors are measured
  against exact averages of the shifted datum.

Both runs share one march over a block buffer of at most
``_BLOCK_ENTRIES`` cells, one row per time level.  Each new level is
written in place into the next row: its interior is one ``np.correlate``
of the row before with the stencil coefficients, its inflow ghosts stay
zero and its outflow ghosts are filled in the row.  ``np.correlate`` takes
each cell as one BLAS dot, which sums in order from zero only for short
vectors, so stencils wider than ``_CORRELATE_WIDTH`` keep an ordered loop
of multiply-adds; either way every level has the bits of that loop.  That
kernel, ``_next_level``, is the package's only stencil sum: the
transition-matrix assembly and the energy balance step with it too.  Each
full block is measured at once: one broadcast call evaluates the reference
values of all its time levels (one row per level), and the error norms,
masses, energies and boundary traces are computed one block at a time,
each in a few whole-block calls (the l2 norms and energies as one stacked
product of every row with itself).  Re-measuring a recorded history in
another convention goes through the same per-block evaluation.  The
arithmetic of every level and every norm is the one a loop of ``step``
calls would do, so the results do not depend on the block size.  The power
datum is raised to its power only on its support, where the base is
nonzero.

Reported error tables use the midpoint convention with the sup-over-steps
statistic; both statistics are always emitted so the choice stays visible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .boundary import (BoundarySpec, _fill_outflow, extrapolation_weights,
                       fill_inflow_ghosts, fill_outflow_ghosts)
from .scheme import SchemeStencil
from .state import FieldState

CONVENTIONS = ("midpoint", "cell_average")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Cells of one block of time levels measured together.  The block and the
# reference-value temporaries built from it add to the peak memory of a run,
# so the cap stays small.
_BLOCK_ENTRIES = 2 ** 14

# Widest stencil applied with ``np.correlate``.  Up to this width its BLAS
# dot matched the ordered loop bit for bit, signed zeros included, in every
# random case tried (numpy 2.4, OpenBLAS 0.3.31); from width 12 on it
# differed in most of them, since longer dots are summed in another order.
# ``tests/test_solver.py::test_march_is_bit_exact_against_scalar_loop``
# checks both sides of the limit.
_CORRELATE_WIDTH = 11


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of ``J`` cells on ``(0, L]`` with ``dt = lam * dx``."""

    L: float
    J: int
    lam: float

    def __post_init__(self) -> None:
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError("interval length must be positive and finite")
        if self.J < 1:
            raise ValueError("cell count must be positive")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("time-step ratio must be positive and finite")

    @property
    def dx(self) -> float:
        return self.L / self.J

    @property
    def dt(self) -> float:
        return self.lam * self.dx

    @property
    def cell_edges(self) -> np.ndarray:
        """Edges ``x_0 .. x_J`` (length J+1)."""
        return self.dx * np.arange(self.J + 1)

    @property
    def cell_midpoints(self) -> np.ndarray:
        """Midpoints of cells ``1..J``."""
        return self.dx * (np.arange(1, self.J + 1) - 0.5)


class PowerPlusDatum:
    """The one-sided power profile ``((x - c)^+)^alpha``.

    Vanishes for ``x <= c``; its antiderivative is closed-form, so cell
    averages carry no quadrature error.  Both are raised to their power only
    on the support, where the base is nonzero: elsewhere they are zero
    without a call to ``pow``, which is slow on a zero base.
    """

    def __init__(self, c: float, alpha: float) -> None:
        c, alpha = float(c), float(alpha)
        if not math.isfinite(c):
            raise ValueError("datum offset c must be finite")
        if not (alpha > 0 and math.isfinite(alpha)):
            raise ValueError("power alpha must be positive and finite")
        self.c = c
        self.alpha = alpha

    def _plus_power(self, x, e: float):
        """``max(x - c, 0) ** e``, with the power taken only where the base
        is nonzero (a NaN base stays NaN); a scalar for a scalar ``x``."""
        xx = np.maximum(np.asarray(x, dtype=float) - self.c, 0.0)
        out = np.zeros(xx.shape)
        np.power(xx, e, out=out, where=xx != 0.0)
        return out if out.ndim else out[()]

    def __call__(self, x):
        return self._plus_power(x, self.alpha)

    def antiderivative(self, x):
        return self._plus_power(x, self.alpha + 1.0) / (self.alpha + 1.0)

    def cell_average(self, xl, xr):
        xl = np.asarray(xl, dtype=float)
        xr = np.asarray(xr, dtype=float)
        return (self.antiderivative(xr) - self.antiderivative(xl)) / (xr - xl)

    @property
    def support_min(self) -> float:
        return self.c

    def __repr__(self) -> str:
        return f"PowerPlusDatum(c={self.c}, alpha={self.alpha})"


class CallableDatum:
    """Wrap an arbitrary vectorized profile ``fn``.

    ``fn`` must be elementwise: the solvers call it on 2-D arrays (one row
    per time level) and expect an array of the same shape back.  Cell
    averages fall back to 16-point Gauss-Legendre quadrature per cell.
    ``support_min`` (leftmost point of the support) is needed by the
    half-line driver to validate window padding.
    """

    def __init__(self, fn: Callable, support_min: float | None = None) -> None:
        self.fn = fn
        self._support_min = support_min

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def cell_average(self, xl, xr):
        xl = np.asarray(xl, dtype=float)
        xr = np.asarray(xr, dtype=float)
        mid = 0.5 * (xl + xr)
        half = 0.5 * (xr - xl)
        acc = np.zeros(mid.shape)
        term = np.empty(mid.shape)  # fn may return an array it keeps
        for node, w in zip(_GL_NODES, _GL_WEIGHTS):
            acc += np.multiply(w, self(mid + half * node), out=term)
        return 0.5 * acc

    @property
    def support_min(self) -> float | None:
        return self._support_min


def exact_solution(datum, x, t: float, a: float):
    """Shifted datum ``u0(x - a t)``, zero wherever ``x - a t <= 0``.

    The zero gate encodes the convention that interval data live on the
    positive axis and are extended by zero to the left.  A power datum with
    ``c >= 0`` already vanishes there, so it is evaluated ungated.
    """
    xs = np.asarray(x, dtype=float) - a * t
    if isinstance(datum, PowerPlusDatum) and datum.c >= 0.0:
        vals = datum(xs)
    else:
        vals = np.where(xs > 0.0, datum(xs), 0.0)
    if np.isscalar(x):
        return float(vals)
    return vals


def _gated_cell_averages(datum, grid: GridSpec, shift) -> np.ndarray:
    """Exact averages of the zero-extended shifted datum over cells 1..J
    (one row per shift when ``shift`` is a column of shifts)."""
    lo = grid.cell_edges[:-1] - shift
    hi = grid.cell_edges[1:] - shift
    if isinstance(datum, PowerPlusDatum) and datum.c >= 0.0:
        return datum.cell_average(lo, hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = np.zeros(lo.shape)
    xs = np.empty(lo.shape)
    for node, w in zip(_GL_NODES, _GL_WEIGHTS):
        np.multiply(half, node, out=xs)
        xs += mid
        term = np.where(xs > 0.0, datum(xs), 0.0)
        term *= w
        acc += term
    return 0.5 * acc


def reference_values(datum, grid: GridSpec, t, a: float,
                     convention: str) -> np.ndarray:
    """Per-cell reference (exact-solution) values in the given convention.

    ``t`` is one time, giving a length-``J`` array, or a 1-D array of
    times, giving one row per time.
    """
    if np.ndim(t) == 1:
        t = np.asarray(t, dtype=float)[:, None]
    if convention == "midpoint":
        return exact_solution(datum, grid.cell_midpoints, t, a)
    if convention == "cell_average":
        return _gated_cell_averages(datum, grid, a * t)
    raise ValueError(f"unknown convention {convention!r}")


def initial_state(datum, grid: GridSpec, stencil: SchemeStencil,
                  convention: str = "midpoint") -> FieldState:
    """Initial state (ghosts zero) holding midpoint samples of the datum
    (``"midpoint"``) or its exact cell averages (``"cell_average"``)."""
    state = FieldState(J=grid.J, r=stencil.r, p=stencil.p, time_index=0)
    if convention == "midpoint":
        state.interior[:] = datum(grid.cell_midpoints)
    elif convention == "cell_average":
        state.interior[:] = datum.cell_average(grid.cell_edges[:-1],
                                               grid.cell_edges[1:])
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return state


def _next_level(coeffs: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Write the stencil ``coeffs`` applied to the filled level ``v`` into
    ``out``: ``out[k] = sum_i coeffs[i] v[k + i]``, summed in order from
    zero.  ``out`` has ``len(v) - len(coeffs) + 1`` cells and must not
    overlap ``v``.

    For a 1-D level of up to ``_CORRELATE_WIDTH`` coefficients this is one
    ``np.correlate``, whose per-cell BLAS dot sums short vectors in exactly
    that order; wider stencils and 2-D levels (one level per column, cells
    along axis 0) are applied by the loop itself, one multiply-add per
    offset.
    """
    if v.ndim == 1 and len(coeffs) <= _CORRELATE_WIDTH:
        out[:] = np.correlate(v, coeffs, "valid")
        return
    m = len(out)
    out[:] = 0.0
    for i, c in enumerate(coeffs):
        out += c * v[i:i + m]


def step(state: FieldState, stencil: SchemeStencil, bc: BoundarySpec,
         sources: Sequence[float] | None = None) -> FieldState:
    """One explicit update: fill ghosts on ``state``, then apply the stencil.

    The input state's ghost slots are refreshed in place as a side effect;
    the interior is untouched and a new state is returned.
    """
    if state.J < max(1, bc.outflow_order_kb):
        raise ValueError("grid too small for the requested boundary closure")
    fill_inflow_ghosts(state)
    fill_outflow_ghosts(state, bc.outflow_order_kb, sources)
    new = FieldState(J=state.J, r=state.r, p=state.p,
                     time_index=state.time_index + 1)
    _next_level(stencil.coeff_array, state.values, new.interior)
    return new


def _march(v: np.ndarray, stencil: SchemeStencil, kb: int, N: int,
           observe: Callable[[int, np.ndarray], None] | None = None,
           sources: np.ndarray | None = None,
           fill_final: bool = False) -> np.ndarray:
    """Advance the level array ``v`` (cells ``1-r..J+p``, zero inflow
    ghosts) by ``N`` steps and return the last level.

    The levels are the rows of one zeroed block buffer of at least two
    rows; each new interior is written by ``_next_level`` straight into the
    row after the current one, wrapping to the first row when the block is
    full (and alternating between two rows when nothing observes them), so
    the inflow ghosts stay zero and no step allocates or copies a level.
    Before each step the outflow ghosts of the current row are filled, from
    ``sources[n]`` at level ``n`` when given; the last level's ghosts are
    filled only with ``fill_final`` and are zero otherwise.
    ``observe(n0, levels)`` receives the rows of levels ``n0, n0+1, ...``
    (ghosts as filled) in blocks of at most ``_BLOCK_ENTRIES`` cells,
    before those rows are overwritten.
    """
    r, p = stencil.r, stencil.p
    end = len(v) - p  # array position of the first outflow ghost
    if N > 0 and end - r < kb:
        raise ValueError("grid too small for the requested boundary closure")
    weights = extrapolation_weights(kb)
    coeffs = stencil.coeff_array
    rows = 2
    if observe is not None:
        rows = max(2, min(N + 1, _BLOCK_ENTRIES // len(v)))
    block = np.zeros((rows, len(v)))
    block[0] = v
    k = n0 = 0  # row of level n, first level not yet observed
    for n in range(N + 1):
        level = block[k]
        if n < N or fill_final:
            _fill_outflow(level, end, weights,
                          sources[n] if sources is not None else None)
        else:
            level[end:] = 0.0
        if observe is not None and (k + 1 == rows or n == N):
            observe(n0, block[:k + 1])
            n0 = n + 1
        k = (k + 1) % rows
        if n < N:
            _next_level(coeffs, level, block[k, r:end])
    return level.copy()


def _row_dots(a: np.ndarray) -> np.ndarray:
    """``np.dot(row, row)`` of every row of ``a``, as one stacked product
    (the same BLAS dot per row, so the same bits)."""
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def _block_errors(u: np.ndarray, ref: np.ndarray, dx: float,
                  linf: np.ndarray, l2: np.ndarray) -> None:
    """l-infinity and l2 errors of the rows of ``u`` against ``ref``,
    written into ``linf`` and ``l2``; ``ref`` is overwritten."""
    err = np.subtract(u, ref, out=ref)
    l2[:] = np.sqrt(dx * _row_dots(err))
    linf[:] = np.max(np.abs(err, out=err), axis=1)


def n_steps(T: float, dt: float) -> int:
    """Smallest n with ``n * dt >= T`` (tolerating 1e-9 relative float slop)."""
    if not math.isfinite(T):
        raise ValueError("final time T must be finite")
    if T <= 0:
        return 0
    return max(0, math.ceil(T / dt - 1e-9))


@dataclass
class RunResult:
    """Outcome of an interval run; history fields depend on the record mode."""

    grid: GridSpec
    stencil: SchemeStencil
    bc: BoundarySpec
    datum: object
    convention: str
    record: str
    n_steps: int
    t_final: float
    final_state: FieldState
    linf_history: np.ndarray | None = None
    l2_history: np.ndarray | None = None
    history: list[FieldState] | None = None


def run_interval(datum, grid: GridSpec, stencil: SchemeStencil,
                 bc: BoundarySpec, T: float, record: str = "sup_error",
                 convention: str = "midpoint") -> RunResult:
    """March the interval scheme to the first time level at or past ``T``.

    ``record`` selects what is retained: ``"final"`` keeps just the last
    state, ``"sup_error"`` additionally tracks per-step error norms against
    the exact solution, ``"full_history"`` keeps every state (and the error
    track).
    """
    if record not in ("final", "sup_error", "full_history"):
        raise ValueError(f"unknown record mode {record!r}")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    N = n_steps(T, grid.dt)
    state = initial_state(datum, grid, stencil, convention)
    r, J = stencil.r, grid.J

    track = record != "final"
    linf_hist = np.zeros(N + 1) if track else None
    l2_hist = np.zeros(N + 1) if track else None
    history = [] if record == "full_history" else None

    def observe(n0: int, block: np.ndarray) -> None:
        n1 = n0 + len(block)
        u = block[:, r:r + J]
        _measure_levels(u, n0, datum, grid, stencil.velocity_a, convention,
                        linf_hist[n0:n1], l2_hist[n0:n1])
        if history is not None:
            for n, row in enumerate(u, n0):
                level = FieldState(J=J, r=r, p=stencil.p, time_index=n)
                level.interior[:] = row
                history.append(level)

    final = _march(state.values, stencil, bc.outflow_order_kb, N,
                   observe if track else None)
    return RunResult(grid=grid, stencil=stencil, bc=bc, datum=datum,
                     convention=convention, record=record, n_steps=N,
                     t_final=N * grid.dt,
                     final_state=FieldState(J=J, r=r, p=stencil.p,
                                            time_index=N, values=final),
                     linf_history=linf_hist, l2_history=l2_hist,
                     history=history)


def _measure_levels(u: np.ndarray, n0: int, datum, grid: GridSpec, a: float,
                    convention: str, linf: np.ndarray,
                    l2: np.ndarray) -> None:
    """Errors of the interval levels ``n0, n0+1, ...`` (rows of ``u``)
    against one broadcast evaluation of their reference values."""
    times = np.arange(n0, n0 + len(u)) * grid.dt
    ref = reference_values(datum, grid, times, a, convention)
    _block_errors(u, ref, grid.dx, linf, l2)


@dataclass(frozen=True)
class ErrorReport:
    convention: str
    linf_final: float
    l2_final: float
    linf_sup: float | None
    l2_sup: float | None
    sup_at_step: int | None


def error_metrics(run: RunResult, datum=None, a: float | None = None,
                  convention: str | None = None) -> ErrorReport:
    """Error norms of a recorded run.

    Final-step norms are always available.  Sup-over-steps norms need a run
    recorded with ``sup_error`` or ``full_history``; asking for a different
    convention than the run's needs ``full_history`` (states are re-measured).
    """
    datum = run.datum if datum is None else datum
    a = run.stencil.velocity_a if a is None else a
    convention = run.convention if convention is None else convention
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    grid = run.grid
    as_recorded = (datum is run.datum and a == run.stencil.velocity_a
                   and convention == run.convention)

    if as_recorded and run.linf_history is not None:
        linf_hist, l2_hist = run.linf_history, run.l2_history
    elif run.history is not None:
        linf_hist = np.zeros(run.n_steps + 1)
        l2_hist = np.zeros(run.n_steps + 1)
        rows = max(1, _BLOCK_ENTRIES // grid.J)
        for n0 in range(0, run.n_steps + 1, rows):
            n1 = min(n0 + rows, run.n_steps + 1)
            u = np.array([s.interior for s in run.history[n0:n1]])
            _measure_levels(u, n0, datum, grid, a, convention,
                            linf_hist[n0:n1], l2_hist[n0:n1])
    elif run.record == "final" and convention == run.convention:
        ref = reference_values(datum, grid, run.t_final, a, convention)
        err = run.final_state.interior - ref
        return ErrorReport(convention=convention,
                           linf_final=float(np.max(np.abs(err))),
                           l2_final=math.sqrt(grid.dx * float(np.dot(err, err))),
                           linf_sup=None, l2_sup=None, sup_at_step=None)
    else:
        raise ValueError(
            "run did not record enough history to measure it against another "
            f"datum, velocity or convention {convention!r}; rerun with "
            "record='full_history'"
        )
    k = int(np.argmax(linf_hist))
    return ErrorReport(convention=convention,
                       linf_final=float(linf_hist[-1]),
                       l2_final=float(l2_hist[-1]),
                       linf_sup=float(linf_hist[k]),
                       l2_sup=float(np.max(l2_hist)),
                       sup_at_step=k)


@dataclass(frozen=True)
class ConvergenceRow:
    J: int
    dx: float
    error_final: float
    error_sup: float
    observed_order: float  # nan on the first row


def convergence_study(datum, stencil: SchemeStencil, kb: int,
                      J_list: Sequence[int], T: float, L: float = 1.0,
                      convention: str = "midpoint") -> list[ConvergenceRow]:
    """l-infinity errors under grid refinement plus successive observed orders.

    The order between consecutive rows is measured on the sup-over-steps
    error (the statistic the reference tables use) and reported on the finer
    row; ``error_final`` rides along for comparison.
    """
    if list(J_list) != sorted(set(J_list)):
        raise ValueError("J_list must be strictly increasing")
    bc = BoundarySpec(outflow_order_kb=kb)
    rows: list[ConvergenceRow] = []
    prev: tuple[int, float] | None = None
    for J in J_list:
        grid = GridSpec(L=L, J=J, lam=stencil.lam)
        run = run_interval(datum, grid, stencil, bc, T,
                           record="sup_error", convention=convention)
        rep = error_metrics(run)
        order = float("nan")
        if prev is not None and rep.linf_sup > 0 and prev[1] > 0:
            order = math.log(prev[1] / rep.linf_sup) / math.log(J / prev[0])
        rows.append(ConvergenceRow(J=J, dx=grid.dx,
                                   error_final=rep.linf_final,
                                   error_sup=rep.linf_sup,
                                   observed_order=order))
        prev = (J, rep.linf_sup)
    return rows


def consistency_error_field(datum, grid: GridSpec, stencil: SchemeStencil,
                            n: int, window: tuple[int, int]) -> np.ndarray:
    """Local truncation error against exact cell averages on the whole line.

    ``e_j^n = -(w_j^n - sum_l a_l w_{j+l}^{n-1}) / dt`` where ``w_j^n`` is the
    exact cell average of the datum shifted by ``a t^n``; the datum must be
    globally defined (no zero gate is applied).  Returns ``e_j^n`` for
    ``j = window[0] .. window[1]`` inclusive.
    """
    if n < 1:
        raise ValueError("time index must be at least 1")
    j_lo, j_hi = window
    if j_hi < j_lo:
        raise ValueError("empty index window")
    a = stencil.velocity_a
    dx, dt = grid.dx, grid.dt

    def averages(j0: int, j1: int, t: float) -> np.ndarray:
        edges = dx * np.arange(j0 - 1, j1 + 1)
        return datum.cell_average(edges[:-1] - a * t, edges[1:] - a * t)

    w_now = averages(j_lo, j_hi, n * dt)
    w_prev = averages(j_lo - stencil.r, j_hi + stencil.p, (n - 1) * dt)
    acc = np.empty(j_hi - j_lo + 1)
    _next_level(stencil.coeff_array, w_prev, acc)
    return -(w_now - acc) / dt


@dataclass
class HalflineResult:
    """Truncated half-line run with boundary traces and balance diagnostics.

    ``traces[n]`` holds cells ``J+1-r-kb .. J+p`` at level n (ghosts filled
    with that level's sources); ``masses``/``energies`` are ``dx * sum`` and
    ``dx * sum of squares`` over the window interior.
    """

    grid: GridSpec
    stencil: SchemeStencil
    kb: int
    steps: int
    convention: str
    final_state: FieldState
    initial_interior: np.ndarray
    traces: np.ndarray
    masses: np.ndarray
    energies: np.ndarray
    linf_history: np.ndarray
    l2_history: np.ndarray
    sources: np.ndarray | None


def run_halfline_outflow(datum, grid: GridSpec, stencil: SchemeStencil,
                         kb: int, steps: int,
                         sources: np.ndarray | None = None,
                         convention: str = "cell_average") -> HalflineResult:
    """Evolve the outflow problem on a window of a leftward-unbounded line.

    The window is cells ``1..J`` of ``grid``; the left edge is artificial, so
    the run refuses data whose support could propagate within ``r`` cells of
    it during ``steps`` steps (support spreads left by ``p`` cells per step).
    ``sources`` has shape ``(steps+1, p)``: row n supplies ``g_{J+1..J+p}``
    for the level-n ghost fill (row ``steps`` only feeds the final trace).
    Errors are measured against the ungated shifted datum.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    r, p = stencil.r, stencil.p
    if grid.J < r + kb:
        raise ValueError(f"window of {grid.J} cells cannot expose the "
                         f"boundary trace (need J >= r + kb = {r + kb})")
    smin = datum.support_min
    if smin is None:
        raise ValueError("half-line runs need the datum's support_min")
    j_min = math.floor(smin / grid.dx + 1e-12) + 1
    reach = j_min - steps * p
    if reach < 1 + r:
        raise ValueError(
            "window too small: support can propagate to within "
            f"{max(0, reach - 1)} cells of the artificial edge; pad the "
            f"window by at least {1 + r - reach} more cells"
        )
    if sources is not None:
        sources = np.asarray(sources, dtype=float)
        if sources.shape != (steps + 1, p):
            raise ValueError(f"sources must have shape ({steps + 1}, {p})")

    a, dx, dt = stencil.velocity_a, grid.dx, grid.dt
    state = initial_state(datum, grid, stencil, convention)
    f0 = state.interior.copy()
    mids, edges = grid.cell_midpoints, grid.cell_edges

    lo = grid.J - kb  # array position of cell J+1-r-kb
    n_trace = r + kb + p
    traces = np.zeros((steps + 1, n_trace))
    masses = np.zeros(steps + 1)
    energies = np.zeros(steps + 1)
    linf_hist = np.zeros(steps + 1)
    l2_hist = np.zeros(steps + 1)

    def observe(n0: int, block: np.ndarray) -> None:
        n1 = n0 + len(block)
        traces[n0:n1] = block[:, lo:lo + n_trace]
        u = block[:, r:r + grid.J]
        masses[n0:n1] = dx * np.sum(u, axis=1)
        energies[n0:n1] = dx * _row_dots(u)
        shift = ((a * np.arange(n0, n1)) * dt)[:, None]
        if convention == "midpoint":
            ref = datum(mids - shift)
        else:
            ref = datum.cell_average(edges[:-1] - shift, edges[1:] - shift)
        if not isinstance(datum, PowerPlusDatum):
            ref = np.array(ref)  # it may be an array the datum keeps
        _block_errors(u, ref, dx, linf_hist[n0:n1], l2_hist[n0:n1])

    final = _march(state.values, stencil, kb, steps, observe,
                   sources=sources, fill_final=True)
    return HalflineResult(grid=grid, stencil=stencil, kb=kb, steps=steps,
                          convention=convention,
                          final_state=FieldState(J=grid.J, r=r, p=p,
                                                 time_index=steps,
                                                 values=final),
                          initial_interior=f0, traces=traces, masses=masses,
                          energies=energies, linf_history=linf_hist,
                          l2_history=l2_hist, sources=sources)


@dataclass(frozen=True)
class FunctionalRatio:
    lhs: float
    rhs: float
    ratio: float


def stability_functional_ratio(run: HalflineResult,
                               gamma: float) -> FunctionalRatio:
    """Empirical constant of the weighted stability estimate.

    lhs = sup_n exp(-2 gamma n dt) * dx * sum_j u_j^2
          + sum_n dt exp(-2 gamma n dt) * sum_{l=1-r-kb..p} u_{J+l}^2,
    rhs = dx * sum_j f_j^2
          + sum_n dt exp(-2 gamma n dt) * sum_{l=1..p} g_{J+l}^2,
    both over the computed horizon n = 0..steps.  The ratio lhs/rhs is the
    empirical stability constant; it is 0 when both sides vanish and inf when
    only the right side does.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("gamma must be positive and finite")
    dt = run.grid.dt
    n = np.arange(run.steps + 1)
    w = np.exp(-2.0 * gamma * n * dt)
    lhs = float(np.max(w * run.energies))
    lhs += dt * float(np.sum(w * np.sum(run.traces ** 2, axis=1)))
    rhs = run.grid.dx * float(np.dot(run.initial_interior, run.initial_interior))
    if run.sources is not None and run.stencil.p > 0:
        rhs += dt * float(np.sum(w * np.sum(run.sources ** 2, axis=1)))
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    else:
        ratio = lhs / rhs
    return FunctionalRatio(lhs=lhs, rhs=rhs, ratio=ratio)
