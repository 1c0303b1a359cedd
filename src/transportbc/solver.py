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

Both runs, and the transition matrix, share one march over a block
buffer of at most ``_BLOCK_ENTRIES`` entries, one row per time level.
The march lays the initial interior between its ghosts and builds its row
views and outflow taps once, so a step is one ghost fill from the taps and
one ``np.correlate`` of the level with the stencil, written straight into
the next row: numpy's own loop, summed in order from zero, for up to
``_CORRELATE_WIDTH`` coefficients.  Wider stencils and 2-D levels (one
level per column, as the matrix marches the identity) keep the ordered
loop of ``_next_level``, the package's only stencil sum (the energy
balance steps with it too); either way every level has its bits.

Each full block is measured at once by the run's meter, built once per
run around the evaluator of ``reference_values``, which binds the grid
coordinates, the floor of ``support_min`` and the branch for the datum
and the convention; a block computes only its shifts, its first live
column, the datum there and its error norms.  A reference value is the
datum shifted by ``a t`` and cut to zero at ``x <= 0``, the exact
solution of the interval problem.  Left of the first cell the shifted
support can reach (with a margin of one cell) it is exactly zero, so it
is not evaluated and the error there is the level itself.  Gauss cell
averages (16 datum evaluations per cell) also skip each level's own
unreachable cells and call the datum once per group of nodes; a power
cell average takes the antiderivative once per shifted edge.  The norms,
masses, energies and traces take a few whole-block calls each, with the
arithmetic of a loop of ``step`` calls; the sums of squares are numpy's
own einsum loop (``_sum_squares``), not BLAS, so no result depends on
the block size or on the BLAS kernel the machine picks.  Run results are
plain arrays of level interiors; a ``FieldState`` is built only by
``initial_state`` and ``step``.

Reported error tables use the midpoint convention with the sup-over-steps
statistic; both statistics are always emitted so the choice stays visible.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .boundary import (BoundarySpec, _fill_outflow, _outflow_taps,
                       extrapolation_weights, fill_inflow_ghosts,
                       fill_outflow_ghosts)
from .scheme import SchemeStencil
from .state import FieldState, _integer

CONVENTIONS = ("midpoint", "cell_average")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Cells of one block of time levels measured together, and the most entries
# in one stack of Gauss nodes.  The block and the reference-value
# temporaries built from it add to the peak memory of a run.  On the
# ``refine`` benchmark ``2**15`` alone took about 9% off the wall time of
# ``2**14`` for 1.8% more peak memory, which fewer temporaries in
# ``reference_values`` bring back to about 1%; ``2**16`` was no faster and
# cost 4.3% more memory.
_BLOCK_ENTRIES = 2 ** 15

# Widest stencil applied with ``np.correlate``.  Up to this width numpy
# runs its own small-kernel loop (on a 2,572-cell level 3.6 us at width 3,
# below one BLAS call per cell, and 9.6 us at 11; numpy 2.4.6, a 2-vCPU
# Xeon), which matched the ordered loop bit for bit, signed zeros included,
# in every random case tried; from 12 on it calls BLAS ``ddot`` per cell
# (39 us at 12), summed in another order.  So no BLAS runs on the march's
# path, and its bits held under the default OpenBLAS kernel,
# ``OPENBLAS_CORETYPE=Haswell`` and ``Prescott``, and no AVX-512 loops.
# ``tests/test_solver.py::test_march_is_bit_exact_against_scalar_loop``
# checks both sides of the limit, and ``tests/test_kernels.py`` reruns it
# under those kernels.
_CORRELATE_WIDTH = 11

# Most cell updates, ``N * (J + r + p)``, that one march may take, a level
# of fewer than ``_STEP_CELLS`` cells counted as that many: a step costs
# about two microseconds of Python however short its level, a cell about a
# nanosecond.  So the cap is a march of about two minutes; the largest run
# of the ``refine`` benchmark takes 4.7e6 cell updates.
_MAX_CELL_UPDATES = 2 ** 37
_STEP_CELLS = 2 ** 11

# Most cells, ``J + r + p``, in one level of a run (128 MB).  A run holds
# a few arrays of a level each (the initial state, two rows of the march,
# the grid coordinates and the reference values with their temporaries),
# so the cap keeps it to about a gigabyte, a level of zero steps too; the
# largest runs of the tests and the benchmark have J = 2560.
_MAX_LEVEL_CELLS = 2 ** 24


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of ``J`` cells on ``(0, L]`` with ``dt = lam * dx``."""

    L: float
    J: int
    lam: float

    def __post_init__(self) -> None:
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError("interval length must be positive and finite")
        J = _integer(self.J, "cell count J")
        if J < 1:
            raise ValueError("cell count must be positive")
        object.__setattr__(self, "J", J)
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("time-step ratio must be positive and finite")
        if not self.L / J >= sys.float_info.min:
            # a subnormal or zero width has no relative precision left,
            # and a cell average would divide by it
            raise ValueError(f"cell width L / J = {self.L / J!r} is too "
                             "small: not a positive normal float")
        if not math.isfinite(self.dt):
            raise ValueError("time step dt = lambda * L / J overflows "
                             f"(lambda = {self.lam!r})")

    @property
    def dx(self) -> float:
        return self.L / self.J

    @property
    def dt(self) -> float:
        return self.lam * self.dx

    @property
    def cell_edges(self) -> np.ndarray:
        """Edges ``x_0 .. x_J`` (length J+1)."""
        return _grid_coordinates(self.L, self.J)[1].copy()

    @property
    def cell_midpoints(self) -> np.ndarray:
        """Midpoints of cells ``1..J``."""
        return _grid_coordinates(self.L, self.J)[0].copy()


@lru_cache(maxsize=4)
def _grid_coordinates(L: float, J: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only midpoints and edges of the grid of ``J`` cells on
    ``(0, L]``, built once per grid (the last few grids are kept)."""
    dx = L / J
    mids = dx * (np.arange(1, J + 1) - 0.5)
    edges = dx * np.arange(J + 1)
    mids.flags.writeable = edges.flags.writeable = False
    return mids, edges


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

    def _plus_power(self, x, e: float, out: np.ndarray | None = None):
        """``max(x - c, 0) ** e``, with the power taken only where the base
        is nonzero (a NaN base stays NaN), written into ``out`` (which may
        be ``x``) or a new array; a scalar for a scalar ``x``."""
        xx = np.subtract(x, self.c,
                         out=np.empty(np.shape(x)) if out is None else out)
        np.maximum(xx, 0.0, out=xx)
        np.power(xx, e, out=xx, where=xx != 0.0)
        return xx if xx.ndim else xx[()]

    def __call__(self, x):
        return self._plus_power(x, self.alpha)

    def antiderivative(self, x):
        F = self._plus_power(x, self.alpha + 1.0)
        F /= self.alpha + 1.0  # in place on an array
        return F

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

    ``fn`` must be elementwise: the solvers call it on arrays of any shape
    and expect an array of the same shape back.  Cell averages fall back
    to 16-point Gauss-Legendre quadrature per cell, which calls ``fn`` on
    stacked ``(g, n)`` arrays: the points of ``g`` nodes in ``n`` cells,
    one row per node.
    ``support_min`` (leftmost point of the support, finite) is needed by
    the half-line driver to validate window padding.  When it is given,
    ``fn`` must vanish left of it: the half-line window check relies on
    that, and reference values, a run's initial cell averages among them,
    are not evaluated on cells the shifted support cannot reach (they are
    taken as ``0.0``).
    """

    def __init__(self, fn: Callable, support_min: float | None = None) -> None:
        if support_min is not None:
            support_min = float(support_min)
            if not math.isfinite(support_min):
                raise ValueError("support_min must be finite")
        self.fn = fn
        self._support_min = support_min

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def cell_average(self, xl, xr):
        return _gauss_average(self, np.asarray(xl, dtype=float),
                              np.asarray(xr, dtype=float))

    @property
    def support_min(self) -> float | None:
        return self._support_min


def _gauss_average(f, lo, hi) -> np.ndarray:
    """16-point Gauss-Legendre average of ``f`` over each cell
    ``(lo, hi)``, summed in node order from zero.

    ``f`` is called once per group of ``g`` nodes, on the ``(g,) +
    lo.shape`` stack of their points, with ``g`` as many nodes as fit in
    ``_BLOCK_ENTRIES`` entries (at least one), which bounds the
    temporaries of ``f``.  For an elementwise ``f`` the sums keep the bits
    of one call per node.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = np.zeros(mid.shape)
    term = np.empty(mid.shape)  # f may return an array it keeps
    g = max(1, _BLOCK_ENTRIES // max(1, mid.size))
    for i in range(0, len(_GL_NODES), g):
        nodes = _GL_NODES[i:i + g].reshape((-1,) + (1,) * mid.ndim)
        xs = mid + half * nodes
        vals = np.broadcast_to(f(xs), xs.shape)
        for w, v in zip(_GL_WEIGHTS[i:i + g], vals):
            acc += np.multiply(w, v, out=term)
    return 0.5 * acc


def _skip_edge(edges: np.ndarray, least: float, most: float,
               lower: float) -> float | None:
    """The shifted right edge at or left of which a cell is skipped, for
    levels shifted by ``least`` to ``most``, of a datum that vanishes left
    of ``lower``; ``None`` when nothing may be skipped.  The edge is one
    cell width left of ``lower``.  The rounding of the shifted midpoints,
    edges and quadrature nodes is a few ulps of the largest coordinate, far
    below that margin whenever ``2**-40`` of the coordinates is below the
    cell width; otherwise nothing is skipped."""
    dx = float(edges[1])
    scale = abs(lower) + max(-least, most) + float(edges[-1])
    if not scale * 2.0 ** -40 < dx:  # also refuses NaN and inf
        return None
    return lower - dx


def _reference(datum, grid: GridSpec, convention: str) -> Callable:
    """``evaluate(shift, least, most)``, the reference values of ``datum``
    on ``grid`` in ``convention`` from the first live column on (zero left
    of it): a row per entry of the column ``shift`` (``a t``; one row if
    0-d), whose extremes are ``least`` and ``most``.  What no shift
    changes is bound once, here."""
    mids, edges = _grid_coordinates(grid.L, grid.J)
    smin = datum.support_min
    lower = 0.0 if smin is None else max(0.0, smin)
    power = isinstance(datum, PowerPlusDatum)
    if convention == "midpoint" and power and datum.c > 0.0:
        def gated(xs):  # no gate on this support; the power goes into xs
            return datum._plus_power(xs, datum.alpha, out=xs)
    elif smin is not None and smin > 0.0:
        gated = datum  # it already vanishes at x <= 0
    else:
        def gated(xs):  # the datum cut to zero at x <= 0
            return np.where(xs > 0.0, datum(xs), 0.0)

    def evaluate(shift: np.ndarray, least: float, most: float) -> np.ndarray:
        skip = _skip_edge(edges, least, most, lower)
        j0 = 0
        if skip is not None:
            # the least shift skips the most cells; edges[0] = 0 is no edge
            j0 = max(0, int(edges.searchsorted(skip + least, "right")) - 1)
        if j0 == grid.J:
            return np.zeros(shift.shape[:-1] + (0,))
        if convention == "midpoint":
            return gated(mids[j0:] - shift)
        x = edges[j0:] - shift  # the shifted edges of the live cells
        if power:
            # closed form of the average of the datum cut to zero at x <= 0:
            # the antiderivative once per edge, differenced between neighbours
            width = np.diff(x)
            F = datum.antiderivative(np.maximum(x, 0.0, out=x))
            return np.divide(np.diff(F), width, out=width)
        # the cells each level reaches, compressed to one run of quadrature
        lo, hi = x[..., :-1], x[..., 1:]
        live = np.zeros(hi.shape)
        reach = np.full(hi.shape, True) if skip is None else hi > skip
        live[reach] = _gauss_average(gated, lo[reach], hi[reach])
        return live
    return evaluate


def reference_values(datum, grid: GridSpec, t, a: float,
                     convention: str) -> np.ndarray:
    """Per-cell reference (exact-solution) values in the given convention:
    midpoint samples or exact cell averages of the datum shifted by
    ``a t`` and cut to zero at ``x <= 0``.

    ``t`` is one time, giving a length-``J`` array, or a 1-D array of
    times in any order, giving one row per time.  The datum is evaluated
    only from the first column the shifted support of any row can reach
    (``_skip_edge``); the Gauss quadrature also skips each row's own cells
    left of the skip edge.  Skipped cells are ``0.0``, evaluated ones have
    the bits of a full-width evaluation.  This is ``_reference``, the
    evaluator each run's meter builds once, applied to ``t``.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("t must be one time or a 1-D array of times")
    shift = a * (t[:, None] if t.ndim == 1 else t)
    if shift.size == 0:
        return np.zeros((0, grid.J))
    live = _reference(datum, grid, convention)(
        shift, float(shift.min()), float(shift.max()))
    out = np.zeros(shift.shape[:-1] + (grid.J,))
    out[..., grid.J - live.shape[-1]:] = live
    return out


def initial_state(datum, grid: GridSpec, stencil: SchemeStencil,
                  convention: str = "midpoint") -> FieldState:
    """Initial state (ghosts zero) holding midpoint samples of the datum
    (``"midpoint"``) or its exact cell averages (``"cell_average"``).

    The cell averages are the reference values at ``t = 0``, so their
    quadrature skips the cells the support cannot reach, as at every later
    level; the midpoint samples are the datum's own, signed zeros
    included."""
    state = FieldState(J=grid.J, r=stencil.r, p=stencil.p, time_index=0)
    if convention == "midpoint":
        state.interior[:] = datum(grid.cell_midpoints)
    else:
        state.interior[:] = reference_values(datum, grid, 0.0,
                                             stencil.velocity_a, convention)
    return state


def _next_level(coeffs: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Write the stencil ``coeffs`` applied to the filled level ``v`` into
    ``out``: ``out[k] = sum_i coeffs[i] v[k + i]``, summed in order from
    zero.  ``out`` has ``len(v) - len(coeffs) + 1`` cells and must not
    overlap ``v``.

    For a 1-D level of up to ``_CORRELATE_WIDTH`` coefficients this is one
    ``np.correlate`` (as in ``_march``), numpy's small-kernel loop, which
    sums in exactly that order and calls no BLAS.  Wider stencils and 2-D
    levels (one level per column) take the loop, one multiply-add per
    offset into one buffer.  Like ``np.correlate``, the loop raises no
    floating-point warning: a level that overflows shows it in its values.
    """
    if v.ndim == 1 and len(coeffs) <= _CORRELATE_WIDTH:
        out[:] = np.correlate(v, coeffs, "valid")
        return
    m = len(out)
    out[:] = 0.0
    tmp = np.empty_like(out)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, c in enumerate(coeffs.tolist()):
            np.multiply(v[i:i + m], c, out=tmp)
            out += tmp


def step(state: FieldState, stencil: SchemeStencil, bc: BoundarySpec,
         sources: Sequence[float] | None = None) -> FieldState:
    """One explicit update: fill ghosts on ``state``, then apply the stencil.

    The input state's ghost slots are refreshed in place as a side effect;
    the interior is untouched and a new state is returned.
    """
    fill_inflow_ghosts(state)
    fill_outflow_ghosts(state, bc.outflow_order_kb, sources)
    new = FieldState(J=state.J, r=state.r, p=state.p,
                     time_index=state.time_index + 1)
    _next_level(stencil.coeff_array, state.values, new.interior)
    return new


def _march(u: np.ndarray, stencil: SchemeStencil, kb: int, N: int,
           observe: Callable[[int, np.ndarray], None] | None = None,
           sources: np.ndarray | None = None) -> np.ndarray:
    """Advance the interior ``u`` (cells ``1..J``; a 2-D ``u`` holds one
    level per column) by ``N`` steps and return the last level's interior.

    The levels are the rows of one zeroed block buffer of at least two
    rows, ``u`` in the first; its row views and the outflow taps are built
    once.  A step fills its level's outflow ghosts from the taps (and
    ``sources[n]``, when given), then writes the next interior
    (``np.correlate``, or the loop of ``_next_level`` on a wider stencil or
    a 2-D level) straight into the next row, wrapping to the first when the
    block is full.  So the inflow ghosts stay zero and no level is copied;
    the last level's ghosts are filled too.  ``observe(n0, levels)``
    receives the rows of levels ``n0, n0+1, ...`` in blocks of at most
    ``_BLOCK_ENTRIES`` entries, before they are overwritten; without it
    two rows alternate.
    """
    r, p = stencil.r, stencil.p
    end = r + len(u)  # array position of the first outflow ghost
    taps = _outflow_taps(end, p, extrapolation_weights(kb))
    if len(u) < kb:  # every level's ghosts are filled, the last one too
        raise ValueError("grid too small for the requested boundary closure")
    coeffs = stencil.coeff_array
    wide = u.ndim > 1 or len(coeffs) > _CORRELATE_WIDTH
    shape = (end + p,) + u.shape[1:]
    rows = 2
    if observe is not None:
        rows = max(2, min(N + 1, _BLOCK_ENTRIES // math.prod(shape)))
    block = np.zeros((rows,) + shape)
    block[0, r:end] = u
    levels = list(block)
    # the interior of the row each level's successor is written into
    successors = [row[r:end] for row in levels[1:] + levels[:1]]
    # each level's outflow sources, or none
    g = iter(sources.tolist()) if sources is not None else repeat(None)
    k = n0 = 0  # row of level n, first level not yet observed
    for n in range(N):
        level = levels[k]
        _fill_outflow(level, taps, next(g))
        if k + 1 == rows and observe is not None:  # the block is full
            observe(n0, block)
            n0 = n + 1
        if wide:
            _next_level(coeffs, level, successors[k])
        else:
            successors[k][...] = np.correlate(level, coeffs, "valid")
        k = k + 1 if k + 1 < rows else 0
    level = levels[k]
    _fill_outflow(level, taps, next(g))
    if observe is not None:
        observe(n0, block[:k + 1])
    return level[r:end].copy()


def _sum_squares(a: np.ndarray) -> np.ndarray:
    """The sum of squares of every row of ``a``, by numpy's own einsum
    loop, which is not a BLAS kernel picked from the CPU at run time.  A
    row has the same bits alone or in any block, contiguous or strided,
    under every BLAS kernel and CPU dispatch tried."""
    return np.einsum("ij,ij->i", a, a)


def _block_errors(u: np.ndarray, ref: np.ndarray, dx: float,
                  linf: np.ndarray, l2: np.ndarray) -> None:
    """l-infinity and l2 errors of the rows of ``u`` against ``ref``, the
    reference values of their last ``ref.shape[1]`` columns (zero left of
    them), written into ``linf`` and ``l2``; an l2 error is
    ``sqrt(dx * _sum_squares(err))`` of its row.  Where the reference is
    zero the error is ``u`` itself, copied: ``u - 0.0`` has the same bits,
    but is far slower on the subnormal cells a march leaves there."""
    j0 = u.shape[1] - ref.shape[1]
    err = np.empty(u.shape)
    err[:, :j0] = u[:, :j0]
    np.subtract(u[:, j0:], ref, out=err[:, j0:])
    np.sqrt(dx * _sum_squares(err), out=l2)
    np.maximum.reduce(np.abs(err, out=err), axis=1, out=linf)


def _meter(datum, grid: GridSpec, a: float, convention: str) -> Callable:
    """``measure(u, n0, linf, l2)``, one run's block measurement: the
    errors of levels ``n0, n0+1, ...`` (rows of ``u``) against their
    reference values.  Only the shifts ``a t`` change between blocks; being
    monotone in the level, their extremes are a block's end rows."""
    evaluate = _reference(datum, grid, convention)
    dx, dt = grid.dx, grid.dt

    def measure(u: np.ndarray, n0: int, linf: np.ndarray,
                l2: np.ndarray) -> None:
        shift = a * (np.arange(n0, n0 + len(u)) * dt)[:, None]
        ends = shift.item(0), shift.item(-1)
        _block_errors(u, evaluate(shift, min(ends), max(ends)), dx, linf, l2)
    return measure


def n_steps(T: float, dt: float) -> int:
    """Smallest n with ``n * dt >= T``, tolerating float slop: ``T / dt``
    is lowered by an absolute 1e-9 before it is rounded up.

    A ``dt`` so small that ``T / dt`` exceeds ``2**53`` (or is not finite)
    raises ``ValueError``: past it not every step count is a float, so
    neither the count nor ``n * dt`` would be exact.
    """
    if not math.isfinite(T):
        raise ValueError("final time T must be finite")
    if T <= 0:
        return 0
    ratio = T / dt if dt > 0 else math.inf
    if not ratio <= 2.0 ** 53:
        raise ValueError(f"time step dt = {dt!r} is too small: T / dt = "
                         f"{ratio!r} exceeds 2**53")
    return max(0, math.ceil(ratio - 1e-9))


def _check_march(N: int, grid: GridSpec, stencil: SchemeStencil) -> None:
    """Refuse a march of ``N`` steps, before any of its arrays is made,
    whose level of ``J + r + p`` cells exceeds ``_MAX_LEVEL_CELLS``, whose
    ``N * (J + r + p)`` cell updates (at least ``_STEP_CELLS`` a step)
    exceed ``_MAX_CELL_UPDATES``, or whose datum moves more than ``2**40``
    cells: the shifted cell edges of its reference values would then keep
    too few bits of their width, or none."""
    width = grid.J + stencil.r + stencil.p
    if width > _MAX_LEVEL_CELLS:
        raise ValueError(
            f"J = {grid.J} is too large: a level of {width:.3g} cells is "
            f"more than the cap of {_MAX_LEVEL_CELLS:.3g}")
    updates = N * max(width, _STEP_CELLS)
    if updates > _MAX_CELL_UPDATES:
        raise ValueError(
            f"time step dt = {grid.dt!r} is too small: {N} steps of "
            f"{grid.J} cells count as {updates:.3g} cell updates, more "
            f"than the cap of {_MAX_CELL_UPDATES:.3g}")
    cells = stencil.velocity_a * stencil.lam * N  # a t / dx at the end
    if not cells <= 2.0 ** 40:
        raise ValueError(
            f"velocity {stencil.velocity_a!r} times lambda "
            f"{stencil.lam!r} moves the datum {cells:.3g} cells in {N} "
            "steps, more than 2**40")


@dataclass
class RunResult:
    """Outcome of an interval run; history fields depend on the record mode.

    ``final_state`` is the interior (cells ``1..J``) of the last level;
    ``history`` holds the interior of level ``n`` in row ``n``.
    """

    grid: GridSpec
    stencil: SchemeStencil
    bc: BoundarySpec
    datum: object
    convention: str
    record: str
    n_steps: int
    t_final: float
    final_state: np.ndarray
    linf_history: np.ndarray | None = None
    l2_history: np.ndarray | None = None
    history: np.ndarray | None = None


def _check_ratio(grid: GridSpec, stencil: SchemeStencil) -> None:
    """Refuse a grid whose ``dt / dx`` is not the one the stencil's
    coefficients were built for: it would march another problem."""
    if grid.lam != stencil.lam:
        raise ValueError(f"grid lambda {grid.lam!r} differs from the "
                         f"stencil's lambda {stencil.lam!r}")


def run_interval(datum, grid: GridSpec, stencil: SchemeStencil,
                 bc: BoundarySpec, T: float, record: str = "sup_error",
                 convention: str = "midpoint") -> RunResult:
    """March the interval scheme to the first time level at or past ``T``.

    ``record`` selects what is retained: ``"final"`` keeps just the last
    level, ``"sup_error"`` additionally tracks per-step error norms against
    the exact solution, ``"full_history"`` keeps every level's interior
    (and the error track).  ``grid.lam`` must equal ``stencil.lam``.
    """
    if record not in ("final", "sup_error", "full_history"):
        raise ValueError(f"unknown record mode {record!r}")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    _check_ratio(grid, stencil)
    N = n_steps(T, grid.dt)
    _check_march(N, grid, stencil)
    state = initial_state(datum, grid, stencil, convention)
    r, J = stencil.r, grid.J

    track = record != "final"
    linf_hist = np.zeros(N + 1) if track else None
    l2_hist = np.zeros(N + 1) if track else None
    history = np.empty((N + 1, J)) if record == "full_history" else None

    measure = _meter(datum, grid, stencil.velocity_a, convention)

    def observe(n0: int, block: np.ndarray) -> None:
        n1 = n0 + len(block)
        u = block[:, r:r + J]
        measure(u, n0, linf_hist[n0:n1], l2_hist[n0:n1])
        if history is not None:
            history[n0:n1] = u

    final = _march(state.interior, stencil, bc.outflow_order_kb, N,
                   observe if track else None)
    return RunResult(grid=grid, stencil=stencil, bc=bc, datum=datum,
                     convention=convention, record=record, n_steps=N,
                     t_final=N * grid.dt, final_state=final,
                     linf_history=linf_hist, l2_history=l2_hist,
                     history=history)


@dataclass(frozen=True)
class ErrorReport:
    convention: str
    linf_final: float
    l2_final: float
    linf_sup: float | None
    l2_sup: float | None
    sup_at_step: int | None


def error_metrics(run: RunResult,
                  convention: str | None = None) -> ErrorReport:
    """Error norms of a recorded run, in its own convention by default.

    The recorded error histories answer the run's own convention; every
    other request re-measures recorded levels: the ``full_history`` rows,
    or the final level alone of a ``"final"`` run (final-step norms only,
    and only in its own convention).
    """
    convention = run.convention if convention is None else convention
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    own = convention == run.convention
    if own and run.linf_history is not None:
        linf_hist, l2_hist = run.linf_history, run.l2_history
    elif run.history is None and not own:
        raise ValueError(
            "run did not record enough history to measure it in convention "
            f"{convention!r}; rerun with record='full_history'")
    else:
        # every recorded level, or the final one alone of a "final" run
        levels = run.final_state[None] if run.history is None else run.history
        first = run.n_steps + 1 - len(levels)
        linf_hist, l2_hist = np.zeros(len(levels)), np.zeros(len(levels))
        rows = max(1, _BLOCK_ENTRIES // run.grid.J)
        measure = _meter(run.datum, run.grid, run.stencil.velocity_a,
                         convention)
        for i in range(0, len(levels), rows):
            measure(levels[i:i + rows], first + i, linf_hist[i:i + rows],
                    l2_hist[i:i + rows])
    if run.record == "final":
        return ErrorReport(convention=convention,
                           linf_final=float(linf_hist[0]),
                           l2_final=float(l2_hist[0]),
                           linf_sup=None, l2_sup=None, sup_at_step=None)
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
    ``j = window[0] .. window[1]`` inclusive.  ``grid.lam`` must equal
    ``stencil.lam``.
    """
    n = _integer(n, "time index n")
    if n < 1:
        raise ValueError("time index must be at least 1")
    j_lo, j_hi = (_integer(j, "window") for j in window)
    if j_hi < j_lo:
        raise ValueError("empty index window")
    _check_ratio(grid, stencil)
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

    ``final_state`` is the window interior (cells ``1..J``) of level
    ``steps``; ``traces[n]`` holds cells ``J+1-r-kb .. J+p`` at level n
    (ghosts filled with that level's sources), so ``traces[-1]`` carries
    the final outflow ghosts; ``masses``/``energies`` are ``dx * sum`` and
    ``dx * sum of squares`` over the window interior.
    """

    grid: GridSpec
    stencil: SchemeStencil
    kb: int
    steps: int
    convention: str
    final_state: np.ndarray
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
    Errors are measured against ``reference_values``, as on the interval;
    the window check keeps the datum's support right of ``x = 0`` (to
    rounding), so the zero gate there cuts off nothing.  ``grid.lam`` must
    equal ``stencil.lam``.
    """
    extrapolation_weights(kb)  # refuses a non-integer or negative order
    steps = _integer(steps, "steps")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    _check_ratio(grid, stencil)
    _check_march(steps, grid, stencil)
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

    dx = grid.dx
    f0 = initial_state(datum, grid, stencil, convention).interior

    lo = grid.J - kb  # array position of cell J+1-r-kb
    n_trace = r + kb + p
    traces = np.zeros((steps + 1, n_trace))
    masses = np.zeros(steps + 1)
    energies = np.zeros(steps + 1)
    linf_hist = np.zeros(steps + 1)
    l2_hist = np.zeros(steps + 1)

    measure = _meter(datum, grid, stencil.velocity_a, convention)

    def observe(n0: int, block: np.ndarray) -> None:
        n1 = n0 + len(block)
        traces[n0:n1] = block[:, lo:lo + n_trace]
        u = block[:, r:r + grid.J]
        masses[n0:n1] = dx * np.sum(u, axis=1)
        energies[n0:n1] = dx * _sum_squares(u)
        measure(u, n0, linf_hist[n0:n1], l2_hist[n0:n1])

    final = _march(f0, stencil, kb, steps, observe, sources=sources)
    return HalflineResult(grid=grid, stencil=stencil, kb=kb, steps=steps,
                          convention=convention, final_state=final,
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
    rhs = float(run.energies[0])
    if run.sources is not None and run.stencil.p > 0:
        rhs += dt * float(np.sum(w * np.sum(run.sources ** 2, axis=1)))
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    else:
        ratio = lhs / rhs
    return FunctionalRatio(lhs=lhs, rhs=rhs, ratio=ratio)
