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

The three drivers, ``run_interval``, ``convergence_study`` and
``run_halfline_outflow``, share one set-up, ``_interval_march``.  Its
meter, built once per run around the evaluator of ``reference_values``
(which binds the grid coordinates, the floor of ``support_min`` and the
branch for the datum and the convention), measures a full block at once:
its shifts, its first live column, the datum there and its errors
``|u - ref|``.  A driver calls it only for the norms it returns:
``convergence_study`` the sup norm alone, which ``_block_sup`` reduces
from each block's levels and reference values with no error block; a
half-line run, whose stability functional reads no errors, calls it only
when its error histories are first read, on a second march from the same
start.  A reference value is the datum shifted by ``a t`` and cut to zero
at ``x <= 0``, the exact solution of the interval problem.  Left of the
first cell the shifted support can reach (with a margin of one cell) it
is exactly zero, so it is not evaluated and the error there is the level
itself.  Gauss cell
averages (16 datum evaluations per cell) also skip each level's own
unreachable cells and call the datum once per group of nodes; a power
cell average takes the antiderivative once per shifted edge.  The norms,
masses, energies and traces take a few whole-block calls each, with the
arithmetic of a loop of ``step`` calls; the sums of squares are numpy's
own einsum loop (``_sum_squares``), not BLAS, so no result depends on
the block size or on the BLAS kernel the machine picks.  Run results are
plain arrays of level interiors; a ``FieldState`` is built only by
``initial_state`` and ``step``.  A power datum that overflows on ``(0, L]``
is refused where it is first evaluated (``_check_range``), and a march whose
returned arrays left the float range raises ``AssertionError``
(``_check_finite``; for a half-line run's error histories, on their
first read).

Reported error tables use the midpoint convention with the sup-over-steps
statistic; both statistics are always emitted so the choice stays visible.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
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
# temporaries built from it add to the peak memory of a run.  Once
# ``convergence_study`` reduced each block straight to its sup norm, most
# of what a block costs was fixed, so fewer blocks paid: on the ``refine``
# benchmark (10 s runs, seed 5, medians of 5; a 2-vCPU Xeon, numpy 2.4.6)
# ``2**15`` read 0.560 s and 49.8 MB, ``2**16`` 0.535 s and 50.5 MB, and
# ``2**17`` 0.560 s and 52.0 MB, 4.5% more memory than ``2**15`` for no
# time.
_BLOCK_ENTRIES = 2 ** 16

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

# Largest ``log(y)`` of a reference value ``y`` (``_check_range``): the float
# range less e^8 (about 3000) for the stencil sums and errors built from y.
_LOG_RANGE = math.log(sys.float_info.max) - 8.0


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
        if J > sys.float_info.max:  # L / J would not convert it
            raise ValueError("cell count J is past the float range")
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
        if not self.dt >= sys.float_info.min:
            # a subnormal or zero step has no relative precision left
            # either, and a run at it gives its outflow sources no weight
            raise ValueError(f"time step dt = lambda * L / J = {self.dt!r} "
                             "is too small: not a positive normal float")

    @property
    def dx(self) -> float:
        return self.L / self.J

    @property
    def dt(self) -> float:
        return self.lam * self.dx

    @property
    def cell_edges(self) -> np.ndarray:
        """Edges ``x_0 .. x_J`` (length J+1), a new array on each access."""
        return self.dx * np.arange(self.J + 1)

    @property
    def cell_midpoints(self) -> np.ndarray:
        """Midpoints of cells ``1..J``, a new array on each access."""
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


def _check_range(datum, grid: GridSpec, least: float = 0.0) -> None:
    """Refuse a grid on whose ``(0, L]`` a power datum shifted by ``least``
    or more, its antiderivative or the sum of ``J`` of its squares
    overflows, or whose cell averages' edges ``least`` moves too far."""
    if not isinstance(datum, PowerPlusDatum):
        return
    _check_shift(-least / grid.dx, f"the shift a t = {least!r}")
    if _overflows(datum, grid.L - min(least, 0.0), grid.J):
        moved = f" with the shift a t = {least!r}" if least < 0.0 else ""
        raise ValueError(f"L = {grid.L!r}{moved} is too long: the reference "
                         "values of the datum on (0, L] overflow")


def _overflows(datum: PowerPlusDatum, right: float, cells: int) -> bool:
    """Whether the power datum at some ``x <= right``, its antiderivative or
    the sum of ``cells`` of its squares passes ``_LOG_RANGE``."""
    top = right - datum.c  # the largest base of the power
    if not top > 1.0:
        return False  # a base up to 1 cannot overflow
    log_top = math.log(top)  # inf if the base overflowed
    return max((datum.alpha + 1.0) * log_top,
               2.0 * datum.alpha * log_top + math.log(cells)) > _LOG_RANGE


def _check_shift(cells: float, moved: str, span: str = "") -> None:
    """Refuse a move of over 2**40 cells (or NaN): it loses the cell width."""
    if not cells <= 2.0 ** 40:
        raise ValueError(f"{moved} moves the datum {cells:.3g} cells{span}, "
                         "more than 2**40")


def _reference(datum, grid: GridSpec, convention: str,
               least: float = 0.0) -> Callable:
    """``evaluate(shift, least, most)``, the reference values of ``datum``
    on ``grid`` in ``convention`` from the first live column on (zero left
    of it): a row per entry of the column ``shift`` (``a t``; one row if
    0-d), whose extremes are ``least`` and ``most`` (no lower than the
    ``least`` checked here).  What no shift changes is bound once, here."""
    _check_range(datum, grid, least)
    mids, edges = grid.cell_midpoints, grid.cell_edges
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
    evaluator each run's meter builds once, applied to ``t`` (a shift that
    is not finite or moves the datum right over 2**40 cells is refused)."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("t must be one time or a 1-D array of times")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        shift = a * (t[:, None] if t.ndim == 1 else t)
    if shift.size == 0:
        return np.zeros((0, grid.J))
    if not np.isfinite(shift).all():
        raise ValueError(f"the shift a t is not finite (a = {a!r})")
    least, most = float(shift.min()), float(shift.max())
    _check_shift(most / grid.dx, f"the shift a t = {most!r}")
    live = _reference(datum, grid, convention, least)(shift, least, most)
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
    included.  Both refuse a datum whose values overflow on the grid."""
    state = FieldState(J=grid.J, r=stencil.r, p=stencil.p, time_index=0)
    if convention == "midpoint":
        _check_range(datum, grid)
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
    if len(u) < kb:  # every level's ghosts are filled, the last one too
        raise ValueError("grid too small for the requested boundary closure")
    end = r + len(u)  # array position of the first outflow ghost
    taps = _outflow_taps(end, p, extrapolation_weights(kb))
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


def _norms(err: np.ndarray, dx: float, linf: np.ndarray,
           l2: np.ndarray) -> None:
    """Write the l-infinity and l2 norm of each row of ``err`` into ``linf``
    and ``l2``; an l2 norm past the float range is left ``inf``."""
    np.maximum.reduce(err, axis=1, out=linf)
    with np.errstate(over="ignore"):
        np.sqrt(dx * _sum_squares(err), out=l2)


def _check_finite(*arrays: np.ndarray | float | None) -> None:
    """Refuse a march's returned arrays or numbers (None skipped) past the
    float range."""
    if not all(np.isfinite(a).all() for a in arrays if a is not None):
        raise AssertionError("the march left the float range")


def _block_errors(u: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``|u - ref|`` of the rows of ``u`` against ``ref``, the reference
    values of their last ``ref.shape[1]`` columns (zero left of them), in a
    new array.  Where the reference is zero the error is ``|u|``, taken on
    a copy of ``u``: ``u - 0.0`` has the same bits, but is far slower on
    the subnormal cells a march leaves there."""
    j0 = u.shape[1] - ref.shape[1]
    err = np.empty(u.shape)
    err[:, :j0] = u[:, :j0]
    np.subtract(u[:, j0:], ref, out=err[:, j0:])
    return np.abs(err, out=err)


def _block_sup(u: np.ndarray, ref: np.ndarray, out: np.ndarray) -> None:
    """Write the row maximum of ``_block_errors(u, ref)`` into ``out`` with
    its bits, NaN, inf and signed zeros included, building no error block:
    ``|u - ref|`` is taken on a buffer as wide as the live columns (``ref``
    is not written: it may be an array a datum keeps), and ``|u|`` left of
    them as ``|max(max u, -min u)|`` on a view of ``u``.  Either side may
    have no columns: the live maximum starts from ``+0.0``, below no error,
    so it changes no maximum and is the maximum of none; an empty dead side
    is skipped."""
    j0 = u.shape[1] - ref.shape[1]
    live = np.subtract(u[:, j0:], ref)
    np.maximum.reduce(np.abs(live, out=live), axis=1, out=out, initial=0.0)
    if j0:
        dead = u[:, :j0]
        top = np.maximum(np.maximum.reduce(dead, axis=1),
                         np.negative(np.minimum.reduce(dead, axis=1)))
        np.maximum(np.abs(top, out=top), out, out=out)


def _meter(datum, grid: GridSpec, a: float, convention: str) -> Callable:
    """``measure(u, n0, reduce=_block_errors, *args)``, one run's block
    measurement: ``reduce(u, ref, *args)`` of levels ``n0, n0+1, ...``
    (rows of ``u``) and ``ref``, their reference values from the first live
    column on.  By default that is the errors ``|u - ref|``, from which
    each driver reduces the norms it returns (a row's l-infinity error is
    its maximum, its l2 error ``sqrt(dx * _sum_squares(row))``);
    ``convergence_study`` writes the maxima alone (``_block_sup``).  Only
    the shifts ``a t`` change between blocks; being monotone in the level,
    their extremes are a block's end rows."""
    evaluate = _reference(datum, grid, convention)
    dt = grid.dt

    def measure(u: np.ndarray, n0: int, reduce: Callable = _block_errors,
                *args):
        shift = a * (np.arange(n0, n0 + len(u)) * dt)[:, None]
        ends = shift.item(0), shift.item(-1)
        return reduce(u, evaluate(shift, min(ends), max(ends)), *args)
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
    final time ``N dt`` overflows, whose ``N * (J + r + p)`` cell updates
    (at least ``_STEP_CELLS`` a step) exceed ``_MAX_CELL_UPDATES``, or
    whose datum moves more than ``2**40`` cells (``_check_shift``)."""
    width = grid.J + stencil.r + stencil.p
    if width > _MAX_LEVEL_CELLS:
        raise ValueError(
            f"J = {grid.J} is too large: a level of {width:.3g} cells is "
            f"more than the cap of {_MAX_LEVEL_CELLS:.3g}")
    if not math.isfinite(N * grid.dt):
        raise ValueError(f"{N} steps of dt = {grid.dt!r} pass the float range")
    updates = N * max(width, _STEP_CELLS)
    if updates > _MAX_CELL_UPDATES:
        raise ValueError(
            f"time step dt = {grid.dt!r} is too small: {N} steps of "
            f"{grid.J} cells count as {updates:.3g} cell updates, more "
            f"than the cap of {_MAX_CELL_UPDATES:.3g}")
    _check_shift(stencil.velocity_a * stencil.lam * N,  # a t / dx at the end
                 f"velocity {stencil.velocity_a!r} times lambda "
                 f"{stencil.lam!r}", f" in {N} steps")


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


def _interval_march(datum, grid: GridSpec, stencil: SchemeStencil, kb: int,
                    N: int, convention: str,
                    sources: np.ndarray | None = None) -> tuple:
    """Check and set up a march of ``N`` steps (the outflow order ``kb``,
    convention, ``dt / dx`` ratio, ``_check_march``, the datum's range),
    as ``(kb, N, u0, measure, march)``.  ``measure`` is the run's meter
    (``_meter``, built here, so its range check comes from the call).
    ``march(keep)`` marches from ``u0`` with the outflow ``sources``, if
    any, and returns the last interior; it may be called again, and
    repeats every level bit for bit.  ``keep(span, rows, u)``, if given,
    gets each block: its ``slice`` of the levels, its rows (ghosts
    included, overwritten after the call) and interiors.  Errors are
    measured only by a driver that wants them, as
    ``measure(u, span.start)``: the errors ``|u - ref|`` of the block."""
    kb = BoundarySpec(kb).outflow_order_kb
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    _check_ratio(grid, stencil)
    N = _integer(N, "steps")
    if N < 0:
        raise ValueError("steps must be nonnegative")
    _check_march(N, grid, stencil)
    u0 = initial_state(datum, grid, stencil, convention).interior
    measure = _meter(datum, grid, stencil.velocity_a, convention)
    r, J = stencil.r, grid.J

    def march(keep: Callable | None) -> np.ndarray:
        def observe(n0: int, rows: np.ndarray) -> None:
            keep(slice(n0, n0 + len(rows)), rows, rows[:, r:r + J])
        return _march(u0, stencil, kb, N,
                      None if keep is None else observe, sources)
    return kb, N, u0, measure, march


def run_interval(datum, grid: GridSpec, stencil: SchemeStencil,
                 bc: BoundarySpec, T: float, record: str = "sup_error",
                 convention: str = "midpoint") -> RunResult:
    """March the interval scheme to the first time level at or past ``T``.

    ``record`` selects what is retained: ``"final"`` keeps just the last
    level, ``"sup_error"`` additionally tracks the per-step l-infinity and
    l2 errors against the exact solution, ``"full_history"`` keeps every
    level's interior (and the error track).  ``grid.lam`` must equal
    ``stencil.lam``.
    """
    if record not in ("final", "sup_error", "full_history"):
        raise ValueError(f"unknown record mode {record!r}")
    N = n_steps(T, grid.dt)
    *_, measure, march = _interval_march(datum, grid, stencil,
                                         bc.outflow_order_kb, N, convention)
    track = record != "final"
    linf_hist = np.zeros(N + 1) if track else None
    l2_hist = np.zeros(N + 1) if track else None
    history = np.empty((N + 1, grid.J)) if record == "full_history" else None

    def keep(span: slice, rows: np.ndarray, u: np.ndarray) -> None:
        _norms(measure(u, span.start), grid.dx, linf_hist[span],
               l2_hist[span])
        if history is not None:
            history[span] = u

    final = march(keep if track else None)
    # a level that left the float range stays out, so errors vouch for it
    _check_finite(final, linf_hist, l2_hist)
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
            _norms(measure(levels[i:i + rows], first + i), run.grid.dx,
                   linf_hist[i:i + rows], l2_hist[i:i + rows])
        _check_finite(linf_hist, l2_hist)
    final, k = run.record == "final", int(np.argmax(linf_hist))
    return ErrorReport(convention=convention,
                       linf_final=float(linf_hist[-1]),
                       l2_final=float(l2_hist[-1]),
                       linf_sup=None if final else float(linf_hist[k]),
                       l2_sup=None if final else float(np.max(l2_hist)),
                       sup_at_step=None if final else k)


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
    row; ``error_final`` rides along for comparison.  Only the l-infinity
    (sup) norm is computed, no l2 error: each run shares ``run_interval``'s
    march and meter, so its errors have the bits of ``linf_history``.
    """
    if list(J_list) != sorted(set(J_list)):
        raise ValueError("J_list must be strictly increasing")
    rows: list[ConvergenceRow] = []
    prev: tuple[int, float] | None = None
    for J in J_list:
        grid = GridSpec(L=L, J=J, lam=stencil.lam)
        N = n_steps(T, grid.dt)
        *_, measure, march = _interval_march(datum, grid, stencil, kb, N,
                                             convention)
        linf = np.zeros(N + 1)
        march(lambda k, block, u: measure(u, k.start, _block_sup, linf[k]))
        sup = float(linf.max())
        order = float("nan")
        if prev is not None and sup > 0 and prev[1] > 0:
            ratio = prev[1] / sup  # a difference of logs if it is 0 or inf
            order = (math.log(ratio) if 0.0 < ratio < math.inf else
                     math.log(prev[1]) - math.log(sup)) / math.log(J / prev[0])
        rows.append(ConvergenceRow(J=J, dx=grid.dx,
                                   error_final=float(linf[-1]),
                                   error_sup=sup, observed_order=order))
        prev = (J, sup)
    # a sup error vouches for its run; a refusal of a later J comes first
    _check_finite(np.array([row.error_sup for row in rows]))
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
    if n > sys.float_info.max:  # a t^n would not convert it
        raise ValueError("time index n is past the float range")
    j_lo, j_hi = (_integer(j, "window") for j in window)
    if j_hi < j_lo:
        raise ValueError("empty index window")
    if max(abs(j_lo), abs(j_hi)) > sys.float_info.max:  # nor its edges
        raise ValueError("window end is past the float range")
    _check_ratio(grid, stencil)
    a = stencil.velocity_a
    dx, dt = grid.dx, grid.dt
    # the wider window, of the previous level: its edges x_{j0-1} .. x_{j1}
    # shifted by a t^{n-1}, the least shift, are refused as a run's would be;
    # the reach first, which keeps the cell count below the float range
    j0, j1 = j_lo - stencil.r, j_hi + stencil.p
    far = max(abs(j0 - 1), abs(j1))
    if far > 2 ** 40:
        raise ValueError(f"window ({j_lo}, {j_hi}) reaches {far:.3g} cells "
                         "from x = 0, more than 2**40")
    cells = j1 - j0 + 1
    if cells > _MAX_LEVEL_CELLS:
        raise ValueError(f"window ({j_lo}, {j_hi}) of {cells:.3g} cells is "
                         f"more than the cap of {_MAX_LEVEL_CELLS:.3g}")
    _check_shift(a * stencil.lam * n, f"velocity {a!r} times lambda "
                 f"{stencil.lam!r}", f" by time index {n}")
    if isinstance(datum, PowerPlusDatum) and \
            _overflows(datum, dx * j1 - a * ((n - 1) * dt), cells):
        raise ValueError(f"window ({j_lo}, {j_hi}) of L = {grid.L!r} reaches "
                         "too far: the cell averages of the datum on it "
                         "overflow")

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

    ``linf_history``/``l2_history`` are each level's l-infinity and l2
    error against ``reference_values``.  The run does not measure them:
    the first read of either marches again from the run's own start and
    sources, which give the same levels bit for bit, and measures both,
    which calls the datum again (so it must not change in between); both
    are then kept.  An error history past the float range raises
    ``AssertionError`` on that read, and on every later one.
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
    sources: np.ndarray | None
    # () -> (linf, l2): the run's second march, measured
    _errors: Callable[[], tuple] | None = field(default=None, repr=False,
                                                compare=False)

    @cached_property
    def _histories(self) -> tuple[np.ndarray, np.ndarray]:
        if self._errors is None:
            raise ValueError("no error histories: this result was not "
                             "returned by run_halfline_outflow")
        return self._errors()

    @property
    def linf_history(self) -> np.ndarray:
        return self._histories[0]

    @property
    def l2_history(self) -> np.ndarray:
        return self._histories[1]


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
    The run measures no errors; the result's error histories are measured
    against ``reference_values``, as on the interval, when first read (see
    ``HalflineResult``), from copies of the start and ``sources`` taken
    here.  Every refusal (the datum's range, the window, the trace, the
    sources) comes from this call.  The window check keeps the datum's
    support right of ``x = 0`` (to rounding), so the zero gate of the
    reference values cuts off nothing.  ``grid.lam`` must equal
    ``stencil.lam``.
    """
    sources = None if sources is None else np.asarray(sources, dtype=float)
    kb, steps, u0, measure, march = _interval_march(
        datum, grid, stencil, kb, steps, convention,
        None if sources is None else sources.copy())
    r, p = stencil.r, stencil.p
    if grid.J < r + kb:
        raise ValueError(f"window of {grid.J} cells cannot expose the "
                         f"boundary trace (need J >= r + kb = {r + kb})")
    smin = datum.support_min
    if smin is None:
        raise ValueError("half-line runs need the datum's support_min")
    j_min = np.floor(smin / grid.dx + 1e-12) + 1  # +-inf for a far support
    reach = j_min - steps * p
    if reach < 1 + r:
        raise ValueError(
            "window too small: support can propagate to within "
            f"{max(0, reach - 1):.0f} cells of the artificial edge; pad the "
            f"window by at least {1 + r - reach:.0f} more cells")
    if sources is not None and sources.shape != (steps + 1, p):
        raise ValueError(f"sources must have shape ({steps + 1}, {p})")

    dx = grid.dx
    lo = grid.J - kb  # array position of cell J+1-r-kb
    traces = np.zeros((steps + 1, r + kb + p))
    masses, energies = np.zeros(steps + 1), np.zeros(steps + 1)

    def keep(span: slice, rows: np.ndarray, u: np.ndarray) -> None:
        traces[span] = rows[:, lo:]  # to the last outflow ghost
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            masses[span] = dx * np.sum(u, axis=1)
            energies[span] = dx * _sum_squares(u)

    def errors() -> tuple[np.ndarray, np.ndarray]:
        linf, l2 = np.zeros(steps + 1), np.zeros(steps + 1)
        march(lambda span, rows, u: _norms(measure(u, span.start), dx,
                                           linf[span], l2[span]))
        _check_finite(linf, l2)
        return linf, l2

    final = march(keep)
    _check_finite(final, traces, masses, energies)
    return HalflineResult(grid=grid, stencil=stencil, kb=kb, steps=steps,
                          convention=convention, final_state=final,
                          initial_interior=u0.copy(), traces=traces,
                          masses=masses, energies=energies, sources=sources,
                          _errors=errors)


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
    only the right side does.  Any finite positive ``gamma`` is taken: a
    weight may underflow to 0, and one whose exponent is finite is not lost
    to an overflow on the way.  A side, or a ratio of two finite sides,
    past the float range raises ``AssertionError``.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("gamma must be positive and finite")
    dt = run.grid.dt
    n = np.arange(run.steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        x = -2.0 * gamma * n * dt
        # where -2 gamma n left the float range (-inf, or nan at n = 0), the
        # exponent in an order that is -inf only if the exponent itself is
        out = ~np.isfinite(x)
        x[out] = -2.0 * (gamma * (n[out] * dt))
        w = np.exp(x)
        lhs = float(np.max(w * run.energies))
        lhs += dt * float(np.sum(w * np.sum(run.traces ** 2, axis=1)))
        rhs = float(run.energies[0])
        if run.sources is not None and run.stencil.p > 0:
            rhs += dt * float(np.sum(w * np.sum(run.sources ** 2, axis=1)))
    _check_finite(lhs, rhs)
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    else:
        ratio = lhs / rhs
        _check_finite(ratio)
    return FunctionalRatio(lhs=lhs, rhs=rhs, ratio=ratio)
