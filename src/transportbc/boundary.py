r"""Ghost-cell closures: zero inflow and backward-difference outflow.

With transport to the right, the inflow ghosts (cells ``1-r..0``) carry the
prescribed boundary value, here identically zero.  The outflow ghosts
(``J+1..J+p``) are closed by killing the ``k_b``-th backward difference,

.. math::

    (D_-^{k_b} u)_{J+\ell} = g_{J+\ell}, \qquad \ell = 1..p,

which for ``g = 0`` is polynomial extrapolation of degree ``k_b - 1`` from
the last interior cells (``k_b = 0`` pins the ghosts to ``g`` directly, i.e.
a right Dirichlet condition).  The ghosts are resolved left to right so each
one may consume those already filled.  The closure is written once: the
integer weights of ``extrapolation_weights``, their taps (the position and
weight of each term, ``_outflow_taps``) and the left-to-right recursion of
``_fill_outflow`` that applies the taps.  Its two users are the
``FieldState`` fill here and the solver's time march, which builds its taps
once (the transition matrix is one step of it from the identity, one level
per column).  ``extrapolation_weights`` checks every closure's order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .state import FieldState, _integer


@dataclass(frozen=True)
class BoundarySpec:
    """The outflow extrapolation order; the inflow ghosts are always zero."""

    outflow_order_kb: int

    def __post_init__(self) -> None:
        kb = _integer(self.outflow_order_kb, "extrapolation order k_b")
        extrapolation_weights(kb)  # refuses a negative or too large order
        object.__setattr__(self, "outflow_order_kb", kb)


def extrapolation_weights(kb: int) -> tuple[int, ...]:
    """Integer weights ``C(kb, m) (-1)^(m+1)`` for ``m = 1..kb``.

    They close the outflow: ``u_{J+ell} = g_{J+ell} + sum_m w_m u_{J+ell-m}``
    makes the ``kb``-th backward difference at ``J+ell`` equal ``g_{J+ell}``.
    Every outflow closure takes its weights here, so this is where ``kb``
    is checked; from 1030 on, a weight passes the float range.
    """
    kb = _integer(kb, "extrapolation order k_b")
    if kb < 0:
        raise ValueError("extrapolation order k_b must be nonnegative")
    if kb >= 1030:
        raise ValueError(f"extrapolation order k_b = {kb} is too large: "
                         "from 1030 on its weights pass the float range")
    return tuple(math.comb(kb, m) * (-1) ** (m + 1) for m in range(1, kb + 1))


def fill_inflow_ghosts(state: FieldState) -> FieldState:
    """Set the left ghost cells to the inflow value zero (in place)."""
    state.left_ghosts[:] = 0.0
    return state


def _outflow_taps(end: int, p: int, weights: tuple[int, ...]) -> list:
    """For each of the ``p`` outflow ghosts from array position ``end`` on,
    left to right: its position and the ``(position, weight)`` of each
    term of its closure, built once for any number of levels."""
    return [(end + q, [(end + q - m, w) for m, w in enumerate(weights, 1)])
            for q in range(p)]


def _fill_outflow(values: np.ndarray, taps: list,
                  sources: Sequence[float] | None) -> None:
    """Fill the outflow ghosts of a plain level in place from its ``taps``,
    each ghost reading those before it; ``sources`` holds their ``g``
    (zeros when omitted).  A 1-D level is read as Python floats; a 2-D
    ``values`` holds one level per column and is filled row by row."""
    read = values.item if values.ndim == 1 else values.__getitem__
    for q, (ghost, terms) in enumerate(taps):
        acc = 0.0 if sources is None else float(sources[q])
        for pos, w in terms:
            acc += w * read(pos)
        values[ghost] = acc


def fill_outflow_ghosts(state: FieldState, kb: int,
                        sources: Sequence[float] | None = None) -> FieldState:
    """Fill the right ghosts so ``(D_-^kb u)_{J+ell} = g_{J+ell}`` (in place).

    ``sources`` supplies ``g_{J+1}..g_{J+p}`` (zeros when omitted).  Ghosts
    are filled for ``ell = 1..p`` in increasing order; ``u_{J+ell}`` is the
    unique value making the difference vanish, which unrolls to

        u_{J+ell} = g_{J+ell} + sum_{m=1}^{kb} C(kb, m) (-1)^(m+1) u_{J+ell-m}.
    """
    weights = extrapolation_weights(kb)
    if state.J < kb:
        raise ValueError(
            f"need at least k_b = {kb} interior cells to extrapolate, have {state.J}"
        )
    if sources is not None and len(sources) < state.p:
        raise ValueError(f"need {state.p} outflow sources, got {len(sources)}")
    taps = _outflow_taps(state.r + state.J, state.p, weights)
    _fill_outflow(state.values, taps, sources)
    return state
