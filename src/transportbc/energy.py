r"""Discrete integration by parts for the one-step energy change.

The quadratic form ``2 v_0 (S v - v_0) + (S v - v_0)^2`` (with ``S v`` the
stencil applied at offset 0) has the all-ones vector in its isotropic cone
whenever the coefficients sum to one.  Its matrix ``S`` then splits,
uniquely, into squared differences against the first coordinate plus a
telescoping pair of copies of a smaller form:

    S = embed_last(T) - embed_first(T) + sum_k d_k * (e_1 - e_{1+k})(...)^T

The split is in closed form (``_energy_split``): ``-d_k`` is the sum along
the ``k``-th diagonal of ``S``, and ``T`` holds the partial sums along the
same diagonals, so no linear system is solved.  Summing the stencil form
over all cells telescopes the ``T`` terms away and leaves the dissipation
functional ``sum_k d_k sum_j (v_{j+k-r} - v_{j-r})^2``, which is
nonpositive exactly when the stencil is l2-stable.  ``T`` itself is the
boundary form: its value on a constant window, the sum of its entries, is
``-lambda a``.

The balance itself is computed by one row kernel, ``_balance_rows``, for a
batch of sequences of any lengths at once, given end to end with their
lengths; ``verify_energy_balance`` is that kernel on one row, and
``energy-check`` runs it once per chunk of random trials, in the layout
the generator draws the chunk in.  The kernel sums each row over its own
width only, by numpy's pairwise sum (not BLAS), so a row has the same bits
in any batch and under any BLAS kernel; it also sums each sequence's
energy, the scale of its checks, and refuses a balance past the float
range.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .scheme import SchemeStencil, check_l2_stability, consistency_order
from .solver import _next_level


def _energy_split(stencil: SchemeStencil) -> tuple[np.ndarray, np.ndarray]:
    """Dissipation weights ``d`` and reduced form ``T`` of the stencil's
    one-step form ``S = e0 w'^T + w' e0^T + w' w'^T`` (``w' = w - e0``).

    ``-d_k`` is the sum along the ``k``-th diagonal of ``S``, and each
    off-diagonal ``T[i, i+k]`` the part of that sum from ``S[i+1, i+1+k]``
    on; both are added from the bottom-right end.  The diagonal of ``T``
    follows from ``T[k-1, k-1] = (S[k, k] + T[k, k]) - d_k``.  This order
    gives ``d`` the bits ``verify`` prints; ``-np.correlate(w, w)`` is the
    same sum in another order.  Consistency (unit coefficient sum) is the
    caller's to check.
    """
    w = stencil.coeff_array
    e0 = np.zeros_like(w)
    e0[stencil.r] = 1.0
    wp = w - e0
    W = np.outer(e0, wp) + np.outer(wp, e0) + np.outer(wp, wp)
    m = len(w)
    # above the diagonal, W[i, j] becomes S[i, j] + W[i+1, j+1]
    for i in range(m - 3, -1, -1):
        W[i, i + 1:m - 1] += W[i + 1, i + 2:]
    d = -W[0, 1:]
    T = W[1:, 1:].copy()
    lower = np.tril_indices(m - 1, -1)
    T[lower] = T.T[lower]
    acc = W[m - 1, m - 1]
    for k in range(m - 1, 0, -1):
        T[k - 1, k - 1] = acc - d[k - 1]
        acc = W[k - 1, k - 1] + T[k - 1, k - 1]
    return d, T


def dissipation_and_boundary_form(
        stencil: SchemeStencil) -> tuple[np.ndarray, np.ndarray]:
    """Dissipation coefficients ``d_1..d_{p+r}`` and boundary form ``T``.

    ``T`` is the reduced form of the split, an ``(r+p, r+p)`` symmetric
    array acting on a window of ``r + p`` consecutive cells.  Its value on a
    constant window, ``1^T T 1``, must come out as ``-lambda a`` (asserted
    to ``1e-12 * max(1, lambda a, sum |T|)``, summed exactly rounded by
    ``math.fsum``), which is what makes the boundary term in the summed
    energy balance strictly damping.  The stencil must be first-order
    consistent and reach a left neighbour (``r >= 1``), and a form whose
    entries or sum leave the float range is refused with a ``ValueError``.
    """
    report = consistency_order(stencil)
    if report.order < 1:
        raise ValueError("boundary form needs a first-order consistent "
                         f"stencil (moment {report.failed_moment} fails)")
    if stencil.r < 1:
        # with lambda a > 0 the characteristic foot lies left of each cell,
        # so by the CFL condition no such stencil converges
        raise ValueError("boundary form needs r >= 1: the stencil must "
                         "reach a left neighbour")
    # coefficients past about the root of the float range overflow the
    # form's products: refused, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        d, T = _energy_split(stencil)
        size = float(np.abs(T).sum())  # each entry is rounded to its size
    try:
        # finite only if every entry of T is, and each d_k enters T's
        # diagonal, so then d is finite too
        center = math.fsum(T.ravel())
    except (ValueError, OverflowError):  # inf - inf, or a sum past the range
        center = math.nan
    if not math.isfinite(center):
        raise ValueError("the stencil's energy form leaves the float range")
    la = stencil.lam * stencil.velocity_a
    if abs(center + la) > 1e-12 * max(1.0, la, size):
        raise AssertionError(
            f"boundary form center value {center:.17g} differs from "
            f"-lambda*a = {-la:.17g}"
        )
    return d, T


@lru_cache(maxsize=128)
def _cached_dissipation(stencil: SchemeStencil) -> np.ndarray:
    """Read-only ``d`` of ``dissipation_and_boundary_form``; a stencil it
    rejects raises on every call, since exceptions are not cached."""
    d, _ = dissipation_and_boundary_form(stencil)
    d.flags.writeable = False
    return d


def _balance_rows(stencil: SchemeStencil, values, lengths,
                  dx: float = 1.0) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray]:
    """``(lhs, rhs, residual)`` of :func:`verify_energy_balance`, as arrays,
    for each of a batch of sequences, and each sequence's energy
    ``dx * sum_j v_j^2``.

    The batch is ragged: ``values`` holds the sequences end to end, and
    ``lengths`` the length of each, in order; one sequence ``v`` is
    ``(v, [len(v)])``.  This is the layout that
    ``Xoshiro256StarStar.symmetric_runs`` draws, so a chunk of random
    trials is never split into one array per trial.  The sequences are
    zero-extended, in their own order, into one 2-D array, which is
    stepped, squared and differenced once: the step is ``_next_level``
    applied to the transposed rows (one ordered multiply-add per offset,
    which is also what the march's kernel does for a single level), and
    every entry of a product or difference depends on its own cells alone.
    Each sum is one ``np.add.reduce`` masked to each row's own width,
    numpy's pairwise sum (no BLAS); over the padded width, the zeros would
    change where it splits a row.  So each sequence gets exactly the bits
    of a one-sequence call.  The energy is the sum of squares that ``lhs``
    already takes.  A balance that leaves the float range is refused with
    a ``ValueError`` naming the first such sequence's length.
    """
    d = _cached_dissipation(stencil)
    r, p = stencil.r, stencil.p
    pad = r + p
    lengths = np.asarray(lengths, dtype=np.intp)
    n = len(lengths)
    longest = int(lengths.max(initial=0))
    # vv holds the sequences in rows, zero-extended by pad cells each side
    # and padded to the longest; the stencil reads r more zeros left, p right
    width = longest + 2 * pad
    ext = np.zeros((n, width + r + p))
    vv = ext[:, r:r + width]
    vv[:, pad:pad + longest][np.arange(longest) < lengths[:, None]] = values

    def sums(x: np.ndarray, trim: int = 0) -> np.ndarray:
        # each row over its own width, less the trimmed cells: on numpy
        # 2.4.6 a prefix mask gives a row the bits of np.add.reduce on the
        # row cut to that width (test_balance_rows_are_bit_exact_per_row,
        # test_recorded_outputs_are_reproduced and tests/test_kernels.py)
        return np.add.reduce(x, axis=1, where=np.arange(x.shape[1])
                             < (lengths + 2 * pad - trim)[:, None])

    # the squares and sums may pass the float range: refused, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = np.empty(vv.shape)
        _next_level(stencil.coeff_array, ext.T, stepped.T)
        squares = sums(vv * vv)
        lhs = dx * (sums(stepped * stepped) - squares)
        rhs = np.zeros(n)
        for k, dk in enumerate(d, start=1):
            diffs = vv[:, k:] - vv[:, :-k]
            rhs += float(dk) * dx * sums(diffs * diffs, k)
        residual = np.abs(lhs - rhs)
        energy = dx * squares
    # a finite residual needs a finite lhs and rhs
    finite = np.isfinite(residual) & np.isfinite(energy)
    if not finite.all():
        raise ValueError(f"the energy balance of a sequence of length "
                         f"{lengths[finite.argmin()]} at dx={dx!r} leaves "
                         "the float range")
    return lhs, rhs, residual, energy


def verify_energy_balance(stencil: SchemeStencil, test_sequence,
                          dx: float = 1.0) -> tuple[float, float, float]:
    """Whole-line one-step energy balance on a compactly supported sequence.

    Returns ``(lhs, rhs, residual)`` with
    ``lhs = dx * sum_j ((step v)_j^2 - v_j^2)`` and
    ``rhs = sum_k d_k * dx * sum_j (v_{j+k-r} - v_{j-r})^2``.
    The two agree to rounding because the telescoping form cancels on the
    whole line.  The step is taken by the march's stencil kernel on the
    zero-extended sequence, through the row kernel that ``energy-check``
    runs on its chunks of sequences, so a sequence gets the same bits
    alone or in a chunk; ``d`` is computed once per stencil and
    reused by later calls.  An l2-stable stencil must show a nonpositive
    ``rhs``, up to 1e-12 of ``max(1, dx * sum_j v_j^2)``, the sequence
    energy that the kernel sums for ``lhs``; a violation raises, since it
    would mean the split itself is wrong.  The sequence must be
    finite and ``dx`` positive and finite, and a balance whose squares or
    sums pass the float range is refused with a ``ValueError``.
    """
    v = np.asarray(test_sequence, dtype=float)
    if v.ndim != 1:
        raise ValueError("test sequence must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise ValueError("test sequence must be finite")
    if not (dx > 0 and math.isfinite(dx)):
        raise ValueError("dx must be positive and finite")
    lhs, rhs, residual, energy = (float(x[0]) for x in
                                  _balance_rows(stencil, v, [v.size], dx))
    scale = max(1.0, energy)
    if check_l2_stability(stencil).is_stable and rhs > 1e-12 * scale:
        raise AssertionError(
            f"dissipation sum {rhs:.3e} is positive for an l2-stable "
            "stencil; the energy split is inconsistent"
        )
    return lhs, rhs, residual
