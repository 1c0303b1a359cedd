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
batch of equal-length sequences at once; ``verify_energy_balance`` is that
kernel on one row, and ``energy-check`` runs it once per sequence length
of a chunk of random trials.  Each row's numbers have the same bits in any
batch, and every sum is numpy's pairwise ``np.sum``, not BLAS, so they
keep their bits under any BLAS kernel; each sequence's energy, the scale
of its checks, is summed once, by the kernel.
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
    constant window, ``1^T T 1``, must come out as ``-lambda a`` (asserted,
    summed exactly rounded by ``math.fsum``), which is what makes the
    boundary term in the summed energy balance strictly damping.  The
    stencil must be first-order consistent and reach a left neighbour
    (``r >= 1``).
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
    d, T = _energy_split(stencil)
    la = stencil.lam * stencil.velocity_a
    center = math.fsum(T.ravel())
    if abs(center + la) > 1e-12 * max(1.0, la):
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


def _balance_rows(stencil: SchemeStencil, rows: np.ndarray,
                  dx: float = 1.0) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray]:
    """``(lhs, rhs, residual)`` of :func:`verify_energy_balance`, as arrays,
    for each row of the 2-D array ``rows`` (one sequence per row, all of
    one length), and each row's energy ``dx * sum_j v_j^2``, the scale of
    its residual.

    Each row gets exactly the arithmetic of a one-row call: the step is
    ``_next_level`` applied to the transposed rows (one ordered
    multiply-add per offset, which is also what the march's kernel does
    for a single level), and every sum is ``np.sum`` along a contiguous
    row, numpy's own pairwise sum (no BLAS), which sums a row just as it
    sums a 1-D sequence of that length.  Rows of different lengths must
    therefore not share a call: zero padding would change the pairwise
    sums.  The energy is the sum of squares that ``lhs`` already takes, on
    the zero-extended row.
    """
    d = _cached_dissipation(stencil)
    r, p = stencil.r, stencil.p
    pad = r + p
    n, length = rows.shape
    # vv holds the rows zero-extended by pad cells each side; the stencil
    # reads r more zeros left and p more right of them
    ext = np.zeros((n, length + 2 * pad + r + p))
    vv = ext[:, r:ext.shape[1] - p]
    vv[:, pad:pad + length] = rows
    stepped = np.empty(vv.shape)
    _next_level(stencil.coeff_array, ext.T, stepped.T)
    squares = np.sum(vv * vv, axis=1)
    lhs = dx * (np.sum(stepped * stepped, axis=1) - squares)

    rhs = np.zeros(n)
    for k, dk in enumerate(d, start=1):
        diffs = vv[:, k:] - vv[:, :-k]
        rhs += float(dk) * dx * np.sum(diffs * diffs, axis=1)
    return lhs, rhs, np.abs(lhs - rhs), dx * squares


def verify_energy_balance(stencil: SchemeStencil, test_sequence,
                          dx: float = 1.0) -> tuple[float, float, float]:
    """Whole-line one-step energy balance on a compactly supported sequence.

    Returns ``(lhs, rhs, residual)`` with
    ``lhs = dx * sum_j ((step v)_j^2 - v_j^2)`` and
    ``rhs = sum_k d_k * dx * sum_j (v_{j+k-r} - v_{j-r})^2``.
    The two agree to rounding because the telescoping form cancels on the
    whole line.  The step is taken by the march's stencil kernel on the
    zero-extended sequence, through the row kernel that ``energy-check``
    runs on its batches of equal-length sequences, so a sequence gets the
    same bits alone or in a batch; ``d`` is computed once per stencil and
    reused by later calls.  An l2-stable stencil must show a nonpositive
    ``rhs``, up to 1e-12 of ``max(1, dx * sum_j v_j^2)``, the sequence
    energy that the kernel sums for ``lhs``; a violation raises, since it
    would mean the split itself is wrong.  The sequence must be
    finite and ``dx`` positive and finite.
    """
    v = np.asarray(test_sequence, dtype=float)
    if v.ndim != 1:
        raise ValueError("test sequence must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise ValueError("test sequence must be finite")
    if not (dx > 0 and math.isfinite(dx)):
        raise ValueError("dx must be positive and finite")
    lhs, rhs, residual, energy = (float(x[0]) for x in
                                  _balance_rows(stencil, v[None, :], dx))
    scale = max(1.0, energy)
    if check_l2_stability(stencil).is_stable and rhs > 1e-12 * scale:
        raise AssertionError(
            f"dissipation sum {rhs:.3e} is positive for an l2-stable "
            "stencil; the energy split is inconsistent"
        )
    return lhs, rhs, residual
