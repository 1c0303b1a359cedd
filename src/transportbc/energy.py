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
the generator draws the chunk in.  The kernel steps, squares and
differences the whole batch in one zero-padded array, but sums each row
over its own length only: numpy's pairwise sum splits a row where its
length says, so a sum over the padded width would change the bits.  Each
row's numbers thus have the same bits in any batch, and every sum is
numpy's pairwise sum, not BLAS, so they keep their bits under any BLAS
kernel; each sequence's energy, the scale of its checks, is summed once,
by the kernel.
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


def _balance_rows(stencil: SchemeStencil, values, lengths,
                  dx: float = 1.0) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray]:
    """``(lhs, rhs, residual)`` of :func:`verify_energy_balance`, as arrays,
    for each of a batch of sequences, and each sequence's energy
    ``dx * sum_j v_j^2``, the scale of its residual.

    The batch is ragged: ``values`` holds the sequences end to end, and
    ``lengths`` the length of each, in order; one sequence ``v`` is
    ``(v, [len(v)])``.  This is the layout that
    ``Xoshiro256StarStar.symmetric_runs`` draws, so a chunk of random
    trials is never split into one array per trial.  The sequences are
    sorted by length and zero-extended into one 2-D array, which is
    stepped, squared and differenced once: the step is ``_next_level``
    applied to the transposed rows (one ordered multiply-add per offset,
    which is also what the march's kernel does for a single level), and
    every entry of a product or difference depends on its own cells alone.
    Only the sums are taken per length: each is ``np.add.reduce`` along a
    row cut to the row's own width, numpy's own pairwise sum (no BLAS),
    which sums a row as it sums a 1-D sequence of that length; summed over
    the padded width, the zeros would change where the pairwise sum
    splits.  So each sequence gets exactly the bits of a one-sequence
    call.  The energy is the sum of squares that ``lhs`` already takes, on
    the zero-extended row.
    """
    d = _cached_dissipation(stencil)
    r, p = stencil.r, stencil.p
    pad = r + p
    lengths = np.asarray(lengths, dtype=np.intp)
    n = len(lengths)
    order = np.argsort(lengths, kind="stable")
    longest = int(lengths.max(initial=0))
    widths, starts = np.unique(lengths[order] + 2 * pad, return_index=True)
    groups = list(zip(starts.tolist(), starts[1:].tolist() + [n],
                      widths.tolist()))
    # the sequences in rows, in their own order, zero-padded to the longest
    rows = np.zeros((n, longest))
    rows[np.arange(longest) < lengths[:, None]] = values
    # vv holds the rows by length, zero-extended by pad cells each side and
    # padded with zeros to the longest; the stencil reads r more zeros left
    # and p right
    width = longest + 2 * pad
    ext = np.zeros((n, width + r + p))
    vv = ext[:, r:r + width]
    vv[:, pad:pad + longest] = rows[order]

    def sums(x: np.ndarray, trim: int = 0) -> np.ndarray:
        # each row over its own width, less the trimmed cells
        out = np.empty(n)
        for a, b, w in groups:
            out[a:b] = np.add.reduce(x[a:b, :w - trim], axis=1)
        return out

    stepped = np.empty(vv.shape)
    _next_level(stencil.coeff_array, ext.T, stepped.T)
    squares = sums(vv * vv)
    lhs = dx * (sums(stepped * stepped) - squares)

    rhs = np.zeros(n)
    for k, dk in enumerate(d, start=1):
        diffs = vv[:, k:] - vv[:, :-k]
        rhs += float(dk) * dx * sums(diffs * diffs, k)
    back = np.empty(n, dtype=np.intp)
    back[order] = np.arange(n)
    return (lhs[back], rhs[back], np.abs(lhs - rhs)[back],
            (dx * squares)[back])


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
    # the squares and sums may pass the float range: refused, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs, residual, energy = (float(x[0]) for x in
                                      _balance_rows(stencil, v, [v.size], dx))
    if not all(map(math.isfinite, (lhs, rhs, residual, energy))):
        raise ValueError(
            f"the energy balance of a sequence of length {v.size} at "
            f"dx={dx!r} leaves the float range")
    scale = max(1.0, energy)
    if check_l2_stability(stencil).is_stable and rhs > 1e-12 * scale:
        raise AssertionError(
            f"dissipation sum {rhs:.3e} is positive for an l2-stable "
            "stencil; the energy split is inconsistent"
        )
    return lhs, rhs, residual
