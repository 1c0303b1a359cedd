r"""Discrete integration by parts for the one-step energy change.

The quadratic form ``2 v_0 (S v - v_0) + (S v - v_0)^2`` (with ``S v`` the
stencil applied at offset 0) has the all-ones vector in its isotropic cone
whenever the coefficients sum to one.  Every zero-sum symmetric form splits,
uniquely, into squared differences against the first coordinate plus a
telescoping pair of copies of a smaller form:

    S = embed_last(T) - embed_first(T) + sum_k d_k * (e_1 - e_{1+k})(...)^T

Summing the stencil form over all cells telescopes the ``T`` terms away and
leaves the dissipation functional ``sum_k d_k sum_j (v_{j+k-r} - v_{j-r})^2``,
which is nonpositive exactly when the stencil is l2-stable.  Rewriting ``T``
in difference coordinates centered at the stencil origin produces the
boundary form ``Q`` whose value on the center direction is ``-lambda a``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scheme import SchemeStencil, check_l2_stability, consistency_order
from .solver import _next_level


@dataclass
class SymmetricForm:
    """A real symmetric matrix viewed as a quadratic form."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        S = np.asarray(self.matrix, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("form matrix must be square")
        if S.shape[0] < 1:
            raise ValueError("form must have at least one coordinate")
        if not np.array_equal(S, S.T):
            raise ValueError("form matrix must be exactly symmetric")
        self.matrix = S

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def zero_sum_residual(self) -> float:
        return abs(float(np.sum(self.matrix)))

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.matrix @ x)


@dataclass
class QuadDecomposition:
    """Split of a zero-sum form: reduced telescoping form plus difference
    squares weighted by ``d``."""

    reduced: np.ndarray
    d: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Rebuild the original m x m matrix from (reduced, d)."""
        T = self.reduced
        m = T.shape[0] + 1
        S = np.zeros((m, m))
        S[1:, 1:] += T
        S[:m - 1, :m - 1] -= T
        for k, dk in enumerate(self.d, start=1):
            S[0, 0] += dk
            S[k, k] += dk
            S[0, k] -= dk
            S[k, 0] -= dk
        return S


@dataclass
class BoundaryForm:
    """Quadratic form in difference coordinates
    ``(v_{2-r}-v_{1-r}, ..., v_0-v_{-1}, v_0, v_1-v_0, ..., v_p-v_{p-1})``."""

    Q: np.ndarray
    r: int

    def __call__(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.Q @ z)

    def center_value(self) -> float:
        """Value on the center direction (the lone undifferenced slot)."""
        return float(self.Q[self.r - 1, self.r - 1])


def amplification_expression(stencil: SchemeStencil, window) -> float:
    """Scalar ``2 v_0 (sum_l a_l v_l - v_0) + (sum_l a_l v_l - v_0)^2``
    on a window ``(v_{-r}, ..., v_p)``."""
    window = np.asarray(window, dtype=float)
    if window.shape != (stencil.r + stencil.p + 1,):
        raise ValueError("window length must be r + p + 1")
    v0 = window[stencil.r]
    delta = float(np.dot(stencil.coeff_array, window)) - v0
    return 2.0 * v0 * delta + delta * delta


def build_amplification_form(stencil: SchemeStencil) -> SymmetricForm:
    """Matrix of the one-step energy-change form on ``(v_{-r}, ..., v_p)``.

    Built as ``e0 w'^T + w' e0^T + w' w'^T`` with ``w`` the coefficient
    array and ``w' = w - e0``; exactly symmetric by construction and
    zero-sum whenever the coefficients sum to one.
    """
    if abs(math.fsum(stencil.coeffs) - 1.0) > 1e-12:
        raise ValueError("coefficients must sum to 1 so the constant "
                         "vector is isotropic for the energy form")
    w = stencil.coeff_array
    e0 = np.zeros_like(w)
    e0[stencil.r] = 1.0
    wp = w - e0
    S = np.outer(e0, wp) + np.outer(wp, e0) + np.outer(wp, wp)
    return SymmetricForm(S)


def decompose_zero_sum_form(form: SymmetricForm) -> QuadDecomposition:
    """Unique split of a zero-sum symmetric form.

    Peels the last coordinate: the corner entry fixes ``d_{m-1}``, the last
    column fixes the last column of the reduced form, and subtracting the
    determined pieces leaves a smaller zero-sum problem of the same shape.
    O(m^2) and exact up to rounding; no linear system is solved.
    """
    S = form.matrix
    if form.m < 2:
        raise ValueError("only forms of size >= 2 decompose")
    tol = 1e-12 * float(np.max(np.abs(S)))
    if form.zero_sum_residual() > tol:
        raise ValueError(
            f"form entries sum to {np.sum(S):.3e}, not 0; "
            "only zero-sum forms decompose"
        )
    m = form.m
    T = np.zeros((m - 1, m - 1))
    d = np.zeros(m - 1)
    W = S.copy()
    for size in range(m, 1, -1):
        k = size - 1  # 1-based index of the difference coefficient fixed now
        d[k - 1] = -W[0, size - 1]
        for i in range(1, size - 1):
            T[i - 1, k - 1] = W[i, size - 1]
            T[k - 1, i - 1] = W[i, size - 1]
        T[k - 1, k - 1] = W[size - 1, size - 1] - d[k - 1]
        # Fold the determined pieces back into the leading principal block.
        W[0, 0] -= d[k - 1]
        for i in range(size - 2):
            W[i, size - 2] += T[i, k - 1]
            W[size - 2, i] += T[k - 1, i]
        W[size - 2, size - 2] += T[k - 1, k - 1]
    return QuadDecomposition(reduced=T, d=d)


def _difference_coordinates_inverse(r: int, p: int) -> np.ndarray:
    """Inverse of ``y -> z``, ``z_i = y_{i+1}-y_i (i<r), y_r (i=r),
    y_i-y_{i-1} (i>r)`` on R^{p+r}; entries are 0 and +-1."""
    n = p + r
    Minv = np.zeros((n, n))
    for i in range(1, n + 1):  # 1-based coordinates
        Minv[i - 1, r - 1] = 1.0
        if i > r:
            Minv[i - 1, r:i] = 1.0
        elif i < r:
            Minv[i - 1, i - 1:r - 1] = -1.0
    return Minv


def dissipation_and_boundary_form(
        stencil: SchemeStencil) -> tuple[np.ndarray, BoundaryForm]:
    """Dissipation coefficients ``d_1..d_{p+r}`` and boundary form ``Q``.

    ``Q`` is the reduced form of the decomposition conjugated into the
    difference coordinates; its value on the center direction must come out
    as ``-lambda a`` (asserted), which is what makes the boundary term in
    the summed energy balance strictly damping.
    """
    report = consistency_order(stencil)
    if report.order < 1:
        raise ValueError("boundary form needs a first-order consistent "
                         f"stencil (moment {report.failed_moment} fails)")
    dec = decompose_zero_sum_form(build_amplification_form(stencil))
    Minv = _difference_coordinates_inverse(stencil.r, stencil.p)
    Q = Minv.T @ dec.reduced @ Minv
    Q = 0.5 * (Q + Q.T)  # re-symmetrize exactly after the two products
    la = stencil.lam * stencil.velocity_a
    center = Q[stencil.r - 1, stencil.r - 1]
    if abs(center + la) > 1e-12 * max(1.0, la):
        raise AssertionError(
            f"boundary form center value {center:.17g} differs from "
            f"-lambda*a = {-la:.17g}"
        )
    return dec.d, BoundaryForm(Q=Q, r=stencil.r)


@lru_cache(maxsize=128)
def _cached_stability(stencil: SchemeStencil):
    return check_l2_stability(stencil)


def verify_energy_balance(stencil: SchemeStencil, test_sequence,
                          dx: float = 1.0,
                          strict: bool = True) -> tuple[float, float, float]:
    """Whole-line one-step energy balance on a compactly supported sequence.

    Returns ``(lhs, rhs, residual)`` with
    ``lhs = dx * sum_j ((step v)_j^2 - v_j^2)`` and
    ``rhs = sum_k d_k * dx * sum_j (v_{j+k-r} - v_{j-r})^2``.
    The two agree to rounding because the telescoping form cancels on the
    whole line.  The step is taken by the march's stencil kernel on the
    zero-extended sequence.  With ``strict`` (default), an l2-stable
    stencil must show a nonpositive ``rhs`` (up to 1e-12 of the sequence
    energy); a violation raises, since it would mean the decomposition
    itself is wrong.
    """
    v = np.asarray(test_sequence, dtype=float)
    if v.ndim != 1:
        raise ValueError("test sequence must be one-dimensional")
    r, p = stencil.r, stencil.p
    pad = r + p
    # vv is v zero-extended by pad cells each side; the stencil reads r
    # more zeros left and p more right of it
    ext = np.zeros(len(v) + 2 * pad + r + p)
    vv = ext[r:len(ext) - p]
    vv[pad:pad + len(v)] = v
    stepped = np.empty_like(vv)
    _next_level(stencil.coeff_array, ext, stepped)
    lhs = dx * float(np.sum(stepped * stepped) - np.sum(vv * vv))

    d, _ = dissipation_and_boundary_form(stencil)
    rhs = 0.0
    for k, dk in enumerate(d, start=1):
        diffs = vv[k:] - vv[:-k]
        rhs += float(dk) * dx * float(np.sum(diffs * diffs))
    residual = abs(lhs - rhs)
    if strict:
        scale = max(1.0, dx * float(np.dot(v, v)))
        if _cached_stability(stencil).is_stable and rhs > 1e-12 * scale:
            raise AssertionError(
                f"dissipation sum {rhs:.3e} is positive for an l2-stable "
                "stencil; the energy split is inconsistent"
            )
    return lhs, rhs, residual
