"""Independent expected values for the benchmark's output checks.

Nothing here imports ``transportbc``.  Each expected value is recomputed
from the problem statement with plain numpy (LAPACK through
``numpy.linalg`` for the dense spectral quantities), so agreement between
the package and this module is evidence rather than a tautology.

Conventions follow the package's documented interface: cells ``1..J`` of
width ``dx = L / J`` on ``(0, L]``, ``dt = lam * dx``, stencil weights for
offsets ``-r..p``, zero inflow ghosts, and outflow ghosts ``J+1..J+p``
filled left to right so that the ``kb``-th backward difference vanishes.
"""
from __future__ import annotations

import math

import numpy as np

# Paper table: sup-over-steps midpoint errors of Lax-Wendroff (a=1,
# lambda=0.7, T=0.5) for the datum ((x - 1/2)_+)^3, by kb and J.  The
# oracle's own march is checked against it before any check relies on it.
PAPER_SUP_ERRORS_ALPHA3 = {
    2: {10: 0.0025305, 20: 0.0008281875, 40: 0.0002314921875,
        80: 0.0000609287109375, 160: 0.0000156141357422,
        320: 0.00000397348640443, 640: 0.00000100290833469,
        1280: 0.000000251919175326},
    1: {10: 0.00833660625, 20: 0.00491559140625, 40: 0.00262908841699,
        80: 0.0013994637865, 160: 0.000720704311203,
        320: 0.000365563075521, 640: 0.00018408024467,
        1280: 0.0000923642961781},
}

# Gauss-Legendre rule used for cell averages of data with no closed form.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


class OracleError(RuntimeError):
    """The oracle disagrees with the paper's table: the benchmark is wrong."""


def builtin_weights(name: str, c: float) -> tuple[int, int, np.ndarray]:
    """``(r, p, weights)`` of a builtin scheme at Courant number ``c``."""
    if name == "upwind":
        return 1, 0, np.array([c, 1.0 - c])
    if name == "lax-friedrichs":
        return 1, 1, np.array([(1.0 + c) / 2.0, 0.0, (1.0 - c) / 2.0])
    if name == "lax-wendroff":
        return 1, 1, np.array([(c * c + c) / 2.0, 1.0 - c * c,
                               (c * c - c) / 2.0])
    raise KeyError(name)


def symbol_max_modulus(weights: np.ndarray, r: int) -> float:
    """Max of ``|sum_l w_l exp(i l theta)|`` on a fine uniform circle grid."""
    theta = np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False)
    offsets = np.arange(len(weights)) - r
    g = np.exp(1j * np.outer(theta, offsets)) @ weights
    return float(np.max(np.abs(g)))


class PowerKink:
    """The datum ``((x - c)_+)^alpha`` with closed-form cell averages."""

    def __init__(self, c: float, alpha: float) -> None:
        self.c, self.alpha = c, alpha

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x - self.c, 0.0) ** self.alpha

    def average(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        k = self.alpha + 1.0
        prim = lambda x: np.maximum(x - self.c, 0.0) ** k / k
        return (prim(hi) - prim(lo)) / (hi - lo)


def quadrature_average(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return 0.5 * sum(w * fn(mid + half * x) for x, w in zip(_GL_X, _GL_W))


def _fill_ghosts(ext: np.ndarray, J: int, r: int, p: int, kb: int) -> None:
    """Zero inflow ghosts; outflow ghosts kill the kb-th backward difference."""
    ext[:r] = 0.0
    binom = [(-1.0) ** (m + 1) * math.comb(kb, m) for m in range(1, kb + 1)]
    for q in range(p):
        pos = r + J + q
        ext[pos] = sum(b * ext[pos - m] for m, b in enumerate(binom, start=1))


def interval_errors(weights, r: int, p: int, kb: int, J: int, T: float,
                    lam: float, datum: PowerKink, start: str = "midpoint",
                    measure: str = "midpoint", a: float = 1.0):
    """March the interval scheme on ``(0, 1]`` to the first level at or past
    ``T``; returns per-level sup and l2 errors and the final interior.

    ``start`` picks midpoint samples or cell averages as initial values,
    ``measure`` the convention the exact solution is compared in.
    """
    dx = 1.0 / J
    dt = lam * dx
    steps = max(0, math.ceil(T / dt - 1e-9))
    lo = dx * np.arange(J)
    hi = lo + dx
    mid = lo + 0.5 * dx

    def exact(t: float, convention: str) -> np.ndarray:
        s = a * t
        if convention == "midpoint":
            return datum.value(mid - s)
        return datum.average(lo - s, hi - s)

    u = exact(0.0, start)
    ext = np.zeros(r + J + p)
    linf = np.zeros(steps + 1)
    l2 = np.zeros(steps + 1)
    for n in range(steps + 1):
        if n:
            ext[r:r + J] = u
            _fill_ghosts(ext, J, r, p, kb)
            u = sum(w * ext[i:i + J] for i, w in enumerate(weights))
        err = u - exact(n * dt, measure)
        linf[n] = np.max(np.abs(err))
        l2[n] = math.sqrt(dx * float(err @ err))
    return linf, l2, u


def sup_error_table(weights, r, p, kb, J_list, T, lam, datum):
    """Sup-over-steps midpoint errors and successive observed orders."""
    errors = [float(np.max(interval_errors(weights, r, p, kb, J, T, lam,
                                           datum)[0])) for J in J_list]
    orders = [math.nan] + [math.log(errors[i - 1] / errors[i])
                           / math.log(J_list[i] / J_list[i - 1])
                           for i in range(1, len(J_list))]
    return errors, orders


def check_against_paper(lam: float, T: float) -> None:
    """Raise OracleError unless the oracle reproduces the paper's table."""
    weights = builtin_weights("lax-wendroff", lam)[2]
    datum = PowerKink(0.5, 3.0)
    for kb, table in PAPER_SUP_ERRORS_ALPHA3.items():
        J_list = sorted(table)
        errors, _ = sup_error_table(weights, 1, 1, kb, J_list, T, lam, datum)
        for J, got in zip(J_list, errors):
            if abs(got - table[J]) > 1e-3 * table[J]:
                raise OracleError(f"oracle sup error {got!r} at kb={kb} "
                                  f"J={J} is off the paper's {table[J]!r}")


def halfline_ratio(weights, r: int, p: int, kb: int, J: int, steps: int,
                   lam: float, profile, gamma: float) -> float:
    """Weighted stability-functional ratio of a half-line outflow run.

    Cell-average data, zero sources; ``lhs = max_n w_n E_n + dt sum_n w_n
    |trace_n|^2`` over cells ``J+1-r-kb .. J+p``, ``rhs = E_0``.
    """
    dx = 1.0 / J
    dt = lam * dx
    edges = dx * np.arange(J + 1)
    u = quadrature_average(profile, edges[:-1], edges[1:])
    rhs = dx * float(u @ u)
    ext = np.zeros(r + J + p)
    lo = J - kb  # array position of cell J+1-r-kb
    peak = 0.0
    boundary = 0.0
    for n in range(steps + 1):
        ext[r:r + J] = u
        _fill_ghosts(ext, J, r, p, kb)
        w = math.exp(-2.0 * gamma * n * dt)
        peak = max(peak, w * dx * float(u @ u))
        trace = ext[lo:lo + r + kb + p]
        boundary += dt * w * float(trace @ trace)
        u = sum(c * ext[i:i + J] for i, c in enumerate(weights))
    return (peak + boundary) / rhs


def lax_wendroff_matrix(J: int, kb: int, c: float) -> np.ndarray:
    """Dense one-step map of Lax-Wendroff with the kb <= 2 outflow ghost
    written out in interior cells (inflow ghost pinned to zero)."""
    wm, w0, wp = builtin_weights("lax-wendroff", c)[2]
    A = w0 * np.eye(J) + wm * np.eye(J, k=-1) + wp * np.eye(J, k=1)
    if kb == 1:
        A[J - 1, J - 1] += wp
    elif kb == 2:
        A[J - 1, J - 1] += 2.0 * wp
        A[J - 1, J - 2] -= wp
    elif kb != 0:
        raise ValueError("closure written out for kb <= 2 only")
    return A


def l2_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, 2))


def power_norms(A: np.ndarray, n_max: int) -> np.ndarray:
    out = np.ones(n_max + 1)
    P = np.eye(A.shape[0])
    for k in range(1, n_max + 1):
        P = P @ A
        out[k] = l2_norm(P)
    return out


def sigma_min(B: np.ndarray) -> np.ndarray:
    """Smallest singular value of each matrix in a stack."""
    return np.linalg.svd(B, compute_uv=False)[..., -1]
