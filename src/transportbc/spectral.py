r"""One-step transition matrices and their spectral diagnostics.

Eliminating the ghost cells of the interval scheme turns one time step into
a dense ``J x J`` matrix: banded Toeplitz in the interior, perturbed in the
last rows where the outflow extrapolation folds ghost values back onto
interior cells.  It is one step of the solver's march from the identity,
one unit level per column, so it has the stepper's bits.  This module
assembles that matrix and measures it: spectral radius, l2-induced
norm, norms of matrix powers, and smallest-singular-value grids for
pseudospectra.  The dense kernels are numpy's LAPACK; a LAPACK
failure is raised as ConvergenceError.

Norms and smallest singular values are well conditioned and come straight
from the SVD.  Eigenvalues are not, for these strongly non-normal matrices:
solved as they stand in float64, the extreme moduli at large ``J`` are
points of the machine-eps pseudospectrum rather than eigenvalues (Reichel &
Trefethen, LAA 162, 1992).  So every matrix with nonzeros on both sides of
its diagonal is solved through one diagonally similar copy ``D^-1 A D``,
``D = diag(rho^j)``, with ``rho`` minimizing its Frobenius norm (Schmidt &
Spitzer, Math. Scand. 8, 1960); this scales each band ``a_l`` by
``rho^l`` and leaves the eigenvalues unchanged.  A triangular matrix
(one-sided stencils) returns its diagonal.  ``radius_condition`` gives the
condition number of the largest eigenvalue of the matrix actually solved,
so a radius that has stopped converging is labelled rather than hidden.
Both take the balanced copy from private helpers, so a caller that wants
the radius and its condition (``spectral`` on the command line) balances
each matrix once; the radius still comes from ``eigvals``, not from the
``eig`` the condition needs, which would move some radii in their last
bits.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .boundary import extrapolation_weights
from .scheme import SchemeStencil
from .solver import _march
from .state import _integer

# Complex entries in one stacked SVD of the pseudospectrum grid (16 MB): a
# whole row of shifts at moderate J, fewer shifts per stack at large J.
_STACK_ENTRIES = 2 ** 20

# Most entries, ``J * (J + r + p)``, in one level of the march that
# assembles a transition matrix (128 MB, J about 4096).  The march holds
# two such levels and the matrix, and ``spectral --J 4000`` already runs
# for more than a minute; the acceptance sweeps go to J = 1280.
_MAX_MATRIX_ENTRIES = 2 ** 24

# Cap on ``n_max * J^3`` in ``power_norm_envelope``: one matrix product and
# one SVD per power, so the cap bounds its flops.  ``spectral`` holds its
# dense work to the same cap.
ENVELOPE_BUDGET = 2.5e9


def _check_budget(work: int, what: str) -> None:
    """Refuse dense work past ``ENVELOPE_BUDGET``: ``work`` counts it in
    units of ``J^3`` flops, and ``what`` names that count in the
    message."""
    if work > ENVELOPE_BUDGET:
        # an integer past the float range has no float to print
        size = Decimal(work) if work > sys.float_info.max else work
        raise ValueError(f"{what} = {size:.2e} exceeds the flop budget "
                         f"{ENVELOPE_BUDGET:.2e}")


class ConvergenceError(RuntimeError):
    """A LAPACK eigenvalue or singular value computation did not converge."""


@dataclass
class TransitionMatrix:
    """Dense one-step map of the interval scheme (ghosts eliminated)."""

    J: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        A = np.asarray(self.entries, dtype=float)
        if A.shape != (self.J, self.J):
            raise ValueError("entries must be a J x J matrix")
        self.entries = A


@dataclass
class PseudospectrumGrid:
    """sigma_min(zI - A) sampled on a rectangle; sigma[i, k] belongs to
    z = re[k] + 1i * im[i]."""

    re: np.ndarray
    im: np.ndarray
    sigma: np.ndarray


def assemble_transition_matrix(J: int, stencil: SchemeStencil,
                               kb: int) -> TransitionMatrix:
    """The one-step map of the march, one column per interior cell.

    Column ``k`` is one march step of the unit level ``e_k``: the identity
    marches one step, one level per column, so every entry has the bits of
    the march.  A level of more than ``_MAX_MATRIX_ENTRIES`` entries is
    refused before any array is made, and a matrix whose entries, or ``J``
    times them, pass the float range after: its norm could overflow.
    """
    extrapolation_weights(kb)  # refuses a non-integer or negative order
    J = _integer(J, "cell count J")
    r, p = stencil.r, stencil.p
    if J < max(r, p, kb) + 1:
        raise ValueError(
            f"J={J} cannot express the ghost closures in interior cells "
            f"(need J >= {max(r, p, kb) + 1})"
        )
    if J * (J + r + p) > _MAX_MATRIX_ENTRIES:
        raise ValueError(
            f"J={J} is too large: a level of its transition matrix holds "
            f"{J * (J + r + p):.3g} entries, more than the cap of "
            f"{_MAX_MATRIX_ENTRIES:.3g}")
    # the march also fills the ghosts of A's own level, which may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        A = _march(np.eye(J), stencil, kb, 1)
    # J times the largest entry bounds the norm and every eigenvalue
    if not np.max(np.abs(A)) <= sys.float_info.max / J:
        raise ValueError("the transition matrix leaves the float range: "
                         "the stencil coefficients times the outflow "
                         "closure's weights overflow, or J times them does")
    return TransitionMatrix(J=J, entries=A)


def _entries(matrix) -> np.ndarray:
    A = getattr(matrix, "entries", matrix)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def _lapack(what: str, solver, *args, **kwargs):
    """``solver(*args, **kwargs)`` with a LAPACK failure raised as
    ConvergenceError naming ``what``."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{what} failed: {exc}") from exc


def _balanced(A: np.ndarray) -> np.ndarray | None:
    """The diagonally similar copy ``D^-1 A D``, ``D = diag(rho^j)``, of
    least Frobenius norm; None if ``A`` has no nonzero entry on one side of
    its diagonal, where no minimizer exists.

    Entry ``(i, k)`` is scaled by ``rho^l``, ``l = k - i``, so the squared
    norm is ``sum_l s_l rho^(2 l)`` over the sums ``s_l`` of squared entries
    on each offset: convex in ``log rho`` (Schmidt & Spitzer, Math. Scand. 8,
    1960).  For a tridiagonal Toeplitz band it gives the off-diagonal pairs
    one modulus.  ``log rho`` is the one positive root of a polynomial of
    degree ``max lag - min lag``, taken from one companion eigensolve and
    polished by one Newton step.  Only the nonzero entries are scaled, and
    in logs, and the polynomial is written about the point where the
    largest terms of each sign meet, scaled to a largest coefficient of
    one lag, so nothing underflows or overflows even where ``s_l`` or
    ``rho^J`` would; every scaled entry is at most ``||A||_F``, the norm at
    ``rho = 1``.
    """
    i, k = np.nonzero(A)
    lag = k - i
    if not (np.any(lag < 0) and np.any(lag > 0)):
        return None
    a = A[i, k]
    log_a = np.log(np.abs(a))
    order = np.argsort(lag, kind="stable")
    lags, first = np.unique(lag[order], return_index=True)
    # log of each offset's sum of squares; the diagonal's is constant in rho
    log_s = np.logaddexp.reduceat(2 * log_a[order], first)
    lags, log_s = lags[lags != 0], log_s[lags != 0]
    below, above = lags < 0, lags > 0
    # c, where the largest term s_l exp(2 l t) of each sign of l meet, is
    # within log J of the minimizer t = log rho
    c = np.min(np.max((log_s[below] - log_s[above, None])
                      / (2 * (lags[above, None] - lags[below])), axis=1))
    # t solves sum_l l s_l exp(2 l t) = 0; with x = exp(2 (t - c)) and times
    # x^-min(lag) that is a polynomial whose coefficients change sign once
    # (negative lags, then positive), so by Descartes' rule of signs it has
    # exactly one positive root: the companion eigenvalue nearest the
    # positive real axis.  The largest coefficients are at least 1; those
    # below eps are dropped, since they would only add roots far from 1.
    e = log_s + 2 * lags * c
    coeffs = np.zeros(lags[-1] - lags[0] + 1)
    coeffs[lags[-1] - lags] = lags * np.exp(e - np.max(e))
    coeffs[np.abs(coeffs) < np.finfo(float).eps] = 0.0
    roots = _lapack("eigenvalue computation", np.roots, np.trim_zeros(coeffs))
    t = c + 0.5 * np.log(roots[np.argmin(np.abs(np.angle(roots)))].real)
    # the companion's roots are accurate to eps of its largest entry: one
    # Newton step on the whole sum restores the rest
    u = log_s + 2 * lags * t
    w = lags * np.exp(u - np.max(u))
    t -= np.sum(w) / (2 * np.sum(lags * w))
    B = np.zeros_like(A)
    B[i, k] = np.copysign(np.exp(log_a + lag * t), a)
    return B


def _eigenvalues(A: np.ndarray, B: np.ndarray | None) -> np.ndarray:
    """The eigenvalues of ``A`` from its balanced copy ``B``
    (``_balanced(A)``): the diagonal of ``A`` when ``B`` is None."""
    if B is None:
        # one-sided stencils: the spectrum is the diagonal, exactly; a
        # solver would trade that for Jordan-block sensitivity
        return np.diag(A).astype(complex)
    vals = _lapack("eigenvalue computation", np.linalg.eigvals, B)
    return vals.astype(complex)


def _condition(B: np.ndarray | None) -> float:
    """``radius_condition`` of the matrix whose balanced copy is ``B``."""
    if B is None:
        return 1.0
    vals, right = _lapack("eigenvalue computation", np.linalg.eig, B)
    j = int(np.argmax(np.abs(vals)))
    # row j of right^-1 is the left eigenvector scaled to y^H x = 1; with a
    # unit x, its length is 1 / |y^H x| for the unit y
    left = _lapack("eigenvalue computation", np.linalg.solve, right.T,
                   np.eye(len(vals))[j])
    with np.errstate(over="ignore"):  # inf: no condition left to measure
        return float(np.linalg.norm(left))


def _radius(eigs: np.ndarray) -> float:
    return float(np.max(np.abs(eigs))) if len(eigs) else 0.0


def _radius_and_condition(matrix) -> tuple[float, float]:
    """``spectral_radius`` and ``radius_condition`` of ``matrix``, with the
    same bits, from one balanced copy.  The radius keeps ``eigvals``: the
    largest modulus of the ``eig`` that the condition needs differed from
    it in the last bits for some matrices of 160 cells or more."""
    A = _entries(matrix)
    B = _balanced(A)
    return _radius(_eigenvalues(A, B)), _condition(B)


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues: the diagonal of a triangular input, exactly, and
    LAPACK's eigenvalues of the balanced similar copy of any other.

    The transition matrices are so non-normal that solving them as they
    stand in float64 returns pseudo-eigenvalues, whose moduli drift toward 1
    at large ``J``; the balanced copy is far closer to normal, and
    ``radius_condition`` measures how close for the largest eigenvalue.
    A LAPACK failure is raised as ConvergenceError.
    """
    A = _entries(matrix)
    return _eigenvalues(A, _balanced(A))


def radius_condition(matrix) -> float:
    """Condition number ``1 / |y^H x|`` (unit right and left eigenvectors
    ``x``, ``y``) of the largest-modulus eigenvalue of the matrix that
    ``eigenvalues`` solves; 1.0 for triangular input, whose diagonal is
    exact.

    A perturbation of relative size ``eps`` moves that eigenvalue by about
    ``condition * eps`` times the solved matrix's norm, so a large value
    marks a radius that has stopped converging.  A LAPACK failure is raised
    as ConvergenceError.
    """
    return _condition(_balanced(_entries(matrix)))


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus (all eigenvalues are computed), by the
    path of ``eigenvalues``; ``radius_condition`` gives its condition
    number.
    """
    return _radius(eigenvalues(matrix))


def _singular_values(B: np.ndarray) -> np.ndarray:
    """Singular values in descending order (stacked over leading axes)."""
    return _lapack("singular value decomposition", np.linalg.svd, B,
                   compute_uv=False)


def _norm2(A: np.ndarray) -> float:
    return float(_singular_values(A)[0]) if len(A) else 0.0


def operator_norm_l2(matrix, rtol: float = 1e-12,
                     max_iter: int = 100000) -> float:
    """l2-induced norm: the largest singular value, from LAPACK's SVD.

    ``rtol`` and ``max_iter`` are accepted for compatibility and have no
    effect: singular values are well conditioned, and the SVD returns
    them to rounding.
    """
    return _norm2(_entries(matrix))


def power_norm_envelope(matrix, n_max: int,
                        rtol: float = 1e-12) -> np.ndarray:
    """l2 norms of ``A^n`` for ``n = 0..n_max``.

    Each power is its predecessor times ``A``, and its norm is its largest
    singular value.  ``n_max * J^3`` may not exceed ``ENVELOPE_BUDGET``.
    ``rtol`` is accepted for compatibility and has no effect.
    """
    A = _entries(matrix)
    n = A.shape[0]
    n_max = _integer(n_max, "n_max")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _check_budget(n_max * n ** 3, "n_max * J^3")
    norms = np.ones(n_max + 1)
    P = np.eye(n)
    for k in range(1, n_max + 1):
        P = P @ A
        norms[k] = _norm2(P)
    return norms


def smallest_singular_value(B: np.ndarray) -> float:
    """sigma_min of a real or complex square matrix, from LAPACK's SVD."""
    return float(_singular_values(np.asarray(B))[-1])


def pseudospectrum_grid(matrix, re_range: tuple[float, float] = (-1.5, 1.5),
                        im_range: tuple[float, float] = (-1.5, 1.5),
                        resolution: int = 64) -> PseudospectrumGrid:
    """sigma_min(zI - A) on a uniform rectangle of complex shifts.

    The epsilon-pseudospectrum is the sublevel set ``sigma <= epsilon`` of
    the returned grid.  The shifts of one grid row go through LAPACK as one
    stacked SVD, split into several when a row would hold more than
    ``_STACK_ENTRIES`` complex entries, so memory stays bounded at large
    ``J`` and ``resolution``.
    """
    resolution = _integer(resolution, "resolution")
    if not 1 <= resolution <= 512:
        raise ValueError("resolution must be between 1 and 512 per axis")
    A = _entries(matrix)
    eye = np.eye(A.shape[0])
    step = max(1, min(resolution, _STACK_ENTRIES // max(1, A.size)))
    re = np.linspace(re_range[0], re_range[1], resolution)
    im = np.linspace(im_range[0], im_range[1], resolution)
    sigma = np.zeros((resolution, resolution))
    for i, b in enumerate(im):
        for k in range(0, resolution, step):
            shifts = np.multiply.outer(re[k:k + step] + 1j * b, eye)
            shifts -= A
            sigma[i, k:k + step] = _singular_values(shifts)[:, -1]
    return PseudospectrumGrid(re=re, im=im, sigma=sigma)

