r"""One-step transition matrices and their spectral diagnostics.

Eliminating the ghost cells of the interval scheme turns one time step into
a dense ``J x J`` matrix: banded Toeplitz in the interior, perturbed in the
last rows where the outflow extrapolation folds ghost values back onto
interior cells.  Its column ``k`` is one march step of the unit level
``e_k``, built by the march's own ghost fill and stencil kernel, so the
matrix is the stepper itself rather than a second derivation of it.  This
module assembles that matrix and measures it: spectral radius, l2-induced
norm, norms of matrix powers, and smallest-singular-value grids for
pseudospectra.  The dense kernels are numpy's LAPACK; a LAPACK
failure is raised as ConvergenceError.

Norms and smallest singular values are well conditioned and come straight
from the SVD.  Eigenvalues are not, for these strongly non-normal matrices,
so they take one of three paths (``eigenvalue_path`` names it).  Triangular
matrices (one-sided stencils) return their diagonal.  Real tridiagonal
matrices (three-point stencils with ``kb <= 2``) are first mapped by a
diagonal similarity to a matrix whose off-diagonal pairs have equal moduli;
its eigenvalues are well conditioned.  Everything else is solved densely as
it stands, and there the extreme eigenvalue moduli at large ``J``
(``kb >= 3`` or wider stencils) are not well conditioned: float64 rounding
moves them by far more than machine precision, so they are points of the
machine-eps pseudospectrum rather than eigenvalues (Reichel & Trefethen,
LAA 162, 1992).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import _fill_outflow, extrapolation_weights
from .scheme import SchemeStencil
from .solver import _next_level

# Complex entries in one stacked SVD of the pseudospectrum grid (16 MB): a
# whole row of shifts at moderate J, fewer shifts per stack at large J.
_STACK_ENTRIES = 2 ** 20


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


@dataclass
class SpectralReport:
    spectral_radius: float
    l2_norm: float
    power_norms: np.ndarray | None = None
    pseudospectrum: PseudospectrumGrid | None = None

    def __post_init__(self) -> None:
        if self.spectral_radius > self.l2_norm + 1e-10:
            raise ValueError(
                f"spectral radius {self.spectral_radius} exceeds the "
                f"l2 norm {self.l2_norm}; one of the two is wrong"
            )


def assemble_transition_matrix(J: int, stencil: SchemeStencil,
                               kb: int) -> TransitionMatrix:
    """The one-step map of the march, one column per interior cell.

    Column ``k`` is one march step of the unit level ``e_k``, built by the
    march's own ghost fill and stencil kernel: the identity sits in the
    interior rows of one extended level, the inflow rows stay zero, the
    outflow rows are filled by ``boundary._fill_outflow`` and
    ``solver._next_level`` applies the stencil to all columns at once.
    """
    if kb < 0:
        raise ValueError("extrapolation order must be nonnegative")
    r, p = stencil.r, stencil.p
    if J < max(r, p, kb) + 1:
        raise ValueError(
            f"J={J} cannot express the ghost closures in interior cells "
            f"(need J >= {max(r, p, kb) + 1})"
        )
    ext = np.zeros((r + J + p, J))
    ext[r:r + J] = np.eye(J)
    _fill_outflow(ext, r + J, extrapolation_weights(kb), None)
    A = np.empty((J, J))
    _next_level(stencil.coeff_array, ext, A)
    return TransitionMatrix(J=J, entries=A)


def _entries(matrix) -> np.ndarray:
    A = getattr(matrix, "entries", matrix)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def _symmetrized_tridiagonal(A: np.ndarray) -> np.ndarray:
    """Diagonally similar copy of a real tridiagonal matrix whose
    off-diagonal pairs share one modulus.

    With sub-diagonal ``b`` and super-diagonal ``c``, the pair at
    ``(i+1, i), (i, i+1)`` becomes ``sign(b_i), sign(c_i)`` times
    ``sqrt(|b_i c_i|)``.  The scaling vector itself is never formed: for
    the transition matrices it grows geometrically in ``J`` and would
    overflow.  A zero product yields a zero pair, which is exact because
    the matrix is then block triangular with the same diagonal blocks.
    """
    b = np.diag(A, -1)
    c = np.diag(A, 1)
    r = np.sqrt(np.abs(b * c))
    return (np.diag(np.diag(A)) + np.diag(np.sign(b) * r, -1)
            + np.diag(np.sign(c) * r, 1))


def eigenvalue_path(matrix) -> str:
    """Which path ``eigenvalues`` takes: ``"triangular"``, ``"tridiagonal"``
    or ``"dense"``.

    Only the dense path can return extreme moduli that are not well
    conditioned, so callers that print radii use this to label them.
    """
    A = _entries(matrix)
    if not np.any(np.triu(A, 1)) or not np.any(np.tril(A, -1)):
        return "triangular"
    if not np.any(np.triu(A, 2)) and not np.any(np.tril(A, -2)):
        return "tridiagonal"
    return "dense"


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues, by a path chosen from the input's structure
    (``eigenvalue_path``).

    - Triangular input returns its diagonal, exactly.
    - Tridiagonal input (Lax-Wendroff and other three-point stencils with
      ``kb <= 2``) is replaced by its symmetrized similar copy, whose
      eigenvalues are well conditioned, and solved by LAPACK.  Large-``J``
      transition matrices are so non-normal that solving them directly in
      float64 returns pseudo-eigenvalues, with moduli drifting toward 1.
    - Anything else is solved by LAPACK as it stands.  For strongly
      non-normal input (``kb >= 3`` or wider stencils) the extreme moduli
      from this dense path are not well conditioned at large ``J``.

    A LAPACK failure is raised as ConvergenceError.
    """
    A = _entries(matrix)
    path = eigenvalue_path(A)
    if path == "triangular":
        # one-sided stencils: the spectrum is the diagonal, exactly; a
        # solver would trade that for Jordan-block sensitivity
        return np.diag(A).astype(complex)
    if path == "tridiagonal":
        A = _symmetrized_tridiagonal(A)
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"{path} eigenvalue solve did not converge: {exc}"
        ) from exc
    return eigs.astype(complex)


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus (all eigenvalues are computed).

    Follows the path of ``eigenvalues``: exact for triangular input and
    well conditioned for tridiagonal input, such as every Lax-Wendroff
    transition matrix with ``kb <= 2``.  For other strongly non-normal
    input the dense value is a float64 pseudo-eigenvalue modulus at large
    ``J``, not a conditioned radius.
    """
    eigs = eigenvalues(matrix)
    if len(eigs) == 0:
        return 0.0
    return float(np.max(np.abs(eigs)))


def _singular_values(B: np.ndarray) -> np.ndarray:
    """Singular values in descending order (stacked over leading axes)."""
    try:
        return np.linalg.svd(B, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"singular value decomposition did not converge: {exc}"
        ) from exc


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
                        budget: float = 2.5e9,
                        rtol: float = 1e-12) -> np.ndarray:
    """l2 norms of ``A^n`` for ``n = 0..n_max``.

    Each power is its predecessor times ``A``, and its norm is its largest
    singular value.  ``budget`` caps ``n_max * J^3``.  ``rtol`` is accepted
    for compatibility and has no effect.
    """
    A = _entries(matrix)
    n = A.shape[0]
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max * float(n) ** 3 > budget:
        raise ValueError(
            f"n_max * J^3 = {n_max * n ** 3:.2e} exceeds the flop budget "
            f"{budget:.2e}"
        )
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


def build_report(matrix, n_powers: int | None = None,
                 pseudo: PseudospectrumGrid | None = None) -> SpectralReport:
    """Bundle radius and norm (and optional extras) for one matrix."""
    power_norms = None
    if n_powers is not None:
        power_norms = power_norm_envelope(matrix, n_powers)
    return SpectralReport(spectral_radius=spectral_radius(matrix),
                          l2_norm=operator_norm_l2(matrix),
                          power_norms=power_norms,
                          pseudospectrum=pseudo)
