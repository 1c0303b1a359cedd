import itertools
import math
import warnings

import numpy as np
import pytest

from transportbc import spectral
from transportbc import (ConvergenceError, PseudospectrumGrid, SchemeStencil,
                         SpectralReport, TransitionMatrix,
                         assemble_transition_matrix, build_report,
                         eigenvalue_path, eigenvalues, make_builtin,
                         operator_norm_l2,
                         power_norm_envelope, pseudospectrum_grid,
                         smallest_singular_value, spectral_radius)

from _reference import REFERENCE_SPECTRA, naive_run

LW = make_builtin("lax_wendroff", 1.0, 0.7)


def _assert_spectra_match(got, ref, tol):
    """Multiset comparison by greedy nearest matching."""
    got = list(np.asarray(got, dtype=complex))
    ref = list(np.asarray(ref, dtype=complex))
    assert len(got) == len(ref)
    for g in got:
        dists = [abs(g - r) for r in ref]
        k = int(np.argmin(dists))
        assert dists[k] <= tol, (g, ref[k], dists[k])
        ref.pop(k)


def test_transition_matrix_validation():
    with pytest.raises(ValueError, match="J x J"):
        TransitionMatrix(J=3, entries=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="need J >="):
        assemble_transition_matrix(2, LW, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        assemble_transition_matrix(10, LW, -1)


def test_boundary_rows_fold_closures():
    am1, a0, ap1 = LW.coeffs
    J = 6
    A1 = assemble_transition_matrix(J, LW, 1).entries
    # interior row: plain Toeplitz band
    assert A1[2, 1:4] == pytest.approx([am1, a0, ap1])
    assert A1[2, [0, 4, 5]] == pytest.approx([0.0, 0.0, 0.0])
    # first row loses its inflow neighbor
    assert A1[0, :2] == pytest.approx([a0, ap1])
    # copy closure: u_{J+1} = u_J
    assert A1[J - 1, J - 2:] == pytest.approx([am1, a0 + ap1])

    A2 = assemble_transition_matrix(J, LW, 2).entries
    # linear closure: u_{J+1} = 2 u_J - u_{J-1}
    assert A2[J - 1, J - 2:] == pytest.approx([am1 - ap1, a0 + 2 * ap1])

    A0 = assemble_transition_matrix(J, LW, 0).entries
    # Dirichlet closure: ghost pinned to zero
    assert A0[J - 1, J - 2:] == pytest.approx([am1, a0])


def test_transition_matrix_reproduces_stepping():
    rng = np.random.default_rng(1234)
    for J in (5, 13, 40):
        for kb in (0, 1, 2):
            A = assemble_transition_matrix(J, LW, kb).entries
            for _ in range(5):
                u0 = rng.uniform(-1, 1, J)
                expected = naive_run(list(u0), list(LW.coeffs), 1, 1, kb, 1)
                assert A @ u0 == pytest.approx(expected[1], abs=1e-13)


def test_transition_matrix_recursive_ghosts():
    # p = 2 makes ghost J+2 reference ghost J+1: the fold must recurse
    st = SchemeStencil(r=1, p=2, coeffs=(0.4, 0.3, 0.2, 0.1),
                      velocity_a=1.0, lam=0.5)
    rng = np.random.default_rng(77)
    for kb in (1, 2, 3):
        A = assemble_transition_matrix(9, st, kb).entries
        u0 = rng.uniform(-1, 1, 9)
        expected = naive_run(list(u0), list(st.coeffs), 1, 2, kb, 1)
        assert A @ u0 == pytest.approx(expected[1], abs=1e-13)


@pytest.mark.parametrize("width", range(1, 15))
def test_transition_columns_are_bit_exact_march_steps(width):
    # column k is one step of the unit level e_k; compared bit for bit, so
    # a reordered stencil sum or a wrong ghost closure shows, which abs=1e-13
    # comparisons of A @ u0 cannot see
    rng = np.random.default_rng(5100 + width)
    for p, kb in itertools.product(range(min(width - 1, 5) + 1), range(5)):
        r = width - 1 - p
        coeffs = rng.uniform(-1.0, 1.0, width)
        coeffs[rng.random(width) < 0.25] = 0.0
        st = SchemeStencil(r=r, p=p, coeffs=tuple(coeffs), velocity_a=1.0,
                           lam=0.5)
        for J in range(max(r, p, kb) + 1, 18):
            A = assemble_transition_matrix(J, st, kb).entries
            for k in range(J):
                e_k = [0.0] * J
                e_k[k] = 1.0
                want = np.array(naive_run(e_k, list(st.coeffs), r, p, kb,
                                          steps=1)[1])
                case = (width, r, p, kb, J, k)
                assert np.array_equal(A[:, k], want), case
                assert np.array_equal(np.signbit(A[:, k]),
                                      np.signbit(want)), case


def test_eigenvalues_known_spectra():
    assert eigenvalues(np.zeros((0, 0))).shape == (0,)
    assert eigenvalues(np.array([[4.5]])) == pytest.approx([4.5])

    d = np.array([0.3, -1.2, 2.0, 0.7, 0.7])
    _assert_spectra_match(eigenvalues(np.diag(d)), d, 1e-12)

    rng = np.random.default_rng(8)
    Tri = np.triu(rng.uniform(-1, 1, (6, 6)))
    _assert_spectra_match(eigenvalues(Tri), np.diag(Tri), 1e-10)

    # symmetric Toeplitz tridiagonal: a + 2 b cos(k pi / (n+1))
    n, a, b = 12, 0.4, -0.25
    T = a * np.eye(n) + b * (np.eye(n, k=1) + np.eye(n, k=-1))
    ref = a + 2 * b * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    _assert_spectra_match(eigenvalues(T), ref, 1e-10)

    # tridiagonal with a zero off-diagonal product: block triangular, so
    # the spectrum is that of the diagonal blocks
    B = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]])
    ref = np.concatenate(([1.0], np.linalg.eigvals(B[1:, 1:])))
    _assert_spectra_match(eigenvalues(B), ref, 1e-12)

    # cyclic shift: the n-th roots of unity (complex pairs)
    C = np.roll(np.eye(5), 1, axis=0)
    ref = np.exp(2j * np.pi * np.arange(5) / 5)
    _assert_spectra_match(eigenvalues(C), ref, 1e-10)


def test_eigenvalues_match_library_on_random_matrices():
    rng = np.random.default_rng(60468)
    for _ in range(25):
        n = int(rng.integers(2, 18))
        A = rng.uniform(-1, 1, (n, n))
        ref = np.linalg.eigvals(A)
        _assert_spectra_match(eigenvalues(A), ref,
                              1e-8 * max(1.0, float(np.max(np.abs(A)))))


def test_transition_eigenvalues_match_high_precision():
    # The transition matrices are strongly non-normal: at J=40 a dense
    # float64 solve is already off by 1e-5 on the radius and up to 1e-3 on
    # single eigenvalues.  mpmath at 50 digits on the exact float64
    # entries is the independent oracle.  kb >= 3 takes the dense path,
    # whose single eigenvalues carry condition number times eps (1.6e-10
    # at kb=4); at J=20 its radius still agrees to 1e-11.
    mpmath = pytest.importorskip("mpmath")
    for J, kb, tol in ((40, 1, 1e-10), (40, 2, 1e-10), (20, 3, 1e-9),
                       (20, 4, 1e-9)):
        A = assemble_transition_matrix(J, LW, kb).entries
        with mpmath.workdps(50):
            ref = mpmath.eig(mpmath.matrix(A.tolist()), left=False,
                             right=False)
            ref = [complex(z) for z in ref]
        got = eigenvalues(A)
        _assert_spectra_match(got, ref, tol)
        assert np.max(np.abs(got)) == pytest.approx(
            max(abs(z) for z in ref), abs=1e-11)


def test_eigenvalue_input_validation():
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(np.array([[np.nan]]))


def test_dense_solver_failures_raise_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    C = np.roll(np.eye(3), 1, axis=0)  # cyclic shift: the dense path
    assert eigenvalue_path(C) == "dense"
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(ConvergenceError, match="dense eigenvalue solve"):
        eigenvalues(C)
    monkeypatch.setattr(np.linalg, "svd", fail)
    for call in (operator_norm_l2, smallest_singular_value,
                 lambda M: power_norm_envelope(M, 2),
                 lambda M: pseudospectrum_grid(M, resolution=2)):
        with pytest.raises(ConvergenceError, match="singular value"):
            call(C)


def test_tridiagonal_solver_failure_raises_convergence_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    A = assemble_transition_matrix(10, LW, 1)
    assert eigenvalue_path(A) == "tridiagonal"
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigenvalues(A)


def test_spectral_radius_of_triangular_transition():
    # upwind has p = 0: no outflow ghosts, the matrix is lower triangular
    up = make_builtin("upwind", 1.0, 0.7)
    A = assemble_transition_matrix(12, up, 1)
    assert np.max(np.abs(np.triu(A.entries, k=1))) == 0.0
    assert eigenvalue_path(A) == "triangular"
    assert spectral_radius(A) == pytest.approx(0.3, abs=1e-12)
    assert spectral_radius(np.eye(7)) == pytest.approx(1.0)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(5151)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        A = rng.uniform(-1, 1, (n, n))
        assert operator_norm_l2(A) == pytest.approx(
            float(np.linalg.svd(A, compute_uv=False)[0]), rel=1e-9)


def test_operator_norm_ignores_iteration_knobs():
    # rtol and max_iter are accepted and have no effect: no estimate is
    # cut short and nothing warns
    A = np.diag([3.0, 1.0])
    rng = np.random.default_rng(2)
    B = rng.uniform(-1, 1, (8, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert operator_norm_l2(A) == pytest.approx(3.0, rel=1e-12)
        assert operator_norm_l2(B, rtol=1e-3, max_iter=1) == \
            operator_norm_l2(B)


def test_reference_spectra_small_grid():
    # four-decimal reference values for the smallest tabulated size
    for kb in (1, 2):
        rho_ref, norm_ref = REFERENCE_SPECTRA[kb][20]
        A = assemble_transition_matrix(20, LW, kb)
        assert spectral_radius(A) == pytest.approx(rho_ref, abs=1e-4)
        assert operator_norm_l2(A) == pytest.approx(norm_ref, abs=1e-4)


def test_power_norm_envelope_basics():
    assert power_norm_envelope(np.eye(3), 0) == pytest.approx([1.0])
    norms = power_norm_envelope(2.0 * np.eye(4), 6)
    assert norms == pytest.approx(2.0 ** np.arange(7), rel=1e-12)
    with pytest.raises(ValueError, match="budget"):
        power_norm_envelope(np.eye(100), 3000)
    with pytest.raises(ValueError, match="nonnegative"):
        power_norm_envelope(np.eye(2), -1)


def test_power_norm_envelope_consistency():
    A = assemble_transition_matrix(20, LW, 1).entries
    norms = power_norm_envelope(A, 8)
    assert norms[0] == 1.0
    assert norms[1] == pytest.approx(operator_norm_l2(A), rel=1e-12)
    direct4 = operator_norm_l2(A @ A @ A @ A)
    assert norms[4] == pytest.approx(direct4, rel=1e-10)
    # submultiplicative up to estimator tolerance
    for i in range(1, 4):
        for j in range(1, 4):
            assert norms[i + j] <= norms[i] * norms[j] * (1 + 1e-9)
    # contractive closure: the whole envelope sits at or below the norm
    assert np.all(norms[1:] <= norms[1] + 1e-12)


def test_smallest_singular_value_matches_svd():
    rng = np.random.default_rng(777)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        B = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        ref = float(np.linalg.svd(B, compute_uv=False)[-1])
        assert smallest_singular_value(B) == pytest.approx(ref, rel=1e-7,
                                                           abs=1e-12)


def test_smallest_singular_value_singular_matrix():
    B = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    assert smallest_singular_value(B) <= 1e-8
    assert smallest_singular_value(np.zeros((3, 3), dtype=complex)) == 0.0


def test_pseudospectrum_grid_zero_matrix():
    grid = pseudospectrum_grid(np.zeros((4, 4)), re_range=(-1.0, 1.0),
                               im_range=(-1.0, 1.0), resolution=3)
    assert grid.sigma.shape == (3, 3)
    for i, b in enumerate(grid.im):
        for k, a in enumerate(grid.re):
            assert grid.sigma[i, k] == pytest.approx(abs(complex(a, b)),
                                                     abs=1e-12)


def test_pseudospectrum_orientation_and_normal_case(monkeypatch):
    # for a normal matrix sigma_min(zI - A) is the distance to the spectrum
    A = np.diag([0.25, -0.5])
    grid = pseudospectrum_grid(A, re_range=(-1.0, 1.0), im_range=(-1.0, 1.0),
                               resolution=5)
    z = complex(grid.re[4], grid.im[0])  # checks the sigma[i, k] convention
    dist = min(abs(z - 0.25), abs(z + 0.5))
    assert grid.sigma[0, 4] == pytest.approx(dist, rel=1e-9)
    # rows split into stacks of 2, 2 and 1 shifts give the same grid
    monkeypatch.setattr(spectral, "_STACK_ENTRIES", 8)
    split = pseudospectrum_grid(A, re_range=(-1.0, 1.0),
                                im_range=(-1.0, 1.0), resolution=5)
    assert np.array_equal(split.sigma, grid.sigma)
    with pytest.raises(ValueError, match="resolution"):
        pseudospectrum_grid(A, resolution=0)
    with pytest.raises(ValueError, match="resolution"):
        pseudospectrum_grid(A, resolution=513)


def test_spectral_report_validation_and_build():
    with pytest.raises(ValueError, match="exceeds"):
        SpectralReport(spectral_radius=1.0, l2_norm=0.5)
    rep = build_report(assemble_transition_matrix(15, LW, 2), n_powers=4)
    assert rep.spectral_radius <= rep.l2_norm + 1e-10
    assert rep.power_norms.shape == (5,)
    assert rep.pseudospectrum is None
    grid = PseudospectrumGrid(re=np.zeros(1), im=np.zeros(1),
                              sigma=np.zeros((1, 1)))
    rep2 = build_report(np.eye(3), pseudo=grid)
    assert rep2.pseudospectrum is grid
    assert rep2.spectral_radius == pytest.approx(1.0)


def test_operator_norm_of_matrices_with_kernels():
    # nilpotent, and a kernel holding the all-ones vector: no start vector
    # can fall into a kernel and understate the norm
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    K = np.array([[1.0, -1.0], [1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert operator_norm_l2(A) == pytest.approx(1.0, rel=1e-12)
        assert math.isfinite(spectral_radius(A))
        assert operator_norm_l2(K) == pytest.approx(2.0, rel=1e-12)
        assert operator_norm_l2(np.zeros((4, 4))) == 0.0
