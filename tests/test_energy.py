import numpy as np
import pytest

from transportbc import (BoundaryForm, QuadDecomposition, SchemeStencil,
                         SymmetricForm, amplification_expression,
                         build_amplification_form, decompose_zero_sum_form,
                         dissipation_and_boundary_form, make_builtin,
                         verify_energy_balance)

BUILTINS = ["upwind", "lax_friedrichs", "lax_wendroff"]


def _difference_coords(w, r):
    """Map window tail (w_1..w_{r+p}) to the coordinates BoundaryForm uses."""
    w = np.asarray(w, dtype=float)
    n = len(w)
    z = np.empty(n)
    for i in range(1, n + 1):
        if i < r:
            z[i - 1] = w[i] - w[i - 1]
        elif i == r:
            z[i - 1] = w[r - 1]
        else:
            z[i - 1] = w[i - 1] - w[i - 2]
    return z


def test_symmetric_form_validation():
    with pytest.raises(ValueError, match="square"):
        SymmetricForm(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricForm(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))
    f = SymmetricForm(np.array([[2.0]]))
    assert f.m == 1 and f([3.0]) == pytest.approx(18.0)
    g = SymmetricForm(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert g.zero_sum_residual() == 0.0
    assert g([1.0, 4.0]) == pytest.approx(9.0)


def test_amplification_form_upwind_entries():
    up = make_builtin("upwind", 1.0, 0.5)
    S = build_amplification_form(up).matrix
    # window (v_{-1}, v_0): new^2 - v_0^2 = .25 x^2 + .5 x y - .75 y^2
    assert S == pytest.approx(np.array([[0.25, 0.25], [0.25, -0.75]]))


def test_amplification_form_matches_scalar_expression():
    rng = np.random.default_rng(7)
    for name in BUILTINS:
        st = make_builtin(name, 1.0, 0.7)
        form = build_amplification_form(st)
        assert form.zero_sum_residual() <= 1e-14
        ones = np.ones(form.m)
        assert abs(form(ones)) <= 1e-12
        for _ in range(50):
            v = rng.uniform(-2, 2, form.m)
            assert form(v) == pytest.approx(
                amplification_expression(st, v), rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError, match="window length"):
        amplification_expression(make_builtin("upwind", 1.0, 0.5), [1.0])


def test_amplification_form_needs_unit_coefficient_sum():
    st = SchemeStencil(r=1, p=0, coeffs=(0.5, 0.4), velocity_a=1.0, lam=0.5)
    with pytest.raises(ValueError, match="sum to 1"):
        build_amplification_form(st)


def test_identity_stencil_gives_zero_form():
    ident = SchemeStencil(r=0, p=0, coeffs=(1.0,), velocity_a=1.0, lam=0.7)
    form = build_amplification_form(ident)
    assert form.m == 1
    assert form.matrix == pytest.approx(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="size >= 2"):
        decompose_zero_sum_form(form)


def test_decompose_two_by_two_closed_form():
    s = 0.37
    form = SymmetricForm(np.array([[s, -s], [-s, s]]))
    dec = decompose_zero_sum_form(form)
    assert dec.d == pytest.approx([s])
    assert dec.reduced == pytest.approx(np.array([[0.0]]))
    assert dec.reconstruct() == pytest.approx(form.matrix)


def test_decompose_rejects_nonzero_sum():
    with pytest.raises(ValueError, match="zero-sum"):
        decompose_zero_sum_form(SymmetricForm(np.eye(3)))


def test_decompose_reconstructs_random_forms():
    rng = np.random.default_rng(314159)
    for _ in range(300):
        m = int(rng.integers(2, 13))
        A = rng.uniform(-1, 1, (m, m))
        S = A + A.T
        S = S - np.sum(S) / (m * m)
        form = SymmetricForm(S)
        dec = decompose_zero_sum_form(form)
        assert dec.reconstruct() == pytest.approx(
            S, abs=1e-13 * max(1.0, float(np.max(np.abs(S)))))
        # the split is unique: re-decomposing the reconstruction returns it
        again = decompose_zero_sum_form(SymmetricForm(dec.reconstruct()))
        assert again.d == pytest.approx(dec.d, abs=1e-12)
        assert again.reduced == pytest.approx(dec.reduced, abs=1e-12)


def test_reconstruct_shape_convention():
    dec = QuadDecomposition(reduced=np.array([[2.0]]), d=np.array([3.0]))
    S = dec.reconstruct()
    # embed_last - embed_first + d corners, spelled out for m = 2
    assert S == pytest.approx(np.array([[3.0 - 2.0, -3.0], [-3.0, 2.0 + 3.0]]))


def test_dissipation_closed_forms():
    up = make_builtin("upwind", 1.0, 0.7)
    d, Q = dissipation_and_boundary_form(up)
    assert d == pytest.approx([0.7 ** 2 - 0.7], abs=1e-15)
    assert Q.Q == pytest.approx(np.array([[-0.7]]), abs=1e-14)
    assert Q.center_value() == pytest.approx(-0.7, abs=1e-14)

    lw = make_builtin("lax_wendroff", 1.0, 0.7)
    am1, a0, ap1 = lw.coeffs
    d, Q = dissipation_and_boundary_form(lw)
    assert d == pytest.approx([-a0 * (am1 + ap1), -am1 * ap1], abs=1e-14)
    assert Q.center_value() == pytest.approx(-0.7, abs=1e-13)
    assert Q.Q == pytest.approx(Q.Q.T)


def test_boundary_center_is_minus_lambda_a():
    for name in BUILTINS:
        for lam in (0.3, 0.55, 1.0):
            st = make_builtin(name, 1.0, lam)
            _, Q = dissipation_and_boundary_form(st)
            assert Q.center_value() == pytest.approx(-lam, abs=1e-12)


def test_dissipation_requires_first_order():
    ident = SchemeStencil(r=0, p=0, coeffs=(1.0,), velocity_a=1.0, lam=0.7)
    with pytest.raises(ValueError, match="first-order"):
        dissipation_and_boundary_form(ident)


def test_boundary_form_represents_reduced_form():
    # Q in difference coordinates and the reduced form in window
    # coordinates are the same function
    rng = np.random.default_rng(99)
    for name in BUILTINS:
        st = make_builtin(name, 1.0, 0.7)
        dec = decompose_zero_sum_form(build_amplification_form(st))
        _, Q = dissipation_and_boundary_form(st)
        for _ in range(40):
            w = rng.uniform(-2, 2, st.r + st.p)
            z = _difference_coords(w, st.r)
            assert Q(z) == pytest.approx(float(w @ dec.reduced @ w),
                                         rel=1e-12, abs=1e-12)


def test_single_cell_energy_identity():
    # the pointwise split: form value = weighted difference squares
    # + telescoping boundary terms on the two overlapping sub-windows
    rng = np.random.default_rng(2718)
    for name in BUILTINS:
        for lam in (0.4, 0.7, 1.0):
            st = make_builtin(name, 1.0, lam)
            d, Q = dissipation_and_boundary_form(st)
            m = st.r + st.p + 1
            for _ in range(60):
                v = rng.uniform(-2, 2, m)
                lhs = amplification_expression(st, v)
                rhs = sum(dk * (v[k] - v[0]) ** 2
                          for k, dk in enumerate(d, start=1))
                rhs += Q(_difference_coords(v[1:], st.r))
                rhs -= Q(_difference_coords(v[:-1], st.r))
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_energy_balance_stable_builtins():
    rng = np.random.default_rng(424242)
    for name in BUILTINS:
        st = make_builtin(name, 1.0, 0.7)
        for _ in range(25):
            v = rng.uniform(-1, 1, int(rng.integers(5, 40)))
            lhs, rhs, residual = verify_energy_balance(st, v, dx=0.01)
            scale = max(1.0, 0.01 * float(np.dot(v, v)))
            assert residual <= 1e-12 * scale
            assert rhs <= 1e-12 * scale  # dissipative, never produces energy
            assert lhs <= 1e-12 * scale


def test_energy_balance_exact_shift():
    st = make_builtin("upwind", 1.0, 1.0)  # lambda a = 1: pure shift
    v = np.array([0.25, -1.5, 2.0, 0.75])  # dyadic, so sums are exact
    lhs, rhs, residual = verify_energy_balance(st, v)
    assert lhs == 0.0
    assert rhs == 0.0
    assert residual == 0.0


def test_energy_balance_holds_for_unstable_stencil():
    st = make_builtin("lax_wendroff", 1.0, 1.1, enforce_cfl=False)
    rng = np.random.default_rng(11)
    grew = False
    for _ in range(20):
        v = rng.uniform(-1, 1, 30)
        lhs, rhs, residual = verify_energy_balance(st, v, strict=True)
        assert residual <= 1e-12 * max(1.0, float(np.dot(v, v)))
        grew = grew or rhs > 0
    assert grew  # an amplifying stencil must show energy production


def _consistent_stencil(width, rng, lam=0.4):
    """Random first-order consistent stencil of ``width`` coefficients,
    some exactly zero; its two end weights solve the two moment equations."""
    r = int(rng.integers(1, width))
    p = width - 1 - r
    ell = np.arange(-r, p + 1, dtype=float)
    w = rng.uniform(-0.3, 0.3, width)
    w[rng.random(width) < 0.25] = 0.0
    mid = slice(1, width - 1)
    w[[0, -1]] = np.linalg.solve(
        [[1.0, 1.0], [ell[0], ell[-1]]],
        [1.0 - w[mid].sum(), -lam - float(np.dot(ell[mid], w[mid]))])
    return SchemeStencil(r=r, p=p, coeffs=tuple(w), velocity_a=1.0, lam=lam)


@pytest.mark.parametrize("width", range(2, 15))
def test_energy_balance_lhs_is_bit_exact_against_scalar_loop(width):
    # width 1 has no first-order consistent stencil with a > 0, so
    # verify_energy_balance cannot be called on it
    rng = np.random.default_rng(6100 + width)
    st = _consistent_stencil(width, rng)
    r, p = st.r, st.p
    for _ in range(20):
        v = rng.uniform(-1.0, 1.0, int(rng.integers(0, 60)))
        v[rng.random(len(v)) < 0.3] = -0.0
        vv = np.concatenate([np.zeros(r + p), v, np.zeros(r + p)])
        stepped = np.zeros_like(vv)
        for j in range(len(vv)):
            acc = 0.0
            for i, c in enumerate(st.coeffs):
                if 0 <= j + i - r < len(vv):
                    acc += c * vv[j + i - r]
            stepped[j] = acc
        want = 0.125 * float(np.sum(stepped * stepped) - np.sum(vv * vv))
        lhs, _, _ = verify_energy_balance(st, v, dx=0.125, strict=False)
        assert lhs == want, (width, len(v))


def test_energy_balance_input_validation():
    st = make_builtin("upwind", 1.0, 0.7)
    with pytest.raises(ValueError, match="one-dimensional"):
        verify_energy_balance(st, np.zeros((3, 3)))


def test_energy_balance_dx_scaling():
    st = make_builtin("lax_wendroff", 1.0, 0.7)
    v = np.array([0.0, 1.0, -0.5, 0.25, 0.0])
    lhs1, rhs1, _ = verify_energy_balance(st, v, dx=1.0)
    lhs2, rhs2, _ = verify_energy_balance(st, v, dx=0.25)
    assert lhs2 == pytest.approx(0.25 * lhs1, rel=1e-14)
    assert rhs2 == pytest.approx(0.25 * rhs1, rel=1e-14)


def test_boundary_form_is_callable_dataclass():
    Q = BoundaryForm(Q=np.array([[2.0, 0.0], [0.0, 1.0]]), r=1)
    assert Q([1.0, 3.0]) == pytest.approx(11.0)
    assert Q.center_value() == pytest.approx(2.0)
