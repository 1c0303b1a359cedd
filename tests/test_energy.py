import math
import re
import warnings

import numpy as np
import pytest

from _reference import (lagrange_weights, naive_amplification,
                        naive_energy_split)
from transportbc import energy
from transportbc import (SchemeStencil, consistency_order,
                         dissipation_and_boundary_form, format_stencil,
                         make_builtin, verify_energy_balance)

BUILTINS = ["upwind", "lax_friedrichs", "lax_wendroff"]


def test_amplification_form_needs_unit_coefficient_sum():
    st = SchemeStencil(r=1, p=0, coeffs=(0.5, 0.4), velocity_a=1.0, lam=0.5)
    with pytest.raises(ValueError, match="moment 0 fails"):
        dissipation_and_boundary_form(st)


def test_identity_stencil_gives_zero_form():
    ident = SchemeStencil(r=0, p=0, coeffs=(1.0,), velocity_a=1.0, lam=0.7)
    assert naive_amplification(ident.coeffs, 0, [2.5]) == 0.0
    d, T = energy._energy_split(ident)
    assert d.shape == (0,) and T.shape == (0, 0)
    with pytest.raises(ValueError, match="first-order"):
        dissipation_and_boundary_form(ident)


def test_consistent_downwind_stencil_is_refused_for_its_reach():
    # r = 0, p = 1 at lambda a = 0.3 is consistent to order 1, so the
    # refusal names the missing left neighbour, not consistency
    st = SchemeStencil(r=0, p=1, coeffs=(1.3, -0.3), velocity_a=1.0,
                       lam=0.3)
    assert consistency_order(st).order == 1
    with pytest.raises(ValueError, match=r"^boundary form needs r >= 1: "
                       "the stencil must reach a left neighbour$"):
        dissipation_and_boundary_form(st)


def test_decompose_two_by_two_closed_form():
    # two coefficients, center on either side: S has a single
    # off-diagonal entry s - s^2, so d = [s^2 - s] and T = [[+-s]]
    s = 0.37
    d, T = energy._energy_split(
        SchemeStencil(r=1, p=0, coeffs=(s, 1.0 - s), velocity_a=1.0,
                      lam=s))
    assert d == pytest.approx([s * s - s], abs=1e-15)
    assert T == pytest.approx(np.array([[-s]]), abs=1e-15)
    d, T = energy._energy_split(
        SchemeStencil(r=0, p=1, coeffs=(1.0 - s, s), velocity_a=1.0,
                      lam=s))
    assert d == pytest.approx([s * s - s], abs=1e-15)
    assert T == pytest.approx(np.array([[s]]), abs=1e-15)


def test_dissipation_closed_forms():
    up = make_builtin("upwind", 1.0, 0.7)
    d, T = dissipation_and_boundary_form(up)
    assert d == pytest.approx([0.7 ** 2 - 0.7], abs=1e-15)
    assert T == pytest.approx(np.array([[-0.7]]), abs=1e-14)
    assert math.fsum(T.ravel()) == pytest.approx(-0.7, abs=1e-14)

    lw = make_builtin("lax_wendroff", 1.0, 0.7)
    am1, a0, ap1 = lw.coeffs
    d, T = dissipation_and_boundary_form(lw)
    assert d == pytest.approx([-a0 * (am1 + ap1), -am1 * ap1], abs=1e-14)
    assert math.fsum(T.ravel()) == pytest.approx(-0.7, abs=1e-13)
    assert T == pytest.approx(T.T)


def test_boundary_center_is_minus_lambda_a():
    for name in BUILTINS:
        for lam in (0.3, 0.55, 1.0):
            st = make_builtin(name, 1.0, lam)
            _, T = dissipation_and_boundary_form(st)
            assert math.fsum(T.ravel()) == pytest.approx(-lam, abs=1e-12)


def test_dissipation_requires_first_order():
    ident = SchemeStencil(r=0, p=0, coeffs=(1.0,), velocity_a=1.0, lam=0.7)
    with pytest.raises(ValueError, match="first-order"):
        dissipation_and_boundary_form(ident)


def test_energy_balance_reuses_a_read_only_split(monkeypatch):
    # d is computed once per stencil and shared read-only; a stencil the
    # split rejects raises on every call, and the public split stays
    # uncached
    st = make_builtin("lax_wendroff", 1.0, 0.65)
    v = np.array([0.0, 1.0, -0.5, 0.25, 0.0])
    want = verify_energy_balance(st, v)
    d = energy._cached_dissipation(st)
    assert d is energy._cached_dissipation(st)
    assert not d.flags.writeable
    assert np.array_equal(d, dissipation_and_boundary_form(st)[0])
    fresh = dissipation_and_boundary_form(st)[0]
    assert fresh is not dissipation_and_boundary_form(st)[0]
    assert fresh.flags.writeable

    def split_must_not_run(stencil):
        raise AssertionError("split recomputed for a cached stencil")
    monkeypatch.setattr(energy, "dissipation_and_boundary_form",
                        split_must_not_run)
    assert verify_energy_balance(st, v) == want
    monkeypatch.undo()

    ident = SchemeStencil(r=0, p=1, coeffs=(1.0, 0.0), velocity_a=1.0,
                          lam=0.7)
    for _ in range(2):
        with pytest.raises(ValueError, match="first-order"):
            verify_energy_balance(ident, v)


def test_single_cell_energy_identity():
    # the pointwise split: form value = weighted difference squares
    # + telescoping boundary terms on the two overlapping sub-windows
    rng = np.random.default_rng(2718)
    for name in BUILTINS:
        for lam in (0.4, 0.7, 1.0):
            st = make_builtin(name, 1.0, lam)
            d, T = dissipation_and_boundary_form(st)
            m = st.r + st.p + 1
            for _ in range(60):
                v = rng.uniform(-2, 2, m)
                lhs = naive_amplification(st.coeffs, st.r, v)
                rhs = sum(dk * (v[k] - v[0]) ** 2
                          for k, dk in enumerate(d, start=1))
                rhs += v[1:] @ T @ v[1:] - v[:-1] @ T @ v[:-1]
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
        lhs, rhs, residual = verify_energy_balance(st, v)
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
        lhs, _, _ = verify_energy_balance(st, v, dx=0.125)
        assert lhs == want, (width, len(v))


def test_energy_balance_input_validation():
    st = make_builtin("upwind", 1.0, 0.7)
    with pytest.raises(ValueError, match="one-dimensional"):
        verify_energy_balance(st, np.zeros((3, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            verify_energy_balance(st, [0.0, bad, 1.0])
    for dx in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dx"):
            verify_energy_balance(st, [0.0, 1.0, 0.5], dx=dx)


@pytest.mark.parametrize("seq, dx", [
    ([1e160, -1e160], 1.0), ([1e308, 1e308], 1.0), ([10.0], 1e308)])
def test_energy_balance_refuses_the_float_range(seq, dx):
    # finite inputs whose squares, or dx times them, overflow: refused
    # with the sizes named, and no overflow warning on the way
    st = make_builtin("lax-wendroff", 1.0, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"length {len(seq)} at dx={dx!r}")):
            verify_energy_balance(st, seq, dx=dx)
        # ten orders of magnitude less, the squares stay in range
        out = verify_energy_balance(st, [1e150, -1e150])
    assert all(map(math.isfinite, out))


def test_energy_balance_dx_scaling():
    st = make_builtin("lax_wendroff", 1.0, 0.7)
    v = np.array([0.0, 1.0, -0.5, 0.25, 0.0])
    lhs1, rhs1, _ = verify_energy_balance(st, v, dx=1.0)
    lhs2, rhs2, _ = verify_energy_balance(st, v, dx=0.25)
    assert lhs2 == pytest.approx(0.25 * lhs1, rel=1e-14)
    assert rhs2 == pytest.approx(0.25 * rhs1, rel=1e-14)


def _lagrange(r, p, la):
    return SchemeStencil(r=r, p=p, coeffs=lagrange_weights(r, p, la),
                         velocity_a=1.0, lam=la)


def _lagrange_stencil(width, rng):
    """Lagrange stencil of ``width`` coefficients, random ``r`` and
    ``lam``."""
    r = int(rng.integers(1, width))
    return _lagrange(r, width - 1 - r, float(rng.uniform(0.05, 0.95)))


def _split_stencils():
    for name in BUILTINS:
        for lam in np.geomspace(1e-6, 1.0, 40):
            yield make_builtin(name, 1.0, float(lam))
    for r in range(5):
        for p in range(4):
            if r + p:
                for la in (0.05, 0.3, 0.5, 0.7, 0.95):
                    yield _lagrange(r, p, la)
    rng = np.random.default_rng(8080)
    for _ in range(600):
        yield _consistent_stencil(int(rng.integers(2, 13)), rng,
                                  lam=float(rng.uniform(0.05, 1.0)))


def test_energy_split_is_bit_exact_against_reference_peel():
    # d and T have the bits, signed zeros included, of the peel in
    # _reference; verify prints d with repr, so any other summation order
    # (np.correlate's, say) would change printed digits
    count = 0
    for st in _split_stencils():
        d, T = energy._energy_split(st)
        want_d, want_T = naive_energy_split(st.coeffs, st.r)
        want_d = np.array(want_d)
        want_T = np.array(want_T).reshape(T.shape)
        for got, want in ((d, want_d), (T, want_T)):
            assert got.shape == want.shape, format_stencil(st)
            assert np.array_equal(got, want), format_stencil(st)
            assert np.array_equal(np.signbit(got), np.signbit(want)), \
                format_stencil(st)
        count += 1
    assert count >= 3 * 40 + 19 * 5 + 600


def test_builtins_split_at_small_lambda():
    # max|S| shrinks with lambda a while the rounding in the form's sum
    # does not, so down to lambda = 1e-6 every builtin (and a Lagrange
    # stencil) must split and pass the center check
    for lam in np.geomspace(1e-6, 1.0, 2000):
        lam = float(lam)
        for st in [make_builtin(name, 1.0, lam) for name in BUILTINS] + \
                [_lagrange(2, 1, lam)]:
            _, T = dissipation_and_boundary_form(st)
            assert math.fsum(T.ravel()) == pytest.approx(-lam, abs=1e-12)


def _plain_balance(st, v, dx):
    """The one-step balance written as plain loops: the step cell by cell,
    in order from zero, and one difference sum per ``d_k``."""
    r, p = st.r, st.p
    pad = r + p
    vv = np.concatenate([np.zeros(pad), v, np.zeros(pad)])
    ext = np.concatenate([np.zeros(r), vv, np.zeros(p)])
    stepped = np.zeros_like(vv)
    for j in range(len(vv)):
        acc = 0.0
        for i, c in enumerate(st.coeffs):
            acc += c * ext[j + i]
        stepped[j] = acc
    lhs = dx * float(np.sum(stepped * stepped) - np.sum(vv * vv))
    rhs = 0.0
    for k, dk in enumerate(dissipation_and_boundary_form(st)[0], start=1):
        diffs = vv[k:] - vv[:-k]
        rhs += float(dk) * dx * float(np.sum(diffs * diffs))
    return lhs, rhs, abs(lhs - rhs)


def _same_bits(a, b):
    return a == b and np.signbit(a) == np.signbit(b)


@pytest.mark.parametrize("width", range(2, 15))
def test_balance_rows_are_bit_exact_per_row(width):
    # a row's (lhs, rhs, residual) in a batch has the bits of the one-row
    # call, of verify_energy_balance and of a plain loop, signed zeros
    # included, at lengths whose pairwise sums split differently
    rng = np.random.default_rng(7300 + width)
    st = _lagrange_stencil(width, rng)
    dx = (1.0, 0.37)[width % 2]
    for length in range(1, 41):
        rows = rng.uniform(-1.0, 1.0, (4, length))
        rows[rng.random(rows.shape) < 0.3] = -0.0
        rows[rng.random(rows.shape) < 0.15] = 0.0
        rows[1] = -0.0 if length % 2 else 0.0
        batch = energy._balance_rows(st, rows.ravel(), [length] * 4, dx)
        for i, v in enumerate(rows):
            one = [float(x[0]) for x in
                   energy._balance_rows(st, v, [length], dx)]
            plain = _plain_balance(st, v, dx)
            single = verify_energy_balance(st, v, dx=dx)
            for got, a, b, c in zip((x[i] for x in batch), one, plain,
                                    single):
                assert _same_bits(float(got), a), (width, length, i)
                assert _same_bits(a, b) and _same_bits(b, c), (width, length)
    # one ragged call: lengths 0..40 shuffled, most repeated, some once
    lengths = list(range(41)) + list(range(0, 41, 3)) * 2
    rng.shuffle(lengths)
    seqs = []
    for length in lengths:
        v = rng.uniform(-1.0, 1.0, length)
        v[rng.random(length) < 0.3] = -0.0
        v[rng.random(length) < 0.15] = 0.0
        seqs.append(v)
    seqs[lengths.index(7)][:] = -0.0
    batch = energy._balance_rows(st, np.concatenate(seqs), lengths, 0.37)
    for i, v in enumerate(seqs):
        one = [float(x[0]) for x in
               energy._balance_rows(st, v, [len(v)], 0.37)]
        got = [float(x[i]) for x in batch]
        assert all(map(_same_bits, got, one)), (width, len(v), i)
        assert all(map(_same_bits, one, _plain_balance(st, v, 0.37)))
