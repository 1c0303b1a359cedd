import math

import numpy as np
import pytest

from transportbc import (BoundarySpec, FieldState, fill_inflow_ghosts,
                         fill_outflow_ghosts)
from transportbc.boundary import extrapolation_weights

from _reference import naive_backward_difference


def test_boundary_spec_validation():
    BoundarySpec(outflow_order_kb=0)
    with pytest.raises(ValueError):
        BoundarySpec(outflow_order_kb=-1)
    for bad in (1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="integer"):
            BoundarySpec(bad)
    # C(1030, 515) is the first weight past the float range: from there on
    # the order is refused before any weight is built
    assert all(math.isfinite(float(w)) for w in extrapolation_weights(1029))
    for kb in (1030, 1100):
        with pytest.raises(ValueError, match=f"k_b = {kb} is too large"):
            BoundarySpec(kb)
    bc = BoundarySpec(np.int64(2))
    assert type(bc.outflow_order_kb) is int and bc.outflow_order_kb == 2
    with pytest.raises(TypeError):  # the inflow rule is not a parameter
        BoundarySpec(outflow_order_kb=1, inflow="periodic")


def test_fill_inflow_zeroes_left_ghosts():
    state = FieldState(J=5, r=2, p=1)
    state.values[:] = 1.0
    fill_inflow_ghosts(state)
    assert np.all(state.left_ghosts == 0.0)
    assert np.all(state.interior == 1.0)


def test_fill_outflow_closed_forms():
    # kb=0: ghosts take the source (default zero); kb=1: copy the last cell;
    # kb=2: linear extrapolation 2 u_J - u_{J-1}.
    for kb, expected in ((0, 0.0), (1, 4.0), (2, 2 * 4.0 - 2.0)):
        state = FieldState(J=3, r=1, p=1)
        state.interior[:] = [1.0, 2.0, 4.0]
        fill_outflow_ghosts(state, kb)
        assert state.right_ghosts[0] == pytest.approx(expected)
    # each ghost is summed from +0.0 (or its source) term by term, so a
    # level of -0.0 gets +0.0 ghosts, and -0.0 sources stay -0.0
    state = FieldState(J=3, r=1, p=2)
    state.interior[:] = -0.0
    fill_outflow_ghosts(state, 1)
    assert not np.signbit(state.right_ghosts).any()
    fill_outflow_ghosts(state, 0, sources=[-0.0, -0.0])
    assert np.signbit(state.right_ghosts).all()


def test_fill_outflow_sequential_ghosts():
    # with p=2 the second ghost builds on the first one
    state = FieldState(J=4, r=0, p=2)
    state.interior[:] = [0.0, 0.0, 1.0, 3.0]
    fill_outflow_ghosts(state, 2)
    g1 = 2 * 3.0 - 1.0
    g2 = 2 * g1 - 3.0
    assert state.right_ghosts == pytest.approx([g1, g2])


def test_fill_outflow_with_sources():
    state = FieldState(J=3, r=1, p=2)
    state.interior[:] = [1.0, 1.0, 1.0]
    fill_outflow_ghosts(state, 1, sources=[0.25, -0.5])
    assert state.right_ghosts[0] == pytest.approx(1.25)
    assert state.right_ghosts[1] == pytest.approx(0.75)


def test_fill_outflow_validation():
    state = FieldState(J=2, r=1, p=1)
    with pytest.raises(ValueError):
        fill_outflow_ghosts(state, -1)
    with pytest.raises(ValueError):
        fill_outflow_ghosts(state, 3)  # J < kb
    with pytest.raises(ValueError):
        fill_outflow_ghosts(state, 1, sources=[])


def test_filled_ghosts_satisfy_difference_relation():
    # the closure is defined by (D^kb u)_{J+l} = g_{J+l}; check it holds
    # verbatim on the filled extended array
    rng = np.random.default_rng(3021)
    for _ in range(200):
        J = int(rng.integers(4, 10))
        p = int(rng.integers(1, 4))
        kb = int(rng.integers(0, min(J, 4) + 1))
        state = FieldState(J=J, r=2, p=p)
        state.interior[:] = rng.uniform(-2, 2, J)
        g = rng.uniform(-1, 1, p)
        fill_outflow_ghosts(state, kb, sources=g)
        v = list(state.values)
        for ell in range(1, p + 1):
            pos = 2 + J + ell - 1  # array slot of cell J + ell
            got = naive_backward_difference(v, kb, pos)
            assert got == pytest.approx(g[ell - 1], rel=1e-10, abs=1e-10)


def test_fill_outflow_noop_when_no_ghosts():
    state = FieldState(J=3, r=1, p=0)
    state.interior[:] = [1.0, 2.0, 3.0]
    fill_outflow_ghosts(state, 2)
    assert state.values.shape == (4,)


def test_binomial_weights_match_comb():
    # spot-check the closure weights for kb=3 against binomial coefficients
    state = FieldState(J=5, r=1, p=1)
    vals = np.array([2.0, -1.0, 0.5, 3.0, 1.5])
    state.interior[:] = vals
    fill_outflow_ghosts(state, 3)
    expected = sum(math.comb(3, m) * (-1.0) ** (m + 1) * vals[5 - m]
                   for m in range(1, 4))
    assert state.right_ghosts[0] == pytest.approx(expected)
    assert extrapolation_weights(3) == (3, -3, 1)
    assert extrapolation_weights(0) == ()
    with pytest.raises(ValueError):
        extrapolation_weights(-1)
