import math
import warnings

import numpy as np
import pytest

from transportbc import (BUILTIN_SCHEMES, SchemeStencil, check_l2_stability,
                         consistency_order, format_stencil, make_builtin,
                         parse_stencil, symbol)


def test_builtin_coefficients_at_reference_point():
    lw = make_builtin("lax_wendroff", 1.0, 0.7)
    assert lw.r == 1 and lw.p == 1
    assert lw.coeffs == pytest.approx((0.595, 0.51, -0.105), abs=1e-15)

    up = make_builtin("upwind", 1.0, 0.7)
    assert (up.r, up.p) == (1, 0)
    assert up.coeffs == pytest.approx((0.7, 0.3), abs=1e-15)

    lf = make_builtin("lax_friedrichs", 1.0, 0.7)
    assert lf.coeffs == pytest.approx((0.85, 0.0, 0.15), abs=1e-15)


def test_builtin_names_tolerant_to_case_and_hyphens():
    a = make_builtin("Lax-Wendroff", 1.0, 0.5)
    b = make_builtin("lax_wendroff", 1.0, 0.5)
    assert a == b


def test_cfl_rejection_and_override():
    with pytest.raises(ValueError):
        make_builtin("lax_wendroff", 1.0, 1.1)
    st = make_builtin("lax_wendroff", 1.0, 1.1, enforce_cfl=False)
    assert not check_l2_stability(st).is_stable
    # the borderline case is accepted
    make_builtin("upwind", 1.0, 1.0)


def test_stencil_validation():
    with pytest.raises(ValueError):
        SchemeStencil(r=-1, p=0, coeffs=(1.0,), velocity_a=1.0, lam=0.5)
    with pytest.raises(ValueError):
        SchemeStencil(r=1, p=0, coeffs=(1.0,), velocity_a=1.0, lam=0.5)
    with pytest.raises(ValueError):
        SchemeStencil(r=1, p=0, coeffs=(0.5, 0.5), velocity_a=0.0, lam=0.5)
    with pytest.raises(ValueError):
        SchemeStencil(r=0, p=0, coeffs=(1.0,), velocity_a=1.0, lam=0.0)
    # widths are counts, kept as ints: consistency_order ranges over them
    with pytest.raises(ValueError, match="width r must be an integer"):
        SchemeStencil(r=0.5, p=0.5, coeffs=(0.85, 0.15), velocity_a=1.0,
                      lam=0.7)
    with pytest.raises(ValueError, match="width p must be an integer"):
        SchemeStencil(r=1, p=0.0, coeffs=(0.7, 0.3), velocity_a=1.0, lam=0.7)
    st = SchemeStencil(r=np.int64(1), p=np.int64(0), coeffs=(0.7, 0.3),
                       velocity_a=1.0, lam=0.7)
    assert type(st.r) is int and type(st.p) is int


def test_stencil_rejects_non_finite_values():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lam must be positive and fin"):
            SchemeStencil(r=1, p=0, coeffs=(0.5, 0.5), velocity_a=1.0,
                          lam=bad)
        with pytest.raises(ValueError, match="velocity must be positive and"):
            SchemeStencil(r=1, p=0, coeffs=(0.5, 0.5), velocity_a=bad,
                          lam=0.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            SchemeStencil(r=1, p=0, coeffs=(bad, 0.5), velocity_a=1.0,
                          lam=0.5)
    with pytest.raises(ValueError, match="finite"):
        parse_stencil("r=1,p=0,a=-1:0.5,0:0.5;vel=1;lambda=inf")
    with pytest.raises(ValueError, match="finite"):
        parse_stencil("r=1,p=0,a=-1:nan,0:0.5;vel=1;lambda=0.5")


def test_symbol_at_special_angles():
    lw = make_builtin("lax_wendroff", 1.0, 0.7)
    # theta = 0: the symbol equals the coefficient sum, which is 1
    assert symbol(lw, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)
    # theta = pi: alternating sum
    alt = sum(c * (-1.0) ** ell for ell, c in zip(range(-1, 2), lw.coeffs))
    assert symbol(lw, math.pi) == pytest.approx(alt + 0.0j, abs=1e-12)
    # array input broadcasts
    th = np.linspace(0.0, 2.0 * np.pi, 7)
    vals = symbol(lw, th)
    assert vals.shape == th.shape


def test_consistency_orders_of_builtins():
    assert consistency_order(make_builtin("upwind", 1.0, 0.7)).order == 1
    assert consistency_order(make_builtin("lax_friedrichs", 1.0, 0.7)).order == 1
    assert consistency_order(make_builtin("lax_wendroff", 1.0, 0.7)).order == 2


def test_consistency_order_zero_for_identity():
    ident = SchemeStencil(r=0, p=0, coeffs=(1.0,), velocity_a=1.0, lam=0.7)
    rep = consistency_order(ident)
    assert rep.order == 0
    assert rep.failed_moment == 1


def test_consistency_capped_for_exact_shift():
    # lam*a = 1 turns every builtin into the pure left shift, which is exact
    # on all polynomials: every moment matches up to the cap.
    st = make_builtin("upwind", 1.0, 1.0)
    rep = consistency_order(st)
    assert rep.capped
    assert rep.order >= 10


def test_stability_of_builtins_across_ratios():
    for name in BUILTIN_SCHEMES:
        for lam in (0.3, 0.7, 1.0):
            st = make_builtin(name, 1.0, lam)
            res = check_l2_stability(st)
            assert res.is_stable, (name, lam, res)
            assert res.max_modulus <= 1.0 + 1e-9


def test_instability_detected_beyond_cfl():
    st = make_builtin("lax_wendroff", 1.0, 1.1, enforce_cfl=False)
    res = check_l2_stability(st)
    assert not res.is_stable
    # |symbol(pi)| = |1 - 2 (lam a)^2| = 1.42 at lam a = 1.1
    assert res.max_modulus == pytest.approx(1.42, abs=1e-9)


def test_stability_verdict_is_computed_once_per_stencil():
    st = make_builtin("lax_friedrichs", 1.0, 0.55)
    first = check_l2_stability(st)
    hits = check_l2_stability.cache_info().hits
    # an equal stencil built anew is the same key
    again = check_l2_stability(make_builtin("lax_friedrichs", 1.0, 0.55))
    assert again is first
    assert check_l2_stability.cache_info().hits == hits + 1
    # another stencil is another verdict
    assert check_l2_stability(make_builtin("lax_friedrichs", 1.0, 0.5)) \
        is not first


def test_stability_maximum_matches_dense_scan():
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        r = int(rng.integers(0, 3))
        p = int(rng.integers(0, 3))
        coeffs = tuple(rng.uniform(-1, 1, r + p + 1))
        st = SchemeStencil(r=r, p=p, coeffs=coeffs, velocity_a=1.0, lam=0.5)
        res = check_l2_stability(st)
        th = np.linspace(0.0, 2.0 * np.pi, 200001)
        brute = float(np.max(np.abs(symbol(st, th))))
        assert res.max_modulus >= brute - 1e-9
        assert res.max_modulus <= brute + 1e-6


def _stability_by_symbol(st, samples=4096, tol=1e-9):
    """The sampled search that check_l2_stability replaced: the largest of
    ``samples`` uniform angles, sharpened by a golden-section search."""
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    mods = np.abs(symbol(st, thetas))
    k = int(np.argmax(mods))
    best_theta, best = float(thetas[k]), float(mods[k])
    h = 2.0 * np.pi / samples
    lo, hi = best_theta - h, best_theta + h
    f = lambda th: abs(symbol(st, th))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-12:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    mid = 0.5 * (lo + hi)
    if f(mid) > best:
        best, best_theta = f(mid), mid % (2.0 * np.pi)
    return best <= 1.0 + tol, best, best_theta


def test_stability_search_has_the_bits_of_the_symbol():
    rng = np.random.default_rng(1811)
    stencils = [make_builtin(name, 1.0, lam, enforce_cfl=False)
                for name in BUILTIN_SCHEMES
                for lam in (1e-5, 0.3, 0.7, 1.0, 1.1)]
    for _ in range(60):
        r, p = (int(x) for x in rng.integers(0, 6, 2))
        coeffs = rng.uniform(-1, 1, r + p + 1)
        coeffs[rng.uniform(size=coeffs.size) < 0.2] = 0.0
        stencils.append(SchemeStencil(r=r, p=p, coeffs=tuple(coeffs),
                                      velocity_a=1.0, lam=0.5))
    for st in stencils:
        res = check_l2_stability(st)
        sampled_stable, sampled_max, _ = _stability_by_symbol(st)
        assert res.is_stable == sampled_stable, st
        assert res.max_modulus >= sampled_max - 1e-14, st
        assert 0.0 <= res.argmax_theta <= math.pi
        assert res.max_modulus == np.abs(symbol(st, res.argmax_theta))
        assert res.max_modulus == np.abs(symbol(st, [res.argmax_theta]))[0]


def test_stability_angle_is_the_exact_maximizer():
    # the sampled search put this maximizer at 1.0180812030625654, 1.06e-8
    # short; mpmath at 50 digits on the exact float64 coefficients
    mpmath = pytest.importorskip("mpmath")
    st = parse_stencil("r=1,p=1,a=-1:0.5,0:0.7,1:-0.2;vel=1;lambda=0.7")
    res = check_l2_stability(st)
    with mpmath.workdps(50):
        coeffs = [mpmath.mpf(c) for c in st.coeffs]
        sq = lambda th: abs(sum(c * mpmath.expj(ell * th) for ell, c in
                                zip(range(-st.r, st.p + 1), coeffs))) ** 2
        theta = mpmath.findroot(lambda th: mpmath.diff(sq, th), 1.0)
        assert abs(theta - res.argmax_theta) < 1e-15
        assert abs(mpmath.sqrt(sq(theta)) - res.max_modulus) < 4.5e-16


def test_pure_shifts_peak_at_theta_zero():
    # |symbol| is 1 everywhere; the endpoint wins the tie
    for st in (make_builtin("upwind", 1.0, 1.0),
               make_builtin("lax_wendroff", 1.0, 1.0),
               SchemeStencil(r=2, p=1, coeffs=(1.0, 0.0, 0.0, 0.0),
                             velocity_a=1.0, lam=0.5)):
        assert tuple(check_l2_stability(st)) == (True, 1.0, 0.0)


def test_stability_of_extreme_coefficient_scales():
    # the cosine series is formed from the coefficients scaled by a power
    # of two, so neither overflows nor underflows
    for scale in (1e-200, 1e200):
        st = SchemeStencil(r=2, p=0, coeffs=(scale, 0.5 * scale, -2 * scale),
                           velocity_a=1.0, lam=1.0)
        res = check_l2_stability(st)
        th = np.linspace(0.0, np.pi, 20001)
        brute = float(np.max(np.abs(symbol(st, th))))
        assert brute <= res.max_modulus <= brute * (1 + 1e-8)
        assert res.is_stable == (scale < 1)


def test_stability_of_a_tiny_end_coefficient():
    # the derivative series' leading coefficient 2 * a_-2 * a_1 is
    # subnormal; kept, its companion matrix overflows
    st = SchemeStencil(r=2, p=1, coeffs=(1e-320, 0.5, 0.25, 0.25),
                       velocity_a=1.0, lam=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = check_l2_stability(st)
    assert res.is_stable
    assert res.max_modulus == 1.0
    assert res.argmax_theta == 0.0
    th = np.linspace(0.0, np.pi, 20001)
    assert float(np.max(np.abs(symbol(st, th)))) <= 1.0
    # a normal but tiny end coefficient: kept, the companion matrix is so
    # badly scaled that its roots in [-1, 1] are lost and this unstable
    # stencil was judged stable at 0.977
    st = SchemeStencil(r=2, p=3, coeffs=(1e-50, -0.43, 0.0, -0.48, 0.35,
                                         0.33), velocity_a=1.0, lam=0.5)
    res = check_l2_stability(st)
    brute = float(np.max(np.abs(symbol(st, th))))
    assert not res.is_stable
    assert brute <= res.max_modulus <= brute * (1 + 1e-8)


def test_parse_stencil_reference_string():
    st = parse_stencil("r=1,p=1,a=-1:0.595,0:0.51,1:-0.105;vel=1;lambda=0.7")
    assert st.r == 1 and st.p == 1
    assert st.coeffs == (0.595, 0.51, -0.105)
    assert st.velocity_a == 1.0
    assert st.lam == 0.7


def test_parse_stencil_ignores_whitespace():
    st = parse_stencil(" r=1, p=0, a=-1:0.7, 0:0.3 ; vel=1 ; lambda=0.7 ")
    assert st.coeffs == (0.7, 0.3)


@pytest.mark.parametrize("bad", [
    "",
    "r=1;vel=1;lambda=0.7",
    "r=1,p=0,a=-1:0.7,0:0.3;vel=1",
    "r=1,p=0,a=0:0.3;vel=1;lambda=0.7",
    "r=1,p=0,a=-1:0.7,-1:0.1,0:0.2;vel=1;lambda=0.7",
    "r=1,p=0,a=-1:0.7,0:0.3,junk;vel=1;lambda=0.7",
    # a repeated key would silently take its last value
    "r=1,p=0,a=-1:0.7,0:0.3;vel=1;lambda=0.7;vel=2",
    "r=1,p=0,a=-1:0.7,0:0.3;lambda=0.7;vel=1;lambda=0.3",
    "r=1,p=0,a=-1:0.7,0:0.3;vel=1;lambda=0.7;r=1,p=0",
    "r=1,p=0,r=2,a=-1:0.7,0:0.3;vel=1;lambda=0.7",
])
def test_parse_stencil_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_stencil(bad)


def test_format_parse_roundtrip_random(seeded_rng=None):
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = int(rng.integers(0, 4))
        p = int(rng.integers(0, 4))
        st = SchemeStencil(r=r, p=p,
                           coeffs=tuple(rng.uniform(-2, 2, r + p + 1)),
                           velocity_a=float(rng.uniform(0.1, 3.0)),
                           lam=float(rng.uniform(0.1, 2.0)))
        assert parse_stencil(format_stencil(st)) == st
