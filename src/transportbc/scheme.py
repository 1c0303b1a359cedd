r"""Explicit two-level scheme stencils and their Fourier-side diagnostics.

A scheme is determined by real coefficients ``a_ell`` for ``ell = -r..p``
applied as

.. math::

    u_j^{n+1} = \sum_{\ell=-r}^{p} a_\ell \, u_{j+\ell}^n ,

together with the transport velocity ``a > 0`` and the fixed time-step ratio
``lam = dt/dx``.  The amplification symbol is the trigonometric polynomial
``sum a_ell exp(i ell theta)``; its sup-modulus over the circle decides l2
stability on the whole line, and the moment sums ``sum ell^m a_ell`` against
``(-lam a)^m`` decide the consistency order.  The sup-modulus is exact to
rounding, not sampled: the squared modulus is a Chebyshev series in
``cos theta`` with the stencil's autocorrelation as coefficients.  For
stencils wider than three points, the angle comes from LAPACK's companion
eigenvalues, and its last bits can depend on the BLAS kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev

BUILTIN_SCHEMES = ("upwind", "lax_friedrichs", "lax_wendroff")


@dataclass(frozen=True)
class SchemeStencil:
    """Coefficients of an explicit two-level scheme.

    ``coeffs[i]`` is the weight of ``u_{j+ell}`` with ``ell = i - r``, so the
    tuple runs from the leftmost (upstream) offset ``-r`` to the rightmost
    (downstream) offset ``p``.
    """

    r: int
    p: int
    coeffs: tuple[float, ...]
    velocity_a: float
    lam: float

    def __post_init__(self) -> None:
        if self.r < 0 or self.p < 0:
            raise ValueError("stencil widths r, p must be nonnegative")
        if len(self.coeffs) != self.r + self.p + 1:
            raise ValueError(
                f"expected {self.r + self.p + 1} coefficients for r={self.r}, "
                f"p={self.p}, got {len(self.coeffs)}"
            )
        if not (self.velocity_a > 0 and math.isfinite(self.velocity_a)):
            raise ValueError("velocity must be positive and finite")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("time-step ratio lam must be positive and finite")
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("stencil coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def coeff_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.r, self.p + 1)


def make_builtin(name: str, a: float, lam: float,
                 enforce_cfl: bool = True) -> SchemeStencil:
    """Construct one of the built-in schemes at velocity ``a`` and ratio ``lam``.

    All three builtins require the time-step restriction ``lam * a <= 1``;
    violating it is rejected rather than warned, since every downstream
    stability statement fails beyond it.  ``enforce_cfl=False`` skips the
    rejection so diagnostic commands can exhibit the instability instead.
    """
    key = name.strip().lower().replace("-", "_")
    if key not in BUILTIN_SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; choose from {BUILTIN_SCHEMES}")
    if not a > 0:
        raise ValueError("velocity must be positive")
    if not lam > 0:
        raise ValueError("time-step ratio lam must be positive")
    c = lam * a
    if enforce_cfl and c > 1.0:
        raise ValueError(f"lam*a = {c} exceeds the stability bound 1")
    if key == "upwind":
        return SchemeStencil(r=1, p=0, coeffs=(c, 1.0 - c), velocity_a=a, lam=lam)
    if key == "lax_friedrichs":
        return SchemeStencil(
            r=1, p=1, coeffs=((1.0 + c) / 2.0, 0.0, (1.0 - c) / 2.0),
            velocity_a=a, lam=lam,
        )
    return SchemeStencil(
        r=1, p=1,
        coeffs=((c * c + c) / 2.0, 1.0 - c * c, (c * c - c) / 2.0),
        velocity_a=a, lam=lam,
    )


def symbol(stencil: SchemeStencil, theta):
    """Amplification symbol ``sum a_ell exp(i ell theta)``.

    Accepts a scalar angle or an array of angles.  The terms are added in
    offset order, so an angle's value has the same bits alone or in an array.
    A sum beyond the float range is infinite, without a warning.
    """
    th = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = sum(c * np.exp(1j * ell * th)
                   for ell, c in zip(stencil.offsets, stencil.coeffs))
    if th.ndim == 0:
        return complex(vals)
    return vals


class ConsistencyReport(NamedTuple):
    """Outcome of the moment-condition scan.

    ``order`` is the largest k with all moments m = 0..k passing.
    ``failed_moment`` is the first m that broke (None if the cap was hit).
    ``capped`` marks degenerate stencils (pure shifts) that satisfy every
    moment up to the cap.
    """

    order: int
    failed_moment: int | None
    capped: bool


def _moment(stencil: SchemeStencil, m: int) -> float:
    # Exact integer powers, summed largest-magnitude first to limit
    # cancellation between the upstream and downstream wings.
    pairs = list(zip(range(-stencil.r, stencil.p + 1), stencil.coeffs))
    terms = [(ell ** m) * c for ell, c in pairs]
    terms.sort(key=abs, reverse=True)
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        # a term or a partial sum left the float range: sum exactly, and
        # round a moment beyond the range to an infinity (fractions is
        # imported only here, since it loads decimal with it)
        from fractions import Fraction
        exact = sum(Fraction(ell ** m) * Fraction(c) for ell, c in pairs)
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


# moment m passes when within CONSISTENCY_TOL * max(1, (lam a)^m) of its
# target; every moment up to CONSISTENCY_CAP passing caps the order there
CONSISTENCY_TOL = 1e-12
CONSISTENCY_CAP = 10


def consistency_order(stencil: SchemeStencil) -> ConsistencyReport:
    """Largest k such that ``sum ell^m a_ell = (-lam a)^m`` for all m <= k.

    The tolerance scales with the target magnitude, ``CONSISTENCY_TOL *
    max(1, (lam a)^m)`` at moment m.  A failure already at m = 0 (weights not
    summing to one) returns order 0 with ``failed_moment = 0``.
    """
    target = -stencil.lam * stencil.velocity_a
    for m in range(CONSISTENCY_CAP + 1):
        scale = max(1.0, abs(target) ** m)
        if abs(_moment(stencil, m) - target ** m) > CONSISTENCY_TOL * scale:
            return ConsistencyReport(order=max(0, m - 1),
                                     failed_moment=m, capped=False)
    return ConsistencyReport(order=CONSISTENCY_CAP, failed_moment=None,
                             capped=True)


class StabilityResult(NamedTuple):
    is_stable: bool
    max_modulus: float
    argmax_theta: float


# slack of the verdict: stable when the symbol's sup-modulus is at most 1 + it
STABILITY_SLACK = 1e-9


@lru_cache(maxsize=128)
def check_l2_stability(stencil: SchemeStencil) -> StabilityResult:
    """Sup of ``|symbol|`` over the circle, from its cosine series.

    ``|a(e^{i theta})|^2 = sum_k c_k T_k(cos theta)`` with ``c_0 = sum a_l^2``
    and ``c_k = 2 sum_l a_l a_{l+k}`` (each sum exactly rounded), so the
    maximum lies at ``cos theta = +-1`` or at a real root of the series'
    derivative.  The symbol is evaluated at those candidates (real parts of
    the roots, clipped to [-1, 1]; leading derivative coefficients below
    rounding of the largest are dropped) and the first largest wins: an
    endpoint wins a tie, ``argmax_theta`` lies in [0, pi] and
    ``max_modulus`` is ``np.abs(symbol(stencil, argmax_theta))`` to the bit.
    For stencils wider than three points the roots are LAPACK's
    companion-matrix eigenvalues, so the last bits of the angle can depend
    on the BLAS kernel.  ``is_stable`` holds when the maximum is at most
    ``1 + STABILITY_SLACK``.  The verdict is computed once per stencil and
    reused by later calls (the last 128 are kept).
    """
    # scaled by a power of two, which moves no root, so that the products
    # neither overflow nor underflow
    e = math.frexp(max(map(abs, stencil.coeffs)))[1]
    a = [math.ldexp(x, -e) for x in stencil.coeffs]
    c = [math.fsum(a[i] * a[i + k] for i in range(len(a) - k))
         * (1.0 if k == 0 else 2.0) for k in range(len(a))]
    # a leading coefficient below rounding of the largest (a tiny end
    # coefficient) only adds roots far outside [-1, 1]; kept, it scales the
    # companion matrix so badly that the roots inside are lost, or, when
    # subnormal, overflows it
    der = chebyshev.chebder(c)
    der = chebyshev.chebtrim(der, np.finfo(float).eps * np.max(np.abs(der)))
    roots = chebyshev.chebroots(der)
    xs = np.concatenate(([1.0, -1.0], np.clip(roots.real, -1.0, 1.0)))
    thetas = np.arccos(xs)
    mods = np.abs(symbol(stencil, thetas))
    k = int(np.argmax(mods))
    best = float(mods[k])
    return StabilityResult(is_stable=best <= 1.0 + STABILITY_SLACK,
                           max_modulus=best, argmax_theta=float(thetas[k]))


def parse_stencil(text: str) -> SchemeStencil:
    """Parse the compact text form of a custom stencil.

    Example: ``"r=1,p=1,a=-1:0.595,0:0.51,1:-0.105;vel=1;lambda=0.7"``.
    Whitespace is ignored everywhere.  Every offset in -r..p must be given
    exactly once.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty stencil string")
    r = p = None
    vel = lam = None
    coeff_map: dict[int, float] = {}
    for segment in compact.split(";"):
        if not segment:
            continue
        if segment.startswith("vel="):
            vel = float(segment[4:])
        elif segment.startswith("lambda="):
            lam = float(segment[7:])
        else:
            in_coeffs = False
            for token in segment.split(","):
                if token.startswith("r=") and not in_coeffs:
                    r = int(token[2:])
                elif token.startswith("p=") and not in_coeffs:
                    p = int(token[2:])
                else:
                    if token.startswith("a="):
                        in_coeffs = True
                        token = token[2:]
                    if not in_coeffs:
                        raise ValueError(f"unrecognized token {token!r}")
                    off_s, _, val_s = token.partition(":")
                    if not val_s:
                        raise ValueError(f"malformed coefficient {token!r}")
                    off = int(off_s)
                    if off in coeff_map:
                        raise ValueError(f"offset {off} given twice")
                    coeff_map[off] = float(val_s)
    if r is None or p is None:
        raise ValueError("stencil string must set r= and p=")
    if vel is None or lam is None:
        raise ValueError("stencil string must set vel= and lambda=")
    expected = list(range(-r, p + 1))
    if sorted(coeff_map) != expected:
        raise ValueError(
            f"need coefficients for offsets {expected}, got {sorted(coeff_map)}"
        )
    return SchemeStencil(r=r, p=p, coeffs=tuple(coeff_map[e] for e in expected),
                         velocity_a=vel, lam=lam)


def format_stencil(stencil: SchemeStencil) -> str:
    """Inverse of :func:`parse_stencil` (canonical, whitespace-free)."""
    coeffs = ",".join(f"{ell}:{c!r}" for ell, c in
                      zip(range(-stencil.r, stencil.p + 1), stencil.coeffs))
    return (f"r={stencil.r},p={stencil.p},a={coeffs}"
            f";vel={stencil.velocity_a!r};lambda={stencil.lam!r}")
