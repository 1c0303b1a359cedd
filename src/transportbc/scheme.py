r"""Explicit two-level scheme stencils and their Fourier-side diagnostics.

A scheme is determined by real coefficients ``a_ell`` for ``ell = -r..p``
applied as

.. math::

    u_j^{n+1} = \sum_{\ell=-r}^{p} a_\ell \, u_{j+\ell}^n ,

together with the transport velocity ``a > 0`` and the fixed time-step ratio
``lam = dt/dx``.  The amplification symbol is the trigonometric polynomial
``sum a_ell exp(i ell theta)``; its sup-modulus over the circle decides l2
stability on the whole line, and the moment sums ``sum ell^m a_ell`` against
``(-lam a)^m`` decide the consistency order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

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

    def coeff(self, ell: int) -> float:
        """Weight of the offset ``ell`` in ``-r..p``."""
        if not -self.r <= ell <= self.p:
            raise IndexError(f"offset {ell} outside stencil range")
        return self.coeffs[ell + self.r]

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

    Accepts a scalar angle or an array of angles.
    """
    th = np.asarray(theta, dtype=float)
    ells = stencil.offsets.reshape((-1,) + (1,) * th.ndim)
    vals = np.sum(stencil.coeff_array.reshape(ells.shape)
                  * np.exp(1j * ells * th), axis=0)
    if np.isscalar(theta) or th.ndim == 0:
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
    terms = [(ell ** m) * c for ell, c in zip(range(-stencil.r, stencil.p + 1),
                                              stencil.coeffs)]
    terms.sort(key=abs, reverse=True)
    return math.fsum(terms)


def consistency_order(stencil: SchemeStencil, tol: float = 1e-12,
                      m_max: int = 10) -> ConsistencyReport:
    """Largest k such that ``sum ell^m a_ell = (-lam a)^m`` for all m <= k.

    The tolerance scales with the target magnitude, ``tol * max(1, (lam a)^m)``
    at moment m.  A failure already at m = 0 (weights not summing to one)
    returns order 0 with ``failed_moment = 0``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    target = -stencil.lam * stencil.velocity_a
    for m in range(m_max + 1):
        scale = max(1.0, abs(target) ** m)
        if abs(_moment(stencil, m) - target ** m) > tol * scale:
            return ConsistencyReport(order=max(0, m - 1),
                                     failed_moment=m, capped=False)
    return ConsistencyReport(order=m_max, failed_moment=None, capped=True)


class StabilityResult(NamedTuple):
    is_stable: bool
    max_modulus: float
    argmax_theta: float


@lru_cache(maxsize=128)
def check_l2_stability(stencil: SchemeStencil, samples: int = 4096,
                       tol: float = 1e-9) -> StabilityResult:
    """Sup of ``|symbol|`` over the circle by dense sampling plus refinement.

    The grid maximum over ``samples`` uniform angles in [0, 2pi) is sharpened
    by a golden-section search on the bracketing interval down to width 1e-12.
    ``is_stable`` holds when the refined maximum is at most ``1 + tol``, a
    finite ``tol >= 0``.  The verdict is computed once per stencil and
    arguments and reused by later calls (the last 128 are kept); a rejected
    argument raises on every call, since exceptions are not cached.
    """
    if samples < 1024:
        raise ValueError("samples must be at least 1024")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative")
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    mods = np.abs(symbol(stencil, thetas))
    k = int(np.argmax(mods))
    best_theta = float(thetas[k])
    best = float(mods[k])

    h = 2.0 * np.pi / samples
    lo, hi = best_theta - h, best_theta + h
    # abs(symbol(stencil, th)) by the same ufuncs on the same shapes, with
    # the arrays that do not depend on the angle built once
    phase = 1j * stencil.offsets
    coeffs = stencil.coeff_array
    f = lambda th: abs(complex(np.sum(coeffs * np.exp(phase * th), axis=0)))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
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
    fmid = f(mid)
    if fmid > best:
        best, best_theta = fmid, mid % (2.0 * np.pi)
    return StabilityResult(is_stable=best <= 1.0 + tol,
                           max_modulus=best, argmax_theta=best_theta)


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
