"""Frozen reference values and naive oracles shared by the test suite.

The error table below fixes the expected sup-over-steps midpoint errors of
the Lax-Wendroff scheme (a=1, lambda=0.7) on (0,1) with T=0.5 for the datum
family ``((x - 1/2)^+)^alpha`` and both extrapolation orders; the spectral
table fixes the expected radius/norm pairs of the transition matrices for
the same scheme.  The naive evolutions here use plain Python loops and a
dict-backed ghost model on purpose: they share no code path with the
package, so agreement is evidence, not tautology.
"""
import math

# alpha -> kb -> J -> sup-over-steps l-infinity midpoint error
REFERENCE_SUP_ERRORS = {
    3.0: {
        2: {10: 0.0025305, 20: 0.0008281875, 40: 0.0002314921875,
            80: 0.0000609287109375, 160: 0.0000156141357422,
            320: 0.00000397348640443, 640: 0.00000100290833469,
            1280: 0.000000251919175326},
        1: {10: 0.00833660625, 20: 0.00491559140625, 40: 0.00262908841699,
            80: 0.0013994637865, 160: 0.000720704311203,
            320: 0.000365563075521, 640: 0.00018408024467,
            1280: 0.0000923642961781},
    },
    2.6: {
        2: {10: 0.00280385837572, 20: 0.000825428449649,
            40: 0.000252680165957, 80: 0.0000781474537246,
            160: 0.0000236164563317, 320: 0.00000711489098145,
            640: 0.00000213591643874, 1280: 0.000000643052172999},
        1: {10: 0.0102978586289, 20: 0.00578352637669, 40: 0.00308529222599,
            80: 0.00161972927959, 160: 0.000828965994226,
            320: 0.000419239010994, 640: 0.000210806199835,
            1280: 0.000105699491246},
    },
    2.5: {
        2: {10: 0.00284239926561, 20: 0.00091837995271,
            40: 0.000301806292425, 80: 0.0000975906472619,
            160: 0.0000308167600202, 320: 0.00000972494981438,
            640: 0.00000308448727156, 1280: 0.000000971185766911},
        1: {10: 0.0108072887024, 20: 0.00600083229228, 40: 0.00319976806911,
            80: 0.00167418222795, 160: 0.000855523358729,
            320: 0.00043235384157, 640: 0.000217323081725,
            1280: 0.000108947852591},
    },
}

# kb -> J -> (spectral radius, l2 induced norm) of the transition matrix,
# both rounded to four decimals.  The norms and the J=20 radii are as first
# tabulated.  Radius provenance, on the exact float64 matrix entries:
# - J=20 and J=80: mpmath eigenvalues at 60 digits.  kb=1: 0.710055 and
#   0.713876; kb=2: 0.709864 and 0.713873.
# - J=320 and J=1280: eigenvalues of a diagonally similar copy whose
#   interior off-diagonal pairs share one modulus (eigenvalue condition
#   numbers at most 1.63), 0.714126 and 0.714142 for both kb, next to the
#   Toeplitz limit sqrt(0.51) = 0.714143; the balanced copy that
#   ``eigenvalues`` solves reproduces them to 1e-14.  The similarity spans
#   a factor 2.38^J (1e120 at J=320), so a direct high-precision solve
#   would need well over 120 digits there.
# The J >= 80 radii were first tabulated, without a stated source, as
# 0.7430, 0.9208, 0.9817 (kb=1) and 0.7513, 0.9212, 0.9805 (kb=2): float64
# pseudo-eigenvalue moduli, not eigenvalue moduli.
REFERENCE_SPECTRA = {
    1: {20: (0.7100, 0.9999), 80: (0.7139, 0.9999),
        320: (0.7141, 0.9999), 1280: (0.7141, 0.9999)},
    2: {20: (0.7098, 1.0035), 80: (0.7139, 1.0035),
        320: (0.7141, 1.0035), 1280: (0.7141, 1.0035)},
}


def lagrange_weights(r, p, lam):
    """Weights of the Lagrange interpolant on the nodes ``-r..p`` at the
    characteristic foot ``-lam`` (``a = 1``): the consistent explicit
    stencil of that width and order ``r + p``."""
    nodes = range(-r, p + 1)
    return tuple(math.prod((-lam - k) / (j - k) for k in nodes if k != j)
                 for j in nodes)


def naive_run(u0, coeffs, r, p, kb, steps, sources=None):
    """Scalar-loop evolution of the interval scheme.

    ``u0`` holds the J interior values; left ghosts are zero, right ghosts
    follow the order-``kb`` backward-difference closure with optional
    ``sources[n][ell-1]`` inhomogeneities.  Returns all levels 0..steps.
    """
    J = len(u0)
    u = [float(v) for v in u0]
    levels = [list(u)]
    for n in range(steps):
        ext = {}
        for j in range(1, J + 1):
            ext[j] = u[j - 1]
        for j in range(1 - r, 1):
            ext[j] = 0.0
        for ell in range(1, p + 1):
            g = sources[n][ell - 1] if sources is not None else 0.0
            acc = g
            for m in range(1, kb + 1):
                acc += math.comb(kb, m) * (-1.0) ** (m + 1) * ext[J + ell - m]
            ext[J + ell] = acc
        new = []
        for j in range(1, J + 1):
            s = 0.0
            for i, ell in enumerate(range(-r, p + 1)):
                s += coeffs[i] * ext[j + ell]
            new.append(s)
        u = new
        levels.append(list(u))
    return levels


def naive_amplification(coeffs, r, window):
    """Direct expansion of 2 v0 (sum a v - v0) + (sum a v - v0)^2."""
    v0 = window[r]
    s = sum(c * v for c, v in zip(coeffs, window))
    return 2.0 * v0 * (s - v0) + (s - v0) ** 2


def naive_energy_split(coeffs, r):
    """Dissipation weights ``d`` and reduced form ``T`` of the one-step form
    by peeling it one coordinate at a time, last coordinate first.

    The form is ``e0 w'^T + w' e0^T + w' w'^T`` with ``w' = w - e0``,
    entry by entry.  Each peel reads ``d_k`` off the first row's last
    entry, the last column of ``T`` off the rest of that column, and folds
    the determined pieces back into the leading block.  Returns plain
    nested lists.
    """
    m = len(coeffs)
    wp = [float(c) - (1.0 if i == r else 0.0) for i, c in enumerate(coeffs)]
    e0 = [1.0 if i == r else 0.0 for i in range(m)]
    W = [[e0[i] * wp[j] + wp[i] * e0[j] + wp[i] * wp[j] for j in range(m)]
         for i in range(m)]
    d = [0.0] * (m - 1)
    T = [[0.0] * (m - 1) for _ in range(m - 1)]
    for size in range(m, 1, -1):
        k = size - 1
        d[k - 1] = -W[0][size - 1]
        for i in range(1, size - 1):
            T[i - 1][k - 1] = W[i][size - 1]
            T[k - 1][i - 1] = W[i][size - 1]
        T[k - 1][k - 1] = W[size - 1][size - 1] - d[k - 1]
        W[0][0] -= d[k - 1]
        for i in range(size - 2):
            W[i][size - 2] += T[i][k - 1]
            W[size - 2][i] += T[k - 1][i]
        W[size - 2][size - 2] += T[k - 1][k - 1]
    return d, T


def naive_backward_difference(values, m, index):
    """m-th backward difference at ``index`` by recursion."""
    if m == 0:
        return values[index]
    return (naive_backward_difference(values, m - 1, index)
            - naive_backward_difference(values, m - 1, index - 1))
