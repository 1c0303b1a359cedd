"""Seeded random numbers for the property-check commands.

The command line promises byte-identical output for identical invocations,
across implementations of this tool in other languages.  That rules out any
platform default generator, so the generator is pinned here: xoshiro256**
with its four 64-bit words seeded by successive outputs of splitmix64 run on
the user seed.  Both algorithms are public domain and fit in a page.

Every output is made by one loop, ``Xoshiro256StarStar._outputs``, which
keeps the four state words in local variables for a whole batch of draws
and stores them back once; ``next_u64`` is a batch of one, and
``uniforms`` and ``symmetric`` take their batch in a single call.
"""
from __future__ import annotations

import operator

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(state: int):
    """Yield the splitmix64 stream from a 64-bit state."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def _count(n) -> int:
    n = operator.index(n)
    if n < 0:
        raise ValueError("number of draws must be nonnegative")
    return n


class Xoshiro256StarStar:
    """xoshiro256** seeded via splitmix64 (never all-zero)."""

    def __init__(self, seed: int) -> None:
        feed = _splitmix64(int(seed) & _MASK)
        self._s = [next(feed) for _ in range(4)]
        if not any(self._s):
            self._s[0] = 1  # unreachable from splitmix64, guarded anyway

    def _outputs(self, n: int) -> list[int]:
        """The next ``n`` 64-bit outputs.

        The rotations are written out.  The rotated word is reduced only
        after its product by 9: the bits it keeps above bit 63 do not reach
        the low 64 bits of that product.
        """
        mask = _MASK
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for _ in range(n):
            x = s1 * 5 & mask
            append((x << 7 | x >> 57) * 9 & mask)
            t = s1 << 17 & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45 | s3 >> 19) & mask
        self._s = [s0, s1, s2, s3]
        return out

    def next_u64(self) -> int:
        return self._outputs(1)[0]

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each ``uniform()`` of the next output."""
        top = np.array(self._outputs(_count(n)), dtype=np.uint64) >> 11
        # below 2**53, so the conversion and the scaling are exact
        return top.astype(float) * (2.0 ** -53)

    def symmetric(self, n: int) -> np.ndarray:
        """n doubles uniform on [-1, 1)."""
        return 2.0 * self.uniforms(n) - 1.0

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (unbiased);
        ``bound`` is an integer in ``1..2**64``."""
        bound = operator.index(bound)
        if not 1 <= bound <= _MASK + 1:
            raise ValueError("bound must be a positive integer at most 2**64")
        limit = _MASK - (_MASK + 1) % bound
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % bound
