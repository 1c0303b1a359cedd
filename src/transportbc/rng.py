"""Seeded random numbers for the property-check commands.

``energy-check`` promises byte-identical output for identical invocations,
across implementations of this tool in other languages.  That rules out any
platform default generator, so the generator is pinned here: xoshiro256**
with its four 64-bit words seeded by successive outputs of splitmix64 run on
the user seed.  Both algorithms are public domain and fit in a page.

Outputs are made a block of ``_BLOCK`` at a time, by
``Xoshiro256StarStar._refill``.  The state step is linear over GF(2): each
word of the next state is an XOR of shifts and rotations of the current
words.  So the ``s1`` words of a whole block, and the state after it, are
the XOR of the same quantities over the set bits of the state.
``_table()`` holds them for each of the 256 one-bit states; it is built
once per process, at the first refill, by running the recurrence on all
256 unit states at once.  A refill unpacks the state into its 256 bits
and XOR-reduces the table rows at the set bits.  XOR is exact in any
order, so the kept words are the ones the scalar loop keeps, bit for bit.
The ``**`` scrambler ``rotl(s1 * 5, 7) * 9`` reads nothing but ``s1``, so
it runs once per block on the kept words in numpy ``uint64``, whose
products wrap modulo 2**64 exactly as masking does.  The block's
``[0, 1)`` doubles are converted at the same time.  Every draw
(``next_u64``, ``integer``, ``uniforms``, ``symmetric``,
``symmetric_runs``) reads the next unread outputs of the block, so the
stream is the one a scalar generator makes, output for output; the state
words run ahead of the draws by the unread outputs.  A refill for a draw
of ``n`` makes just the blocks it needs, which leaves fewer than a block
unread.  ``symmetric_runs`` walks many length-and-run draws at once and
refills before a run that might not fit, so after it fewer than
``_BLOCK + bound - 1`` are left, ``bound`` being that of its lengths.
"""
from __future__ import annotations

import functools
import operator

import numpy as np

_MASK = (1 << 64) - 1

# outputs made per table block; a request for more than is left takes as
# many whole blocks as it needs
_BLOCK = 256


def _splitmix64(state: int):
    """Yield the splitmix64 stream from a 64-bit state."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


@functools.cache
def _table() -> np.ndarray:
    """The block table, shape ``(256, _BLOCK + 4)`` in ``uint64``.

    Row ``64 w + b`` belongs to the state whose word ``w`` is ``1 << b``
    and whose other words are 0.  Its first ``_BLOCK`` columns are that
    state's ``s1`` at steps ``0.._BLOCK-1``; its last 4 are the state
    after ``_BLOCK`` steps.
    """
    bit = np.arange(256)
    unit = np.uint64(1) << (bit % 64).astype(np.uint64)
    s0, s1, s2, s3 = (np.where(bit // 64 == w, unit, np.uint64(0))
                      for w in range(4))
    table = np.empty((256, _BLOCK + 4), dtype=np.uint64)
    for k in range(_BLOCK):
        table[:, k] = s1
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = s3 << np.uint64(45) | s3 >> np.uint64(19)
    table[:, _BLOCK:] = np.stack((s0, s1, s2, s3), axis=1)
    table.flags.writeable = False
    return table


def _count(n) -> int:
    n = operator.index(n)
    if n < 0:
        raise ValueError("number of draws must be nonnegative")
    return n


class Xoshiro256StarStar:
    """xoshiro256** seeded via splitmix64 (never all-zero)."""

    def __init__(self, seed: int) -> None:
        # an integer seed wraps modulo 2**64; any other type is refused
        feed = _splitmix64(operator.index(seed) & _MASK)
        self._s = [next(feed) for _ in range(4)]
        if not any(self._s):
            self._s[0] = 1  # unreachable from splitmix64, guarded anyway
        # the current block: its 64-bit outputs, their [0, 1) doubles, and
        # the index of the first unread one
        self._words: list[int] = []
        self._doubles = np.empty(0)
        self._pos = 0

    def _refill(self, blocks: int) -> None:
        """Append ``blocks * _BLOCK`` new outputs to the unread rest of
        the block."""
        table = _table()
        state = np.array(self._s, dtype="<u8")
        kept = []
        for _ in range(blocks):
            # bit 64 w + b is bit b of word w, as the table numbers its rows
            bits = np.unpackbits(state.view(np.uint8), bitorder="little")
            row = np.bitwise_xor.reduce(table[np.flatnonzero(bits)], axis=0)
            kept.append(row[:_BLOCK])
            state = row[_BLOCK:].astype("<u8")
        self._s = state.tolist()
        x = np.concatenate(kept) * np.uint64(5)
        x = (x << np.uint64(7) | x >> np.uint64(57)) * np.uint64(9)
        # below 2**53, so the conversion and the scaling are exact
        doubles = (x >> np.uint64(11)).astype(float) * (2.0 ** -53)
        pos = self._pos
        self._words = self._words[pos:] + x.tolist()
        self._doubles = np.concatenate((self._doubles[pos:], doubles))
        self._pos = 0

    def _take(self, n: int) -> int:
        """Mark the next ``n`` outputs read; return the block index of the
        first of them."""
        left = len(self._words) - self._pos
        if left < n:
            self._refill(-((left - n) // _BLOCK))
        start = self._pos
        self._pos = start + n
        return start

    def _outputs(self, n: int) -> list[int]:
        """The next ``n`` 64-bit outputs."""
        start = self._take(n)
        return self._words[start:start + n]

    def next_u64(self) -> int:
        # _take may replace the block, so it runs before the block is read
        start = self._take(1)
        return self._words[start]

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each ``uniform()`` of the next output."""
        n = _count(n)
        start = self._take(n)
        return self._doubles[start:start + n].copy()

    def symmetric(self, n: int) -> np.ndarray:
        """n doubles uniform on [-1, 1), ``2 u - 1`` of the next n
        ``uniforms``."""
        n = _count(n)
        start = self._take(n)
        return 2.0 * self._doubles[start:start + n] - 1.0

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (unbiased);
        ``bound`` is an integer in ``1..2**64``."""
        bound = operator.index(bound)
        limit = _limit(bound)
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % bound

    def symmetric_runs(self, count: int, base: int,
                       bound: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` runs of random lengths: the runs' values end to end,
        and their lengths, as the draws
        ``[self.symmetric(base + self.integer(bound)) for _ in range(count)]``
        make them, bit for bit, in one walk over the block.

        Each length word is read where ``integer`` reads it, a word above
        its rejection limit skipped, and each run is the slice of the
        block after it.  The block is refilled only when fewer than
        ``base + bound`` outputs are left, so no run straddles a refill,
        and then by as many blocks as the remaining runs must read at the
        least (a length word and ``base`` values each), but one at least.
        The unread outputs stay in the block for later draws, fewer than
        ``_BLOCK + bound - 1`` of them.
        """
        count = _count(count)
        base = _count(base)
        bound = operator.index(bound)
        limit = _limit(bound)
        # the most one run reads: its length word and base + bound - 1 values
        need = base + bound
        words, pos = self._words, self._pos
        end = len(words)
        lengths = []
        pieces = []
        # the block indices of the length words read since the last refill
        low, skips = pos, []

        def cut() -> None:
            # what was read since the last refill, less its length words
            pieces.append(np.delete(self._doubles[low:pos],
                                    np.array(skips, np.intp) - low))

        for left in range(count, 0, -1):
            while True:
                if end - pos < need:
                    cut()
                    self._pos = pos
                    least = left * (1 + base) - (end - pos)
                    self._refill(max(1, -(-least // _BLOCK)))
                    words, pos, low, skips = self._words, 0, 0, []
                    end = len(words)
                u = words[pos]
                skips.append(pos)
                pos += 1
                if u <= limit:
                    break
            n = base + u % bound
            lengths.append(n)
            pos += n
        cut()
        self._pos = pos
        return (2.0 * np.concatenate(pieces) - 1.0,
                np.array(lengths, dtype=np.intp))


def _limit(bound: int) -> int:
    """The largest output that ``integer(bound)`` accepts: below the
    largest multiple of ``bound`` that fits 64 bits."""
    if not 1 <= bound <= _MASK + 1:
        raise ValueError("bound must be a positive integer at most 2**64")
    return _MASK - (_MASK + 1) % bound
