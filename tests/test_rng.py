import numpy as np
import pytest

from transportbc import Xoshiro256StarStar
from transportbc.rng import _BLOCK, _splitmix64

from _reference import ScalarXoshiro256StarStar


def test_splitmix_reference_vector():
    # well-known reference outputs of splitmix64 for state 0
    g = _splitmix64(0)
    assert next(g) == 0xE220A8397B1DCDAF
    assert next(g) == 0x6E789E6AA1B965F4
    assert next(g) == 0x06C45D188009454F


def test_seeding_uses_splitmix_stream():
    gen = Xoshiro256StarStar(987654321)
    feed = _splitmix64(987654321)
    assert gen._s == [next(feed) for _ in range(4)]


def test_known_state_outputs():
    # hand computation: with state (1, 2, 3, 4) the first output is
    # rotl(2 * 5, 7) * 9 = 1280 * 9, after which s1 becomes 0
    gen = Xoshiro256StarStar(0)
    gen._s = [1, 2, 3, 4]
    assert gen.next_u64() == 11520
    # the state words run ahead by the unread block, so the state after the
    # first output, (7, 0, 262146, 6 * 2**45), is checked by its stream
    after = ScalarXoshiro256StarStar(0)
    after._s = [7, 0, 262146, 6 * 2 ** 45]
    assert gen.next_u64() == 0
    assert [0] + gen._outputs(2 * _BLOCK) == after._outputs(2 * _BLOCK + 1)


def test_frozen_seed_snapshot():
    gen = Xoshiro256StarStar(42)
    assert [gen.next_u64() for _ in range(4)] == [
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
        17057574109182124193,
    ]


def test_determinism_and_seed_separation():
    a = [Xoshiro256StarStar(7).next_u64() for _ in range(20)]
    b = [Xoshiro256StarStar(7).next_u64() for _ in range(20)]
    assert a == b
    c = [Xoshiro256StarStar(8).next_u64() for _ in range(20)]
    assert a != c
    # seeds beyond 64 bits, and negative seeds, wrap instead of raising
    big = Xoshiro256StarStar(2 ** 64 + 7)
    assert big.next_u64() == a[0]
    assert Xoshiro256StarStar(-2 ** 64 + 7).next_u64() == a[0]
    assert Xoshiro256StarStar(np.int64(7)).next_u64() == a[0]


def test_uniform_range_and_bit_mapping():
    gen = Xoshiro256StarStar(42)
    assert gen.uniform() == (1546998764402558742 >> 11) * 2.0 ** -53
    u = gen.uniforms(2000)
    assert u.shape == (2000,)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert abs(float(np.mean(u)) - 0.5) < 0.02


def test_symmetric_matches_affine_map():
    a = Xoshiro256StarStar(5).symmetric(100)
    b = 2.0 * Xoshiro256StarStar(5).uniforms(100) - 1.0
    assert a == pytest.approx(b, abs=0)
    assert np.all((-1.0 <= a) & (a < 1.0))


def test_integer_bounds_and_coverage():
    gen = Xoshiro256StarStar(11)
    draws = [gen.integer(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    assert all(gen.integer(1) == 0 for _ in range(10))
    with pytest.raises(ValueError, match="positive"):
        gen.integer(0)


@pytest.mark.parametrize("n", [0, 1, 2, 33, 1000])
def test_batch_loop_matches_single_draws(n):
    batch, single = Xoshiro256StarStar(99), Xoshiro256StarStar(99)
    assert batch._outputs(n) == [single.next_u64() for _ in range(n)]
    assert batch._outputs(_BLOCK + 1) == single._outputs(_BLOCK + 1)
    u = Xoshiro256StarStar(99).uniforms(n)
    s = Xoshiro256StarStar(99).symmetric(n)
    single = Xoshiro256StarStar(99)
    want = [single.uniform() for _ in range(n)]
    assert u.shape == s.shape == (n,) and u.dtype == s.dtype == float
    assert u.tolist() == want
    assert s.tolist() == [2.0 * x - 1.0 for x in want]


def test_mixed_draws_keep_the_stream():
    # recorded before the draws went through one batch loop; floats as hex
    gen = Xoshiro256StarStar(2026)
    hexes = lambda a: [float(x).hex() for x in a]
    assert gen.integer(28) == 25
    assert hexes(gen.symmetric(3)) == [
        "-0x1.bb06435c94974p-2", "0x1.4002789e76736p-1",
        "0x1.931f729e1b558p-1"]
    assert gen.integer(7) == 4
    assert hexes(gen.uniforms(2)) == ["0x1.93db6347f29eep-1",
                                      "0x1.aadc689cb1b74p-1"]
    assert gen.integer(2 ** 64) == 15290312516027121239
    assert gen.uniform().hex() == "0x1.b8d6a5d598b74p-1"
    # about half of the draws for this bound are rejected
    assert [gen.integer(2 ** 63 + 1) for _ in range(4)] == [
        4387954702302482133, 5896734817366394376, 8758663803119997889,
        4003922312431441633]
    assert hexes(gen.symmetric(1)) == ["-0x1.4166daa567cf6p-1"]
    assert gen.next_u64() == 13664904493393896819


def test_draw_arguments_are_validated():
    gen = Xoshiro256StarStar(3)
    state = list(gen._s)
    for bound in (2 ** 64 + 1, 2 ** 65, -1):
        with pytest.raises(ValueError, match="at most 2\\*\\*64"):
            gen.integer(bound)
    for bound in (28.0, "28", None):
        with pytest.raises(TypeError):
            gen.integer(bound)
    for draw in (gen.uniforms, gen.symmetric):
        with pytest.raises(ValueError, match="nonnegative"):
            draw(-2)
        with pytest.raises(TypeError):
            draw(2.0)
    for args in ((-1, 5, 28), (3, -1, 28)):
        with pytest.raises(ValueError, match="nonnegative"):
            gen.symmetric_runs(*args)
    with pytest.raises(ValueError, match="at most 2\\*\\*64"):
        gen.symmetric_runs(3, 5, 0)
    assert gen._s == state  # a rejected argument draws nothing
    # a non-integer seed is refused, not truncated to one stream for 1.2, 1.7
    for seed in (1.2, 1.7, 7.0, "7", None):
        with pytest.raises(TypeError):
            Xoshiro256StarStar(seed)
    assert gen.integer(np.int64(28)) == Xoshiro256StarStar(3).integer(28)
    assert type(gen.integer(np.int64(28))) is int


def _draw(gen, kind, n):
    """One draw of the named kind, as plain Python values."""
    if kind == "next_u64":
        return gen.next_u64()
    if kind == "integer":
        return gen.integer(n + 1)
    if kind == "uniform":
        return gen.uniform()
    out = getattr(gen, kind)(n)
    if isinstance(out, np.ndarray):
        assert out.shape == (n,) and out.dtype == float
        out = out.tolist()
    return out


KINDS = ("next_u64", "integer", "uniform", "uniforms", "symmetric")


@pytest.mark.parametrize("kind", KINDS)
def test_first_draw_of_each_kind_matches_scalar_stream(kind):
    # a fresh generator holds no block yet: each kind of draw must make one
    # before reading it
    for n in (0, 1, _BLOCK + 7):
        gen, ref = Xoshiro256StarStar(31), ScalarXoshiro256StarStar(31)
        assert _draw(gen, kind, n) == _draw(ref, kind, n), n
        assert gen._outputs(3) == ref._outputs(3)


def test_draws_straddling_a_refill_match_scalar_stream():
    gen, ref = Xoshiro256StarStar(2026), ScalarXoshiro256StarStar(2026)
    assert gen._outputs(_BLOCK - 3) == ref._outputs(_BLOCK - 3)
    # 3 outputs left: a request of 10 reads them and 7 of the next block
    assert gen.symmetric(10).tolist() == ref.symmetric(10)
    assert gen.uniforms(0).tolist() == []
    # larger than a block and than what is left: whole blocks enough for it
    n = 3 * _BLOCK + 5
    assert gen.uniforms(n).tolist() == ref.uniforms(n)
    assert gen.integer(2 ** 63 + 1) == ref.integer(2 ** 63 + 1)
    assert gen._outputs(_BLOCK) == ref._outputs(_BLOCK)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_mixed_draws_match_scalar_stream(seed):
    gen, ref = Xoshiro256StarStar(seed), ScalarXoshiro256StarStar(seed)
    plan = np.random.default_rng(seed % 1000)
    for _ in range(400):
        kind = KINDS[int(plan.integers(len(KINDS)))]
        n = int(plan.choice([0, 1, 2, 28, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                             2 * _BLOCK + 9]))
        assert _draw(gen, kind, n) == _draw(ref, kind, n), (kind, n)


def _from(start):
    """The table-stepped and the scalar generator, both at ``start``: a
    seed, or a state set by hand."""
    if isinstance(start, list):
        gen, ref = Xoshiro256StarStar(0), ScalarXoshiro256StarStar(0)
        gen._s, ref._s = list(start), list(start)
        return gen, ref
    return Xoshiro256StarStar(start), ScalarXoshiro256StarStar(start)


def test_table_rows_match_scalar_stream():
    # one block from each one-bit state reads exactly one row of the table
    for bit in range(256):
        state = [0, 0, 0, 0]
        state[bit // 64] = 1 << bit % 64
        gen, ref = _from(state)
        assert gen._outputs(_BLOCK) == ref._outputs(_BLOCK), bit
        assert gen._s == ref._s, bit


ONES = 2 ** 64 - 1


@pytest.mark.parametrize("start", [
    [1, 0, 0, 0], [0, 0, 0, 1 << 63], [ONES, 0, 0, 0], [0, ONES, 0, 0],
    [0, 0, ONES, 0], [0, 0, 0, ONES], [ONES] * 4, [1, 2, 3, 4],
    0, 7, 2026, ONES])
def test_table_blocks_match_scalar_stream(start):
    gen, ref = _from(start)
    made = ScalarXoshiro256StarStar(0)
    made._s = list(ref._s)
    # 1 output takes a block, _BLOCK - 1 reads the rest of it, 3 * _BLOCK + 5
    # takes 4 blocks and leaves _BLOCK - 5 unread, _BLOCK takes 1 more
    for n in (1, _BLOCK - 1, 3 * _BLOCK + 5, _BLOCK):
        assert gen._outputs(n) == ref._outputs(n), n
    assert len(gen._words) - gen._pos == _BLOCK - 5
    # the state has run exactly the 6 blocks made
    made._outputs(6 * _BLOCK)
    assert gen._s == made._s


def _rejected_first():
    """A state whose first output is 2**64 - 1, above ``integer(28)``'s
    rejection limit: ``s1`` is the scrambler inverted,
    ``rotr(u * 9^-1, 7) * 5^-1`` modulo 2**64."""
    x = ONES * pow(9, -1, 2 ** 64) & ONES
    x = (x >> 7 | x << 57) & ONES
    return [0, x * pow(5, -1, 2 ** 64) & ONES, 0, 0]


BASE, BOUND = 5, 28


# with BASE + BOUND - 1 outputs left in its first block, seed 15's next run
# is the longest, BASE + BOUND - 1 outputs with its length word: it ends
# exactly at the block's end
@pytest.mark.parametrize("start", [0, 7, ONES, 15, "rejected_first"])
def test_symmetric_runs_match_scalar_stream(start):
    # the walk reads what the per-trial draws read, run by run, from a
    # block with nothing, 1, one longest run less 1, or a block less 1 left
    lefts = (0, 1, BASE + BOUND - 1, _BLOCK - 1)
    if start == 15:
        word = ScalarXoshiro256StarStar(15)._outputs(_BLOCK - BASE - BOUND + 2)
        assert word[-1] % BOUND == BOUND - 1
    if start == "rejected_first":
        start, lefts = _rejected_first(), (None,)
        assert _from(start)[1]._outputs(1) == [ONES]
    for left in lefts:
        for count in (0, 1, 3, 200, 512, 513):
            gen, ref = _from(start)
            if left is not None:
                assert gen._outputs(_BLOCK - left) == ref._outputs(
                    _BLOCK - left)
                assert len(gen._words) - gen._pos == left
            values, lengths = gen.symmetric_runs(count, BASE, BOUND)
            runs = [ref.symmetric(BASE + ref.integer(BOUND))
                    for _ in range(count)]
            assert values.dtype == float and lengths.dtype == np.intp
            assert lengths.tolist() == [len(run) for run in runs]
            assert values.tolist() == [x for run in runs for x in run]
            assert gen._outputs(5) == ref._outputs(5), (left, count)
