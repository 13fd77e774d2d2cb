"""q_subsampled computes its index rows from raw 64-bit words by numpy's
bounded-integer rule instead of calling ``rng.integers``.  These tests
hold that rule to ``rng.integers`` itself: the same values and the same
generator state after, on fresh generators and on ones that hold half a
word from an earlier int32 draw."""

import json

import numpy as np
import pytest

from glstat.mc import (_HALF_WORD_GENERATORS, _draw_indices, _philox_ahead,
                       q_subsampled)

KINDS = [getattr(np.random, k) for k in _HALF_WORD_GENERATORS]


def state_json(bg):
    return json.dumps(bg.state, default=lambda a: a.tolist())


def held(bg):
    s = bg.state
    return s["has_uint32"], s["uinteger"]


def hold(bg, pair):
    s = bg.state
    s["has_uint32"], s["uinteger"] = pair
    bg.state = s


def generator_pair(kind, warm, seed):
    """Two generators in the same state, the second's bit generator
    bare."""
    pair = [np.random.Generator(kind(seed)) for _ in range(2)]
    if warm:
        for rng in pair:
            rng.integers(0, 10, dtype=np.int32)
    return pair[0], pair[1].bit_generator


@pytest.mark.parametrize("kind", KINDS, ids=_HALF_WORD_GENERATORS)
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("n", [2, 3, 100, 1000, 3 << 30, (1 << 32) - 1])
def test_draw_indices_is_rng_integers(kind, warm, n):
    # word counts odd and even; at n = 3 * 2**30 about a quarter of the
    # half-words are skipped
    for rows, m in ((1, 2), (1, 3), (7, 3), (500, 2), (3333, 3)):
        rng, bg = generator_pair(kind, warm, rows * m)
        want = rng.integers(0, n, size=(rows, m))
        out = np.empty(rows * m, dtype=np.uint64)
        after, skipped = _draw_indices(bg, n, held(bg), out)
        hold(bg, after)
        assert out.reshape(rows, m).tolist() == want.tolist()
        assert state_json(bg) == state_json(rng.bit_generator)
        if n == 3 << 30 and rows * m > 100:
            assert skipped


def test_draw_indices_in_pieces_is_one_draw():
    # the held pair carries the stream across pieces of any length
    rng, bg = generator_pair(np.random.Philox, True, 5)
    want = rng.integers(0, 3 << 30, size=1000)
    out, pair = np.empty(1000, dtype=np.uint64), held(bg)
    for lo, hi in ((0, 1), (1, 4), (4, 333), (333, 334), (334, 1000)):
        pair, _ = _draw_indices(bg, 3 << 30, pair, out[lo:hi])
    hold(bg, pair)
    assert out.tolist() == want.tolist()
    assert state_json(bg) == state_json(rng.bit_generator)


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("drawn", [0, 1, 3, 4])
def test_philox_ahead_is_sequential_consumption(warm, drawn):
    # offsets 0-17 and several thousand half-words, from each position
    # in the 4-word buffer; 8 and 16 half-words from a fresh generator,
    # and 8000 from any, end exactly on a block boundary
    for skip in [*range(18), 4001, 7999, 8000, 8001]:
        rng, bg = generator_pair(np.random.Philox, warm, 3)
        rng.bit_generator.random_raw(drawn)
        bg.random_raw(drawn)
        ahead, pair = _philox_ahead(bg, held(bg), skip)
        # 2**16 divides 2**32, so numpy takes one half-word per value
        rng.integers(0, 1 << 16, size=skip)
        hold(ahead, pair)
        assert state_json(ahead) == state_json(rng.bit_generator)
        assert (ahead.random_raw(9).tolist()
                == rng.bit_generator.random_raw(9).tolist())


def test_q_subsampled_rejects_generators_without_half_words():
    rng = np.random.Generator(np.random.MT19937(1))
    before = state_json(rng.bit_generator)
    with pytest.raises(ValueError, match="MT19937"):
        q_subsampled(np.arange(10.0), 3, 0.5, 100, rng)
    assert state_json(rng.bit_generator) == before


@pytest.mark.parametrize("kind", KINDS, ids=_HALF_WORD_GENERATORS)
def test_q_subsampled_leaves_the_state_of_one_integers_draw(kind):
    # on a Philox two threads share the chunks; the others take every
    # chunk on the calling thread
    x = np.random.default_rng(9).standard_normal(300)
    rng, bg = generator_pair(kind, True, 11)
    q_subsampled(x, 3, 0.5, 70_001, np.random.Generator(bg))
    rng.integers(0, 300, size=(70_001, 3))
    assert state_json(bg) == state_json(rng.bit_generator)

