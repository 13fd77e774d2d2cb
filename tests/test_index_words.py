"""q_subsampled draws its index rows chunk by chunk with ``rng.integers``
and relies on consecutive draws continuing one stream: numpy keeps the
unused high half of a 64-bit word in the bit generator's state between
calls.  These tests hold numpy to that, on fresh generators and on ones
that hold half a word from an earlier int32 draw: the same values and
the same generator state after as one draw."""

import json

import numpy as np
import pytest

from glstat.mc import _Q_CHUNK_ROWS, q_subsampled

# numpy's bit generators whose 32-bit draws take the low, then the high
# half of each 64-bit word
HALF_WORD_GENERATORS = ("PCG64", "PCG64DXSM", "Philox", "SFC64")
KINDS = [getattr(np.random, k) for k in HALF_WORD_GENERATORS]


def state_json(bg):
    return json.dumps(bg.state, default=lambda a: a.tolist())


def generator_pair(kind, warm, seed):
    """Two generators in the same state."""
    pair = [np.random.Generator(kind(seed)) for _ in range(2)]
    if warm:
        for rng in pair:
            rng.integers(0, 10, dtype=np.int32)
    return pair


@pytest.mark.parametrize("kind", KINDS, ids=HALF_WORD_GENERATORS)
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("n", [2, 3, 100, 1000, 3 << 30, (1 << 32) - 1])
def test_draw_indices_is_rng_integers(kind, warm, n):
    # rows drawn in pieces of 1, about half and the rest: half-word
    # counts odd and even; at n = 3 * 2**30 about a quarter of the
    # half-words are skipped
    for rows, m in ((1, 2), (1, 3), (7, 3), (500, 2), (3333, 3)):
        one, pieces = generator_pair(kind, warm, rows * m)
        want = one.integers(0, n, size=(rows, m))
        cuts = sorted({0, 1, rows // 2, rows})
        got = [pieces.integers(0, n, size=(hi - lo, m))
               for lo, hi in zip(cuts, cuts[1:])]
        assert np.concatenate(got).tolist() == want.tolist()
        assert state_json(pieces.bit_generator) == state_json(
            one.bit_generator)


def test_draw_indices_in_pieces_is_one_draw():
    # the held half-word carries the stream across pieces of any length
    one, pieces = generator_pair(np.random.Philox, True, 5)
    want = one.integers(0, 3 << 30, size=1000)
    got = [pieces.integers(0, 3 << 30, size=hi - lo)
           for lo, hi in ((0, 1), (1, 4), (4, 333), (333, 334), (334, 1000))]
    assert np.concatenate(got).tolist() == want.tolist()
    assert state_json(pieces.bit_generator) == state_json(one.bit_generator)


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("drawn", [0, 1, 3, 4])
def test_philox_ahead_is_sequential_consumption(warm, drawn):
    # a Philox moved ahead by q_subsampled from each position in its
    # 4-word buffer is where one draw of the rows leaves it, and its
    # stream goes on from there
    x = np.random.default_rng(9).standard_normal(300)
    for n_subsets in (1, 2, 7, _Q_CHUNK_ROWS + 1):
        one, q = generator_pair(np.random.Philox, warm, 3)
        for rng in (one, q):
            rng.bit_generator.random_raw(drawn)
        q_subsampled(x, 3, 0.5, n_subsets, q)
        one.integers(0, 300, size=(n_subsets, 3))
        assert state_json(q.bit_generator) == state_json(one.bit_generator)
        assert (q.bit_generator.random_raw(9).tolist()
                == one.bit_generator.random_raw(9).tolist())


@pytest.mark.parametrize("kind", KINDS, ids=HALF_WORD_GENERATORS)
def test_q_subsampled_leaves_the_state_of_one_integers_draw(kind):
    # three chunks, the last one partial
    x = np.random.default_rng(9).standard_normal(300)
    one, q = generator_pair(kind, True, 11)
    q_subsampled(x, 3, 0.5, 70_001, q)
    one.integers(0, 300, size=(70_001, 3))
    assert state_json(q.bit_generator) == state_json(one.bit_generator)
