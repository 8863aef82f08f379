from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import nodesync.queue_model as qm
import nodesync.seeding as seeding
from nodesync.seeding import _pcg64_states, derive_seed, fill_streams, make_rng, stream_states


def test_stream_states_match_numpy_seeding():
    rng = np.random.default_rng(16)
    seeds = np.concatenate([
        np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64),
        rng.integers(0, 2**32, size=2_000, dtype=np.uint64),
        rng.integers(0, 2**64 - 1, size=8_000, dtype=np.uint64, endpoint=True),
    ])
    want = [np.random.PCG64(int(seed)).state for seed in seeds]
    assert list(_pcg64_states(seeds)) == want


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_seed(1, -1)


@pytest.mark.parametrize("master_seed, first", [(-1, 0), (0, 7), (2**64 + 5, 1_000_003)])
def test_fill_streams_equals_per_walk_streams(master_seed, first):
    rows = 3_400
    children = [derive_seed(master_seed, first + j) for j in range(rows)]
    rngs = [make_rng(child) for child in children]
    states = list(_pcg64_states(np.array(children, dtype=np.uint64)))
    assert states == [rng.bit_generator.state for rng in rngs]
    out = np.empty((rows, 6))
    fill_streams(master_seed, first, out)
    assert np.array_equal(out, np.array([rng.random(6) for rng in rngs]))


def test_derive_seed_is_elementwise():
    masters = [-3, -1, 0, 7, 2**64 + 5, 2**70 + 11, 12345678901234567890]
    for master_seed in masters:
        for first in (0, 9, 1_000_003):
            index = np.arange(first, first + 50, dtype=np.uint64)
            seeds = derive_seed(master_seed, index)
            assert seeds.dtype == np.uint64
            assert seeds.tolist() == [derive_seed(master_seed, int(i)) for i in index]
    with pytest.raises(ValueError):
        derive_seed(1, np.array([0, -1]))


def test_fill_streams_sets_each_state_as_it_is_built():
    # Building every row's state dict before setting any held 823 traced
    # bytes per row; set as they are built, the rows hold about 383.
    rows = 20_000
    out = np.empty((rows, 2))
    fill_streams(3, 0, out[:10])  # keeps first-call allocations out of the trace
    tracemalloc.start()
    try:
        fill_streams(7, 5, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows <= 823 / 2


def test_fill_streams_turns_hash_words_into_ints_block_by_block():
    # Python ints for the whole batch's hash words held about 383 traced
    # bytes per row; a block of rows at a time holds about 144.
    rows = 131_072
    out = np.empty((rows, 2))
    fill_streams(3, 0, out[:10])  # keeps first-call allocations out of the trace
    tracemalloc.start()
    try:
        fill_streams(7, 5, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows <= 200
    assert np.array_equal(out[[0, 1023, 1024, -1]], [
        make_rng(derive_seed(7, 5 + j)).random(2) for j in (0, 1023, 1024, rows - 1)
    ])


def test_fill_streams_takes_any_batch_height():
    horizon = 5_000
    for rows in range(1, qm._BLOCK // horizon + 1):
        first = 40 * rows
        out = np.empty((rows, 2 * horizon))
        fill_streams(11, first, out)
        for j, row in enumerate(out):
            assert np.array_equal(row, make_rng(derive_seed(11, first + j)).random(2 * horizon))


@pytest.mark.parametrize("master_seed", [11, -5])
def test_fill_streams_continues_each_stream_at_an_offset(master_seed):
    rows, width = 4, 40
    longest = 3 * 2**15
    whole = np.empty((rows, longest + width))
    fill_streams(master_seed, 9, whole)
    for offset in (0, 1, 12345, longest):
        out = np.empty((rows, width))
        fill_streams(master_seed, 9, out, offset)
        assert np.array_equal(out, whole[:, offset : offset + width])


def test_stream_states_hash_block_by_block_as_they_are_taken(monkeypatch):
    hashed = []
    states = seeding._pcg64_states

    def counted(seeds):
        hashed.append(len(seeds))
        return states(seeds)

    monkeypatch.setattr(seeding, "_pcg64_states", counted)
    stream = stream_states(-5, 1000, 2500)
    first = [next(stream) for _ in range(3)]
    assert hashed == [1024]
    rest = list(stream)
    assert hashed == [1024, 1024, 452]
    want = [make_rng(derive_seed(-5, 1000 + j)).bit_generator.state for j in range(2500)]
    assert first + rest == want


def test_fill_streams_takes_hashed_states():
    # A list of states serves any number of calls, at any offset; an
    # iterator gives each call as many states as the call has rows.
    whole = np.empty((5, 300))
    fill_streams(9, 40, whole)
    listed = list(stream_states(9, 40, 5))
    out = np.empty((5, 100))
    for offset in (0, 100, 200):
        fill_streams(9, 40, out, offset, listed)
        assert np.array_equal(out, whole[:, offset : offset + 100])
    stream = stream_states(9, 40, 5)
    fill_streams(9, 40, out[:2], 0, stream)
    fill_streams(9, 42, out[2:], 0, stream)
    assert np.array_equal(out, whole[:, :100]) and next(stream, None) is None
