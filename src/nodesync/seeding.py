"""Deterministic seed derivation for reproducible Monte Carlo streams."""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """numpy's SeedSequence hash constants init * mult**k mod 2**32, k <= n."""
    consts = [init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(n + 1)]
    return np.array(consts, dtype=np.uint32)[:, None]


# The hash steps through the same constants whatever it hashes.  Mixing a
# pool of four words takes 4 + 4 * 3 hash calls; PCG64 draws 8 pool words.
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_DRAW_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def splitmix64(state: int) -> int:
    """Avalanche finalizer of the splitmix64 generator; elementwise on uint64 arrays."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, index: int) -> int:
    """Child seed number `index` under `master_seed`, elementwise on uint64 arrays.

    Equals the (index+1)-th output of a splitmix64 sequence seeded with
    master_seed, so distinct indices give statistically independent seeds
    and the derivation is independent of how work is batched or scheduled.
    """
    if np.any(np.less(index, 0)):
        raise ValueError(f"seed index must be nonnegative, got {index}")
    return splitmix64(((master_seed & _MASK64) + (index + 1) * _GOLDEN) & _MASK64)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 stream for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence hashmix of row i of `words` with consts i and i + 1."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ (words >> 16)


def _pcg64_states(seeds: np.ndarray) -> Iterator[dict]:
    """`bit_generator.state` of make_rng(seed) for each uint64 seed in turn: numpy's
    documented SeedSequence pool hash, vectorised, then PCG64's setseq step.  numpy
    pads a one-word seed with the hash of 0, so every seed hashes as two 32-bit words."""
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & 0xFFFFFFFF, seeds >> 32
    pool = _hashmix(pool, _MIX_HASH[:5])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashed = _hashmix(pool[src], _MIX_HASH[4 + 3 * src : 8 + 3 * src])
        mixed = pool[dst] * np.uint32(0xCA01F9DD) - hashed * np.uint32(0x4973F715)
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(np.tile(pool, (2, 1)), _DRAW_HASH).astype(np.uint64)
    words = (words[0::2] | words[1::2] << 32).T
    for start in range(0, len(words), 1024):  # Python ints for 1,024 rows at a time
        for s_hi, s_lo, i_hi, i_lo in words[start : start + 1024].tolist():
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}


def fill_streams(master_seed: int, first: int, out: np.ndarray, offset: int = 0) -> None:
    """Fill row j of the 2-D `out` with the doubles of make_rng(derive_seed(
    master_seed, first + j)).random, setting each row's PCG64 state in turn.

    With `offset` > 0 the rows continue their streams: row j holds doubles
    offset, offset + 1, ... of stream first + j, because each row's state is
    advanced by `offset` steps (PCG64 spends one step per double) before it
    is drawn.  A long series can so be drawn piece by piece without keeping
    one generator per row alive."""
    seeds = derive_seed(master_seed, np.arange(first, first + len(out), dtype=np.uint64))
    rng = np.random.Generator(np.random.PCG64(0))
    for row, state in zip(out, _pcg64_states(seeds)):
        rng.bit_generator.state = state
        if offset:
            rng.bit_generator.advance(offset)
        rng.random(out=row)
