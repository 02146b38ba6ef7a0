"""Reproducible per-subject random streams.

Every subject gets an independent generator keyed by (master seed, subject
index).  Because a subject's draws never depend on any other subject's, a
cohort can be simulated in any order and split across any number of workers
while producing bit-identical results.

``subject_stream`` returns subject i's ``Generator(PCG64(key))``, where the
key equals ``numpy.random.SeedSequence([master_seed, i]).generate_state(4,
np.uint64)``: the same 256 bits numpy's ``default_rng(SeedSequence([master_seed,
i]))`` seeds PCG64 with, so every draw matches it.  The keys are derived
here, for a block of 4 096 consecutive subjects in one vectorized pass, with
SeedSequence's hash and mix functions at its default pool size of 4.  The
generator's ``seed_seq`` is a ``_Key`` holding that subject's key; it cannot
spawn child sequences (``Generator.spawn`` raises), and nothing in the
package spawns.

``block_uniforms`` gives the first 8 scalar ``random()`` draws of each
subject of a block as one array row, computed in a single numpy pass: numpy's
own PCG64 (seeding, 128-bit LCG step and XSL-RR output) evaluated on the
block's keys.  ``uniforms_past_block`` continues a subject's draws from the
9th on with its ``Generator``, advanced past the 8, so the draws of a row
followed by its continuation are those of numpy's stream, bit for bit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

BLOCK = 4096  # subjects per derived key block (a power of two dividing 2^32)
_DRAWS = 8  # scalar uniforms per subject computed with its block
_POOL_SIZE = 4
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of each successive hashmix call from one hash constant.

    SeedSequence's hash constant advances the same way whatever is hashed,
    so its whole sequence is known up front.
    """
    pairs, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _MASK32
        pairs.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return pairs


# mix_entropy hashes each pool word once, then every ordered pair of distinct
# pool words once; generate_state hashes 8 words for 4 uint64 outputs.
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1))
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(value: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


@lru_cache(maxsize=1)
def _key_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64 keys of subjects block·4096 … block·4096 + 4095, one row each.

    Row j equals ``SeedSequence([master_seed, block * 4096 + j])
    .generate_state(4, np.uint64)``.  Numpy's entropy for [seed, i] is the
    seed's 32-bit words (one word for 0) followed by i's; SeedSequence reads
    words past the end of the entropy as 0.  For seed and i below 2^64 that
    is at most 4 words, so [seed words, low word of i, high word of i] padded
    with zeros to 4 words is the same pool input.
    """
    seed_words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    index = np.arange(block * BLOCK, (block + 1) * BLOCK, dtype=np.uint64)
    entropy = [np.full(BLOCK, w, dtype=np.uint32) for w in seed_words]
    entropy += [(index & _MASK32).astype(np.uint32), (index >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros(BLOCK, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))

    constants = iter(_MIX_CONSTANTS)
    pool = [_hashmix(word, *next(constants)) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(constants)))

    state = np.empty((BLOCK, 2 * _POOL_SIZE), dtype="<u4")
    for k, (xor, mult) in enumerate(_STATE_CONSTANTS):
        state[:, k] = _hashmix(pool[k % _POOL_SIZE], xor, mult)
    # Word pairs form uint64s low word first, as SeedSequence does.  On a
    # little-endian machine the view and the cast copy nothing, so the kept
    # array is the only 128 KB one built.
    keys = state.view("<u8").astype(np.uint64, copy=False)
    keys.flags.writeable = False
    return keys


# PCG64's LCG multiplier, as 64-bit halves and as the two 32-bit limbs of the
# low half.  numpy arrays of uint64 wrap on overflow, which is the mod 2^64
# arithmetic the step needs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
_MULT_LO0, _MULT_LO1 = np.uint64(_PCG_MULT & _MASK32), np.uint64((_PCG_MULT >> 32) & _MASK32)
_U32, _U64_MASK32, _ONE = np.uint64(32), np.uint64(_MASK32), np.uint64(1)


def _mulhi_mult_lo(x: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product x · _MULT_LO, from 32-bit limbs."""
    x0, x1 = x & _U64_MASK32, x >> _U32
    p00, p01, p10 = x0 * _MULT_LO0, x0 * _MULT_LO1, x1 * _MULT_LO0
    mid = (p00 >> _U32) + (p01 & _U64_MASK32) + (p10 & _U64_MASK32)
    return x1 * _MULT_LO1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _lcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """state · _PCG_MULT + inc mod 2^128, on (high, low) 64-bit halves."""
    new_lo = lo * _MULT_LO + inc_lo
    carry = new_lo < inc_lo
    return _mulhi_mult_lo(lo) + hi * _MULT_LO + lo * _MULT_HI + inc_hi + carry, new_lo


@lru_cache(maxsize=1)
def _uniform_block(master_seed: int, block: int) -> np.ndarray:
    """First 8 ``random()`` draws of every subject of a key block, read-only.

    Element (j, d) is draw d of subject block·4096 + j.  PCG64 is seeded as
    numpy's ``pcg64_set_seed`` does: from state 0, with increment
    ``(k2·2^64 + k3) << 1 | 1``, step, add ``k0·2^64 + k1``, step again.
    Each draw steps once and takes the XSL-RR output of the new state; a
    double is its top 53 bits times 2^-53.
    """
    k0, k1, k2, k3 = _key_block(master_seed, block).T
    inc_hi = (k2 << _ONE) | (k3 >> np.uint64(63))
    inc_lo = (k3 << _ONE) | _ONE
    lo = inc_lo + k1  # the first step from state 0 leaves inc; add the seed
    hi, lo = _lcg_step(inc_hi + k0 + (lo < k1), lo, inc_hi, inc_lo)
    bits = np.empty((BLOCK, _DRAWS), dtype=np.uint64)
    for d in range(_DRAWS):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        folded, rot = hi ^ lo, hi >> np.uint64(58)
        bits[:, d] = ((folded >> rot) | (folded << (-rot & np.uint64(63)))) >> np.uint64(11)
    uniforms = bits * 2.0**-53
    uniforms.flags.writeable = False
    return uniforms


class _Key(ISeedSequence):
    """One subject's derived PCG64 key, handed to the bit generator as its seed."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a subject key holds exactly 4 uint64 words (what PCG64 reads)")
        return self._words


def subject_stream(master_seed: int, subject_index: int) -> np.random.Generator:
    """Generator for one subject, independent of all other subjects' streams.

    Raises:
        ValueError: unless both arguments are in [0, 2^64).
    """
    if not (0 <= master_seed < 2**64 and 0 <= subject_index < 2**64):
        raise ValueError(
            f"master seed and subject index must be in [0, 2^64),"
            f" got {master_seed} and {subject_index}"
        )
    block, row = divmod(subject_index, BLOCK)
    return np.random.Generator(np.random.PCG64(_Key(_key_block(master_seed, block)[row])))


def block_uniforms(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The first 8 ``random()`` draws of subjects [start, stop), which lie in
    one key block, as a read-only (n, 8) array: row j is subject
    ``start + j``'s.

    Raises:
        ValueError: if the range crosses the edge of a key block.
    """
    block, offset = divmod(start, BLOCK)
    if stop > (block + 1) * BLOCK:
        raise ValueError(f"subjects [{start}, {stop}) cross a key block edge")
    return _uniform_block(master_seed, block)[offset : stop - block * BLOCK]


def uniforms_past_block(master_seed: int, subject_index: int) -> Iterator[float]:
    """The subject's ``random()`` draws from the 9th on, those after its
    ``block_uniforms`` row.  The subject's ``Generator`` is built at the first
    draw taken, so a subject that takes none builds none."""
    rng = subject_stream(master_seed, subject_index)
    rng.bit_generator.advance(_DRAWS)
    yield from iter(rng.random, None)
