"""Reproducible per-subject random streams.

Every subject gets an independent generator keyed by (master seed, subject
index).  Because a subject's draws never depend on any other subject's, a
cohort can be simulated in any order and split across any number of workers
while producing bit-identical results.

Subject i's generator is ``Generator(PCG64(key))`` where the key equals
``numpy.random.SeedSequence([master_seed, i]).generate_state(4, np.uint64)``:
the same 256 bits numpy's ``default_rng(SeedSequence([master_seed, i]))``
seeds PCG64 with, so every draw matches it.  The keys are derived here, for a
block of consecutive subjects in one vectorized pass, with SeedSequence's
hash and mix functions at its default pool size of 4.  The generator's
``seed_seq`` is a ``_Key`` holding that subject's key; it cannot spawn child
sequences (``Generator.spawn`` raises), and nothing in the package spawns.

``subject_stream`` returns a ``SubjectStream``.  It serves the subject's
first 8 scalar ``random()`` draws from one array that a single numpy pass
computes for the whole block: numpy's own PCG64 (seeding, 128-bit LCG step
and XSL-RR output) evaluated on the block's keys.  Every other draw goes to
the subject's ``Generator``, built on first use and advanced past the
uniforms already served, so the draws are those of numpy's stream, bit for
bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_BLOCK = 4096  # subjects per derived key block (a divisor of 2^32)
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
    index = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint64)
    entropy = [np.full(_BLOCK, w, dtype=np.uint32) for w in seed_words]
    entropy += [(index & _MASK32).astype(np.uint32), (index >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros(_BLOCK, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))

    constants = iter(_MIX_CONSTANTS)
    pool = [_hashmix(word, *next(constants)) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(constants)))

    state = np.empty((_BLOCK, 2 * _POOL_SIZE), dtype="<u4")
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
def _uniform_block(master_seed: int, block: int) -> memoryview:
    """First 8 ``random()`` draws of every subject of a key block, row-major.

    Element 8·j + d is draw d of subject block·4096 + j.  PCG64 is seeded as
    numpy's ``pcg64_set_seed`` does: from state 0, with increment
    ``(k2·2^64 + k3) << 1 | 1``, step, add ``k0·2^64 + k1``, step again.
    Each draw steps once and takes the XSL-RR output of the new state; a
    double is its top 53 bits times 2^-53.  Python floats are read from the
    view one at a time, so draws a subject never makes cost nothing.
    """
    k0, k1, k2, k3 = _key_block(master_seed, block).T
    inc_hi = (k2 << _ONE) | (k3 >> np.uint64(63))
    inc_lo = (k3 << _ONE) | _ONE
    lo = inc_lo + k1  # the first step from state 0 leaves inc; add the seed
    hi, lo = _lcg_step(inc_hi + k0 + (lo < k1), lo, inc_hi, inc_lo)
    bits = np.empty((_BLOCK, _DRAWS), dtype=np.uint64)
    for d in range(_DRAWS):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        folded, rot = hi ^ lo, hi >> np.uint64(58)
        bits[:, d] = ((folded >> rot) | (folded << (-rot & np.uint64(63)))) >> np.uint64(11)
    return memoryview(bits * 2.0**-53).cast("B").cast("d")


class _Key(ISeedSequence):
    """One subject's derived PCG64 key, handed to the bit generator as its seed."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a subject key holds exactly 4 uint64 words (what PCG64 reads)")
        return self._words


class SubjectStream:
    """One subject's draws: numpy's ``Generator`` for that subject, with its
    first 8 scalar uniforms taken from the block pass.

    ``random()`` without arguments serves those uniforms; the block pass runs
    at the first such call.  Every other draw, and every other ``Generator``
    attribute (``random(size)``, ``standard_normal``, ``beta``,
    ``bit_generator``, ``spawn``, ...), goes to ``generator``.  Once that
    exists, its ``random`` and every attribute read through it are stored on
    the instance, so later draws reach numpy without passing through here.
    """

    def __init__(self, master_seed: int, subject_index: int) -> None:
        self._seed = master_seed
        self._index = subject_index
        self._uniforms: memoryview | None = None
        self._next = self._stop = 0  # the unserved part of this subject's uniforms
        self._generator: np.random.Generator | None = None

    def random(self, size=None, dtype=np.float64, out=None):
        """``Generator.random``: scalar draws 1 to 8 come from the block pass."""
        scalar = size is None and dtype is np.float64 and out is None
        i = self._next
        if i < self._stop and scalar:
            self._next = i + 1
            return self._uniforms[i]
        if self._uniforms is None and self._generator is None and scalar:
            first = self._index % _BLOCK * _DRAWS
            self._uniforms = _uniform_block(self._seed, self._index // _BLOCK)
            self._next, self._stop = first + 1, first + _DRAWS
            return self._uniforms[first]
        return self.generator.random(size, dtype, out)

    @property
    def generator(self) -> np.random.Generator:
        """The subject's ``Generator``, positioned after every draw served so far."""
        if self._generator is None:
            block, row = divmod(self._index, _BLOCK)
            bit_generator = np.random.PCG64(_Key(_key_block(self._seed, block)[row]))
            if self._uniforms is not None:
                bit_generator.advance(self._next - row * _DRAWS)
            self._next = self._stop = 0
            self._generator = np.random.Generator(bit_generator)
            self.random = self._generator.random
        return self._generator

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        value = getattr(self.generator, name)
        setattr(self, name, value)
        return value


def subject_stream(master_seed: int, subject_index: int) -> SubjectStream:
    """Stream for one subject, independent of all other subjects' streams.

    Raises:
        ValueError: unless both arguments are in [0, 2^64).
    """
    if not (0 <= master_seed < 2**64 and 0 <= subject_index < 2**64):
        raise ValueError(
            f"master seed and subject index must be in [0, 2^64),"
            f" got {master_seed} and {subject_index}"
        )
    return SubjectStream(master_seed, subject_index)
