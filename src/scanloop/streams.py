"""Reproducible per-subject random draws, every one from numpy's Philox.

Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC 2011) maps a 128-bit key and a 256-bit counter to a
block of four 64-bit words.  Seed s and subject index i fix every draw of
subject i, so a cohort split any way gives bit-identical results:

* an abstract subject draws from the cohort key (s, 0) alone, each word made
  a double as ``random()`` makes one: its top 53 bits times 2^-53.  Scan k
  of subject i reads its failure and flag uniforms as words 2(k mod 2) and
  2(k mod 2) + 1 of the block at counter (i, k // 2, 0, 1), and its failure
  rate, where one is drawn, reads word 0 of the block at counter (i, 0, 1, 1).
* a kinematic subject draws from ``subject_stream(s, i)``,
  ``Generator(Philox(key=[s, i]))`` from counter 0, whose counters never
  reach word 3, so it never repeats a cohort-key block.  It cannot spawn
  (``Generator.spawn`` raises), and nothing in the package spawns.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_WORDS = 4  # 64-bit words per Philox block
_WORD3 = 1 << 192  # counter word 3, which no subject stream reaches
_ZERO = np.zeros(_WORDS, dtype=np.uint64)  # counter 0: numpy reads it faster than int 0


class _Key(ISeedSequence):
    """A Philox key handed to the bit generator as its seed, so that numpy
    reads no OS entropy for a seed sequence it would throw away."""

    __slots__ = ("_words",)

    def __init__(self, master_seed: int, subject_index: int) -> None:
        self._words = np.array([master_seed, subject_index], dtype=np.uint64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a subject key holds exactly 2 uint64 words (what Philox reads)")
        return self._words


def _check(master_seed: int, start: int, stop: int) -> None:
    if not (0 <= master_seed < 2**64 and 0 <= start <= stop <= 2**64):
        raise ValueError(f"seed {master_seed} and subjects [{start}, {stop}) must lie in [0, 2^64)")


def subject_stream(master_seed: int, subject_index: int) -> np.random.Generator:
    """Generator for one subject, independent of all other subjects' streams.

    Raises:
        ValueError: unless both arguments are in [0, 2^64).
    """
    _check(master_seed, subject_index, subject_index + 1)
    return np.random.Generator(np.random.Philox(_Key(master_seed, subject_index), counter=_ZERO))


def _state(key: list[int], counter: list[int]) -> dict:
    """A Philox state at ``counter`` under ``key`` with no buffered word, for
    re-setting a bit generator (numpy reads lists here faster than arrays)."""
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key}}
    return state | {"buffer": [0] * _WORDS, "buffer_pos": _WORDS, "has_uint32": 0, "uinteger": 0}


def subject_streams(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """``subject_stream(master_seed, i)`` for each i in [start, stop), as one
    ``Generator`` re-keyed for each subject: a subject's draws must all be
    taken before the next subject's stream is.

    Raises:
        ValueError: unless the seed and every index are in [0, 2^64).
    """
    _check(master_seed, start, max(start, stop))
    rng, key = np.random.Generator(np.random.Philox(_Key(master_seed, 0))), [master_seed, 0]
    state = _state(key, [0] * _WORDS)

    def rekeyed(subject_index: int) -> np.random.Generator:
        key[1] = subject_index
        rng.bit_generator.state = state
        return rng

    return map(rekeyed, range(start, stop))


def _uniforms(master_seed: int, start: int, stop: int, lane: int) -> np.ndarray:
    """The uniforms of the cohort key's blocks at counters ``i + lane`` for i
    in [start, stop), as an (n, 4) array (``lane`` holds counter words 1-3)."""
    _check(master_seed, start, max(start, stop))
    n = max(stop - start, 0)
    # numpy steps the counter before it computes each block
    words = np.random.Philox(_Key(master_seed, 0), counter=lane + start - 1).random_raw(_WORDS * n)
    return (words.reshape(n, _WORDS) >> np.uint64(11)) * 2.0**-53


def block_uniforms(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The uniforms of scans 0 to 3 of subjects [start, stop) as an (n, 8)
    array: row j is subject ``start + j``'s, two columns a scan.

    Raises:
        ValueError: unless the seed and every index are in [0, 2^64).
    """
    return np.hstack([_uniforms(master_seed, start, stop, _WORD3 + (h << 64)) for h in (0, 1)])


def alpha_uniforms(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The failure-rate uniforms of subjects [start, stop), one a subject.

    Raises:
        ValueError: unless the seed and every index are in [0, 2^64).
    """
    return _uniforms(master_seed, start, stop, _WORD3 + (1 << 128))[:, 0]


def later_scan_uniforms(master_seed: int) -> Callable[[int], Iterator[float]]:
    """A function of i that yields subject i's uniforms from scan 4 on, all
    subjects' from one Philox whose counter is re-set for each block: a
    subject's draws must all be taken before the next subject's are.

    Raises (for the seed at once, for an index at its subject's first draw):
        ValueError: unless the seed and the subject's index are in [0, 2^64).
    """
    _check(master_seed, 0, 0)
    bits, counter = np.random.Philox(_Key(master_seed, 0)), [0, 0, 0, 1]
    state = _state([master_seed, 0], counter)

    def uniforms(subject_index: int) -> Iterator[float]:
        _check(master_seed, subject_index, subject_index + 1)
        for block in itertools.count(2):
            # one below the block's counter (i, block, 0, 1): numpy steps it first
            counter[:2] = (subject_index - 1) % 2**64, block - (subject_index == 0)
            bits.state = state
            for word in bits.random_raw(_WORDS).tolist():
                yield (word >> 11) * 2.0**-53

    return uniforms
