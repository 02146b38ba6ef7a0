"""Reproducible per-subject random streams, every draw from numpy's Philox.

Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC 2011) maps a 128-bit key and a 256-bit counter to a
block of four 64-bit words.  Seed s and subject index i fix every draw of
subject i, so a cohort split any way gives bit-identical results:

* under the cohort key (s, 0), scalar draw d < 8 of subject i is word d mod 4
  of the block at counter (i, d // 4, 0, 1), made a double as ``random()``
  makes one: the word's top 53 bits times 2^-53.  ``block_uniforms`` reads
  them for any range of subjects in two numpy calls.
* every other draw of subject i comes from ``subject_stream(s, i)``,
  ``Generator(Philox(key=[s, i]))`` from counter 0.  Its counters never
  reach word 3, so it never repeats a block draw.  ``uniforms_past_blocks``
  gives the scalar draws of any subjects, and ``subject_streams`` the streams
  of a range of subjects, each from one re-keyed generator.  A stream cannot
  spawn child streams (``Generator.spawn`` raises), and nothing in the
  package spawns.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_DRAWS = 8  # scalar draws per subject read from the cohort key's blocks
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


def _rekeyed(master_seed: int) -> Callable[[int], np.random.Generator]:
    """A function of i that gives ``subject_stream(master_seed, i)`` as one
    ``Generator``, re-keyed at each call (i unchecked)."""
    rng, key = np.random.Generator(np.random.Philox(_Key(master_seed, 0))), [master_seed, 0]
    # A fresh Philox's state: counter 0, no buffered word.  numpy reads lists
    # here faster than the arrays its own state holds.
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key}}
    state.update(buffer=[0] * 4, buffer_pos=4, has_uint32=0, uinteger=0)

    def rekeyed(subject_index: int) -> np.random.Generator:
        key[1] = subject_index
        rng.bit_generator.state = state
        return rng

    return rekeyed


def subject_streams(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """``subject_stream(master_seed, i)`` for each i in [start, stop), as one
    ``Generator`` re-keyed for each subject: a subject's draws must all be
    taken before the next subject's stream is.

    Raises:
        ValueError: unless the seed and every index are in [0, 2^64).
    """
    _check(master_seed, start, max(start, stop))
    return map(_rekeyed(master_seed), range(start, stop))


def block_uniforms(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The first 8 scalar draws of subjects [start, stop) as an (n, 8)
    array: row j is subject ``start + j``'s.

    Raises:
        ValueError: unless the seed and every index are in [0, 2^64).
    """
    _check(master_seed, start, max(start, stop))
    n, key = max(stop - start, 0), _Key(master_seed, 0)
    bits = np.empty((n, _DRAWS), dtype=np.uint64)
    for half in range(_DRAWS // _WORDS):
        # numpy steps the counter before it computes each block
        counter = _WORD3 + (half << 64) + start - 1
        words = np.random.Philox(key, counter=counter).random_raw(_WORDS * n)
        bits[:, half * _WORDS : (half + 1) * _WORDS] = words.reshape(n, _WORDS)
    return (bits >> np.uint64(11)) * 2.0**-53


def uniforms_past_blocks(master_seed: int) -> Callable[[int], Iterator[float]]:
    """A function of i that gives subject i's scalar draws after its 8 block
    draws: those of its ``subject_stream``, from the first.  All subjects'
    draws come from one ``Generator``, built at the first draw any subject
    takes and re-keyed for each subject that takes one, so a subject that
    takes none costs none; a subject's draws must all be taken before the
    next subject's are.

    Raises (at a subject's first draw):
        ValueError: unless the seed and the subject's index are in [0, 2^64).
    """
    rekeyed = None

    def uniforms(subject_index: int) -> Iterator[float]:
        nonlocal rekeyed
        _check(master_seed, subject_index, subject_index + 1)
        if rekeyed is None:
            rekeyed = _rekeyed(master_seed)
        yield from iter(rekeyed(subject_index).random, None)

    return uniforms
