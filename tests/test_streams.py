"""Per-subject streams equal numpy's own Philox4x64-10 streams."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_draws
from scanloop.streams import block_uniforms, subject_stream, subject_streams, uniforms_past_blocks

SEEDS = (0, 1, 42, 2**32 - 1, 2**32, 2**64 - 1)
INDICES = (0, 1, 4095, 4096, 4097, 2**32 - 1, 2**32, 2**32 + 1)


def reference_stream(seed: int, index: int) -> np.random.Generator:
    # the key as uint64 words: numpy reads a list such as [2**64 - 1, 0]
    # through float64
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def plain(state: dict) -> dict:
    """A bit generator's state with its arrays as lists, so states compare."""
    return {
        k: plain(v) if isinstance(v, dict) else v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in state.items()
    }


def assert_same_stream(got: np.random.Generator, want: np.random.Generator) -> None:
    assert plain(got.bit_generator.state) == plain(want.bit_generator.state)
    assert got.random(8).tolist() == want.random(8).tolist()


def test_philox_is_random123s_philox4x64_10():
    # Random123's known answer for an all-zero key and counter.  numpy steps
    # the counter before each block, so the counter one below 0 computes it.
    words = np.random.Philox(key=0, counter=2**256 - 1).random_raw(4)
    assert [f"{w:016x}" for w in words.tolist()] == [
        "16554d9eca36314c",
        "db20fe9d672d0fdc",
        "d7e772cee186176b",
        "7e68b68aec7ba23b",
    ]


@pytest.mark.parametrize("seed, index", list(itertools.product(SEEDS, INDICES)))
def test_block_row_equals_scalar_philox_blocks(seed, index):
    (row,) = block_uniforms(seed, index, index + 1).tolist()
    assert row == block_draws(seed, index)


@pytest.mark.parametrize("seed, index", list(itertools.product(SEEDS, INDICES)))
def test_subject_stream_equals_keyed_philox_stream(seed, index):
    assert_same_stream(subject_stream(seed, index), reference_stream(seed, index))


@pytest.mark.parametrize("seed, index", list(itertools.product(SEEDS, INDICES)))
def test_scalar_draws_are_the_block_row_then_the_subject_stream(seed, index):
    (row,) = block_uniforms(seed, index, index + 1).tolist()
    draws = itertools.chain(row, uniforms_past_blocks(seed)(index))
    past = iter(reference_stream(seed, index).random, None)
    want = itertools.chain(block_draws(seed, index), past)
    assert list(itertools.islice(draws, 12)) == list(itertools.islice(want, 12))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start, stop", [(0, 40), (4090, 4100), (2**64 - 20, 2**64)])
def test_subject_streams_equal_fresh_streams(seed, start, stop):
    # Each subject takes a different number of words, so the next one is
    # keyed after a subject that stopped partway through a 4-word block or
    # holds half a word for a 32-bit draw.
    for k, rng in enumerate(subject_streams(seed, start, stop)):
        i = start + k
        assert plain(rng.bit_generator.state) == plain(subject_stream(seed, i).bit_generator.state)
        want = reference_stream(seed, i)
        assert rng.random(k % 7).tolist() == want.random(k % 7).tolist()
        if k % 3 == 0:
            assert rng.integers(1000, dtype=np.uint32) == want.integers(1000, dtype=np.uint32)
        assert rng.standard_normal(k % 2).tolist() == want.standard_normal(k % 2).tolist()
    assert k == stop - start - 1


def test_subject_streams_of_an_empty_range_yield_none():
    assert list(subject_streams(3, 10, 10)) == []
    assert list(subject_streams(3, 10, 5)) == []


@settings(max_examples=50, deadline=None)
@given(start=st.integers(0, 300), stop=st.integers(0, 300))
def test_any_range_of_block_uniforms_is_those_rows_of_a_larger_one(start, stop):
    whole = block_uniforms(5, 0, 300)
    part = block_uniforms(5, start, stop)
    assert part.shape == (max(stop - start, 0), 8) and part.dtype == np.float64
    assert part.tobytes() == whole[start:stop].tobytes()


def test_block_uniforms_reach_the_last_subject():
    rows = block_uniforms(7, 2**64 - 3, 2**64).tolist()
    assert rows == [block_draws(7, i) for i in range(2**64 - 3, 2**64)]


@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (-5, -5), (2**64, 0), (0, 2**64)])
def test_out_of_range_inputs_rejected(seed, index):
    with pytest.raises(ValueError):
        subject_stream(seed, index)
    with pytest.raises(ValueError):
        uniforms_past_blocks(seed)(index).__next__()


@pytest.mark.parametrize(
    "seed, start, stop",
    [(-1, 0, 1), (2**64, 0, 1), (0, -1, 1), (0, 0, 2**64 + 1), (0, 2**64, 2**64 + 1)],
)
def test_out_of_range_ranges_rejected(seed, start, stop):
    with pytest.raises(ValueError):
        block_uniforms(seed, start, stop)
    with pytest.raises(ValueError):
        subject_streams(seed, start, stop)


def test_subject_stream_cannot_spawn():
    with pytest.raises(TypeError):
        subject_stream(1, 2).spawn(1)


def test_past_block_draws_build_no_generator_until_taken(monkeypatch):
    # ... and then one generator for the subjects after, too
    indices = (17, 18, 2**64 - 1, 5)
    want = [reference_stream(3, index).random(3).tolist() for index in indices]
    built = []
    real = np.random.Generator
    monkeypatch.setattr(np.random, "Generator", lambda bits: built.append(bits) or real(bits))
    uniforms = uniforms_past_blocks(3)
    draws = uniforms(17)
    assert built == []
    assert next(draws) == want[0][0]
    assert len(built) == 1
    for index, expected in zip(indices[1:], want[1:]):
        assert list(itertools.islice(uniforms(index), 3)) == expected
    assert len(built) == 1


def test_normals_in_calls_of_23_and_15_are_the_step_functions_normals():
    # run_subject_kinematic draws 23 normals, then 15 a re-scan, where the
    # step functions draw 7 (start pose), 1 (score), 7 (guidance), 7 (move),
    # 1 (score), 7, 7, 1: numpy's ziggurat must yield the same normals in the
    # same order whatever the calls.  Over this many normals it takes its
    # slow paths, the tail beyond 3.654 among them.
    got, want = [], []
    for index, rng in enumerate(subject_streams(11, 0, 1000)):
        got += rng.standard_normal(23).tolist() + rng.standard_normal(15).tolist()
        ref = subject_stream(11, index)
        for size in (7, 1, 7, 7, 1, 7, 7, 1):
            want += ref.standard_normal(7).tolist() if size == 7 else [ref.standard_normal()]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert np.count_nonzero(np.abs(got) > 3.6541528853610088) > 0


# Draws other than scalar uniforms, checked in this order.
OTHER_DRAWS = (
    ("standard_normal(3)", lambda g: g.standard_normal(3).tolist()),
    ("beta(2, 8)", lambda g: g.beta(2, 8)),
    ("random(5)", lambda g: g.random(5).tolist()),
    ("bit_generator.state", lambda g: plain(g.bit_generator.state)),
    ("random()", lambda g: g.random()),
)


@pytest.mark.parametrize("scalar_draws", [0, 3, 8, 9])
@pytest.mark.parametrize("seed, index", list(itertools.product(SEEDS, INDICES)))
def test_other_draws_continue_the_stream(seed, index, scalar_draws):
    got, want = subject_stream(seed, index), reference_stream(seed, index)
    for _ in range(scalar_draws):
        assert got.random() == want.random()
    for name, draw in OTHER_DRAWS:
        assert draw(got) == draw(want), name
