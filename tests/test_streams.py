"""Per-subject streams equal numpy's SeedSequence streams."""

import itertools

import numpy as np
import pytest

from scanloop.streams import (
    _key_block,
    _uniform_block,
    block_uniforms,
    subject_stream,
    uniforms_past_block,
)

SEEDS = (0, 1, 42, 2**32 - 1, 2**32, 2**64 - 1)
INDICES = (0, 1, 4095, 4096, 4097, 2**32 - 1, 2**32, 2**32 + 1)


def reference_stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def assert_same_stream(got: np.random.Generator, want: np.random.Generator) -> None:
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(8).tolist() == want.random(8).tolist()


@pytest.mark.parametrize("seed, index", list(itertools.product(SEEDS, INDICES)))
def test_subject_stream_equals_seed_sequence_stream(seed, index):
    assert_same_stream(subject_stream(seed, index), reference_stream(seed, index))


def test_key_block_rows_equal_seed_sequence_state():
    keys = _key_block(7, 2)
    assert keys.shape == (4096, 4) and keys.dtype == np.uint64
    for row in (0, 1, 2047, 4095):
        want = np.random.SeedSequence([7, 2 * 4096 + row]).generate_state(4, np.uint64)
        assert keys[row].tolist() == want.tolist()


def test_out_of_order_access_matches_fresh_calls():
    order = (5000, 3, 5000)
    _key_block.cache_clear()
    streams = [subject_stream(11, i) for i in order]
    for rng, i in zip(streams, order):
        _key_block.cache_clear()
        assert rng.bit_generator.state == subject_stream(11, i).bit_generator.state
        assert_same_stream(rng, reference_stream(11, i))


@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (-5, -5), (2**64, 0), (0, 2**64)])
def test_out_of_range_inputs_rejected(seed, index):
    with pytest.raises(ValueError):
        subject_stream(seed, index)


def test_subject_stream_cannot_spawn():
    with pytest.raises(TypeError):
        subject_stream(1, 2).spawn(1)


@pytest.mark.parametrize("seed, index", list(itertools.product(SEEDS, INDICES)))
def test_scalar_draws_across_the_precomputed_eight(seed, index):
    # A subject's block row, then its draws past the block, are its stream.
    (row,) = block_uniforms(seed, index, index + 1).tolist()
    draws = itertools.chain(row, uniforms_past_block(seed, index))
    want = reference_stream(seed, index)
    assert [next(draws) for _ in range(12)] == [want.random() for _ in range(12)]


def test_block_uniforms_walk_the_key_blocks():
    # Ranges inside one block, up to its edge and empty: the rows are the
    # block's rows for those subjects, in order.  A range across an edge
    # raises.
    seed = 5
    whole = np.concatenate([_uniform_block(seed, b) for b in range(3)])
    for start, stop in ((0, 4096), (7, 300), (4000, 4096), (4096, 4200), (8191, 8192), (9, 9)):
        part = block_uniforms(seed, start, stop)
        assert part.shape == (stop - start, 8)
        assert part.tobytes() == whole[start:stop].tobytes()
        assert not part.flags.writeable
    for start, stop in ((4000, 4200), (4095, 8193), (0, 4097)):
        with pytest.raises(ValueError, match="cross a key block edge"):
            block_uniforms(seed, start, stop)


def test_past_block_draws_build_no_generator_until_taken(monkeypatch):
    import scanloop.streams as streams

    built = []
    real = streams.subject_stream
    monkeypatch.setattr(streams, "subject_stream", lambda s, i: built.append(i) or real(s, i))
    draws = uniforms_past_block(3, 17)
    assert built == []
    assert next(draws) == float(reference_stream(3, 17).random(9)[8])
    assert built == [17]


# Draws other than scalar uniforms, checked in this order.
OTHER_DRAWS = (
    ("standard_normal(3)", lambda g: g.standard_normal(3).tolist()),
    ("beta(2, 8)", lambda g: g.beta(2, 8)),
    ("random(5)", lambda g: g.random(5).tolist()),
    ("bit_generator.state", lambda g: g.bit_generator.state),
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


def test_uniform_block_equals_advanced_pcg64_draws():
    # Every subject of one block: the 8 precomputed uniforms are the top 53
    # bits of PCG64's raw outputs, and draw d is the one after advance(d).
    seed, block = 2**40 + 3, 2
    uniforms = _uniform_block(seed, block)
    assert uniforms.shape == (4096, 8) and not uniforms.flags.writeable
    for row in range(4096):
        key = np.random.SeedSequence([seed, block * 4096 + row])
        raw = np.random.PCG64(key).random_raw(8)
        assert uniforms[row].tolist() == ((raw >> 11) * 2.0**-53).tolist()
        if row in (0, 1, 4095):
            for d in range(8):
                advanced = np.random.PCG64(key).advance(d)
                assert uniforms[row, d] == (advanced.random_raw() >> 11) * 2.0**-53

