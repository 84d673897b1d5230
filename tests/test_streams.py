import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlesim import problems, streams
from saddlesim.streams import MAX_INDEX, StreamMismatch, generators, plain_key_words

# one-word seeds, the largest one-word seed, two words (a four-word key with
# (seed, 0, i)) and three words (five: one past the four-word pool)
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]


def derived_states(prefix, start, stop):
    return [rng.bit_generator.state for rng in generators(plain_key_words(prefix, start, stop))]


class TestDerivation:
    @given(
        seed=st.sampled_from(SEEDS),
        tail=st.sampled_from([(0,), (1,), ()]),
        start=st.one_of(st.integers(0, 70), st.integers(0, MAX_INDEX - 3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_states_are_default_rng_states(self, seed, tail, start):
        prefix = (seed, *tail)
        got = derived_states(prefix, start, start + 3)
        assert got == [np.random.default_rng((*prefix, i)).bit_generator.state
                       for i in range(start, start + 3)]

    @pytest.mark.parametrize("prefix", [(5, 0), (2**64 + 5, 1)])
    def test_draws_match_across_chunks_and_blocks(self, prefix):
        # 4,100 streams span two hash chunks and 65 blocks of Python ints
        stop = streams._CHUNK + 4
        for i, rng in enumerate(generators(plain_key_words(prefix, 0, stop))):
            if i % 61 in (0, 60) or i >= streams._CHUNK - 1:
                ref = np.random.default_rng((*prefix, i))
                assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
                assert rng.random() == ref.uniform()

    def test_last_index_is_one_word(self):
        assert derived_states((3, 0), MAX_INDEX - 1, MAX_INDEX) == [
            np.random.default_rng((3, 0, MAX_INDEX - 1)).bit_generator.state
        ]
        with pytest.raises(ValueError):
            plain_key_words((3, 0), 0, MAX_INDEX + 1)

    def test_empty_range_has_no_streams(self):
        assert plain_key_words((3, 0), 7, 7).shape == (0, 4)
        assert list(generators(plain_key_words((3, 0), 7, 7))) == []

    def test_the_words_are_compact(self):
        words = plain_key_words((0, 0), 0, 10_000)
        assert words.dtype == np.uint64 and words.nbytes == 320_000


class TestGuard:
    @pytest.mark.parametrize("constant", ["_MULT_B", "_MIX_MULT_R", "_PCG_MULT"])
    def test_a_perturbed_derivation_raises(self, monkeypatch, constant):
        monkeypatch.setattr(streams, constant, getattr(streams, constant) ^ 2)
        with pytest.raises(StreamMismatch):
            plain_key_words((0, 0), 0, 10)

    def test_estimate_constants_refuses_to_screen_with_wrong_streams(self, monkeypatch):
        problem = problems.cubic_test()
        monkeypatch.setattr(streams, "_INIT_A", streams._INIT_A + 1)
        with pytest.raises(StreamMismatch):
            problems.sample_big_m(problem, 0.01, samples=100)

    def test_every_plain_key_site_is_guarded(self, monkeypatch):
        # without a screen, sample_big_m derives no streams, so the guard
        # that fires is validate's own (seed, 1, i) one
        problem = dataclasses.replace(problems.cubic_test(), hessian_gap_sq=None)
        monkeypatch.setattr(streams, "_MULT_A", streams._MULT_A + 2)
        with pytest.raises(StreamMismatch):
            problems.phase_retrieval(6, seed=0)
        with pytest.raises(StreamMismatch):
            problems.validate_assumptions(problem, 0.01, samples=10, estimate_samples=10)
