"""Unit tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import DEFAULT_SEED, child_rng, make_rng


class TestMakeRng:
    def test_none_uses_default_seed(self):
        a = make_rng(None)
        b = make_rng(DEFAULT_SEED)
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_int_seed_deterministic(self):
        assert make_rng(7).integers(0, 1 << 30) == make_rng(7).integers(0, 1 << 30)

    def test_different_seeds_differ(self):
        draws_a = make_rng(1).integers(0, 1 << 30, 8)
        draws_b = make_rng(2).integers(0, 1 << 30, 8)
        assert not np.array_equal(draws_a, draws_b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert make_rng(gen) is gen


class TestChildRng:
    def test_deterministic_given_parent_state(self):
        a = child_rng(make_rng(5), 0).integers(0, 1 << 30)
        b = child_rng(make_rng(5), 0).integers(0, 1 << 30)
        assert a == b

    def test_stream_ids_differ(self):
        parent = make_rng(5)
        a = child_rng(parent, 0)
        parent2 = make_rng(5)
        b = child_rng(parent2, 1)
        assert a.integers(0, 1 << 30) != b.integers(0, 1 << 30)

    def test_negative_stream_id_rejected(self):
        with pytest.raises(ValueError):
            child_rng(make_rng(0), -1)
