import numpy as np

from segtta import SeededRng


def test_same_key_same_sequence():
    a = SeededRng(2024, "case1", "noise").generator().random(100)
    b = SeededRng(2024, "case1", "noise").generator().random(100)
    np.testing.assert_array_equal(a, b)


def test_generator_restarts_stream():
    rng = SeededRng(2024, "case1")
    np.testing.assert_array_equal(
        rng.generator().random(10), rng.generator().random(10)
    )


def test_different_keys_differ():
    a = SeededRng(2024, "case1", "aug0").generator().random(50)
    b = SeededRng(2024, "case1", "aug1").generator().random(50)
    c = SeededRng(2024, "case2", "aug0").generator().random(50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_different_seeds_differ():
    a = SeededRng(2024, "x").generator().random(50)
    b = SeededRng(2025, "x").generator().random(50)
    assert not np.array_equal(a, b)


def test_key_parts_are_delimited():
    # ("ab", "c") and ("a", "bc") must be distinct streams.
    a = SeededRng(1, "ab", "c").generator().random(20)
    b = SeededRng(1, "a", "bc").generator().random(20)
    assert not np.array_equal(a, b)
