import numpy as np

from minimt.rng import Rng
from minimt.tensor import shadow_float64


def test_same_seed_same_stream():
    a = Rng(42).normal((4, 3))
    b = Rng(42).normal((4, 3))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).normal((8,)), Rng(2).normal((8,)))


def test_split_is_label_deterministic():
    root = Rng(7)
    a = root.split("init").normal((5,))
    # consuming the root stream must not perturb the split children
    root.normal((100,))
    b = root.split("init").normal((5,))
    assert np.array_equal(a, b)


def test_split_labels_are_independent():
    root = Rng(7)
    assert not np.array_equal(root.split("a").normal((8,)), root.split("b").normal((8,)))


def test_nested_split_paths_distinct():
    r = Rng(3)
    assert r.split("a").split("b").seed != r.split("b").split("a").seed


def test_default_dtype_is_float32():
    assert Rng(0).normal((2,)).dtype == np.float32
    assert Rng(0).uniform((2,)).dtype == np.float32


def test_draws_are_float64_under_shadow():
    with shadow_float64():
        assert Rng(0).normal((2,)).dtype == np.float64
        assert Rng(0).uniform((2,)).dtype == np.float64


def test_permutation_and_choice_deterministic():
    assert np.array_equal(Rng(5).permutation(10), Rng(5).permutation(10))
    assert np.array_equal(Rng(5).choice(100, 10), Rng(5).choice(100, 10))
    assert len(set(Rng(5).choice(100, 10).tolist())) == 10  # without replacement
