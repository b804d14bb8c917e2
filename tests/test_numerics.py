import numpy as np
import pytest

from whitenet.errors import DomainError
from whitenet.numerics import RngState


def test_rng_same_seed_same_stream():
    a = RngState(7)
    b = RngState(7)
    assert np.array_equal(a.uniform(size=10), b.uniform(size=10))
    assert np.array_equal(a.normal(size=10), b.normal(size=10))


def test_rng_different_seeds_differ():
    a = RngState(7).uniform(size=16)
    b = RngState(8).uniform(size=16)
    assert not np.array_equal(a, b)


def test_uniform_bounds():
    u = RngState(3).uniform(size=10000, low=-0.5, high=0.5)
    assert u.min() >= -0.5
    assert u.max() < 0.5


def test_normal_moments():
    z = RngState(11).normal(size=100000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normal_scalar_and_sigma():
    z = RngState(5).normal()
    assert isinstance(z, float)
    zs = RngState(5).normal(size=(4, 4), sigma=3.0)
    assert zs.shape == (4, 4)
    base = RngState(5).normal(size=(4, 4), sigma=1.0)
    assert np.allclose(zs, 3.0 * base, atol=1e-15)
    with pytest.raises(DomainError):
        RngState(5).normal(size=3, sigma=-1.0)


def test_permutation_is_deterministic_permutation():
    p1 = RngState(9).permutation(50)
    p2 = RngState(9).permutation(50)
    assert np.array_equal(p1, p2)
    assert np.array_equal(np.sort(p1), np.arange(50))


def test_child_streams_independent_and_deterministic():
    root = RngState(42)
    c1 = root.child(1).uniform(size=8)
    c2 = root.child(2).uniform(size=8)
    again = RngState(42).child(1).uniform(size=8)
    assert np.array_equal(c1, again)
    assert not np.array_equal(c1, c2)
