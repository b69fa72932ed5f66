"""Distributed vectors and layouts."""

import numpy as np
import pytest

from repro.petsclite.vec import Vec, VecLayout


def test_layout_ranges_partition_vector():
    lay = VecLayout(n=10, nranks=3)
    assert lay.ranges == (0, 4, 7, 10)
    assert lay.range_of(0) == (0, 4)
    assert lay.local_size(2) == 3
    with pytest.raises(IndexError):
        lay.range_of(3)


def test_owner_lookup():
    lay = VecLayout(n=10, nranks=3)
    assert [lay.owner(i) for i in range(10)] == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
    with pytest.raises(IndexError):
        lay.owner(10)
    owners = lay.owners(np.array([0, 4, 9]))
    assert owners.tolist() == [0, 1, 2]
    with pytest.raises(IndexError):
        lay.owners(np.array([-1]))


def test_layout_validation():
    with pytest.raises(ValueError):
        VecLayout(n=2, nranks=3)
    with pytest.raises(ValueError):
        VecLayout(n=2, nranks=0)


def test_from_global_roundtrip():
    lay = VecLayout(n=11, nranks=4)
    data = np.arange(11.0)
    v = Vec.from_global(lay, data)
    assert np.array_equal(v.to_global(), data)
    assert v.local(0).shape == (3,)
    with pytest.raises(ValueError):
        Vec.from_global(lay, np.zeros(5))


def test_local_sizes_checked():
    lay = VecLayout(n=4, nranks=2)
    with pytest.raises(ValueError):
        Vec(lay, [np.zeros(3), np.zeros(1)])
    with pytest.raises(ValueError):
        Vec(lay, [np.zeros(2)])
