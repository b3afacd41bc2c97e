import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_trees import (
    DomainError,
    Labeling,
    PartitionError,
    is_valid_labeling,
    konig_labeling,
    representatives,
)
from bottleneck_trees.labeling import _konig_labeling

# The worked 12-element example with k=3, n=4 (ids shifted to 0-based):
EXAMPLE_A = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
EXAMPLE_B = [(3, 8, 11), (1, 7, 10), (0, 2, 4), (5, 6, 9)]


def _random_double_partition(kn, k, rng):
    ids = list(range(kn))
    rng.shuffle(ids)
    a = [tuple(ids[i : i + k]) for i in range(0, kn, k)]
    rng.shuffle(ids)
    b = [tuple(ids[i : i + k]) for i in range(0, kn, k)]
    return a, b


def _assert_valid_system(a_groups, b_groups, reps, pi):
    assert sorted(pi) == list(range(len(a_groups)))
    assert len(set(reps)) == len(reps)
    for i, r in enumerate(reps):
        assert r in a_groups[i]
        assert r in b_groups[pi[i]]


def test_example_known_system_is_valid():
    # One published answer: representatives (0, 5, 7, 11) with pi (2, 3, 1, 0).
    _assert_valid_system(EXAMPLE_A, EXAMPLE_B, [0, 5, 7, 11], [2, 3, 1, 0])


def test_representatives_on_example():
    reps, pi = representatives(EXAMPLE_A, EXAMPLE_B)
    _assert_valid_system(EXAMPLE_A, EXAMPLE_B, reps, pi)


def test_example_printed_labeling_is_valid():
    printed = Labeling(
        labels={0: 0, 5: 0, 7: 0, 11: 0, 1: 1, 4: 1, 8: 1, 9: 1, 2: 2, 3: 2, 6: 2, 10: 2},
        k=3,
    )
    assert is_valid_labeling(printed, EXAMPLE_A, EXAMPLE_B)


def test_konig_labeling_on_example():
    lab = konig_labeling(EXAMPLE_A, EXAMPLE_B, 3)
    assert is_valid_labeling(lab, EXAMPLE_A, EXAMPLE_B)


def test_single_group():
    k = 4
    groups = [tuple(range(k))]
    reps, pi = representatives(groups, groups)
    assert pi == [0] and reps[0] in groups[0]
    lab = konig_labeling(groups, groups, k)
    assert is_valid_labeling(lab, groups, groups)


def test_k2_forced_up_to_swap():
    a = [(0, 1)]
    lab = konig_labeling(a, a, 2)
    assert sorted(lab.labels.values()) == [0, 1]


def test_invalid_double_partitions():
    with pytest.raises(PartitionError):
        representatives([(0, 1)], [(0, 2)])  # different universes
    with pytest.raises(PartitionError):
        representatives([(0, 1), (2, 3)], [(0, 1, 2), (3,)])  # uneven sizes
    with pytest.raises(PartitionError):
        representatives([(0, 1)], [(0, 1), (2, 3)])  # different group counts
    with pytest.raises(PartitionError):
        konig_labeling([(0, 1)], [(0, 1)], 3)  # size mismatch with k
    with pytest.raises(PartitionError, match="point 0"):
        representatives([(0, 0)], [(0, 0)])  # repeat inside a group
    with pytest.raises(PartitionError, match="point 1"):
        konig_labeling([(0, 1), (2, 3)], [(0, 1), (1, 3)], 2)  # repeat across groups
    for bad_k in (True, 1.0, "1"):  # groups of one point, so only k's type is wrong
        with pytest.raises(DomainError, match="integer k"):
            konig_labeling([[0]], [[0]], bad_k)


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=120, deadline=None)
def test_random_double_partitions(k, n, seed):
    rng = random.Random(seed)
    a, b = _random_double_partition(k * n, k, rng)
    reps, pi = representatives(a, b)
    _assert_valid_system(a, b, reps, pi)
    lab = konig_labeling(a, b, k)
    assert is_valid_labeling(lab, a, b)


def test_labels_cover_universe():
    rng = random.Random(5)
    a, b = _random_double_partition(12, 3, rng)
    lab = konig_labeling(a, b, 3)
    assert set(lab.labels) == set(range(12))
    assert set(lab.labels.values()) == {0, 1, 2}


@pytest.mark.parametrize(
    "a, b",
    [
        ([[1.5, 2.0]], [[1.0, 2]]),
        ([[True, 0]], [[1, 0]]),
        ([["0", 1]], [[0, 1]]),
        ([[0, 1]], [[0, None]]),
    ],
    ids=["floats", "bool", "string", "none"],
)
def test_non_integer_ids_raise_domain_error(a, b):
    with pytest.raises(DomainError, match="not an integer"):
        representatives(a, b)
    with pytest.raises(DomainError, match="not an integer"):
        konig_labeling(a, b, 2)
    with pytest.raises(DomainError, match="not an integer"):
        is_valid_labeling(Labeling(labels={0: 0, 1: 1}, k=2), a, b)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=150, deadline=None)
def test_unchecked_core_labels_as_the_public_labeling(k, n, seed):
    # forest_from_tree passes its tuples as TuplePartition stores them
    # (ascending) and its buckets in extraction order, unchecked.
    rng = random.Random(seed)
    a, b = _random_double_partition(k * n, k, rng)
    sorted_a = tuple(tuple(sorted(g)) for g in a)
    shuffled_b = tuple(tuple(rng.sample(g, k)) for g in b)
    want = konig_labeling(a, b, k)
    got = _konig_labeling(sorted_a, shuffled_b, k)
    assert got.k == want.k == k
    assert list(got.labels.items()) == list(want.labels.items())
