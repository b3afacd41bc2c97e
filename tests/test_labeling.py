import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_trees import (
    AlgorithmInvariantError,
    DomainError,
    Labeling,
    PartitionError,
    is_valid_labeling,
    konig_labeling,
    representatives,
    solve_dbst,
)
from bottleneck_trees.generators import euclidean_instance, random_metric_instance, random_tuples
from bottleneck_trees.labeling import _konig_labeling, _maximum_matching

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


def test_broken_labelings_are_invalid():
    good = konig_labeling(EXAMPLE_A, EXAMPLE_B, 3).labels
    missing = {p: c for p, c in good.items() if p != 7}
    repeated = {**good, 7: (good[7] + 1) % 3}
    for labels, k in ((missing, 3), (repeated, 3), ({**good, 7: None}, 3), (good, 2), (good, 4)):
        assert not is_valid_labeling(Labeling(labels=labels, k=k), EXAMPLE_A, EXAMPLE_B)
    assert is_valid_labeling(Labeling(labels=good, k=3), EXAMPLE_A, EXAMPLE_B)


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


def _rebuilding_konig_labeling(a, b, k: int) -> Labeling:
    """The labeling as it was computed before the one-pass version.

    Kept as a pin: each round rebuilds both residual partitions and checks
    their sizes.  Its rounds call the public `representatives`, one round
    of the engine on a freshly validated pair of partitions.
    """
    labels: dict[int, int] = {}
    cur_a = [list(g) for g in a]
    cur_b = [list(g) for g in b]
    # Each round's residual groups are checked below to keep a uniform size,
    # so they stay a double partition and need no validation again.
    for label in range(k - 1):
        reps, _ = representatives(cur_a, cur_b)
        rep_set = set(reps)
        if len(rep_set) != len(reps):
            raise AlgorithmInvariantError("representatives are not distinct")
        for p in rep_set:
            labels[p] = label
        cur_a = [[p for p in g if p not in rep_set] for g in cur_a]
        cur_b = [[p for p in g if p not in rep_set] for g in cur_b]
        want = k - label - 1
        if any(len(g) != want for g in cur_a) or any(len(g) != want for g in cur_b):
            raise AlgorithmInvariantError("residual groups lost uniform size")
    for g in cur_a:
        labels[g[0]] = k - 1
    return Labeling(labels=labels, k=k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 100, 400])
def test_one_pass_labeling_matches_the_rebuilding_one(k):
    # k >= 100 takes few large groups: m = 1, 2 and 3 of them.
    for seed in range(40 if k < 100 else 3):
        rng = random.Random(1000 * k + seed)
        m = rng.randint(1, 25) if k < 100 else seed + 1
        a, b = _random_double_partition(k * m, k, rng)
        want = _rebuilding_konig_labeling(a, b, k)
        got = _konig_labeling(a, b, k)
        assert list(got.labels.items()) == list(want.labels.items())


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_one_pass_labeling_matches_on_dbst_buckets(k):
    # The pairs forest_from_tree labels: sorted tuples, and buckets in
    # extraction order with their points left unsorted.
    for seed in range(12):
        rng = random.Random(2000 * k + seed)
        n = k * rng.randint(2, 30)
        make = random_metric_instance if seed % 2 else lambda n, rng: euclidean_instance(2, n, rng)
        inst = make(n, rng)
        tuples = random_tuples(n, k, rng)
        result = solve_dbst(inst, tuples)
        if result.buckets is None:
            continue
        buckets = result.buckets.buckets
        want = _rebuilding_konig_labeling(tuples.tuples, buckets, k)
        got = _konig_labeling(tuples.tuples, buckets, k)
        assert list(got.labels.items()) == list(want.labels.items())
        assert tuple(got.labels[p] for p in inst.points()) == result.labels


def _rescanning_round(a, b_of: dict[int, int]) -> tuple[list[int], list[int]]:
    """One round as it was computed before the shared point lists, kept
    verbatim as a pin: every round rescans every point of every a-group."""
    n = len(a)
    match = _maximum_matching([sorted({b_of[p] for p in g}) for g in a], n)
    if -1 in match or len(set(match)) != n:
        raise AlgorithmInvariantError("no perfect matching between the group families")
    return [min(p for p in g if b_of[p] == j) for g, j in zip(a, match)], match


def _rescanning_konig_labeling(a, b, k: int) -> Labeling:
    """The labeling over `_rescanning_round`, kept verbatim as a pin."""
    b_of = {p: j for j, g in enumerate(b) for p in g}
    cur_a = [sorted(g) for g in a]
    labels: dict[int, int] = {}
    for label in range(k - 1):
        reps, _ = _rescanning_round(cur_a, b_of)
        for g, p in zip(cur_a, reps):
            g.remove(p)
        for p in set(reps):  # set order: the dict iterates as it always has
            labels[p] = label
    for g in cur_a:
        labels[g[0]] = k - 1
    return Labeling(labels=labels, k=k)


def test_shared_lists_label_as_the_rescanning_rounds():
    # 3000 seeded double partitions with k = 2-6 and m = 1-8 groups, then
    # few groups of 100-300 points; labels compared in dict order.
    cases = []
    for seed in range(3000):
        rng = random.Random(seed)
        k = 2 + seed % 5
        cases.append((*_random_double_partition(k * rng.randint(1, 8), k, rng), k))
    for seed, (k, m) in enumerate([(100, 1), (100, 3), (157, 2), (300, 2), (300, 4)]):
        cases.append((*_random_double_partition(k * m, k, random.Random(9000 + seed)), k))
    for a, b, k in cases:
        b_of = {p: j for j, g in enumerate(b) for p in g}
        assert representatives(a, b) == _rescanning_round(a, b_of)
        want = _rescanning_konig_labeling(a, b, k)
        got = _konig_labeling(a, b, k)
        assert list(got.labels.items()) == list(want.labels.items())


def _matching_size_by_kuhn(adj, n_right) -> int:
    """The maximum matching's size by one augmenting search per left vertex."""
    match_r = [-1] * n_right

    def augment(u, seen) -> bool:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if match_r[v] == -1 or augment(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in range(len(adj)))


def test_maximum_matching_is_pinned():
    # 1500 seeded bipartite graphs: unequal sides, empty rows, rows in
    # shuffled order, densities from empty to full, and many with no perfect
    # matching; a few 40-60-vertex sparse ones force long augmenting paths.
    # Every answer is a maximum matching, and the matches themselves are
    # pinned by one digest.
    outputs = []
    imperfect = 0
    for seed in range(1500):
        rng = random.Random(seed)
        big = seed % 50 == 0
        n_left = rng.randint(40, 60) if big else rng.randint(0, 9)
        n_right = rng.randint(40, 60) if big else rng.randint(0, 9)
        density = rng.choice((0.05, 0.1) if big else (0.0, 0.15, 0.3, 0.6, 1.0))
        adj = []
        for _ in range(n_left):
            row = [v for v in range(n_right) if rng.random() < density]
            if rng.random() < 0.5:
                rng.shuffle(row)
            adj.append(row)
        match = _maximum_matching(adj, n_right)
        matched = [(u, v) for u, v in enumerate(match) if v != -1]
        assert all(v in adj[u] for u, v in matched)
        assert len({v for _, v in matched}) == len(matched)
        assert len(matched) == _matching_size_by_kuhn(adj, n_right)
        imperfect += len(matched) < n_left
        outputs.append(match)
    assert imperfect > 500
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "ecf43e7f894331d2faf5b8c6d5763ca0e2bb8cd9accf5113259bf09d998bb184"
