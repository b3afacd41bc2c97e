import random

import pytest

from bottleneck_trees import DomainError, MetricInstance, exact_pbst, validate_metric
from bottleneck_trees.generators import (
    euclidean_instance,
    generate,
    gbst_path8,
    random_clusters,
    random_tree,
    random_tuples,
    spider_instance,
    spider_tree,
    star_instance,
)


def test_star_three_leaves_distances():
    inst = star_instance(3)
    assert inst.point_count == 4
    for leaf in (1, 2, 3):
        assert inst.distance(0, leaf) == 1.0
    assert inst.distance(1, 2) == inst.distance(2, 3) == 2.0
    assert validate_metric(inst).ok


def _hand_built_star(leaves):
    """The matrix star_instance used to fill in by hand, copied verbatim."""
    n = leaves + 1
    d = [[2.0] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
        if i > 0:
            d[0][i] = d[i][0] = 1.0
    return MetricInstance.from_matrix(tuple(tuple(row) for row in d))


def test_star_instance_is_the_hand_built_matrix():
    for leaves in range(1, 51):
        got, want = star_instance(leaves).matrix, _hand_built_star(leaves).matrix
        assert got == want and repr(got) == repr(want)
    for leaves in (0, -1):
        with pytest.raises(DomainError, match="a star needs at least one leaf"):
            star_instance(leaves)


def test_spider_structure():
    tree = spider_tree(4)
    assert len(tree.nodes) == 16
    assert len(tree.adjacency[0]) == 5  # root degree k+1
    inst = spider_instance(4)
    assert inst.point_count == 16
    _, optimal = exact_pbst(inst, 4)
    assert optimal == 3.0


def test_gbst_path8_layout():
    fixture = gbst_path8()
    assert fixture.instance.point_count == 8
    assert fixture.clusters is not None
    sizes = sorted(len(g) for g in fixture.clusters.clusters)
    assert sizes == [1, 1, 2, 2, 2]


def test_random_tree_is_deterministic():
    t1 = random_tree(30, random.Random(5))
    t2 = random_tree(30, random.Random(5))
    assert t1 == t2


def test_random_partitions_cover_points():
    rng = random.Random(1)
    tp = random_tuples(12, 3, rng)
    assert tp.point_count == 12
    cp = random_clusters(11, random.Random(2))
    assert cp.point_ids() == list(range(11))
    with pytest.raises(DomainError):
        random_tuples(10, 3, rng)
    with pytest.raises(DomainError):
        random_tuples(4, 0, rng)
    with pytest.raises(DomainError):
        random_clusters(10, rng, singletons=1)


def test_generate_dispatch():
    gen = generate("euclidean", {"n": 6, "dim": 2, "partition": "clusters"}, 3)
    assert gen.clusters is not None
    gen = generate("random-metric", {"n": 5, "partition": "none"}, 3)
    assert gen.tuples is None and gen.clusters is None
    with pytest.raises(DomainError):
        generate("nope", {}, 0)
    with pytest.raises(DomainError):
        generate("euclidean", {"n": 4, "partition": "weird"}, 0)


def test_euclidean_same_seed_same_instance():
    a = euclidean_instance(2, 9, random.Random(4))
    b = euclidean_instance(2, 9, random.Random(4))
    assert a == b
