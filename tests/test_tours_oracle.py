import hashlib
import random
from itertools import permutations, product

import pytest

from bottleneck_trees import (
    DomainError,
    Forest,
    MetricInstance,
    OracleSizeError,
    Tree,
    bottleneck,
    exact_bottleneck_tour,
    exact_dbst,
    exact_gbst,
    exact_pbst,
    hop_distance,
    lift_to_tours,
    minimum_spanning_tree,
    solve_2gbst,
    solve_dbst,
    solve_pbst,
    tour_bottleneck,
)
from bottleneck_trees.generators import (
    euclidean_instance,
    random_clusters,
    random_metric_instance,
    random_tuples,
)
from bottleneck_trees.metric import ClusterPartition, TuplePartition


def test_lift_single_path_tree():
    inst = MetricInstance.from_coordinates([(0.0,), (1.0,), (2.0,)])
    tree = Tree(frozenset({0, 1, 2}), ((0, 1), (1, 2)))
    lifted = lift_to_tours(Forest((tree,)), inst)
    assert lifted.tour_set.tours == ((0, 2, 1),)
    assert lifted.bottleneck == 2.0


def test_lift_rejects_tiny_trees():
    inst = MetricInstance.from_coordinates([(0.0,), (1.0,)])
    forest = Forest((Tree(frozenset({0, 1}), ((0, 1),)),))
    with pytest.raises(DomainError):
        lift_to_tours(forest, inst)


def test_lift_hop_gaps_bounded():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(3, 5)
        inst = euclidean_instance(2, 2 * n, rng)
        tuples = random_tuples(2 * n, 2, rng)
        result = solve_dbst(inst, tuples)
        lifted = lift_to_tours(result.forest, inst)
        for tree, tour in zip(result.forest.trees, lifted.tour_set.tours):
            assert sorted(tour) == sorted(tree.nodes)
            for i in range(len(tour)):
                assert hop_distance(tree, tour[i], tour[(i + 1) % len(tour)]) <= 3


def test_exact_tour_triangle():
    inst = MetricInstance.from_matrix([[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
    tour, optimal = exact_bottleneck_tour(inst, [0, 1, 2])
    assert sorted(tour) == [0, 1, 2]
    assert optimal == 2.0  # the longest side is unavoidable


def test_exact_tour_unit_square():
    inst = MetricInstance.from_coordinates([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    _, optimal = exact_bottleneck_tour(inst, range(4))
    assert optimal == pytest.approx(1.0)


def test_exact_tour_matches_unhalved_enumeration():
    rng = random.Random(9)
    inst = random_metric_instance(6, rng)
    _, reduced = exact_bottleneck_tour(inst, range(6))
    best = min(
        max(inst.distance(t[i], t[(i + 1) % 6]) for i in range(6))
        for perm in permutations(range(1, 6))
        for t in [(0,) + perm]
    )
    assert reduced == pytest.approx(best, abs=1e-12)


def test_exact_tour_caps_and_domain():
    inst = euclidean_instance(1, 12, random.Random(0))
    with pytest.raises(OracleSizeError):
        exact_bottleneck_tour(inst, range(10))
    with pytest.raises(DomainError):
        exact_bottleneck_tour(inst, range(2))


def test_tree_optimum_lower_bounds_tour_optimum():
    rng = random.Random(15)
    for trial in range(60):
        n = rng.randint(3, 7)
        inst = (
            euclidean_instance(2, n, rng) if trial % 2 else random_metric_instance(n, rng)
        )
        subset = list(range(n))
        tree_opt = bottleneck(minimum_spanning_tree(inst, subset), inst)
        _, tour_opt = exact_bottleneck_tour(inst, subset)
        assert tree_opt <= tour_opt + 1e-12


def _exact_disjoint_tours_value(inst, tuples):
    """Best max-bottleneck over two disjoint tours, one point per tuple each."""
    best = None
    n = tuples.group_count
    for bits in product((0, 1), repeat=n - 1):
        choice = (0,) + bits
        groups = [[], []]
        for members, flip in zip(tuples.tuples, choice):
            groups[flip].append(members[0])
            groups[1 - flip].append(members[1])
        value = max(exact_bottleneck_tour(inst, g)[1] for g in groups)
        if best is None or value < best:
            best = value
    return best


def test_lifted_dbst_tours_within_twelve_of_tour_optimum():
    rng = random.Random(18)
    for trial in range(40):
        n = rng.choice([3, 4])
        inst = (
            euclidean_instance(2, 2 * n, rng)
            if trial % 2
            else random_metric_instance(2 * n, rng)
        )
        tuples = random_tuples(2 * n, 2, rng)
        result = solve_dbst(inst, tuples)
        lifted = lift_to_tours(result.forest, inst)
        tour_opt = _exact_disjoint_tours_value(inst, tuples)
        assert lifted.bottleneck <= 12 * tour_opt + 1e-9


def test_oracle_outputs_attain_reported_value():
    rng = random.Random(23)
    inst = random_metric_instance(8, rng)
    tuples = random_tuples(8, 2, rng)
    forest, value = exact_dbst(inst, tuples)
    assert max(bottleneck(t, inst) for t in forest.trees) == pytest.approx(value)
    clusters = ClusterPartition(k=2, clusters=((0, 1), (2, 3), (4, 5), (6, 7)))
    tree, value = exact_gbst(inst, clusters)
    assert bottleneck(tree, inst) == pytest.approx(value)
    forest, value = exact_pbst(inst, 2)
    assert max(bottleneck(t, inst) for t in forest.trees) == pytest.approx(value)


def test_exact_dbst_singleton_groups():
    inst = MetricInstance.from_coordinates([(0.0,), (9.0,)])
    forest, value = exact_dbst(inst, TuplePartition(k=2, tuples=((0, 1),)))
    assert value == 0.0
    assert all(len(t.nodes) == 1 for t in forest.trees)


def test_exact_gbst_all_singletons_is_mst_bottleneck():
    rng = random.Random(41)
    inst = random_metric_instance(7, rng)
    clusters = ClusterPartition(k=2, clusters=tuple((p,) for p in range(7)))
    _, value = exact_gbst(inst, clusters)
    mst = minimum_spanning_tree(inst, range(7))
    assert value == pytest.approx(bottleneck(mst, inst))


def test_exact_pbst_forced_far_split():
    # two far triangles: the only sensible split is one triangle per tree
    coords = [(0.0,), (0.3,), (0.9,), (50.0,), (50.4,), (51.0,)]
    inst = MetricInstance.from_coordinates(coords)
    _, value = exact_pbst(inst, 2)
    intra = max(
        bottleneck(minimum_spanning_tree(inst, g), inst)
        for g in ([0, 1, 2], [3, 4, 5])
    )
    assert value == pytest.approx(intra)


def test_exact_pbst_caps():
    inst = euclidean_instance(1, 30, random.Random(0))
    with pytest.raises(OracleSizeError):
        exact_pbst(inst, 2)


def test_exact_gbst_caps():
    inst = euclidean_instance(1, 26, random.Random(0))
    clusters = ClusterPartition(k=2, clusters=tuple((2 * i, 2 * i + 1) for i in range(13)))
    with pytest.raises(OracleSizeError):
        exact_gbst(inst, clusters)


def test_tour_bottleneck_helper():
    inst = MetricInstance.from_coordinates([(0.0,), (1.0,), (3.0,)])
    assert tour_bottleneck((0, 1, 2), inst) == 3.0


def _grid_instance(n, rng):
    """n points on a 3x3 integer grid: ties everywhere, duplicates too."""
    return MetricInstance.from_coordinates(
        tuple((rng.randrange(3), rng.randrange(3)) for _ in range(n))
    )


def test_oracle_outputs_are_pinned():
    # Exact optima, nodes and edge order of the DBST, GBST and PBST oracles
    # on seeded Euclidean, random-metric and tie-heavy grid instances.  Among
    # tied optima the first strictly better choice wins, so any rewrite of
    # the oracles must return byte-identical forests and trees.
    rng = random.Random(11)
    makers = (
        lambda n: euclidean_instance(2, n, rng),
        lambda n: random_metric_instance(n, rng),
        lambda n: _grid_instance(n, rng),
    )
    outputs = []
    for i in range(45):
        make = makers[i % 3]
        for k, groups in ((2, rng.randint(1, 6)), (3, rng.randint(1, 5))):
            inst = make(k * groups)
            forest, value = exact_dbst(inst, random_tuples(k * groups, k, rng))
            outputs.append((value, forest.trees))
        n = rng.randint(1, 16)
        tree, value = exact_gbst(make(n), random_clusters(n, rng))
        outputs.append((value, (tree,)))
        for k in (2, 3, 4):
            inst = make(k * rng.randint(1, 12 // k))
            forest, value = exact_pbst(inst, k)
            outputs.append((value, forest.trees))
    digest = hashlib.sha256(
        repr(
            [(value, [(sorted(t.nodes), t.edges) for t in trees]) for value, trees in outputs]
        ).encode()
    ).hexdigest()
    assert digest == "369efccf5f16ca5e5d71beb004875981a0b8bc39f5549a638cd4281f177322cb"


def test_tour_oracle_outputs_are_pinned():
    # Optimal tours and values of the tour oracle on seeded Euclidean,
    # random-metric and tie-heavy grid instances, over subsets of 3-9 points.
    # Among tied tours the first strictly better permutation wins, so any
    # rewrite of the oracle must return byte-identical tours.
    rng = random.Random(13)
    makers = (
        lambda n: euclidean_instance(2, n, rng),
        lambda n: random_metric_instance(n, rng),
        lambda n: _grid_instance(n, rng),
    )
    outputs = []
    for i in range(35):
        size = 3 + i % 7
        inst = makers[i % 3](size + rng.randint(0, 3))
        subset = rng.sample(range(inst.point_count), size)
        outputs.append(exact_bottleneck_tour(inst, subset))
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "3e7a043e6755b52e84f8d288bf2281f30c8e2a21f21268b8893ed992de406450"


def test_no_internal_call_reads_checked_distance(monkeypatch):
    # Ids are checked once at each public entry, so nothing inside the
    # package may fall back to the per-pair checked read.
    rng = random.Random(31)
    instances = (euclidean_instance(2, 6, rng), random_metric_instance(6, rng))

    def forbidden(self, u, v):
        raise AssertionError("MetricInstance.distance called internally")

    monkeypatch.setattr(MetricInstance, "distance", forbidden)
    tuples = TuplePartition(k=2, tuples=((0, 1), (2, 3), (4, 5)))
    clusters = ClusterPartition(k=2, clusters=((0, 1), (2, 3), (4,), (5,)))
    for inst in instances:
        forest = solve_dbst(inst, tuples).forest
        lifted = lift_to_tours(forest, inst)
        assert lifted.bottleneck == max(
            tour_bottleneck(t, inst) for t in lifted.tour_set.tours
        )
        solve_2gbst(inst, clusters)
        solve_pbst(inst, 2)
        exact_dbst(inst, tuples)
        exact_gbst(inst, clusters)
        exact_pbst(inst, 2)
        exact_bottleneck_tour(inst, range(6))
