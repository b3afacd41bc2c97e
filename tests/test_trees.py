import math
import random
from collections import defaultdict
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_trees import (
    DomainError,
    Forest,
    IdentifierError,
    MetricInstance,
    Tree,
    TuplePartition,
    bottleneck,
    cube_hamiltonian_cycle,
    cube_hamiltonian_path,
    cube_hamiltonian_path_between,
    exact_bottleneck_tour,
    forest_bottleneck,
    hop_distance,
    longest_edge,
    minimum_spanning_tree,
    solve_2gbst,
    solve_dbst,
    solve_pbst,
    split_tree_at_edge,
    tour_bottleneck,
)
from bottleneck_trees.generators import (
    euclidean_instance,
    random_clusters,
    random_metric_instance,
    random_tree,
    random_tuples,
    spider_tree,
)
from bottleneck_trees.trees import tree_from_dict, tree_to_dict

random_trees = st.builds(
    lambda n, seed: random_tree(n, random.Random(seed)),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=10**6),
)


def _brute_spanning_trees(points, dist):
    """Every spanning tree of the complete graph, by edge-subset search."""
    pairs = list(combinations(points, 2))
    for subset in combinations(pairs, len(points) - 1):
        adj = defaultdict(list)
        for u, v in subset:
            adj[u].append(v)
            adj[v].append(u)
        seen = {points[0]}
        stack = [points[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == len(points):
            yield subset


def _bfs_hops(tree, u, v):
    if u == v:
        return 0
    seen = {u: 0}
    queue = [u]
    while queue:
        nxt = []
        for x in queue:
            for y in tree.adjacency[x]:
                if y not in seen:
                    seen[y] = seen[x] + 1
                    if y == v:
                        return seen[y]
                    nxt.append(y)
        queue = nxt
    raise AssertionError("nodes not connected")


def test_tree_validation():
    with pytest.raises(DomainError):
        Tree(frozenset({0, 1, 2}), ((0, 1),))  # too few edges
    with pytest.raises(DomainError):
        Tree(frozenset({0, 1, 2}), ((0, 1), (0, 1)))  # duplicate -> cycle
    with pytest.raises(DomainError):
        Tree(frozenset({0, 1}), ((0, 2),))  # endpoint outside
    single = Tree(frozenset({5}), ())
    assert single.leaves() == [5]


def test_mst_two_points():
    inst = MetricInstance.from_coordinates([(0.0,), (3.0,)])
    mst = minimum_spanning_tree(inst, [0, 1])
    assert mst.edges == ((0, 1),)
    assert bottleneck(mst, inst) == 3.0


def test_mst_collinear_unit_path():
    inst = MetricInstance.from_coordinates([(float(i),) for i in range(4)])
    mst = minimum_spanning_tree(inst, range(4))
    assert set(mst.edges) == {(0, 1), (1, 2), (2, 3)}
    assert bottleneck(mst, inst) == 1.0


def test_mst_empty_subset():
    inst = MetricInstance.from_coordinates([(0.0,)])
    with pytest.raises(DomainError):
        minimum_spanning_tree(inst, [])


@pytest.mark.parametrize("seed", range(6))
def test_mst_is_weight_and_bottleneck_optimal(seed):
    # Independent oracle: enumerate all spanning trees on 6 points.
    rng = random.Random(seed)
    inst = random_metric_instance(6, rng)
    points = list(range(6))
    mst = minimum_spanning_tree(inst, points)
    best_bottleneck = None
    best_weight = None
    for edges in _brute_spanning_trees(points, inst.distance):
        worst = max(inst.distance(u, v) for u, v in edges)
        total = sum(inst.distance(u, v) for u, v in edges)
        if best_bottleneck is None or worst < best_bottleneck:
            best_bottleneck = worst
        if best_weight is None or total < best_weight:
            best_weight = total
    assert bottleneck(mst, inst) == pytest.approx(best_bottleneck, abs=1e-12)
    total = sum(inst.distance(u, v) for u, v in mst.edges)
    assert total == pytest.approx(best_weight, abs=1e-12)


def _kruskal_reference(inst, subset):
    """All-pairs Kruskal in (distance, u, v) order: the edges, in that order."""
    points = sorted(set(subset))
    ranked = sorted((inst.distance(u, v), u, v) for u, v in combinations(points, 2))
    parent = {p: p for p in points}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = []
    for _, u, v in ranked:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            chosen.append((u, v))
    return tuple(chosen)


def _seeded_instance(kind, n, rng):
    if kind == "euclidean":
        return euclidean_instance(rng.randint(1, 3), n, rng)
    if kind == "random-metric":
        return random_metric_instance(n, rng)
    # small integer grid: many exactly equal distances
    return MetricInstance.from_coordinates(
        [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
    )


@pytest.mark.parametrize("kind", ["euclidean", "random-metric", "integer-grid"])
def test_mst_matches_all_pairs_kruskal(kind):
    rng = random.Random(kind)
    for _ in range(40):
        n = rng.randint(1, 30)
        inst = _seeded_instance(kind, n, rng)
        subsets = [range(n), rng.sample(range(n), rng.randint(1, n)), [rng.randrange(n)]]
        for subset in subsets:
            mst = minimum_spanning_tree(inst, subset)
            assert mst.nodes == frozenset(subset)
            assert mst.edges == _kruskal_reference(inst, subset)


def test_mst_ties_break_by_edge_order():
    # unit square: four sides of length 1, so only the (u, v) order decides
    inst = MetricInstance.from_coordinates([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert minimum_spanning_tree(inst, range(4)).edges == ((0, 1), (0, 2), (1, 3))
    assert minimum_spanning_tree(inst, [3, 2, 1]).edges == ((1, 3), (2, 3))


def test_longest_edge_unique_max():
    inst = MetricInstance.from_matrix(
        [[0, 1, 6], [1, 0, 5], [6, 5, 0]]
    )
    tree = Tree(frozenset({0, 1, 2}), ((0, 1), (1, 2)))
    edge, length = longest_edge(tree, inst)
    assert edge == (1, 2) and length == 5.0


def test_longest_edge_tie_breaks_by_edge_order():
    inst = MetricInstance.from_matrix(
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
    )
    star = Tree(frozenset({0, 1, 2, 3}), ((0, 1), (0, 2), (0, 3)))
    edge, length = longest_edge(star, inst)
    assert edge == (0, 1) and length == 1.0


def test_longest_edge_single_node():
    inst = MetricInstance.from_coordinates([(0.0,)])
    with pytest.raises(DomainError):
        longest_edge(Tree(frozenset({0}), ()), inst)


def test_longest_edge_recompute_on_random_mst():
    rng = random.Random(11)
    inst = random_metric_instance(8, rng)
    mst = minimum_spanning_tree(inst, range(8))
    _, length = longest_edge(mst, inst)
    assert length == max(inst.distance(u, v) for u, v in mst.edges)


def test_hop_distance_basics():
    t = Tree(frozenset({0, 1, 2, 3}), ((0, 1), (1, 2), (2, 3)))
    assert hop_distance(t, 1, 1) == 0
    assert hop_distance(t, 0, 3) == 3
    with pytest.raises(Exception):
        hop_distance(t, 0, 7)


@given(random_trees, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_hop_distance_matches_bfs(tree, rnd):
    nodes = sorted(tree.nodes)
    u = rnd.choice(nodes)
    v = rnd.choice(nodes)
    assert hop_distance(tree, u, v) == _bfs_hops(tree, u, v)


def _check_cube_path(tree, path, u, v):
    assert sorted(path) == sorted(tree.nodes)
    assert path[0] == u and path[-1] == v
    for a, b in zip(path, path[1:]):
        assert hop_distance(tree, a, b) <= 3


def test_cube_path_on_small_path_tree():
    t = Tree(frozenset({0, 1, 2, 3}), ((0, 1), (1, 2), (2, 3)))
    path = cube_hamiltonian_path(t, 0, 1)
    assert path == [0, 2, 3, 1]
    _check_cube_path(t, path, 0, 1)


def test_cube_path_single_edge():
    t = Tree(frozenset({0, 1}), ((0, 1),))
    assert cube_hamiltonian_path(t, 0, 1) == [0, 1]


def test_cube_path_star():
    star = Tree(frozenset({0, 1, 2, 3}), ((0, 1), (0, 2), (0, 3)))
    path = cube_hamiltonian_path(star, 0, 1)
    _check_cube_path(star, path, 0, 1)


def test_cube_path_requires_an_edge():
    t = Tree(frozenset({0, 1, 2}), ((0, 1), (1, 2)))
    with pytest.raises(DomainError):
        cube_hamiltonian_path(t, 0, 2)


@given(random_trees)
@settings(max_examples=100, deadline=None)
def test_cube_path_property(tree):
    if len(tree.nodes) < 2:
        return
    u, v = min(tree.edges)
    _check_cube_path(tree, cube_hamiltonian_path(tree, u, v), u, v)


def test_cube_path_large_tree():
    tree = random_tree(10_000, random.Random(3))
    u, v = min(tree.edges)
    _check_cube_path(tree, cube_hamiltonian_path(tree, u, v), u, v)


@given(random_trees, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_cube_path_between_property(tree, rnd):
    if len(tree.nodes) < 2:
        return
    nodes = sorted(tree.nodes)
    a = rnd.choice(nodes)
    b = rnd.choice([x for x in nodes if x != a])
    _check_cube_path(tree, cube_hamiltonian_path_between(tree, a, b), a, b)


def test_cube_path_between_is_identity_on_paths():
    n = 50
    t = Tree(frozenset(range(n)), tuple((i, i + 1) for i in range(n - 1)))
    assert cube_hamiltonian_path_between(t, 0, n - 1) == list(range(n))
    # Shuffled labels, so neighbor id order and path order disagree.
    rng = random.Random(7)
    for n in (2, 3, 1000, 20_000):
        order = rng.sample(range(n), n)
        t = Tree(frozenset(order), tuple(zip(order, order[1:])))
        assert cube_hamiltonian_path_between(t, order[0], order[-1]) == order


def _check_cycle(tree, cycle):
    assert sorted(cycle) == sorted(tree.nodes)
    for i in range(len(cycle)):
        assert hop_distance(tree, cycle[i], cycle[(i + 1) % len(cycle)]) <= 3


def test_cube_cycle_path3():
    t = Tree(frozenset({0, 1, 2}), ((0, 1), (1, 2)))
    cycle = cube_hamiltonian_cycle(t)
    assert cycle == [0, 2, 1]
    _check_cycle(t, cycle)


def test_cube_cycle_star3():
    star = Tree(frozenset({0, 1, 2, 3}), ((0, 1), (0, 2), (0, 3)))
    cycle = cube_hamiltonian_cycle(star)
    _check_cycle(star, cycle)
    for i in range(len(cycle)):
        assert hop_distance(star, cycle[i], cycle[(i + 1) % len(cycle)]) <= 2


def test_cube_cycle_spider16():
    spider = spider_tree(4)
    cycle = cube_hamiltonian_cycle(spider)
    assert len(cycle) == 16
    _check_cycle(spider, cycle)


def test_cube_cycle_needs_three_nodes():
    with pytest.raises(DomainError):
        cube_hamiltonian_cycle(Tree(frozenset({0, 1}), ((0, 1),)))


def test_split_tree_at_edge():
    t = Tree(frozenset(range(5)), ((0, 1), (1, 2), (2, 3), (2, 4)))
    left, right = split_tree_at_edge(t, (1, 2))
    assert left.nodes == frozenset({0, 1})
    assert right.nodes == frozenset({2, 3, 4})
    with pytest.raises(DomainError):
        split_tree_at_edge(t, (0, 4))


@given(random_trees, st.randoms(use_true_random=False), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_metric_path_bound(tree, rnd, seed):
    # Any node pair at hop distance h in an MST is within h * bottleneck.
    n = len(tree.nodes)
    if n < 2:
        return
    inst = random_metric_instance(n, random.Random(seed))
    mst = minimum_spanning_tree(inst, range(n))
    lam = bottleneck(mst, inst)
    nodes = sorted(mst.nodes)
    u = rnd.choice(nodes)
    v = rnd.choice(nodes)
    assert inst.distance(u, v) <= hop_distance(mst, u, v) * lam + 1e-9


def test_tree_serialization_roundtrip():
    t = Tree(frozenset({0, 1, 2}), ((0, 1), (1, 2)), root=0)
    assert tree_from_dict(tree_to_dict(t)) == t


@pytest.mark.parametrize(
    "nodes, edges, root",
    [
        ({0, 1.5, 2}, ((0, 1.5), (1.5, 2)), None),
        ({0, True}, ((0, True),), None),
        ({0, 1}, ((0, 1.0),), None),
        ({0, 1}, ((0, "1"),), None),
        ({0, 1}, ((0, 1),), True),
        ({0, 1}, ((0, 1),), 0.0),
    ],
)
def test_tree_rejects_non_integer_ids(nodes, edges, root):
    with pytest.raises(DomainError):
        Tree(frozenset(nodes), edges, root=root)


@pytest.mark.parametrize(
    "doc",
    [
        {"nodes": [0, 1.5, 2], "edges": [[0, 1.5], [1.5, 2]]},
        {"nodes": [0, True], "edges": [[0, True]]},
        {"nodes": [0, 1], "edges": [[0, 1]], "root": True},
        {"nodes": [0, [1]], "edges": [[0, 1]]},
        {"nodes": [0, 1]},
        {"edges": [[0, 1]]},
        {"nodes": [0, 1], "edges": [[0, 1, 2]]},
        {"nodes": [0, 1], "edges": [0, 1]},
        {"nodes": [0, 1], "edges": "01"},
        [[0, 1], [[0, 1]]],
    ],
)
def test_tree_from_dict_rejects_malformed(doc):
    with pytest.raises(DomainError):
        tree_from_dict(doc)


def _points(dim, n, rng, grid):
    if grid:
        return [tuple(float(rng.randrange(4)) for _ in range(dim)) for _ in range(n)]
    return [tuple(rng.uniform(-1e3, 1e3) for _ in range(dim)) for _ in range(n)]


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_math_dist_is_symmetric_bit_for_bit(dim, grid):
    # The MST tie-break and the unchecked distance reads take d(u, v) and
    # d(v, u) to be the same float; integer grids repeat points.
    rng = random.Random(100 * dim + grid)
    pts = _points(dim, 60, rng, grid)
    if grid:
        assert len(set(pts)) < len(pts)
    for a, b in combinations(pts, 2):
        assert math.dist(a, b).hex() == math.dist(b, a).hex()


@pytest.fixture
def structure_checks(monkeypatch):
    """The node sets of every structural tree check, in call order."""
    import bottleneck_trees.trees as trees

    calls = []
    check = trees._check_structure

    def counted(nodes, edges, root):
        calls.append(nodes)
        check(nodes, edges, root)

    monkeypatch.setattr(trees, "_check_structure", counted)
    return calls


def test_derived_trees_skip_the_structure_check(structure_checks):
    inst = euclidean_instance(2, 80, random.Random(8))
    mst = minimum_spanning_tree(inst, inst.points())
    rooted = mst.rooted_at(min(mst.leaves()))
    assert rooted.rooted_at(rooted.root) is rooted
    e, _ = longest_edge(mst, inst)
    split_tree_at_edge(rooted, e)
    minimum_spanning_tree(inst, [3])
    assert structure_checks == []
    Tree(frozenset({0, 1}), ((1, 0),))
    assert structure_checks == [frozenset({0, 1})]


def test_wired_tree_checks_structure():
    source = Tree(frozenset(range(6)), ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    piece = Tree._wired({4, 2, 0}, [(2, 0), (4, 2)], 0, source)
    assert piece == Tree(frozenset({0, 2, 4}), ((0, 2), (2, 4)), root=0)
    with pytest.raises(DomainError, match="cycle"):
        Tree._wired({0, 1, 2, 3}, [(0, 1), (2, 1), (0, 2)], 0, source)
    with pytest.raises(DomainError, match="outside its source"):
        Tree._wired({0, 9}, [(0, 9)], 0, source)
    with pytest.raises(DomainError):
        Tree._wired({0, 1, 2}, [(0, 1)], 0, source)
    with pytest.raises(DomainError):
        Tree._wired({0, 1}, [(0, 1)], 2, source)


@pytest.mark.parametrize("bad", [-1, 3, 7])
@pytest.mark.parametrize("kind", ["coordinates", "matrix"])
def test_trusted_reads_range_check_user_trees(kind, bad):
    # A negative id must not read coordinates or matrix rows from the end.
    if kind == "coordinates":
        inst = MetricInstance.from_coordinates([(0.0,), (1.0,), (5.0,)])
    else:
        inst = MetricInstance.from_matrix([[0, 1, 5], [1, 0, 4], [5, 4, 0]])
    tree = Tree(frozenset({0, 1, bad}), ((0, 1), (1, bad)))
    with pytest.raises(IdentifierError):
        longest_edge(tree, inst)
    with pytest.raises(IdentifierError):
        bottleneck(tree, inst)
    with pytest.raises(IdentifierError):
        forest_bottleneck(Forest((Tree(frozenset({2}), ()), tree)), inst)
    with pytest.raises(IdentifierError):
        tour_bottleneck((0, 1, bad), inst)
    with pytest.raises(IdentifierError):
        tour_bottleneck([bad, 0, 1], inst)


def test_trusted_reads_keep_the_id_type_checks():
    inst = MetricInstance.from_coordinates([(0.0,), (1.0,), (5.0,)])
    for bad in (True, 1.0, "1", None):
        with pytest.raises(IdentifierError):
            tour_bottleneck((0, bad, 2), inst)
    for bad in (True, False, 1.0, "a", None):
        with pytest.raises(IdentifierError):
            minimum_spanning_tree(inst, [0, bad, 2])
        with pytest.raises(IdentifierError):
            exact_bottleneck_tour(inst, [0, 1, bad, 2])
    with pytest.raises(IdentifierError):
        minimum_spanning_tree(inst, [0, "a"])
    with pytest.raises(IdentifierError):
        exact_bottleneck_tour(inst, [0, 1, "x"])
    assert tour_bottleneck([2], inst) == 0.0
    with pytest.raises(ValueError):
        tour_bottleneck((), inst)


def test_derived_trees_reject_bool_ids():
    tree = Tree(frozenset({0, 1, 2, 3}), ((0, 1), (1, 2), (2, 3)))
    rooted = tree.rooted_at(0)
    for call in (
        lambda: tree.rooted_at(True),
        lambda: tree.rooted_at(1).rooted_at(True),
        lambda: split_tree_at_edge(tree, (True, 2)),
        lambda: cube_hamiltonian_path(tree, True, 2),
        lambda: cube_hamiltonian_path(tree, 2, 1.0),
        lambda: cube_hamiltonian_path_between(tree, 1.0, 3),
        lambda: cube_hamiltonian_path_between(tree, 0, True),
        lambda: hop_distance(tree, True, 3),
        lambda: hop_distance(tree, 0, 2.0),
        lambda: rooted.subtree_nodes(True),
    ):
        with pytest.raises(DomainError, match="is not an integer"):
            call()
    for call in (
        lambda: tree.rooted_at(1.5),
        lambda: cube_hamiltonian_path(tree, 3, 9),
        lambda: cube_hamiltonian_path_between(tree, 9, 3),
        lambda: hop_distance(tree, 0, 9),
        lambda: rooted.subtree_nodes(9),
    ):
        with pytest.raises(IdentifierError, match="node 9|node 1.5"):
            call()


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dbst_checks_only_its_k_wired_trees(structure_checks, k):
    rng = random.Random(20 + k)
    inst = euclidean_instance(2, 240, rng)
    result = solve_dbst(inst, random_tuples(240, k, rng))
    assert not result.shortcut
    assert structure_checks == [t.nodes for t in result.forest.trees]


def test_dbst_shortcut_checks_nothing(structure_checks):
    inst = MetricInstance.from_coordinates([(float(i),) for i in range(4)])
    result = solve_dbst(inst, TuplePartition(k=2, tuples=((0, 3), (1, 2))))
    assert result.shortcut
    assert structure_checks == []


def test_gbst_checks_only_t2(structure_checks):
    rng = random.Random(9)
    inst = euclidean_instance(2, 240, rng)
    result = solve_2gbst(inst, random_clusters(240, rng, singletons=40))
    assert structure_checks == [result.tree.nodes]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pbst_checks_only_wired_pieces(structure_checks, monkeypatch, k):
    # Checks run only inside the partition routines: never on the MST, its
    # longest-edge splits, re-rootings or extracted subtrees.
    import bottleneck_trees.pbst as pbst
    import bottleneck_trees.trees as trees

    depth = [0]
    calls = {"partition_two": 0, "partition_three": 0, "partition_many": 0}

    def tracked(name, fn):
        def wrapper(*args):
            calls[name] += 1
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return wrapper

    for name in calls:
        monkeypatch.setattr(pbst, name, tracked(name, getattr(pbst, name)))
    outside = []
    counted = trees._check_structure

    def flagged(nodes, edges, root):
        if not depth[0]:
            outside.append(nodes)
        counted(nodes, edges, root)

    monkeypatch.setattr(trees, "_check_structure", flagged)
    result = solve_pbst(euclidean_instance(2, 240, random.Random(30 + k)), k)
    assert len(result.forest.trees) == k
    assert outside == []
    two, three, many = calls["partition_two"], calls["partition_three"], calls["partition_many"]
    assert two + three + many >= 1
    if k == 3:
        # partition_three wires at most six trees of its own per call
        assert 2 * two <= len(structure_checks) <= 2 * two + 6 * three
    else:
        assert len(structure_checks) == 2 * two + k * many


def test_pbst_clean_splits_check_nothing(structure_checks):
    coords = [(x + 0.1 * i,) for x in (0.0, 100.0, 250.0) for i in range(3)]
    result = solve_pbst(MetricInstance.from_coordinates(coords), 3)
    assert len(result.forest.trees) == 3
    assert structure_checks == []
