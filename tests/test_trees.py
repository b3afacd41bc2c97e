import hashlib
import math
import random
from collections import defaultdict
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_trees import (
    AlgorithmInvariantError,
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
    path_metric,
    random_clusters,
    random_metric_instance,
    random_tree,
    random_tuples,
    spider_tree,
)
import bottleneck_trees.pbst as pbst
from bottleneck_trees.trees import (
    _check_structure,
    _cube_order,
    _merges,
    _mst_triples,
    _normalize_edge,
    _pieces,
    tree_from_dict,
    tree_to_dict,
)
from test_golden import _clustered_line
from test_pbst import _shaped_tree

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
    with pytest.raises(DomainError, match=r"must be \[u, v\] pairs"):
        Tree(frozenset({0, 1}), ((0, 1, 2),))
    with pytest.raises(DomainError, match=r"node id \[0\] is not an integer"):
        Tree([[0]], ())  # unhashable, so no frozenset could hold it
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
    if kind == "hop-matrix":
        return path_metric(random_tree(n, rng))
    if kind == "integer-chain-matrix":
        # collinear points as a matrix, as perfbench's chain-1d, on a coarse
        # grid: a path MST with many equal distances and repeated points
        xs = [rng.randint(0, n) for _ in range(n)]
        return MetricInstance.from_matrix([[abs(a - b) for b in xs] for a in xs])
    # small integer grid: many exactly equal distances
    return MetricInstance.from_coordinates(
        [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
    )


@pytest.mark.parametrize(
    "kind", ["euclidean", "random-metric", "integer-grid", "hop-matrix", "integer-chain-matrix"]
)
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


def _signed_zero_chain(n, rng):
    """Integer points on a line as a symmetric matrix whose zero distances
    are 0.0 or -0.0 at random: many exact ties, and zeros equal under ==
    that repr tells apart."""
    xs = [rng.randint(0, n // 2) for _ in range(n)]
    rows = [[float(abs(a - b)) for b in xs] for a in xs]
    for u in range(n):
        for v in range(u, n):
            if not rows[u][v]:
                rows[u][v] = rows[v][u] = rng.choice((0.0, -0.0))
    return MetricInstance.from_matrix(rows)


def _signed_zero_weights(n, rng):
    """Symmetric weights 0.0, -0.0, 1 or 2 that break the triangle
    inequality, so tied zero keys can reach the tree through different
    points."""
    rows = [[0.0] * n for _ in range(n)]
    for u, v in combinations(range(n), 2):
        rows[u][v] = rows[v][u] = rng.choice((0.0, -0.0, 1.0, 2.0))
    return MetricInstance.from_matrix(rows)


def test_mst_outputs_are_pinned():
    # Exact (distance, u, v) triples of the MST kernel, in order and with the
    # sign of every zero, on seeded matrix instances and random subsets, so
    # any rewrite of the matrix relaxation must return byte-identical trees.
    rng = random.Random(20)
    kinds = (
        lambda n: random_metric_instance(n, rng),
        lambda n: path_metric(random_tree(n, rng)),
        lambda n: _signed_zero_chain(n, rng),
        lambda n: _signed_zero_weights(n, rng),
        lambda n: MetricInstance.from_matrix(
            [[float(u != v) for v in range(n)] for u in range(n)]
        ),
    )
    outputs = []
    for i in range(250):
        n = rng.randint(1, 40)
        inst = kinds[i % 5](n)
        for subset in (range(n), rng.sample(range(n), rng.randint(1, n))):
            outputs.append(_mst_triples(inst, sorted(subset)))
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "5cddf646e5eb85f33be12a83bcb625e0f40027a00874336f4e843b1e69e33d51"


def test_mst_spans_an_asymmetric_matrix():
    # from_matrix does not check symmetry; the matrix kernel then need not
    # find a tree column at the key's distance in the picked point's row.
    inst = MetricInstance.from_matrix([[0, 1, 5], [2, 0, 1], [5, 3, 0]])
    assert _mst_triples(inst, [0, 1, 2]) == [(1.0, 0, 1), (1.0, 1, 2)]
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 9)
        values = rng.choice([(0.0, -0.0, 1.0, 2.0), (1.0, 2.0, 3.0)])
        inst = MetricInstance.from_matrix([[rng.choice(values) for _ in range(n)] for _ in range(n)])
        subset = rng.sample(range(n), rng.randint(1, n))
        mst = minimum_spanning_tree(inst, subset)
        assert Tree(mst.nodes, mst.edges).nodes == frozenset(subset)


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
    # Ends that do not compare, and edges that are not pairs, are no edges
    # either: each once raised a bare TypeError.
    for edge in ((0, "1"), (None, 1), ("2", None), (1, 2, 3), (1,), 5):
        with pytest.raises(DomainError, match="is not an edge of the tree"):
            split_tree_at_edge(t, edge)


def test_pieces_cut_u_side_first_and_keep_an_uncut_tree_whole():
    star = Tree(frozenset(range(5)), ((0, 4), (1, 4), (2, 4), (3, 4)), root=0)
    assert _pieces(star, lambda i: i, lambda i: False)[0] is star
    # The largest key is (3, 4): its u-side is the lone point 3, its v-side
    # the rest, which (2, 4) cuts next.
    every = _pieces(star, lambda i: i, lambda i: True)
    assert [(t.nodes, t.edges, t.root) for t in every] == [
        (frozenset({v}), (), None) for v in (3, 2, 1, 0, 4)
    ]
    top = _pieces(star, lambda i: -i, lambda i: i == 0)
    assert [(t.nodes, t.edges) for t in top] == [
        (frozenset({0}), ()),
        (frozenset({1, 2, 3, 4}), ((1, 4), (2, 4), (3, 4))),
    ]


# The four walks that the cached preorder replaced, verbatim but for names:
# Tree.subtree_nodes, split_tree_at_edge, pbst._branches, and the spine
# search of cube_hamiltonian_path_between.
def _reference_subtree_nodes(tree, v):
    kids = tree.children_map()
    out = set()
    stack = [v]
    while stack:
        x = stack.pop()
        out.add(x)
        stack.extend(kids[x])
    return out


def _reference_split(tree, edge):
    e = _normalize_edge(*edge)
    u, v = e
    side_u = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for w in tree.adjacency[x]:
            if w not in side_u and _normalize_edge(x, w) != e:
                side_u.add(w)
                stack.append(w)
    side_v = tree.nodes - side_u
    edges_u = tuple(f for f in tree.edges if f != e and f[0] in side_u)
    edges_v = tuple(f for f in tree.edges if f != e and f[0] in side_v)
    return Tree._from_valid(frozenset(side_u), edges_u), Tree._from_valid(side_v, edges_v)


def _reference_branches(t, x):
    children = t.children_map()
    top = {}
    below = {}
    for u in children[x]:
        below[u] = set()
        stack = [u]
        while stack:
            y = stack.pop()
            top[y] = u
            below[u].add(y)
            stack.extend(children[y])
    inner = {u: [] for u in children[x]}
    for e in t.edges:
        u = top.get(e[0])
        if u is not None and top.get(e[1]) == u:
            inner[u].append(e)
    return [(u, below[u], tuple(inner[u])) for u in children[x]]


def _reference_spine(tree, a, b):
    parent = {a: a}
    stack = [a]
    while b not in parent:
        x = stack.pop()
        for w in tree.adjacency[x]:
            if w not in parent:
                parent[w] = x
                stack.append(w)
    spine = [b]
    while spine[-1] != a:
        spine.append(parent[spine[-1]])
    spine.reverse()
    return spine


def _reference_path_between(tree, a, b):
    return _cube_order(tree, _reference_spine(tree, a, b))


def _reference_cube_order(tree: Tree, spine: list[int]) -> list[int]:
    """All nodes from spine[0] to spine[-1], consecutive ones <= 3 hops apart.

    `spine` is the tree path between the two ends.  Each spine node but the
    last two is emitted, then each of its side branches in ascending head
    order; a branch is walked from its head along the edge to the head's
    smallest other neighbor, and the last spine edge is walked the same way.
    """
    # Edges are deleted as they are walked, and each neighbor list is scanned
    # once through a monotone pointer, so the work is linear in the edges.
    adj = tree.adjacency
    ptr = dict.fromkeys(adj, 0)
    deleted = {_normalize_edge(x, y) for x, y in zip(spine, spine[1:])}
    out: list[int] = []
    # A node on the stack is emitted; (a, b, rev) deletes edge (a, b) and
    # emits its component from a to b, or from b to a when rev is True.
    stack: list = []

    def next_of(x: int) -> int | None:
        lst = adj[x]
        i = ptr[x]
        while i < len(lst) and _normalize_edge(x, lst[i]) in deleted:
            i += 1
        ptr[x] = i
        return lst[i] if i < len(lst) else None

    def push(x: int, rev: bool) -> None:
        nxt = next_of(x)
        stack.append(x if nxt is None else (x, nxt, rev))

    def drain() -> None:
        while stack:
            item = stack.pop()
            if not isinstance(item, tuple):
                out.append(item)
                continue
            a, b, rev = item
            deleted.add(_normalize_edge(a, b))
            first, second = (b, a) if rev else (a, b)
            push(second, True)
            push(first, False)

    for s in spine[:-2]:
        out.append(s)
        head = next_of(s)
        while head is not None:
            deleted.add(_normalize_edge(s, head))
            push(head, False)
            drain()
            head = next_of(s)
    stack.append((spine[-2], spine[-1], False))
    drain()
    return out


class _ReadBudget(list):
    """A neighbor list whose reads draw on a budget shared by the whole tree."""

    def __init__(self, items, left):
        super().__init__(items)
        self.left = left

    def __getitem__(self, i):
        self.left[0] -= 1
        assert self.left[0] >= 0, "the walk read its neighbor lists more than 4n times"
        return super().__getitem__(i)


def test_cube_order_walks_as_the_edge_set_did():
    # Spines between seeded end pairs (tree edges among them) on random and
    # shaped trees, up to 10^4 nodes: tracking reached nodes instead of
    # deleted edges returns the same order.  The walk reads the neighbor
    # lists at most 4n times: each list is skipped along once (2n - 2 reads
    # in all), and each node is handed out once, with two reads, when the
    # edge to it is walked.  So a walk that loses track of what it reached
    # fails here instead of running on.
    rng = random.Random(26)
    trees = [random_tree(rng.randint(2, 40), rng) for _ in range(150)]
    for shape in ("recursive", "path", "star", "caterpillar", "broom"):
        trees += [_shaped_tree(shape, rng.randint(2, 80), rng) for _ in range(40)]
        trees.append(_shaped_tree(shape, 10**4, rng))
    trees.append(random_tree(10**4, rng))
    for tree in trees:
        nodes = sorted(tree.nodes)
        spines = [list(rng.choice(tree.edges))]
        spines += [_reference_spine(tree, *rng.sample(nodes, 2)) for _ in range(3)]
        for spine in spines:
            left = [4 * len(nodes)]
            adjacency = {x: _ReadBudget(a, left) for x, a in tree.adjacency.items()}
            got = _cube_order(SimpleNamespace(adjacency=adjacency), spine)
            assert got == _reference_cube_order(tree, spine)


def _fields(tree):
    return tree.nodes, tree.edges, tree.root


def _preorder_cases():
    """(tree, nodes to ask about, edges to split, end pairs) on seeded random
    trees and on 2*10^4-node paths, stars, caterpillars and brooms."""
    rng = random.Random(41)
    for _ in range(60):
        tree = random_tree(rng.randint(1, 40), rng)
        root = rng.choice([None, *tree.nodes])
        tree = Tree._from_valid(tree.nodes, tree.edges, root)
        nodes = sorted(tree.nodes)
        pairs = [rng.sample(nodes, 2) for _ in range(4 if len(nodes) > 1 else 0)]
        yield tree, nodes, list(tree.edges), pairs
    for shape in ("recursive", "path", "star", "caterpillar", "broom"):
        tree = _shaped_tree(shape, 2 * 10**4, rng)
        hub = max(tree.nodes, key=lambda v: (len(tree.adjacency[v]), v))
        nodes = [min(tree.nodes), hub, *rng.sample(sorted(tree.nodes), 4)]
        edges = [*rng.sample(tree.edges, 4), (hub, tree.adjacency[hub][0])]
        yield tree, nodes, edges, [(nodes[0], nodes[1]), (nodes[2], nodes[3])]


def test_preorder_slices_match_the_walks_they_replaced():
    for tree, nodes, edges, pairs in _preorder_cases():
        if tree.root is None:
            for call in (tree.subtree_sizes, lambda: tree.subtree_nodes(nodes[0])):
                with pytest.raises(DomainError, match="requires a rooted tree"):
                    call()
            rooted = tree.rooted_at(nodes[-1])
        else:
            rooted = tree
        sizes = rooted.subtree_sizes()
        assert set(sizes) == tree.nodes
        for v in nodes:
            below = _reference_subtree_nodes(rooted, v)
            assert rooted.subtree_nodes(v) == below
            assert sizes[v] == len(below)
            assert pbst._branches(rooted, v) == _reference_branches(rooted, v)
        for t in (tree, rooted):
            for e in edges:
                got = split_tree_at_edge(t, e[::-1])
                assert [_fields(s) for s in got] == [_fields(s) for s in _reference_split(t, e)]
        for a, b in pairs:
            want = _reference_path_between(tree, a, b)
            assert cube_hamiltonian_path_between(tree, a, b) == want


def _reference_children_map(tree):
    """Tree.children_map as it rebuilt and sorted the children, verbatim but for self."""
    parent = tree.parent_map
    kids: dict[int, list[int]] = {v: [] for v in tree.nodes}
    for v, p in parent.items():
        if p is not None:
            kids[p].append(v)
    for lst in kids.values():
        lst.sort()
    return kids


def test_children_map_matches_the_rebuild_it_replaced():
    # Children are the sorted adjacency minus the parent; keys keep their order.
    rng = random.Random(19)
    trees = [random_tree(rng.randint(1, 40), rng) for _ in range(100)]
    for shape in ("recursive", "path", "star", "caterpillar", "broom"):
        trees += [_shaped_tree(shape, rng.randint(1, 2000), rng) for _ in range(4)]
    for tree in trees:
        nodes = sorted(tree.nodes)
        roots = {nodes[0], nodes[-1], *rng.sample(nodes, min(3, len(nodes)))}
        if tree.root is not None:
            roots.add(tree.root)
        for root in sorted(roots):
            rooted = tree.rooted_at(root)
            want = _reference_children_map(rooted)
            assert list(rooted.children_map().items()) == list(want.items())


def test_rooted_copies_share_the_adjacency_and_leave_their_source_alone():
    rng = random.Random(23)
    trees = [random_tree(rng.randint(1, 40), rng) for _ in range(60)]
    for shape in ("recursive", "path", "star", "caterpillar", "broom"):
        trees += [_shaped_tree(shape, rng.randint(1, 500), rng) for _ in range(2)]
    inst = euclidean_instance(2, 60, rng)
    trees.append(minimum_spanning_tree(inst, inst.points()))
    trees += [t.rooted_at(max(t.nodes)) for t in trees[::7]]
    for i, source in enumerate(trees):
        if i % 2:
            source._spans  # cache the source's rooting before re-rooting
        root_before = source.root
        nodes = sorted(source.nodes)
        roots = sorted({nodes[0], nodes[-1], *rng.sample(nodes, min(4, len(nodes)))})
        for root in roots:
            copy = source.rooted_at(root)
            fresh = Tree(source.nodes, source.edges, root)
            assert copy.root == root
            assert copy.adjacency is source.adjacency
            assert list(copy.adjacency.items()) == list(fresh.adjacency.items())
            assert copy._rooting == fresh._rooting
            assert copy._spans == fresh._spans
        # Each copy roots itself; the source keeps its root and cached rooting.
        alone = Tree(source.nodes, source.edges, root_before)
        assert source.root == root_before
        assert list(source.adjacency.items()) == list(alone.adjacency.items())
        assert source._rooting == alone._rooting
        assert source._spans == alone._spans


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


@pytest.mark.parametrize(
    "trees",
    [
        [1],
        (Tree(frozenset({0}), ()), None),
        (Tree(frozenset({0, 1}), ((0, 1),)), Tree(frozenset({1}), ())),
        5,
    ],
    ids=["int", "none", "overlap", "not-iterable"],
)
def test_forest_rejects_non_trees_and_overlaps(trees):
    with pytest.raises(DomainError):
        Forest(trees)


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
        (5, (), None),
        ([0], 5, None),
    ],
)
def test_tree_rejects_non_integer_ids(nodes, edges, root):
    with pytest.raises(DomainError):
        Tree(nodes, edges, root=root)


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


def test_linked_tree_guards_the_link_rule():
    depth = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 9: 1}
    piece = Tree._linked(0, [(2, 0), (4, 2)], depth)
    assert piece == Tree(frozenset({0, 2, 4}), ((0, 2), (2, 4)), root=0)
    assert Tree._wired({4, 2, 0}, [(2, 0), (4, 2)], 0) == piece
    for links, message in (
        ([(2, 4), (4, 0)], "node 2 links to 4, not a shallower node"),  # deeper
        ([(2, 0), (4, 9)], "node 4 links to 9, not a shallower node"),  # outside
        ([(2, 4), (4, 2)], "node 2 links to 4, not a shallower node"),  # a cycle
        ([(2, 0), (2, 0)], "linked twice"),
        ([(0, 2), (2, 0)], "linked twice"),  # the root links up
        ([(2, None)], "node 2 links to None"),
    ):
        with pytest.raises(AlgorithmInvariantError, match=message):
            Tree._linked(0, links, depth)


@pytest.mark.parametrize(
    "edges, message",
    [
        # a cycle edge before an edge with an endpoint outside the nodes
        ([(0, 1), (1, 2), (0, 2), (3, 9)], "edges contain a cycle (adding (0, 2))"),
        ([(0, 1), (0, 1), (2, 9), (2, 3)], "edges contain a cycle (adding (0, 1))"),
        # the reverse: the outside endpoint comes first
        ([(3, 9), (0, 1), (1, 2), (0, 2)], "edge (3, 9) has an endpoint outside the node set"),
        ([(0, 1), (1, 2), (2, 9), (0, 2)], "edge (2, 9) has an endpoint outside the node set"),
        # the last edge closes the cycle, and one with no outside edge at all
        ([(2, 3), (1, 2), (0, 1), (1, 3)], "edges contain a cycle (adding (1, 3))"),
        ([(3, 4), (0, 3), (0, 4), (1, 2)], "edges contain a cycle (adding (0, 4))"),
    ],
)
def test_structure_check_names_the_first_offending_edge(edges, message):
    nodes = frozenset(range(5))
    with pytest.raises(DomainError) as caught:
        _check_structure(nodes, tuple(edges), None)
    assert str(caught.value) == message
    with pytest.raises(DomainError) as caught:
        Tree(nodes, edges)
    assert str(caught.value) == message


def _bfs_components(items, pairs) -> set[frozenset]:
    """The components of the graph on `items` with edges `pairs`, by search."""
    adj = {x: [] for x in items}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen: set = set()
    out = set()
    for s in items:
        if s in seen:
            continue
        seen.add(s)
        comp, stack = [s], [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        out.add(frozenset(comp))
    return out


def _check_merges(triples, items) -> list:
    """Run `_merges` and hold every yield to the search reference; return the yields.

    The triples are fed one at a time, so each yield is pinned to the triple
    just taken: that triple must join two components, the components after
    it must be those of the triples taken so far, and `kept` and `absorbed`
    must be the roots of u's and v's components, `kept` staying the root of
    their union.  No other triple may yield.
    """
    triples = list(triples)
    taken: list = []

    def feed():
        for t in triples:
            taken.append(t)
            yield t

    yields = []
    root = {x: x for x in items}  # item -> its component's root
    for key, kept, absorbed in _merges(feed(), items):
        _, u, v = triples[len(taken) - 1]
        before = _bfs_components(items, [(a, b) for _, a, b in taken[:-1]])
        after = _bfs_components(items, [(a, b) for _, a, b in taken])
        assert before != after
        assert key == taken[-1][0]
        assert (kept, absorbed) == (root[u], root[v])
        for x in items:
            if root[x] == absorbed:
                root[x] = kept
        yields.append((len(taken) - 1, key, kept, absorbed))
    assert len(taken) == len(triples)
    joining = [
        t
        for t in range(len(triples))
        if _bfs_components(items, [(a, b) for _, a, b in triples[:t]])
        != _bfs_components(items, [(a, b) for _, a, b in triples[: t + 1]])
    ]
    assert [t for t, _, _, _ in yields] == joining
    assert len(yields) == len(items) - len(_bfs_components(items, [(a, b) for _, a, b in triples]))
    return yields


def test_merges_match_a_search_on_tied_keys_and_coincident_points():
    rng = random.Random(71)
    for trial in range(60):
        n = rng.randint(1, 12)
        inst = MetricInstance.from_coordinates(_points(2, n, rng, grid=trial % 2 == 0))
        points = inst.points()
        # (length, -index) order over the MST's edges, keyed on the index
        mst = minimum_spanning_tree(inst, points)
        lengths = inst._lengths(mst.edges)
        order = sorted(range(len(mst.edges)), key=lambda i: (lengths[i], -i))
        yields = _check_merges(((i, *mst.edges[i]) for i in order), points)
        assert [key for _, key, _, _ in yields] == order
        # all pairs, repeats and self-pairs included, on small tied keys
        pairs = [(rng.randrange(3), rng.choice(points), rng.choice(points)) for _ in range(3 * n)]
        _check_merges(sorted(pairs), points)
        _check_merges(pairs, points)


def test_merges_match_a_search_on_the_oracles_asymmetric_pairs():
    from bottleneck_trees.oracle import _pairs, _table

    rng = random.Random(73)
    for trial in range(60):
        n = rng.randint(1, 10)
        low = -2 if trial % 3 == 0 else 0
        inst = MetricInstance.from_matrix(
            [[rng.randint(low, 4) for _ in range(n)] for _ in range(n)]
        )
        table = _table(inst)
        pairs = _pairs(table)
        assert all(d == min(table[u][v], table[v][u]) and u < v for d, u, v in pairs)
        yields = _check_merges(pairs, range(n))
        # after the merges at keys up to d: the components of the pairs
        # within d, read in either direction
        for d in sorted({d for _, d, _, _ in yields}):
            within = [
                (u, v) for u in range(n) for v in range(n) if min(table[u][v], table[v][u]) <= d
            ]
            merged = [(u, v) for t, key, _, _ in yields if key <= d for _, u, v in [pairs[t]]]
            assert _bfs_components(range(n), merged) == _bfs_components(range(n), within)


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
    # Not even those: forest_from_tree's bucket invariant guards DBST's k
    # wired trees, so no structure check runs at all.
    rng = random.Random(20 + k)
    inst = euclidean_instance(2, 240, rng)
    result = solve_dbst(inst, random_tuples(240, k, rng))
    assert not result.shortcut
    assert structure_checks == []


def test_dbst_repeated_label_in_a_bucket_raises(monkeypatch):
    import bottleneck_trees.dbst as dbst

    label = dbst._konig_labeling

    def repeated(a, b, k):
        lab = label(a, b, k)
        first, second = b[0][:2]
        lab.labels[second] = lab.labels[first]
        return lab

    monkeypatch.setattr(dbst, "_konig_labeling", repeated)
    rng = random.Random(4)
    tree = random_tree(12, rng)
    with pytest.raises(AlgorithmInvariantError, match="bucket 0"):
        dbst.forest_from_tree(tree.rooted_at(min(tree.leaves())), random_tuples(12, 2, rng))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dbst_trees_pass_the_public_constructor(k):
    for seed in range(6):
        rng = random.Random(100 * k + seed)
        n = k * rng.randint(1, 30)
        inst = euclidean_instance(2, n, rng)
        result = solve_dbst(inst, random_tuples(n, k, rng))
        for t in result.forest.trees:
            assert Tree(t.nodes, t.edges, t.root) == t


def test_dbst_shortcut_checks_nothing(structure_checks):
    inst = MetricInstance.from_coordinates([(float(i),) for i in range(4)])
    result = solve_dbst(inst, TuplePartition(k=2, tuples=((0, 3), (1, 2))))
    assert result.shortcut
    assert structure_checks == []


def _deeper(links, depth):
    """Point the shallowest linked node at the deepest one."""
    x = min(links, key=lambda e: depth[e[0]])[0]
    y = max(links, key=lambda e: depth[e[0]])[0]
    assert depth[y] > depth[x]
    return [(a, y if a == x else p) for a, p in links]


def _outside(links, depth):
    """Point a linked node at a shallower node that is not in its tree."""
    nodes = {v for e in links for v in e}
    a, o = next((a, o) for a, _ in links for o in depth if o not in nodes and depth[o] < depth[a])
    return [(x, o if x == a else p) for x, p in links]


def _cycle(links, depth):
    """Point a linked node's partner, itself linked, back at it."""
    partner = dict(links)
    x = next(a for a, p in links if p in partner)
    return [(a, x if a == partner[x] else p) for a, p in links]


@pytest.fixture
def link_fault(monkeypatch):
    """Installs a fault that rewrites the links every builder hands to `Tree._linked`."""
    linked = Tree._linked.__func__

    def install(fault):
        def faulty(cls, root, links, depth):
            return linked(cls, root, fault(links, depth), depth)

        monkeypatch.setattr(Tree, "_linked", classmethod(faulty))

    return install


def test_faulty_t2_links_raise(structure_checks, link_fault):
    # build_t2's links climb, which is T2's only guard: GBST runs no
    # structure check, and a link that fails to climb raises.
    rng = random.Random(9)
    inst = euclidean_instance(2, 60, rng)
    clusters = random_clusters(60, rng, singletons=10)
    result = solve_2gbst(inst, clusters)
    assert structure_checks == []
    assert Tree(result.tree.nodes, result.tree.edges, result.tree.root) == result.tree
    for fault in (_deeper, _outside, _cycle):
        link_fault(fault)
        with pytest.raises(AlgorithmInvariantError, match="not a shallower node"):
            solve_2gbst(inst, clusters)


@pytest.mark.parametrize("k", [2, 3])
def test_faulty_partition_two_links_raise(link_fault, k):
    # partition_two's parent-else-grandparent links climb; a link that
    # points deeper, outside its side or closes a cycle raises.
    inst = euclidean_instance(2, 60, random.Random(40 + k))
    solve_pbst(inst, k)
    for fault in (_deeper, _outside, _cycle):
        link_fault(fault)
        with pytest.raises(AlgorithmInvariantError, match="not a shallower node"):
            solve_pbst(inst, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pbst_checks_no_tree_it_builds(structure_checks, monkeypatch, k):
    # Every piece is a tree by how it is built, and so is every rest that
    # partition_three regrafts: none is checked for structure.
    rests = []
    regraft = pbst._regraft

    def recorded(*args):
        rest = regraft(*args)
        rests.append(rest.nodes)
        return rest

    monkeypatch.setattr(pbst, "_regraft", recorded)
    result = solve_pbst(euclidean_instance(2, 240, random.Random(30 + k)), k)
    assert len(result.forest.trees) == k
    assert structure_checks == []
    assert bool(rests) == (k == 3)


def _pbst_cases(k):
    """Seeded coordinate and matrix instances of 6-40 points in k groups,
    half of them clumped lines whose MST PBST cuts."""
    for seed in range(6):
        rng = random.Random(300 * k + seed)
        m = rng.randint(3, 40 // k)
        yield euclidean_instance(2, k * m, rng), False
        yield random_metric_instance(k * m, rng), False
        line, _ = _clustered_line(k, m, rng)
        yield line, True
        xs = [x for x, in line.coordinates]
        yield MetricInstance.from_matrix([[abs(a - b) for b in xs] for a in xs]), True


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pbst_pieces_pass_the_public_constructor(monkeypatch, k):
    # Every tree a solve wires, the hung branches, peeled pieces and rests
    # included, and every tree of the answer.
    built = []
    wired = Tree._wired.__func__

    def recorded(cls, nodes, edges, root):
        built.append(wired(cls, nodes, edges, root))
        return built[-1]

    monkeypatch.setattr(Tree, "_wired", classmethod(recorded))
    for inst, clumped in _pbst_cases(k):
        built.clear()
        result = solve_pbst(inst, k)
        assert not clumped or result.bottleneck < result.mst_bottleneck
        assert built or clumped
        for t in (*built, *result.forest.trees):
            assert Tree(t.nodes, t.edges, t.root) == t


def test_gbst_trees_pass_the_public_constructor():
    for seed in range(40):
        rng = random.Random(500 + seed)
        n = rng.randint(6, 40)
        inst = euclidean_instance(2, n, rng) if seed % 2 else random_metric_instance(n, rng)
        result = solve_2gbst(inst, random_clusters(n, rng, singletons=rng.randrange(n % 2, n, 2)))
        for t in (result.tree, result.t1):
            assert Tree(t.nodes, t.edges, t.root) == t


def test_pbst_clean_splits_check_nothing(structure_checks):
    coords = [(x + 0.1 * i,) for x in (0.0, 100.0, 250.0) for i in range(3)]
    result = solve_pbst(MetricInstance.from_coordinates(coords), 3)
    assert len(result.forest.trees) == 3
    assert structure_checks == []
