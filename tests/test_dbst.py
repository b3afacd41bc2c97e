import heapq
import random
from functools import cached_property
from itertools import permutations, product

import pytest

from bottleneck_trees import (
    BucketPartition,
    DomainError,
    Forest,
    MetricInstance,
    PartitionError,
    Tree,
    TuplePartition,
    bottleneck,
    bucketize,
    exact_dbst,
    forest_bottleneck,
    forest_from_tree,
    hop_distance,
    longest_edge,
    minimum_spanning_tree,
    solve_dbst,
    split_tree_at_edge,
)
import bottleneck_trees.dbst as dbst
from bottleneck_trees.generators import (
    euclidean_instance,
    path_metric,
    random_metric_instance,
    random_tree,
    random_tuples,
    spider_tree,
)


def _group_threshold(inst, pts):
    mst = minimum_spanning_tree(inst, pts)
    return bottleneck(mst, inst)


def _brute_dbst_value(inst, tuples):
    """Unreduced oracle: every assignment of tuple members to trees."""
    k = tuples.k
    best = None
    for perms in product(permutations(range(k)), repeat=tuples.group_count):
        groups = [[] for _ in range(k)]
        for members, perm in zip(tuples.tuples, perms):
            for pos, tree_idx in enumerate(perm):
                groups[tree_idx].append(members[pos])
        value = max(_group_threshold(inst, g) for g in groups)
        if best is None or value < best:
            best = value
    return best


def _reference_bucketize(tree, k):
    """The quadratic bucketize: size updates walk to the root after every
    leaf removal, and each pick snapshots the node's whole subtree."""
    parent = tree.parent_map
    depth = tree.depth_map
    kids = {v: set(cs) for v, cs in tree.children_map().items()}
    size = tree.subtree_sizes()
    alive = set(tree.nodes)
    cand = [(s, v) for v, s in size.items() if s >= k]
    heapq.heapify(cand)
    buckets, reps = [], []
    while alive:
        while True:
            s, v = heapq.heappop(cand)
            if v in alive and size[v] == s and s >= k:
                break
        sub, stack = [], [v]
        while stack:
            x = stack.pop()
            sub.append(x)
            stack.extend(kids[x])
        leaf_heap = [(-depth[x], x) for x in sub if not kids[x]]
        heapq.heapify(leaf_heap)
        bucket = []
        for _ in range(k):
            _, leaf = heapq.heappop(leaf_heap)
            bucket.append(leaf)
            alive.remove(leaf)
            p = parent[leaf]
            if p is not None:
                kids[p].remove(leaf)
                if leaf != v and not kids[p]:
                    heapq.heappush(leaf_heap, (-depth[p], p))
            anc = p
            while anc is not None:
                size[anc] -= 1
                if size[anc] >= k:
                    heapq.heappush(cand, (size[anc], anc))
                anc = parent[anc]
        buckets.append(tuple(bucket))
        reps.append(v)
    bucket_index = {p: j for j, bucket in enumerate(buckets) for p in bucket}
    parents = []
    for j, v in enumerate(reps):
        if v not in buckets[j]:
            parents.append(bucket_index[v])
        else:
            pv = parent[v]
            parents.append(bucket_index[pv] if pv is not None else None)
    return BucketPartition(tuple(buckets), tuple(reps), tuple(parents))


def _shuffled_path(n, rng):
    ids = list(range(n))
    rng.shuffle(ids)
    return Tree(frozenset(ids), tuple(zip(ids, ids[1:])))


def _star(n, rng):
    ids = list(range(n))
    rng.shuffle(ids)
    return Tree(frozenset(ids), tuple((ids[0], x) for x in ids[1:]))


def _caterpillar(n, rng):
    ids = list(range(n))
    rng.shuffle(ids)
    spine = max(1, n // 3)
    edges = list(zip(ids[:spine], ids[1:spine]))
    edges += [(ids[rng.randrange(spine)], x) for x in ids[spine:]]
    return Tree(frozenset(ids), tuple(edges))


@pytest.mark.parametrize("shape", [random_tree, _shuffled_path, _star, _caterpillar])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bucketize_matches_reference(shape, k):
    rng = random.Random(f"{shape.__name__}-{k}")
    for trial in range(40):
        n = k * rng.randint(1, 150 if trial % 10 == 0 else 25)
        tree = shape(n, rng)
        roots = (min(tree.leaves()), rng.choice(sorted(tree.nodes)))
        for root in roots:
            rooted = tree.rooted_at(root)
            assert bucketize(rooted, k) == _reference_bucketize(rooted, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bucketize_large_path_and_star(k):
    # The reference needs O(n * depth) heap entries on a 2*10^4-node path,
    # and O(n^2 / k) snapshot work on the star, so both are checked against
    # their closed forms instead.
    n = 20_000 - 20_000 % k
    rng = random.Random(k)
    path = _shuffled_path(n, rng)
    end = min(path.leaves())
    rooted = path.rooted_at(end)
    order = sorted(rooted.nodes, key=rooted.depth_map.__getitem__, reverse=True)
    blocks = [tuple(order[i : i + k]) for i in range(0, n, k)]
    m = n // k
    assert bucketize(rooted, k) == BucketPartition(
        tuple(blocks),
        tuple(block[-1] for block in blocks),
        tuple(range(1, m)) + (None,),
    )
    star = _star(n, rng)
    root = min(star.leaves())
    center = star.adjacency[root][0]
    rooted = star.rooted_at(root)
    spokes = sorted(star.adjacency[center])
    spokes.remove(root)
    blocks = [tuple(spokes[i : i + k]) for i in range(0, n - k, k)]
    blocks.append(tuple(spokes[n - k :]) + (center, root))
    assert bucketize(rooted, k) == BucketPartition(
        tuple(blocks),
        (center,) * (m - 1) + (root,),
        (m - 1,) * (m - 1) + (None,),
    )


def test_bucketize_path_pairs():
    t = Tree(frozenset(range(4)), ((0, 1), (1, 2), (2, 3)), root=0)
    bp = bucketize(t, 2)
    assert [set(b) for b in bp.buckets] == [{2, 3}, {0, 1}]
    assert bp.parent_bucket == (1, None)


def test_bucketize_needs_divisible_count():
    t = Tree(frozenset(range(3)), ((0, 1), (1, 2)), root=0)
    with pytest.raises(PartitionError):
        bucketize(t, 2)


@pytest.mark.parametrize("k", [0, -2])
def test_bucketize_rejects_non_positive_k(k):
    t = Tree(frozenset(range(2)), ((0, 1),), root=0)
    with pytest.raises(DomainError):
        bucketize(t, k)


def test_bucketize_pairs_are_siblings_or_parent_child():
    rng = random.Random(2)
    for _ in range(60):
        n = 2 * rng.randint(1, 30)
        tree = random_tree(n, rng)
        t = tree.rooted_at(min(tree.leaves()))
        parent = t.parent_map
        for a, b in bucketize(t, 2).buckets:
            related = parent[a] == b or parent[b] == a or (
                parent[a] is not None and parent[a] == parent[b]
            )
            assert related
            assert hop_distance(t, a, b) <= 2


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_bucketize_diameter_bound(k):
    rng = random.Random(k)
    for _ in range(25):
        n = k * rng.randint(1, 12)
        tree = random_tree(n, rng)
        t = tree.rooted_at(min(tree.leaves()))
        for bucket in bucketize(t, k).buckets:
            for i, a in enumerate(bucket):
                for b in bucket[i + 1 :]:
                    assert hop_distance(t, a, b) <= 2 * k - 2


@pytest.mark.parametrize("k", [4, 5])
def test_bucketize_spider_attains_diameter(k):
    tree = spider_tree(k)
    t = tree.rooted_at(min(tree.leaves()))
    worst = 0
    for bucket in bucketize(t, k).buckets:
        for i, a in enumerate(bucket):
            for b in bucket[i + 1 :]:
                worst = max(worst, hop_distance(t, a, b))
    assert worst == 2 * k - 2


def test_forest_from_tree_hop_bound_and_feasibility():
    rng = random.Random(9)
    for _ in range(40):
        k = rng.randint(2, 5)
        n = k * rng.randint(1, 15)
        tree = random_tree(n, rng)
        t = tree.rooted_at(min(tree.leaves()))
        tuples = random_tuples(n, k, rng)
        forest, _, _ = forest_from_tree(t, tuples)
        assert len(forest.trees) == k
        for sub in forest.trees:
            assert len(sub.nodes) == n // k
            for members in tuples.tuples:
                assert len(sub.nodes & set(members)) == 1
            for u, v in sub.edges:
                assert hop_distance(t, u, v) <= 3 * k - 2


def test_solve_line_shortcut_returns_optimum():
    inst = MetricInstance.from_coordinates([(float(i),) for i in range(4)])
    tuples = TuplePartition(k=2, tuples=((0, 3), (1, 2)))
    result = solve_dbst(inst, tuples)
    assert result.shortcut
    assert result.bottleneck == 1.0
    assert {frozenset(t.nodes) for t in result.forest.trees} == {
        frozenset({0, 1}),
        frozenset({2, 3}),
    }
    _, optimal = exact_dbst(inst, tuples)
    assert optimal == 1.0


def test_solve_two_points():
    inst = MetricInstance.from_coordinates([(0.0,), (5.0,)])
    tuples = TuplePartition(k=2, tuples=((0, 1),))
    result = solve_dbst(inst, tuples)
    assert result.bottleneck == 0.0
    _, optimal = exact_dbst(inst, tuples)
    assert optimal == 0.0


def test_solve_point_count_mismatch():
    inst = MetricInstance.from_coordinates([(0.0,), (1.0,)])
    with pytest.raises(PartitionError):
        solve_dbst(inst, TuplePartition(k=2, tuples=((0, 1), (2, 3))))


def test_solve_ratio_k2_against_oracle():
    rng = random.Random(21)
    saw_shortcut_miss = False
    for trial in range(150):
        n = rng.randint(2, 5)
        inst = (
            euclidean_instance(2, 2 * n, rng)
            if trial % 2
            else random_metric_instance(2 * n, rng)
        )
        tuples = random_tuples(2 * n, 2, rng)
        result = solve_dbst(inst, tuples)
        _, optimal = exact_dbst(inst, tuples)
        assert result.bottleneck <= 4 * optimal + 1e-9
        if not result.shortcut:
            saw_shortcut_miss = True
            # Lower-bound reasoning: when no longest-edge split works, the
            # tree bottleneck is itself a lower bound on the optimum.
            assert result.mst_bottleneck <= optimal + 1e-9
    assert saw_shortcut_miss


def _reference_shortcut(instance, tuples):
    """solve_dbst's k=2 shortcut as it was: one split of the MST per edge
    tied at the bottleneck, the first that separates every pair winning."""
    mst = minimum_spanning_tree(instance, instance.points())
    _, mst_bot = longest_edge(mst, instance)
    for e, d in zip(mst.edges, instance._lengths(mst.edges)):
        if d != mst_bot:
            continue
        side_u, side_v = split_tree_at_edge(mst, e)
        if all(len(side_u.nodes & set(t)) == 1 for t in tuples.tuples):
            return side_u, side_v
    return None


def _tie_heavy(kind, n, rng):
    """2n points with many equal distances, and n pairs over them."""
    ids = rng.sample(range(2 * n), 2 * n)
    across = TuplePartition(2, zip(ids[:n], rng.sample(ids[n:], n)))
    if kind == "hop-matrix":
        return path_metric(random_tree(2 * n, rng)), random_tuples(2 * n, 2, rng)
    if kind == "integer-grid":
        coords = [(rng.randrange(4), rng.randrange(4)) for _ in range(2 * n)]
        return MetricInstance.from_coordinates(coords), random_tuples(2 * n, 2, rng)
    if kind == "joined-hop-matrix":
        # two random trees on ids[:n] and ids[n:], joined by one edge: the
        # hop matrix's MST is that tree, and pairs across the join fit it
        halves = (ids[:n], ids[n:])
        edges = [(h[rng.randrange(i)], h[i]) for h in halves for i in range(1, n)]
        edges.append((rng.choice(ids[:n]), rng.choice(ids[n:])))
        tree = Tree(frozenset(ids), tuple(edges))
        return path_metric(tree), across if rng.random() < 0.8 else random_tuples(2 * n, 2, rng)
    # far clumps: two integer grids 100 apart, ids[:n] in one
    side = {p: 100 * (i >= n) for i, p in enumerate(ids)}
    coords = [(rng.randrange(3) + side[p], rng.randrange(3)) for p in range(2 * n)]
    return MetricInstance.from_coordinates(coords), across


def test_shortcut_matches_the_split_per_tied_edge():
    rng = random.Random(52)
    fired = 0
    for trial in range(240):
        kind = ("hop-matrix", "integer-grid", "joined-hop-matrix", "far-clumps")[trial % 4]
        inst, tuples = _tie_heavy(kind, rng.randint(1, 12), rng)
        result = solve_dbst(inst, tuples)
        want = _reference_shortcut(inst, tuples)
        assert result.shortcut == (want is not None)
        if want is not None:
            fired += 1
            assert result.forest.trees == want
            assert result.labels == tuple(0 if p in want[0].nodes else 1 for p in inst.points())
            assert result.bottleneck == forest_bottleneck(Forest(want), inst)
    assert 100 <= fired < 240


def test_shortcut_splits_the_mst_at_most_once(monkeypatch):
    calls = []

    def counted(tree, edge):
        calls.append(edge)
        return split_tree_at_edge(tree, edge)

    monkeypatch.setattr(dbst, "split_tree_at_edge", counted)
    # Every MST edge of a hop matrix is tied at the bottleneck length.
    rng = random.Random(9)
    n = 200
    cases = [(path_metric(random_tree(2 * n, rng)), random_tuples(2 * n, 2, rng)) for _ in range(3)]
    path = Tree(frozenset(range(2 * n)), tuple((i, i + 1) for i in range(2 * n - 1)))
    cases.append((path_metric(path), TuplePartition(2, [(i, 2 * n - 1 - i) for i in range(n)])))
    for inst, tuples in cases:
        calls.clear()
        result = solve_dbst(inst, tuples)
        assert len(calls) <= 1
    assert result.shortcut and calls == [(n - 1, n)]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_solve_counts_subtree_sizes_once(monkeypatch, k):
    # When the MST is not cut, the balance search and bucketize read one
    # cached count of the rooted MST's subtree sizes.
    counted = []
    spans = Tree._spans.func

    def counting(tree):
        counted.append(tree)
        return spans(tree)

    prop = cached_property(counting)
    prop.__set_name__(Tree, "_spans")
    monkeypatch.setattr(Tree, "_spans", prop)
    rng = random.Random(70 + k)
    uncut = 0
    for _ in range(30):
        n = k * rng.randint(2, 12)
        inst = random_metric_instance(n, rng)
        counted.clear()
        result = solve_dbst(inst, random_tuples(n, k, rng))
        if not result.shortcut:
            uncut += 1
            assert len(counted) == 1
            assert counted[0].nodes == result.mst.nodes
    assert uncut >= 10


def test_solve_ratio_k3_against_oracle():
    rng = random.Random(33)
    for trial in range(60):
        inst = (
            euclidean_instance(2, 9, rng)
            if trial % 2
            else random_metric_instance(9, rng)
        )
        tuples = random_tuples(9, 3, rng)
        result = solve_dbst(inst, tuples)
        for sub in result.forest.trees:
            for members in tuples.tuples:
                assert len(sub.nodes & set(members)) == 1
        assert result.bottleneck <= 7 * result.mst_bottleneck + 1e-9
        _, optimal = exact_dbst(inst, tuples)
        assert result.bottleneck <= 7 * optimal + 1e-9


def test_exact_dbst_matches_unreduced_enumeration():
    rng = random.Random(4)
    for trial in range(20):
        k = 2 if trial % 2 else 3
        n = rng.randint(2, 3)
        inst = random_metric_instance(k * n, rng)
        tuples = random_tuples(k * n, k, rng)
        _, reduced = exact_dbst(inst, tuples)
        assert reduced == pytest.approx(_brute_dbst_value(inst, tuples), abs=1e-12)


def test_exact_dbst_caps():
    inst = euclidean_instance(1, 14, random.Random(0))
    from bottleneck_trees import OracleSizeError

    with pytest.raises(OracleSizeError):
        exact_dbst(inst, random_tuples(14, 2, random.Random(0)))


def _separated_line(k):
    """Points 0, 100, ..., 100(k-1), then each shifted by 1; two k-tuples.

    The tuples are the first k points and the last k.  The trees
    {i, k + i} are 1 long and no two points are closer, so OPT is 1.
    """
    xs = [100.0 * i for i in range(k)] + [100.0 * i + 1 for i in range(k)]
    inst = MetricInstance.from_coordinates([(x,) for x in xs])
    return inst, TuplePartition(k=k, tuples=(tuple(range(k)), tuple(range(k, 2 * k))))


@pytest.mark.parametrize("k", [3, 4])
def test_separated_line_optimum_is_one(k):
    inst, tuples = _separated_line(k)
    forest = Forest(tuple(Tree(frozenset({i, k + i}), ((i, k + i),)) for i in range(k)))
    for tree in forest.trees:
        assert all(len(tree.nodes & set(t)) == 1 for t in tuples.tuples)
    assert forest_bottleneck(forest, inst) == 1.0
    assert min(inst.distance(u, v) for u in range(2 * k) for v in range(u)) == 1.0
    if k == 3:
        assert exact_dbst(inst, tuples)[1] == 1.0


@pytest.mark.parametrize("k", [3, 4])
def test_separated_line_within_3k_minus_2(k):
    inst, tuples = _separated_line(k)
    assert solve_dbst(inst, tuples).bottleneck <= (3 * k - 2) * 1.0
