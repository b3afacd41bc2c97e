import hashlib
import heapq
import random
import sys
from itertools import combinations
from math import comb, factorial

import pytest

from bottleneck_trees import (
    AlgorithmInvariantError,
    DomainError,
    Forest,
    MetricInstance,
    OracleSizeError,
    PartitionError,
    Tree,
    balanced_partition,
    bottleneck,
    bucketize,
    cube_hamiltonian_cycle,
    exact_pbst,
    hop_distance,
    longest_edge,
    minimum_spanning_tree,
    partition_many,
    partition_three,
    partition_two,
    solve_pbst,
    split_tree_at_edge,
)
import bottleneck_trees.pbst as pbst
from bottleneck_trees.metric import _is_int
from bottleneck_trees.oracle import _multiple_bound
from bottleneck_trees.trees import _leaf_rooted
from bottleneck_trees.generators import (
    euclidean_instance,
    random_metric_instance,
    random_tree,
    spider_instance,
    spider_tree,
    star_instance,
)


def _check_split(source, trees, sizes, max_hop):
    seen = set()
    for tree, want in zip(trees, sizes):
        assert len(tree.nodes) == want
        assert not (seen & tree.nodes)
        seen |= tree.nodes
        for u, v in tree.edges:
            assert hop_distance(source, u, v) <= max_hop
    assert seen == set(source.nodes)


def _path(n):
    return Tree(frozenset(range(n)), tuple((i, i + 1) for i in range(n - 1)), root=0)


def test_partition_two_path_even():
    t = _path(4)
    r, b = partition_two(t, 2)
    assert r.nodes == frozenset({0, 2})
    assert b.nodes == frozenset({1, 3})
    _check_split(t, (r, b), (2, 2), 2)


def test_partition_two_path_uneven():
    t = _path(4)
    r, b = partition_two(t, 1)
    assert r.nodes == frozenset({0})
    assert b.nodes == frozenset({1, 2, 3})
    assert set(b.edges) == {(1, 2), (2, 3)}
    _check_split(t, (r, b), (1, 3), 2)


def test_partition_two_star():
    star = Tree(frozenset(range(4)), ((0, 1), (0, 2), (0, 3)))
    r, b = partition_two(star, 2)
    _check_split(star, (r, b), (2, 2), 2)
    # two of three leaves share a tree, so a hop-2 edge is unavoidable
    worst = max(
        hop_distance(star, u, v) for t in (r, b) for u, v in t.edges
    )
    assert worst == 2


def test_partition_two_size_bounds():
    t = _path(4)
    with pytest.raises(DomainError):
        partition_two(t, 0)
    with pytest.raises(DomainError):
        partition_two(t, 4)


def test_partition_two_random():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(2, 60)
        tree = random_tree(n, rng)
        size_r = rng.randint(1, n - 1)
        r, b = partition_two(tree, size_r)
        _check_split(tree, (r, b), (size_r, n - size_r), 2)


def _shrink_side(side: set[int], count: int, depth, grand) -> set[int]:
    """Remove `count` leaves of the grandparent-linked side tree.

    Deepest-first, ties to the lowest id.  The side's shallowest node (its
    anchor) is popped only once everything else is gone, so it survives any
    shrink that leaves the side non-empty.
    """
    moved: set[int] = set()
    child_count = {x: 0 for x in side}
    for x in side:
        g = grand(x)
        if g is not None:
            child_count[g] += 1
    heap = [(-depth[x], x) for x in side if child_count[x] == 0]
    heapq.heapify(heap)
    while len(moved) < count:
        _, x = heapq.heappop(heap)
        if x in moved or child_count[x] != 0:
            continue
        moved.add(x)
        g = grand(x)
        if g is not None:
            child_count[g] -= 1
            if child_count[g] == 0:
                heapq.heappush(heap, (-depth[g], g))
    return moved


def _reference_partition_two(tree: Tree, size_r: int) -> tuple[Tree, Tree]:
    """partition_two as it was when the oversized colour shed through a leaf heap."""
    t = _leaf_rooted(tree)
    parent = t.parent_map
    depth = t.depth_map

    def grand(x: int) -> int | None:
        p = parent[x]
        return parent[p] if p is not None else None

    red = {x for x in t.nodes if depth[x] % 2 == 0}
    blue = set(t.nodes) - red
    if len(red) != size_r:
        big, small = (red, blue) if len(red) > size_r else (blue, red)
        moved = _shrink_side(big, abs(len(red) - size_r), depth, grand)
        big -= moved
        small |= moved

    def link(side: set[int], anchor: int) -> Tree:
        edges = []
        for x in sorted(side):
            if x == anchor:
                continue
            p = parent[x] if parent[x] in side else grand(x)
            if p not in side:
                raise AlgorithmInvariantError(f"node {x} has no parent or grandparent in its side")
            edges.append((x, p))
        return Tree(frozenset(side), edges, anchor)

    root = t.root
    assert root is not None
    return link(red, root), link(blue, t.adjacency[root][0])


def test_partition_two_sheds_as_the_leaf_heap_did():
    # Every size_r of seeded trees of each shape, rooted at a random node or
    # not at all; all but one size_r per tree make a colour shed nodes.
    rng = random.Random(25)
    trees = [random_tree(rng.randint(2, 40), rng) for _ in range(40)]
    for shape in ("recursive", "path", "star", "caterpillar", "broom"):
        trees += [_shaped_tree(shape, rng.randint(2, 60), rng) for _ in range(30)]
    trees += [_shaped_tree(shape, 200, rng) for shape in ("recursive", "caterpillar", "broom")]
    for tree in trees:
        n = len(tree.nodes)
        for size_r in range(1, n):
            got = partition_two(tree, size_r)
            want = _reference_partition_two(tree, size_r)
            assert [(t.nodes, t.edges, t.root) for t in got] == [
                (t.nodes, t.edges, t.root) for t in want
            ]


def test_partition_three_path6():
    t = _path(6)
    trees = partition_three(t)
    _check_split(t, trees, (2, 2, 2), 2)


def test_partition_three_star5():
    star = Tree(frozenset(range(6)), tuple((0, i) for i in range(1, 6)))
    trees = partition_three(star)
    _check_split(star, trees, (2, 2, 2), 2)
    worst = max(hop_distance(star, u, v) for t in trees for u, v in t.edges)
    assert worst == 2


def test_partition_three_divisibility():
    with pytest.raises(PartitionError):
        partition_three(_path(4))


def test_partition_three_random():
    rng = random.Random(2)
    for _ in range(400):
        n = 3 * rng.randint(1, 20)
        tree = random_tree(n, rng)
        trees = partition_three(tree)
        _check_split(tree, trees, (n // 3,) * 3, 2)


def test_partition_many_spider():
    spider = spider_tree(4)
    forest = partition_many(spider, 4)
    _check_split(spider, forest.trees, (4,) * 4, 3)


def test_partition_many_path_uses_unit_hops():
    t = _path(16)
    forest = partition_many(t, 4)
    _check_split(t, forest.trees, (4,) * 4, 1)


def test_partition_many_random():
    rng = random.Random(3)
    for _ in range(150):
        k = rng.randint(4, 8)
        n = rng.randint(1, 10)
        tree = random_tree(k * n, rng)
        forest = partition_many(tree, k)
        _check_split(tree, forest.trees, (n,) * k, 3)


def test_partition_many_rejects_small_k():
    with pytest.raises(DomainError):
        partition_many(_path(8), 2)


def test_balanced_partition_dispatch():
    rng = random.Random(4)
    for k in (2, 3, 4, 6):
        tree = random_tree(k * 5, rng)
        forest = balanced_partition(tree, k)
        bound = 2 if k in (2, 3) else 3
        _check_split(tree, forest.trees, (5,) * k, bound)
    with pytest.raises(PartitionError):
        balanced_partition(_path(5), 2)


def _brute_pbst_value(inst, k):
    """Unreduced oracle: all unordered equal-size partitions."""
    total = inst.point_count
    n = total // k

    def value(groups):
        return max(
            bottleneck(minimum_spanning_tree(inst, g), inst) for g in groups
        )

    def recurse(remaining):
        if not remaining:
            yield []
            return
        first = remaining[0]
        rest = remaining[1:]
        for others in combinations(rest, n - 1):
            group = (first,) + others
            left = [p for p in rest if p not in others]
            for tail in recurse(left):
                yield [group] + tail

    return min(value(groups) for groups in recurse(list(range(total))))


def test_exact_pbst_matches_unreduced_enumeration():
    rng = random.Random(5)
    for trial in range(15):
        inst = (
            euclidean_instance(2, 6, rng) if trial % 2 else random_metric_instance(6, rng)
        )
        _, reduced = exact_pbst(inst, 2)
        assert reduced == pytest.approx(_brute_pbst_value(inst, 2), abs=1e-12)


def test_exact_pbst_spider_optimum_is_three():
    inst = spider_instance(4)
    _, optimal = exact_pbst(inst, 4)
    assert optimal == 3.0


def _singleton_pbst(instance):
    """The n == 1 shortcut exact_pbst used to take, copied verbatim."""
    forest = Forest(tuple(Tree(frozenset({p}), ()) for p in instance.points()))
    return forest, 0.0


def test_exact_pbst_singletons_match_the_removed_shortcut():
    # The bisection finds the singleton groups at candidate 0.0 by itself.
    rng = random.Random(41)
    for total in range(3, 25):
        for kind in ("euclidean", "random-metric", "grid"):
            if kind == "euclidean":
                inst = euclidean_instance(2, total, rng)
            elif kind == "random-metric":
                inst = random_metric_instance(total, rng)
            else:  # integer grid points, duplicates included
                inst = MetricInstance.from_coordinates(
                    [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(total)]
                )
            got = exact_pbst(inst, total)
            want = _singleton_pbst(inst)
            assert got == want and repr(got[1]) == repr(want[1])
            assert [t.root for t in got[0].trees] == [None] * total


def _partition_count_loop(total, k, n):
    """The unordered partition count exact_pbst used to cap, copied verbatim."""
    count = 1
    remaining = total
    for _ in range(k):
        count *= comb(remaining, n)
        remaining -= n
    for i in range(2, k + 1):
        count //= i
    return count


def test_exact_pbst_caps_the_same_sizes_as_the_partition_count_loop():
    # Coincident points make every feasibility search one greedy pass.
    for total in range(2, 40):
        inst = MetricInstance.from_coordinates([(0.0,)] * total)
        for k in range(2, total + 1):
            if total % k:
                continue
            if total > 24 or _partition_count_loop(total, k, total // k) > 10**7:
                with pytest.raises(OracleSizeError):
                    exact_pbst(inst, k)
            else:
                assert exact_pbst(inst, k)[1] == 0.0


def _reference_exact_pbst(instance: MetricInstance, k: int) -> tuple[Forest, float]:
    """exact_pbst before it bisected from `_multiple_bound`, verbatim but for its name.

    Optimal k equal trees via a threshold search over pairwise distances.

    A partition achieves bottleneck <= d iff each group is connected among
    edges of length <= d, which is monotone in d; the smallest feasible
    candidate distance is found by bisection, with feasibility decided by a
    backtracking search that grows one connected group at a time (each group
    anchored at its smallest unassigned point, killing group symmetry).
    """
    total = instance.point_count
    if not _is_int(k) or k < 2:
        raise DomainError(f"exact_pbst needs an integer k >= 2, got {k!r}")
    if total % k != 0:
        raise PartitionError(f"{total} points cannot split into k={k} equal groups")
    n = total // k
    if total > 24 or factorial(total) // (factorial(n) ** k * factorial(k)) > 10**7:
        raise OracleSizeError(
            f"exact_pbst is capped near 10^7 unordered partitions "
            f"(kn={total}, k={k} is too large)"
        )
    points = instance.points()
    table = [instance._lengths([(u, v) for v in points]) for u in points]
    candidates = sorted({0.0} | {d for u in points for d in table[u][u + 1 :]})

    def feasible(d: float) -> list[list[int]] | None:
        adj = [[v for v in points if v != u and table[u][v] <= d] for u in points]
        unassigned = set(points)
        groups: list[list[int]] = []

        def reachable_enough(group: list[int], banned: set[int]) -> bool:
            seen = set(group)
            stack = list(group)
            found = len(group)
            while stack and found < n:
                x = stack.pop()
                for y in adj[x]:
                    if y in unassigned and y not in seen and y not in banned:
                        seen.add(y)
                        found += 1
                        stack.append(y)
            return found >= n

        def grow(group: list[int], banned: set[int]) -> bool:
            if len(group) == n:
                for p in group:
                    unassigned.discard(p)
                groups.append(group)
                if not unassigned or next_group():
                    return True
                groups.pop()
                unassigned.update(group)
                return False
            if not reachable_enough(group, banned):
                return False
            candidates_here = sorted(
                y
                for x in group
                for y in adj[x]
                if y in unassigned and y not in banned and y not in group
            )
            if not candidates_here:
                return False
            pick = candidates_here[0]
            if grow(group + [pick], banned):
                return True
            return grow(group, banned | {pick})

        def next_group() -> bool:
            leader = min(unassigned)
            return grow([leader], set())

        if next_group():
            return groups
        return None

    lo, hi = 0, len(candidates) - 1
    best_groups = feasible(candidates[hi])
    if best_groups is None:
        raise DomainError("the complete metric graph must always be partitionable")
    while lo < hi:
        mid = (lo + hi) // 2
        attempt = feasible(candidates[mid])
        if attempt is not None:
            best_groups = attempt
            hi = mid
        else:
            lo = mid + 1
    forest = Forest(
        tuple(minimum_spanning_tree(instance, g) for g in best_groups)
    )
    return forest, candidates[hi]


def _oracle_cases():
    """Seeded (instance, k) pairs: Euclidean, random-metric, tie-heavy 3x3
    integer grids with duplicates, loose 1-D clusters, asymmetric integer
    matrices, and singleton groups over matrices with negative entries."""
    rng = random.Random(19)
    sizes = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (12, 3), (12, 4)]
    sizes += [(14, 2), (15, 3)]
    kinds = ("euclidean", "metric", "grid", "clusters", "asymmetric", "negative")
    for i in range(330):  # every size with every kind, five times
        total, k = sizes[i % len(sizes)]
        kind = kinds[i // len(sizes) % len(kinds)]
        if kind == "euclidean":
            inst = euclidean_instance(2, total, rng)
        elif kind == "metric":
            inst = random_metric_instance(total, rng)
        elif kind == "grid":
            inst = MetricInstance.from_coordinates(
                [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(total)]
            )
        elif kind == "clusters":
            inst = MetricInstance.from_coordinates(
                [(10.0 * rng.randrange(k) + rng.random(),) for _ in range(total)]
            )
        else:
            low = -3 if kind == "negative" else 0
            inst = MetricInstance.from_matrix(
                [[rng.randint(low, 5) for _ in range(total)] for _ in range(total)]
            )
            if kind == "negative":
                k = total
        yield inst, k


def test_exact_pbst_bisects_from_a_bound_that_keeps_its_answers():
    cases = list(_oracle_cases())
    assert len(cases) >= 300
    for inst, k in cases:
        forest, value = exact_pbst(inst, k)
        want_forest, want_value = _reference_exact_pbst(inst, k)
        assert [(t.nodes, t.edges, t.root) for t in forest.trees] == [
            (t.nodes, t.edges, t.root) for t in want_forest.trees
        ]
        assert repr(value) == repr(want_value)
        points = inst.points()
        table = [inst._lengths([(u, v) for v in points]) for u in points]
        assert _multiple_bound(table, inst.point_count // k) <= value


def test_solve_far_groups_recurses():
    # two clusters of 3 points far apart: the split is optimal
    coords = [(0.0,), (0.1,), (0.2,), (100.0,), (100.1,), (100.2,)]
    inst = MetricInstance.from_coordinates(coords)
    result = solve_pbst(inst, 2)
    groups = {frozenset(t.nodes) for t in result.forest.trees}
    assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    _, optimal = exact_pbst(inst, 2)
    assert result.bottleneck <= 2 * optimal + 1e-9


def test_split_sides_are_msts_of_their_points():
    # PBST recurses on the two sides of a longest MST edge without
    # spanning them again; that relies on each side being its own MST.
    rng = random.Random(13)
    for trial in range(90):
        n = rng.randint(2, 40)
        if trial % 3 == 0:
            inst = euclidean_instance(2, n, rng)
        elif trial % 3 == 1:
            inst = random_metric_instance(n, rng)
        else:
            inst = MetricInstance.from_coordinates(
                [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
            )
        mst = minimum_spanning_tree(inst, range(n))
        e, _ = longest_edge(mst, inst)
        for side in split_tree_at_edge(mst, e):
            assert side.edges == minimum_spanning_tree(inst, side.nodes).edges


def test_solve_builds_one_mst_while_recursing(monkeypatch):
    import bottleneck_trees.trees as trees

    calls, kernel_calls = [], []
    mst, kernel = pbst._mst, trees._mst_triples

    def counted(instance, points):
        calls.append(points)
        return mst(instance, points)

    def counted_kernel(instance, points):
        kernel_calls.append(points)
        return kernel(instance, points)

    monkeypatch.setattr(pbst, "_mst", counted)
    monkeypatch.setattr(trees, "_mst_triples", counted_kernel)
    # three far-apart groups of three: the solver splits twice
    coords = [(x + 0.1 * i,) for x in (0.0, 100.0, 250.0) for i in range(3)]
    inst = MetricInstance.from_coordinates(coords)
    result = solve_pbst(inst, 3)
    assert calls == kernel_calls == [list(range(9))]
    groups = {frozenset(t.nodes) for t in result.forest.trees}
    assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8})}


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _clustered_line(clusters):
    """Collinear clusters of three points 0.25 apart; gaps grow to the right."""
    return MetricInstance.from_coordinates(
        [(c * (c + 3) / 2 + 0.25 * i,) for c in range(clusters) for i in range(3)]
    )


def test_solve_peels_hundreds_of_groups_without_recursing():
    # Every longest MST edge peels off the last cluster, so the splits nest
    # one level per cluster; they must not use one Python frame each.
    clusters = 300
    inst = _clustered_line(clusters)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        result = solve_pbst(inst, clusters)
    finally:
        sys.setrecursionlimit(limit)
    assert [sorted(t.nodes) for t in result.forest.trees] == [
        [3 * c, 3 * c + 1, 3 * c + 2] for c in range(clusters)
    ]
    assert result.bottleneck == 0.25


def test_solve_reads_each_mst_edge_once_across_a_thousand_splits(monkeypatch):
    # All 999 nested splits come from one sweep over the MST's edges; a
    # solver that re-reads the remaining tree's lengths for every split
    # reads about 1.5 million pairs here.
    inst = _clustered_line(1000)
    reads = []
    lengths = MetricInstance._lengths

    def counted(self, pairs):
        pairs = list(pairs)
        reads.append(len(pairs))
        return lengths(self, pairs)

    monkeypatch.setattr(MetricInstance, "_lengths", counted)
    result = solve_pbst(inst, 1000)
    assert [sorted(t.nodes) for t in result.forest.trees] == [
        [3 * c, 3 * c + 1, 3 * c + 2] for c in range(1000)
    ]
    assert sum(reads) <= 3 * inst.point_count


def _recursive_solve(instance, mst, k, n):
    """The solver's split rule, written as the plain recursion."""
    if k == 1:
        return [mst]
    e, _ = longest_edge(mst, instance)
    side_u, side_v = split_tree_at_edge(mst, e)
    cu, cv = len(side_u.nodes), len(side_v.nodes)
    if cu % n == 0 and cv % n == 0:
        return _recursive_solve(instance, side_u, cu // n, n) + _recursive_solve(
            instance, side_v, cv // n, n
        )
    return list(balanced_partition(pbst._leaf_rooted(mst), k).trees)


def test_solve_matches_the_recursive_split_rule():
    rng = random.Random(29)
    for trial in range(120):
        k, n = rng.randint(2, 6), rng.randint(3, 8)
        if trial % 4 == 0:
            inst = euclidean_instance(2, k * n, rng)
        elif trial % 4 == 1:
            inst = random_metric_instance(k * n, rng)
        elif trial % 4 == 2:
            inst = MetricInstance.from_coordinates(
                [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(k * n)]
            )
        else:  # loose 1-D clusters, so many splits are clean
            centres = [rng.uniform(0, 10 * k) for _ in range(k)]
            coords = [(c + rng.uniform(0, 2),) for c in centres for _ in range(n)]
            rng.shuffle(coords)
            inst = MetricInstance.from_coordinates(coords)
        mst = minimum_spanning_tree(inst, range(k * n))
        want = _recursive_solve(inst, mst, k, n)
        got = solve_pbst(inst, k).forest.trees
        assert [(t.nodes, t.edges, t.root) for t in got] == [
            (t.nodes, t.edges, t.root) for t in want
        ]


def test_solve_collinear_six():
    inst = MetricInstance.from_coordinates([(float(i),) for i in range(6)])
    result = solve_pbst(inst, 2)
    _, optimal = exact_pbst(inst, 2)
    assert optimal == 1.0
    assert result.bottleneck <= 2.0 + 1e-9


def test_solve_spider_metric():
    inst = spider_instance(4)
    result = solve_pbst(inst, 4)
    assert result.bottleneck <= 3.0 + 1e-9
    for tree in result.forest.trees:
        assert len(tree.nodes) == 4


def test_solve_rejects_bad_sizes():
    inst = euclidean_instance(1, 8, random.Random(0))
    with pytest.raises(PartitionError):
        solve_pbst(inst, 3)
    with pytest.raises(DomainError):
        solve_pbst(inst, 4)  # n = 2 is the matching case


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_pbst(euclidean_instance(2, 9, random.Random(0)), 3.0),
        lambda: solve_pbst(euclidean_instance(2, 12, random.Random(0)), 4.0),
        lambda: exact_pbst(euclidean_instance(2, 6, random.Random(0)), 2.0),
        lambda: balanced_partition(_path(6), 2.0),
        lambda: partition_many(_path(8), 4.0),
        lambda: partition_two(_path(6), 2.5),
        lambda: partition_two(_path(6), True),
        lambda: bucketize(_path(6), 2.0),
    ],
    ids=["solve-3.0", "solve-4.0", "exact-2.0", "balanced-2.0", "many-4.0",
         "two-2.5", "two-True", "bucketize-2.0"],
)
def test_non_integer_k_or_size_is_rejected(call):
    with pytest.raises(DomainError, match="integer"):
        call()


def test_solve_ratio_against_oracle():
    rng = random.Random(6)
    for trial in range(120):
        n = rng.choice([3, 4, 5])
        inst = (
            euclidean_instance(2, 2 * n, rng)
            if trial % 2
            else random_metric_instance(2 * n, rng)
        )
        result = solve_pbst(inst, 2)
        _, optimal = exact_pbst(inst, 2)
        assert result.bottleneck <= 2 * optimal + 1e-9


def test_star_instances_have_tight_two_bound():
    # metric versions of the 3-leaf and 5-leaf stars
    for leaves, k in ((3, 2), (5, 3)):
        inst = star_instance(leaves)
        _, optimal = exact_pbst(inst, k)
        assert optimal == 2.0


def _shaped_tree(shape, n, rng):
    """A tree of one of five shapes on shuffled labels 0..n-1."""
    if shape == "recursive":
        edges = [(rng.randrange(i), i) for i in range(1, n)]
    elif shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        edges = [(0, i) for i in range(1, n)]
    elif shape == "caterpillar":
        spine = rng.randint(1, n)
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [(rng.randrange(spine), i) for i in range(spine, n)]
    else:  # broom: a handle ending in a star of bristles
        handle = rng.randint(1, n)
        edges = [(i, i + 1) for i in range(handle - 1)]
        edges += [(handle - 1, i) for i in range(handle, n)]
    labels = list(range(n))
    rng.shuffle(labels)
    root = rng.randrange(n) if rng.random() < 0.5 else None
    return Tree(frozenset(labels), tuple((labels[u], labels[v]) for u, v in edges), root=root)


def test_partition_outputs_are_pinned():
    # Exact nodes, edge order and roots of the 2- and 3-way partitions on
    # seeded trees that reach every branch of partition_three, so any
    # rewrite of the cut must return byte-identical pieces.
    rng = random.Random(10)
    shapes = ("recursive", "path", "star", "caterpillar", "broom")
    outputs = []
    for i in range(200):
        n = 3 * rng.randint(1, 30)
        tree = _shaped_tree(shapes[i % 5], n, rng)
        outputs.extend(partition_three(tree))
        if n > 3:
            for size_r in sorted({1, n // 3, n // 2, rng.randint(1, n - 1), n - 1}):
                outputs.extend(partition_two(tree, size_r))
    digest = hashlib.sha256(
        repr([(sorted(t.nodes), t.edges, t.root) for t in outputs]).encode()
    ).hexdigest()
    assert digest == "39f061274d42e32adac5cd213a16efe3223c8633e6aefa47c40828799dca7eb5"


def test_partition_three_on_a_wide_star():
    # Both R and G take thousands of whole child subtrees here; each one
    # must not cost a pass over the whole tree.
    total = 2 * 10**4 + 1
    star = Tree(frozenset(range(total)), tuple((0, i) for i in range(1, total)))
    pieces = partition_three(star)
    assert [len(p.nodes) for p in pieces] == [total // 3] * 3
    # three sizes that sum to the total cover every node only if disjoint
    assert frozenset().union(*(p.nodes for p in pieces)) == star.nodes
    for p in pieces:
        assert all(hop_distance(star, u, v) <= 2 for u, v in p.edges)


@pytest.mark.parametrize("shape", ["path", "star", "caterpillar", "broom"])
def test_partitions_and_cube_cycle_on_large_shaped_trees(shape):
    # At about 2·10^4 nodes every partition, the bucketing and the
    # cube cycle keep their sizes and hop bounds on each extreme shape.
    total = 19_980  # divisible by 2, 3, 4 and 5
    tree = _shaped_tree(shape, total, random.Random(shape))
    _check_split(tree, partition_two(tree, total // 3), [total // 3, total - total // 3], 2)
    _check_split(tree, partition_three(tree), [total // 3] * 3, 2)
    _check_split(tree, partition_many(tree, 4).trees, [total // 4] * 4, 3)
    rooted = tree.rooted_at(min(tree.leaves()))
    for k in (2, 5):
        buckets = bucketize(rooted, k).buckets
        assert sorted(p for b in buckets for p in b) == sorted(tree.nodes)
        for bucket in buckets:
            assert len(bucket) == k
            assert all(hop_distance(rooted, a, b) <= 2 * k - 2 for a, b in combinations(bucket, 2))
    cycle = cube_hamiltonian_cycle(tree)
    assert sorted(cycle) == sorted(tree.nodes)
    assert all(hop_distance(tree, a, b) <= 3 for a, b in zip(cycle, cycle[1:] + cycle[:1]))
