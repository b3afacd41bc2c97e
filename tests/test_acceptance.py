"""Acceptance suite: one test per advertised guarantee, at fixed tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  All randomness is seeded; reruns are byte-identical.
"""

import functools
import random
from itertools import combinations, product

import bottleneck_trees.dbst as dbst
from bottleneck_trees import (
    Forest,
    Labeling,
    MetricInstance,
    Tree,
    TuplePartition,
    bottleneck,
    bucketize,
    build_t2,
    exact_bottleneck_tour,
    exact_dbst,
    exact_gbst,
    exact_pbst,
    forest_from_tree,
    hop_distance,
    is_valid_labeling,
    konig_labeling,
    lift_to_tours,
    minimum_spanning_tree,
    partition_many,
    partition_three,
    partition_two,
    representatives,
    select_nodes,
    solve_2gbst,
    solve_dbst,
    solve_pbst,
)
from bottleneck_trees.cli import (
    dbst_result_to_dict,
    gbst_result_to_dict,
    pbst_result_to_dict,
    _dumps,
)
from bottleneck_trees.gbst import SELECTED
from bottleneck_trees.generators import (
    euclidean_instance,
    gbst_path8,
    generate,
    random_clusters,
    random_metric_instance,
    random_tree,
    random_tuples,
    spider_instance,
    spider_tree,
)
from bottleneck_trees.metric import InstanceDocument, instance_document_to_dict

TOL = 1e-9


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL  {name}")
                raise
            print(f"criterion {num}: PASS  {name}")

        return wrapper

    return decorate


def _bounded(achieved, factor, optimal):
    if optimal == 0.0:
        return achieved <= TOL
    return achieved <= factor * optimal + TOL


def _instance(kind, n, rng):
    if kind == "euclidean":
        return euclidean_instance(2, n, rng)
    return random_metric_instance(n, rng)


def _clustered_tuples(k, n, rng):
    """n k-tuples over 2 or 3 unit-square clusters 100 apart.

    Each cluster holds the same number of points of every tuple, so the
    optimal trees lie inside the clusters and the MST edges between them are
    far longer than the optimum.
    """
    cuts = sorted(rng.sample(range(1, k), rng.randint(1, min(2, k - 1))))
    slots = [c for c, (a, b) in enumerate(zip([0, *cuts], [*cuts, k])) for _ in range(b - a)]
    ids = rng.sample(range(k * n), k * n)
    groups = [ids[i : i + k] for i in range(0, k * n, k)]
    coords = [None] * (k * n)
    for members in groups:
        for p, c in zip(members, rng.sample(slots, k)):
            coords[p] = (100.0 * c + rng.random(), rng.random())
    return MetricInstance.from_coordinates(coords), TuplePartition(k, groups)


@criterion(1, "k-DBST achieved/optimal <= 3k-2 over seeded random and clustered instances")
def test_criterion_1_dbst_ratio(monkeypatch):
    # Every piece the split leaves with j >= 2 points of every tuple is
    # bucketed through dbst._wire; none may have an MST edge above OPT.
    wired = []
    wire = dbst._wire

    def recorded(tree, groups, j):
        wired.append(tree)
        return wire(tree, groups, j)

    monkeypatch.setattr(dbst, "_wire", recorded)
    configs = [(2, n, kind, 1000) for n in range(2, 7) for kind in ("euclidean", "random-metric")]
    configs += [(3, n, kind, 1000) for n in range(2, 5) for kind in ("euclidean", "random-metric")]
    configs += [(3, n, "clustered", 1000) for n in range(2, 5)]
    # k = 4: the oracle enumerates (4!)^(n-1) assignments, 576 at n = 3
    kinds = ("euclidean", "random-metric", "clustered")
    configs += [(4, n, kind, seeds) for n, seeds in ((2, 300), (3, 150)) for kind in kinds]
    offset = {"euclidean": 0, "random-metric": 50_000_017, "clustered": 70_000_027}
    for k, n, kind, seeds in configs:
        factor = 3 * k - 2
        base = (k * 100 + n) * 100_003 + offset[kind]
        for seed in range(seeds):
            rng = random.Random(base + seed)
            if kind == "clustered":
                inst, tuples = _clustered_tuples(k, n, rng)
            else:
                inst = _instance(kind, k * n, rng)
                tuples = random_tuples(k * n, k, rng)
            wired.clear()
            result = solve_dbst(inst, tuples)
            _, optimal = exact_dbst(inst, tuples)
            assert _bounded(result.bottleneck, factor, optimal), (k, n, kind, seed)
            if k == 2 and not result.shortcut:
                assert result.mst_bottleneck <= optimal + TOL, (n, kind, seed)
            for piece in wired:
                assert bottleneck(piece, inst) <= optimal + TOL, (k, n, kind, seed)


@criterion(2, "k-DBST hop and bucket-diameter invariants; spiders attain 2k-2")
def test_criterion_2_dbst_hops():
    rng = random.Random(0xD857)
    for trial in range(1000):
        k = 2 + trial % 5
        if trial == 0:
            groups = 5000  # 10^4-node tree
        elif trial == 500:
            k, groups = 5, 2000  # 10^4 nodes again, wide labels
        else:
            groups = rng.randint(2, 30)
        tree = random_tree(k * groups, rng)
        rooted = tree.rooted_at(min(tree.leaves()))
        tuples = random_tuples(k * groups, k, rng)
        forest, buckets, _ = forest_from_tree(rooted, tuples)
        for sub in forest.trees:
            for u, v in sub.edges:
                assert hop_distance(rooted, u, v) <= 3 * k - 2
        for bucket in buckets.buckets:
            for i, a in enumerate(bucket):
                for b in bucket[i + 1 :]:
                    assert hop_distance(rooted, a, b) <= 2 * k - 2
    for k in (4, 5):
        tree = spider_tree(k)
        rooted = tree.rooted_at(min(tree.leaves()))
        worst = 0
        for bucket in bucketize(rooted, k).buckets:
            for i, a in enumerate(bucket):
                for b in bucket[i + 1 :]:
                    worst = max(worst, hop_distance(rooted, a, b))
        assert worst == 2 * k - 2, k


@criterion(3, "2-GBST achieved/optimal <= 3; the 8-node path fixture is tight")
def test_criterion_3_gbst_ratio():
    for seed in range(1000):
        rng = random.Random(31_000 + seed)
        n = rng.randint(2, 12)
        inst = _instance("euclidean" if seed % 2 else "random-metric", n, rng)
        extra = 2 * rng.randrange(0, n // 4 + 1)
        singletons = min(n % 2 + extra, n - (n - (n % 2 + extra)) % 2)
        clusters = random_clusters(n, rng, singletons=singletons)
        result = solve_2gbst(inst, clusters)
        _, optimal = exact_gbst(inst, clusters)
        assert _bounded(result.bottleneck, 3, optimal), seed
        for g in clusters.clusters:
            assert len(result.tree.nodes & set(g)) == 1
    fixture = gbst_path8()
    assert fixture.clusters is not None
    _, optimal = exact_gbst(fixture.instance, fixture.clusters)
    assert optimal == 3.0
    result = solve_2gbst(fixture.instance, fixture.clusters)
    assert result.t1.nodes == frozenset(range(8))
    hops = [hop_distance(result.t1, u, v) for u, v in result.tree.edges]
    assert max(hops) == 3


@criterion(4, "selection tree: one node per cluster, every edge <= 3 hops")
def test_criterion_4_selection_hops():
    rng = random.Random(0x5E1E)
    for _ in range(10_000):
        n = rng.randint(1, 60)
        tree = random_tree(n, rng)
        clusters = random_clusters(n, rng)
        singles = []
        for g in clusters.clusters:
            if len(g) == 1:
                singles.append(g[0])
        t1 = tree.rooted_at(min(singles) if singles else min(tree.nodes))
        sel = select_nodes(t1, clusters)
        assert set(sel.status) == set(tree.nodes)
        for g in clusters.clusters:
            assert sum(1 for p in g if sel.status[p] == SELECTED) == 1
        t2 = build_t2(t1, sel)  # Tree construction verifies connectivity
        for u, v in t2.edges:
            assert hop_distance(t1, u, v) <= 3


@criterion(5, "balanced tree partitioning: sizes exact, hops <= 2 (k=2,3) / <= 3 (k>=4)")
def test_criterion_5_balanced_partitioning():
    rng = random.Random(0xBA1A)
    for trial in range(1000):
        n2 = rng.randint(2, 40)
        tree = random_tree(n2, rng)
        size_r = rng.randint(1, n2 - 1)
        r, b = partition_two(tree, size_r)
        assert len(r.nodes) == size_r and len(b.nodes) == n2 - size_r
        for u, v in list(r.edges) + list(b.edges):
            assert hop_distance(tree, u, v) <= 2

        n3 = 3 * rng.randint(1, 13)
        tree3 = random_tree(n3, rng)
        parts = partition_three(tree3)
        for part in parts:
            assert len(part.nodes) == n3 // 3
            for u, v in part.edges:
                assert hop_distance(tree3, u, v) <= 2

        k = rng.randint(4, 8)
        nk = k * rng.randint(1, 8)
        treek = random_tree(nk, rng)
        forest = partition_many(treek, k)
        for part in forest.trees:
            assert len(part.nodes) == nk // k
            for u, v in part.edges:
                assert hop_distance(treek, u, v) <= 3

    # stars force a hop-2 edge for k=2 and k=3
    star = Tree(frozenset(range(4)), tuple((0, i) for i in range(1, 4)))
    r, b = partition_two(star, 2)
    assert max(hop_distance(star, u, v) for t in (r, b) for u, v in t.edges) == 2
    star5 = Tree(frozenset(range(6)), tuple((0, i) for i in range(1, 6)))
    parts = partition_three(star5)
    assert max(hop_distance(star5, u, v) for t in parts for u, v in t.edges) == 2

    # the 16-node spider cannot be split better than hop 3
    _, optimal = exact_pbst(spider_instance(4), 4)
    assert optimal == 3.0
    forest = partition_many(spider_tree(4), 4)
    spider = spider_tree(4)
    assert all(
        hop_distance(spider, u, v) <= 3 for t in forest.trees for u, v in t.edges
    )


@criterion(6, "k-PBST achieved/optimal <= 2 for k=2; spider metric within 3")
def test_criterion_6_pbst_ratio():
    for n in (3, 4, 5):
        for seed in range(500):
            rng = random.Random(60_000 + 1000 * n + seed)
            inst = _instance("euclidean" if seed % 2 else "random-metric", 2 * n, rng)
            result = solve_pbst(inst, 2)
            _, optimal = exact_pbst(inst, 2)
            assert _bounded(result.bottleneck, 2, optimal), (n, seed)
    inst = spider_instance(4)
    result = solve_pbst(inst, 4)
    _, optimal = exact_pbst(inst, 4)
    assert _bounded(result.bottleneck, 3, optimal)


def _pbst_instance(kind, k, n, rng):
    """A euclidean, random-metric or loose 1-D clustered instance of k*n points.

    The clustered points sit within 2 of k centres spread over [0, 10k], so
    many longest-edge splits are clean.
    """
    if kind != "clusters":
        return _instance(kind, k * n, rng)
    centres = [rng.uniform(0, 10 * k) for _ in range(k)]
    coords = [(c + rng.uniform(0, 2),) for c in centres for _ in range(n)]
    rng.shuffle(coords)
    return MetricInstance.from_coordinates(coords)


PBST_KINDS = ("euclidean", "random-metric", "clusters")


@criterion(10, "k-PBST achieved/optimal <= 2 for k=3 and <= 3 for k=4")
def test_criterion_10_pbst_ratio_beyond_two():
    for k, n, factor in ((3, 3, 2), (3, 4, 2), (4, 3, 3)):
        for seed in range(150):
            rng = random.Random(100_000 + 1000 * (10 * k + n) + seed)
            inst = _pbst_instance(PBST_KINDS[seed % 3], k, n, rng)
            result = solve_pbst(inst, k)
            _, optimal = exact_pbst(inst, k)
            assert _bounded(result.bottleneck, factor, optimal), (k, n, seed)


def _exact_two_tours_value(inst):
    """The best max over two optimal tours, over every split into equal halves."""
    points = list(inst.points())
    half = len(points) // 2
    best = None
    for rest in combinations(points[1:], half - 1):
        first = (points[0], *rest)
        second = [p for p in points if p not in first]
        value = max(exact_bottleneck_tour(inst, g)[1] for g in (first, second))
        if best is None or value < best:
            best = value
    return best


@criterion(11, "2-PBST tours within 3*alpha = 6x of the best two optimal tours")
def test_criterion_11_pbst_tours():
    for seed in range(200):
        rng = random.Random(110_000 + seed)
        n = rng.choice([3, 4])
        inst = _pbst_instance(PBST_KINDS[seed % 3], 2, n, rng)
        result = solve_pbst(inst, 2)
        lifted = lift_to_tours(result.forest, inst)
        for tree, tour in zip(result.forest.trees, lifted.tour_set.tours):
            assert sorted(tour) == sorted(tree.nodes)
        assert _bounded(lifted.bottleneck, 6, _exact_two_tours_value(inst)), seed


@criterion(12, "2-GBST tours within 3*3 = 9x of the best tour over every representative choice")
def test_criterion_12_gbst_tours():
    for seed in range(400):
        rng = random.Random(120_000 + seed)
        n = rng.randint(6, 12)
        inst = _instance("euclidean" if seed % 2 else "random-metric", n, rng)
        clusters = random_clusters(n, rng)
        result = solve_2gbst(inst, clusters)
        lifted = lift_to_tours(Forest((result.tree,)), inst)
        assert sorted(lifted.tour_set.tours[0]) == sorted(result.tree.nodes)
        optimal = min(
            exact_bottleneck_tour(inst, choice)[1] for choice in product(*clusters.clusters)
        )
        assert _bounded(lifted.bottleneck, 9, optimal), seed


def _exact_disjoint_tours_value(inst, tuples):
    best = None
    for bits in product((0, 1), repeat=tuples.group_count - 1):
        choice = (0,) + bits
        groups = [[], []]
        for members, flip in zip(tuples.tuples, choice):
            groups[flip].append(members[0])
            groups[1 - flip].append(members[1])
        value = max(exact_bottleneck_tour(inst, g)[1] for g in groups)
        if best is None or value < best:
            best = value
    return best


@criterion(7, "tour lifting: gaps <= 3 hops, 2-DBST tours within 12x, tree* <= tour*")
def test_criterion_7_tours():
    for seed in range(300):
        rng = random.Random(70_000 + seed)
        n = rng.choice([3, 4])
        inst = _instance("euclidean" if seed % 2 else "random-metric", 2 * n, rng)
        tuples = random_tuples(2 * n, 2, rng)
        result = solve_dbst(inst, tuples)
        lifted = lift_to_tours(result.forest, inst)
        for tree, tour in zip(result.forest.trees, lifted.tour_set.tours):
            assert sorted(tour) == sorted(tree.nodes)
            for i in range(len(tour)):
                assert hop_distance(tree, tour[i], tour[(i + 1) % len(tour)]) <= 3
        tour_opt = _exact_disjoint_tours_value(inst, tuples)
        assert _bounded(lifted.bottleneck, 12, tour_opt), seed
        size = rng.randint(3, min(7, 2 * n))
        subset = rng.sample(range(2 * n), size)
        tree_opt = bottleneck(minimum_spanning_tree(inst, subset), inst)
        _, tour_sub_opt = exact_bottleneck_tour(inst, subset)
        assert tree_opt <= tour_sub_opt + TOL


@criterion(8, "representative labelings valid on random double partitions")
def test_criterion_8_labeling():
    rng = random.Random(0x1AB)
    for _ in range(10_000):
        k = rng.randint(2, 5)
        n = rng.randint(1, 50)
        ids = list(range(k * n))
        rng.shuffle(ids)
        a = [tuple(ids[i : i + k]) for i in range(0, k * n, k)]
        rng.shuffle(ids)
        b = [tuple(ids[i : i + k]) for i in range(0, k * n, k)]
        lab = konig_labeling(a, b, k)
        assert is_valid_labeling(lab, a, b)
    # the worked 12-element double partition and its published answers
    a = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    b = [(3, 8, 11), (1, 7, 10), (0, 2, 4), (5, 6, 9)]
    reps, pi = representatives(a, b)
    for i, r in enumerate(reps):
        assert r in a[i] and r in b[pi[i]]
    known_reps, known_pi = [0, 5, 7, 11], [2, 3, 1, 0]
    for i, r in enumerate(known_reps):
        assert r in a[i] and r in b[known_pi[i]]
    printed = Labeling(
        labels={0: 0, 5: 0, 7: 0, 11: 0, 1: 1, 4: 1, 8: 1, 9: 1, 2: 2, 3: 2, 6: 2, 10: 2},
        k=3,
    )
    assert is_valid_labeling(printed, a, b)


@criterion(9, "identical seeds produce byte-identical serialized outputs")
def test_criterion_9_determinism():
    def generated_bytes(kind, params, seed):
        return _dumps(instance_document_to_dict(generate(kind, dict(params), seed)))

    gen_specs = [
        ("euclidean", {"n": 10, "dim": 2, "partition": "tuples", "k": 2}, 7),
        ("euclidean", {"n": 9, "dim": 3, "partition": "clusters"}, 8),
        ("random-metric", {"n": 8, "partition": "tuples", "k": 2}, 9),
        ("fixture-star", {"leaves": 3}, 0),
        ("fixture-spider", {"k": 4}, 0),
        ("fixture-gbst-path8", {}, 0),
    ]
    for kind, params, seed in gen_specs:
        assert generated_bytes(kind, params, seed) == generated_bytes(kind, params, seed)

    def solve_all_bytes(seed):
        rng = random.Random(seed)
        inst = random_metric_instance(8, rng)
        tuples = random_tuples(8, 2, rng)
        clusters = random_clusters(8, rng, singletons=2)
        doc_t = InstanceDocument(instance=inst, tuples=tuples)
        doc_c = InstanceDocument(instance=inst, clusters=clusters)
        parts = [
            _dumps(dbst_result_to_dict(solve_dbst(inst, tuples), doc_t, True, True)),
            _dumps(gbst_result_to_dict(solve_2gbst(inst, clusters), doc_c, True, False)),
            _dumps(pbst_result_to_dict(solve_pbst(inst, 2), doc_t, 2, True, True)),
        ]
        return "".join(parts)

    for seed in range(5):
        assert solve_all_bytes(seed) == solve_all_bytes(seed)
