"""Caller mistakes at the public fronts raise the documented caller errors.

One seeded fuzz test calls every public name that takes a tree, a forest, a
partition, a labeling, a selection or a tour with small, often malformed
arguments.  A caller's mistake must come out as a `BottleneckTreeError`
subclass other than `AlgorithmInvariantError` (the class the package keeps
for its own bugs), never as a bare built-in exception.
"""

import random

from bottleneck_trees import (
    AlgorithmInvariantError,
    BottleneckTreeError,
    ClusterPartition,
    Forest,
    Labeling,
    NodeSelection,
    Tree,
    balanced_partition,
    bottleneck,
    bucketize,
    build_t1,
    build_t2,
    cube_hamiltonian_cycle,
    cube_hamiltonian_path,
    cube_hamiltonian_path_between,
    exact_bottleneck_tour,
    exact_dbst,
    exact_gbst,
    forest_bottleneck,
    forest_from_tree,
    hop_distance,
    is_valid_labeling,
    konig_labeling,
    lift_to_tours,
    longest_edge,
    partition_many,
    partition_three,
    partition_two,
    representatives,
    select_nodes,
    solve_2gbst,
    solve_dbst,
    split_tree_at_edge,
    tour_bottleneck,
)
from bottleneck_trees.generators import (
    euclidean_instance,
    random_clusters,
    random_metric_instance,
    random_tree,
    random_tuples,
)

_ODD_IDS = (-1, 1.5, None, True, "0")
_ODD_KS = (-1, 0, 1, 2, 3, 4, 5, 1.5, True, None)


def _tree(rng: random.Random) -> Tree:
    """A valid tree on 1-9 ids drawn from 0..11, rooted or not."""
    n = rng.randint(1, 9)
    ids = rng.sample(range(12) if rng.random() < 0.3 else range(n), n)
    base = random_tree(n, rng)
    edges = [(ids[u], ids[v]) for u, v in base.edges]
    root = rng.choice((None, ids[rng.randrange(n)], ids[rng.randrange(n)]))
    return Tree(frozenset(ids), edges, root)


def _node(rng: random.Random, tree: Tree):
    """Mostly a node of the tree; else an id outside it or an ill-typed value."""
    roll = rng.random()
    if roll < 0.7:
        return rng.choice(sorted(tree.nodes))
    if roll < 0.85:
        return max(tree.nodes) + rng.randint(1, 3)
    return rng.choice(_ODD_IDS)


def _groups(rng: random.Random, count: int) -> list[list]:
    """Groups over 0..count-1, often malformed: a dropped, repeated or odd id."""
    ids = list(range(count))
    rng.shuffle(ids)
    size = rng.choice([s for s in range(1, count + 1) if count % s == 0])
    groups = [ids[i : i + size] for i in range(0, count, size)]
    roll = rng.random()
    if roll < 0.15 and groups[0]:
        groups[0].pop()
    elif roll < 0.3:
        groups[-1].append(rng.choice(ids))
    elif roll < 0.4:
        groups[0][0] = rng.choice(_ODD_IDS)
    return groups


def _clusters(rng: random.Random, count: int) -> ClusterPartition:
    """Clusters over 0..count-1; one in ten has a cluster of three."""
    if rng.random() < 0.9:
        return random_clusters(count, rng, rng.randrange(count % 2, count + 1, 2))
    ids = list(range(count))
    rng.shuffle(ids)
    cuts = sorted(rng.sample(range(1, count), min(count - 1, count // 2)))
    groups = tuple(tuple(ids[i:j]) for i, j in zip([0, *cuts], [*cuts, count]))
    return ClusterPartition(max(2, *map(len, groups)), groups)


def _selection(rng: random.Random, tree: Tree, clusters: ClusterPartition) -> NodeSelection:
    """A walk's selection on a matching tree, perturbed; else random statuses."""
    try:
        sel = select_nodes(tree, clusters)
        status, order = dict(sel.status), list(sel.visit_order)
    except BottleneckTreeError:
        status = {v: rng.choice(("selected", "burned")) for v in tree.nodes}
        order = rng.sample(sorted(tree.nodes), len(tree.nodes))
    roll = rng.random()
    if roll < 0.2:
        v = rng.choice(order)
        status[v] = "burned" if status[v] == "selected" else "selected"
    elif roll < 0.3:
        status[max(tree.nodes) + 1] = "selected"
    elif roll < 0.4:
        status[rng.choice(order)] = "open"
    elif roll < 0.5:
        rng.shuffle(order)
    elif roll < 0.6:
        order[-1] = order[0]
    return NodeSelection(status, tuple(order))


def test_public_fronts_raise_only_caller_errors():
    repeats_scored = 0
    for seed in range(1000):
        rng = random.Random(seed)
        points = rng.randint(1, 9)
        if rng.random() < 0.5:
            inst = euclidean_instance(2, points, rng)
        else:
            inst = random_metric_instance(points, rng)
        tree, other = _tree(rng), _tree(rng)
        k = rng.choice(_ODD_KS)
        tk = rng.choice((2, 3))
        tuples = random_tuples(tk * rng.randint(1, 4), tk, rng)
        count = rng.randint(1, 9)
        clusters = _clusters(rng, count)
        pair_clusters = random_clusters(max(tree.nodes) + 1, rng)
        a, b = _groups(rng, count), _groups(rng, count)
        forest = [tree, other] if rng.random() < 0.5 else [tree]
        if rng.random() < 0.1:
            forest.append(rng.choice(_ODD_IDS))
        tour = [rng.choice(_ODD_IDS + tuple(inst.points())) if rng.random() < 0.1
                else rng.randrange(points + 1) for _ in range(rng.randint(0, 6))]
        labels = Labeling({p: rng.randrange(tk + 1) for p in range(tuples.point_count)}, tk)
        u, v = _node(rng, tree), _node(rng, tree)
        edge = rng.choice(
            [(u, v), (u, v), (u,), (u, v, v), u, *tree.edges[:1], *tree.edges[-1:]]
        )
        t1 = tree if tree.root is not None else tree.rooted_at(min(tree.nodes))
        selection = _selection(rng, t1, pair_clusters)
        fronts = {
            "Forest": lambda: Forest(forest),
            "bucketize": lambda: bucketize(tree, k),
            "forest_from_tree": lambda: forest_from_tree(tree, tuples),
            "select_nodes": lambda: select_nodes(tree, clusters),
            "build_t2": lambda: build_t2(t1, selection),
            "partition_two": lambda: partition_two(tree, k),
            "partition_three": lambda: partition_three(tree),
            "partition_many": lambda: partition_many(tree, k),
            "balanced_partition": lambda: balanced_partition(tree, k),
            "bottleneck": lambda: bottleneck(tree, inst),
            "longest_edge": lambda: longest_edge(tree, inst),
            "forest_bottleneck": lambda: forest_bottleneck(Forest(forest), inst),
            "lift_to_tours": lambda: lift_to_tours(Forest(forest), inst),
            "cube_hamiltonian_cycle": lambda: cube_hamiltonian_cycle(tree),
            "cube_hamiltonian_path": lambda: cube_hamiltonian_path(tree, u, v),
            "cube_hamiltonian_path_between": lambda: cube_hamiltonian_path_between(tree, u, v),
            "hop_distance": lambda: hop_distance(tree, u, v),
            "split_tree_at_edge": lambda: split_tree_at_edge(tree, edge),
            "konig_labeling": lambda: konig_labeling(a, b, k),
            "representatives": lambda: representatives(a, b),
            "is_valid_labeling": lambda: is_valid_labeling(labels, tuples.tuples, b),
            "solve_dbst": lambda: solve_dbst(inst, tuples),
            "exact_dbst": lambda: exact_dbst(inst, tuples),
            "build_t1": lambda: build_t1(inst, clusters),
            "solve_2gbst": lambda: solve_2gbst(inst, clusters),
            "exact_gbst": lambda: exact_gbst(inst, clusters),
            "tour_bottleneck": lambda: tour_bottleneck(tour, inst),
            "exact_bottleneck_tour": lambda: exact_bottleneck_tour(inst, tour),
        }
        for name, front in fronts.items():
            try:
                front()
            except AlgorithmInvariantError as exc:
                raise AssertionError(f"seed {seed}: {name} raised {exc!r}") from exc
            except BottleneckTreeError:
                continue
            if name == "tour_bottleneck" and len(set(tour)) < len(tour):
                repeats_scored += 1
    # The one known gap: tour_bottleneck still scores a "tour" that repeats
    # a point.  Its check waits until exact_bottleneck_tour, which calls it
    # once per candidate tour, scores through an unchecked core.
    assert repeats_scored > 0
