"""Checks on every answer, run outside the timed regions.

Each function returns a list of violation messages (empty when the answer
holds).  They use only the package's public functions, so a check can never
share a bug with an optimisation of the solver internals.
"""

from __future__ import annotations

from bottleneck_trees import bottleneck, forest_bottleneck, hop_distance, tour_bottleneck

EPS = 1e-9


def factor(solver: str, k: int) -> int:
    """The solver's certified approximation factor, which is also its hop bound."""
    if solver == "dbst":
        return 3 * k - 2
    if solver == "pbst":
        return 2 if k <= 3 else 3
    return 3


def within(value: float, times: float, reference: float) -> bool:
    return value <= times * reference * (1.0 + EPS) + EPS


def _cover(forest, points, count: int) -> list[str]:
    out = []
    if len(forest.trees) != count:
        out.append(f"{len(forest.trees)} trees, expected {count}")
    seen: set[int] = set()
    total = 0
    for tree in forest.trees:
        seen |= tree.nodes
        total += len(tree.nodes)
    if total != len(seen):
        out.append("trees share nodes")
    if seen != set(points):
        out.append("trees do not cover exactly the points")
    return out


def _hops(trees, reference, bound: int) -> list[str]:
    for tree in trees:
        for u, v in tree.edges:
            hops = hop_distance(reference, u, v)
            if hops > bound:
                return [f"edge ({u}, {v}) spans {hops} hops > {bound}"]
    return []


def _one_per_group(tree, group_of: dict[int, int], groups: int, what: str) -> list[str]:
    if sorted(group_of[p] for p in tree.nodes) != list(range(groups)):
        return [f"a tree does not hold exactly one point of every {what}"]
    return []


def dbst(instance, tuples, result, mst) -> list[str]:
    k = tuples.k
    out = _cover(result.forest, instance.points(), k)
    tuple_of = {p: i for i, g in enumerate(tuples.tuples) for p in g}
    for tree in result.forest.trees:
        out += _one_per_group(tree, tuple_of, len(tuples.tuples), "tuple")
    out += _hops(result.forest.trees, mst, factor("dbst", k))
    if result.mst_bottleneck != bottleneck(mst, instance):
        out.append("reported MST bottleneck differs from the MST's")
    if result.bottleneck != forest_bottleneck(result.forest, instance):
        out.append("reported bottleneck differs from the forest's")
    if not within(result.bottleneck, factor("dbst", k), result.mst_bottleneck):
        out.append("bottleneck exceeds (3k-2) x the MST bottleneck")
    return out


def gbst(instance, clusters, result) -> list[str]:
    cluster_of = {p: i for i, g in enumerate(clusters.clusters) for p in g}
    count = len(clusters.clusters)
    out = _one_per_group(result.tree, cluster_of, count, "cluster")
    if {cluster_of[p] for p in result.t1.nodes} != set(range(count)):
        out.append("T1 misses a cluster")
    if result.selection.selected_nodes() != sorted(result.tree.nodes):
        out.append("selected nodes differ from the tree's nodes")
    out += _hops((result.tree,), result.t1, factor("gbst", 2))
    if result.bottleneck != bottleneck(result.tree, instance):
        out.append("reported bottleneck differs from the tree's")
    if result.t1_bottleneck != bottleneck(result.t1, instance):
        out.append("reported T1 bottleneck differs from T1's")
    if not within(result.bottleneck, 3, result.t1_bottleneck):
        out.append("bottleneck exceeds 3 x the T1 bottleneck")
    return out


def pbst(instance, k: int, result, mst) -> list[str]:
    out = _cover(result.forest, instance.points(), k)
    size = instance.point_count // k
    if any(len(tree.nodes) != size for tree in result.forest.trees):
        out.append(f"parts are not all of size {size}")
    out += _hops(result.forest.trees, mst, factor("pbst", k))
    if result.mst_bottleneck != bottleneck(mst, instance):
        out.append("reported MST bottleneck differs from the MST's")
    if result.bottleneck != forest_bottleneck(result.forest, instance):
        out.append("reported bottleneck differs from the forest's")
    if not within(result.bottleneck, factor("pbst", k), result.mst_bottleneck):
        out.append("bottleneck exceeds alpha x the MST bottleneck")
    return out


def tours(instance, forest, lifted) -> list[str]:
    cycles = lifted.tour_set.tours
    if len(cycles) != len(forest.trees):
        return [f"{len(cycles)} tours for {len(forest.trees)} trees"]
    out = []
    for tree, tour in zip(forest.trees, cycles):
        if len(set(tour)) != len(tour) or set(tour) != tree.nodes:
            out.append("a tour does not visit exactly its tree's nodes once")
            continue
        for i, u in enumerate(tour):
            v = tour[(i + 1) % len(tour)]
            if hop_distance(tree, u, v) > 3:
                out.append(f"tour step ({u}, {v}) spans more than 3 tree hops")
                break
    worst = max(tour_bottleneck(t, instance) for t in cycles)
    if lifted.bottleneck != worst:
        out.append("reported tour bottleneck differs from the tours'")
    if not within(lifted.bottleneck, 3, forest_bottleneck(forest, instance)):
        out.append("tour bottleneck exceeds 3 x the forest bottleneck")
    return out


def optimum(achieved: float, optimal: float, times: float, what: str) -> list[str]:
    """An answer is feasible, so no better than the optimum, and within factor."""
    out = []
    if not within(optimal, 1, achieved):
        out.append(f"{what} {achieved!r} beats the exact optimum {optimal!r}")
    if not within(achieved, times, optimal):
        out.append(f"{what} {achieved!r} exceeds {times} x the exact optimum {optimal!r}")
    return out
