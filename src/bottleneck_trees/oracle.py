"""Exhaustive optimal solvers for tiny instances, used as ground truth.

Every oracle enforces a hard size cap and raises rather than truncating:
an approximate oracle is worthless as a baseline.  A group of points is
connectable with edges up to d exactly when it is connected in the graph of
all pairs at distance <= d, so group quality is measured by that threshold:
the group's minimum spanning tree bottleneck, read off the package's one MST
kernel (`trees._mst_triples`).  `exact_pbst` and the lower bound of
`exact_gbst` read one local table of distances, and `exact_bottleneck_tour`
scores each candidate tour with `tours.tour_bottleneck`; no oracle calls the
checked `MetricInstance.distance`.  Their lower bounds sweep the table's
pairs through `trees._merges`, the package's one union-find.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import permutations, product
from math import factorial, inf

from .errors import DomainError, OracleSizeError, PartitionError
from .gbst import _cover
from .metric import ClusterPartition, MetricInstance, TuplePartition, _is_int
from .tours import tour_bottleneck
from .trees import Forest, Tree, _merges, _mst_triples, minimum_spanning_tree


def _threshold(instance: MetricInstance, points: list[int]) -> float:
    """Smallest possible largest edge of a spanning tree on sorted, checked points."""
    triples = _mst_triples(instance, points)
    return triples[-1][0] if triples else 0.0


def exact_dbst(
    instance: MetricInstance, tuples: TuplePartition
) -> tuple[Forest, float]:
    """Optimal k disjoint trees by enumerating tuple-to-tree assignments.

    The first tuple's assignment is pinned to kill the k! tree-relabeling
    symmetry; capped at n <= 6 tuples and (k!)^(n-1) <= 14,400 assignments,
    so k = 4 and 5 run up to n = 4 and 3, and every k <= 3 case runs.
    """
    k, n = tuples.k, tuples.group_count
    if n > 6 or factorial(k) ** (n - 1) > 14_400:
        raise OracleSizeError(f"exact_dbst is capped at n<=6, (k!)^(n-1)<=14400 (got k={k}, n={n})")
    if instance.point_count != tuples.point_count:
        raise PartitionError("tuples do not cover exactly the instance's points")

    @cache
    def threshold(group: tuple[int, ...]) -> float:
        return _threshold(instance, list(group))

    identity = tuple(range(k))
    best_value: float | None = None
    best_groups: list[list[int]] | None = None
    for perms in product(permutations(range(k)), repeat=n - 1):
        assignment = (identity,) + perms
        groups: list[list[int]] = [[] for _ in range(k)]
        for members, perm in zip(tuples.tuples, assignment):
            for pos, tree_idx in enumerate(perm):
                groups[tree_idx].append(members[pos])
        value = max(threshold(tuple(sorted(g))) for g in groups)
        if best_value is None or value < best_value:
            best_value, best_groups = value, groups
    assert best_groups is not None and best_value is not None
    forest = Forest(tuple(minimum_spanning_tree(instance, g) for g in best_groups))
    return forest, best_value


def exact_gbst(
    instance: MetricInstance, clusters: ClusterPartition
) -> tuple[Tree, float]:
    """Optimal cluster-spanning tree by enumerating representative choices.

    The first choice with the smallest threshold wins.  No choice is below
    `_cover_bound`, so the enumeration stops at a choice that reaches it.
    """
    if len(clusters.clusters) > 12:
        raise OracleSizeError(
            f"exact_gbst is capped at 12 clusters (got {len(clusters.clusters)})"
        )
    if clusters.max_size() > 2:
        raise PartitionError("exact_gbst handles clusters of size at most 2")
    clusters.check_covers(instance)
    bound = _cover_bound(_table(instance), clusters.clusters)
    best_value: float | None = None
    best_choice: tuple[int, ...] | None = None
    for choice in product(*clusters.clusters):
        value = _threshold(instance, sorted(choice))
        if best_value is None or value < best_value:
            best_value, best_choice = value, choice
            if value <= bound:  # no later choice can be strictly better
                break
    assert best_choice is not None and best_value is not None
    return minimum_spanning_tree(instance, best_choice), best_value


def _table(instance: MetricInstance) -> list[list[float]]:
    """Every distance, table[u][v] = d(u, v), read once."""
    points = instance.points()
    return [instance._lengths([(u, v) for v in points]) for u in points]


def _pairs(table: list[list[float]]) -> list[tuple[float, int, int]]:
    """Every pair (min(table[u][v], table[v][u]), u, v) with u < v, ascending."""
    total = len(table)
    return sorted(
        (min(table[u][v], table[v][u]), u, v) for u in range(total) for v in range(u + 1, total)
    )


def _multiple_bound(table: list[list[float]], n: int) -> float:
    """Smallest d at which every component of the pairs within d holds a multiple of n.

    A pair u, v is within d when min(table[u][v], table[v][u]) <= d.  Every
    group of a partition feasible at d lies in one such component, so the
    components are unions of groups: no d below this bound is feasible.
    It is -inf when the single points already qualify (n = 1).
    """
    total = len(table)
    size = [1] * total
    uneven = total if n > 1 else 0  # components whose size is not a multiple of n
    bound = -inf
    for d, ru, rv in _merges(_pairs(table), range(total)):
        if not uneven:
            break
        uneven -= (size[ru] % n > 0) + (size[rv] % n > 0)
        size[ru] += size[rv]
        uneven += size[ru] % n > 0
        bound = d
    return bound


def _cover_bound(table: list[list[float]], clusters: tuple[tuple[int, ...], ...]) -> float:
    """Smallest d at which some component of the pairs within d meets every cluster.

    This is T1's threshold: `gbst._cover` runs the same test on the pairs
    that `build_t1` runs on the MST's edges.  An optimal tree's edges are
    within OPT, so its points lie in one such component at OPT: the bound
    is at most OPT.  It is -inf when one cluster is all there is.
    """
    if len(clusters) == 1:
        return -inf
    return _cover(_pairs(table), clusters)[0]


def exact_pbst(instance: MetricInstance, k: int) -> tuple[Forest, float]:
    """Optimal k equal trees via a threshold search over pairwise distances.

    A partition achieves bottleneck <= d iff each group is connected among
    edges of length <= d, which is monotone in d; the smallest feasible
    candidate distance is found by bisection from `_multiple_bound`, below
    which no candidate is feasible, with feasibility decided by a
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
    table = _table(instance)
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
            free = unassigned - banned - set(group)
            pick = min((y for x in group for y in adj[x] if y in free), default=None)
            if pick is None:
                return False
            if grow(group + [pick], banned):
                return True
            return grow(group, banned | {pick})

        def next_group() -> bool:
            leader = min(unassigned)
            return grow([leader], set())

        if next_group():
            return groups
        return None

    lo, hi = bisect_left(candidates, _multiple_bound(table, n)), len(candidates) - 1
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


def exact_bottleneck_tour(
    instance: MetricInstance, subset
) -> tuple[tuple[int, ...], float]:
    """Optimal bottleneck cycle over all tours of the subset.

    The first point is pinned and each direction counted once; each
    candidate tour is scored with `tour_bottleneck`.  Capped at 9 points.
    """
    ids = list(subset)
    instance._check_ids(ids)
    pts = sorted(set(ids))
    if len(pts) < 3:
        raise DomainError("a tour needs at least three points")
    if len(pts) > 9:
        raise OracleSizeError(f"exact_bottleneck_tour is capped at 9 points (got {len(pts)})")
    first = pts[0]
    best_tour: tuple[int, ...] | None = None
    best_value: float | None = None
    for perm in permutations(pts[1:]):
        if perm[0] > perm[-1]:
            continue
        tour = (first,) + perm
        value = tour_bottleneck(tour, instance)
        if best_value is None or value < best_value:
            best_value, best_tour = value, tour
    assert best_tour is not None and best_value is not None
    return best_tour, best_value
