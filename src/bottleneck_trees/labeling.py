"""Complete systems of representatives and k-label colorings.

Two partitions of the same kn-element set into n groups of size k always
admit a system picking one shared element per group pair (a classical result
of Konig; Hall's marriage theorem gives the matching).  Repeating the
extraction k-1 times labels every element so that each group of either
partition carries all k labels exactly once.  Both run on one engine: the
points each pair of groups shares are listed once, and every round pops
one system of representatives off those lists.  A round's matching starts
with Hopcroft-Karp's first phase, a greedy pass, and often ends there."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgorithmInvariantError, DomainError, PartitionError
from .metric import _disjoint_union, _id_groups, _is_int

_INF = float("inf")


@dataclass(frozen=True)
class Labeling:
    """Assignment of a label in 0..k-1 to every element of the universe."""

    labels: dict[int, int]
    k: int


def _validate_double_partition(a_groups, b_groups):
    a = _id_groups(a_groups, "first partition")
    b = _id_groups(b_groups, "second partition")
    if not a or not b:
        raise PartitionError("both partitions must contain at least one group")
    if len(a) != len(b):
        raise PartitionError("both partitions must have the same number of groups")
    size = len(a[0])
    if any(len(g) != size for g in a):
        raise PartitionError("first partition has groups of unequal size")
    universe = _disjoint_union(a, "first partition group")
    if any(len(g) != size for g in b):
        raise PartitionError("second partition has groups of unequal size")
    if _disjoint_union(b, "second partition group") != universe:
        raise PartitionError("the two partitions must cover the same universe")
    if size == 0:
        raise PartitionError("partition groups must hold at least one point")
    return a, b, size


def _maximum_matching(adj: list[list[int]], n_right: int) -> list[int]:
    """Hopcroft-Karp matching of left vertices to right vertices.

    Deterministic: adjacency lists are scanned in order, phases use plain
    list queues, and augmenting DFS is iterative so deep layered graphs are
    fine.  Returns match_left (-1 where unmatched).  The first phase, with
    every left vertex free, gives each in turn its first free neighbour: it
    runs as that greedy pass, which ends the search if it matches them all.
    """
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if match_r[v] == -1:
                match_l[u] = v
                match_r[v] = u
                break
    if -1 not in match_l:
        return match_l
    dist = [0.0] * n_left

    def bfs_phase() -> bool:
        queue = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        reachable_free = False
        i = 0
        while i < len(queue):
            u = queue[i]
            i += 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return reachable_free

    def dfs_augment(u0: int) -> bool:
        stack: list[tuple[int, int]] = [(u0, 0)]
        via: dict[int, tuple[int, int]] = {u0: (-1, -1)}
        while stack:
            u, i = stack.pop()
            if i >= len(adj[u]):
                dist[u] = _INF
                continue
            stack.append((u, i + 1))
            v = adj[u][i]
            w = match_r[v]
            if w == -1:
                match_l[u] = v
                match_r[v] = u
                while via[u] != (-1, -1):
                    pu, pv = via[u]
                    match_l[pu] = pv
                    match_r[pv] = pu
                    u = pu
                return True
            if dist[w] == dist[u] + 1 and w not in via:
                via[w] = (u, v)
                stack.append((w, 0))
        return False

    while bfs_phase():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs_augment(u)
    return match_l


def representatives(a_groups, b_groups) -> tuple[list[int], list[int]]:
    """One element per group, shared between the two partitions.

    Returns (reps, pi) with reps[i] in a_groups[i] and in b_groups[pi[i]];
    pi is a permutation of the group indices.  Among the elements a matched
    group pair shares, the lowest id is chosen.
    """
    a, b, _ = _validate_double_partition(a_groups, b_groups)
    return _round(_shared(a, b))


def _shared(a, b) -> list[dict[int, list[int]]]:
    """Per a-group: each b-group it meets, ascending, to their shared points, descending."""
    a_of = {p: i for i, g in enumerate(a) for p in g}
    shared: list[dict[int, list[int]]] = [{} for _ in a]
    for j, g in enumerate(b):  # b-groups in ascending order, so every dict's keys ascend
        for p in sorted(g, reverse=True):
            shared[a_of[p]].setdefault(j, []).append(p)
    return shared


def _round(shared: list[dict[int, list[int]]]) -> tuple[list[int], list[int]]:
    """One system of representatives, (reps, pi) as representatives() gives them.

    Each a-group is matched to a b-group it meets and pops its lowest point
    there; an emptied list is dropped, so `shared` keeps the residual groups.
    """
    match = _maximum_matching([list(s) for s in shared], len(shared))
    if -1 in match or len(set(match)) != len(match):
        raise AlgorithmInvariantError("no perfect matching between the group families")
    reps = [s[j].pop() if len(s[j]) > 1 else s.pop(j)[0] for s, j in zip(shared, match)]
    return reps, match


def konig_labeling(a_groups, b_groups, k: int) -> Labeling:
    """Label every element with 0..k-1, all labels distinct inside each group.

    Runs k-1 rounds: extract a system of representatives, give it the round's
    label, remove it, and continue on the shrunken partitions.  The leftover
    singletons take the final label.
    """
    a, b, size = _validate_double_partition(a_groups, b_groups)
    if not _is_int(k):
        raise DomainError(f"konig_labeling needs an integer k, got {k!r}")
    if size != k:
        raise PartitionError(f"groups have size {size}, expected k={k}")
    return _konig_labeling(a, b, k)


def _konig_labeling(a, b, k: int) -> Labeling:
    """konig_labeling() on a double partition of size-k groups known to be valid.

    The labels do not depend on the order of points inside a group: an
    a-group's representative is its lowest point in the matched b-group.
    A perfect, injective matching takes one point from every group of both
    partitions, so the residual shared lists stay a double partition of
    uniform size, and a round costs O(m + matching) on m groups, not O(n).
    After k-1 rounds each a-group's one leftover point takes label k-1.
    """
    shared = _shared(a, b)
    labels: dict[int, int] = {}
    for label in range(k - 1):
        reps, _ = _round(shared)
        for p in set(reps):  # set order: the dict iterates as it always has
            labels[p] = label
    labels.update((p, k - 1) for s in shared for (p,) in s.values())  # in a-group order
    return Labeling(labels=labels, k=k)


def is_valid_labeling(labeling: Labeling, a_groups, b_groups) -> bool:
    """True iff every group of either partition carries all k labels once."""
    a, b, size = _validate_double_partition(a_groups, b_groups)
    if size != labeling.k:
        return False
    full, get = set(range(size)), labeling.labels.get  # a missing point reads None
    return all({get(p) for p in g} == full for g in (*a, *b))
