"""Complete systems of representatives and k-label colorings.

Two partitions of the same kn-element set into n groups of size k always
admit a system picking one shared element per group pair (a classical result
of Konig; Hall's marriage theorem gives the matching).  Repeating the
extraction k-1 times labels every element so that each group of either
partition carries all k labels exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgorithmInvariantError, PartitionError
from .metric import _disjoint_union, _id_groups

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
    return a, b, size


def _maximum_matching(adj: list[list[int]], n_right: int) -> list[int]:
    """Hopcroft-Karp matching of left vertices to right vertices.

    Deterministic: adjacency lists are scanned in order, phases use plain
    list queues, and augmenting DFS is iterative so deep layered graphs are
    fine.  Returns match_left (-1 where unmatched).
    """
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
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
    return _representatives(a, b)


def _representatives(a, b) -> tuple[list[int], list[int]]:
    """representatives() on groups already known to form a double partition."""
    n = len(a)
    b_index: dict[int, int] = {}
    for j, g in enumerate(b):
        for p in g:
            b_index[p] = j
    adj = [sorted({b_index[p] for p in g}) for g in a]
    match = _maximum_matching(adj, n)
    if any(m == -1 for m in match):
        raise AlgorithmInvariantError(
            "no perfect matching between the group families; "
            "the double-partition validation must have let something through"
        )
    reps = [min(p for p in a[i] if b_index[p] == match[i]) for i in range(n)]
    return reps, list(match)


def konig_labeling(a_groups, b_groups, k: int) -> Labeling:
    """Label every element with 0..k-1, all labels distinct inside each group.

    Runs k-1 rounds: extract a system of representatives, give it the round's
    label, remove it, and continue on the shrunken partitions.  The leftover
    singletons take the final label.
    """
    a, b, size = _validate_double_partition(a_groups, b_groups)
    if size != k:
        raise PartitionError(f"groups have size {size}, expected k={k}")
    labels: dict[int, int] = {}
    cur_a = [list(g) for g in a]
    cur_b = [list(g) for g in b]
    # Each round's residual groups are checked below to keep a uniform size,
    # so they stay a double partition and need no validation again.
    for label in range(k - 1):
        reps, _ = _representatives(cur_a, cur_b)
        rep_set = set(reps)
        if len(rep_set) != len(reps):
            raise AlgorithmInvariantError("representatives are not distinct")
        for p in rep_set:
            labels[p] = label
        cur_a = [[p for p in g if p not in rep_set] for g in cur_a]
        cur_b = [[p for p in g if p not in rep_set] for g in cur_b]
        want = k - label - 1
        if any(len(g) != want for g in cur_a) or any(len(g) != want for g in cur_b):
            raise AlgorithmInvariantError("residual groups lost uniform size")
    for g in cur_a:
        labels[g[0]] = k - 1
    return Labeling(labels=labels, k=k)


def is_valid_labeling(labeling: Labeling, a_groups, b_groups) -> bool:
    """True iff every group of either partition carries all k labels once."""
    a, b, size = _validate_double_partition(a_groups, b_groups)
    if size != labeling.k:
        return False
    full = set(range(labeling.k))
    for g in list(a) + list(b):
        try:
            got = {labeling.labels[p] for p in g}
        except KeyError:
            return False
        if got != full:
            return False
    return True
