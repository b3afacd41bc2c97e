"""k disjoint bottleneck spanning trees over points partitioned into k-tuples.

The driver cuts a minimum spanning tree, while it can, at a longest edge
whose two sides hold the same number of points of every tuple.  A piece with
one point of every tuple is a tree of the answer.  A piece with j >= 2 is
carved into buckets of j nodes with small hop diameter, labelled so that
every tuple and bucket carries each of the j labels once, and wired
same-label bucket-to-parent-bucket.  Every realized edge spans at most 3j-2
hops of a piece with no edge longer than the optimum, so 3k-2 bounds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain

from .errors import AlgorithmInvariantError, DomainError, PartitionError
from .labeling import Labeling, _konig_labeling
from .metric import MetricInstance, TuplePartition, _is_int
from .trees import (
    Forest,
    Tree,
    _leaf_rooted,
    _normalize_edge,
    minimum_spanning_tree,
    split_tree_at_edge,
)


@dataclass(frozen=True)
class BucketPartition:
    """Ordered size-k buckets over a rooted tree's nodes.

    Bucket j was extracted from the subtree of its representative node; the
    parent bucket is the one holding the representative (or, when the
    representative fell into bucket j itself, the one holding its tree
    parent).  Parent indices strictly increase, so the last bucket is the
    unique sink.
    """

    buckets: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    parent_bucket: tuple[int | None, ...]


def bucketize(tree: Tree, k: int) -> BucketPartition:
    """Split a rooted tree's nodes into buckets of k, bottom-up.

    Each round picks the node v whose current subtree is smallest among
    those of size at least k (ties to the lowest id); since every child
    subtree of v then has fewer than k nodes, any two nodes under v are at
    most 2k-2 hops apart.  The bucket is filled by repeatedly removing the
    deepest leaf of v's subtree (ties to the lowest id).

    Runs in O(n k log n) time on n nodes.  The smallest such subtree always
    hangs from a node none of whose children has k nodes, so only those
    nodes are keyed in the candidate heap.  A bucket taken at v shrinks
    every ancestor of v by exactly k; that debt is carried upward only while
    ancestors fall below k and is banked at the first one that does not, so
    a node's size is exact when it enters the heap.  v's deepest-leaf heap
    is kept across repeated picks of v.
    """
    if tree.root is None:
        raise DomainError("bucketize needs a rooted tree")
    if not _is_int(k) or k < 1:
        raise DomainError(f"bucketize needs an integer k >= 1, got {k!r}")
    count = len(tree.nodes)
    if count % k != 0:
        raise PartitionError(f"node count {count} is not divisible by k={k}")

    parent, depth, order = tree._rooting
    adj = tree.adjacency
    # One pass over the preorder, children before parents, builds the child
    # sets, the big-child counts and the candidates from the tree's cached
    # subtree sizes.  size is read only while a node has k or more nodes.
    # It is exact for candidates; above a node of k or more it may still
    # count the buckets banked in owed[] below, until that node falls under k.
    kids: dict[int, set[int]] = {}
    size = dict(tree._spans[0])
    big_kids = dict.fromkeys(order, 0)
    cand: list[tuple[int, int]] = []
    for v in reversed(order):
        kids[v] = below = set(adj[v])
        s = size[v]
        p = parent[v]
        if p is not None:
            below.discard(p)
            if s >= k:
                big_kids[p] += 1
        if s >= k and not big_kids[v]:
            cand.append((s, v))
    heapify(cand)
    owed = dict.fromkeys(order, 0)
    leaf_heaps: dict[int, list[tuple[int, int]]] = {}

    buckets: list[tuple[int, ...]] = []
    reps: list[int] = []
    bucket_index: dict[int, int] = {}
    while cand:
        _, v = heappop(cand)
        leaf_heap = leaf_heaps.get(v)
        if leaf_heap is None:
            # Snapshot v's current subtree; every child subtree is below k.
            leaf_heap = []
            stack = [v]
            while stack:
                x = stack.pop()
                if kids[x]:
                    stack.extend(kids[x])
                else:
                    leaf_heap.append((-depth[x], x))
            heapify(leaf_heap)
            leaf_heaps[v] = leaf_heap
        bucket: list[int] = []
        for _ in range(k):
            _, leaf = heappop(leaf_heap)
            bucket.append(leaf)
            bucket_index[leaf] = len(buckets)
            p = parent[leaf]
            if p is not None:
                kids[p].remove(leaf)
                if leaf != v and not kids[p]:
                    heappush(leaf_heap, (-depth[p], p))
        buckets.append(tuple(bucket))
        reps.append(v)
        size[v] -= k
        owed[v] += k
        if size[v] >= k:
            heappush(cand, (size[v], v))
            continue
        del leaf_heaps[v]
        # v left the candidates: carry its debt up past every ancestor that
        # falls below k, and bank it at the first one that does not.
        debt = owed[v]
        u = parent[v]
        while u is not None:
            size[u] -= debt
            big_kids[u] -= 1
            if size[u] >= k:
                owed[u] += debt
                if not big_kids[u]:
                    heappush(cand, (size[u], u))
                break
            debt += owed[u]
            u = parent[u]
    if len(buckets) * k != count:
        raise AlgorithmInvariantError(f"buckets cover {len(buckets) * k} of {count} nodes")

    parents: list[int | None] = []
    for j, v in enumerate(reps):
        if bucket_index[v] != j:
            parents.append(bucket_index[v])
        else:
            pv = parent[v]
            parents.append(bucket_index[pv] if pv is not None else None)
    for j, pj in enumerate(parents[:-1]):
        if pj is None or pj <= j:
            raise AlgorithmInvariantError(f"bucket {j} has no later parent bucket (got {pj})")
    if parents[-1] is not None:
        raise AlgorithmInvariantError("the final bucket must be the parent-chain sink")
    return BucketPartition(tuple(buckets), tuple(reps), tuple(parents))


def forest_from_tree(
    tree: Tree, tuples: TuplePartition
) -> tuple[Forest, BucketPartition, Labeling]:
    """Buckets, labels, and the k wired trees for a rooted tree.

    The tree's nodes must be exactly the partition's universe.  Tree c
    collects the label-c point of each bucket; each non-final bucket's point
    connects to the same label in its parent bucket, and the final bucket
    holds the k roots.
    """
    if tree.nodes != frozenset(range(tuples.point_count)):
        raise PartitionError("tree nodes must be exactly the tuple partition's points")
    trees, bp, lab = _wire(tree, tuples.tuples, tuples.k)
    return Forest(trees), bp, lab


def _wire(tree: Tree, groups, k: int) -> tuple[tuple[Tree, ...], BucketPartition, Labeling]:
    """forest_from_tree's core, for valid k-point groups over the tree's nodes.

    The trees are trees by construction, so none is checked for structure.
    Once every bucket holds every label once (checked below), each label's
    wiring is a copy of the bucket tree, whose parent indices `bucketize`
    checks to strictly increase towards the one sink: m nodes, m - 1 edges,
    no cycle.  A labeling or wiring bug raises AlgorithmInvariantError.
    """
    bp = bucketize(tree, k)
    # The groups were validated when the partition was built, and bucketize
    # checks that its buckets cover the tree's nodes k at a time.
    lab = _konig_labeling(groups, bp.buckets, k)
    labels = lab.labels
    slot = [[-1] * k for _ in bp.buckets]
    for row, bucket in zip(slot, bp.buckets):
        for p in bucket:
            row[labels[p]] = p
    for j, row in enumerate(slot):
        if -1 in row:
            raise AlgorithmInvariantError(f"bucket {j} does not hold every label once")
    # Column c holds each bucket's label-c point; bucket j's links to the
    # one in bucket parent_bucket[j], for every bucket but the final one.
    up = bp.parent_bucket[:-1]
    trees = tuple(
        Tree._from_valid(
            frozenset(col), tuple(map(_normalize_edge, col, map(col.__getitem__, up))), col[-1]
        )
        for col in zip(*slot)
    )
    return trees, bp, lab


def _balanced_cut(tree: Tree, length: dict, groups) -> tuple[int, int] | None:
    """The first longest edge, in edge order, whose sides hold equally many
    points of every group (a tuple cut down to the tree), else None.  Only
    edges whose lower subtree holds a multiple of len(groups) are tallied."""
    parent, size = tree._rooting[0], tree._spans[0]
    top, m = max(map(length.__getitem__, tree.edges)), len(groups)
    for u, v in tree.edges:
        low = u if parent[u] == v else v
        if length[u, v] == top and size[low] % m == 0:
            below = set(tree._below(low))
            if all(len(below.intersection(g)) == size[low] // m for g in groups):
                return u, v
    return None


@dataclass(frozen=True)
class DbstResult:
    """The k trees; `labels[p]` is the index of point p's tree in `forest.trees`.
    `shortcut` says whether the MST was cut; `buckets` is the whole MST's
    bucket partition if it was not, else None."""

    forest: Forest
    bottleneck: float
    mst: Tree
    mst_bottleneck: float
    labels: tuple[int, ...]
    shortcut: bool
    buckets: BucketPartition | None


def solve_dbst(instance: MetricInstance, tuples: TuplePartition) -> DbstResult:
    """k node-disjoint trees, one point of every tuple each, within 3k-2 of the optimum.

    The leaf-rooted MST is cut at its first longest edge, in edge order, whose
    sides hold the same number j >= 1 of points of every tuple; each side is
    cut the same way, u-side first.  An MST edge longer than the optimum
    joins unions of whole optimal trees, so it is such an edge.  A piece with
    j = 1 is a tree of the answer; one with j >= 2 is bucketed and wired into
    j trees.  For k = 2 only a half-size side balances, and that cut is optimal.
    """
    if instance.point_count != tuples.point_count:
        raise PartitionError(
            f"instance has {instance.point_count} points but the tuples cover "
            f"{tuples.point_count}"
        )
    mst = minimum_spanning_tree(instance, instance.points())
    length = dict(zip(mst.edges, instance._lengths(mst.edges)))
    trees: list[Tree] = []
    shortcut, bp = False, None
    todo = [(mst, tuples.tuples)]  # pieces and their tuples' points; u-sides pop first
    while todo:
        piece, groups = todo.pop()
        if len(groups[0]) == 1:
            trees.append(piece)
            continue
        piece = _leaf_rooted(piece)
        cut = _balanced_cut(piece, length, groups)
        if cut is None:
            wired, bp, _ = _wire(piece, groups, len(groups[0]))
            trees += wired
            continue
        shortcut = True
        for side in split_tree_at_edge(piece, cut)[::-1]:
            todo.append((side, tuple(tuple(p for p in g if p in side.nodes) for g in groups)))
    label = {p: c for c, t in enumerate(trees) for p in t.nodes}
    # Every tree holds one point of each tuple, so all or none have edges,
    # and the largest of all their lengths is forest_bottleneck's answer.
    edges = chain.from_iterable(t.edges for t in trees)
    return DbstResult(
        forest=Forest(tuple(trees)),
        bottleneck=max(instance._lengths(edges), default=0.0),
        mst=mst,
        mst_bottleneck=max(length.values()),
        labels=tuple(map(label.__getitem__, instance.points())),
        shortcut=shortcut,
        buckets=None if shortcut else bp,
    )
