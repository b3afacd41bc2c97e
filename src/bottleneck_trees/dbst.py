"""k disjoint bottleneck spanning trees over points partitioned into k-tuples.

The driver computes a minimum spanning tree, carves its nodes into buckets of
size k with small internal hop diameter, labels points so that every tuple
and every bucket carries each of the k labels once, and wires same-label
points bucket-to-parent-bucket.  Every realized edge then spans at most
3k-2 tree hops, which bounds its length by (3k-2) times the tree bottleneck.
For k=2 an optimal shortcut applies when some longest-edge split of the tree
separates every tuple.
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
    # sets, the subtree sizes, the big-child counts and the candidates.
    # size is read only while a node has k or more nodes.  It is exact for
    # candidates; above a node of k or more it may still count the buckets
    # banked in owed[] below, until that node falls under k.
    kids: dict[int, set[int]] = {}
    size = dict.fromkeys(order, 1)
    big_kids = dict.fromkeys(order, 0)
    cand: list[tuple[int, int]] = []
    for v in reversed(order):
        kids[v] = below = set(adj[v])
        s = size[v]
        p = parent[v]
        if p is not None:
            below.discard(p)
            size[p] += s
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

    The trees are trees by construction, so none is checked for structure.
    Once every bucket holds every label once (checked below), each label's
    wiring is a copy of the bucket tree, whose parent indices `bucketize`
    checks to strictly increase towards the one sink: m nodes, m - 1 edges,
    no cycle.  A labeling or wiring bug raises AlgorithmInvariantError.
    """
    k = tuples.k
    if tree.nodes != frozenset(range(tuples.point_count)):
        raise PartitionError("tree nodes must be exactly the tuple partition's points")
    bp = bucketize(tree, k)
    # The tuples were validated when the partition was built, and bucketize
    # checks that its buckets cover the tree's nodes k at a time.
    lab = _konig_labeling(tuples.tuples, bp.buckets, k)
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
    return Forest(trees), bp, lab


@dataclass(frozen=True)
class DbstResult:
    forest: Forest
    bottleneck: float
    mst: Tree
    mst_bottleneck: float
    labels: tuple[int, ...]
    shortcut: bool
    buckets: BucketPartition | None


def solve_dbst(instance: MetricInstance, tuples: TuplePartition) -> DbstResult:
    """k node-disjoint trees, one point of every tuple each.

    For k=2 the achieved bottleneck is at most 4 times the optimum, and if
    removing a longest tree edge leaves every tuple with one point per side,
    the two sides themselves are returned (and are optimal).  For k >= 3 the
    3k-2 bound fails: MST edges between separated groups of whole tuples are
    bucketed too (199.0 against an optimum of 1.0 on the points 0, 100,
    200, 1, 101, 201 with tuples (0, 1, 2) and (3, 4, 5)).
    """
    k = tuples.k
    if instance.point_count != tuples.point_count:
        raise PartitionError(
            f"instance has {instance.point_count} points but the tuples cover "
            f"{tuples.point_count}"
        )
    mst = minimum_spanning_tree(instance, instance.points())
    mst_bot = max(instance._lengths(mst.edges))

    rooted = _leaf_rooted(mst)
    forest = bp = None
    if k == 2:
        # A side with one point of every pair holds half the points.  Only
        # the edge above a half-size subtree cuts off such a side, and a tree
        # has at most one: two would leave an empty part between them.
        size = rooted._spans[0]
        cut = [_normalize_edge(v, rooted.parent_map[v]) for v in size if 2 * size[v] == len(size)]
        if cut and instance._lengths(cut) == [mst_bot]:
            side_u, side_v = split_tree_at_edge(rooted, cut[0])
            if all(len(side_u.nodes & set(t)) == 1 for t in tuples.tuples):
                forest = Forest((side_u, side_v))
                labels = tuple(0 if p in side_u.nodes else 1 for p in instance.points())
    if forest is None:
        forest, bp, lab = forest_from_tree(rooted, tuples)
        labels = tuple(lab.labels[p] for p in instance.points())
    # Every tree holds one point of each tuple, so all or none have edges,
    # and the largest of all their lengths is forest_bottleneck's answer.
    edges = chain.from_iterable(t.edges for t in forest.trees)
    return DbstResult(
        forest=forest,
        bottleneck=max(instance._lengths(edges), default=0.0),
        mst=mst,
        mst_bottleneck=mst_bot,
        labels=labels,
        shortcut=bp is None,
        buckets=bp,
    )
