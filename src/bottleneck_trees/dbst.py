"""k disjoint bottleneck spanning trees over points partitioned into k-tuples.

The driver cuts a minimum spanning tree, while it can, at a longest edge
whose two sides hold the same number of points of every tuple.  Balance is
per edge: every piece cut off holds the same number of points of every
tuple, so an edge is balanced in its piece exactly when it is balanced in
the whole tree.  Each piece's first balanced longest edge, in edge order,
is its last edge in (length, balanced, -index) order, so the cuts are one
`trees._pieces` sweep in that order.  A piece with one point of every
tuple is a tree of the answer.  A piece with j >= 2 is carved into buckets
of j nodes with small hop diameter, labelled so that every tuple and
bucket carries each of the j labels once, and wired same-label
bucket-to-parent-bucket.  Every realized edge spans at most 3j-2 hops of a
piece with no edge longer than the optimum, so 3k-2 bounds it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain

from .errors import AlgorithmInvariantError, DomainError, PartitionError
from .labeling import Labeling, _konig_labeling
from .metric import MetricInstance, TuplePartition, _is_int
from .trees import Forest, Tree, _leaf_rooted, _mst, _normalize_edge, _pieces


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

    Runs in O(n log n) time on n nodes.  The smallest such subtree always
    hangs from a node none of whose children has k nodes, so only those
    nodes are keyed in the candidate heap.  Until v is picked, its subtree
    has lost whole buckets from below only, so each child keeps its size
    mod k and v's size at the pick is known before the first pick.  Each
    bucket taken at v leaves v the smallest candidate, so v gives all its
    size // k buckets at once.  The deepest node left in a subtree is a
    leaf, so removing the deepest leaf again and again takes v's subtree in
    (-depth, id) order: one sort per pick.
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
    # sets, each node's size at its pick, the counts of children whose whole
    # subtree holds k nodes, and the first candidates.  A node's subtree
    # holds k nodes exactly when its size at the pick does or a child's does.
    kids: dict[int, set[int]] = {}
    size = dict.fromkeys(order, 1)
    big_kids = dict.fromkeys(order, 0)
    cand: list[tuple[int, int]] = []
    for v in reversed(order):
        kids[v] = below = set(adj[v])
        s = size[v]
        if s >= k and not big_kids[v]:
            cand.append((s, v))
        p = parent[v]
        if p is not None:
            below.discard(p)
            size[p] += s % k
            if s >= k or big_kids[v]:
                big_kids[p] += 1
    heapify(cand)

    buckets: list[tuple[int, ...]] = []
    reps: list[int] = []
    bucket_index: dict[int, int] = {}
    while cand:
        _, v = heappop(cand)
        # Snapshot v's current subtree of size[v] nodes, deepest first.
        snap: list[tuple[int, int]] = []
        stack = [v]
        while stack:
            x = stack.pop()
            stack.extend(kids[x])
            snap.append((-depth[x], x))
        snap.sort()
        taken = [x for _, x in snap[: size[v] - size[v] % k]]
        for i in range(0, len(taken), k):
            bucket = tuple(taken[i : i + k])
            for x in bucket:
                bucket_index[x] = len(buckets)
                p = parent[x]
                if p is not None:
                    kids[p].remove(x)
            buckets.append(bucket)
            reps.append(v)
        # v fell below k: every ancestor that now has no child of k nodes
        # either becomes a candidate or falls below k itself.
        u = parent[v]
        while u is not None:
            big_kids[u] -= 1
            if big_kids[u]:
                break
            if size[u] >= k:
                heappush(cand, (size[u], u))
                break
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
    return Forest._from_valid(trees), bp, lab


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
    cut the same way, u-side first.  Each edge's balance is read once, from
    the whole MST: the lower end's subtree fills a run of preorder slots, so
    a tuple's count below is two bisections of its sorted slots.  Then
    `trees._pieces` makes every cut.  An MST edge longer than the optimum
    joins unions of whole optimal trees, so it is such an edge.  A piece
    with j = 1 is a tree of the answer; one with j >= 2 is bucketed and
    wired into j trees.  For k = 2 only a half-size side balances, and that
    cut is optimal.
    """
    if instance.point_count != tuples.point_count:
        raise PartitionError(
            f"instance has {instance.point_count} points but the tuples cover "
            f"{tuples.point_count}"
        )
    mst = _mst(instance, list(instance.points()))
    rooted = _leaf_rooted(mst)
    length = instance._lengths(mst.edges)
    groups, m = tuples.tuples, tuples.group_count
    size, start = rooted._spans
    slots = [sorted(map(start.__getitem__, g)) for g in groups]

    def is_balanced(u: int, v: int) -> bool:  # the lower end has the smaller subtree
        low = u if size[u] < size[v] else v
        c, r = divmod(size[low], m)
        lo, hi = start[low], start[low] + size[low]
        return not r and all(bisect_left(s, hi) - bisect_left(s, lo) == c for s in slots)

    balanced = [is_balanced(u, v) for u, v in mst.edges]
    pieces = _pieces(rooted, lambda i: (length[i], balanced[i], -i), balanced.__getitem__)
    cut = len(pieces) > 1
    trees: list[Tree] = []
    label = [0] * instance.point_count  # point -> index of its tree in `trees`
    bp = None
    for piece in pieces:
        j = len(piece.nodes) // m
        if j == 1:
            for p in piece.nodes:
                label[p] = len(trees)
            trees.append(piece)
        else:
            part = tuple(tuple(p for p in g if p in piece.nodes) for g in groups) if cut else groups
            wired, bp, lab = _wire(_leaf_rooted(piece), part, j)
            for p, c in lab.labels.items():  # the label-c tree is wired[c]
                label[p] = len(trees) + c
            trees += wired
    # Every tree holds one point of each tuple, so all or none have edges,
    # and the largest of all their lengths is forest_bottleneck's answer.
    edges = chain.from_iterable(t.edges for t in trees)
    return DbstResult(
        forest=Forest._from_valid(tuple(trees)),
        bottleneck=max(instance._lengths(edges), default=0.0),
        mst=mst,
        mst_bottleneck=max(length),
        labels=tuple(label),
        shortcut=cut,
        buckets=None if cut else bp,
    )
