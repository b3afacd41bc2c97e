"""Partitioning kn points into k equally sized trees with short edges.

The partitioning routines at the heart of this module carve a given tree
into k disjoint trees of exactly n nodes whose edges span at most 2 hops in
the source tree for k in {2, 3} and at most 3 hops for k >= 4 (both bounds
are tight).  The metric solver builds one minimum spanning tree per solve and
first cuts it at longest edges whose sides both hold multiples of n points;
each side of such a cut is the MST of its own points.  One sweep of
`trees._merges`, the package's one union-find, over the MST's edges decides
every cut, and the partitions then run on the components left whole.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

from .errors import AlgorithmInvariantError, DomainError, PartitionError
from .metric import MetricInstance, _is_int
from .trees import (
    Forest,
    Tree,
    _leaf_rooted,
    _merges,
    cube_hamiltonian_path_between,
    minimum_spanning_tree,
)


def _edges_within(edges, nodes) -> tuple[tuple[int, int], ...]:
    return tuple(e for e in edges if e[0] in nodes and e[1] in nodes)


def _cut(t: Tree, v: int) -> tuple[Tree, Tree]:
    """The subtree of t at v, rooted at v, and the rest of t."""
    below = frozenset(t._below(v))
    rest = t.nodes - below
    return (
        Tree._from_valid(below, _edges_within(t.edges, below), v),
        Tree._from_valid(rest, _edges_within(t.edges, rest), t.root),
    )


def _branches(t: Tree, x: int) -> list[tuple[int, set[int], tuple[tuple[int, int], ...]]]:
    """(u, nodes, edges) of the subtree at each child u of x, u ascending.

    Each subtree is a slice of t's preorder; one pass over t's edges, which
    keep their order, sorts them into the subtrees.
    """
    parent = t.parent_map[x]
    children = [u for u in t.adjacency[x] if u != parent]
    top = {y: u for u in children for y in t._below(u)}
    inner: dict[int, list[tuple[int, int]]] = {u: [] for u in children}
    for e in t.edges:
        u = top.get(e[0])
        if u is not None and top.get(e[1]) == u:
            inner[u].append(e)
    return [(u, set(t._below(u)), tuple(inner[u])) for u in children]


def _hang(t: Tree, x: int, branch) -> Tree:
    """The branch (u, nodes, edges) of t below x with x hung on top as its root."""
    u, below, inner = branch
    return Tree._wired(below | {x}, inner + ((x, u),), x, t)


def _regraft(edges, nodes, keep: Tree | None) -> tuple[tuple[int, int], ...]:
    """The edges inside `nodes`, with those inside `keep` swapped for keep's own.

    The surviving edges keep their order; keep's edges go last.
    """
    if keep is None:
        return _edges_within(edges, nodes)
    inner = keep.nodes
    kept = (e for e in _edges_within(edges, nodes) if not (e[0] in inner and e[1] in inner))
    return (*kept, *keep.edges)


def _peel(t: Tree, x: int, branches, n: int) -> tuple[Tree, Tree, Tree, int]:
    """Peel a tree of n nodes off the children of x, whose subtree has more.

    `branches` are x's child subtrees as `_branches` gives them, in the order
    taken.  branches[:j] is the longest prefix that holds fewer than n nodes.
    The piece takes those subtrees whole and completes them with the part
    that a two-way split gives away of branches[j], with x hung on top;
    every branches[:j] child links to branches[j]'s, the piece's root.  The
    other part of that split, `keep`, holds x and is regrafted into the rest
    of t in place of the edges it replaces.  Returns (piece, rest, keep, j).
    """
    acc = j = 0
    while acc + len(branches[j][1]) < n:
        acc += len(branches[j][1])
        j += 1
    uj = branches[j][0]
    hung = _hang(t, x, branches[j])
    keep, give = partition_two(hung, len(hung.nodes) - (n - acc))
    lead = set().union(*(below for _, below, _ in branches[:j]))
    links = tuple((u, uj) for u, _, _ in branches[:j])
    piece_edges = _edges_within(t.edges, lead) + give.edges + links
    piece = Tree._wired(lead | give.nodes, piece_edges, uj, t)
    rest_nodes = t.nodes - piece.nodes
    rest = Tree._wired(rest_nodes, _regraft(t.edges, rest_nodes, keep), t.root, t)
    return piece, rest, keep, j


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


def partition_two(tree: Tree, size_r: int) -> tuple[Tree, Tree]:
    """Two disjoint trees of sizes (size_r, rest), edges spanning <= 2 hops.

    Rooted at a leaf, nodes at even depth start red and the rest blue.  The
    oversized color sheds its deepest leaves (under grandparent links) into
    the other one.  Each color then links every node but its anchor (the
    root for red, the root's child for blue) to its parent if that shares
    its color, else to its grandparent.  A color that only shrank holds one
    depth parity, so its links are all grandparent links.  The returned R
    holds the root and has exactly size_r nodes.
    """
    n = len(tree.nodes)
    if not _is_int(size_r) or not 1 <= size_r <= n - 1:
        raise DomainError(f"size_r must be an integer between 1 and {n - 1}, got {size_r!r}")
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
        return Tree._wired(side, edges, anchor, t)

    root = t.root
    assert root is not None
    return link(red, root), link(blue, t.adjacency[root][0])


def partition_three(tree: Tree) -> tuple[Tree, Tree, Tree]:
    """Three disjoint trees of equal size n, edges spanning <= 2 hops.

    Let v be the node with the smallest subtree of size >= n.  R is cut off
    at v if that subtree has n nodes, and otherwise peeled off v's children
    (see `_peel`), leaving a graft that holds v.  G comes out of what is
    left: the subtree at v or at its first ancestor w with n nodes below is
    cut off whole; else, if v's regrown subtree is too small, G is peeled
    off w's children with v's branch first; else G is v with the graft and
    v's next child subtrees, the last one split by a two-way partition
    unless it fits whole, and the children left over are chained to v's
    parent.  No grafted edge is ever stretched further.
    """
    total = len(tree.nodes)
    if total % 3 != 0:
        raise PartitionError(f"node count {total} is not divisible by 3")
    n = total // 3
    t = _leaf_rooted(tree)
    size = t.subtree_sizes()
    v = min((s, x) for x, s in size.items() if s >= n)[1]
    if size[v] == n:
        r_tree, rest = _cut(t, v)
        return (r_tree, *partition_two(rest, n))

    branches = _branches(t, v)
    r_tree, tilde, keep, jj = _peel(t, v, branches, n)
    size2 = tilde.subtree_sizes()
    parent2 = tilde.parent_map
    w = v
    while size2[w] < n:
        w = parent2[w]
    if size2[w] == n:
        return (r_tree, *_cut(tilde, w))

    if w != v:  # size2[v] < n: peel G off w's children, v's branch first
        branch = v
        while parent2[branch] != w:
            branch = parent2[branch]
        branches_w = _branches(tilde, w)
        branches_w.sort(key=lambda b: b[0] != branch)
        g_tree, b_tree, _, j2 = _peel(tilde, w, branches_w, n)
        if j2 == 0:
            raise AlgorithmInvariantError("v's branch alone reached n below w")
        return r_tree, g_tree, b_tree

    # size2[v] > n: G is v with the graft and the next child subtrees.
    # v's later child subtrees are untouched by the peel, so t's branches
    # are tilde's too.
    later = branches[jj + 1 :]
    acc = len(keep.nodes)
    ll = 0
    while acc + len(later[ll][1]) < n:
        acc += len(later[ll][1])
        ll += 1
    n2 = n - acc + 1
    if n2 == len(later[ll][1]) + 1:
        taken, chained, b_keep = later[: ll + 1], later[ll + 1 :], None
        g_nodes, g_edges = set(keep.nodes), list(keep.edges)
    else:
        give3, b_keep = partition_two(_hang(tilde, v, later[ll]), n2)
        taken, chained = later[:ll], later[ll:]
        g_nodes, g_edges = set(keep.nodes | give3.nodes), [*keep.edges, *give3.edges]
    if not chained:
        raise AlgorithmInvariantError("nothing left to chain after a full split")
    for u, below, inner in taken:
        g_nodes |= below
        g_edges += (*inner, (v, u))
    chain = [u for u, _, _ in chained]
    g_tree = Tree._wired(g_nodes, g_edges, v, tilde)
    b_nodes = tilde.nodes - g_nodes
    b_edges = _regraft(tilde.edges, b_nodes, b_keep) + tuple(zip(chain, [*chain[1:], parent2[v]]))
    return r_tree, g_tree, Tree._wired(b_nodes, b_edges, tilde.root, tilde)


def partition_many(tree: Tree, k: int) -> Forest:
    """k equal trees cut from a Hamiltonian path in the tree's cube.

    Every edge of a piece joins consecutive path nodes, hence spans at most
    3 hops in the source tree.  On a path-shaped tree the path runs end to
    end, so the pieces use only original edges.
    """
    if not _is_int(k) or k < 4:
        raise DomainError(f"partition_many needs an integer k >= 4, got {k!r}")
    total = len(tree.nodes)
    if total % k != 0:
        raise PartitionError(f"node count {total} is not divisible by k={k}")
    n = total // k
    leaves = tree.leaves()
    path = cube_hamiltonian_path_between(tree, leaves[0], leaves[-1])
    pieces = [path[i * n : (i + 1) * n] for i in range(k)]
    trees = tuple(Tree._wired(piece, zip(piece, piece[1:]), piece[0], tree) for piece in pieces)
    return Forest(trees)


def balanced_partition(tree: Tree, k: int) -> Forest:
    """k disjoint equal-size trees; hops <= 2 for k in {2, 3}, <= 3 for k >= 4."""
    if not _is_int(k) or k < 2:
        raise DomainError(f"balanced_partition needs an integer k >= 2, got {k!r}")
    total = len(tree.nodes)
    if total % k != 0:
        raise PartitionError(f"node count {total} is not divisible by k={k}")
    if k == 2:
        r_tree, b_tree = partition_two(tree, total // 2)
        return Forest((r_tree, b_tree))
    if k == 3:
        return Forest(partition_three(tree))
    return partition_many(tree, k)


@dataclass(frozen=True)
class PbstResult:
    forest: Forest
    bottleneck: float
    mst_bottleneck: float


def _solve_subset(mst: Tree, lengths: list[float], n: int) -> list[Tree]:
    """Trees of n points each from `mst`, whose edges have `lengths`.

    One sweep of `trees._merges` over the MST's edges in (length, -index)
    order builds its single-linkage merge tree: each edge merges the last merges
    of its u- and v-side components, so a component's last merge is its
    longest edge, the earliest among ties.  A merge is clean when both
    sides hold multiples of n points.  Walking down from the last merge on
    an explicit stack, u-side first, splits every clean merge; any other
    merge keeps its component whole, which is the MST of its own points
    (edges in MST order).  A kept component of n points is a group as it
    is; a larger one goes to the balanced partition.
    """
    edges = mst.edges
    last: dict[int, int] = {}  # component root -> index of its last merge
    size = dict.fromkeys(mst.nodes, 1)  # component root -> points
    merges: dict[int, tuple[int | None, int | None, bool]] = {}
    order = sorted(range(len(edges)), key=lambda i: (lengths[i], -i))
    for i, ru, rv in _merges(((i, *edges[i]) for i in order), mst.nodes):
        clean = size[ru] % n == 0 and size[rv] % n == 0
        merges[i] = (last.get(ru), last.get(rv), clean)
        size[ru] += size[rv]
        last[ru] = i
    trees: list[Tree] = []
    stack = [order[-1]]  # the last merge spans every point
    while stack:
        m = stack.pop()
        side_u, side_v, clean = merges[m]
        if clean:
            stack += (side_v, side_u)
            continue
        inside, todo = [], [m]
        while todo:
            j = todo.pop()
            if j is not None:  # a single point has no merge
                inside.append(j)
                todo += merges[j][:2]
        inside.sort()
        tree = Tree._from_valid(
            frozenset(chain.from_iterable(edges[j] for j in inside)),
            tuple(edges[j] for j in inside),
        )
        if len(tree.nodes) == n:
            trees.append(tree)
        else:
            trees += balanced_partition(_leaf_rooted(tree), len(tree.nodes) // n).trees
    return trees


def solve_pbst(instance: MetricInstance, k: int) -> PbstResult:
    """k disjoint trees of exactly n points each; bottleneck <= alpha * optimal.

    alpha is 2 for k in {2, 3} and 3 for k >= 4.  The n = 2 case reduces to
    bottleneck matching and is out of this solver's scope; n = 1 is likewise
    rejected.
    """
    if not _is_int(k) or k < 2:
        raise DomainError(f"solve_pbst needs an integer k >= 2, got {k!r}")
    total = instance.point_count
    if total % k != 0:
        raise PartitionError(f"{total} points cannot split into k={k} equal groups")
    n = total // k
    if n < 3:
        raise DomainError(
            f"groups of n={n} are not supported: n=2 is a bottleneck matching "
            "problem and n=1 is trivial; use a matching solver instead"
        )
    mst = minimum_spanning_tree(instance, instance.points())
    lengths = instance._lengths(mst.edges)
    forest = Forest(tuple(_solve_subset(mst, lengths, n)))
    edges = chain.from_iterable(t.edges for t in forest.trees)  # n >= 3: none is empty
    return PbstResult(
        forest=forest,
        bottleneck=max(instance._lengths(edges)),
        mst_bottleneck=max(lengths),
    )
