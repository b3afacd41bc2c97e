"""Partitioning kn points into k equally sized trees with short edges.

The partitioning routines at the heart of this module carve a given tree
into k disjoint trees of exactly n nodes whose edges span at most 2 hops in
the source tree for k in {2, 3} and at most 3 hops for k >= 4 (both bounds
are tight).  The metric solver builds one minimum spanning tree per solve and
first cuts it at longest edges whose sides both hold multiples of n points;
each side of such a cut is the MST of its own points.  `trees._pieces`, the
cutter DBST shares, decides every cut in one sweep over the MST's edges in
(length, -index) order.  The count is per edge: every piece cut off holds a
multiple of n points, so an edge's lower subtree in the whole MST holds a
multiple of n exactly when its sides in its piece do.  The partitions then
run on the components left whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import AlgorithmInvariantError, DomainError, PartitionError
from .metric import MetricInstance, _is_int
from .trees import (
    Forest,
    Tree,
    _cut,
    _edges_within,
    _leaf_rooted,
    _mst,
    _pieces,
    cube_hamiltonian_path_between,
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
    return Tree._wired(below | {x}, inner + ((x, u),), x)


def _regraft(t: Tree, nodes, keep: Tree | None, links=()) -> Tree:
    """The rest of t on `nodes`: its edges inside them in order, those inside
    `keep` swapped for keep's own, then `links`.  It is a tree in both uses.
    After `_peel` at x, `nodes` are t without the j+1 child subtrees of x it
    took from, a tree through x, joined at x to `keep`, which holds x; the
    t-edges inside keep's nodes are exactly the ones dropped.  In
    partition_three's last case, `nodes` are t above v, a tree that holds
    v's parent, and the chained branches of v, each whole or as `keep`
    (anchored at the branch head); `links` joins each head to the next, the
    last to v's parent.
    """
    edges = _edges_within(t.edges, nodes)
    if keep is not None:
        inner = keep.nodes
        edges = (*(e for e in edges if not (e[0] in inner and e[1] in inner)), *keep.edges)
    return Tree._wired(nodes, (*edges, *links), t.root)


def _prefix(branches, acc: int, n: int) -> tuple[int, int]:
    """(j, acc + their nodes) for the longest branches[:j] that keeps it below n."""
    j = 0
    while acc + len(branches[j][1]) < n:
        acc += len(branches[j][1])
        j += 1
    return j, acc


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
    j, acc = _prefix(branches, 0, n)
    uj = branches[j][0]
    hung = _hang(t, x, branches[j])
    keep, give = partition_two(hung, len(hung.nodes) - (n - acc))
    lead = set().union(*(below for _, below, _ in branches[:j]))
    links = ((u, uj) for u, _, _ in branches[:j])
    piece = Tree._wired(lead | give.nodes, (*_edges_within(t.edges, lead), *give.edges, *links), uj)
    return piece, _regraft(t, t.nodes - piece.nodes, keep), keep, j


def partition_two(tree: Tree, size_r: int) -> tuple[Tree, Tree]:
    """Two disjoint trees of sizes (size_r, rest), edges spanning <= 2 hops.

    Rooted at a leaf, nodes at even depth start red and the rest blue.  The
    oversized color sheds its deepest nodes, ties to the lowest id, into the
    other one.  That color is one whole depth parity, whose nodes' children
    under grandparent links sit two levels deeper, so the deepest node left
    is always a leaf, and the anchor, the shallowest, is never shed.  Each
    color then links every node but its anchor (the root for red, the
    root's child for blue) to its parent if that shares its color, else to
    its grandparent.  A color that only shrank holds one depth parity, so
    its links are all grandparent links.  Every link climbs, which
    `Tree._linked` checks in place of a structure check.  The returned R
    holds the root and has exactly size_r nodes.
    """
    n = len(tree.nodes)
    if not _is_int(size_r) or not 1 <= size_r <= n - 1:
        raise DomainError(f"size_r must be an integer between 1 and {n - 1}, got {size_r!r}")
    t = _leaf_rooted(tree)
    parent = t.parent_map
    depth = t.depth_map
    red = {x for x in t.nodes if depth[x] % 2 == 0}
    blue = set(t.nodes) - red
    if len(red) != size_r:
        big, small = (red, blue) if len(red) > size_r else (blue, red)
        moved = set(sorted(big, key=lambda x: (-depth[x], x))[: abs(len(red) - size_r)])
        big -= moved
        small |= moved

    def link(side: set[int], anchor: int) -> Tree:
        up = [(x, parent[x]) for x in sorted(side) if x != anchor]
        return Tree._linked(anchor, [(x, p if p in side else parent.get(p)) for x, p in up], depth)

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
    size = t._spans[0]
    v = min((s, x) for x, s in size.items() if s >= n)[1]
    if size[v] == n:
        r_tree, rest = _cut(t, v)
        return (r_tree, *partition_two(rest, n))

    branches = _branches(t, v)
    r_tree, tilde, keep, jj = _peel(t, v, branches, n)
    size2 = tilde._spans[0]
    parent2 = tilde.parent_map
    w = v
    while size2[w] < n:
        w = parent2[w]
    if size2[w] == n:
        return (r_tree, *_cut(tilde, w))

    if w != v:  # size2[v] < n: peel G off w's children, v's branch first
        branches_w = _branches(tilde, w)
        branches_w.sort(key=lambda b: v not in b[1])
        g_tree, b_tree, _, j2 = _peel(tilde, w, branches_w, n)
        if j2 == 0:
            raise AlgorithmInvariantError("v's branch alone reached n below w")
        return r_tree, g_tree, b_tree

    # size2[v] > n: G is v with the graft and the next child subtrees.
    # v's later child subtrees are untouched by the peel, so t's branches
    # are tilde's too.
    later = branches[jj + 1 :]
    ll, acc = _prefix(later, len(keep.nodes), n)
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
    heads = [u for u, _, _ in chained] + [parent2[v]]
    g_tree = Tree._wired(g_nodes, g_edges, v)
    return r_tree, g_tree, _regraft(tilde, tilde.nodes - g_nodes, b_keep, zip(heads, heads[1:]))


def partition_many(tree: Tree, k: int) -> Forest:
    """k equal trees cut from a Hamiltonian path in the tree's cube.

    Every edge of a piece joins consecutive path nodes, hence spans at most
    3 hops in the source tree.  On a path-shaped tree the path runs end to
    end, so the pieces use only original edges.
    """
    if not _is_int(k) or k < 4:
        raise DomainError(f"partition_many needs an integer k >= 4, got {k!r}")
    return balanced_partition(tree, k)


def balanced_partition(tree: Tree, k: int) -> Forest:
    """k disjoint equal-size trees; hops <= 2 for k in {2, 3}, <= 3 for k >= 4."""
    if not _is_int(k) or k < 2:
        raise DomainError(f"balanced_partition needs an integer k >= 2, got {k!r}")
    if len(tree.nodes) % k != 0:
        raise PartitionError(f"node count {len(tree.nodes)} is not divisible by k={k}")
    return Forest._from_valid(_partition(tree, k))


def _partition(tree: Tree, k: int) -> tuple[Tree, ...]:
    """balanced_partition's trees, for a k >= 2 that divides the node count;
    for k >= 4, runs of one path through all the nodes, so each is a path."""
    if k < 4:
        return partition_two(tree, len(tree.nodes) // 2) if k == 2 else partition_three(tree)
    leaves = tree.leaves()
    path = cube_hamiltonian_path_between(tree, leaves[0], leaves[-1])
    n = len(path) // k
    runs = [path[i : i + n] for i in range(0, len(path), n)]
    return tuple(Tree._wired(run, zip(run, run[1:]), run[0]) for run in runs)


@dataclass(frozen=True)
class PbstResult:
    forest: Forest
    bottleneck: float
    mst_bottleneck: float


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
    mst = _leaf_rooted(_mst(instance, list(instance.points())))
    lengths = instance._lengths(mst.edges)
    size = mst._spans[0]  # an edge's lower end has the smaller subtree

    def cut(i: int) -> bool:
        return min(map(size.get, mst.edges[i])) % n == 0

    trees: list[Tree] = []
    for piece in _pieces(mst, lambda i: (lengths[i], -i), cut):
        if len(piece.nodes) == n:
            trees.append(piece)
        else:
            trees += _partition(_leaf_rooted(piece), len(piece.nodes) // n)
    edges = chain.from_iterable(t.edges for t in trees)  # n >= 3: none is empty
    return PbstResult(
        forest=Forest._from_valid(tuple(trees)),
        bottleneck=max(instance._lengths(edges)),
        mst_bottleneck=max(lengths),
    )
