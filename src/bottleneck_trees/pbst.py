"""Partitioning kn points into k equally sized trees with short edges.

The partitioning routines at the heart of this module carve a given tree
into k disjoint trees of exactly n nodes whose edges span at most 2 hops in
the source tree for k in {2, 3} and at most 3 hops for k >= 4 (both bounds
are tight).  The metric solver runs them on the one minimum spanning tree it
builds per solve, first recursing into longest-edge splits whose sides happen
to be multiples of n; each side of such a split is the MST of its own points.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import AlgorithmInvariantError, DomainError, PartitionError
from .metric import MetricInstance
from .trees import (
    Forest,
    Tree,
    cube_hamiltonian_path_between,
    forest_bottleneck,
    longest_edge,
    minimum_spanning_tree,
    split_tree_at_edge,
)


def _leaf_rooted(tree: Tree) -> Tree:
    """The tree rooted at a leaf: keep a leaf root, else take the lowest one."""
    if tree.root is not None and len(tree.adjacency[tree.root]) <= 1:
        return tree
    return tree.rooted_at(min(tree.leaves()))


def _edges_within(edges, nodes) -> tuple[tuple[int, int], ...]:
    return tuple(e for e in edges if e[0] in nodes and e[1] in nodes)


def _extract_subtree(t: Tree, v: int) -> Tree:
    sub = frozenset(t.subtree_nodes(v))
    return Tree._from_valid(sub, _edges_within(t.edges, sub), v)


def _remove_subtree(t: Tree, v: int) -> Tree:
    rest = t.nodes - t.subtree_nodes(v)
    return Tree._from_valid(rest, _edges_within(t.edges, rest), t.root)


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

    Rooted at a leaf, nodes at even depth start red and the rest blue, each
    color linked through grandparents.  An oversized color sheds leaves into
    the other color, which is then relinked through whichever of parent or
    grandparent shares its color (parent preferred).  The returned R holds
    the root and has exactly size_r nodes.
    """
    n = len(tree.nodes)
    if not 1 <= size_r <= n - 1:
        raise DomainError(f"size_r must be between 1 and {n - 1}, got {size_r}")
    t = _leaf_rooted(tree)
    parent = t.parent_map
    depth = t.depth_map

    def grand(x: int) -> int | None:
        p = parent[x]
        return parent[p] if p is not None else None

    red = {x for x in t.nodes if depth[x] % 2 == 0}
    blue = set(t.nodes) - red
    root = t.root
    assert root is not None
    blue_anchor = t.children_map()[root][0]

    grown: str | None = None
    if len(red) > size_r:
        moved = _shrink_side(red, len(red) - size_r, depth, grand)
        red -= moved
        blue |= moved
        grown = "blue"
    elif len(red) < size_r:
        moved = _shrink_side(blue, len(blue) - (n - size_r), depth, grand)
        blue -= moved
        red |= moved
        grown = "red"

    def grand_links(side: set[int], anchor: int) -> list[tuple[int, int]]:
        out = []
        for x in sorted(side):
            if x == anchor:
                continue
            g = grand(x)
            if g not in side:
                raise AlgorithmInvariantError(f"node {x} lost its grandparent link")
            out.append((x, g))
        return out

    def relink(side: set[int], anchor: int) -> list[tuple[int, int]]:
        out = []
        for x in sorted(side):
            if x == anchor:
                continue
            p = parent[x]
            if p in side:
                out.append((x, p))
                continue
            g = grand(x)
            if g not in side:
                raise AlgorithmInvariantError(f"node {x} has no parent or grandparent in its side")
            out.append((x, g))
        return out

    red_edges = relink(red, root) if grown == "red" else grand_links(red, root)
    blue_edges = relink(blue, blue_anchor) if grown == "blue" else grand_links(blue, blue_anchor)
    r_tree = Tree._wired(red, red_edges, root, t)
    b_tree = Tree._wired(blue, blue_edges, blue_anchor, t)
    return r_tree, b_tree


def partition_three(tree: Tree) -> tuple[Tree, Tree, Tree]:
    """Three disjoint trees of equal size, edges spanning <= 2 hops.

    Peels off a first tree R around the node v with the smallest subtree of
    size >= n: whole child subtrees of v plus a piece split out of the next
    child, whose complement (still hanging from v) is grafted back.  The two
    remaining trees come from a case split on the size of v's regrown
    subtree, reusing the two-way split so that no grafted edge is ever
    stretched further.
    """
    total = len(tree.nodes)
    if total % 3 != 0:
        raise PartitionError(f"node count {total} is not divisible by 3")
    n = total // 3
    t = _leaf_rooted(tree)
    size = t.subtree_sizes()
    v = min((s, x) for x, s in size.items() if s >= n)[1]

    if size[v] == n:
        r_tree = _extract_subtree(t, v)
        rest = _remove_subtree(t, v)
        g_tree, b_tree = partition_two(rest, n)
        return r_tree, g_tree, b_tree

    # size[v] > n: assemble R from leading child subtrees plus a split piece.
    kids_v = t.children_map()[v]
    sizes = [size[u] for u in kids_v]
    acc = 0
    jj = 0
    while acc + sizes[jj] < n:
        acc += sizes[jj]
        jj += 1
    n1 = n - acc
    uj = kids_v[jj]
    uj_nodes = t.subtree_nodes(uj)
    u_v_j = Tree._wired(uj_nodes | {v}, _edges_within(t.edges, uj_nodes) + ((v, uj),), v, t)
    keep, give = partition_two(u_v_j, len(u_v_j.nodes) - n1)

    lead = set()
    for u in kids_v[:jj]:
        lead |= t.subtree_nodes(u)
    r_nodes = lead | set(give.nodes)
    r_edges = (
        _edges_within(t.edges, lead)
        + give.edges
        + tuple((u, uj) for u in kids_v[:jj])
    )
    r_tree = Tree._wired(r_nodes, r_edges, uj, t)

    tilde_nodes = set(t.nodes) - r_nodes
    keep_nodes = set(keep.nodes)
    tilde_edges = (
        tuple(
            e
            for e in t.edges
            if e[0] in tilde_nodes
            and e[1] in tilde_nodes
            and not (e[0] in keep_nodes and e[1] in keep_nodes)
        )
        + keep.edges
    )
    tilde = Tree._wired(tilde_nodes, tilde_edges, t.root, t)
    size2 = tilde.subtree_sizes()
    parent2 = tilde.parent_map

    if size2[v] == n:
        g_tree = _extract_subtree(tilde, v)
        b_tree = _remove_subtree(tilde, v)
        return r_tree, g_tree, b_tree

    if size2[v] < n:
        # Walk up to the first ancestor w covering n nodes and peel G off
        # around w, keeping v's whole branch (and the graft inside it) intact.
        w = v
        while size2[w] < n:
            p = parent2[w]
            assert p is not None
            w = p
        if size2[w] == n:
            g_tree = _extract_subtree(tilde, w)
            b_tree = _remove_subtree(tilde, w)
            return r_tree, g_tree, b_tree
        branch = v
        while parent2[branch] != w:
            nxt = parent2[branch]
            assert nxt is not None
            branch = nxt
        kids_w = [branch] + [c for c in tilde.children_map()[w] if c != branch]
        sizes_w = [size2[c] for c in kids_w]
        acc = 0
        j2 = 0
        while acc + sizes_w[j2] < n:
            acc += sizes_w[j2]
            j2 += 1
        if j2 == 0:
            raise AlgorithmInvariantError("v's branch alone reached n below w")
        n1b = n - acc
        uj2 = kids_w[j2]
        uj2_nodes = tilde.subtree_nodes(uj2)
        u_w_j = Tree._wired(
            uj2_nodes | {w}, _edges_within(tilde.edges, uj2_nodes) + ((w, uj2),), w, tilde
        )
        keep2, give2 = partition_two(u_w_j, len(u_w_j.nodes) - n1b)
        lead2 = set()
        for c in kids_w[:j2]:
            lead2 |= tilde.subtree_nodes(c)
        g_nodes = lead2 | set(give2.nodes)
        g_edges = (
            _edges_within(tilde.edges, lead2)
            + give2.edges
            + tuple((c, uj2) for c in kids_w[:j2])
        )
        g_tree = Tree._wired(g_nodes, g_edges, uj2, tilde)
        b_nodes = tilde_nodes - g_nodes
        keep2_nodes = set(keep2.nodes)
        b_edges = (
            tuple(
                e
                for e in tilde.edges
                if e[0] in b_nodes
                and e[1] in b_nodes
                and not (e[0] in keep2_nodes and e[1] in keep2_nodes)
            )
            + keep2.edges
        )
        b_tree = Tree._wired(b_nodes, b_edges, tilde.root, tilde)
        return r_tree, g_tree, b_tree

    # size2[v] > n: take the graft, the next child subtrees, and a piece of
    # one more child; the rest chains its roots back to v's parent.
    later = kids_v[jj + 1 :]
    base = len(keep.nodes)
    acc = base
    ll = 0
    while acc + size[later[ll]] < n:
        acc += size[later[ll]]
        ll += 1
    n2 = n - acc + 1
    ul = later[ll]
    ul_nodes = t.subtree_nodes(ul)
    parent_v = parent2[v]
    assert parent_v is not None

    if n2 == len(ul_nodes) + 1:
        g_nodes = keep_nodes.copy()
        for u in later[: ll + 1]:
            g_nodes |= t.subtree_nodes(u)
        g_edges = keep.edges
        for u in later[: ll + 1]:
            g_edges = g_edges + _edges_within(t.edges, t.subtree_nodes(u)) + ((v, u),)
        g_tree = Tree._wired(g_nodes, g_edges, v, tilde)
        chain = later[ll + 1 :]
        if not chain:
            raise AlgorithmInvariantError("nothing left to chain after a full split")
        b_nodes = tilde_nodes - g_nodes
        b_edges = _edges_within(tilde.edges, b_nodes)
        b_edges = b_edges + tuple(
            (chain[i], chain[i + 1]) for i in range(len(chain) - 1)
        )
        b_edges = b_edges + ((chain[-1], parent_v),)
        b_tree = Tree._wired(b_nodes, b_edges, tilde.root, tilde)
        return r_tree, g_tree, b_tree

    u_v_l = Tree._wired(
        ul_nodes | {v}, _edges_within(tilde.edges, ul_nodes) + ((v, ul),), v, tilde
    )
    give3, keep3 = partition_two(u_v_l, n2)
    g_nodes = keep_nodes | set(give3.nodes)
    g_edges = keep.edges + give3.edges
    for u in later[:ll]:
        g_nodes |= t.subtree_nodes(u)
        g_edges = g_edges + _edges_within(t.edges, t.subtree_nodes(u)) + ((v, u),)
    g_tree = Tree._wired(g_nodes, g_edges, v, tilde)

    b_nodes = tilde_nodes - g_nodes
    keep3_nodes = set(keep3.nodes)
    b_edges = tuple(
        e
        for e in tilde.edges
        if e[0] in b_nodes
        and e[1] in b_nodes
        and not (e[0] in keep3_nodes and e[1] in keep3_nodes)
    )
    b_edges = b_edges + keep3.edges
    chain = [ul] + list(later[ll + 1 :])
    b_edges = b_edges + tuple((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    b_edges = b_edges + ((chain[-1], parent_v),)
    b_tree = Tree._wired(b_nodes, b_edges, tilde.root, tilde)
    return r_tree, g_tree, b_tree


def partition_many(tree: Tree, k: int) -> Forest:
    """k equal trees cut from a Hamiltonian path in the tree's cube.

    Every edge of a piece joins consecutive path nodes, hence spans at most
    3 hops in the source tree.  On a path-shaped tree the path runs end to
    end, so the pieces use only original edges.
    """
    if k < 4:
        raise DomainError("partition_many handles k >= 4; use the dedicated 2/3-way splits")
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
    if k < 2:
        raise DomainError("balanced_partition needs k >= 2")
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


def _solve_subset(instance: MetricInstance, mst: Tree, k: int, n: int) -> list[Tree]:
    """k trees of n points each from `mst`, the MST of its own nodes.

    Removing an MST edge leaves two trees that are each the MST of their own
    points (with edges still in (distance, u, v) order), so the recursion
    splits the tree it was given instead of spanning the sides again.
    """
    if k == 1:
        return [mst]
    e, _ = longest_edge(mst, instance)
    side_u, side_v = split_tree_at_edge(mst, e)
    cu, cv = len(side_u.nodes), len(side_v.nodes)
    if cu % n == 0 and cv % n == 0:
        return _solve_subset(instance, side_u, cu // n, n) + _solve_subset(
            instance, side_v, cv // n, n
        )
    return list(balanced_partition(_leaf_rooted(mst), k).trees)


def solve_pbst(instance: MetricInstance, k: int) -> PbstResult:
    """k disjoint trees of exactly n points each; bottleneck <= alpha * optimal.

    alpha is 2 for k in {2, 3} and 3 for k >= 4.  The n = 2 case reduces to
    bottleneck matching and is out of this solver's scope; n = 1 is likewise
    rejected.
    """
    if k < 2:
        raise DomainError("solve_pbst needs k >= 2")
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
    _, mst_bot = longest_edge(mst, instance)
    trees = _solve_subset(instance, mst, k, n)
    forest = Forest(tuple(trees))
    return PbstResult(
        forest=forest,
        bottleneck=forest_bottleneck(forest, instance),
        mst_bottleneck=mst_bot,
    )
