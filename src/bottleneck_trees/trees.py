"""Combinatorial trees over point ids.

Provides minimum spanning trees with a deterministic edge tie-break (which
makes them bottleneck-optimal as well), the hop metric of a tree, and
Hamiltonian paths/cycles in the cube of a tree (consecutive nodes at most
three tree edges apart).  The cube of a tree has a Hamiltonian path between
any two nodes (Sekanina 1960); one linear traversal along the tree path
between the two ends builds every such path and cycle here.

Each tree caches one DFS preorder from its root (else its lowest node), with
parents and depths; v's subtree is `preorder[start[v] : start[v] + size[v]]`,
so subtrees and the sides of a split are slices, not walks.

The MST is one dense Prim kernel (O(n^2) time, O(n) extra memory) with the
(distance, u, v) tie-break; each solver builds one per solve and derives
everything else from its edges, and the exact oracles read their group
thresholds from the same kernel.  Coordinates and matrices relax its keys
in two ways: a coordinate row costs fresh `math.dist` calls, so each key
keeps its tree end as it improves; a matrix row is stored, so the keys are
updated in one list comprehension and the picked point's tree end is read
back from its own row.

Validation happens at the boundary, and metric.py's one C-speed id check,
`_check_int_ids`, decides what a node id is: a hand-built `Tree`, a tree
document, and every node argument (`Tree._check_nodes`) go through it.
Trees derived from a valid tree (the MST, `rooted_at`, the sides of `_cut`
and `split_tree_at_edge`, the pieces of `_pieces`) are built by
`Tree._from_valid` without checks, and a `rooted_at` copy shares its
source's adjacency.  Trees wired from new edges skip the structure check
too: `Tree._linked` guards the link rule of GBST's T2 and `partition_two`
(each node joins a strictly shallower one), and `Tree._wired` joins whole
subtrees, paths and `partition_two` trees for the other partition pieces
and rests, and DBST's rest on the bucket invariant `dbst._wire` checks.
Distance reads over a tree are one `_check_ids` pass over its nodes.  DBST
and PBST wrap the disjoint trees they built in `Forest._from_valid`; the
public `Forest(...)` checks its members.  A tree's adjacency, rooting and
spans are cached by `_cached`, which skips the class-wide lock that
`functools.cached_property` takes on each first access before Python 3.12.

`_merges` is the package's one union-find: `_pieces` (DBST's and PBST's
cuts of the MST), GBST's T1, the oracles' bounds and `_check_structure`'s
cycle check all sweep through it.  `_pieces` tests each edge against the
whole rooted tree, not against the piece it sits in.  Both callers' tests
count points below the edge, and every piece cut off holds a whole number
of units (n points for PBST, one point of every tuple for DBST), so an
edge's side in its piece differs from its side in the tree by whole units:
the test reads the same in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter, le

from .errors import AlgorithmInvariantError, DomainError, IdentifierError
from .metric import MetricInstance, _check_int_ids


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class _cached:
    """`functools.cached_property` without its lock: with no __set__, the
    value cached in the instance's __dict__ is read directly from then on."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _merges(triples, items):
    """(key, kept, absorbed) for each (key, u, v) triple that joins two components.

    Components start as the single `items` and the triples are taken in
    the caller's order.  `kept` and `absorbed` are the roots of u's and v's
    components, and `kept` stays the root of their union, so callers key
    their own per-component state on the roots.
    """
    parent = {x: x for x in items}
    for key, u, v in triples:
        while parent[u] != u:  # climb to the roots, halving the paths
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[v] = u
            yield key, u, v


def _check_structure(
    nodes: frozenset[int], edges: tuple[tuple[int, int], ...], root: int | None
) -> None:
    """DomainError unless the nodes, normalized edges and root form a tree.

    A tree has at least one node and |nodes| - 1 edges between its nodes
    that close no cycle; its root, if any, is one of its nodes.
    """
    if not nodes:
        raise DomainError("a tree needs at least one node")
    if len(edges) != len(nodes) - 1:
        raise DomainError(
            f"a tree on {len(nodes)} nodes needs {len(nodes) - 1} edges, got {len(edges)}"
        )
    inside = ((i, u, v) for i, (u, v) in enumerate(edges) if u in nodes and v in nodes)
    joined = [i for i, _, _ in _merges(inside, nodes)]
    if len(joined) < len(edges):  # name the first edge that joined nothing
        u, v = edges[next(at for at, i in enumerate([*joined, None]) if i != at)]
        if u not in nodes or v not in nodes:
            raise DomainError(f"edge ({u}, {v}) has an endpoint outside the node set")
        raise DomainError(f"edges contain a cycle (adding ({u}, {v}))")
    if root is not None and root not in nodes:
        raise DomainError(f"root {root} is not a node of the tree")


@dataclass(frozen=True)
class Tree:
    """An explicit tree: a node set, |nodes|-1 unordered edges, optional root.

    A single node with no edges is a valid tree.  Values are immutable;
    derived structure (adjacency, rooting) is cached lazily, and a re-rooted
    copy shares the adjacency of the tree it came from.
    """

    nodes: frozenset[int]
    edges: tuple[tuple[int, int], ...]
    root: int | None = None

    def __post_init__(self) -> None:
        try:
            ids, edges = list(self.nodes), tuple(self.edges)
        except TypeError:
            raise DomainError("tree nodes and edges must be sequences") from None
        _check_int_ids(ids, "tree node")
        if not all(isinstance(e, (tuple, list)) and len(e) == 2 for e in edges):
            raise DomainError("tree edges must be [u, v] pairs")
        _check_int_ids(list(chain.from_iterable(edges)), "tree edge endpoint")
        if self.root is not None:
            _check_int_ids((self.root,), "tree root")
        nodes = frozenset(ids)
        edges = tuple(_normalize_edge(u, v) for u, v in edges)
        _check_structure(nodes, edges, self.root)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _from_valid(
        cls, nodes: frozenset[int], edges: tuple[tuple[int, int], ...], root: int | None = None
    ) -> "Tree":
        """A tree from fields already known to form one; nothing is checked.

        `nodes` is a frozenset of int ids and `edges` holds (min, max) pairs
        in their final order.  Only for trees whose validity follows from
        their derivation: those derived from a valid tree or spanning tree,
        and DBST's label trees, which copy its checked bucket tree.
        """
        tree = object.__new__(cls)
        object.__setattr__(tree, "nodes", nodes)
        object.__setattr__(tree, "edges", edges)
        object.__setattr__(tree, "root", root)
        return tree

    @classmethod
    def _wired(cls, nodes, edges, root: int | None) -> "Tree":
        """A tree on a valid tree's nodes and new edges that its builder makes a tree."""
        edges = tuple((u, v) if u <= v else (v, u) for u, v in edges)
        return cls._from_valid(frozenset(nodes), edges, root)

    @classmethod
    def _linked(cls, root: int, links: list[tuple[int, int]], depth) -> "Tree":
        """The tree on `root` and the x of every (x, p) link, joined by the links.

        Each x is linked once, to a node p of the tree strictly shallower in
        `depth`, so the links from any node climb to the root: m nodes, m - 1
        edges, no cycle.  A link that breaks this raises AlgorithmInvariantError.
        """
        nodes = frozenset([root, *(x for x, _ in links)])
        if len(nodes) != len(links) + 1:
            raise AlgorithmInvariantError("a node is linked twice, or the root is linked")
        for x, p in links:
            if p not in nodes or depth[p] >= depth[x]:
                raise AlgorithmInvariantError(f"node {x} links to {p}, not a shallower node")
        return cls._wired(nodes, links, root)

    @_cached
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    def leaves(self) -> list[int]:
        """Nodes of degree at most one, ascending (a lone node counts)."""
        return sorted(v for v, nbrs in self.adjacency.items() if len(nbrs) <= 1)

    def _check_nodes(self, *ids, what: str = "tree node") -> None:
        """IdentifierError unless each id is a node; DomainError unless an int."""
        for v in ids:
            if v not in self.nodes:
                raise IdentifierError(f"node {v} is not in the tree")
        _check_int_ids(ids, what)

    def rooted_at(self, root: int) -> "Tree":
        """The same tree rooted at `root`; it shares this tree's adjacency."""
        self._check_nodes(root, what="tree root")
        if root == self.root:
            return self
        rooted = Tree._from_valid(self.nodes, self.edges, root)
        rooted.__dict__["adjacency"] = self.adjacency
        return rooted

    @_cached
    def _rooting(self) -> tuple[dict[int, int | None], dict[int, int], list[int]]:
        """Parents, depths and a DFS preorder from the root, else the lowest node."""
        adj = self.adjacency
        anchor = self.root if self.root is not None else min(self.nodes)
        parent: dict[int, int | None] = {anchor: None}
        depth: dict[int, int] = {anchor: 0}
        order: list[int] = []
        stack = [anchor]
        while stack:
            u = stack.pop()
            order.append(u)
            p, d = parent[u], depth[u] + 1
            for w in adj[u]:
                if w != p:
                    parent[w] = u
                    depth[w] = d
                    stack.append(w)
        return parent, depth, order

    @_cached
    def _spans(self) -> tuple[dict[int, int], dict[int, int]]:
        """(size, start): v's subtree is preorder[start[v] : start[v] + size[v]]."""
        parent, _, order = self._rooting
        size = dict.fromkeys(order, 1)
        for v in reversed(order[1:]):  # children before parents
            size[parent[v]] += size[v]
        return size, dict(zip(order, range(len(order))))

    def _below(self, v: int) -> list[int]:
        """v's subtree under the current rooting, in preorder."""
        size, start = self._spans
        i = start[v]
        return self._rooting[2][i : i + size[v]]

    def _require_root(self) -> None:
        if self.root is None:
            raise DomainError("operation requires a rooted tree")

    @property
    def parent_map(self) -> dict[int, int | None]:
        self._require_root()
        return self._rooting[0]

    @property
    def depth_map(self) -> dict[int, int]:
        self._require_root()
        return self._rooting[1]

    def children_map(self) -> dict[int, list[int]]:
        """Children per node for the current root: its sorted neighbors but its parent."""
        parent = self.parent_map
        return {v: [w for w in nbrs if w != parent[v]] for v, nbrs in self.adjacency.items()}

    def subtree_sizes(self) -> dict[int, int]:
        """Number of nodes in the subtree rooted at each node, root included."""
        self._require_root()
        return dict(self._spans[0])

    def subtree_nodes(self, v: int) -> set[int]:
        """Nodes of the subtree rooted at v, for the current root."""
        self._check_nodes(v)
        self._require_root()
        return set(self._below(v))


def _leaf_rooted(tree: Tree) -> Tree:
    """The tree rooted at a leaf: keep a leaf root, else take the lowest leaf."""
    adj = tree.adjacency
    if tree.root is not None and len(adj[tree.root]) <= 1:
        return tree
    return tree.rooted_at(min(v for v, nbrs in adj.items() if len(nbrs) <= 1))


@dataclass(frozen=True)
class Forest:
    """A list of node-disjoint trees."""

    trees: tuple[Tree, ...]

    def __post_init__(self) -> None:
        try:
            trees = tuple(self.trees)
        except TypeError:
            raise DomainError("a forest's trees must be a sequence") from None
        object.__setattr__(self, "trees", trees)
        seen: set[int] = set()
        for t in trees:
            if not isinstance(t, Tree):
                raise DomainError(f"forest members must be trees, got {t!r}")
            if seen & t.nodes:
                raise DomainError("forest trees must have pairwise disjoint node sets")
            seen |= t.nodes

    @classmethod
    def _from_valid(cls, trees: tuple[Tree, ...]) -> "Forest":
        """A forest of trees its builder made pairwise disjoint; nothing is checked."""
        forest = object.__new__(cls)
        object.__setattr__(forest, "trees", trees)
        return forest


def _mst_triples(instance: MetricInstance, points: list[int]) -> list[tuple[float, int, int]]:
    """The MST's edges as (distance, u, v) triples with u < v, ascending.

    `points` are distinct ids in ascending order that the caller has checked.
    Dense Prim: O(n^2) time, O(n) extra memory, one distance row per added
    node.  Candidates compare on the strict total order (distance, u, v), so
    the tree is unique and equals the Kruskal tree of that order.  The last
    triple holds the bottleneck; a single point has no triples.

    Each instance kind keeps its own relaxation.  Coordinates keep each
    outside point's tree end (`via`) as its key improves, because finding it
    again later would cost fresh `math.dist` calls.  A matrix row is already
    stored, so `_matrix_mst_triples` keeps only the keys and reads the tree
    end back from the picked point's row.
    """
    if len(points) == 1:
        return []
    if instance.matrix is not None:
        return _matrix_mst_triples(instance.matrix, points)
    # rest[i] is outside the tree; its cheapest link into the tree is
    # (best[i], via[i]), and targets[i] is what its distances are read from.
    rest = points[1:]
    coords = instance.coordinates
    assert coords is not None
    targets = [coords[p] for p in rest]

    def row(x: int) -> list[float]:
        return list(map(math.dist, repeat(coords[x]), targets))

    best = row(points[0])
    via = [points[0]] * len(rest)
    chosen: list[tuple[float, int, int]] = []
    while True:
        d = min(best)
        i = best.index(d)
        if best.count(d) > 1:
            i = min(
                (j for j in range(i, len(best)) if best[j] == d),
                key=lambda j: _normalize_edge(via[j], rest[j]),
            )
        x, y = via.pop(i), rest.pop(i)
        chosen.append((d, x, y) if x <= y else (d, y, x))
        del best[i]
        del targets[i]
        if not rest:
            break
        new = row(y)
        for j in compress(range(len(rest)), map(le, new, best)):
            nd = new[j]
            if nd < best[j] or _normalize_edge(y, rest[j]) < _normalize_edge(via[j], rest[j]):
                best[j] = nd
                via[j] = y
    chosen.sort()
    return chosen


def _matrix_mst_triples(
    matrix: tuple[tuple[float, ...], ...], points: list[int]
) -> list[tuple[float, int, int]]:
    """`_mst_triples` on a matrix, which is assumed symmetric.

    Each step updates the keys with one list comprehension and keeps no tree
    end per key, so no Python loop runs over the keys that improve (on a
    path-shaped input, nearly all of them).  The (distance, u, v) order links
    the picked point y, at key d, to the smallest tree id at distance d: the
    first tree column of y's own row that holds d.  Among tied keys the
    smallest (min, max) edge at d wins.  That is y's edge, unless a tree
    point below both its ends is at d from the rest; then the smallest such
    point links to the smallest outside point at d.

    An asymmetric matrix may have no tree column at d in y's row; the tree's
    rows are read instead, so the result is still a spanning tree.
    """
    rest = points[1:]
    first = points[0]  # no tree id is smaller
    # reach[t] <= tree point t's distance to the rest, which only grows as
    # the rest shrinks; -inf until first read, and +inf off the tree
    reach = [math.inf] * len(matrix)
    reach[first] = -math.inf

    def row(x: int) -> tuple[float, ...]:
        if len(rest) == 1:
            return (matrix[x][rest[0]],)
        return itemgetter(*rest)(matrix[x])

    def tree_end(y: int, d: float) -> int:
        """The smallest tree id at distance d from y."""
        line = matrix[y]
        try:
            t = line.index(d, first)
            while reach[t] == math.inf:
                t = line.index(d, t + 1)
            return t
        except ValueError:  # an asymmetric matrix: read the tree's rows
            return next(t for t, r in enumerate(reach) if r < math.inf and matrix[t][y] == d)

    best = list(row(first))
    chosen: list[tuple[float, int, int]] = []
    while True:
        d = min(best)
        i = best.index(d)
        y = rest[i]
        x = tree_end(y, d)
        # The triple carries the first tied key as its tree end's row holds
        # it, as the coordinate loop does; equal keys differ at most in a
        # zero's sign.
        dist = matrix[x][y]
        if best.count(d) > 1:
            # a tree point below both ends at d from the rest has a smaller edge
            below = min(x, y)
            for t in compress(range(first, below), map(le, reach[first:below], repeat(d))):
                line = row(t)
                reach[t] = min(line)
                if reach[t] == d:
                    i = line.index(d)
                    x, y = t, rest[i]
                    break
        del rest[i]
        chosen.append((dist, *_normalize_edge(x, y)))
        reach[y] = -math.inf
        del best[i]
        if not rest:
            break
        best = [a if a <= b else b for a, b in zip(best, row(y))]
    chosen.sort()
    return chosen


def minimum_spanning_tree(instance: MetricInstance, subset) -> Tree:
    """Minimum spanning tree of the complete metric graph on `subset`.

    Its edges come from `_mst_triples` in (distance, u, v) order, which makes
    the result deterministic and both weight- and bottleneck-optimal.
    """
    ids = list(subset)
    instance._check_ids(ids)
    points = sorted(set(ids))
    if not points:
        raise DomainError("cannot span an empty point set")
    return _mst(instance, points)


def _mst(instance: MetricInstance, points: list[int]) -> Tree:
    """The MST on sorted, distinct, checked ids; the solvers pass range(n)'s own."""
    edges = tuple((u, v) for _, u, v in _mst_triples(instance, points))
    return Tree._from_valid(frozenset(points), edges)


def longest_edge(tree: Tree, instance: MetricInstance) -> tuple[tuple[int, int], float]:
    """The maximum-length edge and its length; ties go to the earliest edge."""
    if not tree.edges:
        raise DomainError("a single-node tree has no longest edge")
    instance._check_ids(tree.nodes)
    lengths = instance._lengths(tree.edges)
    best = max(lengths)
    return tree.edges[lengths.index(best)], best


def bottleneck(tree: Tree, instance: MetricInstance) -> float:
    """Largest edge length of the tree; 0 for a single node."""
    if not tree.edges:
        return 0.0
    instance._check_ids(tree.nodes)
    return max(instance._lengths(tree.edges))


def forest_bottleneck(forest: Forest, instance: MetricInstance) -> float:
    return max((bottleneck(t, instance) for t in forest.trees), default=0.0)


def hop_distance(tree: Tree, u: int, v: int) -> int:
    """Number of edges on the unique tree path between u and v."""
    tree._check_nodes(u, v)
    parent, depth, _ = tree._rooting
    hops = 0
    while depth[u] > depth[v]:
        u = parent[u]  # type: ignore[assignment]
        hops += 1
    while depth[v] > depth[u]:
        v = parent[v]  # type: ignore[assignment]
        hops += 1
    while u != v:
        u = parent[u]  # type: ignore[assignment]
        v = parent[v]  # type: ignore[assignment]
        hops += 2
    return hops


def _edges_within(edges, nodes) -> tuple[tuple[int, int], ...]:
    return tuple(e for e in edges if e[0] in nodes and e[1] in nodes)


def _cut(t: Tree, v: int) -> tuple[Tree, Tree]:
    """The subtree of t at v, rooted at v, and the rest of t; edges keep t's order."""
    below = frozenset(t._below(v))
    rest = t.nodes - below
    return (
        Tree._from_valid(below, _edges_within(t.edges, below), v),
        Tree._from_valid(rest, _edges_within(t.edges, rest), t.root),
    )


def split_tree_at_edge(tree: Tree, edge: tuple[int, int]) -> tuple[Tree, Tree]:
    """Remove one edge and return the two components (u-side, v-side), unrooted."""
    try:
        u, v = e = _normalize_edge(*edge)
    except TypeError:  # not a pair, or ends that do not compare
        raise DomainError(f"{edge!r} is not an edge of the tree") from None
    if v not in tree.adjacency.get(u, ()):
        raise DomainError(f"({edge[0]}, {edge[1]}) is not an edge of the tree")
    _check_int_ids(e, "tree edge endpoint")
    low = v if tree._rooting[0][v] == u else u
    sides = _cut(tree, low)
    return tuple(Tree._from_valid(t.nodes, t.edges) for t in (sides[::-1] if low == v else sides))


def _pieces(tree: Tree, key, cut) -> list[Tree]:
    """The components of `tree` cut at its largest-key edge and again inside each side.

    Edge indices are swept through `_merges` in `key` order, which builds the
    single-linkage merge tree: each edge merges the last merges of its u- and
    v-side components, so a component's last merge is its largest-key edge.
    Walking down from the last merge, u-side first, splits every merge whose
    edge index `cut` allows.  Any other merge keeps its component whole, with
    its edges in tree order, and a single point becomes a one-node tree.  When
    the top edge is not cut, `tree` itself is the one piece.
    """
    edges = tree.edges
    top = max(range(len(edges)), key=key, default=None)
    if top is None or not cut(top):
        return [tree]
    sides: dict = {}  # merge -> the last merges of its u- and v-side, None for a lone point
    last: dict[int, int] = {}  # component root -> index of its last merge
    order = sorted(range(len(edges)), key=key)
    for i, ru, rv in _merges(((i, *edges[i]) for i in order), tree.nodes):
        sides[i] = (last.get(ru), last.get(rv))
        last[ru] = i
    pieces: list[Tree] = []
    stack: list[tuple[int | None, int | None]] = [(top, None)]  # (merge, None) or (None, point)
    while stack:
        m, x = stack.pop()
        if m is None:
            pieces.append(Tree._from_valid(frozenset((x,)), ()))
        elif cut(m):
            stack += zip(sides[m][::-1], edges[m][::-1])
        else:
            inside, todo = [], [m]
            while todo:
                j = todo.pop()
                if j is not None:
                    inside.append(j)
                    todo += sides[j]
            inside.sort()
            part = tuple(edges[j] for j in inside)
            pieces.append(Tree._from_valid(frozenset(chain.from_iterable(part)), part))
    return pieces


def _cube_order(tree: Tree, spine: list[int]) -> list[int]:
    """All nodes from spine[0] to spine[-1], consecutive ones <= 3 hops apart.

    `spine` is the tree path between the two ends.  Each spine node but the
    last two is emitted, then each of its side branches in ascending head
    order; a branch is walked from its head along the edge to the head's
    smallest other neighbor, and the last spine edge is walked the same way.
    """
    # The reached nodes (the spine, then the far end of each walked edge)
    # stay connected, so the tree edges between them are exactly the walked
    # ones and the spine's.  Each neighbor list is scanned once through a
    # monotone pointer, so the work is linear in the edges.
    adj = tree.adjacency
    ptr = dict.fromkeys(adj, 0)
    reached = set(spine)
    out: list[int] = []
    # A node on the stack is emitted; (a, b, rev) walks edge (a, b) and
    # emits its component from a to b, or from b to a when rev is True.
    stack: list = []

    def next_of(x: int) -> int | None:
        lst = adj[x]
        i = ptr[x]
        while i < len(lst) and lst[i] in reached:
            i += 1
        ptr[x] = i
        return lst[i] if i < len(lst) else None

    def push(x: int, rev: bool) -> None:
        nxt = next_of(x)
        stack.append(x if nxt is None else (x, nxt, rev))

    def drain() -> None:
        while stack:
            item = stack.pop()
            if not isinstance(item, tuple):
                out.append(item)
                continue
            a, b, rev = item
            reached.add(b)
            first, second = (b, a) if rev else (a, b)
            push(second, True)
            push(first, False)

    for s in spine[:-2]:
        out.append(s)
        head = next_of(s)
        while head is not None:
            reached.add(head)
            push(head, False)
            drain()
            head = next_of(s)
    stack.append((spine[-2], spine[-1], False))
    drain()
    return out


def cube_hamiltonian_path(tree: Tree, u: int, v: int) -> list[int]:
    """Order all nodes from u to v with consecutive hop distances <= 3.

    (u, v) must be an edge of the tree.
    """
    tree._check_nodes(u, v)
    if v not in tree.adjacency[u]:
        raise DomainError(f"({u}, {v}) is not an edge of the tree")
    return _cube_order(tree, [u, v])


def cube_hamiltonian_path_between(tree: Tree, a: int, b: int) -> list[int]:
    """Order all nodes from a to b (any two distinct nodes), hops <= 3.

    Such a path exists in the cube of every tree (Sekanina 1960).  On a
    path-shaped tree with a and b as its two ends this is the path itself.
    """
    tree._check_nodes(a, b)
    if a == b:
        raise DomainError("endpoints must be distinct")
    parent, depth, _ = tree._rooting
    up, down = [a], [b]
    while up[-1] != down[-1]:  # the deeper end is not where the two paths meet
        if depth[up[-1]] >= depth[down[-1]]:
            up.append(parent[up[-1]])
        else:
            down.append(parent[down[-1]])
    return _cube_order(tree, up + down[-2::-1])


def cube_hamiltonian_cycle(tree: Tree) -> list[int]:
    """Cyclic order of all nodes with every gap (wrap included) <= 3 hops.

    Built as the cube path along the lowest-id tree edge; the wrap-around
    step is that tree edge itself.
    """
    if len(tree.nodes) < 3:
        raise DomainError("a cycle needs at least three nodes")
    u, v = min(tree.edges)
    return cube_hamiltonian_path(tree, u, v)


def tree_to_dict(tree: Tree) -> dict:
    return {
        "nodes": sorted(tree.nodes),
        "edges": [[u, v] for u, v in tree.edges],
        "root": tree.root,
    }


def tree_from_dict(doc: dict) -> Tree:
    """Inverse of tree_to_dict; a malformed document raises DomainError."""
    if not isinstance(doc, dict):
        raise DomainError("a tree document must be an object")
    nodes, edges = doc.get("nodes"), doc.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise DomainError("a tree document needs 'nodes' and 'edges' lists")
    return Tree(nodes, edges, root=doc.get("root"))
