"""One tree spanning exactly one point per cluster (clusters of size <= 2).

Two stages.  First a threshold sweep grows components edge by edge in
distance order and stops at the first component touching every cluster; its
spanning tree T1 has bottleneck no larger than any feasible solution's.  The
sweep is a Kruskal prefix of the solve's one minimum spanning tree (dense
Prim, O(n^2) time), so T1 is a subtree of that MST.  `_cover` runs it
through `trees._merges`, and the exact oracle's bound runs it on all pairs.
Second, a select-and-burn walk over rooted T1 keeps one node per cluster,
and every kept node can reach a kept node closer to the root within three
hops, giving a tree whose metric bottleneck is at most 3x that of T1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlgorithmInvariantError,
    DomainError,
    InfeasibleError,
    PartitionError,
)
from .metric import ClusterPartition, MetricInstance
from .trees import Tree, _merges, _mst

SELECTED = "selected"
BURNED = "burned"


@dataclass(frozen=True)
class NodeSelection:
    """Outcome of the walk: every node selected or burned, in visit order."""

    status: dict[int, str]
    visit_order: tuple[int, ...]

    def selected_nodes(self) -> list[int]:
        return sorted(v for v, s in self.status.items() if s == SELECTED)


def _check_pair_clusters(clusters: ClusterPartition) -> None:
    if clusters.max_size() > 2:
        raise PartitionError("this solver handles clusters of size at most 2")


def _cover(triples, clusters: tuple[tuple[int, ...], ...]) -> tuple[object, list[int]]:
    """The key of the first merge after which a component meets all (two or
    more) clusters, and its points; clusters and points merge small into large."""
    parts = {p: ({i}, [p]) for i, g in enumerate(clusters) for p in g}
    for key, kept, absorbed in _merges(triples, parts):
        big, small = parts[kept], parts.pop(absorbed)
        if len(big[1]) < len(small[1]):
            big, small = small, big
        big[0].update(small[0])
        big[1].extend(small[1])
        parts[kept] = big
        if len(big[0]) == len(clusters):
            return key, big[1]
    raise AlgorithmInvariantError("no component ever covered all clusters")


def build_t1(instance: MetricInstance, clusters: ClusterPartition) -> Tree:
    """Smallest-threshold tree touching at least one point of every cluster.

    A threshold sweep in ascending (distance, u, v) order merges components
    only on minimum spanning tree edges, so it is run as a Kruskal prefix of
    the one MST over all points: `_cover` sweeps its edges in order and stops
    the moment one component covers all clusters.  That component's swept
    edges, in sweep order, are its own minimum spanning tree, and their
    bottleneck is the stopping threshold.
    """
    _check_pair_clusters(clusters)
    clusters.check_covers(instance)
    if len(clusters.clusters) == 1:
        p = clusters.clusters[0][0]
        return Tree._from_valid(frozenset({p}), ())
    mst = _mst(instance, list(instance.points()))
    at, points = _cover(((i, *e) for i, e in enumerate(mst.edges)), clusters.clusters)
    nodes = frozenset(points)
    return Tree._from_valid(nodes, tuple(e for e in mst.edges[: at + 1] if e[0] in nodes))


def select_nodes(t1: Tree, clusters: ClusterPartition) -> NodeSelection:
    """Visit all of t1, selecting exactly one node per cluster.

    One scan of the clusters (`_pairs`) finds each node's cluster twin in t1
    and the clusters with a single node inside t1; those nodes are selected
    up front.  Then, starting from the root (or the lowest-id open node when
    the root is taken), each step selects an open node and burns its twin;
    the walk continues at the twin's open parent, else an open child of the
    twin, else restarts at the lowest-id open node.  PartitionError when a
    node of t1 belongs to no cluster.
    """
    _check_pair_clusters(clusters)
    if t1.root is None:
        raise DomainError("select_nodes needs a rooted tree")
    twin, forced = _pairs(t1.nodes, clusters.clusters)
    stray = t1.nodes.difference(twin, forced)
    if stray:
        raise PartitionError(f"t1 node {min(stray)} belongs to no cluster")
    return _select(t1, twin, forced)


def _pairs(
    nodes: frozenset[int], clusters: tuple[tuple[int, ...], ...]
) -> tuple[dict[int, int], list[int]]:
    """Each node's cluster twin inside `nodes`, and the nodes whose cluster has
    no other node there ("forced"), ascending; pair clusters only."""
    twin: dict[int, int] = {}
    forced: list[int] = []
    for g in clusters:
        a, b = g[0], g[-1]  # a == b for a one-point cluster
        if a != b and a in nodes and b in nodes:
            twin[a] = b
            twin[b] = a
        elif a in nodes or b in nodes:
            forced.append(a if a in nodes else b)
        else:
            raise InfeasibleError(f"cluster {list(g)} has no node in the tree")
    forced.sort()
    return twin, forced


def _select(t1: Tree, twin: dict[int, int], forced: list[int]) -> NodeSelection:
    """select_nodes for a rooted t1, given `_pairs` of its clusters.

    A burned twin's parent, if it has one, is visited before the walk looks
    at its children, so its first open neighbour in the sorted adjacency is
    its lowest open child; no children map is built.
    """
    status = dict.fromkeys(forced, SELECTED)  # insertion order is visit order
    parent, adj = t1.parent_map, t1.adjacency
    for current in (t1.root, *sorted(t1.nodes)):
        while current is not None and current not in status:
            a2 = twin.get(current)
            if a2 is None:
                raise AlgorithmInvariantError(f"open node {current} has no cluster twin")
            status[current] = SELECTED
            if a2 in status:
                raise AlgorithmInvariantError(f"twin {a2} was already visited")
            status[a2] = BURNED
            current = parent[a2]
            if current is None or current in status:
                current = next((w for w in adj[a2] if w not in status), None)
    return NodeSelection(status=status, visit_order=tuple(status))


def build_t2(t1: Tree, selection: NodeSelection) -> Tree:
    """Tree on the selected nodes; every edge spans <= 3 hops in t1.

    Each selected node joins the nearest selected node strictly closer to
    the root, found by climbing: parent, grandparent, great-grandparent, and
    finally the twin's sibling that the walk selected right after burning
    the grandparent.  Every link climbs, which `Tree._linked` checks in
    place of a structure check.  DomainError unless the selection fits t1:
    every node of t1 and no other is selected or burned, the root selected,
    the visit order lists each node once, and each selected node finds a
    selected node within three hops above it, as a `select_nodes` walk
    guarantees.
    """
    if t1.root is None:
        raise DomainError("build_t2 needs a rooted tree")
    status, order = selection.status, selection.visit_order
    if status.keys() != t1.nodes:
        raise DomainError("the selection must give a status to every node of t1 and no other")
    if not all(s in (SELECTED, BURNED) for s in status.values()):
        raise DomainError(f"a node status must be {SELECTED!r} or {BURNED!r}")
    if len(order) != len(t1.nodes) or set(order) != t1.nodes:
        raise DomainError("the visit order must list every node of t1 exactly once")
    if status[t1.root] != SELECTED:
        raise DomainError("the root of t1 must be a selected node")
    try:
        return _build_t2(t1, selection)
    except AlgorithmInvariantError as err:
        raise DomainError(f"the selection breaks the three-hop rule: {err}") from err


def _build_t2(t1: Tree, selection: NodeSelection) -> Tree:
    """build_t2 for a selection that fits t1, unchecked."""
    status, order = selection.status, selection.visit_order
    parent = t1.parent_map
    next_visited = dict(zip(order, order[1:]))
    links: list[tuple[int, int]] = []
    for a in selection.selected_nodes():
        if a == t1.root:
            continue
        climb = [a]  # a, then the burned ancestors passed so far
        while len(climb) < 4:
            up = parent[climb[-1]]
            if up is None:
                raise AlgorithmInvariantError(f"burned node {climb[-1]} is the root")
            if status[up] == SELECTED:
                links.append((a, up))
                break
            climb.append(up)
        else:
            grand = climb[2]
            chosen_child = next_visited.get(grand)
            if status.get(chosen_child) != SELECTED or parent[chosen_child] != grand:
                raise AlgorithmInvariantError(
                    f"no selected node within 3 hops above {a}; the selection walk is broken"
                )
            links.append((a, chosen_child))
    return Tree._linked(t1.root, links, t1.depth_map)


@dataclass(frozen=True)
class GbstResult:
    tree: Tree
    bottleneck: float
    t1: Tree
    t1_bottleneck: float
    selection: NodeSelection


def solve_2gbst(instance: MetricInstance, clusters: ClusterPartition) -> GbstResult:
    """One tree with exactly one point per cluster, bottleneck <= 3x optimal.

    T1 is rooted at the lowest node whose cluster contributes nothing else
    to T1 when one exists (so the root is certainly selected); otherwise at
    the lowest-id node, where the walk starts and selects it.  One scan of
    the clusters (`_pairs`) serves the root choice and the walk.  `build_t1`
    checks the clusters, and nothing after it checks them or the selection
    again.
    """
    t1 = build_t1(instance, clusters)
    twin, forced = _pairs(t1.nodes, clusters.clusters)
    t1 = t1.rooted_at(forced[0] if forced else min(t1.nodes))
    selection = _select(t1, twin, forced)
    t2 = _build_t2(t1, selection)
    return GbstResult(
        tree=t2,
        bottleneck=max(instance._lengths(t2.edges), default=0.0),
        t1=t1,
        t1_bottleneck=max(instance._lengths(t1.edges), default=0.0),
        selection=selection,
    )
