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

    Clusters with a single node inside t1 are selected up front.  Then,
    starting from the root (or the lowest-id open node when the root is
    taken), each step selects an open node and burns its cluster twin; the
    walk continues at the twin's open parent, else an open child of the twin,
    else restarts at the lowest-id open node.
    """
    _check_pair_clusters(clusters)
    if t1.root is None:
        raise DomainError("select_nodes needs a rooted tree")
    return _select(t1, clusters)


def _select(t1: Tree, clusters: ClusterPartition) -> NodeSelection:
    """select_nodes for a rooted t1 and pair clusters."""
    nodes = t1.nodes
    twin: dict[int, int] = {}
    forced: list[int] = []
    for g in clusters.clusters:
        inside = [p for p in g if p in nodes]
        if not inside:
            raise InfeasibleError(f"cluster {list(g)} has no node in the tree")
        if len(inside) == 1:
            forced.append(inside[0])
        else:
            a, b = inside
            twin[a] = b
            twin[b] = a

    status: dict[int, str] = {}
    visits: list[int] = []

    def visit(x: int, how: str) -> None:
        status[x] = how
        visits.append(x)

    for p in sorted(forced):
        visit(p, SELECTED)

    parent = t1.parent_map
    kids = t1.children_map()
    scan = sorted(nodes)
    scan_at = 0

    def lowest_open() -> int | None:
        nonlocal scan_at
        while scan_at < len(scan) and scan[scan_at] in status:
            scan_at += 1
        return scan[scan_at] if scan_at < len(scan) else None

    current = t1.root if t1.root not in status else lowest_open()
    while current is not None:
        a1 = current
        if a1 not in twin:
            raise AlgorithmInvariantError(f"open node {a1} has no cluster twin")
        visit(a1, SELECTED)
        a2 = twin[a1]
        if a2 in status:
            raise AlgorithmInvariantError(f"twin {a2} was already visited")
        visit(a2, BURNED)
        p = parent[a2]
        if p is not None and p not in status:
            current = p
            continue
        open_kids = [c for c in kids[a2] if c not in status]
        current = open_kids[0] if open_kids else lowest_open()
    return NodeSelection(status=status, visit_order=tuple(visits))


def build_t2(t1: Tree, selection: NodeSelection) -> Tree:
    """Tree on the selected nodes; every edge spans <= 3 hops in t1.

    Each selected node joins the nearest selected node strictly closer to
    the root, found by climbing: parent, grandparent, great-grandparent, and
    finally the twin's sibling that the walk selected right after burning
    the grandparent.  Every link climbs, which `Tree._linked` checks in
    place of a structure check.
    """
    if t1.root is None:
        raise DomainError("build_t2 needs a rooted tree")
    status = selection.status
    if status.get(t1.root) != SELECTED:
        raise DomainError("the root of t1 must be a selected node")
    parent = t1.parent_map
    order = selection.visit_order
    next_visited = {order[i]: order[i + 1] for i in range(len(order) - 1)}

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

    T1 is rooted at a node whose cluster contributes nothing else to T1 when
    one exists (so the root is certainly selected); otherwise at the
    lowest-id node, where the walk starts and selects it.  `build_t1` checks
    the clusters, and nothing after it checks them again.
    """
    t1 = build_t1(instance, clusters)
    singles = []
    for g in clusters.clusters:
        inside = [q for q in g if q in t1.nodes]
        if len(inside) == 1:
            singles.append(inside[0])
    root = min(singles) if singles else min(t1.nodes)
    t1 = t1.rooted_at(root)
    selection = _select(t1, clusters)
    t2 = build_t2(t1, selection)
    return GbstResult(
        tree=t2,
        bottleneck=max(instance._lengths(t2.edges), default=0.0),
        t1=t1,
        t1_bottleneck=max(instance._lengths(t1.edges), default=0.0),
        selection=selection,
    )
