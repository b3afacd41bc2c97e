import random
from itertools import product

import pytest

from bottleneck_trees import (
    AlgorithmInvariantError,
    ClusterPartition,
    DomainError,
    InfeasibleError,
    MetricInstance,
    NodeSelection,
    PartitionError,
    Tree,
    bottleneck,
    build_t1,
    build_t2,
    exact_gbst,
    hop_distance,
    minimum_spanning_tree,
    select_nodes,
    solve_2gbst,
)
from bottleneck_trees.gbst import BURNED, SELECTED
from bottleneck_trees.oracle import _cover_bound, _table, _threshold
from bottleneck_trees.generators import (
    euclidean_instance,
    gbst_path8,
    random_clusters,
    random_metric_instance,
    random_tree,
)


def _rooted_for_selection(tree, clusters):
    singles = []
    for g in clusters.clusters:
        inside = [q for q in g if q in tree.nodes]
        if len(inside) == 1:
            singles.append(inside[0])
    return tree.rooted_at(min(singles) if singles else min(tree.nodes))


def _random_even_clusters(n, rng):
    extra = 2 * rng.randrange(0, n // 4 + 1)
    singletons = n % 2 + extra
    singletons = min(singletons, n - (n - singletons) % 2)
    return random_clusters(n, rng, singletons=singletons)


def test_build_t1_stops_at_first_covering_component():
    inst = MetricInstance.from_coordinates([(0.0,), (1.0,), (5.0,)])
    clusters = ClusterPartition(k=2, clusters=((0,), (1, 2)))
    t1 = build_t1(inst, clusters)
    assert t1.nodes == frozenset({0, 1})
    assert bottleneck(t1, inst) == 1.0


def test_build_t1_all_singletons_spans_everything():
    rng = random.Random(3)
    inst = random_metric_instance(7, rng)
    clusters = ClusterPartition(k=2, clusters=tuple((p,) for p in range(7)))
    t1 = build_t1(inst, clusters)
    mst = minimum_spanning_tree(inst, range(7))
    assert t1.nodes == frozenset(range(7))
    assert bottleneck(t1, inst) == bottleneck(mst, inst)


def test_build_t1_never_exceeds_optimum():
    rng = random.Random(17)
    for trial in range(120):
        n = rng.randint(2, 10)
        inst = (
            euclidean_instance(2, n, rng) if trial % 2 else random_metric_instance(n, rng)
        )
        clusters = _random_even_clusters(n, rng)
        t1 = build_t1(inst, clusters)
        _, optimal = exact_gbst(inst, clusters)
        assert bottleneck(t1, inst) <= optimal + 1e-9
        for g in clusters.clusters:
            assert t1.nodes & set(g)


def _threshold_sweep_reference(inst, clusters):
    """Full threshold sweep over all pairs in (distance, u, v) order.

    Returns the node set and the merging edges of the first component that
    covers every cluster, in sweep order.
    """
    n = inst.point_count
    ranked = sorted((inst.distance(u, v), u, v) for u in range(n) for v in range(u + 1, n))
    cluster_of = {p: i for i, g in enumerate(clusters.clusters) for p in g}
    comp = {p: frozenset({p}) for p in range(n)}
    merges = []
    for _, u, v in ranked:
        if comp[u] is comp[v]:
            continue
        joined = comp[u] | comp[v]
        for p in joined:
            comp[p] = joined
        merges.append((u, v))
        if len({cluster_of[p] for p in joined}) == len(clusters.clusters):
            return joined, tuple(e for e in merges if e[0] in joined)
    raise AssertionError("no component covered every cluster")


def test_build_t1_matches_full_threshold_sweep():
    rng = random.Random(29)
    for trial in range(90):
        n = rng.randint(2, 30)
        if trial % 3 == 0:
            inst = euclidean_instance(2, n, rng)
        elif trial % 3 == 1:
            inst = random_metric_instance(n, rng)
        else:
            inst = MetricInstance.from_coordinates(
                [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
            )
        clusters = _random_even_clusters(n, rng)
        if len(clusters.clusters) == 1:
            continue
        nodes, edges = _threshold_sweep_reference(inst, clusters)
        t1 = build_t1(inst, clusters)
        assert t1.nodes == nodes
        assert t1.edges == edges
        assert t1.edges == minimum_spanning_tree(inst, nodes).edges


def test_solve_builds_one_mst(monkeypatch):
    import bottleneck_trees.gbst as gbst
    import bottleneck_trees.trees as trees

    calls, kernel_calls = [], []
    mst, kernel = gbst._mst, trees._mst_triples

    def counted(instance, points):
        calls.append(points)
        return mst(instance, points)

    def counted_kernel(instance, points):
        kernel_calls.append(points)
        return kernel(instance, points)

    monkeypatch.setattr(gbst, "_mst", counted)
    monkeypatch.setattr(trees, "_mst_triples", counted_kernel)
    rng = random.Random(4)
    inst = euclidean_instance(2, 40, rng)
    solve_2gbst(inst, _random_even_clusters(40, rng))
    assert calls == kernel_calls == [list(range(40))]


def test_build_t1_rejects_oversized_clusters():
    inst = MetricInstance.from_coordinates([(0.0,), (1.0,), (2.0,)])
    with pytest.raises(PartitionError):
        build_t1(inst, ClusterPartition(k=3, clusters=((0, 1, 2),)))


def test_select_nodes_forced_pair():
    t1 = Tree(frozenset({0, 1, 2}), ((0, 1), (1, 2)), root=0)
    clusters = ClusterPartition(k=2, clusters=((0,), (1, 2)))
    sel = select_nodes(t1, clusters)
    assert sel.status[0] == SELECTED
    assert {sel.status[1], sel.status[2]} == {SELECTED, BURNED}
    assert len(sel.selected_nodes()) == 2


def test_select_nodes_all_singletons():
    t1 = Tree(frozenset(range(4)), ((0, 1), (1, 2), (2, 3)), root=0)
    clusters = ClusterPartition(k=2, clusters=tuple((p,) for p in range(4)))
    sel = select_nodes(t1, clusters)
    assert sel.selected_nodes() == [0, 1, 2, 3]
    assert BURNED not in sel.status.values()


def test_select_nodes_missing_cluster():
    t1 = Tree(frozenset({0, 1}), ((0, 1),), root=0)
    clusters = ClusterPartition(k=2, clusters=((0, 1), (2, 3)))
    with pytest.raises(InfeasibleError):
        select_nodes(t1, clusters)


def test_select_nodes_invariants_random():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 40)
        tree = random_tree(n, rng)
        clusters = random_clusters(n, rng)
        t1 = _rooted_for_selection(tree, clusters)
        sel = select_nodes(t1, clusters)
        # nothing left open, exactly one selected per cluster
        assert set(sel.status) == set(tree.nodes)
        for g in clusters.clusters:
            assert sum(1 for p in g if sel.status[p] == SELECTED) == 1


def test_build_t2_everything_selected_copies_t1():
    tree = random_tree(12, random.Random(5))
    t1 = tree.rooted_at(min(tree.leaves()))
    clusters = ClusterPartition(k=2, clusters=tuple((p,) for p in range(12)))
    sel = select_nodes(t1, clusters)
    t2 = build_t2(t1, sel)
    assert t2.nodes == t1.nodes
    assert set(t2.edges) == set(t1.edges)


def test_build_t2_hop_bound_random():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 50)
        tree = random_tree(n, rng)
        clusters = random_clusters(n, rng)
        t1 = _rooted_for_selection(tree, clusters)
        sel = select_nodes(t1, clusters)
        t2 = build_t2(t1, sel)
        assert t2.nodes == frozenset(sel.selected_nodes())
        for u, v in t2.edges:
            assert hop_distance(t1, u, v) <= 3


def test_build_t2_hop_bound_large_tree():
    rng = random.Random(99)
    tree = random_tree(10_000, rng)
    clusters = random_clusters(10_000, rng)
    t1 = _rooted_for_selection(tree, clusters)
    sel = select_nodes(t1, clusters)
    t2 = build_t2(t1, sel)
    assert all(hop_distance(t1, u, v) <= 3 for u, v in t2.edges)


def test_path8_fixture_is_tight():
    fixture = gbst_path8()
    assert fixture.clusters is not None
    _, optimal = exact_gbst(fixture.instance, fixture.clusters)
    assert optimal == 3.0
    result = solve_2gbst(fixture.instance, fixture.clusters)
    # T1 is the whole unit path, and the construction is forced to emit a
    # hop-3 edge: the bound of 3 is tight.
    assert result.t1.nodes == frozenset(range(8))
    hops = [hop_distance(result.t1, u, v) for u, v in result.tree.edges]
    assert max(hops) == 3
    assert result.bottleneck <= 3.0 * optimal + 1e-9


def test_solve_all_singletons_is_exact():
    rng = random.Random(31)
    inst = random_metric_instance(9, rng)
    clusters = ClusterPartition(k=2, clusters=tuple((p,) for p in range(9)))
    result = solve_2gbst(inst, clusters)
    mst = minimum_spanning_tree(inst, range(9))
    assert result.bottleneck == pytest.approx(bottleneck(mst, inst))


def test_solve_single_point():
    inst = MetricInstance.from_coordinates([(0.0,)])
    clusters = ClusterPartition(k=2, clusters=((0,),))
    result = solve_2gbst(inst, clusters)
    assert result.bottleneck == 0.0
    assert result.tree.nodes == frozenset({0})


def test_solve_forced_choice_outside_component():
    # {0,100-ish} pairs where one endpoint sits far away: the near point is
    # forced once the covering component excludes the far one
    inst = MetricInstance.from_coordinates([(0.0,), (1.0,), (2.0,), (100.0,)])
    clusters = ClusterPartition(k=2, clusters=((0, 3), (1,), (2,)))
    result = solve_2gbst(inst, clusters)
    assert result.t1.nodes == frozenset({0, 1, 2})
    assert result.tree.nodes == frozenset({0, 1, 2})
    assert result.bottleneck == 1.0
    _, optimal = exact_gbst(inst, clusters)
    assert optimal == 1.0


def test_solve_ratio_against_oracle():
    rng = random.Random(77)
    for trial in range(150):
        n = rng.randint(2, 12)
        inst = (
            euclidean_instance(2, n, rng) if trial % 2 else random_metric_instance(n, rng)
        )
        clusters = _random_even_clusters(n, rng)
        result = solve_2gbst(inst, clusters)
        _, optimal = exact_gbst(inst, clusters)
        assert result.bottleneck <= 3 * optimal + 1e-9
        chosen = result.tree.nodes
        for g in clusters.clusters:
            assert len(chosen & set(g)) == 1


def _reference_exact_gbst(instance, clusters):
    """exact_gbst before it stopped at a lower bound (its size checks left out)."""
    best_value = None
    best_choice = None
    for choice in product(*clusters.clusters):
        value = _threshold(instance, sorted(choice))
        if best_value is None or value < best_value:
            best_value, best_choice = value, choice
    return minimum_spanning_tree(instance, best_choice), best_value


def _gbst_oracle_cases():
    """Seeded (instance, clusters) pairs: Euclidean, random-metric, tie-heavy
    3x3 integer grids with duplicates, asymmetric integer matrices and
    matrices with negative entries, on 1-16 points."""
    rng = random.Random(41)
    kinds = ("euclidean", "metric", "grid", "asymmetric", "negative")
    for i in range(300):
        n = 1 + i % 16
        kind = kinds[i // 16 % len(kinds)]
        if kind == "euclidean":
            inst = euclidean_instance(2, n, rng)
        elif kind == "metric":
            inst = random_metric_instance(n, rng)
        elif kind == "grid":
            inst = MetricInstance.from_coordinates(
                [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(n)]
            )
        else:
            low = -3 if kind == "negative" else 0
            inst = MetricInstance.from_matrix(
                [[rng.randint(low, 5) for _ in range(n)] for _ in range(n)]
            )
        # at most 12 clusters: s singletons and (n - s) / 2 pairs
        singletons = rng.choice(range(n % 2, min(n, 24 - n) + 1, 2))
        yield inst, random_clusters(n, rng, singletons=singletons)


def test_exact_gbst_stops_at_a_bound_that_keeps_its_answers():
    cases = list(_gbst_oracle_cases())
    assert len(cases) == 300
    for inst, clusters in cases:
        tree, value = exact_gbst(inst, clusters)
        want_tree, want_value = _reference_exact_gbst(inst, clusters)
        assert (tree.nodes, tree.edges, tree.root) == (
            want_tree.nodes,
            want_tree.edges,
            want_tree.root,
        )
        assert repr(value) == repr(want_value)
        assert _cover_bound(_table(inst), clusters.clusters) <= value


def test_cover_bound_is_t1s_threshold():
    rng = random.Random(43)
    for trial in range(120):
        n = rng.randint(2, 14)
        inst = euclidean_instance(2, n, rng) if trial % 2 else random_metric_instance(n, rng)
        clusters = _random_even_clusters(n, rng)
        bound = _cover_bound(_table(inst), clusters.clusters)
        if len(clusters.clusters) == 1:
            assert bound == float("-inf")
        else:
            assert bound == bottleneck(build_t1(inst, clusters), inst)


def _path4_selection():
    """The path 0-1-2-3 rooted at 0 and the walk's selection for (0), (1, 2), (3)."""
    t1 = Tree(frozenset(range(4)), ((0, 1), (1, 2), (2, 3)), root=0)
    sel = select_nodes(t1, ClusterPartition(k=2, clusters=((0,), (1, 2), (3,))))
    assert build_t2(t1, sel).nodes == frozenset(sel.selected_nodes())
    return t1, sel


def test_build_t2_rejects_a_status_that_misses_a_node():
    t1, _ = _path4_selection()
    with pytest.raises(DomainError):
        build_t2(t1, NodeSelection({0: SELECTED, 3: SELECTED}, (0, 3)))


def test_build_t2_rejects_a_status_outside_the_tree():
    t1, sel = _path4_selection()
    status = {**sel.status, 7: BURNED}
    with pytest.raises(DomainError):
        build_t2(t1, NodeSelection(status, (*sel.visit_order, 7)))


def test_build_t2_rejects_an_unknown_status_value():
    t1, sel = _path4_selection()
    burned = next(v for v, s in sel.status.items() if s == BURNED)
    with pytest.raises(DomainError):
        build_t2(t1, NodeSelection({**sel.status, burned: "weird"}, sel.visit_order))


@pytest.mark.parametrize(
    "order",
    [(0, 3, 1), (0, 3, 1, 2, 2), (0, 3, 1, 1), (0, 3, 1, 7), (0, 3, 1, 2, 7)],
    ids=["missing", "repeated-extra", "repeated", "foreign", "foreign-extra"],
)
def test_build_t2_rejects_a_visit_order_that_is_not_t1s_nodes(order):
    t1, sel = _path4_selection()
    assert sel.visit_order == (0, 3, 1, 2)
    with pytest.raises(DomainError):
        build_t2(t1, NodeSelection(sel.status, order))


_PATH5 = Tree(frozenset(range(5)), ((0, 1), (1, 2), (2, 3), (3, 4)), root=0)


def test_select_nodes_rejects_a_node_in_no_cluster():
    clusters = ClusterPartition(k=2, clusters=((0,), (1, 2), (3,)))
    with pytest.raises(PartitionError, match="t1 node 4 belongs to no cluster"):
        select_nodes(_PATH5, clusters)


def test_build_t2_rejects_a_selection_that_breaks_the_three_hop_rule():
    status = {0: SELECTED, 4: SELECTED, 1: BURNED, 2: BURNED, 3: BURNED}
    with pytest.raises(DomainError, match="three-hop rule.*above 4"):
        build_t2(_PATH5, NodeSelection(status, (0, 4, 1, 2, 3)))


def _reference_select(t1: Tree, clusters: ClusterPartition) -> NodeSelection:
    """gbst._select before the single cluster scan, copied verbatim."""
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


def _reference_build_t2(t1: Tree, selection: NodeSelection) -> Tree:
    """build_t2 before its lazy visit index, copied verbatim."""
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


def _walk_pin_cases():
    """Seeded Euclidean and random-metric cases of certify size (1-18 points)
    with every even-offset count of singletons from n % 2 to n, then five
    cases of 300-1200 points."""
    rng = random.Random(2029)
    for n in range(1, 19):
        for singletons in range(n % 2, n + 1, 2):
            for kind in ("euclidean", "metric"):
                for _ in range(3):
                    if kind == "euclidean":
                        inst = euclidean_instance(2, n, rng)
                    else:
                        inst = random_metric_instance(n, rng)
                    yield inst, random_clusters(n, rng, singletons=singletons)
    for n, singletons, kind in (
        (300, 0, "metric"),
        (300, 60, "euclidean"),
        (601, 1, "euclidean"),
        (900, 300, "euclidean"),
        (1200, 0, "euclidean"),
    ):
        if kind == "euclidean":
            inst = euclidean_instance(2, n, rng)
        else:
            inst = random_metric_instance(n, rng)
        yield inst, random_clusters(n, rng, singletons=singletons)


def _walk_outputs(selection, t2):
    return (
        list(selection.status.items()),
        selection.visit_order,
        t2.edges,
        t2.root,
    )


def _fallback_links(t1, t2):
    """T2 links that do not climb to an ancestor in t1 (the grandparent fallback)."""
    parent, depth = t1.parent_map, t1.depth_map
    count = 0
    for x, p in t2.parent_map.items():
        if p is None:
            continue
        up = x
        for _ in range(depth[x] - depth[p]):
            up = parent[up]
        count += up != p
    return count


def test_walk_matches_the_child_map_walk():
    cases = list(_walk_pin_cases())
    assert len(cases) == 5 + 6 * sum(n // 2 + 1 for n in range(1, 19))
    fallbacks = 0
    for inst, clusters in cases:
        result = solve_2gbst(inst, clusters)
        t1 = _rooted_for_selection(build_t1(inst, clusters), clusters)
        want = _reference_select(t1, clusters)
        want_t2 = _reference_build_t2(t1, want)
        assert result.t1.root == t1.root
        assert _walk_outputs(result.selection, result.tree) == _walk_outputs(want, want_t2)
        want_bottleneck = max((inst.distance(u, v) for u, v in t1.edges), default=0.0)
        assert repr(result.t1_bottleneck) == repr(want_bottleneck)

        sel = select_nodes(t1, clusters)
        assert _walk_outputs(sel, build_t2(t1, sel)) == _walk_outputs(want, want_t2)
        fallbacks += _fallback_links(t1, want_t2)
    assert fallbacks > 0


def test_walk_matches_the_child_map_walk_on_random_trees():
    rng = random.Random(2031)
    fallbacks = 0
    for _ in range(400):
        n = rng.randint(1, 60)
        tree = random_tree(n, rng)
        clusters = random_clusters(n, rng, singletons=rng.choice(range(n % 2, n + 1, 2)))
        t1 = _rooted_for_selection(tree, clusters)
        want = _reference_select(t1, clusters)
        want_t2 = _reference_build_t2(t1, want)
        sel = select_nodes(t1, clusters)
        assert _walk_outputs(sel, build_t2(t1, sel)) == _walk_outputs(want, want_t2)
        fallbacks += _fallback_links(t1, want_t2)
    assert fallbacks > 0
