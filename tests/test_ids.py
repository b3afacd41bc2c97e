"""The one id and group check in metric.py against the checks it replaced.

The reference functions below are verbatim copies of the id, group and
double-partition checks that metric.py and labeling.py used before they
shared one C-speed type pass, plus the parts of `MetricInstance`, `Tree`,
`TuplePartition`, `ClusterPartition` and `tree_from_dict` that called them.
Every input must give the same exception class and message, or the same
normalized groups, tree fields or result.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bottleneck_trees import (
    ClusterPartition,
    DomainError,
    IdentifierError,
    MetricInstance,
    PartitionError,
    Tree,
    TuplePartition,
    is_valid_labeling,
    konig_labeling,
    minimum_spanning_tree,
    representatives,
    tour_bottleneck,
)
from bottleneck_trees import labeling
from bottleneck_trees.generators import random_tree
from bottleneck_trees.trees import _check_structure, _normalize_edge, tree_from_dict

_INT = {int}


def _is_int(value) -> bool:
    """An int that is not a bool (True would silently stand for 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int_ids(ids, what: str) -> None:
    """Each id must be an int, not a bool."""
    for p in ids:
        if not _is_int(p):
            raise DomainError(f"{what} id {p!r} is not an integer")


def _point_ids(group, what: str) -> tuple[int, ...]:
    """The group's ids in ascending order; each must be an int, not a bool."""
    ids = tuple(group)
    _check_int_ids(ids, f"{what} point")
    return tuple(sorted(ids))


def _check_disjoint_groups(groups, what: str) -> set[int]:
    """The union of the groups, which must not share or repeat a point."""
    seen: set[int] = set()
    for group in groups:
        for p in group:
            if p in seen:
                raise PartitionError(f"point {p} appears in more than one {what}")
            seen.add(p)
    return seen


def _validate_double_partition(a_groups, b_groups):
    a = [_point_ids(g, "first partition") for g in a_groups]
    b = [_point_ids(g, "second partition") for g in b_groups]
    if not a or not b:
        raise PartitionError("both partitions must contain at least one group")
    if len(a) != len(b):
        raise PartitionError("both partitions must have the same number of groups")
    size = len(a[0])
    universes = []
    for name, family in (("first", a), ("second", b)):
        if any(len(g) != size for g in family):
            raise PartitionError(f"{name} partition has groups of unequal size")
        universes.append(_check_disjoint_groups(family, f"{name} partition group"))
    if universes[0] != universes[1]:
        raise PartitionError("the two partitions must cover the same universe")
    return a, b, size


# MetricInstance._check_id and _check_ids, with the instance as `self`.
def _check_id(self, p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < self.point_count:
        raise IdentifierError(f"point id {p!r} not in 0..{self.point_count - 1}")


def _check_ids(self, ids) -> None:
    if not ids:
        return
    if set(map(type, ids)) <= _INT and min(ids) >= 0 and max(ids) < self.point_count:
        return
    for p in ids:
        _check_id(self, p)


def _reference_tuples(k, tuples):
    """TuplePartition.__post_init__, returning the normalized tuples."""
    if not _is_int(k) or k < 2:
        raise PartitionError(f"tuple size k must be an integer of at least 2, got {k!r}")
    groups = tuple(_point_ids(g, "tuple") for g in tuples)
    if not groups:
        raise PartitionError("at least one tuple is required")
    if any(len(g) != k for g in groups):
        raise PartitionError(f"every tuple must have exactly {k} points")
    universe = _check_disjoint_groups(groups, "tuple")
    expected = set(range(k * len(groups)))
    if universe != expected:
        raise PartitionError(f"tuples must cover exactly the points 0..{k * len(groups) - 1}")
    return groups


def _reference_clusters(k, clusters):
    """ClusterPartition.__post_init__, returning the normalized clusters."""
    if not _is_int(k) or k < 2:
        raise PartitionError(
            f"maximum cluster size k must be an integer of at least 2, got {k!r}"
        )
    groups = tuple(_point_ids(g, "cluster") for g in clusters)
    if not groups:
        raise PartitionError("at least one cluster is required")
    if any(not 1 <= len(g) <= k for g in groups):
        raise PartitionError(f"every cluster must have between 1 and {k} points")
    _check_disjoint_groups(groups, "cluster")
    return groups


def _reference_tree(nodes, edges, root):
    """Tree.__post_init__, returning the normalized fields."""
    nodes = frozenset(nodes)
    edges = tuple(edges)
    _check_int_ids(nodes, "tree node")
    _check_int_ids((x for e in edges for x in e), "tree edge endpoint")
    if root is not None:
        _check_int_ids((root,), "tree root")
    edges = tuple(_normalize_edge(u, v) for u, v in edges)
    _check_structure(nodes, edges, root)
    return nodes, edges, root


def _reference_tree_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise DomainError("a tree document must be an object")
    nodes, edges = doc.get("nodes"), doc.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise DomainError("a tree document needs 'nodes' and 'edges' lists")
    _check_int_ids(nodes, "tree node")
    if not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise DomainError("tree edges must be [u, v] pairs")
    return _reference_tree(frozenset(nodes), tuple((u, v) for u, v in edges), doc.get("root"))


def _outcome(call, *args):
    """("ok", the result), or the class and message of what `call` raised."""
    try:
        return "ok", call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _fields(tree):
    return tree.nodes, tree.edges, tree.root


# Ids that are not ints, some equal to one (True, 1.0), one unhashable.
ODD_IDS = st.sampled_from([True, False, 1.0, 2.5, "1", "a", None, [1]])
IDS = st.one_of(st.integers(min_value=-1, max_value=9), ODD_IDS)


@st.composite
def _mutate(draw, groups):
    """The groups with a few ids replaced, inserted, repeated or dropped, and
    maybe a whole group added or dropped."""
    groups = [list(g) for g in groups]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        op = draw(st.sampled_from(["replace", "insert", "repeat", "drop", "add", "remove"]))
        if op == "add" or not groups:
            groups.append(draw(st.lists(IDS, max_size=3)))
            continue
        i = draw(st.integers(min_value=0, max_value=len(groups) - 1))
        g = groups[i]
        if op == "remove":
            del groups[i]
        elif op == "repeat":
            g.append(draw(st.sampled_from([p for h in groups for p in h] or [0])))
        elif op == "insert" or not g:
            g.insert(draw(st.integers(min_value=0, max_value=len(g))), draw(IDS))
        elif op == "replace":
            g[draw(st.integers(min_value=0, max_value=len(g) - 1))] = draw(IDS)
        else:
            g.pop(draw(st.integers(min_value=0, max_value=len(g) - 1)))
    return [tuple(g) for g in groups]


@st.composite
def double_partitions(draw):
    """Two splits of 0..kn-1 into n groups of k, each then mutated."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=4))
    families = []
    for _ in range(2):
        ids = draw(st.permutations(range(k * n)))
        families.append(draw(_mutate([ids[i : i + k] for i in range(0, k * n, k)])))
    return k, families[0], families[1]


@st.composite
def tree_parts(draw):
    """A random tree's nodes, edges and root, with a few ids replaced."""
    n = draw(st.integers(min_value=1, max_value=6))
    tree = random_tree(n, random.Random(draw(st.integers(min_value=0, max_value=10**6))))
    nodes = sorted(tree.nodes)
    edges = [list(e) for e in tree.edges]
    root = draw(st.one_of(st.none(), st.sampled_from(nodes)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        where = draw(st.sampled_from(["node", "edge", "root", "flip", "extra"]))
        if where == "node":
            nodes[draw(st.integers(min_value=0, max_value=n - 1))] = draw(IDS)
        elif where == "edge" and edges:
            edge = edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))]
            edge[draw(st.integers(min_value=0, max_value=len(edge) - 1))] = draw(IDS)
        elif where == "root":
            root = draw(IDS)
        elif where == "flip" and edges:
            edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))].reverse()
        elif where == "extra":
            edges.append(draw(st.lists(IDS, min_size=1, max_size=3)))
    return nodes, edges, root


@given(double_partitions())
@settings(max_examples=300, deadline=None)
def test_partitions_match_the_reference(case):
    k, a, b = case
    for family in (a, b):
        for size in {max(2, k), k + 1}:
            got = _outcome(lambda: TuplePartition(size, family).tuples)
            assert got == _outcome(_reference_tuples, size, family)
            got = _outcome(lambda: ClusterPartition(size, family).clusters)
            assert got == _outcome(_reference_clusters, size, family)


@given(double_partitions())
@settings(max_examples=300, deadline=None)
# The second family's ids are checked before anything about the first but
# its ids: before its emptiness, its group count, its sizes and its repeats.
@example((2, [], [(0, "a")]))
@example((2, [(0, 1)], [(0, 1), (2, 2.5)]))
@example((2, [(0, 1), (2,)], [(0, None)]))
@example((2, [(0, 0)], [(True, 1)]))
def test_double_partitions_match_the_reference(case):
    k, a, b = case
    want = _outcome(_validate_double_partition, a, b)
    if want[0] == "ok" and want[1][2] == 0:
        # the one departure from the reference: empty groups are rejected
        want = (PartitionError, "partition groups must hold at least one point")
    status, got = _outcome(labeling._validate_double_partition, a, b)
    if want[0] != "ok":
        assert (status, got) == want
        assert _outcome(representatives, a, b) == want
        assert _outcome(konig_labeling, a, b, k) == want
        assert _outcome(is_valid_labeling, labeling.Labeling({}, k), a, b) == want
        return
    ref_a, ref_b, size = want[1]
    assert (list(got[0]), list(got[1]), got[2]) == (ref_a, ref_b, size)
    # Past validation the labeling code is unchanged, so it must act on the
    # raw groups as it does on the reference's normalized ones.
    assert _outcome(representatives, a, b) == _outcome(representatives, ref_a, ref_b)
    assert _outcome(konig_labeling, a, b, k) == _outcome(konig_labeling, ref_a, ref_b, k)
    if size == k:
        assert is_valid_labeling(konig_labeling(a, b, k), a, b)


def test_empty_groups_are_a_partition_error():
    # The reference accepts them; the matching then fails as if the package
    # had a bug (AlgorithmInvariantError), or the labeling hits an IndexError.
    for a, b in (([()], [()]), ([(), ()], [(), ()])):
        with pytest.raises(PartitionError, match="at least one point"):
            representatives(a, b)
        with pytest.raises(PartitionError, match="at least one point"):
            konig_labeling(a, b, 0)


@given(tree_parts())
@settings(max_examples=300, deadline=None)
def test_trees_match_the_reference(parts):
    nodes, edges, root = parts
    want = _outcome(_reference_tree, nodes, [tuple(e) for e in edges], root)
    nodes_ok = _outcome(lambda: _check_int_ids(frozenset(nodes), "tree node"))[0] == "ok"
    if nodes_ok and any(len(e) != 2 for e in edges):
        # the one departure from the reference: once the node ids pass, an
        # edge that is not a pair is named as tree_from_dict names it
        want = (DomainError, "tree edges must be [u, v] pairs")
    got = _outcome(lambda: _fields(Tree(frozenset(nodes), [tuple(e) for e in edges], root)))
    assert got == want
    doc = {"nodes": nodes, "edges": edges, "root": root}
    assert _outcome(lambda: _fields(tree_from_dict(doc))) == _outcome(_reference_tree_from_dict, doc)


@given(st.lists(st.one_of(st.integers(min_value=-2, max_value=5), ODD_IDS), max_size=6))
@settings(max_examples=300, deadline=None)
def test_instance_ids_match_the_reference(ids):
    for inst in (
        MetricInstance.from_coordinates([(0.0,), (1.0,), (3.0,), (7.0,)]),
        MetricInstance.from_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]]),
    ):
        want = _outcome(_check_ids, inst, ids)
        if want[0] != "ok":
            assert _outcome(minimum_spanning_tree, inst, ids) == want
            assert _outcome(tour_bottleneck, ids, inst) == want
            assert _outcome(tour_bottleneck, iter(ids), inst) == want
        elif ids:
            assert minimum_spanning_tree(inst, ids).nodes == frozenset(ids)
            assert tour_bottleneck(iter(ids), inst) == tour_bottleneck(ids, inst) >= 0.0
        else:
            assert _outcome(minimum_spanning_tree, inst, ids)[0] is DomainError
            assert _outcome(tour_bottleneck, ids, inst)[0] is DomainError
        for u, v in zip(ids, ids[1:]):
            want = _outcome(lambda: (_check_id(inst, u), _check_id(inst, v)))
            got = _outcome(inst.distance, u, v)
            assert got[0] == want[0]
            if want[0] != "ok":
                assert got == want


def test_a_repeat_is_named_after_sorting_each_group():
    # A flat scan of the unsorted group would name 5.
    for make in (TuplePartition, ClusterPartition):
        with pytest.raises(PartitionError, match="^point 2 appears"):
            make(4, [(5, 2, 5, 2)])
    with pytest.raises(PartitionError, match="^point 2 appears in more than one first"):
        representatives([(5, 2, 5, 2)], [(2, 5, 2, 5)])
