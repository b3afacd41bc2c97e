import json
import math
import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottleneck_trees import (
    BottleneckTreeError,
    ClusterPartition,
    DomainError,
    IdentifierError,
    MetricInstance,
    PartitionError,
    TuplePartition,
    instance_document_to_dict,
    parse_instance_document,
    validate_metric,
)
from bottleneck_trees.generators import euclidean_instance, random_metric_instance


def test_distance_on_a_line():
    inst = MetricInstance.from_coordinates([(0.0,), (3.0,)])
    assert inst.distance(0, 1) == 3.0
    assert inst.distance(1, 0) == 3.0


def test_distance_self_is_zero():
    inst = MetricInstance.from_coordinates([(1.0, 2.0), (4.0, 6.0)])
    for u in range(2):
        assert inst.distance(u, u) == 0.0


def test_distance_matrix_readback():
    inst = MetricInstance.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert inst.distance(0, 2) == 2.0


def test_distance_bad_id():
    inst = MetricInstance.from_coordinates([(0.0,), (1.0,)])
    with pytest.raises(IdentifierError):
        inst.distance(0, 2)
    with pytest.raises(IdentifierError):
        inst.distance(-1, 0)


def test_validate_metric_path_matrix_ok():
    inst = MetricInstance.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert validate_metric(inst).ok


def test_validate_metric_triangle_violation():
    inst = MetricInstance.from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    report = validate_metric(inst)
    assert not report.ok
    assert ("triangle", 0, 1, 2) in report.violations


def test_validate_metric_symmetry_and_diagonal():
    inst = MetricInstance.from_matrix([[1, 2], [3, 0]])
    report = validate_metric(inst)
    tags = {v[0] for v in report.violations}
    assert "diagonal" in tags and "symmetry" in tags


def test_validate_metric_euclidean_always_ok():
    rng = random.Random(0)
    inst = euclidean_instance(3, 12, rng)
    assert validate_metric(inst).ok


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_random_metric_generator_is_metric(n, seed):
    inst = random_metric_instance(n, random.Random(seed))
    assert validate_metric(inst).ok
    for u in range(n):
        for v in range(n):
            assert inst.distance(u, v) == inst.distance(v, u)
            assert inst.distance(u, v) >= 0.0


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(DomainError):
        MetricInstance.from_coordinates([(0.0, 0.0), (bad, 1.0)])
    with pytest.raises(DomainError):
        MetricInstance(coordinates=((bad,),))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_matrix_rejected(bad):
    with pytest.raises(DomainError):
        MetricInstance.from_matrix([[0.0, bad], [bad, 0.0]])
    with pytest.raises(DomainError):
        MetricInstance.from_matrix([[0.0, 1.0], [1.0, bad]])


def test_opposite_infinities_rejected():
    # inf + -inf sums to nan; the row is still rejected, not accepted
    with pytest.raises(DomainError):
        MetricInstance.from_coordinates([(math.inf, -math.inf)])


def test_huge_finite_rows_accepted():
    # the row sums overflow to inf, but every entry and distance is finite
    big = 1e308
    inst = MetricInstance.from_coordinates([(big, big), (big / 2, big)])
    assert inst.coordinates == ((big, big), (big / 2, big))
    MetricInstance.from_matrix([[0.0, big, big], [big, 0.0, big], [big, big, 0.0]])


@pytest.mark.parametrize(
    "coords",
    [
        [(1e308, 1e308), (-1e308, 1e308)],  # the x difference overflows
        [(1.5e308, 0.0), (0.0, 1.5e308)],  # each difference is finite, the norm is not
    ],
)
def test_finite_coordinates_with_overflowing_distances_rejected(coords):
    with pytest.raises(DomainError, match="overflow"):
        MetricInstance.from_coordinates(coords)


def test_rows_are_float_tuples():
    inst = MetricInstance.from_matrix([[0, 1], [1, 0]])
    assert inst.matrix == ((0.0, 1.0), (1.0, 0.0))
    assert all(type(x) is float for row in inst.matrix for x in row)
    inst = MetricInstance.from_coordinates(iter([[1, 2], [3, 4]]))
    assert inst.coordinates == ((1.0, 2.0), (3.0, 4.0))


@pytest.mark.parametrize(
    "points",
    [
        {"coordinates": [["1.5"], [True], [2]]},
        {"coordinates": [[1.5], [True], [2]]},
        {"coordinates": [[0.5, "1"], [1.0, 2.0]]},
        {"matrix": [[0, 1], [1, "0"]]},
        {"matrix": [["0", 1.0], [1.0, 0.0]]},
        {"matrix": [[0.0, True], [True, 0.0]]},
        {"matrix": [[False, 1], [1, 0]]},
        {"coordinates": ["12", "34"]},
    ],
)
def test_strings_and_bools_are_not_numbers(points):
    kind, rows = next(iter(points.items()))
    with pytest.raises(DomainError):
        MetricInstance(**{kind: rows})
    with pytest.raises(DomainError):
        parse_instance_document({"points": points})
    with pytest.raises(DomainError):
        parse_instance_document(json.loads(json.dumps({"points": points})))


@pytest.mark.parametrize(
    "kind, rows",
    [
        ("matrix", [{0.0: 1}]),
        ("matrix", [MappingProxyType({0: 0.0})]),
        ("coordinates", [{1.0, 2.0}]),
        ("coordinates", [frozenset({1.0}), frozenset({2.0})]),
    ],
)
def test_mapping_and_set_rows_rejected(kind, rows):
    # A mapping row would contribute its keys; a set row has no order.
    with pytest.raises(DomainError, match="must be sequences"):
        MetricInstance(**{kind: rows})


def test_number_subclasses_other_than_bool_pass():
    class Real(float):
        pass

    class Whole(int):
        pass

    inst = MetricInstance.from_coordinates([[Real(0.5), Whole(2)], [1, 2.5]])
    assert inst.coordinates == ((0.5, 2.0), (1.0, 2.5))
    assert all(type(x) is float for row in inst.coordinates for x in row)


@pytest.mark.parametrize(
    "points",
    [
        {"coordinates": [[0.0, 0.0], [float("nan"), 1.0]]},
        {"coordinates": [[0.0], [float("inf")]]},
        {"matrix": [[0.0, float("inf")], [float("inf"), 0.0]]},
        {"matrix": [[0.0, float("nan")], [float("nan"), 0.0]]},
    ],
)
def test_instance_document_rejects_non_finite(points):
    with pytest.raises(DomainError):
        parse_instance_document({"points": points})


def test_instance_document_rejects_non_finite_from_json_text():
    # Python's json module reads NaN and Infinity literals
    text = '{"points": {"coordinates": [[0.0], [NaN]]}}'
    with pytest.raises(DomainError):
        parse_instance_document(json.loads(text))


def test_tuple_partition_validation():
    TuplePartition(k=2, tuples=((0, 1), (2, 3)))
    with pytest.raises(PartitionError):
        TuplePartition(k=2, tuples=((0, 1), (1, 2)))  # overlap
    with pytest.raises(PartitionError):
        TuplePartition(k=2, tuples=((0, 1), (2, 4)))  # gap in the universe
    with pytest.raises(PartitionError):
        TuplePartition(k=3, tuples=((0, 1), (2, 3)))  # wrong group size
    with pytest.raises(PartitionError):
        TuplePartition(k=1, tuples=((0,),))
    for bad_k in ("2", 2.0, None, True):
        with pytest.raises(PartitionError):
            TuplePartition(k=bad_k, tuples=((0, 1), (2, 3)))
    for bad in (True, False, "1", 1.0, None):
        with pytest.raises(DomainError):
            TuplePartition(k=2, tuples=((0, bad), (2, 3)))
    for not_iterable in (5, [5]):
        with pytest.raises(DomainError):
            TuplePartition(k=2, tuples=not_iterable)


def test_cluster_partition_validation():
    cp = ClusterPartition(k=2, clusters=((1,), (0, 2)))
    assert cp.point_ids() == [0, 1, 2]
    with pytest.raises(PartitionError):
        ClusterPartition(k=2, clusters=((0, 1, 2),))
    with pytest.raises(PartitionError):
        ClusterPartition(k=2, clusters=((0,), (0, 1)))
    for bad_k in (None, "2", 2.0, True, 1):
        with pytest.raises(PartitionError):
            ClusterPartition(k=bad_k, clusters=((1,), (0, 2)))
    for bad in (True, False, "1", 1.0, None):
        with pytest.raises(DomainError):
            ClusterPartition(k=2, clusters=((0,), (bad,)))
    for not_iterable in (5, [5]):
        with pytest.raises(DomainError):
            ClusterPartition(k=2, clusters=not_iterable)


@pytest.mark.parametrize("bad", [True, "1", 1.0])
def test_instance_document_rejects_non_integer_ids(bad):
    points = {"coordinates": [[0.0], [1.0], [2.0], [3.0]]}
    with pytest.raises(DomainError):
        parse_instance_document({"points": points, "tuples": [[0, bad], [2, 3]], "k": 2})
    with pytest.raises(DomainError):
        parse_instance_document({"points": points, "clusters": [[0, bad], [2, 3]]})


def test_instance_document_roundtrip():
    doc = parse_instance_document(
        {
            "points": {"coordinates": [[0.0], [1.0], [2.0], [3.0]]},
            "tuples": [[0, 3], [1, 2]],
            "k": 2,
        }
    )
    assert doc.instance.point_count == 4
    assert doc.tuples is not None and doc.tuples.k == 2
    again = parse_instance_document(json.loads(json.dumps(instance_document_to_dict(doc))))
    assert again.instance == doc.instance
    assert again.tuples == doc.tuples


def test_instance_document_rejects_non_metric_matrix():
    with pytest.raises(DomainError):
        parse_instance_document({"points": {"matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}})


def test_instance_document_rejects_unknown_geometry():
    with pytest.raises(DomainError):
        parse_instance_document({"points": {}})


def test_instance_document_rejects_both_geometries():
    points = {"coordinates": [[0.0], [1.0], [2.0]], "matrix": [[0, 4, 9], [4, 0, 5], [9, 5, 0]]}
    with pytest.raises(DomainError, match="'coordinates' and 'matrix'"):
        parse_instance_document({"points": points})


@pytest.mark.parametrize("k", ["x", "2", 2.9, 2.0, True, [2]])
def test_instance_document_rejects_non_integer_k(k):
    points = {"coordinates": [[0.0], [1.0], [2.0], [3.0]]}
    with pytest.raises(DomainError):
        parse_instance_document({"points": points, "tuples": [[0, 3], [1, 2]], "k": k})
    with pytest.raises(DomainError):
        parse_instance_document({"points": points, "clusters": [[0, 3], [1, 2]], "k": k})


@pytest.mark.parametrize("k", [-3, 0])
def test_instance_document_rejects_explicit_k_below_two(k):
    # An explicit k is checked as given, for clusters as for tuples.
    points = {"coordinates": [[0.0], [1.0], [2.0], [3.0]]}
    with pytest.raises(PartitionError, match=f"at least 2, got {k}"):
        parse_instance_document({"points": points, "tuples": [[0, 3], [1, 2]], "k": k})
    with pytest.raises(PartitionError, match=f"at least 2, got {k}"):
        parse_instance_document({"points": points, "clusters": [[0, 3], [1, 2]], "k": k})


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_small_ints = st.integers(min_value=-1, max_value=4)
_id_groups = st.lists(st.lists(_small_ints | _json_scalars, max_size=3), max_size=3)
_malformed_documents = st.fixed_dictionaries(
    {},
    optional={
        "points": st.one_of(
            _json_values,
            st.fixed_dictionaries({}, optional={
                "coordinates": st.one_of(
                    _json_values, st.lists(st.lists(_json_scalars, max_size=2), max_size=4)
                ),
                "matrix": st.one_of(
                    _json_values, st.lists(st.lists(_json_scalars, max_size=4), max_size=4)
                ),
            }),
        ),
        "tuples": st.one_of(_json_values, _id_groups),
        "clusters": st.one_of(_json_values, _id_groups),
        "k": st.one_of(_json_scalars, _small_ints),
    },
) | _json_values


@settings(max_examples=400, deadline=None)
@given(_malformed_documents)
def test_instance_document_fuzz_raises_only_package_errors(doc):
    # Anything malformed must surface as a BottleneckTreeError subclass,
    # never as a bare KeyError, TypeError or ValueError.
    try:
        parse_instance_document(doc)
    except BottleneckTreeError:
        pass
