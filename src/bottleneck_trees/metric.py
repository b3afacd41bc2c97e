"""Metric instances and the two partition annotations.

Points are the integers 0..point_count-1.  An instance is either Euclidean
(one coordinate sequence per point) or an explicit symmetric distance matrix.
Explicit matrices are expected to satisfy the metric axioms; `validate_metric`
checks them and instance documents loaded from JSON are validated eagerly.

Ties between equal distances are always broken by lexicographic (u, v) edge
order, so every algorithm in this package is deterministic for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .errors import DomainError, IdentifierError, PartitionError


_INT = {int}
_NUMBER = {int, float}


def _finite_rows(rows, what: str) -> tuple[tuple[float, ...], ...]:
    """Rows as float tuples; a non-number, NaN or infinity is a DomainError.

    Numbers are ints and floats (and their subclasses), never bools or
    numeric strings.  Each row's entry types are read in one C-level pass,
    so all-float rows are kept as they are and only other rows are checked
    entry by entry and converted.  A row is checked for finiteness through
    its sum, and entry by entry only when the sum is not finite, so huge
    but finite rows whose sum overflows still pass.
    """
    out = []
    try:
        for row in map(tuple, rows):
            types = list(map(type, row))
            if types.count(float) != len(types):
                if not set(types) <= _NUMBER:
                    for x in row:
                        if isinstance(x, bool) or not isinstance(x, (int, float)):
                            raise DomainError(f"{what} rows must hold numbers, got {x!r}")
                row = tuple(map(float, row))
            out.append(row)
    except (TypeError, OverflowError) as exc:
        raise DomainError(f"{what} rows must be sequences of numbers: {exc}") from None
    for i, row in enumerate(out):
        if not math.isfinite(sum(row)):
            for x in row:
                if not math.isfinite(x):
                    raise DomainError(f"{what} row {i} holds a non-finite value {x!r}")
    return tuple(out)


@dataclass(frozen=True)
class MetricInstance:
    """A finite metric space over points 0..point_count-1.

    Exactly one of `coordinates` (Euclidean geometry) or `matrix` (explicit
    distances) is set.  Coincident points are allowed; distances may be any
    non-negative reals.  Every coordinate and matrix entry must be finite.
    """

    coordinates: tuple[tuple[float, ...], ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if (self.coordinates is None) == (self.matrix is None):
            raise DomainError("exactly one of coordinates or matrix must be given")
        if self.coordinates is not None:
            coords = _finite_rows(self.coordinates, "coordinate")
            if not coords:
                raise DomainError("an instance needs at least one point")
            dim = len(coords[0])
            if any(len(row) != dim for row in coords):
                raise DomainError("all coordinate sequences must have the same dimension")
            object.__setattr__(self, "coordinates", coords)
        else:
            assert self.matrix is not None
            rows = _finite_rows(self.matrix, "distance")
            if not rows:
                raise DomainError("an instance needs at least one point")
            if any(len(row) != len(rows) for row in rows):
                raise DomainError("distance matrix must be square")
            object.__setattr__(self, "matrix", rows)

    @classmethod
    def from_coordinates(cls, coordinates) -> "MetricInstance":
        return cls(coordinates=coordinates)

    @classmethod
    def from_matrix(cls, matrix) -> "MetricInstance":
        return cls(matrix=matrix)

    @property
    def point_count(self) -> int:
        if self.coordinates is not None:
            return len(self.coordinates)
        assert self.matrix is not None
        return len(self.matrix)

    def points(self) -> range:
        return range(self.point_count)

    def _check_ids(self, ids) -> None:
        """IdentifierError unless every id of a sequence is a point id: one C-level
        type pass and range check, and id by id only to name the first bad one."""
        if not ids:
            return
        if set(map(type, ids)) <= _INT and min(ids) >= 0 and max(ids) < self.point_count:
            return
        for p in ids:
            if not _is_int(p) or not 0 <= p < self.point_count:
                raise IdentifierError(f"point id {p!r} not in 0..{self.point_count - 1}")

    def distance(self, u: int, v: int) -> float:
        """Distance between two points; symmetric and zero on the diagonal."""
        self._check_ids((u, v))
        if self.matrix is not None:
            return self.matrix[u][v]
        assert self.coordinates is not None
        return math.dist(self.coordinates[u], self.coordinates[v])

    def _lengths(self, pairs) -> list[float]:
        """Distances of (u, v) pairs whose ids the caller has checked once."""
        if self.matrix is not None:
            matrix = self.matrix
            return [matrix[u][v] for u, v in pairs]
        assert self.coordinates is not None
        coords = self.coordinates
        return [math.dist(coords[u], coords[v]) for u, v in pairs]


@dataclass(frozen=True)
class MetricValidation:
    """Outcome of checking the metric axioms on an instance.

    Each violation is a tagged tuple: ("diagonal", u), ("negative", u, v),
    ("symmetry", u, v), or ("triangle", u, v, w) meaning
    d(u,w) > d(u,v) + d(v,w).
    """

    violations: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_metric(instance: MetricInstance) -> MetricValidation:
    """Check symmetry, zero diagonal, non-negativity, and all triangles.

    Euclidean instances satisfy the axioms by construction and pass without
    any work.  Violations are reported, never raised.
    """
    if instance.matrix is None:
        return MetricValidation(())
    m = instance.matrix
    n = len(m)
    violations: list[tuple] = []
    for u in range(n):
        if m[u][u] != 0.0:
            violations.append(("diagonal", u))
        for v in range(u + 1, n):
            if m[u][v] < 0.0 or m[v][u] < 0.0:
                violations.append(("negative", u, v))
            if m[u][v] != m[v][u]:
                violations.append(("symmetry", u, v))
    for u in range(n):
        row_u = m[u]
        for v in range(n):
            if v == u:
                continue
            duv = row_u[v]
            row_v = m[v]
            for w in range(u + 1, n):
                if w == v:
                    continue
                if row_u[w] > duv + row_v[w]:
                    violations.append(("triangle", u, v, w))
    return MetricValidation(tuple(violations))


def _is_int(value) -> bool:
    """An int that is not a bool (True would silently stand for 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int_ids(ids, what: str) -> None:
    """DomainError unless every id of a sequence (never a generator) is an int,
    not a bool: one C-level type pass, and id by id only to name a bad one."""
    if not set(map(type, ids)) <= _INT:
        for p in ids:
            if not _is_int(p):
                raise DomainError(f"{what} id {p!r} is not an integer")


def _id_groups(groups, what: str) -> tuple[tuple[int, ...], ...]:
    """The groups as ascending tuples of int ids, checked in one pass."""
    groups = list(map(tuple, groups))
    _check_int_ids(list(chain.from_iterable(groups)), f"{what} point")
    return tuple(map(tuple, map(sorted, groups)))


def _disjoint_union(groups, what: str) -> set[int]:
    """The union of ascending int groups, which must not share or repeat a point."""
    flat = list(chain.from_iterable(groups))
    union = set(flat)
    if len(union) != len(flat):
        seen: set[int] = set()
        p = next(p for p in flat if p in seen or seen.add(p))  # the first one seen twice
        raise PartitionError(f"point {p} appears in more than one {what}")
    return union


@dataclass(frozen=True)
class TuplePartition:
    """A partition of the points 0..kn-1 into n groups of size exactly k."""

    k: int
    tuples: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not _is_int(self.k) or self.k < 2:
            raise PartitionError(f"tuple size k must be an integer of at least 2, got {self.k!r}")
        groups = _id_groups(self.tuples, "tuple")
        if not groups:
            raise PartitionError("at least one tuple is required")
        if any(len(g) != self.k for g in groups):
            raise PartitionError(f"every tuple must have exactly {self.k} points")
        if _disjoint_union(groups, "tuple") != set(range(self.k * len(groups))):
            raise PartitionError(
                f"tuples must cover exactly the points 0..{self.k * len(groups) - 1}"
            )
        object.__setattr__(self, "tuples", groups)

    @property
    def group_count(self) -> int:
        return len(self.tuples)

    @property
    def point_count(self) -> int:
        return self.k * len(self.tuples)


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint clusters of size between 1 and k over some point set."""

    k: int
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not _is_int(self.k) or self.k < 2:
            raise PartitionError(
                f"maximum cluster size k must be an integer of at least 2, got {self.k!r}"
            )
        groups = _id_groups(self.clusters, "cluster")
        if not groups:
            raise PartitionError("at least one cluster is required")
        if any(not 1 <= len(g) <= self.k for g in groups):
            raise PartitionError(f"every cluster must have between 1 and {self.k} points")
        _disjoint_union(groups, "cluster")
        object.__setattr__(self, "clusters", groups)

    def point_ids(self) -> list[int]:
        return sorted(p for g in self.clusters for p in g)

    def max_size(self) -> int:
        return max(len(g) for g in self.clusters)

    def check_covers(self, instance: MetricInstance) -> None:
        if set(self.point_ids()) != set(instance.points()):
            raise PartitionError("clusters must cover exactly the instance's points")


@dataclass(frozen=True)
class InstanceDocument:
    """A metric instance plus whatever partition annotations travel with it."""

    instance: MetricInstance
    tuples: TuplePartition | None = None
    clusters: ClusterPartition | None = None


def parse_instance_document(doc: dict) -> InstanceDocument:
    """Build an InstanceDocument from the JSON file layout.

    Layout: {"points": {"coordinates": [[..],..]} | {"matrix": [[..],..]},
    "tuples": [[..],..]?, "clusters": [[..],..]?, "k": int?}.  Explicit
    matrices are validated eagerly; a violated axiom is a hard error here.
    """
    if not isinstance(doc, dict) or "points" not in doc:
        raise DomainError("instance document must be an object with a 'points' field")
    points = doc["points"]
    if not isinstance(points, dict):
        raise DomainError("'points' must be an object")
    if "coordinates" in points:
        instance = MetricInstance.from_coordinates(_list_of_lists(points, "coordinates"))
    elif "matrix" in points:
        instance = MetricInstance.from_matrix(_list_of_lists(points, "matrix"))
        report = validate_metric(instance)
        if not report.ok:
            shown = ", ".join(repr(v) for v in report.violations[:3])
            raise DomainError(f"distance matrix is not a metric: {shown}")
    else:
        raise DomainError("'points' must contain 'coordinates' or 'matrix'")

    k = doc.get("k")
    if k is not None and not _is_int(k):
        raise DomainError(f"'k' must be an integer, got {k!r}")
    tuples = None
    if doc.get("tuples") is not None:
        groups = _list_of_lists(doc, "tuples")
        tuples = TuplePartition(
            k=k if k is not None else len(groups[0]),
            tuples=tuple(tuple(g) for g in groups),
        )
        if tuples.point_count != instance.point_count:
            raise PartitionError("tuples do not cover exactly the instance's points")
    clusters = None
    if doc.get("clusters") is not None:
        groups = _list_of_lists(doc, "clusters")
        if k is None:
            k = max(len(g) for g in groups)
        clusters = ClusterPartition(k=max(2, k), clusters=tuple(tuple(g) for g in groups))
        clusters.check_covers(instance)
    return InstanceDocument(instance=instance, tuples=tuples, clusters=clusters)


def _list_of_lists(mapping: dict, key: str) -> list:
    """mapping[key], which must be a non-empty JSON list of lists."""
    value = mapping[key]
    if not isinstance(value, list) or not value or not all(isinstance(g, list) for g in value):
        raise DomainError(f"{key!r} must be a non-empty list of lists")
    return value


def instance_document_to_dict(doc: InstanceDocument) -> dict:
    """Inverse of parse_instance_document, suitable for json.dumps."""
    out: dict = {}
    if doc.instance.coordinates is not None:
        out["points"] = {"coordinates": [list(row) for row in doc.instance.coordinates]}
    else:
        assert doc.instance.matrix is not None
        out["points"] = {"matrix": [list(row) for row in doc.instance.matrix]}
    if doc.tuples is not None:
        out["tuples"] = [list(g) for g in doc.tuples.tuples]
        out["k"] = doc.tuples.k
    if doc.clusters is not None:
        out["clusters"] = [list(g) for g in doc.clusters.clusters]
        out.setdefault("k", doc.clusters.k)
    return out
