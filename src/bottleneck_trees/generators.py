"""Instance generators: random geometries, random partitions, and the
fixtures that certify the tight cases (the clustered 8-node path, stars,
and spiders realized as their own path metrics).

Everything is driven by an explicit seed through a local random.Random, so
identical calls produce identical instances.
"""

from __future__ import annotations

import random

from .errors import DomainError
from .metric import ClusterPartition, InstanceDocument, MetricInstance, TuplePartition, _is_int
from .trees import Tree


def random_tree(n: int, rng: random.Random) -> Tree:
    """Random recursive tree on nodes 0..n-1 (node i attaches uniformly)."""
    if n < 1:
        raise DomainError("a tree needs at least one node")
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    return Tree(frozenset(range(n)), edges)


def random_tuples(n_points: int, k: int, rng: random.Random) -> TuplePartition:
    if k < 2 or n_points % k != 0:
        raise DomainError(f"{n_points} points cannot form tuples of size {k}")
    ids = list(range(n_points))
    rng.shuffle(ids)
    groups = tuple(tuple(ids[i : i + k]) for i in range(0, n_points, k))
    return TuplePartition(k=k, tuples=groups)


def random_clusters(
    n_points: int, rng: random.Random, singletons: int | None = None
) -> ClusterPartition:
    """Random pairing of the points, with optional singleton clusters."""
    if singletons is None:
        singletons = n_points % 2
    if singletons < 0 or (n_points - singletons) % 2 != 0 or singletons > n_points:
        raise DomainError(
            f"cannot pair {n_points} points around {singletons} singletons"
        )
    ids = list(range(n_points))
    rng.shuffle(ids)
    groups = [(p,) for p in ids[:singletons]]
    rest = ids[singletons:]
    groups.extend((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))
    return ClusterPartition(k=2, clusters=tuple(groups))


def euclidean_instance(dim: int, n_points: int, rng: random.Random) -> MetricInstance:
    """Points drawn uniformly from the unit cube."""
    if dim < 1 or n_points < 1:
        raise DomainError("need dim >= 1 and at least one point")
    coords = tuple(tuple(rng.random() for _ in range(dim)) for _ in range(n_points))
    return MetricInstance.from_coordinates(coords)


def random_metric_instance(n_points: int, rng: random.Random) -> MetricInstance:
    """Random symmetric weights repaired into a metric by shortest paths.

    The closure keeps many triangle inequalities tight, which exercises the
    algorithms harder than Euclidean point sets do.  Weights live on a
    dyadic grid so every path sum is exact and the closed matrix satisfies
    the triangle inequality exactly, not just within rounding error.
    """
    if n_points < 1:
        raise DomainError("need at least one point")
    d = [[0.0] * n_points for _ in range(n_points)]
    for u in range(n_points):
        for v in range(u + 1, n_points):
            d[u][v] = d[v][u] = rng.randint(103, 1024) / 1024.0
    for w in range(n_points):
        dw = d[w]
        for u in range(n_points):
            duw = d[u][w]
            du = d[u]
            for v in range(n_points):
                alt = duw + dw[v]
                if alt < du[v]:
                    du[v] = alt
    return MetricInstance.from_matrix(tuple(tuple(row) for row in d))


def path_metric(tree: Tree) -> MetricInstance:
    """The tree's own hop distances as an explicit matrix instance.

    Node ids must be 0..n-1.
    """
    n = len(tree.nodes)
    if tree.nodes != frozenset(range(n)):
        raise DomainError("path_metric needs node ids 0..n-1")
    d = [[0.0] * n for _ in range(n)]
    for src in range(n):
        seen = {src: 0}
        queue = [src]
        i = 0
        while i < len(queue):
            x = queue[i]
            i += 1
            for y in tree.adjacency[x]:
                if y not in seen:
                    seen[y] = seen[x] + 1
                    d[src][y] = float(seen[y])
                    queue.append(y)
    return MetricInstance.from_matrix(tuple(tuple(row) for row in d))


def star_instance(leaves: int) -> MetricInstance:
    """Star with the given leaf count: center at 0, unit spokes, leaves at 2."""
    if leaves < 1:
        raise DomainError("a star needs at least one leaf")
    spokes = tuple((0, i) for i in range(1, leaves + 1))
    return path_metric(Tree(frozenset(range(leaves + 1)), spokes))


def spider_tree(k: int) -> Tree:
    """Root 0 with k+1 legs of k-1 nodes each: k*k nodes in total.

    Two leg tips sit 2k-2 hops apart, which certifies both the bucket
    diameter bound and the hop-3 lower bound for many-way partitioning.
    """
    if k < 2:
        raise DomainError("spider_tree needs k >= 2")
    edges: list[tuple[int, int]] = []
    node = 1
    for _ in range(k + 1):
        prev = 0
        for _ in range(k - 1):
            edges.append((prev, node))
            prev = node
            node += 1
    return Tree(frozenset(range(k * k)), tuple(edges))


def spider_instance(k: int) -> MetricInstance:
    return path_metric(spider_tree(k))


def gbst_path8() -> InstanceDocument:
    """Unit-spaced 8-point line with the clustered layout whose optimum is 3.

    Positions 0..7 hold a, b1, c1, d1, c2, d2, b2, e; the singletons a and e
    are forced, and every way of picking one node per pair leaves some gap
    of 3.  The generator verifies that property against the exact solver and
    fails loudly if the layout ever drifts.
    """
    from .oracle import exact_gbst

    instance = MetricInstance.from_coordinates(tuple((float(i),) for i in range(8)))
    clusters = ClusterPartition(
        k=2, clusters=((0,), (1, 6), (2, 4), (3, 5), (7,))
    )
    _, optimum = exact_gbst(instance, clusters)
    if optimum != 3.0:
        raise DomainError(
            f"the 8-node path fixture must have optimum 3, got {optimum}"
        )
    return InstanceDocument(instance=instance, clusters=clusters)


def _int_param(params: dict, name: str, default: int | None) -> int | None:
    """params[name], or the default when absent; it must be an int, not a bool."""
    value = params.get(name, default)
    if value is None and default is None:
        return None
    if not _is_int(value):
        raise DomainError(f"generator parameter {name!r} must be an integer, got {value!r}")
    return value


def generate(kind: str, params: dict, seed: int) -> InstanceDocument:
    """Build a named instance document (plus partitions where they apply).

    Kinds: euclidean(dim, n [, partition, k, singletons]),
    random-metric(n [, partition, k, singletons]), fixture-star(leaves),
    fixture-spider(k), fixture-gbst-path8.
    """
    rng = random.Random(seed)
    if kind == "euclidean" or kind == "random-metric":
        n = _int_param(params, "n", 0)
        if kind == "euclidean":
            instance = euclidean_instance(_int_param(params, "dim", 2), n, rng)
        else:
            instance = random_metric_instance(n, rng)
        partition = params.get("partition", "none")
        if partition == "tuples":
            k = _int_param(params, "k", 2)
            return InstanceDocument(instance=instance, tuples=random_tuples(n, k, rng))
        if partition == "clusters":
            singletons = _int_param(params, "singletons", None)
            return InstanceDocument(
                instance=instance, clusters=random_clusters(n, rng, singletons)
            )
        if partition == "none":
            return InstanceDocument(instance=instance)
        raise DomainError(f"unknown partition kind {partition!r}")
    if kind == "fixture-star":
        return InstanceDocument(instance=star_instance(_int_param(params, "leaves", 3)))
    if kind == "fixture-spider":
        return InstanceDocument(instance=spider_instance(_int_param(params, "k", 4)))
    if kind == "fixture-gbst-path8":
        return gbst_path8()
    raise DomainError(f"unknown generator kind {kind!r}")
