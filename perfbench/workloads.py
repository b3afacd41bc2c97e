"""The three workloads: seeded inputs, the operations run on them, and the
pipeline that times, checks and records one operation.

plane-2d   1200 uniform points in the unit square, given as coordinates.
           Shallow MSTs, so the all-pairs sort and `distance` dominate; a
           faster MST shows here first.
chain-1d   1500 random collinear points, given as an explicit matrix.  The
           MST is a path, so the matrix distance path and the quadratic
           `cube_hamiltonian_path_between` carry the PBST load.  A speed-up
           that only helps coordinate inputs shows no gain here.
certify-small  150 tiny Euclidean and random-metric instances, each sent
           through the document round trip, the solver, the exact oracle and
           the exact tour oracle.  The oracles dominate; the MST sort does
           almost nothing, so per-call overhead at small n shows here.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field

import bottleneck_trees as bt
from bottleneck_trees import cli
from bottleneck_trees.generators import (
    euclidean_instance,
    random_clusters,
    random_metric_instance,
    random_tuples,
)
from bottleneck_trees.trees import tree_to_dict

import checks

# Point counts (full, tiny).  Each must divide by every k the workload runs.
PLANE_POINTS = (1200, 60)
CHAIN_POINTS = (1500, 60)
CERTIFY_INSTANCES = (150, 14)
WARMUP_POINTS = 60
# A lift takes milliseconds; the median of several lifts of the same forest
# keeps one scheduler hiccup from becoming the sample.
LIFT_REPEATS = 5

# certify-small cycles through these categories; the size of the j-th
# instance of a category is sizes[j % len(sizes)], and even j are Euclidean.
CERTIFY_MIX = (
    ("dbst", 2, (3, 4, 5, 6)),  # tuples
    ("dbst", 3, (3, 4, 5)),  # tuples; 6 costs the oracle ~0.7 s
    ("gbst", 2, (4, 5, 6, 7, 8, 9)),  # clusters; 9 is the tour oracle's cap
    # points; exact_pbst's backtracking has a heavy tail above these sizes
    # (0.3 s for k=2 on 16 points, seconds for k=3 on 15 and k=4 on 16)
    ("pbst", 2, (8, 10, 12, 14)),
    ("pbst", 3, (9, 12)),
    ("pbst", 4, (12,)),
    ("tour", 1, (9,)),  # points; the MST lifted to one tour
)


@dataclass(frozen=True)
class Op:
    """One operation of a cycle: a solver run on one instance document."""

    label: str
    solver: str  # "dbst", "gbst", "pbst", or "tour" (MST lifted to a tour)
    k: int
    doc: bt.InstanceDocument
    certify: bool = False
    mst: bt.Tree | None = None  # reference tree for the hop checks


@dataclass
class Outcome:
    solver: str
    solve_s: float | None
    lift_s: float
    pipeline_s: float
    ratio: float | None  # achieved / reference; see README.md
    tour_ratio: float
    digest: str
    record: dict
    violations: list[str] = field(default_factory=list)
    shortcut: bool = False
    burned: int = 0


def _chain_instance(count: int, rng: random.Random) -> bt.MetricInstance:
    # Positions on a 2^-30 grid keep every distance and every sum of two
    # distances exact, so the matrix satisfies the triangle inequality.
    xs = [rng.getrandbits(30) / 2**30 for _ in range(count)]
    return bt.MetricInstance.from_matrix([[abs(a - b) for b in xs] for a in xs])


def _large_docs(workload: str, count: int, seed: int) -> dict[str, bt.InstanceDocument]:
    rng = random.Random(seed)
    if workload == "plane-2d":
        instance = euclidean_instance(2, count, rng)
        return {
            "pairs": bt.InstanceDocument(instance, tuples=random_tuples(count, 2, rng)),
            "triples": bt.InstanceDocument(instance, tuples=random_tuples(count, 3, rng)),
            "clusters": bt.InstanceDocument(instance, clusters=random_clusters(count, rng, 0)),
        }
    instance = _chain_instance(count, rng)
    return {
        "pairs": bt.InstanceDocument(instance, tuples=random_tuples(count, 2, rng)),
        "clusters": bt.InstanceDocument(instance, clusters=random_clusters(count, rng, 0)),
    }


def _large_ops(workload: str, docs: dict[str, bt.InstanceDocument]) -> list[Op]:
    if workload == "plane-2d":
        plan = [("dbst", 2, "pairs"), ("dbst", 3, "triples"), ("gbst", 2, "clusters"),
                ("pbst", 2, "pairs"), ("pbst", 3, "pairs"), ("pbst", 4, "pairs")]
    else:
        plan = [("dbst", 2, "pairs"), ("gbst", 2, "clusters"),
                ("pbst", 4, "pairs"), ("pbst", 5, "pairs")]
    return [Op(f"{solver}-k{k}", solver, k, docs[doc]) for solver, k, doc in plan]


def _certify_docs(count: int, seed: int) -> list[tuple[str, str, int, bt.InstanceDocument]]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        solver, k, sizes = CERTIFY_MIX[i % len(CERTIFY_MIX)]
        j = i // len(CERTIFY_MIX)
        size = sizes[j % len(sizes)]
        singletons = j % 3 if solver == "gbst" else 0
        points = {"dbst": k * size, "gbst": 2 * size - singletons}.get(solver, size)
        if j % 2 == 0:
            instance = euclidean_instance(2, points, rng)
        else:
            instance = random_metric_instance(points, rng)
        tuples = random_tuples(points, k, rng) if solver == "dbst" else None
        clusters = random_clusters(points, rng, singletons) if solver == "gbst" else None
        doc = bt.InstanceDocument(instance, tuples, clusters)
        out.append((f"{solver}-k{k}-{i:03d}", solver, k, doc))
    return out


def setup(workload: str, seed: int, tiny: bool):
    """Generate the workload's inputs and warm every code path up.

    This is the part of a run that `setup_s` times; the returned value is
    passed to `operations`.
    """
    if workload == "certify-small":
        docs = _certify_docs(CERTIFY_INSTANCES[tiny], seed)
        # The first round trip validates every generated matrix.
        for *_, doc in docs:
            bt.parse_instance_document(bt.instance_document_to_dict(doc))
        return docs
    count = (PLANE_POINTS if workload == "plane-2d" else CHAIN_POINTS)[tiny]
    for op in _large_ops(workload, _large_docs(workload, WARMUP_POINTS, seed)):
        run(op)
    return _large_docs(workload, count, seed)


def operations(workload: str, inputs) -> list[Op]:
    """One cycle of operations, with the reference trees the checks need."""
    if workload == "certify-small":
        return [Op(*item, certify=True) for item in inputs]
    ops = _large_ops(workload, inputs)
    mst = bt.minimum_spanning_tree(ops[0].doc.instance, ops[0].doc.instance.points())
    return [Op(op.label, op.solver, op.k, op.doc, mst=mst) for op in ops]


def _solve(op: Op, doc: bt.InstanceDocument):
    if op.solver == "dbst":
        return bt.solve_dbst(doc.instance, doc.tuples)
    if op.solver == "gbst":
        return bt.solve_2gbst(doc.instance, doc.clusters)
    return bt.solve_pbst(doc.instance, op.k)


def _exact(op: Op, doc: bt.InstanceDocument) -> float:
    if op.solver == "dbst":
        return bt.exact_dbst(doc.instance, doc.tuples)[1]
    if op.solver == "gbst":
        return bt.exact_gbst(doc.instance, doc.clusters)[1]
    return bt.exact_pbst(doc.instance, op.k)[1]


def _serialize(op: Op, result, doc: bt.InstanceDocument) -> dict:
    if op.solver == "dbst":
        return cli.dbst_result_to_dict(result, doc, False, False)
    if op.solver == "gbst":
        return cli.gbst_result_to_dict(result, doc, False, False)
    return cli.pbst_result_to_dict(result, doc, op.k, False, False)


def _check(op: Op, doc: bt.InstanceDocument, result, mst) -> list[str]:
    if op.solver == "dbst":
        return checks.dbst(doc.instance, doc.tuples, result, mst)
    if op.solver == "gbst":
        return checks.gbst(doc.instance, doc.clusters, result)
    return checks.pbst(doc.instance, op.k, result, mst)


def run(op: Op, untraced=contextlib.nullcontext) -> Outcome:
    """Time one operation, then check and record its answer.

    Timed: the solve and the tour lifts, and on certify-small the whole
    pipeline (document round trip, solve, exact oracle, lifts, exact tour
    oracle).  `untraced` pauses tracing around the benchmark's own checks.
    """
    clock = time.perf_counter
    start = clock()
    doc = op.doc
    if op.certify:
        doc = bt.parse_instance_document(bt.instance_document_to_dict(doc))
    instance = doc.instance
    result, solve_s, optimal = None, None, None
    if op.solver == "tour":
        forest = bt.Forest((bt.minimum_spanning_tree(instance, instance.points()),))
    else:
        solve_start = clock()
        result = _solve(op, doc)
        solve_s = clock() - solve_start
        forest = result.forest if op.solver != "gbst" else bt.Forest((result.tree,))
        if op.certify:
            optimal = _exact(op, doc)
    lift_times = []
    for _ in range(LIFT_REPEATS):
        lift_start = clock()
        lifted = bt.lift_to_tours(forest, instance)
        lift_times.append(clock() - lift_start)
    lift_s = statistics.median(lift_times)
    tour_optima = []
    if op.certify:
        tour_optima = [bt.exact_bottleneck_tour(instance, t)[1] for t in lifted.tour_set.tours]
    pipeline_s = clock() - start

    record = {"op": op.label, "tours": [list(t) for t in lifted.tour_set.tours],
              "tour_bottleneck": lifted.bottleneck}
    if result is not None:
        record["result"] = _serialize(op, result, doc)
    else:
        record["tree"] = tree_to_dict(forest.trees[0])
    if op.certify:
        record["optimal"] = optimal
        record["tour_optima"] = tour_optima

    with untraced():
        violations = _verify(op, doc, result, forest, lifted, optimal, tour_optima)
        ratio = None
        if result is not None:
            reference = optimal if op.certify else (
                result.t1_bottleneck if op.solver == "gbst" else result.mst_bottleneck)
            ratio = result.bottleneck / reference
        tour_ratio = lifted.bottleneck / bt.forest_bottleneck(forest, instance)
    return Outcome(
        solver=op.solver,
        solve_s=solve_s,
        lift_s=lift_s,
        pipeline_s=pipeline_s,
        ratio=ratio,
        tour_ratio=tour_ratio,
        digest=hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest(),
        record=record,
        violations=violations,
        shortcut=op.solver == "dbst" and result.shortcut,
        burned=sum(s == "burned" for s in result.selection.status.values())
        if op.solver == "gbst" else 0,
    )


def _verify(op, doc, result, forest, lifted, optimal, tour_optima) -> list[str]:
    instance = doc.instance
    mst = op.mst
    if mst is None and op.solver in ("dbst", "pbst"):
        mst = bt.minimum_spanning_tree(instance, instance.points())
    violations = [] if result is None else _check(op, doc, result, mst)
    violations += checks.tours(instance, forest, lifted)
    if not op.certify:
        return violations
    for tour, best in zip(lifted.tour_set.tours, tour_optima):
        if not checks.within(best, 1, bt.tour_bottleneck(tour, instance)):
            violations.append("a lifted tour beats the exact tour optimum")
    if op.solver == "tour":
        return violations + checks.optimum(lifted.bottleneck, tour_optima[0], 3, "tour")
    times = checks.factor(op.solver, op.k)
    violations += checks.optimum(result.bottleneck, optimal, times, op.solver)
    # A tour minus an edge is a tree, so the tree optimum bounds the tour
    # optimum from below and the lifted tours stay within 3x the factor.
    if not checks.within(lifted.bottleneck, 3 * times, optimal):
        violations.append(f"tour bottleneck exceeds {3 * times} x the tree optimum")
    return violations
