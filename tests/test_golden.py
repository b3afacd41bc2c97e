"""Byte-identity of the CLI against the golden corpus in tests/golden/.

The corpus was written once by tests/golden/make_golden.py; a refactor that
changes any solver's or oracle's JSON, tie-break included, or any batch CSV
field but `millis`, fails here.  `make_golden.replay` runs the corpus through
`cli.main` in-process, and through `python -m bottleneck_trees` on one tiny
instance and the batch.  A digest pins the solvers' results the same way on
a few hundred seeded instances that no golden file holds.
"""

import hashlib
import importlib.util
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from bottleneck_trees import MetricInstance, TuplePartition, solve_2gbst, solve_dbst, solve_pbst
from bottleneck_trees.cli import main
from bottleneck_trees.generators import (
    euclidean_instance,
    random_clusters,
    random_metric_instance,
    random_tuples,
)

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent / "golden" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

INSTANCE_PATHS = sorted(make_golden.INSTANCES.glob("*.json"))
SRC = Path(__file__).resolve().parent.parent / "src"


def test_corpus_is_complete():
    assert {p.stem for p in INSTANCE_PATHS} == set(make_golden.INSTANCES_SPEC)
    expected = {golden.name for golden, _ in make_golden.golden_runs()}
    on_disk = {p.name for p in make_golden.OUTPUTS.iterdir()}
    assert on_disk == expected
    assert make_golden.BATCH_CONFIG.exists()


@pytest.mark.parametrize("instance", INSTANCE_PATHS, ids=lambda p: p.stem)
def test_outputs_are_byte_identical(instance):
    assert make_golden.replay(main, [instance]) == []


def test_batch_is_byte_identical():
    assert make_golden.replay(main, [make_golden.BATCH_CONFIG]) == []


def test_python_m_entry_point_reproduces_a_tiny_instance_and_the_batch(monkeypatch):
    # A real argv through __main__, argparse and `-o` file writing, run from
    # the temporary directory as tests/golden/replay.py runs it, so only an
    # absolute PYTHONPATH finds the package.
    monkeypatch.setenv("PYTHONPATH", str(SRC))

    def run(argv):
        command = [sys.executable, "-m", "bottleneck_trees", *argv]
        return subprocess.run(command, cwd=tempfile.gettempdir()).returncode

    inputs = [make_golden.INSTANCES / "tiny-euclid-tuples2.json", make_golden.BATCH_CONFIG]
    assert make_golden.replay(run, inputs) == []


def _clustered_line(k, m, rng):
    """m k-tuples on a line, in two or three clumps 100 apart.

    Each clump holds the same number of points of every tuple, so its size
    is a multiple of m: DBST and PBST (at this k) both cut the MST between
    clumps.
    """
    cuts = sorted(rng.sample(range(1, k), rng.randint(1, min(2, k - 1))))
    slots = [c for c, (a, b) in enumerate(zip([0, *cuts], [*cuts, k])) for _ in range(b - a)]
    ids = rng.sample(range(k * m), k * m)
    groups = [ids[i : i + k] for i in range(0, k * m, k)]
    coords = [None] * (k * m)
    for members in groups:
        for p, c in zip(members, rng.sample(slots, k)):
            coords[p] = (100.0 * c + rng.random(),)
    return MetricInstance.from_coordinates(coords), TuplePartition(k, groups)


def _fields(tree):
    return sorted(tree.nodes), tree.edges, tree.root


def test_solver_outputs_are_pinned():
    # Every solver's answer, tie-breaks and tree orders included, on seeded
    # Euclidean, random-metric and clustered-line instances of 6-40 points,
    # so any rewrite of the solves' internals must return identical results.
    rng = random.Random(2600)
    outputs = []
    cut = 0
    for i in range(300):
        kind, k = i % 3, 2 + (i // 3) % 4
        m = rng.randint(3, 40 // k)
        if kind == 0:
            inst = euclidean_instance(2, k * m, rng)
            tuples = random_tuples(k * m, k, rng)
        elif kind == 1:
            inst = random_metric_instance(k * m, rng)
            tuples = random_tuples(k * m, k, rng)
        else:
            inst, tuples = _clustered_line(k, m, rng)
        clusters = random_clusters(k * m, rng, singletons=rng.randrange(k * m % 2, k * m, 2))
        d = solve_dbst(inst, tuples)
        g = solve_2gbst(inst, clusters)
        p = solve_pbst(inst, k)
        if kind == 2:
            assert d.shortcut and p.bottleneck < p.mst_bottleneck, i
            cut += 1
        outputs.append(
            (
                (d.bottleneck, [_fields(t) for t in d.forest.trees], d.labels, d.shortcut),
                (g.bottleneck, _fields(g.tree), _fields(g.t1), g.selection.selected_nodes()),
                (p.bottleneck, [_fields(t) for t in p.forest.trees], p.mst_bottleneck),
            )
        )
    assert cut == 100
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "7febaad9d40afab5d1959e30a680dcd70f0c7f5cfb810de54b5d1a4735e235c0"
