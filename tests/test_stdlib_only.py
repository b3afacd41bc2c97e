"""The package runs on the standard library alone.

Each solver runs in a fresh interpreter started with `-I -S`: no user or
site directories, no PYTHON* variables, so no installed package can be
imported, and only `src` is put on `sys.path`.  `-I` also ignores
PYTHONDONTWRITEBYTECODE, so `-B` keeps the run from writing bytecode into
`src`, where a fresh `__pycache__` would change later import times.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

from bottleneck_trees import (
    exact_bottleneck_tour,
    exact_dbst,
    exact_gbst,
    exact_pbst,
    lift_to_tours,
    solve_2gbst,
    solve_dbst,
    solve_pbst,
)
from bottleneck_trees.generators import euclidean_instance, random_clusters, random_tuples

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, random, sys
sys.path.insert(0, sys.argv[1])
from bottleneck_trees import (
    exact_bottleneck_tour, exact_dbst, exact_gbst, exact_pbst, lift_to_tours,
    solve_2gbst, solve_dbst, solve_pbst,
)
from bottleneck_trees.generators import euclidean_instance, random_clusters, random_tuples

rng = random.Random(7)
inst = euclidean_instance(2, 8, rng)
tuples = random_tuples(8, 2, rng)
clusters = random_clusters(8, rng)
dbst, gbst, pbst = solve_dbst(inst, tuples), solve_2gbst(inst, clusters), solve_pbst(inst, 2)
tours = lift_to_tours(pbst.forest, inst)
print(json.dumps({
    "solved": [dbst.bottleneck, gbst.bottleneck, pbst.bottleneck],
    "optimal": [exact_dbst(inst, tuples)[1], exact_gbst(inst, clusters)[1], exact_pbst(inst, 2)[1]],
    "tour": exact_bottleneck_tour(inst, tours.tour_set.tours[0])[1],
    "foreign": sorted(
        name for name in {m.partition(".")[0] for m in sys.modules}
        if name not in sys.stdlib_module_names and name not in ("__main__", "bottleneck_trees")
    ),
}))
"""


def test_solvers_run_in_an_isolated_interpreter_without_site_packages():
    cached_before = any(SRC.rglob("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["foreign"] == []
    if not cached_before:
        assert not any(SRC.rglob("__pycache__"))

    rng = random.Random(7)
    inst = euclidean_instance(2, 8, rng)
    tuples = random_tuples(8, 2, rng)
    clusters = random_clusters(8, rng)
    dbst, gbst, pbst = solve_dbst(inst, tuples), solve_2gbst(inst, clusters), solve_pbst(inst, 2)
    tours = lift_to_tours(pbst.forest, inst)
    assert got["solved"] == [dbst.bottleneck, gbst.bottleneck, pbst.bottleneck]
    assert got["optimal"] == [
        exact_dbst(inst, tuples)[1],
        exact_gbst(inst, clusters)[1],
        exact_pbst(inst, 2)[1],
    ]
    assert got["tour"] == exact_bottleneck_tour(inst, tours.tour_set.tours[0])[1]
