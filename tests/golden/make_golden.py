"""Write the golden corpus: seeded instance documents, the `bst` JSON of
every solver on them, the exact oracles' JSON on the tiny ones, and one
`bst batch` CSV, all produced through `bottleneck_trees.cli.main`.

    PYTHONPATH=src python tests/golden/make_golden.py

Existing files are never rewritten, so adding a case to INSTANCES and running
the script adds only that case's files.  tests/test_golden.py byte-compares
every output against a fresh run (the batch CSV with its `millis` column
blanked, the only part that varies between runs).
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from pathlib import Path

from bottleneck_trees.cli import main

GOLDEN = Path(__file__).resolve().parent
INSTANCES = GOLDEN / "instances"
OUTPUTS = GOLDEN / "outputs"
BATCH_CONFIG = GOLDEN / "batch-config.json"
BATCH_OUTPUT = OUTPUTS / "batch.csv"

PBST_KS = (2, 3, 4, 5)
# Instances with at most this many points also get `--exact` and the
# `oracle` subcommands; every exhaustive oracle is fast at this size.
EXACT_MAX_POINTS = 9


def _gen(*argv: str):
    """An instance written by `bst gen` with these arguments."""
    return lambda path: main(["gen", *argv, "-o", str(path)])


def _write_document(doc: dict, path: Path) -> int:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _grid(count: int, side: int, seed: int, partition: str):
    """Integer points on a side x side grid: many equal distances and duplicates."""

    def write(path: Path) -> int:
        rng = random.Random(seed)
        coords = [[rng.randrange(side), rng.randrange(side)] for _ in range(count)]
        ids = list(range(count))
        rng.shuffle(ids)
        doc = {"points": {"coordinates": coords}}
        if partition == "tuples":
            doc["tuples"] = [ids[i : i + 2] for i in range(0, count, 2)]
            doc["k"] = 2
        else:
            doc["clusters"] = [ids[i : i + 2] for i in range(0, count, 2)]
        return _write_document(doc, path)

    return write


def _chain_matrix(count: int, seed: int):
    """Collinear points on a 2^-30 grid as an explicit, exactly metric matrix."""

    def write(path: Path) -> int:
        rng = random.Random(seed)
        xs = [rng.getrandbits(30) / 2**30 for _ in range(count)]
        ids = list(range(count))
        rng.shuffle(ids)
        doc = {
            "points": {"matrix": [[abs(a - b) for b in xs] for a in xs]},
            "tuples": [ids[i : i + 3] for i in range(0, count, 3)],
            "k": 3,
        }
        return _write_document(doc, path)

    return write


def _gapped_clusters(clusters: int, size: int, seed: int):
    """Collinear clusters of `size` points, the gaps between them doubling.

    Each longest MST edge is the widest remaining gap, so PBST with k =
    clusters peels one whole cluster per split; the points are shuffled, so
    every cluster mixes low and high ids.
    """

    def write(path: Path) -> int:
        rng = random.Random(seed)
        xs = []
        start = 0.0
        for j in range(clusters):
            xs += [start + rng.random() for _ in range(size)]
            start += 1.0 + 4.0 * 2**j
        rng.shuffle(xs)
        return _write_document({"points": {"coordinates": [[x] for x in xs]}}, path)

    return write


# name -> writer of the instance document at the given path.
INSTANCES_SPEC = {
    "euclid2d-tuples2": _gen("--kind", "euclidean", "--n", "240", "--dim", "2",
                             "--partition", "tuples", "--k", "2", "--seed", "11"),
    "euclid2d-tuples3": _gen("--kind", "euclidean", "--n", "90", "--dim", "2",
                             "--partition", "tuples", "--k", "3", "--seed", "12"),
    "euclid2d-clusters": _gen("--kind", "euclidean", "--n", "120", "--dim", "2",
                              "--partition", "clusters", "--singletons", "4",
                              "--seed", "13"),
    "random-metric-tuples2": _gen("--kind", "random-metric", "--n", "60",
                                  "--partition", "tuples", "--k", "2", "--seed", "21"),
    "random-metric-clusters": _gen("--kind", "random-metric", "--n", "45",
                                   "--partition", "clusters", "--seed", "22"),
    "grid-tuples2": _grid(240, 8, 41, "tuples"),
    "grid-clusters": _grid(120, 6, 42, "clusters"),
    "chain1d-tuples2": _gen("--kind", "euclidean", "--n", "240", "--dim", "1",
                            "--partition", "tuples", "--k", "2", "--seed", "31"),
    "chain1d-clusters": _gen("--kind", "euclidean", "--n", "100", "--dim", "1",
                             "--partition", "clusters", "--seed", "32"),
    "chain-matrix-tuples3": _chain_matrix(120, 33),
    "spider4": _gen("--kind", "fixture-spider", "--k", "4"),
    "spider5": _gen("--kind", "fixture-spider", "--k", "5"),
    "spider6": _gen("--kind", "fixture-spider", "--k", "6"),
    "tiny-euclid-tuples2": _gen("--kind", "euclidean", "--n", "8", "--dim", "2",
                                "--partition", "tuples", "--k", "2", "--seed", "51"),
    "tiny-euclid-tuples3": _gen("--kind", "euclidean", "--n", "9", "--dim", "2",
                                "--partition", "tuples", "--k", "3", "--seed", "52"),
    "tiny-euclid-clusters": _gen("--kind", "euclidean", "--n", "7", "--dim", "2",
                                 "--partition", "clusters", "--seed", "53"),
    "tiny-metric-tuples2": _gen("--kind", "random-metric", "--n", "8",
                                "--partition", "tuples", "--k", "2", "--seed", "61"),
    "tiny-metric-tuples3": _gen("--kind", "random-metric", "--n", "9",
                                "--partition", "tuples", "--k", "3", "--seed", "62"),
    "tiny-metric-clusters": _gen("--kind", "random-metric", "--n", "9",
                                 "--partition", "clusters", "--seed", "63"),
    "fixture-gbst-path8": _gen("--kind", "fixture-gbst-path8"),
    "gapped-clusters5x3": _gapped_clusters(5, 3, 71),
}

# One sweep over every problem; `exact` is true, false and absent.
BATCH_SPEC = {
    "seeds": [0, 1, 2],
    "jobs": [
        {"problem": "dbst", "exact": True,
         "generator": {"kind": "euclidean", "n": 8, "dim": 2, "partition": "tuples", "k": 2}},
        {"problem": "dbst", "exact": True,
         "generator": {"kind": "random-metric", "n": 9, "partition": "tuples", "k": 3}},
        {"problem": "gbst", "exact": True,
         "generator": {"kind": "random-metric", "n": 7, "partition": "clusters"}},
        {"problem": "gbst", "generator": {"kind": "fixture-gbst-path8"}},
        {"problem": "pbst", "k": 2, "exact": True,
         "generator": {"kind": "euclidean", "n": 8, "dim": 3}},
        {"problem": "pbst", "k": 3, "exact": False,
         "generator": {"kind": "random-metric", "n": 9}},
    ],
}


def solver_runs(doc: dict) -> list[tuple[str, list[str]]]:
    """(output suffix, `bst` arguments) of every golden output of a document.

    DBST runs where the document has tuples, GBST where it has clusters, and
    PBST at every k in PBST_KS that splits the points into groups of >= 3.
    On at most EXACT_MAX_POINTS points the solvers also run `--exact`, and
    `oracle` runs on every problem that applies and on the full tour.
    """
    points = doc["points"]
    count = len(points.get("coordinates") or points.get("matrix"))
    small = count <= EXACT_MAX_POINTS
    tail = ["--exact", "--tours"] if small else ["--tours"]
    problems = []
    if doc.get("tuples") is not None:
        problems.append(("dbst", ["dbst"]))
    if doc.get("clusters") is not None:
        problems.append(("gbst", ["gbst"]))
    for k in PBST_KS:
        if count % k == 0 and count // k >= 3:
            problems.append((f"pbst-k{k}", ["pbst", "--k", str(k)]))
    runs = [(suffix, [*argv, *tail]) for suffix, argv in problems]
    if small:
        runs += [(f"oracle-{suffix}", ["oracle", *argv]) for suffix, argv in problems]
        runs.append(("oracle-tour", ["oracle", "tour"]))
    return runs


def output_path(instance: Path, suffix: str) -> Path:
    return OUTPUTS / f"{instance.stem}.{suffix}.json"


def blank_millis(text: str) -> str:
    """A batch CSV with its `millis` column emptied."""
    rows = list(csv.reader(io.StringIO(text)))
    column = rows[0].index("millis")
    for row in rows[1:]:
        row[column] = ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def main_script() -> int:
    INSTANCES.mkdir(exist_ok=True)
    OUTPUTS.mkdir(exist_ok=True)
    for name, write in INSTANCES_SPEC.items():
        path = INSTANCES / f"{name}.json"
        if not path.exists() and write(path) != 0:
            return 1
        doc = json.loads(path.read_text(encoding="utf-8"))
        for suffix, argv in solver_runs(doc):
            out = output_path(path, suffix)
            if not out.exists() and main([*argv, "--input", str(path), "-o", str(out)]) != 0:
                return 1
    if not BATCH_CONFIG.exists():
        _write_document(BATCH_SPEC, BATCH_CONFIG)
    if not BATCH_OUTPUT.exists():
        fresh = OUTPUTS / "batch.unblanked.csv"
        if main(["batch", "--config", str(BATCH_CONFIG), "-o", str(fresh)]) != 0:
            return 1
        BATCH_OUTPUT.write_text(blank_millis(fresh.read_text(encoding="utf-8")), encoding="utf-8")
        fresh.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
