"""Command-line front end: instance generation, the three solvers, the
exact oracles, and batch experiment sweeps writing CSV.

Results are emitted as JSON with sorted keys, so identical inputs produce
byte-identical outputs.  Malformed input exits with status 2 and a
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .dbst import DbstResult, solve_dbst
from .errors import BottleneckTreeError
from .gbst import GbstResult, solve_2gbst
from .generators import Generated, generate
from .metric import (
    InstanceDocument,
    _is_int,
    instance_document_to_dict,
    parse_instance_document,
)
from .oracle import exact_bottleneck_tour, exact_dbst, exact_gbst, exact_pbst
from .pbst import PbstResult, solve_pbst
from .tours import lift_to_tours
from .trees import Forest, tree_to_dict


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_document(path: str) -> InstanceDocument:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return parse_instance_document(doc)


def _ratio(achieved: float, optimal: float) -> float:
    if optimal == 0.0 and achieved == 0.0:
        return 1.0
    return achieved / optimal


def dbst_result_to_dict(
    result: DbstResult, doc: InstanceDocument, exact: bool, tours: bool
) -> dict:
    out = {
        "trees": [tree_to_dict(t) for t in result.forest.trees],
        "bottleneck": result.bottleneck,
        "mst_bottleneck": result.mst_bottleneck,
        "labels": list(result.labels),
    }
    if exact:
        assert doc.tuples is not None
        _, optimal = exact_dbst(doc.instance, doc.tuples)
        out["optimal"] = optimal
        out["ratio"] = _ratio(result.bottleneck, optimal)
    if tours:
        lifted = lift_to_tours(result.forest, doc.instance)
        out["tours"] = [list(t) for t in lifted.tour_set.tours]
        out["tour_bottleneck"] = lifted.bottleneck
    return out


def gbst_result_to_dict(
    result: GbstResult, doc: InstanceDocument, exact: bool, tours: bool
) -> dict:
    out = {
        "tree": tree_to_dict(result.tree),
        "selected": result.selection.selected_nodes(),
        "bottleneck": result.bottleneck,
    }
    if exact:
        assert doc.clusters is not None
        _, optimal = exact_gbst(doc.instance, doc.clusters)
        out["optimal"] = optimal
        out["ratio"] = _ratio(result.bottleneck, optimal)
    if tours:
        lifted = lift_to_tours(Forest((result.tree,)), doc.instance)
        out["tours"] = [list(t) for t in lifted.tour_set.tours]
        out["tour_bottleneck"] = lifted.bottleneck
    return out


def pbst_result_to_dict(
    result: PbstResult, doc: InstanceDocument, k: int, exact: bool, tours: bool
) -> dict:
    out = {
        "trees": [tree_to_dict(t) for t in result.forest.trees],
        "bottleneck": result.bottleneck,
        "mst_bottleneck": result.mst_bottleneck,
    }
    if exact:
        _, optimal = exact_pbst(doc.instance, k)
        out["optimal"] = optimal
        out["ratio"] = _ratio(result.bottleneck, optimal)
    if tours:
        lifted = lift_to_tours(result.forest, doc.instance)
        out["tours"] = [list(t) for t in lifted.tour_set.tours]
        out["tour_bottleneck"] = lifted.bottleneck
    return out


def _generated_to_document(gen: Generated) -> InstanceDocument:
    return InstanceDocument(
        instance=gen.instance, tuples=gen.tuples, clusters=gen.clusters
    )


def _cmd_gen(args) -> int:
    params = {
        "n": args.n,
        "dim": args.dim,
        "k": args.k,
        "leaves": args.leaves,
        "partition": args.partition,
    }
    if args.singletons is not None:
        params["singletons"] = args.singletons
    gen = generate(args.kind, params, args.seed)
    doc = instance_document_to_dict(_generated_to_document(gen))
    _write_output(_dumps(doc), args.output)
    return 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BottleneckTreeError(message)


def _field(mapping, key: str, owner: str):
    """mapping[key], or a BottleneckTreeError naming what `owner` lacks."""
    _require(isinstance(mapping, dict) and key in mapping, f"{owner} needs a {key!r} field")
    return mapping[key]


def _cmd_dbst(args) -> int:
    doc = _load_document(args.input)
    _require(doc.tuples is not None, "dbst needs an instance file with 'tuples'")
    assert doc.tuples is not None
    result = solve_dbst(doc.instance, doc.tuples)
    _write_output(_dumps(dbst_result_to_dict(result, doc, args.exact, args.tours)), args.output)
    return 0


def _cmd_gbst(args) -> int:
    doc = _load_document(args.input)
    _require(doc.clusters is not None, "gbst needs an instance file with 'clusters'")
    assert doc.clusters is not None
    result = solve_2gbst(doc.instance, doc.clusters)
    _write_output(_dumps(gbst_result_to_dict(result, doc, args.exact, args.tours)), args.output)
    return 0


def _cmd_pbst(args) -> int:
    doc = _load_document(args.input)
    result = solve_pbst(doc.instance, args.k)
    _write_output(
        _dumps(pbst_result_to_dict(result, doc, args.k, args.exact, args.tours)),
        args.output,
    )
    return 0


def _cmd_oracle(args) -> int:
    doc = _load_document(args.input)
    if args.problem == "dbst":
        _require(doc.tuples is not None, "oracle dbst needs 'tuples' in the instance file")
        assert doc.tuples is not None
        forest, optimal = exact_dbst(doc.instance, doc.tuples)
        out = {
            "problem": "dbst",
            "optimal": optimal,
            "trees": [tree_to_dict(t) for t in forest.trees],
        }
    elif args.problem == "gbst":
        _require(doc.clusters is not None, "oracle gbst needs 'clusters' in the instance file")
        assert doc.clusters is not None
        tree, optimal = exact_gbst(doc.instance, doc.clusters)
        out = {"problem": "gbst", "optimal": optimal, "tree": tree_to_dict(tree)}
    elif args.problem == "pbst":
        _require(args.k is not None, "oracle pbst needs --k")
        forest, optimal = exact_pbst(doc.instance, args.k)
        out = {
            "problem": "pbst",
            "optimal": optimal,
            "trees": [tree_to_dict(t) for t in forest.trees],
        }
    else:
        subset = list(doc.instance.points())
        if args.subset:
            try:
                subset = [int(x) for x in args.subset.split(",")]
            except ValueError:
                raise BottleneckTreeError(
                    f"--subset must be comma-separated point ids, got {args.subset!r}"
                ) from None
        tour, optimal = exact_bottleneck_tour(doc.instance, subset)
        out = {"problem": "tour", "optimal": optimal, "tour": list(tour)}
    _write_output(_dumps(out), args.output)
    return 0


def _batch_record(job: dict, seed: int) -> dict:
    problem = _field(job, "problem", "a batch job")
    generator = _field(job, "generator", "a batch job")
    kind = _field(generator, "kind", "a batch job's generator")
    gen = generate(kind, generator, seed)
    doc = _generated_to_document(gen)
    exact = bool(job.get("exact", False))
    started = time.perf_counter()
    if problem == "dbst":
        _require(doc.tuples is not None, "dbst batch job generated no tuples")
        assert doc.tuples is not None
        achieved = solve_dbst(doc.instance, doc.tuples).bottleneck
        k = doc.tuples.k
        optimal = exact_dbst(doc.instance, doc.tuples)[1] if exact else None
    elif problem == "gbst":
        _require(doc.clusters is not None, "gbst batch job generated no clusters")
        assert doc.clusters is not None
        achieved = solve_2gbst(doc.instance, doc.clusters).bottleneck
        k = 2
        optimal = exact_gbst(doc.instance, doc.clusters)[1] if exact else None
    elif problem == "pbst":
        k = _field(job, "k", "a pbst batch job")
        _require(_is_int(k), f"a pbst batch job's 'k' must be an integer, got {k!r}")
        achieved = solve_pbst(doc.instance, k).bottleneck
        optimal = exact_pbst(doc.instance, k)[1] if exact else None
    else:
        raise BottleneckTreeError(f"unknown batch problem {problem!r}")
    millis = (time.perf_counter() - started) * 1000.0
    return {
        "generator": kind,
        "seed": seed,
        "problem": problem,
        "k": k,
        "n": doc.instance.point_count,
        "achieved": achieved,
        "optimal": optimal if optimal is not None else "",
        "ratio": _ratio(achieved, optimal) if optimal is not None else "",
        "millis": f"{millis:.3f}",
    }


BATCH_COLUMNS = [
    "generator",
    "seed",
    "problem",
    "k",
    "n",
    "achieved",
    "optimal",
    "ratio",
    "millis",
]


def _cmd_batch(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    jobs = _field(config, "jobs", "a batch config")
    _require(isinstance(jobs, list), "a batch config's 'jobs' must be a list")
    seeds = config.get("seeds", 10)
    if _is_int(seeds):
        seeds = list(range(seeds))
    _require(
        isinstance(seeds, list) and all(_is_int(s) for s in seeds),
        f"a batch config's 'seeds' must be an integer or a list of integers, got {seeds!r}",
    )
    records = [_batch_record(job, seed) for job in jobs for seed in seeds]
    records.sort(key=lambda r: (r["generator"], r["problem"], r["k"], r["n"], r["seed"]))
    out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=BATCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bst",
        description="Bottleneck spanning tree approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--dim", type=int, default=2)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--leaves", type=int, default=3)
    p_gen.add_argument("--partition", default="none", choices=["none", "tuples", "clusters"])
    p_gen.add_argument("--singletons", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", "-o", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    for name, func, needs_k in (
        ("dbst", _cmd_dbst, False),
        ("gbst", _cmd_gbst, False),
        ("pbst", _cmd_pbst, True),
    ):
        p = sub.add_parser(name, help=f"solve {name} on an instance file")
        p.add_argument("--input", required=True)
        p.add_argument("--output", "-o", default=None)
        p.add_argument("--exact", action="store_true", help="also run the exact oracle")
        p.add_argument("--tours", action="store_true", help="lift trees to TSP tours")
        if needs_k:
            p.add_argument("--k", type=int, required=True)
        p.set_defaults(func=func)

    p_oracle = sub.add_parser("oracle", help="run an exact solver alone")
    p_oracle.add_argument("problem", choices=["dbst", "gbst", "pbst", "tour"])
    p_oracle.add_argument("--input", required=True)
    p_oracle.add_argument("--k", type=int, default=None)
    p_oracle.add_argument("--subset", default=None, help="comma-separated point ids (tour)")
    p_oracle.add_argument("--output", "-o", default=None)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_batch = sub.add_parser("batch", help="run a sweep from a config file, write CSV")
    p_batch.add_argument("--config", required=True)
    p_batch.add_argument("--output", "-o", default=None)
    p_batch.set_defaults(func=_cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BottleneckTreeError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
