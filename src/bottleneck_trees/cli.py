"""Command-line front end: instance generation, the three solvers, the
exact oracles, and batch experiment sweeps writing CSV.

One table, PROBLEMS, maps each problem to the argument its solver takes
besides the instance, its solver and exact oracle, and its result fields;
the solver subcommands, `oracle` (all but `tour`), `batch` and the result
serializers all read it.  Results are emitted as JSON with sorted keys, so
identical inputs produce byte-identical outputs.  Malformed input exits
with status 2 and a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Callable, NamedTuple

from .dbst import DbstResult, solve_dbst
from .errors import BottleneckTreeError, DomainError
from .gbst import GbstResult, solve_2gbst
from .generators import generate
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


class Problem(NamedTuple):
    argument: str  # "tuples" or "clusters" (an InstanceDocument field), or "k"
    solve: Callable  # (instance, argument) -> result
    exact: Callable  # (instance, argument) -> (Forest or Tree, optimum)
    trees: Callable  # result -> its Forest, or GBST's one Tree
    fields: Callable  # result -> its problem-specific JSON fields


PROBLEMS = {
    "dbst": Problem(
        "tuples", solve_dbst, exact_dbst, lambda r: r.forest,
        lambda r: {"mst_bottleneck": r.mst_bottleneck, "labels": list(r.labels)},
    ),
    "gbst": Problem(
        "clusters", solve_2gbst, exact_gbst, lambda r: r.tree,
        lambda r: {"selected": r.selection.selected_nodes()},
    ),
    "pbst": Problem(
        "k", solve_pbst, exact_pbst, lambda r: r.forest,
        lambda r: {"mst_bottleneck": r.mst_bottleneck},
    ),
}


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_json(path: str):
    """The JSON value in a UTF-8 file; nesting too deep to decode is a DomainError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise DomainError(f"{path} is nested too deeply to decode") from None


def _load_document(path: str) -> InstanceDocument:
    return parse_instance_document(_read_json(path))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BottleneckTreeError(message)


def _field(mapping, key: str, owner: str):
    """mapping[key], or a BottleneckTreeError naming what `owner` lacks."""
    _require(isinstance(mapping, dict) and key in mapping, f"{owner} needs a {key!r} field")
    return mapping[key]


def _argument(name: str, doc: InstanceDocument, k, owner: str):
    """What PROBLEMS[name].solve takes besides the instance: the document's
    tuples or clusters, or the given k."""
    field = PROBLEMS[name].argument
    if field == "k":
        _require(_is_int(k), f"{owner} needs an integer 'k', got {k!r}")
        return k
    value = getattr(doc, field)
    _require(value is not None, f"{owner} needs an instance with {field!r}")
    return value


def _ratio(achieved: float, optimal: float) -> float:
    if optimal == 0.0 and achieved == 0.0:
        return 1.0
    return achieved / optimal


def _trees_to_dict(trees) -> dict:
    """A Forest as "trees", GBST's single Tree as "tree"."""
    if isinstance(trees, Forest):
        return {"trees": [tree_to_dict(t) for t in trees.trees]}
    return {"tree": tree_to_dict(trees)}


def _result_to_dict(
    name: str, result, doc: InstanceDocument, argument, exact: bool, tours: bool
) -> dict:
    """The JSON of a solver result, with the optimum and ratio if `exact`
    and the lifted tours if `tours`."""
    problem = PROBLEMS[name]
    trees = problem.trees(result)
    out = {"bottleneck": result.bottleneck, **_trees_to_dict(trees), **problem.fields(result)}
    if exact:
        _, optimal = problem.exact(doc.instance, argument)
        out["optimal"] = optimal
        out["ratio"] = _ratio(result.bottleneck, optimal)
    if tours:
        forest = trees if isinstance(trees, Forest) else Forest((trees,))
        lifted = lift_to_tours(forest, doc.instance)
        out["tours"] = [list(t) for t in lifted.tour_set.tours]
        out["tour_bottleneck"] = lifted.bottleneck
    return out


def dbst_result_to_dict(
    result: DbstResult, doc: InstanceDocument, exact: bool, tours: bool
) -> dict:
    return _result_to_dict("dbst", result, doc, doc.tuples, exact, tours)


def gbst_result_to_dict(
    result: GbstResult, doc: InstanceDocument, exact: bool, tours: bool
) -> dict:
    return _result_to_dict("gbst", result, doc, doc.clusters, exact, tours)


def pbst_result_to_dict(
    result: PbstResult, doc: InstanceDocument, k: int, exact: bool, tours: bool
) -> dict:
    return _result_to_dict("pbst", result, doc, k, exact, tours)


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
    doc = instance_document_to_dict(generate(args.kind, params, args.seed))
    _write_output(_dumps(doc), args.output)
    return 0


def _cmd_solve(args) -> int:
    doc = _load_document(args.input)
    argument = _argument(args.problem, doc, getattr(args, "k", None), args.problem)
    result = PROBLEMS[args.problem].solve(doc.instance, argument)
    out = _result_to_dict(args.problem, result, doc, argument, args.exact, args.tours)
    _write_output(_dumps(out), args.output)
    return 0


def _cmd_oracle(args) -> int:
    doc = _load_document(args.input)
    if args.problem in PROBLEMS:
        argument = _argument(args.problem, doc, args.k, f"oracle {args.problem}")
        found, optimal = PROBLEMS[args.problem].exact(doc.instance, argument)
        out = {"problem": args.problem, "optimal": optimal, **_trees_to_dict(found)}
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
    name = _field(job, "problem", "a batch job")
    _require(isinstance(name, str) and name in PROBLEMS, f"unknown batch problem {name!r}")
    problem = PROBLEMS[name]
    generator = _field(job, "generator", "a batch job")
    kind = _field(generator, "kind", "a batch job's generator")
    doc = generate(kind, generator, seed)
    exact = job.get("exact", False)
    _require(isinstance(exact, bool), f"a batch job's 'exact' must be true or false, got {exact!r}")
    argument = _argument(name, doc, job.get("k"), f"a {name} batch job")
    started = time.perf_counter()
    achieved = problem.solve(doc.instance, argument).bottleneck
    optimal = problem.exact(doc.instance, argument)[1] if exact else None
    millis = (time.perf_counter() - started) * 1000.0
    return {
        "generator": kind,
        "seed": seed,
        "problem": name,
        "k": getattr(argument, "k", argument),
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
    config = _read_json(args.config)
    jobs = _field(config, "jobs", "a batch config")
    _require(isinstance(jobs, list), "a batch config's 'jobs' must be a list")
    seeds = config.get("seeds", 10)
    if _is_int(seeds) and seeds >= 0:
        seeds = list(range(seeds))
    _require(
        isinstance(seeds, list) and all(_is_int(s) for s in seeds),
        f"a batch config's 'seeds' must be an integer >= 0 or a list of integers, got {seeds!r}",
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

    for name, problem in PROBLEMS.items():
        p = sub.add_parser(name, help=f"solve {name} on an instance file")
        p.add_argument("--input", required=True)
        p.add_argument("--output", "-o", default=None)
        p.add_argument("--exact", action="store_true", help="also run the exact oracle")
        p.add_argument("--tours", action="store_true", help="lift trees to TSP tours")
        if problem.argument == "k":
            p.add_argument("--k", type=int, required=True)
        p.set_defaults(func=_cmd_solve, problem=name)

    p_oracle = sub.add_parser("oracle", help="run an exact solver alone")
    p_oracle.add_argument("problem", choices=[*PROBLEMS, "tour"])
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
    except (BottleneckTreeError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
