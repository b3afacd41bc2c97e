"""Spans and call counts recorded from outside the package.

The tracer replaces the listed functions at every module binding of the
`bottleneck_trees` package that refers to them, so calls made inside the
package (for example `solve_pbst` calling `minimum_spanning_tree` through the
`pbst` module's global) are recorded too.  Spans are kept in memory as
(name id, start, end, parent span index) and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

PACKAGE = "bottleneck_trees"

# (span name, home module, attribute, class attribute or None).  A class
# attribute is wrapped on the class itself, which every binding shares.
SPANNED = (
    ("metric.parse_instance_document", "metric", "parse_instance_document", None),
    ("metric.instance_document_to_dict", "metric", "instance_document_to_dict", None),
    ("metric.validate_metric", "metric", "validate_metric", None),
    ("trees.minimum_spanning_tree", "trees", "minimum_spanning_tree", None),
    ("trees.longest_edge", "trees", "longest_edge", None),
    ("trees.split_tree_at_edge", "trees", "split_tree_at_edge", None),
    ("trees.cube_hamiltonian_path", "trees", "cube_hamiltonian_path", None),
    ("trees.cube_hamiltonian_path_between", "trees", "cube_hamiltonian_path_between", None),
    ("trees.Tree", "trees", "Tree", "__init__"),
    ("dbst.solve_dbst", "dbst", "solve_dbst", None),
    ("dbst.bucketize", "dbst", "bucketize", None),
    ("dbst.forest_from_tree", "dbst", "forest_from_tree", None),
    ("labeling.konig_labeling", "labeling", "konig_labeling", None),
    ("labeling.representatives", "labeling", "representatives", None),
    ("gbst.solve_2gbst", "gbst", "solve_2gbst", None),
    ("gbst.build_t1", "gbst", "build_t1", None),
    ("gbst.select_nodes", "gbst", "select_nodes", None),
    ("gbst.build_t2", "gbst", "build_t2", None),
    ("pbst.solve_pbst", "pbst", "solve_pbst", None),
    ("pbst.balanced_partition", "pbst", "balanced_partition", None),
    ("pbst.partition_two", "pbst", "partition_two", None),
    ("pbst.partition_three", "pbst", "partition_three", None),
    ("pbst.partition_many", "pbst", "partition_many", None),
    ("tours.lift_to_tours", "tours", "lift_to_tours", None),
    ("oracle.exact_dbst", "oracle", "exact_dbst", None),
    ("oracle.exact_gbst", "oracle", "exact_gbst", None),
    ("oracle.exact_pbst", "oracle", "exact_pbst", None),
    ("oracle.exact_bottleneck_tour", "oracle", "exact_bottleneck_tour", None),
    ("cli.dbst_result_to_dict", "cli", "dbst_result_to_dict", None),
    ("cli.gbst_result_to_dict", "cli", "gbst_result_to_dict", None),
    ("cli.pbst_result_to_dict", "cli", "pbst_result_to_dict", None),
)

# Called hundreds of thousands of times per solve: counted, never spanned.
COUNTED = (("metric.distance", "metric", "MetricInstance", "distance"),)


class Tracer:
    """Records spans and counts while installed; costs nothing otherwise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records one span under `name`."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        """`fn` wrapped so that each call adds one to the count `name`."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def bind(self) -> None:
        """Find every binding of the traced functions; install nothing yet."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for table, wrap in ((SPANNED, self.span), (COUNTED, self.counter)):
            for name, home, attr, member in table:
                owner = getattr(sys.modules[f"{PACKAGE}.{home}"], attr)
                if member is not None:
                    original = owner.__dict__[member]
                    self._bindings.append((owner, member, original, wrap(name, original)))
                    continue
                wrapper = wrap(name, owner)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is owner:
                            self._bindings.append((module, key, owner, wrapper))

    def install(self) -> None:
        for target, key, _, wrapper in self._bindings:
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._bindings:
            setattr(target, key, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the body untraced (used around the benchmark's own checks)."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per name: summed self time (span minus direct children) and calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {name: 0.0 for name in self.names}
        calls = {name: 0 for name in self.names}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[name_id]
            self_s[name] += end - start - child[i]
            calls[name] += 1
        for name, cell in self.counts.items():
            calls[name] = cell[0]
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "counts": {k: v[0] for k, v in self.counts.items()},
                    "spans": self.spans,
                },
                handle,
            )


def wrapper_costs(calls: int = 20000) -> tuple[float, float]:
    """Extra seconds per call that a span and a count add, measured here."""

    def noop(*args):
        return None

    probe = Tracer()
    spanned = probe.span("probe", noop)
    counted = probe.counter("probe", noop)
    costs = []
    for fn in (noop, spanned, counted):
        best = float("inf")
        for _ in range(3):
            probe.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                fn(1, 2)
            best = min(best, time.perf_counter() - start)
        costs.append(best / calls)
    return max(costs[1] - costs[0], 0.0), max(costs[2] - costs[0], 0.0)
