"""Lifting tree solutions to bottleneck travelling-salesperson tours.

A Hamiltonian cycle in the cube of a tree visits consecutive nodes at most
three tree hops apart, so by the triangle inequality each tour edge is at
most three times the tree's realized hop bound times its bottleneck.  Any
tour minus one edge is a feasible tree, so tree optima lower-bound tour
optima and each alpha-approximate tree solver lifts to a 3*alpha tour
solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .metric import MetricInstance
from .trees import Forest, cube_hamiltonian_cycle


@dataclass(frozen=True)
class TourSet:
    """Node-disjoint cyclic orderings, one per source tree."""

    tours: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TourResult:
    tour_set: TourSet
    bottleneck: float


def tour_bottleneck(tour, instance: MetricInstance) -> float:
    """Longest step of the cyclic tour, wrap-around included."""
    tour = tuple(tour)
    instance._check_ids(tour)
    if not tour:
        raise DomainError("an empty tour has no bottleneck")
    return max(instance._lengths(zip(tour, [*tour[1:], *tour[:1]])))


def lift_to_tours(forest: Forest, instance: MetricInstance) -> TourResult:
    """One cube Hamiltonian cycle per tree of the forest.

    Trees with fewer than three nodes have no genuine cycle and are
    rejected rather than doubled into two-node loops.
    """
    tours: list[tuple[int, ...]] = []
    worst = 0.0
    for tree in forest.trees:
        if len(tree.nodes) < 3:
            raise DomainError(
                f"a tree with {len(tree.nodes)} nodes yields a degenerate tour"
            )
        cycle = tuple(cube_hamiltonian_cycle(tree))
        tours.append(cycle)
        worst = max(worst, tour_bottleneck(cycle, instance))
    return TourResult(tour_set=TourSet(tuple(tours)), bottleneck=worst)
