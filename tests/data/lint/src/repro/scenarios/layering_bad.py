"""Violation: the scenario engine importing the layers built on it, once
at module level and once inside a function."""

from ..cluster.scenario import ClusterScenario


def to_result(grid):
    from ..experiments.common import ExperimentResult

    return ExperimentResult, ClusterScenario, grid
