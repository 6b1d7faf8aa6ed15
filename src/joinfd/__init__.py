"""Functional dependency discovery over joined tables, without the full join."""

from .discovery import discover_fds, holds
from .fds import FdSet, FunctionalDependency, fd, implies, minimal_cover
from .joins import JoinKind, JoinSpec, coverage, join, partial_join
from .metrics import evaluate
from .oracle import oracle_join_fds
from .pipeline import DiscoveryReport, run_pipeline
from .relation import Instance, load_csv, loads_csv, project
from .sample import SampleConfig

__all__ = [
    "DiscoveryReport",
    "FdSet",
    "FunctionalDependency",
    "Instance",
    "JoinKind",
    "JoinSpec",
    "SampleConfig",
    "coverage",
    "discover_fds",
    "evaluate",
    "fd",
    "holds",
    "implies",
    "join",
    "load_csv",
    "loads_csv",
    "minimal_cover",
    "oracle_join_fds",
    "partial_join",
    "project",
    "run_pipeline",
]
