"""Ground truth: materialize the join, then mine it exhaustively.

This is the reference every frugal strategy is measured against. A row guard
refuses joins whose closed-form size exceeds the limit instead of silently
truncating. An empty join is reported as vacuous with an empty set rather
than the infinite trivial dependency family.
"""

from __future__ import annotations

import os

from .context import JoinContext
from .discovery import discover_fds
from .errors import GuardError, InputError
from .fds import FdSet, minimal_cover
from .joins import JoinSpec, join
from .relation import Instance

ROW_LIMIT_ENV = "JOINFD_MAX_JOIN_ROWS"
DEFAULT_ROW_LIMIT = 1_000_000


def row_limit() -> int:
    text = os.environ.get(ROW_LIMIT_ENV)
    if text is None:
        return DEFAULT_ROW_LIMIT
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{ROW_LIMIT_ENV} must be an integer, got {text!r}") from None


def oracle_join_fds(
    left: Instance,
    right: Instance,
    spec: JoinSpec,
    limit: int | None = None,
    context: JoinContext | None = None,
) -> FdSet:
    """Minimal cover of all dependencies on the materialized join."""
    if context is None:
        context = JoinContext(left, right, spec)
    if limit is None:
        limit = row_limit()
    expected = context.result_rows()
    if expected is not None and expected > limit:
        raise GuardError(
            f"join would materialize {expected} rows, over the limit of {limit}; "
            f"raise {ROW_LIMIT_ENV} to allow it"
        )
    joined = join(left, right, spec)
    context.counters.full_join_rows += joined.row_count
    if joined.row_count > limit:
        raise GuardError(
            f"join materialized {joined.row_count} rows, over the limit of {limit}"
        )
    if joined.row_count == 0:
        return FdSet()  # vacuous: callers flag this instead of emitting everything
    exact, _ = discover_fds(joined)
    return minimal_cover(exact)
