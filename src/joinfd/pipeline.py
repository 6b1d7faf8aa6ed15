"""End-to-end strategies and the discovery report.

The frugal strategies start with stage 0, which mines a padded side's
input table with `discovery.discover_new_fds`, the miner upstaging runs
on each side's join rows. The selective strategy then runs upstaging,
inference, and selective mining; on a join that is not a semi-join the
sampling strategy runs micro-join sampling alone, since the micro-join's
rows are join rows and what it mines implies every member upstaging or
inference would add (on a semi-join upstaging is the whole answer of
both); the oracle strategy materializes the join and mines it
exhaustively. Every strategy fills one report, of one shape: dependencies
in join-result names tagged with the first stage that produced them,
coverage, per-stage timings (each stage timed by `_timed`), and
materialization counters. The clock starts before the join profile is
built, so `total` covers it and `profile` times it. Which final
dependencies an input already had is settled once, on the final set, by one
rule for every strategy (`upstage.preserved_tags`, timed as `tag`), and its
`preserved-*` tag overrides the stage's. A single frugal run never records
a full join; left-deep chains count their materialized intermediates as
full joins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from .context import Counters, JoinContext
from .errors import InputError, InternalInvariantError
from .fds import FdSet, FunctionalDependency, remove_implied
from .infer import infer_join_fds
from .joins import CoverageReport, JoinSpec, SEMI_KINDS, profile_coverage
from .mine import discover_selective
from .oracle import oracle_join_fds
from .relation import Instance, has_nulls
from .sample import SampleConfig, discover_sampled
from .upstage import preserved_tags, upstage

STRATEGIES = ("selective", "sampling", "oracle")

REPORT_SCHEMA_VERSION = 3


@dataclass
class DiscoveryReport:
    strategy: str
    operator: str
    fds: FdSet
    coverage: CoverageReport
    counters: Counters
    timings: dict[str, float]
    vacuous: bool = False
    warnings: list[str] = field(default_factory=list)
    violated_fds: list[str] = field(default_factory=list)
    provenance: dict[FunctionalDependency, tuple[str, str]] = field(default_factory=dict)
    sample_rows_ratio: float | None = None

    def origin_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for d in self.fds:
            tag = self.fds.origins.get(d, "unclassified")
            counts[tag] = counts.get(tag, 0) + 1
        return counts

    def to_json(self) -> dict:
        fd_docs = []
        for d in self.fds:
            doc = d.to_json(origin=self.fds.origins.get(d))
            if d in self.provenance:
                via = self.provenance[d]
                doc["provenance"] = {"lhs_rule": via[0], "rhs_rule": via[1]}
            fd_docs.append(doc)
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "strategy": self.strategy,
            "operator": self.operator,
            "vacuous": self.vacuous,
            "fd_count": len(self.fds),
            "fds": fd_docs,
            "origin_counts": self.origin_counts(),
            "coverage": self.coverage.to_json(),
            "counters": self.counters.to_json(),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "warnings": self.warnings,
        }
        if self.violated_fds:
            doc["violated_fds"] = self.violated_fds
        if self.sample_rows_ratio is not None:
            doc["sample_rows_ratio"] = self.sample_rows_ratio
        return doc


def _map_fdset(fds: FdSet, mapping: dict[str, str], origin: str) -> FdSet:
    """`fds` in join names, tagged `origin`."""
    out = FdSet()
    for d in fds.as_set():
        out.add(d.rename(mapping), origin)
    return out


def _vacuous(context: JoinContext) -> bool:
    if context.spec.kind in SEMI_KINDS:
        return not context.profile.shared
    return context.result_rows() == 0


def _timed(timings: dict[str, float], stage: str, run, *args):
    """`run(*args)`, its seconds recorded as `timings[stage]`."""
    t0 = time.perf_counter()
    out = run(*args)
    timings[stage] = time.perf_counter() - t0
    return out


def _padding_breaks(report: DiscoveryReport, context: JoinContext) -> None:
    """Stage 0: list as `violated_fds` the members of a padded side's input
    set that do not hold on the side's join rows, in `input_fds` order (so
    the side partitions they build do not depend on the hash seed), warn
    per side, and refuse a loss that nulls cannot explain."""
    spec = context.spec
    pads = {"left": context.pads_left(), "right": context.pads_right()}
    for side in filter(pads.get, pads):
        dropped = [
            d for d in context.input_fds(side) if not context.holds_on_side(side, d)
        ]
        # natural-join padding rows are null outside the merged key columns,
        # where they carry the other side's join values: without any null in
        # the data they can still agree with a row on a lhs within those
        # columns, or disagree with another padding row on a key rhs
        merged = set(spec.left_on if side == "left" else spec.right_on)
        for d in dropped:
            report.violated_fds.append(f"{side}: {d}")
            if spec.natural and (d.lhs <= merged or d.rhs in merged):
                continue
            if d.lhs and not (has_nulls(context.left) or has_nulls(context.right)):
                raise InternalInvariantError(
                    f"preserved dependency {d} of the {side} table no longer "
                    f"holds on the join; this should be impossible without nulls "
                    f"outside natural join keys"
                )
        if dropped:
            report.warnings.append(
                f"{len(dropped)} single-table dependencies of the {side} side "
                f"are broken by outer-join padding"
            )


def _frugal_stages(
    report: DiscoveryReport, context: JoinContext, sample_cfg: SampleConfig | None
) -> FdSet:
    """Stages 0 to 3 of a frugal run. Stage 0 fills the report's padding
    entries; the rest return the union of their outputs in priority order,
    each member tagged by the first stage that made it."""
    timings, kind = report.timings, context.spec.kind
    _timed(timings, "single_tables", _padding_breaks, report, context)
    if kind not in SEMI_KINDS and report.strategy == "sampling":
        # stage 3 right after stage 0: the micro-join's rows are join rows,
        # so what it mines implies every member upstaging or inference
        # would add, and the tagger finds those upstaging would have mined
        cfg = sample_cfg or SampleConfig()
        return _timed(timings, "sample", discover_sampled, context, cfg)
    # stage 1: each side's dependencies on its join rows, the whole answer
    # on a semi-join
    sigma = _timed(timings, "upstage", upstage, context)
    prior = _map_fdset(sigma[0], context.lmap, "upstaged-left").union(
        _map_fdset(sigma[1], context.rmap, "upstaged-right")
    )
    if kind in SEMI_KINDS:
        return prior
    # stage 2: inference through the join attributes
    inferred = _timed(timings, "infer", infer_join_fds, context, *sigma)
    report.provenance = inferred.provenance
    prior = prior.union(inferred.fds)
    # stage 3: remaining dependencies
    mined = _timed(timings, "mine", discover_selective, context, *sigma, prior)
    return prior.union(mined)


def run_pipeline(
    left: Instance,
    right: Instance,
    spec: JoinSpec,
    strategy: str = "selective",
    sample_cfg: SampleConfig | None = None,
) -> DiscoveryReport:
    """Discover the dependencies of join(left, right, spec) per `strategy`.

    The frugal strategies work out every input dependency set they need
    themselves: stage 0 mines an input table's own set only for a side that
    an outer operator pads, with `discover_new_fds` on the input's
    partitions (`JoinContext.input_fds`), and reports the members that do
    not hold on the side's join rows as `violated_fds` (`single_tables`
    times both). Selective upstaging mines each side's join rows once,
    whole, and the later stages reason from those two sets; sampling mines
    no side's join rows unless the join is a semi-join. One report is
    filled in place for every strategy, vacuous runs included.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    started = time.perf_counter()
    context = JoinContext(left, right, spec)
    report = DiscoveryReport(
        strategy=strategy,
        operator=spec.kind.value,
        fds=FdSet(),
        coverage=profile_coverage(context.profile),
        counters=context.counters,
        timings={},
    )
    timings = report.timings
    timings["profile"] = time.perf_counter() - started
    if _vacuous(context):
        report.vacuous = True
        report.warnings.append("join result is empty; every dependency holds vacuously")
    else:
        if strategy == "oracle":
            args = (left, right, spec, context)
            final = prior = _timed(timings, "oracle", oracle_join_fds, *args)
        else:
            prior = _frugal_stages(report, context, sample_cfg)
            final = remove_implied(prior)
            if context.counters.full_join_rows:
                raise InternalInvariantError(
                    "a frugal strategy materialized the full join; refusing to report"
                )
        report.fds = _timed(timings, "tag", preserved_tags, final, prior, context)
        report.provenance = {d: p for d, p in report.provenance.items() if d in final}
        if strategy == "sampling":
            denom = context.result_rows()  # None on a semi-join, never sampled
            report.sample_rows_ratio = (
                context.counters.sample_join_rows / denom if denom else 0.0
            )
    timings["total"] = time.perf_counter() - started
    return report


def _carry(
    report: DiscoveryReport, counters: Counters, timings: dict[str, float]
) -> None:
    """Add an earlier step's counters and per-stage timings into `report`."""
    for f in fields(Counters):
        total = getattr(report.counters, f.name) + getattr(counters, f.name)
        setattr(report.counters, f.name, total)
    for stage, seconds in timings.items():
        report.timings[stage] = report.timings.get(stage, 0.0) + seconds


def run_left_deep(
    tables: list[Instance],
    specs: list[JoinSpec],
    strategy: str = "selective",
    sample_cfg: SampleConfig | None = None,
) -> DiscoveryReport:
    """Chain binary joins left-deep: ((t0 ? t1) ? t2) ...

    Each intermediate join is materialized, on its step's profile, so the
    next binary step has a left input, and each step is a plain
    `run_pipeline` that mines its own inputs as it needs them. Every
    counter and per-stage timing of the earlier steps accumulates into the
    final report, and every intermediate join counts as a full join: a
    chain is not frugal.
    """
    from .joins import join

    if len(tables) < 2 or len(specs) != len(tables) - 1:
        raise InputError("left-deep run needs n tables and n-1 join specs")
    current = tables[0]
    report: DiscoveryReport | None = None
    carried, carried_timings = Counters(), {}
    for step, (nxt, spec) in enumerate(zip(tables[1:], specs)):
        report = run_pipeline(
            current, nxt, spec, strategy=strategy, sample_cfg=sample_cfg
        )
        _carry(report, carried, carried_timings)
        if step < len(specs) - 1:
            current = join(current, nxt, spec, report.coverage.profile)
            report.counters.full_join_rows += current.row_count
            carried, carried_timings = report.counters, report.timings
    assert report is not None
    return report
