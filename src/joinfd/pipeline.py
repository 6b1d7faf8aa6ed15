"""End-to-end strategies and the discovery report.

The selective strategy runs upstaging, inference, and selective mining; the
sampling strategy swaps the mining stage for micro-join sampling; the oracle
strategy materializes the join and mines it exhaustively. All strategies
produce the same report shape: dependencies in join-result names tagged with
the first stage that produced them, coverage, per-stage timings, and
materialization counters. A single frugal run never records a full join;
left-deep chains count their materialized intermediates as full joins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from .context import Counters, JoinContext
from .discovery import _PartitionCache, discover_fds, holds
from .errors import InputError, InternalInvariantError
from .fds import FdSet, FunctionalDependency, mask_bits, remove_implied
from .infer import infer_join_fds
from .joins import CoverageReport, JoinKind, JoinSpec, SEMI_KINDS, profile_coverage
from .mine import discover_selective
from .oracle import oracle_join_fds
from .relation import Instance, has_nulls
from .sample import SampleConfig, discover_sampled
from .upstage import upstage

STRATEGIES = ("selective", "sampling", "oracle")

REPORT_SCHEMA_VERSION = 2


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


def _tag_from(final: FdSet, sources: FdSet) -> FdSet:
    """`final` with each member tagged as in `sources`, the union of the
    stage outputs in priority order, whose first tag per member stands."""
    tagged = FdSet()
    for d in final.as_set():
        tag = sources.origins.get(d)
        if tag is None:
            raise InternalInvariantError(
                f"dependency {d} in the final set has no producing stage"
            )
        tagged.add(d, tag)
    return tagged


def _tag_preserved(
    final: FdSet,
    context: JoinContext,
    left_fds: FdSet | None,
    right_fds: FdSet | None,
) -> FdSet:
    """`final` with each member that is a minimal dependency of an input
    tagged `preserved-left` or `preserved-right`, the left side first.

    A caller-given input set is read by membership. Otherwise a member
    whose names all map to that side is preserved iff it holds on the input
    and no one-smaller lhs does there, tested on the side's partitions:
    exactly the members of that side's mined dependency set.
    """
    sides = [
        (instance, {qual: a for a, qual in names.items()}, given, preserved)
        for instance, names, given, preserved in (
            (context.left, context.lmap, left_fds, "preserved-left"),
            (context.right, context.rmap, right_fds, "preserved-right"),
        )
    ]
    caches: dict[str, _PartitionCache] = {}
    tagged = FdSet()
    for d in final:  # sorted, so partitions are built in a fixed order
        tag = final.origins[d]
        for instance, base, given, preserved in sides:
            if d.rhs not in base or not d.lhs <= base.keys():
                continue
            local = d.rename(base)
            if given is not None:
                hit = local in given
            else:
                cache = caches.get(preserved) or _PartitionCache(instance)
                caches[preserved] = cache
                lhs, rhs = cache.mask(local.lhs), instance.ordinal(local.rhs)
                hit = cache.holds(lhs, rhs) and not any(
                    cache.holds(lhs ^ bit, rhs) for bit in mask_bits(lhs)
                )
            if hit:
                tag = preserved
                break
        tagged.add(d, tag)
    return tagged


def _map_fdset(
    fds: FdSet, mapping: dict[str, str], origin: str | None = None
) -> FdSet:
    """`fds` in join names, tagged `origin` or else as they were."""
    out = FdSet()
    for d in fds.as_set():
        out.add(d.rename(mapping), origin or fds.origins.get(d))
    return out


def _vacuous(context: JoinContext) -> bool:
    if context.spec.kind in SEMI_KINDS:
        return not context.profile.shared
    return context.result_rows() == 0


def run_pipeline(
    left: Instance,
    right: Instance,
    spec: JoinSpec,
    strategy: str = "selective",
    sample_cfg: SampleConfig | None = None,
    left_fds: FdSet | None = None,
    right_fds: FdSet | None = None,
) -> DiscoveryReport:
    """Discover the dependencies of join(left, right, spec) per `strategy`.

    The frugal strategies use an input table's own dependency set only
    where the caller gave it or its side is padded, and stage 0 mines it
    only for a padded side without one (the members padding breaks are
    reported as `violated_fds`); `single_tables` times that work. Upstaging
    mines each side's join rows once either way.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    for instance, given in ((left, left_fds), (right, right_fds)):
        for d in given or ():
            if not holds(instance, d):
                raise InputError(
                    f"provided dependency {d} does not hold on {instance.name!r}"
                )
    context = JoinContext(left, right, spec)
    timings: dict[str, float] = {}
    started = time.perf_counter()
    cov = profile_coverage(context.profile)

    if _vacuous(context):
        timings["total"] = time.perf_counter() - started
        return DiscoveryReport(
            strategy=strategy,
            operator=spec.kind.value,
            fds=FdSet(),
            coverage=cov,
            counters=context.counters,
            timings=timings,
            vacuous=True,
            warnings=["join result is empty; every dependency holds vacuously"],
        )

    if strategy == "oracle":
        t0 = time.perf_counter()
        final = oracle_join_fds(left, right, spec, context=context)
        timings["oracle"] = time.perf_counter() - t0
        tagged = _tag_preserved(final, context, left_fds, right_fds)
        timings["total"] = time.perf_counter() - started
        return DiscoveryReport(
            strategy=strategy,
            operator=spec.kind.value,
            fds=tagged,
            coverage=cov,
            counters=context.counters,
            timings=timings,
        )

    # stage 0: a padded side's input dependency set, unless the caller gave
    # it; upstaging reports the members that padding breaks
    t0 = time.perf_counter()
    if left_fds is None and context.pads_left():
        left_fds, _ = discover_fds(left)
    if right_fds is None and context.pads_right():
        right_fds, _ = discover_fds(right)
    timings["single_tables"] = time.perf_counter() - t0

    # stage 1: preserved and upstaged dependencies per side
    t0 = time.perf_counter()
    up = upstage(context, left_fds=left_fds, right_fds=right_fds)
    timings["upstage"] = time.perf_counter() - t0
    warnings: list[str] = []
    violated: list[str] = []
    for side, inst, given, survived in (
        ("left", left, left_fds, up.left_preserved),
        ("right", right, right_fds, up.right_preserved),
    ):
        sub_exists = context.side_subinstance(side) is not None
        dropped = [d for d in given or () if sub_exists and d not in survived]
        # natural-join padding rows are null outside the merged key columns,
        # where they carry the other side's join values: without any null in
        # the data they can still agree with a row on a lhs within those
        # columns, or disagree with another padding row on a key rhs
        merged = set(spec.left_on if side == "left" else spec.right_on)
        for d in dropped:
            violated.append(f"{side}: {d}")
            if spec.natural and (d.lhs <= merged or d.rhs in merged):
                continue
            if d.lhs and not (has_nulls(left) or has_nulls(right)):
                raise InternalInvariantError(
                    f"preserved dependency {d} of the {side} table no longer "
                    f"holds on the join; this should be impossible without nulls "
                    f"outside natural join keys"
                )
        if dropped:
            warnings.append(
                f"{len(dropped)} single-table dependencies of the {side} side "
                f"are broken by outer-join padding"
            )

    eff_left = up.left_preserved.union(up.left_upstaged)
    eff_right = up.right_preserved.union(up.right_upstaged)
    # stage outputs in priority order: a member keeps its first tag
    prior = _map_fdset(up.left_preserved, context.lmap, "preserved-left").union(
        _map_fdset(up.right_preserved, context.rmap, "preserved-right"),
        _map_fdset(up.left_upstaged, context.lmap),
        _map_fdset(up.right_upstaged, context.rmap),
    )
    provenance: dict[FunctionalDependency, tuple[str, str]] = {}

    if spec.kind not in SEMI_KINDS:
        # stage 2: inference through the join attributes
        t0 = time.perf_counter()
        inferred = infer_join_fds(context, eff_left, eff_right)
        timings["infer"] = time.perf_counter() - t0
        provenance = inferred.provenance
        prior = prior.union(inferred.fds)

        # stage 3: remaining dependencies
        t0 = time.perf_counter()
        if strategy == "selective":
            prior = prior.union(discover_selective(context, eff_left, eff_right, prior))
            timings["mine"] = time.perf_counter() - t0
        else:
            prior = prior.union(discover_sampled(context, sample_cfg or SampleConfig()))
            timings["sample"] = time.perf_counter() - t0

    tagged = _tag_from(remove_implied(prior), prior)
    if context.counters.full_join_rows:
        raise InternalInvariantError(
            "a frugal strategy materialized the full join; refusing to report"
        )
    ratio = None
    if strategy == "sampling":
        denom = context.result_rows()
        if denom is None:  # semi-join: bounded by the matched kept rows
            kept = "left" if spec.kind is JoinKind.LEFT_SEMI else "right"
            denom = context.profile.count(kept, context.profile.shared)
        ratio = (context.counters.sample_join_rows / denom) if denom else 0.0
    warnings.extend(context.warnings)
    timings["total"] = time.perf_counter() - started
    return DiscoveryReport(
        strategy=strategy,
        operator=spec.kind.value,
        fds=tagged,
        coverage=cov,
        counters=context.counters,
        timings=timings,
        warnings=warnings,
        violated_fds=violated,
        provenance={d: p for d, p in provenance.items() if d in tagged},
        sample_rows_ratio=ratio,
    )


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

    Each intermediate join is materialized so the next binary step has a
    left input; its dependency cover is carried forward, skipping
    single-table rediscovery. Every counter and per-stage timing of the
    earlier steps accumulates into the final report, and every intermediate
    join counts as a full join: a chain is not frugal.
    """
    from .joins import join

    if len(tables) < 2 or len(specs) != len(tables) - 1:
        raise InputError("left-deep run needs n tables and n-1 join specs")
    current = tables[0]
    current_fds: FdSet | None = None
    report: DiscoveryReport | None = None
    carried, carried_timings = Counters(), {}
    for step, (nxt, spec) in enumerate(zip(tables[1:], specs)):
        report = run_pipeline(
            current,
            nxt,
            spec,
            strategy=strategy,
            sample_cfg=sample_cfg,
            left_fds=current_fds,
        )
        _carry(report, carried, carried_timings)
        if step < len(specs) - 1:
            current = join(current, nxt, spec)
            report.counters.full_join_rows += current.row_count
            carried, carried_timings = report.counters, report.timings
            # a sampled cover may overclaim; keep only what the materialized
            # intermediate actually satisfies
            current_fds = FdSet(d for d in report.fds if holds(current, d))
    assert report is not None
    return report
