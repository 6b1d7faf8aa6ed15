"""End-to-end strategies and the discovery report.

The selective strategy runs upstaging, inference, and selective mining; the
sampling strategy runs upstaging and then micro-join sampling, with no
inference, since the micro-join's rows are join rows and what it mines
implies every inferred member; the oracle strategy materializes the join
and mines it exhaustively. All strategies produce the same report shape:
dependencies in join-result names tagged with the first stage that
produced them, coverage, per-stage timings, and materialization counters.
The clock starts before the join profile is
built, so `total` covers it and `profile` times it. Which final
dependencies an input already had is settled once, on the final set, by
one rule for every strategy (`upstage.preserved_tags`, timed as `tag`),
and its `preserved-*` tag overrides the stage's.
A single frugal run never records a full join; left-deep chains count their
materialized intermediates as full joins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from .context import Counters, JoinContext
from .errors import InputError, InternalInvariantError
from .fds import FdSet, FunctionalDependency, implies, remove_implied
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
    an outer operator pads (`single_tables` times it), and its members that
    do not hold on the side's join rows are reported as `violated_fds`.
    Upstaging mines each side's join rows once, whole, and the later stages
    reason from those two sets: a padded side's mined set decides by
    implication which input members survive on its rows.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    timings: dict[str, float] = {}
    started = time.perf_counter()
    context = JoinContext(left, right, spec)
    cov = profile_coverage(context.profile)
    timings["profile"] = time.perf_counter() - started

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
        t0 = time.perf_counter()
        tagged = preserved_tags(final, final, context)
        timings["tag"] = time.perf_counter() - t0
        timings["total"] = time.perf_counter() - started
        return DiscoveryReport(
            strategy=strategy,
            operator=spec.kind.value,
            fds=tagged,
            coverage=cov,
            counters=context.counters,
            timings=timings,
        )

    # stage 0: a padded side's input dependency set
    t0 = time.perf_counter()
    pads = {"left": context.pads_left(), "right": context.pads_right()}
    padded = [side for side in pads if pads[side]]
    for side in padded:
        context.input_fds(side)
    timings["single_tables"] = time.perf_counter() - t0

    # stage 1: each side's dependencies on its join rows, and a padded
    # side's survivors: the input members that hold on its rows, which are
    # exactly those its mined set implies
    t0 = time.perf_counter()
    sigma_left, sigma_right = upstage(context)
    sigma = {"left": sigma_left, "right": sigma_right}
    survivors = {
        side: FdSet(d for d in context.input_fds(side) if implies(sigma[side], d))
        for side in padded
    }
    timings["upstage"] = time.perf_counter() - t0
    warnings: list[str] = []
    violated: list[str] = []
    for side in padded:
        dropped = [d for d in context.input_fds(side) if d not in survivors[side]]
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

    # stage outputs in priority order: a member keeps its first tag
    prior = _map_fdset(sigma_left, context.lmap, "upstaged-left").union(
        _map_fdset(sigma_right, context.rmap, "upstaged-right")
    )
    provenance: dict[FunctionalDependency, tuple[str, str]] = {}

    if spec.kind not in SEMI_KINDS and strategy == "selective":
        # stage 2: inference through the join attributes
        t0 = time.perf_counter()
        inferred = infer_join_fds(context, sigma_left, sigma_right)
        timings["infer"] = time.perf_counter() - t0
        provenance = inferred.provenance
        prior = prior.union(inferred.fds)

        # stage 3: remaining dependencies
        t0 = time.perf_counter()
        prior = prior.union(discover_selective(context, sigma_left, sigma_right, prior))
        timings["mine"] = time.perf_counter() - t0
    elif spec.kind not in SEMI_KINDS:
        # stage 3: the micro-join's rows are join rows, so what it mines
        # implies everything inference would add
        t0 = time.perf_counter()
        prior = prior.union(discover_sampled(context, sample_cfg or SampleConfig()))
        timings["sample"] = time.perf_counter() - t0

    final = remove_implied(prior)
    t0 = time.perf_counter()
    tagged = preserved_tags(final, prior, context, survivors)
    timings["tag"] = time.perf_counter() - t0
    if context.counters.full_join_rows:
        raise InternalInvariantError(
            "a frugal strategy materialized the full join; refusing to report"
        )
    ratio = None
    if strategy == "sampling":
        denom = context.result_rows()  # None on a semi-join, never sampled
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
