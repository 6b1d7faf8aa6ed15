"""Command-line interface.

Subcommands: discover (single table), join-discover (the pipeline),
coverage, compare (closure-aware precision/recall between two FD files),
and fixture (synthetic table pairs). JSON goes to stdout, diagnostics to
stderr. Exit codes: 0 ok, 2 bad input, 3 resource guard, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .discovery import discover_fds
from .errors import GuardError, InputError, InternalInvariantError, JoinFdError
from .fds import FdSet, FunctionalDependency
from .fixtures import FixtureProfile, make_fixture
from .joins import JoinKind, JoinSpec, coverage
from .metrics import evaluate
from .pipeline import run_pipeline
from .relation import Instance, load_csv, to_csv
from .sample import SampleConfig

_OP_ALIASES = {
    "inner": JoinKind.INNER,
    "lsemi": JoinKind.LEFT_SEMI,
    "rsemi": JoinKind.RIGHT_SEMI,
    "louter": JoinKind.LEFT_OUTER,
    "router": JoinKind.RIGHT_OUTER,
    "fouter": JoinKind.FULL_OUTER,
}


def _parse_on(text: str) -> tuple[list[str], list[str]]:
    if "=" not in text:
        raise InputError(f"--on expects X=Y, got {text!r}")
    left, right = text.split("=", 1)
    lx = [a.strip() for a in left.split(",") if a.strip()]
    ry = [a.strip() for a in right.split(",") if a.strip()]
    if not lx or not ry:
        raise InputError(f"--on expects nonempty attribute lists, got {text!r}")
    return lx, ry


def _epsilon(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 1:  # nan too
        raise argparse.ArgumentTypeError(f"expects a number in [0, 1], got {text!r}")
    return value


def _load_table(path: str, args) -> Instance:
    return load_csv(
        path,
        delimiter=args.delimiter,
        header=not args.no_header,
        null_tokens=args.null_token or [""],
    )


def _load_fd_file(path: str) -> FdSet:
    """The exact entries (error 0) of an FD/AFD JSON file; every entry is
    checked."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc = doc.get("fds", [])
    if not isinstance(doc, list):
        raise InputError(f"{path}: expected a list of dependencies")
    out = FdSet()
    for entry in doc:
        try:
            lhs, rhs = entry["lhs"], entry["rhs"]
            error = float(entry.get("error", 0))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed entry {entry!r} ({exc!r})") from None
        if not isinstance(rhs, str) or not (
            isinstance(lhs, list) and all(isinstance(a, str) for a in lhs)
        ):
            raise InputError(
                f"{path}: entry {entry!r} needs a list of names as lhs and a name as rhs"
            )
        if rhs in lhs:
            raise InputError(f"{path}: entry {entry!r} is a trivial dependency")
        if not 0 <= error <= 1:
            raise InputError(f"{path}: entry {entry!r} has an error outside [0, 1]")
        if error == 0:
            out.add(FunctionalDependency(frozenset(lhs), rhs))
    return out


def _add_csv_options(parser) -> None:
    parser.add_argument("--delimiter", default=",")
    parser.add_argument("--no-header", action="store_true")
    parser.add_argument(
        "--null-token",
        action="append",
        help="raw text treated as null; repeatable (default: empty string)",
    )


def _add_join_options(parser) -> None:
    parser.add_argument("--left", required=True, help="left CSV file")
    parser.add_argument("--right", required=True, help="right CSV file")
    parser.add_argument("--on", required=True, help="join attributes, X=Y")
    parser.add_argument("--op", default="inner", choices=sorted(_OP_ALIASES))
    parser.add_argument(
        "--natural",
        action="store_true",
        help="merge equal-named join columns instead of keeping both",
    )
    _add_csv_options(parser)


def _spec_from_args(args) -> JoinSpec:
    left_on, right_on = _parse_on(args.on)
    return JoinSpec(
        _OP_ALIASES[args.op], tuple(left_on), tuple(right_on), natural=args.natural
    )


def _cmd_discover(args) -> dict:
    table = _load_table(args.csv, args)
    exact, afds = discover_fds(table, args.epsilon)
    return {
        "table": table.name,
        "rows": table.row_count,
        "attributes": list(table.attr_names),
        "fds": exact.to_json(),
        "afds": [
            dict(a.fd.to_json(error=a.error), degree=a.degree) for a in afds
        ],
    }


def _cmd_join_discover(args) -> dict:
    left = _load_table(args.left, args)
    right = _load_table(args.right, args)
    spec = _spec_from_args(args)
    left_fds = right_fds = None
    if args.afds:
        paths = args.afds.split(",")
        if len(paths) != 2:
            raise InputError("--afds expects two comma-separated files: left,right")
        left_fds, right_fds = _load_fd_file(paths[0]), _load_fd_file(paths[1])
    report = run_pipeline(
        left,
        right,
        spec,
        strategy=args.strategy,
        sample_cfg=SampleConfig(n_b=args.nb, n_v=args.nv, seed=args.seed),
        left_fds=left_fds,
        right_fds=right_fds,
    )
    return report.to_json()


def _cmd_coverage(args) -> dict:
    left = _load_table(args.left, args)
    right = _load_table(args.right, args)
    spec = _spec_from_args(args)
    return coverage(left, right, spec).to_json()


def _cmd_compare(args) -> dict:
    truth = _load_fd_file(args.truth)
    candidate = _load_fd_file(args.candidate)
    metrics = evaluate(candidate, truth)
    return {
        "truth": args.truth,
        "candidate": args.candidate,
        "truth_count": len(truth),
        "candidate_count": len(candidate),
        **metrics.to_json(),
    }


def _cmd_fixture(args) -> dict:
    kwargs = {}
    if args.profile:
        with open(args.profile, encoding="utf-8") as fh:
            kwargs = json.load(fh)
        if not isinstance(kwargs, dict):
            raise InputError(f"{args.profile}: expected a JSON object of profile fields")
        unknown = sorted(set(kwargs) - {f.name for f in fields(FixtureProfile)})
        if unknown:
            raise InputError(
                f"{args.profile}: unknown profile field(s) {', '.join(unknown)}"
            )
    if "op" in kwargs:
        try:
            kwargs["op"] = _OP_ALIASES[kwargs["op"]]
        except (KeyError, TypeError):
            raise InputError(
                f"{args.profile}: op must be one of {', '.join(sorted(_OP_ALIASES))}"
            ) from None
    profile = FixtureProfile(**kwargs)
    left, right, spec = make_fixture(profile, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    left_path = os.path.join(args.out_dir, "left.csv")
    right_path = os.path.join(args.out_dir, "right.csv")
    with open(left_path, "w", encoding="utf-8") as fh:
        fh.write(to_csv(left))
    with open(right_path, "w", encoding="utf-8") as fh:
        fh.write(to_csv(right))
    doc = {
        "left": left_path,
        "right": right_path,
        "on": f"{','.join(spec.left_on)}={','.join(spec.right_on)}",
        "op": spec.kind.value,
        "seed": args.seed,
    }
    with open(os.path.join(args.out_dir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="joinfd",
        description="Functional dependency discovery over joined tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="mine one table")
    p.add_argument("csv")
    p.add_argument("--epsilon", type=_epsilon, default=0.0)
    _add_csv_options(p)
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("join-discover", help="mine the join of two tables")
    _add_join_options(p)
    p.add_argument("--strategy", default="selective", choices=["selective", "sampling", "oracle"])
    p.add_argument("--nb", type=int, default=1, help="sample tuples per branch")
    p.add_argument("--nv", type=int, default=0, help="most-distinct attributes to skip")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--afds",
        help="precomputed FD JSON files, left.json,right.json; only entries "
        "with error 0 are read",
    )
    p.set_defaults(func=_cmd_join_discover)

    p = sub.add_parser("coverage", help="join coverage report")
    _add_join_options(p)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("compare", help="closure-aware precision/recall")
    p.add_argument("--truth", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fixture", help="generate a synthetic table pair")
    p.add_argument("--profile", help="JSON file with profile fields")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="fixture")
    p.set_defaults(func=_cmd_fixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except JoinFdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
