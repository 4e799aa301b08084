"""Command-line surface: load a table, run one pipeline stage, print a report.

Exit codes: 0 success, 2 input/dataset error, 3 resource cap exceeded.  A
reader that closes stdout early (``| head``) ends the run with exit code 0.
Machine output (``--json``) has a stable key schema; rationals are emitted as
``{"num", "den", "decimal"}`` and only the ``elapsed_ms`` field varies between
identical runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from .dataset import (
    InformationSystem,
    builtin_names,
    conditional_attributes,
    load_builtin,
    load_csv,
)
from .errors import DuplicateAttribute, ReductForgeError, TooManyAttributes
from .partition import ind_partition
from .reduct import DEFAULT_MAX_ATTRS, eliminate, exhaustive_reducts
from .significance import CountSplit, GroupPolicy, ThresholdSplit, rank_attributes
from .topology import (
    base_from_indiscernibility_matrix,
    family_equal,
    minimal_neighborhoods,
    subbase_of,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3


def _fraction_json(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": str(float(value)),
    }


def _load_table(args: argparse.Namespace) -> InformationSystem:
    if args.builtin:
        return load_builtin(args.builtin, args.decision)
    try:
        with open(args.input, "rb") as handle:
            return load_csv(handle, decision=args.decision)
    except OSError as exc:
        raise ReductForgeError(f"cannot read {args.input}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ReductForgeError(f"{args.input} is not UTF-8 text") from exc


def _dataset_summary(table: InformationSystem) -> dict:
    return {
        "objects": table.object_count,
        "conditional_attributes": list(conditional_attributes(table)),
        "decision": table.decision if table.decision is not None else "identity",
    }


def _decimal(text: str, error: str) -> int:
    """``text`` as an int if it is decimal digits only, with no sign or
    space; otherwise ``error`` is raised as an input error."""
    if text.isdecimal():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ReductForgeError(error)


def _parse_group_policy(text: str, m: int) -> GroupPolicy:
    """The ``--group`` policy for a table of ``m`` conditional attributes."""
    if text == "threshold":
        return ThresholdSplit()
    if text.startswith("count:"):
        count = _decimal(text.removeprefix("count:"), f"bad --group value: {text!r}")
        if count > m:
            raise ReductForgeError(f"bad --group value: {text!r} (N must be in [0, {m}])")
        return CountSplit(count)
    raise ReductForgeError(f"bad --group value: {text!r} (use threshold or count:N)")


def _parse_attrs(table: InformationSystem, text: str | None) -> list[str]:
    if text is None:
        return list(conditional_attributes(table))
    names = [name.strip() for name in text.split(",") if name.strip()]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateAttribute(name)
        seen.add(name)
    return names


def _run(args: argparse.Namespace, command: str, work, render) -> int:
    """Load the table, time ``work(table)`` and report the fields it returns
    between ``dataset`` and ``elapsed_ms``: as JSON, or through ``render``."""
    table = _load_table(args)
    start = time.perf_counter()
    fields = work(table)
    report = {
        "command": command,
        "dataset": _dataset_summary(table),
        **fields,
        "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        render(report)
    return EXIT_OK


def _cmd_significance(args: argparse.Namespace) -> int:
    def work(table: InformationSystem) -> dict:
        return {
            "ranked": [
                {"attribute": a, "significance": _fraction_json(v)}
                for a, v in rank_attributes(table).ranked
            ],
        }

    def render(rep: dict) -> None:
        print(f"significance ({rep['dataset']['objects']} objects, "
              f"{len(rep['dataset']['conditional_attributes'])} attributes)")
        for row in rep["ranked"]:
            frac = row["significance"]
            print(f"  {row['attribute']:<12} {frac['num']}/{frac['den']}"
                  f"  ({frac['decimal']})")

    return _run(args, "significance", work, render)


def _cmd_reduct(args: argparse.Namespace) -> int:
    def work(table: InformationSystem) -> dict:
        policy = _parse_group_policy(args.group, len(conditional_attributes(table)))
        all_reducts = None
        if args.exhaustive:
            raw = os.environ.get("REDUCT_FORGE_MAX_ATTRS", str(DEFAULT_MAX_ATTRS))
            cap = _decimal(raw, f"REDUCT_FORGE_MAX_ATTRS is not a nonnegative integer: {raw!r}")
            # First, so that its cap check refuses a wide table before elimination.
            all_reducts = exhaustive_reducts(table, cap)
        result = eliminate(table, policy)
        fields: dict = {
            "reduct": list(result.reduct),
            "removed": list(result.removed),
            "verified_minimal": result.verified_minimal,
        }
        if args.trace:
            fields["trace"] = [
                {**asdict(entry), "significance": _fraction_json(entry.significance)}
                for entry in result.trace
            ]
        if all_reducts is not None:
            fields["all_reducts"] = sorted(sorted(r) for r in all_reducts)
            fields["heuristic_is_minimal"] = result.reduct_set in all_reducts
        return fields

    def render(rep: dict) -> None:
        print(f"reduct:  {{{', '.join(rep['reduct'])}}}")
        print(f"removed: [{', '.join(rep['removed'])}]")
        print(f"verified minimal: {rep['verified_minimal']}")
        if "trace" in rep:
            print("trace:")
            for entry in rep["trace"]:
                frac = entry["significance"]
                print(f"  {entry['attribute']:<8} sig={frac['num']}/{frac['den']}"
                      f" group={entry['group']} -> {entry['verdict']}"
                      f" (base {entry['base_size_before']} -> {entry['base_size_after']})")
        if "all_reducts" in rep:
            print("all minimal reducts:")
            for r in rep["all_reducts"]:
                print(f"  {{{', '.join(r)}}}")
            print(f"heuristic result is minimal: {rep['heuristic_is_minimal']}")

    return _run(args, "reduct", work, render)


def _cmd_partition(args: argparse.Namespace) -> int:
    def work(table: InformationSystem) -> dict:
        attrs = _parse_attrs(table, args.attrs)
        return {
            "attributes": attrs,
            "blocks": [list(b) for b in ind_partition(table, attrs).blocks],
        }

    def render(rep: dict) -> None:
        print(f"partition over {{{', '.join(rep['attributes'])}}}: "
              f"{len(rep['blocks'])} blocks")
        for block in rep["blocks"]:
            print("  {" + ",".join(str(i) for i in block) + "}")

    return _run(args, "partition", work, render)


def _cmd_base(args: argparse.Namespace) -> int:
    def work(table: InformationSystem) -> dict:
        attrs = _parse_attrs(table, args.attrs)
        subbase = subbase_of(table, attrs)
        direct = minimal_neighborhoods(subbase)
        iterated = base_from_indiscernibility_matrix(subbase)
        return {
            "attributes": attrs,
            "subbase_size": len(subbase),
            "base": [list(m) for m in direct.members],
            "base_from_matrix": [list(m) for m in iterated.members],
            "methods_agree": family_equal(direct, iterated),
        }

    def render(rep: dict) -> None:
        print(f"sub-base over {{{', '.join(rep['attributes'])}}}: "
              f"{rep['subbase_size']} members")
        print(f"base ({len(rep['base'])} members):")
        for member in rep["base"]:
            print("  {" + ",".join(str(i) for i in member) + "}")
        print(f"matrix method agrees: {rep['methods_agree']}")

    return _run(args, "base", work, render)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reduct-forge",
        description="Attribute reduction for categorical decision tables.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", help="CSV file with a header row")
        p.add_argument("--builtin", choices=builtin_names(),
                       help="use a bundled dataset instead of a file")
        p.add_argument("--decision", default="identity", metavar="NAME|identity",
                       help="decision column (default: identity policy)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_sig = sub.add_parser("significance", help="rank attributes by significance")
    add_common(p_sig)
    p_sig.set_defaults(func=_cmd_significance)

    p_red = sub.add_parser("reduct", help="eliminate redundant attributes")
    add_common(p_red)
    p_red.add_argument("--group", default="threshold", metavar="threshold|count:N",
                       help="low/high grouping policy (default: threshold)")
    p_red.add_argument("--exhaustive", action="store_true",
                       help="also enumerate all minimal reducts")
    p_red.add_argument("--trace", action="store_true",
                       help="include the per-attribute verdict log")
    p_red.set_defaults(func=_cmd_reduct)

    p_part = sub.add_parser("partition", help="indiscernibility partition")
    add_common(p_part)
    p_part.add_argument("--attrs", metavar="a,b,c",
                        help="attribute subset (default: all conditional)")
    p_part.set_defaults(func=_cmd_partition)

    p_base = sub.add_parser("base", help="topology base from a sub-base")
    add_common(p_base)
    p_base.add_argument("--attrs", metavar="a,b,c",
                        help="attribute subset (default: all conditional)")
    p_base.set_defaults(func=_cmd_base)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if bool(args.input) == bool(args.builtin):
        print("error: give exactly one of INPUT.csv or --builtin", file=sys.stderr)
        return EXIT_INPUT
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed stdout is caught below
        return code
    except BrokenPipeError:
        # The reader stopped early, as ``| head`` does; that is not an error.
        # Point stdout at the null device so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except TooManyAttributes as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ReductForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
