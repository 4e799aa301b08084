"""Independent check of the CLI's JSON output, by plain row-tuple grouping.

Nothing here imports ``reduct_forge``: a table is re-read from its CSV file
and two attribute sets are compared by counting distinct row projections.
For ``A ⊆ B`` the two groupings are equal exactly when the counts are equal.
Each check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from operator import itemgetter


class CsvTable:
    """A generated CSV file as row tuples of strings, ``id`` column dropped."""

    def __init__(self, path: str, decision: str | None):
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        header = lines[0].split(",")
        body = [line.split(",") for line in lines[1:] if line]
        keep = [i for i, name in enumerate(header) if name != "id"]
        self.names = [header[i] for i in keep]
        self.rows = [tuple(row[i] for i in keep) for row in body]
        self.decision = decision
        self.cond = [a for a in self.names if a != decision]

    def _keys(self, attrs) -> list:
        cols = [self.names.index(a) for a in attrs]
        if not cols:
            return [()] * len(self.rows)
        return list(map(itemgetter(*cols), self.rows))

    def groups(self, attrs) -> int:
        """Number of distinct projections of the rows onto ``attrs``."""
        return len(set(self._keys(attrs)))

    def gamma(self, attrs) -> Fraction:
        """Share of rows whose projection onto ``attrs`` has one decision."""
        keys = self._keys(attrs)
        decisions = self._keys([self.decision])
        first: dict = {}
        impure = set()
        for key, decision in zip(keys, decisions):
            if first.setdefault(key, decision) != decision:
                impure.add(key)
        pure = sum(size for key, size in Counter(keys).items() if key not in impure)
        return Fraction(pure, len(self.rows))


def _reduct_problems(table: CsvTable, reduct: list[str], full: int, label: str) -> list[str]:
    """``reduct`` keeps the full grouping and no kept attribute can go."""
    problems = []
    if table.groups(reduct) != full:
        problems.append(f"{label} {reduct} does not preserve the full grouping")
    for a in reduct:
        if table.groups([b for b in reduct if b != a]) == full:
            problems.append(f"{label} {reduct} is not minimal: {a} can be dropped")
    return problems


def check_reduct(table: CsvTable, out: dict, exhaustive: bool) -> list[str]:
    reduct, removed = out["reduct"], out["removed"]
    problems = []
    if sorted(reduct + removed) != sorted(table.cond) or len(set(reduct + removed)) != len(
        table.cond
    ):
        problems.append(f"reduct {reduct} and removed {removed} do not partition "
                        f"the conditional attributes")
    full = table.groups(table.cond)
    problems += _reduct_problems(table, reduct, full, "reduct")
    if out.get("verified_minimal") is not True:
        problems.append("verified_minimal is not true")
    if exhaustive:
        listed = out.get("all_reducts")
        if not listed:
            problems.append("no all_reducts listed")
            return problems
        for r in listed:
            problems += _reduct_problems(table, r, full, "listed reduct")
        if sorted(reduct) not in [sorted(r) for r in listed]:
            problems.append(f"heuristic reduct {reduct} is not among all_reducts")
        if out.get("heuristic_is_minimal") is not True:
            problems.append("heuristic_is_minimal is not true")
    return problems


def check_significance(table: CsvTable, out: dict) -> list[str]:
    ranked = out["ranked"]
    names = [row["attribute"] for row in ranked]
    if sorted(names) != sorted(table.cond) or len(set(names)) != len(table.cond):
        return [f"ranked attributes {names} are not the conditional attributes"]
    problems = []
    with_all = table.gamma(table.cond)
    values = []
    for row in ranked:
        a, sig = row["attribute"], row["significance"]
        expected = with_all - table.gamma([b for b in table.cond if b != a])
        if (sig["num"], sig["den"]) != (expected.numerator, expected.denominator):
            problems.append(f"significance of {a} is {sig['num']}/{sig['den']}, "
                            f"expected {expected}")
        values.append((expected, table.cond.index(a)))
    if values != sorted(values):
        problems.append("ranked list is not in ascending order (ties in column order)")
    return problems


def check_output(table: CsvTable, subcommand: str, exhaustive: bool, stdout: str) -> list[str]:
    """All problems with one CLI call's ``--json`` output for ``table``."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["output is not JSON"]
    if not isinstance(out, dict):
        return ["output is not a JSON object"]
    if out.get("command") != subcommand:
        return [f"command is {out.get('command')!r}, expected {subcommand!r}"]
    dataset = out.get("dataset", {})
    problems = []
    if dataset.get("objects") != len(table.rows):
        problems.append(f"dataset reports {dataset.get('objects')} objects, "
                        f"table has {len(table.rows)}")
    if dataset.get("conditional_attributes") != table.cond:
        problems.append("dataset conditional attributes differ from the table's")
    try:
        if subcommand == "significance":
            return problems + check_significance(table, out)
        return problems + check_reduct(table, out, exhaustive)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"output does not follow the --json schema: {exc!r}"]


def normalized(stdout: str) -> str:
    """Output with the run-dependent ``elapsed_ms`` field removed, for
    comparing repeated calls on the same table."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return stdout
    if not isinstance(out, dict):
        return stdout
    out.pop("elapsed_ms", None)
    return json.dumps(out, sort_keys=True)
