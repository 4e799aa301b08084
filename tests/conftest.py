"""Shared fixtures: the bundled table, random-table corpora, and the
independent brute-force oracles the derived expectations are frozen against.

Also collects acceptance-criterion outcomes and prints one line per
criterion in the terminal summary, regardless of capture settings.
"""

from __future__ import annotations

import random
import re
from itertools import combinations

import pytest

from reduct_forge import InformationSystem, builtin_seven_segment

ACCEPTANCE_DETAILS: dict[str, str] = {}
_ACCEPTANCE_RESULTS: list[str] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        match = re.match(r"test_(c\d+)_(.*)", item.name)
        if match:
            status = "PASS" if report.passed else "FAIL"
            detail = ACCEPTANCE_DETAILS.get(match.group(1), "")
            label = f"{match.group(1).upper()} {match.group(2).replace('_', '-')}"
            suffix = f" ({detail})" if detail and report.passed else ""
            _ACCEPTANCE_RESULTS.append(f"{label}: {status}{suffix}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def seven_segment() -> InformationSystem:
    return builtin_seven_segment()


def make_table(rows: list[list[str]], attrs: list[str], decision: str | None = None) -> InformationSystem:
    return InformationSystem(
        object_ids=tuple(str(i) for i in range(len(rows))),
        attributes=tuple(attrs),
        rows=tuple(tuple(r) for r in rows),
        decision=decision,
    )


def random_table(
    rng: random.Random,
    max_objects: int = 10,
    max_attrs: int = 7,
    n_values: int = 2,
    distinct_rows: bool = False,
) -> InformationSystem:
    n_attrs = rng.randint(1, max_attrs)
    if distinct_rows:
        n_objects = rng.randint(1, min(max_objects, n_values**n_attrs))
        seen: set[tuple[str, ...]] = set()
        rows: list[list[str]] = []
        while len(rows) < n_objects:
            row = tuple(str(rng.randrange(n_values)) for _ in range(n_attrs))
            if row not in seen:
                seen.add(row)
                rows.append(list(row))
    else:
        n_objects = rng.randint(1, max_objects)
        rows = [
            [str(rng.randrange(n_values)) for _ in range(n_attrs)]
            for _ in range(n_objects)
        ]
    attrs = [f"c{i + 1}" for i in range(n_attrs)]
    return make_table(rows, attrs)


# ---------------------------------------------------------------------------
# Independent oracles (no reliance on the package's partition/topology code).
# ---------------------------------------------------------------------------

def positive_region_oracle(table: InformationSystem, attrs: list[str]) -> set[int]:
    """x is positive iff every object agreeing with x on attrs shares its
    decision class (identity policy: is the same object)."""
    cols = [table.attributes.index(a) for a in attrs]
    if table.decision is None:
        dec = list(range(table.object_count))
    else:
        d = table.attributes.index(table.decision)
        dec = [row[d] for row in table.rows]
    pos = set()
    for x in range(table.object_count):
        ok = True
        for y in range(table.object_count):
            if all(table.rows[x][c] == table.rows[y][c] for c in cols) and dec[x] != dec[y]:
                ok = False
                break
        if ok:
            pos.add(x)
    return pos


def blocks_oracle(table: InformationSystem, attrs: list[str]) -> set[frozenset[int]]:
    """Equivalence classes by direct row comparison."""
    cols = [table.attributes.index(a) for a in attrs]
    groups: dict[tuple[str, ...], set[int]] = {}
    for i, row in enumerate(table.rows):
        groups.setdefault(tuple(row[c] for c in cols), set()).add(i)
    return {frozenset(g) for g in groups.values()}


def neighborhoods_oracle(n: int, family: list[frozenset[int]]) -> set[frozenset[int]]:
    """Minimal neighborhoods straight from the definition, on frozensets."""
    out = set()
    for x in range(n):
        around = [m for m in family if x in m]
        assert around, f"object {x} uncovered"
        nb = set(around[0])
        for m in around[1:]:
            nb &= m
        out.add(frozenset(nb))
    return out


def minimal_preserving_subsets_oracle(table: InformationSystem) -> set[frozenset[str]]:
    """All minimal attribute subsets with the same row-grouping as the full
    set, found by plain subset enumeration over row tuples."""
    attrs = [a for a in table.attributes if a != table.decision]

    def grouping(subset: tuple[str, ...]) -> frozenset[frozenset[int]]:
        cols = [table.attributes.index(a) for a in subset]
        groups: dict[tuple[str, ...], set[int]] = {}
        for i, row in enumerate(table.rows):
            groups.setdefault(tuple(row[c] for c in cols), set()).add(i)
        return frozenset(frozenset(g) for g in groups.values())

    target = grouping(tuple(attrs))
    found: list[frozenset[str]] = []
    for size in range(len(attrs) + 1):
        for combo in combinations(attrs, size):
            cand = frozenset(combo)
            if any(r <= cand for r in found):
                continue
            if grouping(combo) == target:
                found.append(cand)
    return set(found)


def members_oracle(mask: int, n: int) -> list[int]:
    """The members of a bitset over ``0..n-1``, one bit test per index."""
    return [i for i in range(n) if mask >> i & 1]


def grouping_oracle(keys: list[object]) -> list[int]:
    """One mask per distinct key, in first-occurrence order, built by ORing
    ``1 << i`` into its key's mask once per object."""
    groups: dict[object, int] = {}
    for i, key in enumerate(keys):
        groups[key] = groups.get(key, 0) | (1 << i)
    return list(groups.values())


def random_cover(rng: random.Random, n: int) -> list[frozenset[int]]:
    """A random family of nonempty subsets of 0..n-1 whose union is everything."""
    fam: set[frozenset[int]] = set()
    for _ in range(rng.randint(1, 9)):
        members = {i for i in range(n) if rng.random() < 0.5}
        if members:
            fam.add(frozenset(members))
    covered = set().union(*fam) if fam else set()
    missing = set(range(n)) - covered
    if missing:
        extra = missing | {i for i in range(n) if rng.random() < 0.5}
        fam.add(frozenset(extra))
    return sorted(fam, key=sorted)
