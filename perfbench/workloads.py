"""Seeded decision-table generator and the four benchmark workloads.

Every table is drawn from ``random.Random(f"{workload}/{seed}")``, so the same
workload and seed always give byte-identical CSV files.  A workload cycles
through a fixed list of shapes (n, m), and the number of tables depends only
on ``--seconds``, so every build is timed on the same inputs.  Each table is
written as ``VARIANTS`` files: the rows as drawn, then row permutations of
them.  The variants have the same groupings and answers, so a run can time
one table several times without feeding the program the same file twice.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

VARIANTS = 5  # files per table: the rows as drawn, then row permutations


@dataclass(frozen=True)
class Table:
    """One generated CSV file and the shape it was drawn with."""

    id: str  # file id, ``t<table>v<variant>``
    base: str  # table id, ``t<table>``, shared by its variants
    variant: int
    path: str
    shape: dict


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments after the subcommand and the CSV path
    subcommand: str
    decision: str | None  # decision column, or None for the identity policy
    shapes: tuple[dict, ...]  # table i has shape ``shapes[i % len(shapes)]``
    call_s: float  # typical seed-code time of one call, averaged over the shapes
    make: Callable[[random.Random, dict], tuple[list[str], list[list[str]], dict]]

    def tables_for(self, seconds: int) -> int:
        """Tables in a run of ``seconds``: a whole number of shape cycles
        whose calls, ``VARIANTS`` per table, take about ``seconds`` on the
        seed code."""
        cycle = len(self.shapes)
        return cycle * max(1, round(seconds / (VARIANTS * self.call_s * cycle)))


def _labelled_table(rng: random.Random, shape: dict):
    """Eight random base columns (k=4), four coarsenings and four pair
    combinations of them, shuffled, plus a 3-class decision with 5 % noise."""
    n = shape["n"]
    base = [[rng.randrange(4) for _ in range(8)] for _ in range(n)]
    coarse = rng.sample(range(8), 4)
    pairs = [tuple(rng.sample(range(8), 2)) for _ in range(4)]
    columns: list[tuple[str, int, list[int]]] = []
    for j in range(8):
        columns.append((f"b{j + 1}", 4, [row[j] for row in base]))
    for i, j in enumerate(coarse):
        columns.append((f"h{i + 1}", 2, [row[j] // 2 for row in base]))
    for i, (j, l) in enumerate(pairs):
        columns.append((f"p{i + 1}", 16, [row[j] * 4 + row[l] for row in base]))
    rng.shuffle(columns)
    decision = [
        rng.randrange(3) if rng.random() < 0.05 else (row[0] + row[1] + row[2]) % 3
        for row in base
    ]
    names = [name for name, _, _ in columns] + ["d"]
    rows = [[str(col[i]) for _, _, col in columns] + [str(decision[i])] for i in range(n)]
    derived = [name for name, _, _ in columns if not name.startswith("b")]
    return names, rows, {"k": [k for _, k, _ in columns], "decision_classes": 3,
                         "derived": derived}


def _identity_table(rng: random.Random, shape: dict):
    """Random columns of ``k`` values and no decision column, so the CLI
    uses the identity decision: every object is its own decision class."""
    n, m, k = shape["n"], shape["m"], shape["k"]
    names = [f"a{j + 1}" for j in range(m)]
    rows = [[str(rng.randrange(k)) for _ in range(m)] for _ in range(n)]
    return names, rows, {"k": [k] * m, "decision_classes": n, "derived": []}


def _oracle_table(rng: random.Random, shape: dict):
    """Binary columns with a planted reduct structure: m-2 independent columns,
    each of which has a pair of rows differing in it alone, plus exact copies
    of two of them.  The minimal reducts are then the four ways of keeping one
    column of each copied pair, so the exhaustive search visits the same
    number of subsets for every seed and only the row contents vary."""
    n, m = shape["n"], shape["m"]
    free = m - 2
    rows = []
    for j in range(free):
        row = [rng.getrandbits(1) for _ in range(free)]
        rows.append(row)
        rows.append(row[:j] + [1 - row[j]] + row[j + 1:])
    rows += [[rng.getrandbits(1) for _ in range(free)] for _ in range(n - len(rows))]
    rng.shuffle(rows)
    copied = rng.sample(range(free), 2)
    columns = [(f"x{j + 1}", j) for j in range(free)]
    columns += [(f"x{j + 1}c", j) for j in copied]
    rng.shuffle(columns)
    names = [name for name, _ in columns]
    table = [[str(row[j]) for _, j in columns] for row in rows]
    return names, table, {"k": [2] * m, "decision_classes": n,
                          "derived": [f"x{j + 1}c" for j in copied]}


def _tall_table(rng: random.Random, shape: dict):
    """Binary attributes with an ``id`` label column and a 3-class decision
    ``(x1 + x2 + x3) mod 3`` with 5 % noise, so that condition blocks of a few
    objects are impure and significances are small but nonzero."""
    n, m = shape["n"], shape["m"]
    names = ["id"] + [f"x{i + 1}" for i in range(m)] + ["d"]
    rows = []
    for i in range(n):
        bits = [rng.getrandbits(1) for _ in range(m)]
        d = rng.randrange(3) if rng.random() < 0.05 else sum(bits[:3]) % 3
        rows.append([f"o{i}"] + [str(b) for b in bits] + [str(d)])
    return names, rows, {"k": [2] * m, "decision_classes": 3, "derived": []}


# ``call_s`` is the seed code's typical call time on the host of
# perfbench/README.md, so the calls of a run take about ``--seconds`` there.
# Calls last 0.1 to 1 s, so a run has 35 to 60 of them.
WORKLOADS = {
    w.name: w
    for w in (
        # Singleton decision classes make positive_region's block scan
        # O(n^2), so ranking is about half of each call; nothing is
        # redundant, so every elimination candidate is kept.
        Workload(
            name="identity-reduct",
            subcommand="reduct",
            argv=("--json",),
            decision=None,
            shapes=({"n": 400, "m": 10, "k": 3},),
            call_s=0.45,
            make=_identity_table,
        ),
        # Few decision blocks make ranking cheap; the derived columns make
        # elimination remove most attributes against the topology base.
        Workload(
            name="labelled-redundant",
            subcommand="reduct",
            argv=("--decision", "d", "--json"),
            decision="d",
            shapes=({"n": 400, "m": 16},),
            call_s=0.45,
            make=_labelled_table,
        ),
        # The only workload running the exhaustive oracle: about 2^m partition
        # comparisons on small, wide binary tables.
        Workload(
            name="oracle-wide",
            subcommand="reduct",
            argv=("--exhaustive", "--json"),
            decision=None,
            shapes=({"n": 200, "m": 10},),
            call_s=0.45,
            make=_oracle_table,
        ),
        # The only workload at 10000 to 30000 objects: CSV load, big-int
        # partition construction and memory.  Topology is idle.  The spread
        # of n lets objects_per_s weight the largest tables.
        Workload(
            name="significance-tall",
            subcommand="significance",
            argv=("--decision", "d", "--json"),
            decision="d",
            shapes=({"n": 10000, "m": 8}, {"n": 20000, "m": 8}, {"n": 30000, "m": 8}),
            call_s=0.45,
            make=_tall_table,
        ),
    )
}


def _csv(names: list[str], rows: list[list[str]]) -> str:
    return "\n".join([",".join(names)] + [",".join(row) for row in rows]) + "\n"


def generate(workload: Workload, seed: int, count: int, out_dir: str) -> list[Table]:
    """Write ``count`` tables, ``VARIANTS`` files each, under ``out_dir``.

    Also writes ``manifest.json`` there with every table's shape (n, m,
    per-attribute k, decision classes, derived columns, bytes).
    """
    rng = random.Random(f"{workload.name}/{seed}")
    os.makedirs(out_dir, exist_ok=True)
    tables = []
    for i in range(count):
        shape = workload.shapes[i % len(workload.shapes)]
        names, rows, extra = workload.make(rng, shape)
        text = _csv(names, rows)
        record = {
            "n": len(rows),
            "m": len(names) - (workload.decision is not None) - ("id" in names),
            "decision": workload.decision or "identity",
            "bytes": len(text.encode("utf-8")),
            **extra,
        }
        for v in range(VARIANTS):
            if v:
                rng.shuffle(rows)
                text = _csv(names, rows)
            file_id = f"t{i}v{v}"
            path = os.path.join(out_dir, f"{file_id}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            tables.append(Table(id=file_id, base=f"t{i}", variant=v, path=path, shape=record))
    manifest = [{"id": t.id, "file": os.path.basename(t.path), **t.shape}
                for t in tables if t.variant == 0]
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed, "variants": VARIANTS,
                   "tables": manifest}, handle, indent=1)
    return tables
