"""Seeded benchmark of the reduct-forge CLI: rank -> eliminate -> verify.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload labelled-redundant --seed 1 --seconds 20 --trace 0

The run generates its tables from ``--seed``, as many as take about
``--seconds`` on the seed code, each in several row-shuffled variants.  It
measures set-up time by launching the CLI in fresh interpreters, then feeds
the files one at a time to ``reduct_forge.cli.main`` in a fresh child
interpreter (closed loop, one client, single thread).  Every output is then
checked independently of the package.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which hold
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Machine notes and table shapes go to stderr; spans and
per-call results go to ``.perfbench_work/``.  The exit code is 0 only when
every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from calibrate import calibrated, reference_s
from check import CsvTable, check_output, normalized
from workloads import VARIANTS, WORKLOADS, generate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

HASH_SEED = "0"
SETUP_LAUNCHES = 30  # measured launches, after one unmeasured launch
CAP_S = 120  # calls not started within this many seconds count as failed
CHILD_TIMEOUT_S = 150
# The console-script entry point of ``reduct-forge``, run from ``src/``.
LAUNCH = "import sys; from reduct_forge.cli import main; sys.exit(main())"


def git_sha(root: str) -> str:
    """HEAD commit of the checkout at ``root``, or ``unknown`` when ``root``
    is not the top of a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(env: dict) -> tuple[list[float], list[float], int]:
    """Wall times of fresh ``reduct-forge reduct --builtin seven-segment
    --json`` launches, their calibrated times, and how many launches failed."""
    cmd = [sys.executable, "-c", LAUNCH, "reduct", "--builtin", "seven-segment", "--json"]
    times, scaled, failed = [], [], 0
    ref = reference_s()
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        after = reference_s()
        ok = proc.returncode == 0
        if ok:
            try:
                ok = json.loads(proc.stdout).get("command") == "reduct"
            except ValueError:
                ok = False
        if not ok:
            failed += 1
            print(f"setup launch failed ({proc.returncode}): {proc.stderr.strip()}",
                  file=sys.stderr)
        if i > 0:
            times.append(elapsed)
            scaled.append(calibrated(elapsed, ref, after))
        ref = after
    return times, scaled, failed


def check_calls(workload, tables: dict, calls: list[dict]) -> list[list[str]]:
    """Problems per call.  Each distinct output of a table is checked once,
    against whichever of its variants first gave it; a file whose output
    changes between calls is a problem."""
    exhaustive = "--exhaustive" in workload.argv
    verdicts: dict[tuple[str, str], list[str]] = {}
    first: dict[str, str] = {}
    problems = []
    for call in calls:
        if call["exit"] != 0:
            problems.append([f"exit code {call['exit']}: {call['stderr'].strip()[-500:]}"])
            continue
        table = tables[call["table"]]
        key = (table.base, normalized(call["stdout"]))
        if key not in verdicts:
            verdicts[key] = check_output(CsvTable(table.path, workload.decision),
                                         workload.subcommand, exhaustive, call["stdout"])
        found = list(verdicts[key])
        if first.setdefault(table.id, key[1]) != key[1]:
            found.append("output differs from an earlier call on the same file")
        problems.append(found)
    return problems


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(calls, tables, setup_scaled, rss_kb, attempted, failed) -> dict:
    """Times are calibrated (see calibrate.py).  A table's time is the median
    over its variants; ``table_p50_s`` is the median over tables."""
    per_table: dict[str, list[float]] = defaultdict(list)
    objects = 0
    for c in calls:
        if c["wall_s"] is not None:
            table = tables[c["table"]]
            per_table[table.base].append(calibrated(c["wall_s"], *c["ref_s"]))
            objects += table.shape["n"]
    total = sum(sum(times) for times in per_table.values())
    return {
        "setup_s": (_median(setup_scaled), "s"),
        "table_p50_s": (_median([_median(times) for times in per_table.values()]), "s"),
        "objects_per_s": (objects / total if total else 0.0, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }


def per_layer_metrics(calls, tables, spans) -> dict:
    """Per traced call: span time by name, self time (span minus its child
    spans) and the counts recorded at each boundary; then medians over calls."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    per_call: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = per_call[s["call"]]
        duration = s["end"] - s["start"]
        row[s["name"]] += duration
        row[s["name"] + ".self"] += duration - child_time[s["id"]]
        for key, value in s.get("counts", {}).items():
            row[key] += value
    rows = [per_call[i] for i, c in enumerate(calls) if c["traced"] and c["wall_s"] is not None]

    def med(key):
        return _median([row[key] for row in rows])

    def share(key):
        total = sum(row["cli.main"] for row in rows)
        return sum(row[key] for row in rows) / total if total else 0.0

    candidates = sum(row["candidates"] for row in rows)
    # Calls come in pairs on the same file, one traced and one not, in
    # alternating order.
    overheads = []
    for i in range(0, len(calls) - 1, 2):
        traced, untraced = (i, i + 1) if calls[i]["traced"] else (i + 1, i)
        if calls[traced]["wall_s"] is not None and calls[untraced]["wall_s"] is not None:
            overheads.append(per_call[traced]["cli.main"] / calls[untraced]["wall_s"] - 1.0)
    return {
        "dataset.load_s": (med("dataset.load_csv"), "s"),
        "dataset.input_bytes": (_median([tables[c["table"]].shape["bytes"]
                                         for c in calls if c["traced"]]), "bytes"),
        "partition.ind_s": (med("partition.ind_partition"), "s"),
        "partition.blocks": (med("blocks"), "count"),
        "partition.gamma_s": (med("partition.gamma"), "s"),
        "partition.decision_blocks": (med("decision_blocks"), "count"),
        "significance.rank_s": (med("significance.rank_attributes"), "s"),
        "significance.rank_share": (share("significance.rank_attributes"), "ratio"),
        "significance.zero_attrs": (med("zero_attrs"), "count"),
        "topology.base_s": (med("topology.base"), "s"),
        "topology.subbase_size": (med("subbase_size"), "count"),
        "topology.base_size": (med("base_size"), "count"),
        "reduct.eliminate_s": (med("reduct.eliminate"), "s"),
        "reduct.elim_self_s": (med("reduct.eliminate.self"), "s"),
        "reduct.candidates": (med("candidates"), "count"),
        "reduct.removed": (med("removed"), "count"),
        "reduct.removed_ratio": (
            sum(row["removed"] for row in rows) / candidates if candidates else 0.0, "ratio"),
        "reduct.exhaustive_s": (med("reduct.exhaustive_reducts"), "s"),
        "reduct.exhaustive_share": (share("reduct.exhaustive_reducts"), "ratio"),
        "reduct.reducts_found": (med("reducts_found"), "count"),
        "cli.main_s": (med("cli.main"), "s"),
        "cli.self_s": (med("cli.main.self"), "s"),
        "trace.overhead_frac": (_median(overheads), "ratio"),
        "host.ref_s": (_median([r for c in calls if c["wall_s"] is not None
                                for r in c["ref_s"]]), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "reduct_forge", "cli.py")):
        print(f"error: no reduct_forge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    count = workload.tables_for(args.seconds)
    tables = {t.id: t for t in generate(workload, args.seed, count,
                                        os.path.join(run_dir, "tables"))}
    notes = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "pythonhashseed": HASH_SEED,
        "variants": VARIANTS,
        "tables": [{"id": t.base, **t.shape} for t in tables.values() if t.variant == 0],
    }
    print(json.dumps(notes), file=sys.stderr)

    env = child_env()
    setup_times, setup_scaled, setup_failed = ([], [], 0) if args.trace else measure_setup(env)

    # Untraced: every variant, one round of all tables per variant.  Traced:
    # the drawn variant of each table.
    order = sorted((t for t in tables.values() if args.trace == 0 or t.variant == 0),
                   key=lambda t: (t.variant, int(t.base[1:])))
    plan_path = os.path.join(run_dir, "plan.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump({
            "src": SRC,
            "subcommand": workload.subcommand,
            "argv": list(workload.argv),
            "tables": [{"id": t.id, "path": t.path} for t in order],
            "cap_s": CAP_S,
            "trace": bool(args.trace),
            "result": result_path,
        }, handle)
    try:
        proc = subprocess.run([sys.executable, CHILD, plan_path], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: child did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: child exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)

    calls = result["calls"]
    problems = check_calls(workload, tables, calls)
    failed = sum(1 for p in problems if p) + setup_failed
    attempted = len(calls) + (0 if args.trace else SETUP_LAUNCHES + 1)
    for call, found in zip(calls, problems):
        for problem in found:
            print(f"FAILED {call['table']}: {problem}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(calls, tables, result["spans"])
    else:
        metrics = end_to_end_metrics(calls, tables, setup_scaled, result["rss_kb"],
                                     attempted, failed)
    record = {
        **notes,
        "package": result["package"],
        "setup_times_s": setup_times,
        "setup_scaled_s": setup_scaled,
        "calls": [{"table": c["table"], "traced": c["traced"], "wall_s": c["wall_s"],
                   "ref_s": c.get("ref_s"), "exit": c["exit"], "problems": p}
                  for c, p in zip(calls, problems)],
        "spans": result["spans"],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(os.path.join(WORK, f"{name}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
