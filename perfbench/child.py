"""Run one workload's tables through ``reduct_forge.cli.main`` in this fresh
interpreter, one table at a time, and write every call's output and timing.

Usage: ``python3 perfbench/child.py PLAN.json`` (``perfbench/run.py`` writes
the plan and starts this process with a fixed ``PYTHONHASHSEED``).

The plan lists the files in the order they run.  The calibration loop of
``calibrate.py`` runs before the first call and after every call, so each
call is timed between two loop times.  Untraced mode times one call per
file and nothing else.  Traced mode runs each file twice, once untraced and
once with spans recorded around the calls ``cli.main`` makes into each
layer, alternating which goes first, and then times direct probe calls into
the ``partition`` and ``topology`` layers on the same table.
A call that would start after the plan's time cap is not made and is
recorded with no exit code, so the parent counts it as failed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time
import traceback

from calibrate import reference_s


class Tracer:
    """In-memory spans: name, start, end, parent span, traced call id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.call: int | None = None
        self.table = None  # the InformationSystem last loaded under tracing

    def span(self, name, fn, *args, counts=None, **kwargs):
        sid = len(self.spans)
        record = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
                  "call": self.call}
        self.spans.append(record)
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            record["counts"] = counts(result)
        return result

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, counts=counts, **kwargs)

        return traced


def _patches(tracer: Tracer):
    """(module, attribute, span name, counts) for each layer call in ``cli``."""
    import reduct_forge.cli as cli
    import reduct_forge.reduct as reduct

    def loaded(table):
        tracer.table = table
        return {}

    def ranked(result):
        return {"zero_attrs": sum(1 for _, v in result.ranked if v == 0)}

    def eliminated(result):
        return {"candidates": len(result.trace), "removed": len(result.removed)}

    return [
        (cli, "load_csv", "dataset.load_csv", loaded),
        (cli, "rank_attributes", "significance.rank_attributes", ranked),
        (cli, "eliminate", "reduct.eliminate", eliminated),
        (cli, "exhaustive_reducts", "reduct.exhaustive_reducts",
         lambda found: {"reducts_found": len(found)}),
        (reduct, "rank_attributes", "significance.rank_attributes", ranked),
    ]


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    patches = _patches(tracer)
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    try:
        for module, attr, name, counts in patches:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), counts))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def run_cli(main, argv: list[str]) -> dict:
    """One timed ``cli.main`` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the parent counts a call without exit code 0 as failed
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return {"wall_s": wall, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def probe_layers(tracer: Tracer, with_topology: bool) -> None:
    """Direct calls into ``partition`` and ``topology`` on the last loaded table."""
    from reduct_forge.dataset import conditional_attributes
    from reduct_forge.partition import decision_partition, gamma, ind_partition
    from reduct_forge.topology import minimal_neighborhoods, subbase_of

    table = tracer.table
    cond = conditional_attributes(table)
    full = tracer.span("partition.ind_partition", ind_partition, table, cond,
                       counts=lambda p: {"blocks": len(p)})
    dec = decision_partition(table)
    tracer.span("partition.gamma", gamma, full, dec,
                counts=lambda _: {"decision_blocks": len(dec)})
    if with_topology:
        def base():
            sub = subbase_of(table, cond)
            return sub, minimal_neighborhoods(sub)

        tracer.span("topology.base", base,
                    counts=lambda r: {"subbase_size": len(r[0]), "base_size": len(r[1])})


def traced_call(tracer: Tracer, main, argv: list[str], with_topology: bool) -> dict:
    """``run_cli`` inside a ``cli.main`` span with the layer calls traced,
    followed by the probe calls on the table it loaded."""
    tracer.table = None
    with traced_layers(tracer):
        result = tracer.span("cli.main", run_cli, main, argv)
    if tracer.table is not None:
        probe_layers(tracer, with_topology)
    return result


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    import reduct_forge.cli as cli

    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package_dir) != plan["src"]:
        print(f"reduct_forge imported from {package_dir}, not from {plan['src']}",
              file=sys.stderr)
        return 2

    # One unmeasured call, so that first-call allocation is not in any table.
    run_cli(cli.main, ["reduct", "--builtin", "seven-segment", "--json"])

    tracer = Tracer() if plan["trace"] else None
    calls: list[dict] = []
    start = time.perf_counter()
    ref = reference_s()
    for index, table in enumerate(plan["tables"]):
        argv = [plan["subcommand"], table["path"], *plan["argv"]]
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if index % 2 == 0 else (True, False)
        for traced in modes:
            if time.perf_counter() - start > plan["cap_s"]:
                result = {"wall_s": None, "exit": None, "stdout": "",
                          "stderr": f"not run: the {plan['cap_s']} s time cap had passed"}
            elif traced:
                tracer.call = len(calls)
                result = traced_call(tracer, cli.main, argv, plan["subcommand"] == "reduct")
            else:
                result = run_cli(cli.main, argv)
            if result["wall_s"] is not None:
                after = reference_s()
                result["ref_s"] = (ref, after)
                ref = after
            calls.append({"table": table["id"], "traced": traced, **result})

    result = {
        "package": package_dir,
        "calls": calls,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
