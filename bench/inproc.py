"""One pass of a workload inside a single process, optionally traced.

    PYTHONPATH=src python3 bench/inproc.py --workload W --seed N --mode traced

CLI items call ``yokohecke.cli.main`` with the item's arguments and capture
what it prints; oracle items call ``verify.run_suite``.  Both are looked up
as module attributes at call time, so the tracer's wrappers apply.  Prints
one JSON object: the pass wall time, the failures, and in traced mode the
per-layer self times and counters.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from time import perf_counter

import items as items_mod
import suite_item
import tracer as tracer_mod


def run_item(item: dict) -> tuple[int, str, str]:
    if item["kind"] == "suite":
        code, out = suite_item.run(item["args"])
        return code, out, ""
    from yokohecke import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(item["args"])
    return code, out.getvalue(), err.getvalue()


def run_pass(items: list[dict], tracer: tracer_mod.Tracer | None) -> dict:
    failed = []
    all_basic = 0
    t0 = perf_counter()
    for index, item in enumerate(items):
        if tracer is None:
            code, out, err = run_item(item)
        else:
            before = tracer.counts["links.delta_gamma.calls"]
            rec = tracer.begin_item(index, item["label"])
            try:
                code, out, err = run_item(item)
            finally:
                tracer.end_item(rec)
            if "--all-basic" in item["args"]:
                all_basic += 1
                tracer.counts["links.delta_gamma.calls.all_basic"] += (
                    tracer.counts["links.delta_gamma.calls"] - before)
        if not items_mod.check_output(item, code, out, err):
            failed.append(item["label"])
    result = {"wall_s": perf_counter() - t0, "attempted": len(items),
              "failed": failed, "all_basic_items": all_basic}
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counters"] = tracer.counters()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=items_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), default="traced")
    parser.add_argument("--items", type=int, default=None,
                        help="run only the first K items of the pass")
    parser.add_argument("--spans", default=None, help="write the spans to this file")
    args = parser.parse_args(argv)

    work = items_mod.build_pass(args.workload, args.seed)[: args.items]
    tracer = None
    if args.mode == "traced":
        tracer = tracer_mod.Tracer()
        tracer.install()
    try:
        result = run_pass(work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
