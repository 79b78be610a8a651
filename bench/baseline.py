"""Re-measure the ROADMAP baseline cases once each, with a per-layer split.

    PYTHONPATH=src python3 bench/baseline.py

The cases are too slow for the repeated workloads (the first takes minutes),
so they run once: each as a fresh ``python -m yokohecke`` process for the
end-to-end time, then in this process under the tracer for the self time
of each layer and the counters.  The record is written to
``records/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from time import perf_counter

import inproc
import run
import tracer as tracer_mod

HERE = os.path.dirname(os.path.abspath(__file__))

TORUS_7 = " ".join(" ".join(str(i) for i in range(1, 7)) for _ in range(8))
WORKED = ("1 1 -2 -3 -2 1 1 1 -2 3 -2 1", "-1 2 2 2 -1 -3 2 2 2 -3")

# name -> (CLI argument lists, what the ROADMAP Baseline section states)
CASES = {
    "worked-example": (
        [["invariant", "--d", "2", "--n", "4", "--mu0", "1,1", "--word", w] for w in WORKED]
        + [["homflypt", "--n", "4", "--word", w] for w in WORKED],
        "scripts/worked_example.py 2.6 s end to end (1.5 s + 1.0 s for the two "
        "3-variable invariants)",
    ),
    "torus-7": (
        [["homflypt", "--n", "7", "--word", TORUS_7]],
        "15 s in total: 6 s in delta_H (5040 terms) and 9 s in markov_tau",
    ),
    "all-basic-d3-n5": (
        [["invariant", "--d", "3", "--n", "5", "--all-basic",
          "--word", "1 1 -2 3 3 -4 1 1 -2 3 3 -4"]],
        "253 s; the Y(3,5) image is rebuilt once per basic trace, 7 times",
    ),
}

REPORTED_SPANS = ("cli.main", "links.parse_word", "links.delta_gamma", "links.delta_H",
                  "yokonuma.to_E_basis", "isomap.psi_from_e_coeffs", "traces.rho_blocks",
                  "hecke.tau_parabolic", "hecke.markov_tau", "hecke.h_mul")


def run_case(name: str, calls: list[list[str]]) -> dict:
    env = run.child_env()
    cli_s = []
    outputs = []
    for args in calls:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "yokohecke", *args], env=env,
                              capture_output=True, text=True, check=False)
        cli_s.append(perf_counter() - t0)
        if proc.returncode != 0 or proc.stderr:
            raise SystemExit(f"{name}: {args} failed: {proc.stderr.strip()}")
        outputs.append(proc.stdout)

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        for index, args in enumerate(calls):
            rec = tracer.begin_item(index, name)
            try:
                code, out, err = inproc.run_item({"kind": "cli", "args": args})
            finally:
                tracer.end_item(rec)
            if code != 0 or err or out != outputs[index]:
                raise SystemExit(f"{name}: in-process output differs from the CLI")
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    self_s = tracer.self_times()
    return {
        "calls": [" ".join(a) for a in calls],
        "cli_wall_s": [round(s, 4) for s in cli_s],
        "cli_total_s": round(sum(cli_s), 4),
        "traced_total_s": round(traced_s, 4),
        "self_s": {k: round(self_s.get(k, 0.0), 4) for k in REPORTED_SPANS},
        "counters": dict(sorted(tracer.counters().items())),
    }


def main() -> int:
    record = {
        "kind": "baseline",
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "note": "one run per case; cli_wall_s includes interpreter start; the "
                "traced split runs in one process under bench/tracer.py",
        "cases": {},
    }
    for name in CASES:
        calls, roadmap = CASES[name]
        print(f"running {name} ...", file=sys.stderr)
        result = run_case(name, calls)
        result["roadmap_says"] = roadmap
        record["cases"][name] = result
        print(json.dumps({name: result["self_s"]}), file=sys.stderr)
    with open(os.path.join(HERE, "records", "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
