"""The yokohecke benchmark.

    python3 bench/run.py --workload {framed,classical,oracle} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
``src/`` (nothing is installed).  With ``--trace 0`` it runs the workload's
items as fresh ``python -m yokohecke ...`` processes, one at a time, in
passes until ``--seconds`` have gone by (at least one whole pass), checks
every output, and reports the end-to-end metrics, with every time scaled to
a reference machine speed (see ``calibrate``).  With ``--trace 1`` it
runs four passes in-process (untraced, traced, traced, untraced), each in
a fresh process, and reports the per-layer metrics.  The last line of standard
output is one JSON object; the lines before it are a readable table.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import items as items_mod
import tracer as tracer_mod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 15           # fresh interpreters timed for setup_s
HARD_LIMIT_S = 165.0        # stop and fail rather than overrun 180 s
# calibrate() on the 2-core machine the benchmark was written on, at a
# typical moment; times are reported at this reference speed.
CALIBRATION_REF_S = 0.004


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[int, str, str, float, int]:
    """Run one child to completion: (exit code, stdout, stderr, seconds, max RSS KiB).

    The child's output goes to files in the checkout; ``os.wait4`` gives its
    resource usage.  A child still running at ``deadline`` is killed.
    """
    out_path = os.path.join(OUT_DIR, "child.out")
    err_path = os.path.join(OUT_DIR, "child.err")
    wflags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, wflags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, wflags, 0o644),
    ]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise Deadline()
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        signal.setitimer(signal.ITIMER_REAL, remaining)
        _, status, usage = os.wait4(pid, 0)
    except Deadline:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = perf_counter() - t0
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    return os.waitstatus_to_exitcode(status), out, err, seconds, usage.ru_maxrss


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop like the program's inner loops
    (Fraction arithmetic, tuple keys, dict updates); median of five.

    The host's speed drifts by a third within minutes, and the program's
    times drift with it.  Each timing is scaled by CALIBRATION_REF_S over
    the calibration taken around it, so runs made at different moments
    compare; the table also prints the unscaled figures.
    """
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc: dict = {}
        for i in range(1, 400):
            f = Fraction(i, i + 1) * Fraction(3, 7) + Fraction(1, i)
            key = (i % 17, i % 5)
            acc[key] = acc.get(key, 0) + f
        times.append(perf_counter() - t0)
    return statistics.median(times)


def child_env() -> dict:
    """The environment of every child: the caller's, without its PYTHON*
    settings (PYTHONDONTWRITEBYTECODE, PYTHONHASHSEED, ...), which would
    change what is measured, and with PYTHONPATH pointing at ``src/``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return env


def item_argv(item: dict) -> list[str]:
    if item["kind"] == "suite":
        return [sys.executable, os.path.join(HERE, "suite_item.py"), *item["args"]]
    return [sys.executable, "-m", "yokohecke", *item["args"]]


def import_probe(env: dict, deadline: float) -> tuple[float, bool]:
    """Seconds for a fresh interpreter to finish ``import yokohecke``."""
    code, _, err, seconds, _ = spawn([sys.executable, "-c", "import yokohecke"],
                                     env, deadline)
    return seconds, code == 0 and not err


def run_untraced(work: list[dict], seconds: float, env: dict, deadline: float) -> dict:
    # One untimed import writes the bytecode cache, as an installed package
    # would have it.  The timed imports are spread between the items so that
    # they sample the same machine conditions as the items do.
    _, setup_ok = import_probe(env, deadline)
    setup_times: list[float] = []
    samples: list[list[float]] = [[] for _ in work]
    raw: list[list[float]] = [[] for _ in work]
    cal_ratios: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    peak_kib = 0
    passes = 0
    cal = calibrate()
    t0 = perf_counter()

    def scaled(seconds_taken: float) -> float:
        # scale by the calibrations just before and just after the child
        nonlocal cal
        after = calibrate()
        factor = 2 * CALIBRATION_REF_S / (cal + after)
        cal_ratios.append(1 / factor)
        cal = after
        return seconds_taken * factor

    while passes == 0 or perf_counter() - t0 < seconds:
        for pos, item in enumerate(work):
            if passes and perf_counter() - t0 >= seconds:
                break
            code, out, err, dt, rss = spawn(item_argv(item), env, deadline)
            attempted += 1
            samples[pos].append(scaled(dt))
            raw[pos].append(dt)
            peak_kib = max(peak_kib, rss)
            if not items_mod.check_output(item, code, out, err):
                failed += 1
                failures.append(item["label"])
            if len(setup_times) < SETUP_PROBES:
                probe_s, ok = import_probe(env, deadline)
                setup_times.append(scaled(probe_s))
                setup_ok = setup_ok and ok
        passes += 1
    while len(setup_times) < SETUP_PROBES:
        probe_s, ok = import_probe(env, deadline)
        setup_times.append(scaled(probe_s))
        setup_ok = setup_ok and ok
    # Each position's median over its repeats; a pass is the sum of them.
    per_item = sorted(statistics.median(s) for s in samples)
    metrics = {
        "wall_s": sum(per_item),
        "item_p50_s": statistics.median(per_item),
        "item_p90_s": statistics.quantiles(per_item, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "correct": failed == 0 and setup_ok,
        "notes": [
            f"times are at the reference speed; calibration took "
            f"{statistics.median(cal_ratios):.3f} x its reference time "
            f"(range {min(cal_ratios):.3f}-{max(cal_ratios):.3f})",
            f"unscaled wall_s: {sum(statistics.median(r) for r in raw):.4f} s",
            f"items per pass: {len(work)}; item runs: {attempted}; "
            f"runs per item: {min(map(len, samples))}-{max(map(len, samples))}",
            f"item_p50_s / item_p90_s are taken over the {len(work)} per-item "
            f"medians; {sum(x > metrics['item_p90_s'] for x in per_item)} lie "
            f"beyond the p90",
            f"fail_frac: {failed / attempted:.4f} ({failed} of {attempted})",
        ],
    }


def run_traced(workload: str, seed: int, env: dict, deadline: float) -> dict:
    base = [sys.executable, os.path.join(HERE, "inproc.py"),
            "--workload", workload, "--seed", str(seed)]
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
    runs = []
    # plain, traced, traced, plain: the overhead ratio cancels a drift of
    # the machine's speed that is linear over the four passes.
    for extra in (["--mode", "plain"],
                  ["--mode", "traced", "--spans", spans_path],
                  ["--mode", "traced"],
                  ["--mode", "plain"]):
        code, out, err, _, _ = spawn(base + extra, env, deadline)
        if code != 0 or err:
            raise RuntimeError(f"in-process pass failed: {err.strip()[-500:]}")
        runs.append(json.loads(out.strip().splitlines()[-1]))
    plain, traced, again, plain_again = runs
    steady = (tracer_mod.deterministic(traced["counters"])
              == tracer_mod.deterministic(again["counters"]))
    # Unscaled: two short calibrations would add more noise than the
    # drift between adjacent passes.
    overhead = ((traced["wall_s"] + again["wall_s"])
                / (plain["wall_s"] + plain_again["wall_s"]) - 1.0)
    metrics = tracer_mod.layer_metrics(traced["self_s"], traced["counters"],
                                       traced["all_basic_items"], overhead)
    failures = [label for r in runs for label in r["failed"]]
    attempted = sum(r["attempted"] for r in runs)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "correct": not failures and steady,
        "notes": [
            "in-process passes (unscaled, like the self times): "
            + ", ".join(f"{r['wall_s']:.3f} s" for r in runs)
            + " (plain, traced, traced, plain)",
            "counters repeat across the two traced passes: "
            + ("yes" if steady else "NO"),
            f"spans written to {os.path.relpath(spans_path, ROOT)}",
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=items_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "yokohecke", "__init__.py")):
        print(f"error: no yokohecke sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + HARD_LIMIT_S
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT_DIR, exist_ok=True)
    os.chdir(ROOT)
    env = child_env()
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, env, deadline)
            units = dict(tracer_mod.PER_LAYER)
        else:
            work = items_mod.build_pass(args.workload, args.seed)
            result = run_untraced(work, args.seconds, env, deadline)
            units = {"wall_s": "s", "item_p50_s": "s", "item_p90_s": "s",
                     "setup_s": "s", "peak_rss_mb": "MB"}
    except Deadline:
        print(f"error: run exceeded {HARD_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in result["metrics"].items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    for note in result["notes"]:
        print(f"  {note}")
    for label in result["failures"]:
        print(f"  FAILED {label}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
