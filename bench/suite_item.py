"""One oracle item: run a verify suite with a given seed, print its checks.

    PYTHONPATH=src python3 bench/suite_item.py SUITE D N SEED

Prints ``PASS <id>`` / ``FAIL <id> : <detail>`` lines like ``yokohecke
verify`` and exits 1 if a check fails.  ``yokohecke verify`` fixes its own
seed, so the oracle workload calls the public ``verify.run_suite``.
"""

from __future__ import annotations

import sys

from yokohecke import verify


def run(args: list[str]) -> tuple[int, str]:
    suite, d, n, seed = args[0], int(args[1]), int(args[2]), int(args[3])
    lines, failed = [], False
    for check_id, ok, detail in verify.run_suite(suite, d, n, seed=seed):
        lines.append(f"PASS {check_id}" if ok else f"FAIL {check_id} : {detail}")
        failed = failed or not ok
    return (1 if failed else 0), "".join(line + "\n" for line in lines)


if __name__ == "__main__":
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    raise SystemExit(code)
