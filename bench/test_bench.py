"""Tests of the benchmark itself (not of yokohecke).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import pytest

import items
import run
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


@pytest.mark.parametrize("workload", items.WORKLOADS)
def test_pass_depends_only_on_seed(workload):
    first = items.build_pass(workload, 11)
    assert first == items.build_pass(workload, 11)
    assert first != items.build_pass(workload, 12)


def test_variants_keep_the_invariants():
    """flip preserves every invariant; relabel moves supports as items.py says."""
    from yokohecke.links import invariant_gamma, jl_invariant, parse_word
    from yokohecke.traces import all_basic_specs

    d, n, word = 3, 4, "1 t1^1 -2 3 t3^2 -1 t4^1"

    def values(text):
        w = parse_word(text, n, d)
        out = {}
        for spec in all_basic_specs(d):
            (mu0,) = spec.alphas
            out[items.support_key(mu0.parts)] = invariant_gamma(w, spec).text()
        for subset in ((1, 2), (1, 3), (2, 3)):
            out["S" + items.support_key(subset)] = jl_invariant(w, d, subset).text()
        return out

    base = values(word)
    assert values(items.flip_word(word, n)) == base
    relabeled = values(items.relabel_word(word, d))
    for key, value in relabeled.items():
        if key.startswith("S"):
            subset = tuple(int(a) for a in key[1:].split(","))
            assert value == base["S" + items.support_key(items.relabel_letters(subset, d))]
        else:
            parts = tuple(int(p) for p in key.split(","))
            assert value == base[items.support_key(items.relabel_support(parts))]


def test_check_output_counts_every_kind_of_failure():
    item = {"label": "x", "kind": "cli", "args": [], "expect": "1\n"}
    assert items.check_output(item, 0, "1\n", "")
    assert not items.check_output(item, 1, "1\n", "")
    assert not items.check_output(item, 0, "1\n", "warning\n")
    assert not items.check_output(item, 0, "2\n", "")
    numeric = {"label": "y", "kind": "cli", "args": [], "expect_complex": [0.5, -1.0]}
    assert items.check_output(numeric, 0, "(0.5-1j)\n", "")
    assert not items.check_output(numeric, 0, "(0.5+1j)\n", "")


def _traced_counters(workload: str, seed: int, count: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "inproc.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "traced", "--items", str(count)],
        env=ENV, capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == []
    return tracer.deterministic(result["counters"])


@pytest.mark.parametrize("workload", ["classical", "oracle"])
def test_counters_repeat_across_traced_runs(workload):
    first = _traced_counters(workload, 3, 2)
    assert first, "no counters recorded"
    assert first == _traced_counters(workload, 3, 2)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "framed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=""), capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spawn_kills_a_child_past_the_deadline():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        with pytest.raises(run.Deadline):
            run.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                      run.child_env(), perf_counter() + 0.5)
    finally:
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
