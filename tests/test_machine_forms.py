"""`--machine` output across coefficient orders matches its golden byte for byte.

The cases cover order 1 (`homflypt`, `jl` at d = 1), weights of 1/2
(`jl` at d = 2), rational coordinates next to irrational ones (d = 3) and a
field of degree phi(4) = 2.  Each block of `tests/golden/machine_forms.txt`
is a `$ yokohecke ...` header followed by the command's standard output.
"""

import contextlib
import io
import shlex
from pathlib import Path

from yokohecke.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "machine_forms.txt"

CASES = [
    ["homflypt", "--n", "4", "--word", "1 1 -2 3 3 -2 1"],
    ["jl", "--d", "1", "--S", "1", "--n", "3", "--word", "1 1 1 -2 -2"],
    ["jl", "--d", "2", "--S", "1,2", "--n", "3", "--word", "1 1 -2 -2"],
    ["jl", "--d", "3", "--S", "1,2", "--n", "3", "--word", "1 1 -2 -2 1 1 t1^1"],
    ["jl", "--d", "3", "--S", "1,2", "--n", "3", "--word", "1 1 1 -2 -2 t1^1 t3^1"],
    ["invariant", "--d", "3", "--n", "3", "--all-basic",
     "--word", "1 1 -2 -2 1 1 t1^1 t2^2"],
    ["invariant", "--d", "4", "--n", "3", "--mu0", "1,1,0,0",
     "--word", "1 1 1 -2 -2 t1^1 t3^2"],
]


def render() -> str:
    """Run every case with `--machine` and join the headed outputs."""
    parts = []
    for argv in CASES:
        argv = argv + ["--machine"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        parts.append(f"$ yokohecke {shlex.join(argv)}\n{out.getvalue()}")
    return "".join(parts)


def test_machine_forms_match_golden():
    assert render() == GOLDEN.read_text()
