"""The example scripts print exactly their golden text.

The goldens in `tests/golden/` hold each script's standard output with the
`(x.xx s)` timings masked.  The worked example prints every block of the
pair, a block that `invariant_contributions` leaves out as `0`, so its
golden pins which blocks contribute.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TIMING = re.compile(r"\(\d+\.\d\d s\)")


def run_script(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return TIMING.sub("(x.xx s)", proc.stdout)


@pytest.mark.parametrize("name", ["worked_example", "trace_survey"])
def test_script_output_matches_golden(name):
    golden = (ROOT / "tests" / "golden" / f"{name}.txt").read_text()
    assert run_script(f"{name}.py") == golden
