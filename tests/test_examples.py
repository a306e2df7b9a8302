"""Every script under ``examples/`` runs to completion.

Each example is a user-facing tour of the public API; running them here
means a change to that API cannot break one unnoticed.  Each runs in its
own interpreter with a scratch working directory, so any file it writes
stays out of the checkout.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[os.path.basename(path) for path in EXAMPLES]
)
def test_example_runs(path, tmp_path):
    env = dict(os.environ)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, path],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, (
        f"{os.path.basename(path)} exited {completed.returncode}:\n"
        f"{completed.stderr[-2000:]}"
    )
