"""Every demo script runs to completion against the package."""

import glob
import os
import subprocess
import sys

import pytest

from util import SRC, subprocess_env

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
