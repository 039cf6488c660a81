"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_python_blocks_run():
    with open(os.path.join(ROOT, "README.md")) as handle:
        blocks = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for block in blocks:
        done = subprocess.run(
            [sys.executable, "-c", block], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
