"""The README's Python session runs as written against ``src/`` and prints
what its comments say, and its CLI block lists exactly the ``diagnose``
suites the CLI has, so a change to the public API breaks a test, not only
the docs.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from stochrec import cli

ROOT = Path(__file__).resolve().parent.parent


def test_readme_session_prints_its_comments():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1, "expected one python block in README.md"
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "0.0"  # the Hopf residual on the construction
    assert lines[3] == "16 (10000, 3)"
    assert lines[-1] == "True"  # the translated construction, bit for bit


def test_readme_lists_every_diagnose_suite():
    # a suite added to the CLI table needs a README line, and the README names no other
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, flags=re.S).group(1)
    listed = set(re.findall(r"^stochrec diagnose ([\w-]+)", block, flags=re.M))
    named = set(re.findall(r"stochrec diagnose ([\w-]+)", text))
    assert listed == set(cli._SUITES)
    assert named <= set(cli._SUITES)
