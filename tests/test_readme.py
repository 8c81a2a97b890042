"""The README's Python session runs as written against ``src/`` and prints
what its comments say, so a change to the public API breaks a test, not
only the docs.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

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
