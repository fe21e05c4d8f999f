"""The README's quick start runs as written on a clean checkout.

Every command of the first ``bash`` block except the test-suite run is
executed in a scratch directory that links ``src`` and ``examples`` from the
repository, so the files the commands write stay out of the tree.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def quick_start_commands():
    text = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"## Quick start.*?```bash\n(.*?)```", text, re.S).group(1)
    commands = [line.split("#")[0].strip() for line in block.splitlines()]
    return [command for command in commands if command and "pytest" not in command]


def test_quick_start_block_runs(tmp_path):
    commands = quick_start_commands()
    assert any("--network net.txt" in command for command in commands)
    for name in ("src", "examples"):
        (tmp_path / name).symlink_to(REPO_ROOT / name)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for command in commands:
        assert command.startswith("PYTHONPATH=src python ")
        argv = [sys.executable] + command.split()[2:]
        completed = subprocess.run(
            argv,
            cwd=tmp_path,
            env=dict(env, PYTHONPATH="src"),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, f"{command}\n{completed.stderr}"
