"""Run the `reswitch` command, or any Python, in a fresh interpreter.

The child imports the package from this checkout's `src`, put first on its
PYTHONPATH, so the subprocess tests need no install and no PYTHONPATH of
their own (pytest's `pythonpath` setting reaches only its own process).
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args: str, timeout: Optional[float] = None) -> subprocess.CompletedProcess:
    """`python *args` in the running interpreter's executable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)


def run_cli(*args: str, timeout: Optional[float] = None) -> subprocess.CompletedProcess:
    return run_python("-m", "reswitch", *args, timeout=timeout)
