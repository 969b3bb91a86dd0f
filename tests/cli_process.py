"""Run the `reswitch` command in a fresh interpreter.

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


def run_cli(*args: str, timeout: Optional[float] = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "reswitch", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
