"""The runtime is numpy-only: importing the package, the policy and the CLI
must not pull in a test-only dependency."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TEST_ONLY = ("scipy", "mpmath", "hypothesis", "pytest")


def test_imports_load_no_test_only_dependency():
    code = ("import json, sys\n"
            "import gridquake, gridquake.policy, gridquake.cli\n"
            f"print(json.dumps(sorted(m for m in {TEST_ONLY!r} "
            "if m in sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []
