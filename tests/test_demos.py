import os
import subprocess
import sys
from pathlib import Path

import pacope

ROOT = Path(__file__).resolve().parents[1]


def test_unknown_behavior_policy_demo_runs():
    # The demo builds its configs by hand, so a stale keyword fails here.
    src = str(Path(pacope.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "05_unknown_behavior_policy.py")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "estimated-policy pipeline" in result.stdout
