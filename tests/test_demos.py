import os
import subprocess
import sys
from pathlib import Path

import pytest

import pacope
from pacope import child_rng, sample_logged, save_csv

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd=None) -> subprocess.CompletedProcess:
    src = str(Path(pacope.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    # The demos build their configs by hand, so a stale name or keyword fails here.
    result = _run([str(demo)])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_quick_start_runs(tmp_path):
    # The README's Quick start block, run as written on a logged.csv in its
    # working directory, so a removed or renamed API name fails here.
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    save_csv(sample_logged(500, child_rng(0)), str(tmp_path / "logged.csv"))
    result = _run(["-c", code], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("PredictionInterval(")
