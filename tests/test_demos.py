"""Each script in demos/, and the README's library quick start, runs against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    _run_python(str(demo))


def test_readme_library_quick_start_runs():
    # the first python block of the section, so the README cannot drift from the API unseen
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library quick start\n")[1]
    _run_python("-c", section.split("```python\n", 1)[1].split("\n```", 1)[0])
