import os
import subprocess
import sys
from pathlib import Path

import uwbcal

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(uwbcal.__all__)) == len(uwbcal.__all__)
    assert [name for name in uwbcal.__all__ if not hasattr(uwbcal, name)] == []


def test_readme_quick_start_runs_without_a_warning():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(
        os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-W", "error", "-c", code],
                            env=env, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
