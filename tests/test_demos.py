"""Every demo runs as a script against the package sources.

Each demo is copied into a temporary directory first, so its demos/output/
files land there. Demos 02, 04 and 05 build and process small corpora; each
takes a few seconds.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name",
    ["01_pitch_tracking.py", "02_pitch_model.py", "03_resynthesis.py", "04_anonymize_voice.py",
     "05_evaluate_privacy.py"],
)
def test_demo_exits_0(name, tmp_path):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
