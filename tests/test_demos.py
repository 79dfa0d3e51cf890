import re
import subprocess
import sys
from pathlib import Path

import pytest

from rotorwalk.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

EXPECTED = {
    "01_harmonic_profile.py": "escape probability alpha",
    "02_min_weight_rotors.py": "tie-break events: 0",
    "03_escape_experiment.py": """two particles on the three-vertex path
  t=0  positions=[0, 0]  survivors=2  M=4.0
  t=1  mover=1  positions=[0, 1]  survivors=2  M=4.0
  t=2  mover=0  positions=[1, 1]  survivors=2  M=4.0
  t=3  mover=1  positions=[1, 2]  survivors=2  M=4.0
  t=4  mover=0  positions=[0, 2]  survivors=1  M=4.0
  statuses: ['RETURNED', 'ABSORBED']
  visited vertices: ['0', '1', '2']
""",
    "04_convergence_and_ensembles.py": "pass",
    "05_verification.py": "all passed: True",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert EXPECTED[script.name] in proc.stdout
    assert proc.stderr == ""


def test_demo_list_is_complete():
    assert [p.name for p in DEMOS] == sorted(EXPECTED)


def test_readme_quickstart_runs(capsys):
    """The README's one python block runs, and its settled rate is at least alpha."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    rate, ge, alpha = capsys.readouterr().out.split()
    assert ge == ">="
    assert float(rate) >= float(alpha)


def test_readme_config_file_example_runs(capsys, tmp_path):
    """The README's one yaml block is a config file `rotorwalk run` accepts."""
    blocks = re.findall(r"^```yaml\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    cfg = tmp_path / "run.yaml"
    cfg.write_text(blocks[0])
    assert main(["run", "--config-file", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["n=100", "n=1000"]
    assert any(line.startswith("max_invariant_dev=") for line in lines)
