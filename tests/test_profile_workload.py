"""scripts/profile_workload.py on one small item of one workload."""
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_workload.py"


def test_profile_lists_the_fixpoint_row():
    """The check-param item on lb-param.lit is profiled through the
    engine the CLI's param mode calls, so backward.fixpoint, which
    holds the whole search, is among its top rows by self time."""
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "check-param", "--file", "lb-param.lit", "--top", "25"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    rows = [line for line in out.splitlines() if line.rstrip().endswith(")") and ".py:" in line]
    assert 0 < len(rows) <= 25
    assert any(row.endswith("(fixpoint)") and "backward.py:" in row for row in rows), out
