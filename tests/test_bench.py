"""The benchmark's self-test, so a change that breaks it fails here too."""
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    # among its checks: the helium sum reaches slater_radial only through
    # y_integral, and every traced name still exists
    proc = subprocess.run([sys.executable, "-B", str(SELFTEST)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "selftest passed"
