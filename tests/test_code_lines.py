"""tools/code_lines.py, the code-line count of ROADMAP aim 2, run as a
script on the package."""

import subprocess
import sys
from pathlib import Path

import braidwalks

ROOT = Path(__file__).resolve().parent.parent


def test_code_lines_report():
    proc = subprocess.run(
        [sys.executable, "tools/code_lines.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.rsplit(None, 1) for line in proc.stdout.splitlines()]
    *modules, (total_label, total), (names_label, names) = rows
    assert (total_label, names_label) == ("total", "__all__ names")
    assert sorted(name for name, _ in modules) == sorted(
        p.name for p in (ROOT / "src" / "braidwalks").glob("*.py")
    )
    assert int(total) == sum(int(n) for _, n in modules)
    assert int(names) == len(braidwalks.__all__)
