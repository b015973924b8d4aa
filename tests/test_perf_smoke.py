"""Tier-1 smoke gate over the perf harness.

Runs ``python -m benchmarks.perf --quick --check`` in-process: one repeat
of the cheap sections, compared against the committed baseline.  A gross
hot-path regression (or a broken harness) now fails ``pytest`` instead of
waiting for someone to run the harness by hand.

The thresholds are much looser than the harness defaults because the
test suite runs under parallel load and the committed baseline may come
from a different machine entirely (the README warns absolute timings are
machine-dependent): sections may be up to 10x the baseline before the
gate fires, and the arrival-speedup ratio gate — which compares two
sections of the *same* run and is therefore largely load-insensitive —
is lowered to 4x (baseline: ~11x).  This is a gross-regression tripwire,
not a precision benchmark; run the harness manually for real numbers.
"""

from __future__ import annotations

import pytest

pytest.importorskip(
    "benchmarks.perf",
    reason="benchmarks package requires running pytest from the repo root",
)

from benchmarks.perf.__main__ import main  # noqa: E402


def test_perf_quick_check_passes(capsys, tmp_path):
    exit_code = main(
        [
            "--quick",
            "--check",
            "--max-regression",
            "10.0",
            "--min-speedup",
            "4.0",
            "--output",
            str(tmp_path / "BENCH_perf.smoke.json"),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0, f"perf --quick --check failed:\n{captured.out}\n{captured.err}"
    assert "perf check passed" in captured.out


def test_quick_mode_rejects_update_baseline():
    with pytest.raises(SystemExit) as excinfo:
        main(["--quick", "--update-baseline"])
    assert excinfo.value.code == 2
