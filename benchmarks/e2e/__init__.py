"""End-to-end benchmark of the Tangram reproduction.

``python3 -m benchmarks.e2e`` runs the workloads of
:mod:`benchmarks.e2e.workloads` through the repository's public runners,
one fresh single-threaded worker process per run, and reports the
end-to-end metrics that the root ``BENCHMARK.json`` names and bounds.  A
traced run per workload splits the wall time by layer.  See ``README.md``
in this directory for the protocol, the metrics and how to use them.
"""

from pathlib import Path

#: This directory, the checkout root that holds ``src/`` and
#: ``BENCHMARK.json``, and the directory reports and span dumps go to.
PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = PACKAGE_DIR / "out"
