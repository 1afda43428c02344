"""Make the benchmark's modules and this checkout's ``repro`` importable
for its self-tests (``python3 -m pytest perfbench``)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import import_repro  # noqa: E402

import_repro()
