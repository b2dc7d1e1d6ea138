"""One set-up sample: import the program, load a workload's inputs, and
print ``ready``.

Usage: ``python setup_probe.py {tpch,relayout} WORKDIR`` with the
program's ``src`` on ``PYTHONPATH``.  The caller times the spawn up to
the ``ready`` line.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import closed  # noqa: E402

if __name__ == "__main__":
    closed.setup(sys.argv[1], Path(sys.argv[2]))
    print("ready", flush=True)
