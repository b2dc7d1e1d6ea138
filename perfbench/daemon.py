"""Launch the advisor daemon with the layer wrappers installed.

Usage: ``python daemon.py SPANS_OUT serve [serve options...]``

Installs :mod:`layers` (inactive), then runs ``repro.cli.main`` with the
remaining arguments.  ``SIGUSR1`` clears what was recorded and starts
recording, so priming and warm-up jobs are left out.  When the daemon
exits (on ``SIGTERM``, after draining its queue) the aggregates and
spans are written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Recorder, install  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    recorder = Recorder()
    install(recorder)

    def start(signum, frame) -> None:
        recorder.reset()
        recorder.active = True

    signal.signal(signal.SIGUSR1, start)
    from repro.cli import main as serve
    code = serve(argv[1:])
    recorder.active = False
    out.write_text(json.dumps(recorder.to_dict()))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
