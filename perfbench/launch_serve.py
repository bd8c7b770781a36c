"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/launch_serve.py SPANS.json serve --models DIR [repro serve flags]

The wrappers record spans in memory while the server runs.  When the server
stops (SIGTERM or Ctrl-C, which ``repro serve`` turns into a clean
shutdown), the spans and the names of any layers missing from the program
are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

from spans import Recorder, install, to_records  # noqa: E402


def main(argv):
    spans_path, repro_argv = argv[0], argv[1:]
    recorder = Recorder()
    missing = install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_argv)
    finally:
        Path(spans_path).write_text(
            json.dumps({"missing": missing, "spans": to_records(list(recorder.spans))})
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
