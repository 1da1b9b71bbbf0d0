"""Start ``repro serve`` in this process, optionally with spans.

Usage::

    python3 -u perfbench/serve_launcher.py --dump OUT.json [--trace] serve ...

Everything after the launcher's own flags is passed to the ``repro``
command line unchanged.  With ``--trace`` the same spans as the
benchmark's own traced run are installed before the server starts.
When the server has shut down (SIGINT or SIGTERM), the kernel
engagement counters and, if traced, the span tables are written to
``OUT.json``, where the benchmark reads them.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    import spans as spanlib
    from common import kernel_snapshot
    from repro.__main__ import main as repro_main

    dump = Path(argv[argv.index("--dump") + 1])
    traced = "--trace" in argv
    rest = argv[argv.index("serve"):]
    recorder = None
    if traced:
        recorder = spanlib.SpanRecorder()
        spanlib.install(recorder)
    code = repro_main(rest)
    doc = {
        "kernels": kernel_snapshot(),
        "spans": recorder.snapshot() if recorder is not None else None,
    }
    tmp = dump.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, dump)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
