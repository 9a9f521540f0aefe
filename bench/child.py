"""One benchmark repetition, run in a fresh interpreter.

Usage: python3 child.py SPEC.json, with the repetition directory as the
working directory. SPEC names the tempcast source directory, the set-up
commands, the files to load and the timed commands, and says whether to
trace. The child imports tempcast, runs the set-up commands, reads the
inputs, notes the time it became ready, then runs each timed command
through ``tempcast.cli.main`` and writes ``result.json`` (and
``trace.json`` when tracing). Exit status 0 means the child itself ran;
command failures are reported in ``result.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import tempcast.cli

    if src not in Path(tempcast.__file__).resolve().parents:
        print(f"tempcast imported from {tempcast.__file__}, not {src}", file=sys.stderr)
        return 2
    for argv in spec["setup"]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tempcast.cli.main(argv)
        if code != 0:
            print(f"set-up command {argv} exited {code}", file=sys.stderr)
            return 1
    for path in spec["load"]:
        Path(path).read_bytes()
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    commands = []
    for argv in spec["commands"]:
        out = io.StringIO()
        cpu_before = os.times()
        with contextlib.redirect_stdout(out):
            started = time.perf_counter()
            code = tempcast.cli.main(argv)
            wall = time.perf_counter() - started
        cpu_after = os.times()
        cpu = (cpu_after.user - cpu_before.user) + (cpu_after.system - cpu_before.system)
        commands.append({"exit": code, "wall_s": wall, "cpu_s": cpu, "stdout": out.getvalue()})
    if tracer is not None:
        tracer.dump(Path("trace.json"))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": ready, "commands": commands, "peak_rss_mb": peak_kib / 1024.0}
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
