"""Run ``repro-server`` in this process, optionally with layer spans.

Usage::

    python3 perfbench/launcher.py [--trace] -- <repro-server arguments>

The server's own entry point (``repro.server.__main__.main``) runs in
the main thread and prints ``listening on URL`` to stderr.  Standard
input controls the process: a ``reset`` line discards the spans
recorded so far (answered with ``reset-done`` on stdout), and end of
input shuts the server down the way Ctrl-C does.  With ``--trace`` the
per-layer totals (:func:`tracer.aggregate`) are the last stdout line.
Closing stdin is enough to stop the server, so it cannot outlive the
benchmark process that started it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading

from common import ensure_src


def _control(recorder) -> None:
    for line in sys.stdin:
        if line.strip() == "reset" and recorder is not None:
            recorder.take()
            print("reset-done", flush=True)
    os.kill(os.getpid(), signal.SIGINT)


def main(argv: list[str]) -> int:
    trace = bool(argv) and argv[0] == "--trace"
    if trace:
        argv = argv[1:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    ensure_src()
    from repro.server.__main__ import main as server_main

    recorder = None
    if trace:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    # A process started in the background can inherit SIGINT ignored;
    # the control thread relies on it raising KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(target=_control, args=(recorder,), daemon=True).start()
    code = server_main(argv)
    if recorder is not None:
        recorder.uninstall()
        print(json.dumps(tracer.aggregate(recorder.take())), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
