"""Run a syzlab `cli.run` on one argv with stdout and stderr captured.

compare_outputs.py's child runner and ab_time.py both call run_captured;
it needs only the standard library.
"""

from __future__ import annotations

import contextlib
import io


def run_captured(run, argv: list[str], sink=None) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of run(argv), both streams redirected for
    the call: into two fresh StringIO whose text is returned, or into the
    open file sink, and then both texts are "".  A SystemExit's code, or
    `uncaught Type: message` for any other exception, stands in for the
    exit code."""
    out, err = (io.StringIO(), io.StringIO()) if sink is None else (sink, sink)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
    if sink is not None:
        return code, "", ""
    return code, out.getvalue(), err.getvalue()
