"""Run one ``physbc`` CLI command in a fresh process, optionally traced.

Usage: python3 cli_shim.py SPANS_PATH PARENT_ID -- physbc-args...

With an empty SPANS_PATH the command runs untouched.  Otherwise the benchmark's
wrappers are installed before ``physbc.cli.main`` is called, and the spans are
written to SPANS_PATH as the process ends, rooted at the benchmark's operation
span PARENT_ID.  The exit code is the command's own.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    spans_path, parent, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: cli_shim.py SPANS_PATH PARENT_ID -- args...")
    import physbc.cli

    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer(prefix=f"{os.getpid()}:")
        tracer.install_physbc()
        root = tracer.open("cli.process", parent=parent)
    try:
        physbc.cli.main(args, prog_name="physbc", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
            tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
