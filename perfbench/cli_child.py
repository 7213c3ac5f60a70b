"""Run one ssblow command-line call under the span recorder.

    python3 perfbench/cli_child.py SPANS_JSON COMMAND [OPTION ...]

Used by the traced cli-session passes in place of `python -m ssblow.cli`.
It times ssblow.cli.main in-process as a "cli.main" span, writes the spans
and counts to SPANS_JSON and exits with main's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ssblow  # noqa: E402
import ssblow.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer().install(ssblow)
    tr.recording = True
    span = tr.begin("cli.main", cmd=argv[0])
    try:
        code = ssblow.cli.main(argv)
    finally:
        tr.end(span)
        tr.recording = False
        tr.uninstall()
    with open(out, "w") as fh:
        json.dump(tr.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
