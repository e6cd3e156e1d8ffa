"""List the lines of the toriq package that a test run never executes.

    python3 tools/linecov.py                 # the tier-1 suite
    python3 tools/linecov.py tests/test_cli.py -x

Run from the root of a source checkout.  The arguments go to pytest (the
tier-1 options when there are none), which runs in this process under
``sys.settrace`` and ``threading.settrace``; only frames whose code lies in
``src/toriq`` are traced line by line.  A line counts as executable when
the compiled code of a function, class body, comprehension or lambda of
the module maps an instruction to it (``co_lines``); module-level lines,
which every import runs, are left out.  A function that is never called
shows its ``def`` line among the lines that never ran.  Code that the
tests run in a child process is not seen.  Uses the standard library and
pytest only; a run takes three to four times as long as the suite.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toriq"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def executable_lines(path: Path) -> set[int]:
    """The lines of the module's nested code objects, not its top level."""
    lines: set[int] = set()
    stack = [c for c in compile(path.read_text(encoding="utf-8"), str(path), "exec").co_consts
             if hasattr(c, "co_lines")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    # per code object: its line tracer, which records into its file's set,
    # or None outside the package
    local_of: dict[object, object] = {}

    def line_tracer(hits: set[int]):
        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        try:
            local = local_of[code]
        except KeyError:
            local = local_of[code] = None
            if code.co_filename.startswith(prefix):
                hits = ran.setdefault(code.co_filename, set())
                hits.add(code.co_firstlineno)
                local = local_of[code] = line_tracer(hits)
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    print("\nlines of src/toriq that never ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        if missed:
            print(f"{path.name} {len(missed)}: {ranges(missed)}")
    print(f"total {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
