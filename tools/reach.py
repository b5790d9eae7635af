"""List the function bodies of ``src/`` that no job of the parity record calls.

    python tools/reach.py [--root <checkout>]

It imports ``sdharm`` from ``<checkout>/src`` and runs every job of
``tools/compare_outputs.py`` in process, the import included, under
``sys.setprofile``.  A function body is the code of a ``def`` or a
``lambda``, closures included; comprehensions and class bodies are not
counted.  It prints each body in ``<checkout>/src`` that no job called, as
``file:line qualname (n lines)``, then the count and the lines of all of
them, and last the line total of ``src/sdharm/*.py`` (as ``wc -l`` counts
it).  Bodies of one name that start on one line count once.  A pass takes
about 12 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import types
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def _load(path, name):
    module = types.ModuleType(name)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _key(code):
    return code.co_filename, code.co_firstlineno, code.co_qualname


def bodies(path):
    """{key: (qualname, first line, line count)} of each function body
    compiled from the file ``path``."""
    out, stack = {}, [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_NEWLOCALS and (code.co_name == "<lambda>"
                                                     or not code.co_name.startswith("<")):
            last = max(end for _, end, _, _ in code.co_positions() if end is not None)
            out[_key(code)] = (code.co_qualname, code.co_firstlineno,
                               last - code.co_firstlineno + 1)
    return out


def unreached(root):
    """[(file, qualname, first line, line count)] of the bodies under
    ``<root>/src`` that no job calls, in file and line order."""
    root = Path(root).resolve()
    src = str(root / "src")
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            reached.add(_key(frame.f_code))

    tool = _load(TOOLS / "compare_outputs.py", "compare_outputs")
    sys.setprofile(profile)
    try:
        tool.run_jobs(root, tool.import_cli(root))
    finally:
        sys.setprofile(None)
    return [(path.relative_to(root), *body)
            for path in sorted((root / "src").rglob("*.py"))
            for key, body in sorted(bodies(path).items(), key=lambda kv: kv[1][1])
            if key not in reached]


def src_lines(root):
    """The newlines of ``<root>/src/sdharm/*.py``, the total ``wc -l`` prints."""
    return sum(p.read_bytes().count(b"\n")
               for p in (Path(root).resolve() / "src" / "sdharm").glob("*.py"))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=".", help="the checkout whose src/ to run")
    args = p.parse_args(argv)
    found = unreached(args.root)
    for path, qualname, line, count in found:
        print(f"{path}:{line} {qualname} ({count} lines)")
    print(f"{len(found)} function bodies in src/ unreached, "
          f"{sum(n for *_, n in found)} lines")
    print(f"src/sdharm/*.py: {src_lines(args.root)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
