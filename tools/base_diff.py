"""Run a command on a base commit's package and on this checkout's, and
print how its output moved, as Markdown:

    python tools/base_diff.py BASE COMMAND [ARG ...]

`git archive BASE src` is extracted into a temporary directory, and the
command runs twice from the repository root: first with PYTHONPATH set to
the extracted `src`, then to this checkout's.  Before that, `affinvar` must
import from the extracted copy.  Otherwise (BASE is not in the repository,
or its archive holds no package) the import would fall through to an
installed package, most likely this checkout's editable one, and an empty
diff of the head against itself would read as "nothing moved"; the script
then prints "base not extracted: no comparison" and runs nothing.

The command's stdout is compared as a unified diff; its exit codes and its
stderr (a sweep's seconds, say) follow in a block of their own.  The
comparison is informational: the script exits 0 whatever the command
does, and 2 only on a usage error.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NO_BASE = "base not extracted: no comparison"


def _extracted(base: str, into: Path) -> bool:
    """Whether BASE's `src` is extracted into `into` and `affinvar` imports
    from there."""
    archive = subprocess.run(["git", "archive", base, "src"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode != 0 or subprocess.run(
            ["tar", "-x", "-C", str(into)], input=archive.stdout,
            capture_output=True).returncode != 0:
        return False
    found = subprocess.run(
        [sys.executable, "-c", "import affinvar; print(affinvar.__file__)"],
        cwd=ROOT, env=_with_path(into / "src"), capture_output=True,
        text=True).stdout.strip()
    return found.startswith(str(into / "src") + os.sep)


def _with_path(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def _run(command: list[str], src: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=ROOT, env=_with_path(src),
                          capture_output=True, text=True)


def compare(base: str, command: list[str]) -> str:
    """The Markdown that `main` prints."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if not _extracted(base, tmp):
            return NO_BASE + "\n"
        before = _run(command, tmp / "src")
    after = _run(command, ROOT / "src")
    diff = difflib.unified_diff(before.stdout.splitlines(),
                                after.stdout.splitlines(), f"base {base}",
                                "head", lineterm="")
    out = ["```diff", *diff, "```", "```"]
    for side, run in (("base", before), ("head", after)):
        out += [f"{side}: exit {run.returncode}", *run.stderr.splitlines()]
    return "\n".join(out + ["```"]) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.write(compare(argv[0], argv[1:]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
