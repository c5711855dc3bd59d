"""``tools/base_diff.py``: no comparison without an extracted base, and a
diff of the command's stdout, base against head, when there is one."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "base_diff", ROOT / "tools" / "base_diff.py")
base_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(base_diff)


def test_missing_base_runs_nothing(tmp_path):
    ran = tmp_path / "ran"
    out = base_diff.compare("0" * 40, [sys.executable, "-c",
                                       f"open({str(ran)!r}, 'w')"])
    assert out == base_diff.NO_BASE + "\n"
    assert not ran.exists()


def test_stdout_is_diffed_and_stderr_shown(monkeypatch):
    # the base side runs with another PYTHONPATH than the head's src
    monkeypatch.setattr(base_diff, "_extracted", lambda base, into: True)
    code = ("import os, sys; print('same'); "
            f"print(os.environ['PYTHONPATH'] == {str(ROOT / 'src')!r}); "
            "print('seconds', file=sys.stderr)")
    out = base_diff.compare("abc", [sys.executable, "-c", code])
    assert out.splitlines() == [
        "```diff", "--- base abc", "+++ head", "@@ -1,2 +1,2 @@", " same",
        "-False", "+True", "```", "```", "base: exit 0", "seconds",
        "head: exit 0", "seconds", "```"]
