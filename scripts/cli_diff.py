#!/usr/bin/env python3
"""Compare the CLI output of this checkout with that of another checkout.

Runs every golden argv list (`CASES` of tests/test_golden_cli.py, with the
spec files of this checkout) in `--format json` and `--format text`, once
against this checkout's `src/` and once against OTHER_CHECKOUT's, each tree
in one fresh interpreter.  Prints every difference in exit code, stdout or
stderr, then a count, and exits 1 if there is any difference, else 0.

    python scripts/cli_diff.py OTHER_CHECKOUT
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("exit", "stdout", "stderr")


def run_cases(tree: Path) -> dict[str, dict]:
    """Every case in both formats, in this interpreter, against `tree`'s package."""
    import hypermoment

    if Path(hypermoment.__file__).resolve().parent != (tree / "src" / "hypermoment").resolve():
        raise SystemExit(f"imported hypermoment from {hypermoment.__file__}, not from {tree}")
    sys.path.insert(0, str(ROOT / "tests"))
    from test_golden_cli import CASES, SPECS

    from hypermoment.cli import main

    runs = {}
    for case, argv in CASES.items():
        for fmt in ("json", "text"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([a.replace("{specs}", str(SPECS)) for a in argv] + ["--format", fmt])
                except Exception as exc:  # a traceback is a difference to report, not a reason to stop
                    code = f"raised {type(exc).__name__}: {exc}"
            runs[f"{case} --format {fmt}"] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return runs


def collect(tree: Path) -> dict[str, dict]:
    """`run_cases` of `tree` in a fresh interpreter with `tree/src` first on the path."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__, "--in-process", str(tree)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    if done.returncode != 0:
        raise SystemExit(f"running the cases against {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--in-process"]:
        print(json.dumps(run_cases(Path(argv[1]))))
        return 0
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "hypermoment").is_dir():
        print("usage: cli_diff.py OTHER_CHECKOUT (a directory with src/hypermoment)", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    ours, theirs = collect(ROOT), collect(other)
    differences = 0
    for run in ours:
        for field in FIELDS:
            mine, yours = ours[run][field], theirs[run][field]
            if mine == yours:
                continue
            differences += 1
            print(f"{run}: {field} differs")
            if field == "exit":
                print(f"  {other}: {yours}\n  {ROOT}: {mine}")
            else:
                lines = difflib.unified_diff(yours.splitlines(), mine.splitlines(), str(other), str(ROOT), lineterm="")
                print("\n".join("  " + line for line in lines))
    print(f"{len(ours)} runs, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
