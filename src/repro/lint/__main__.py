"""CLI: ``python -m repro.lint [--json] [...]``.

Exit status is 0 when no (non-suppressed) findings remain, 1
otherwise — suitable as a CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import all_checkers, load_project, repo_root, run_checkers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Protocol-aware static analysis for the Solros stack.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files to lint (default: every src/**/*.py)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable output",
    )
    parser.add_argument(
        "--rule", action="append", dest="rules",
        help="run only this checker (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered checkers and exit",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root (default: auto-detected)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, checker in sorted(all_checkers().items()):
            print(f"{name:24s} {checker.doc}")
        return 0

    root = (args.root or repo_root()).resolve()
    paths = [p.resolve() for p in args.paths] or None
    project = load_project(root, paths)
    findings, suppressed = run_checkers(project, only=args.rules)

    if args.as_json:
        print(json.dumps(
            {
                "findings": [
                    {
                        "rule": f.rule,
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "message": f.message,
                    }
                    for f in findings
                ],
                "suppressed": suppressed,
            },
            indent=2,
        ))
    else:
        for f in findings:
            print(f.format())
        tail = (
            f"{len(findings)} finding(s), {suppressed} suppressed, "
            f"{len(project.modules)} file(s) checked"
        )
        print(tail if findings else f"clean: {tail}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
