"""``repro-ssd lint`` subcommand.

Thin argparse wiring over :func:`repro.analysis.core.run_lint`; the main
CLI (:mod:`repro.cli`) mounts :func:`add_lint_arguments` /
:func:`cmd_lint` on its ``lint`` subparser.

Exit codes: 0 clean (baselined findings allowed), 1 new violations or
stale baseline entries, 2 configuration problems (unknown rule id,
unreadable baseline).
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path

from .baseline import BASELINE_NAME, apply_baseline, load_baseline, write_baseline
from .core import PARSE_ERROR_RULE, run_lint


def find_repo_root() -> Path | None:
    """Nearest ancestor that looks like this repository.

    Tries the working directory first (the normal CLI case), then the
    installed package location (``src/repro`` layout).
    """
    candidates = [Path.cwd(), Path(__file__).resolve()]
    for base in candidates:
        for cand in (base, *base.parents):
            if ((cand / "pyproject.toml").is_file()
                    and (cand / "src" / "repro").is_dir()):
                return cand
    return None


def resolve_roots(root_arg: "str | None") -> tuple[Path, Path | None]:
    """``(package_root, repo_root)`` for one invocation.

    ``--root`` may point at the repository (``src/repro`` is used) or
    directly at any directory of Python files (rule fixtures); without
    it the repository is auto-detected.
    """
    if root_arg is not None:
        root = Path(root_arg).resolve()
        pkg = root / "src" / "repro"
        if pkg.is_dir():
            return pkg, root
        return root, root
    repo = find_repo_root()
    if repo is not None:
        return repo / "src" / "repro", repo
    # Fall back to the importable package itself (no baseline).
    return Path(__file__).resolve().parents[1], None


def changed_files(repo_root: Path, package_root: Path) -> "set[str] | None":
    """Package-root-relative posix paths of ``*.py`` files changed in git.

    Collects unstaged + staged edits vs ``HEAD`` and untracked files, so
    the pre-commit hook sees exactly what the commit would introduce.
    Returns ``None`` when git is unavailable or the directory is not a
    work tree — callers fall back to a full run rather than silently
    linting nothing.
    """
    names: list[str] = []
    for argv in (["git", "diff", "--name-only", "HEAD"],
                 ["git", "ls-files", "--others", "--exclude-standard"]):
        try:
            proc = subprocess.run(argv, cwd=repo_root, capture_output=True,
                                  text=True, check=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        names.extend(proc.stdout.splitlines())

    pkg = package_root.resolve()
    out: set[str] = set()
    for name in names:
        name = name.strip()
        if not name.endswith(".py"):
            continue
        path = (repo_root / name).resolve()
        try:
            out.add(path.relative_to(pkg).as_posix())
        except ValueError:
            continue  # changed, but outside the linted tree
    return out


def baseline_rot(entries: "list[dict]", package_root: Path,
                 known_rules: "set[str]") -> "list[str]":
    """Human-readable problems for baseline entries that can never match.

    A fingerprint for a rule that no longer exists, or for a file that
    was deleted, would otherwise sit in ``LINT_BASELINE.json`` forever —
    it can never be reported stale because the engine never re-derives
    it.  The CLI treats any such entry as a configuration error (exit 2).
    """
    problems: list[str] = []
    for entry in entries:
        rule = str(entry.get("rule", ""))
        path = str(entry.get("path", ""))
        if rule not in known_rules:
            problems.append(
                f"baseline entry for unknown rule {rule!r} ({path})")
        elif not (package_root / path).is_file():
            problems.append(
                f"baseline entry for deleted file {path!r} ({rule})")
    return problems


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Mount the lint flags on a subparser."""
    parser.add_argument("--root", metavar="DIR",
                        help="repository root, or a bare directory of "
                             "Python files (default: auto-detect)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="report format (default: text); sarif emits "
                             "SARIF 2.1.0 for GitHub code scanning")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout "
                             "(stdout keeps a one-line summary)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids (U001) and/or "
                             "family prefixes (U = every U-rule) to run "
                             "(default: all)")
    parser.add_argument("--baseline", metavar="PATH",
                        help=f"baseline file (default: {BASELINE_NAME} "
                             f"at the repo root)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with the current "
                             "findings and exit 0")
    parser.add_argument("--changed-only", action="store_true",
                        help="report only on files changed vs HEAD "
                             "(staged, unstaged, untracked); project-wide "
                             "rules still analyze the full tree")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")


def cmd_lint(args: argparse.Namespace) -> int:
    """Entry point for ``repro-ssd lint``."""
    from . import ALL_RULES
    from .report import render_json, render_sarif, render_text

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.title}")
        return 0

    package_root, repo_root = resolve_roots(args.root)
    select = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]

    only: "set[str] | None" = None
    if args.changed_only:
        if args.update_baseline:
            print("lint: --changed-only cannot rewrite the baseline "
                  "(it only sees part of the tree)")
            return 2
        if repo_root is not None:
            only = changed_files(repo_root, package_root)
        if only is None:
            print("lint: --changed-only needs a git work tree; "
                  "running the full tree")
        elif not only:
            print(f"lint: no changed Python files under {package_root}")
            return 0

    try:
        result = run_lint(package_root, select=select, only=only)
    except ValueError as exc:
        print(f"lint: {exc}")
        return 2

    if args.baseline:
        baseline_path = Path(args.baseline)
    elif repo_root is not None:
        baseline_path = repo_root / BASELINE_NAME
    else:
        baseline_path = None

    if args.update_baseline:
        if baseline_path is None:
            print("lint: no baseline path (pass --baseline or run inside "
                  "the repository)")
            return 2
        write_baseline(baseline_path, result.violations)
        print(f"lint: baseline rewritten with {len(result.violations)} "
              f"entries ({baseline_path})")
        return 0

    entries: list[dict] = []
    if baseline_path is not None:
        try:
            entries = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"lint: {exc}")
            return 2
        known = {rule.id for rule in ALL_RULES} | {PARSE_ERROR_RULE}
        problems = baseline_rot(entries, package_root, known)
        if problems:
            for problem in problems:
                print(f"lint: {problem}")
            print(f"lint: {baseline_path} has rotted — prune the entries "
                  f"above or rerun --update-baseline")
            return 2
    if only is not None:
        # Entries for unchanged files are out of scope, not stale.
        entries = [e for e in entries if str(e.get("path", "")) in only]
    match = apply_baseline(result.violations, entries)

    if args.format == "sarif":
        # Violation paths are package-root-relative; rebase them onto
        # the repo root so code-scanning annotations land on the files.
        prefix = ""
        if repo_root is not None and package_root != repo_root:
            try:
                prefix = package_root.relative_to(repo_root).as_posix() + "/"
            except ValueError:
                prefix = ""
        report = render_sarif(result, match, uri_prefix=prefix)
    elif args.format == "json":
        report = render_json(result, match)
    else:
        report = render_text(result, match)

    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"lint: wrote {args.format} report to {args.output} "
              f"({len(match.new)} new, {len(match.baselined)} baselined, "
              f"{len(match.stale)} stale)")
    else:
        print(report)
    return 1 if (match.new or match.stale) else 0
