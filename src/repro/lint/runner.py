"""Repository-level lint driver: discovery, caching, reports, JSON.

:func:`lint_paths` is the whole pipeline:

1. **discover** the file set (default: the ``repro`` package source plus
   the repo's ``scripts/`` and ``benchmarks/`` trees, so rules like R4
   also cover experiment drivers);
2. **lint each module** — parse it and run every rule over it; the
   findings are served from the content-addressed
   :class:`~repro.lint.cache.AnalysisCache` on a warm run, so an
   unchanged file costs one hash.

Every rule sees one module at a time, so linting a subset of files
gives the same verdicts for those files as linting the whole tree.

``--diff`` support lives in :func:`git_changed_files` (restrict the
*reported* set to files changed against a git ref) and ``--baseline``
in :func:`baseline_delta` (suppress findings already present in a
stored report).
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .cache import AnalysisCache, content_key, default_cache_path
from .engine import get_rules, lint_source
from .findings import LintFinding

__all__ = [
    "LintReport",
    "lint_paths",
    "iter_python_files",
    "default_root",
    "default_lint_paths",
    "git_changed_files",
    "baseline_delta",
]


def default_root() -> Path:
    """The repository's package source root (``.../src``)."""
    return Path(__file__).resolve().parents[2]


def default_lint_paths(root: Path) -> list[Path]:
    """The default lint set: the package source plus the repository's
    ``scripts/`` and ``benchmarks/`` trees (when present)."""
    paths = [root / "repro"]
    for extra in ("scripts", "benchmarks"):
        p = root.parent / extra
        if p.is_dir():
            paths.append(p)
    return paths


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories,
    sorted for deterministic reports; ``__pycache__`` is skipped."""
    seen: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for file in candidates:
            if "__pycache__" in file.parts or file in seen:
                continue
            seen.add(file)
            yield file


def _relpath(file: Path, root: Path) -> str:
    """Report path for ``file``: relative to ``root`` (``repro/...``),
    else to the repo root (``scripts/...``), else as given."""
    file = file.resolve()
    for base in (root, root.parent):
        try:
            return str(file.relative_to(base))
        except ValueError:
            continue
    return str(file)


def _repo_relpath(file: Path, root: Path) -> str:
    """``file`` relative to the repository root (git's spelling)."""
    try:
        return str(file.resolve().relative_to(root.parent.resolve()))
    except ValueError:
        return _relpath(file, root)


@dataclass
class LintReport:
    """The outcome of one lint run over a set of files."""

    findings: list[LintFinding] = field(default_factory=list)
    suppressed: list[LintFinding] = field(default_factory=list)
    files: int = 0
    rules: list[str] = field(default_factory=list)
    #: analysis-cache accounting: {"hits": n, "misses": n}
    cache_stats: dict = field(default_factory=dict)

    @property
    def errors(self) -> list[LintFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding is active."""
        return not self.errors

    def render(self) -> str:
        """Human-readable report."""
        lines = [f.render() for f in self.findings]
        n_err = len(self.errors)
        n_warn = len(self.findings) - n_err
        summary = (
            f"checked {self.files} files against "
            f"{', '.join(self.rules)}: "
            f"{n_err} error(s), {n_warn} warning(s), "
            f"{len(self.suppressed)} suppressed"
        )
        if self.cache_stats:
            summary += f" [cache: {self.cache_stats['hits']} hit(s)]"
        return "\n".join([*lines, summary] if lines else [summary])

    def to_dict(self) -> dict:
        """Machine-readable form (the ``--json`` payload)."""
        return {
            "files": self.files,
            "rules": self.rules,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "cache": self.cache_stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1) + "\n"


def _lint_module(
    file: Path, rel: str, cache: AnalysisCache
) -> tuple[list[LintFinding], list[LintFinding], str]:
    """Every rule over one file, cache-backed.

    Returns ``(active, suppressed, cache key)``; the cached payload
    always covers *every* rule, so rule selection filters the result
    instead of fragmenting the cache.
    """
    source = file.read_text()
    key = content_key(rel, source)
    entry = cache.get(key)
    if entry is not None:
        active = [LintFinding(**d) for d in entry["active"]]
        suppressed = [LintFinding(**d) for d in entry["suppressed"]]
        return active, suppressed, key
    active, suppressed = lint_source(source, rel)
    cache.put(
        key,
        {
            "active": [f.to_dict() for f in active],
            "suppressed": [f.to_dict() for f in suppressed],
        },
    )
    return active, suppressed, key


def lint_paths(
    paths: Iterable[Path | str] | None = None,
    rule_ids: Iterable[str] | None = None,
    root: Path | None = None,
    *,
    use_cache: bool = True,
    cache_path: Path | None = None,
    only_paths: Iterable[str] | None = None,
) -> LintReport:
    """Lint files/directories against the selected rules.

    ``paths`` defaults to :func:`default_lint_paths`; findings report
    paths relative to ``root`` (default: the directory containing the
    package, so paths read ``repro/...``; files outside it are relative
    to the repo root, e.g. ``scripts/...``).  ``only_paths`` further
    restricts which files' findings are *reported* (``--diff`` mode);
    every file is still linted, which keeps the cache warm.
    """
    if root is None:
        root = default_root()
    full_tree = paths is None
    if full_tree:
        paths = default_lint_paths(root)
    selected = get_rules(rule_ids)
    selected_ids = {r.rule_id for r in selected} | {"SYNTAX"}
    cache = AnalysisCache(
        (cache_path or default_cache_path(root)) if use_cache else None
    )

    files = list(iter_python_files(Path(p) for p in paths))
    report = LintReport(rules=[r.rule_id for r in selected])
    report.files = len(files)
    # git names files relative to the repo root ("src/repro/..."),
    # findings relative to the lint root ("repro/..."); accept both.
    wanted = None if only_paths is None else set(only_paths)
    keys: set[str] = set()
    for file in files:
        rel = _relpath(file, root)
        active, suppressed, key = _lint_module(file, rel, cache)
        keys.add(key)
        if wanted is not None and not (
            rel in wanted or _repo_relpath(file, root) in wanted
        ):
            continue
        report.findings.extend(f for f in active if f.rule in selected_ids)
        report.suppressed.extend(
            f for f in suppressed if f.rule in selected_ids
        )

    # Only a full-tree run knows which cache entries are stale.
    cache.save(live_keys=keys if full_tree else None)
    report.cache_stats = {"hits": cache.hits, "misses": cache.misses}
    report.findings.sort()
    report.suppressed.sort()
    return report


# ----------------------------------------------------------------------
# --diff / --baseline support
# ----------------------------------------------------------------------
def git_changed_files(ref: str, repo: Path | None = None) -> list[str] | None:
    """Repo-relative paths changed against ``ref`` (committed or not);
    None when git fails (not a repo, unknown ref)."""
    repo = repo or default_root().parent
    try:
        out = subprocess.run(
            ["git", "diff", "--name-only", ref, "--"],
            cwd=str(repo), capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return [line.strip() for line in out.stdout.splitlines() if line.strip()]


def _finding_key(d: dict) -> tuple:
    """Line-insensitive identity for baseline comparison — edits above a
    pre-existing finding must not make it 'new'."""
    return (d["path"], d["rule"], d["message"])


def baseline_delta(report: LintReport, baseline: dict) -> LintReport:
    """A copy of ``report`` keeping only findings *not* present in
    ``baseline`` (a previous ``--json`` payload).  Gate mode for PRs:
    pre-existing debt doesn't fail, new findings do."""
    known = {_finding_key(d) for d in baseline.get("findings", [])}
    out = LintReport(
        findings=[
            f for f in report.findings
            if _finding_key(f.to_dict()) not in known
        ],
        suppressed=list(report.suppressed),
        files=report.files,
        rules=list(report.rules),
        cache_stats=dict(report.cache_stats),
    )
    return out
