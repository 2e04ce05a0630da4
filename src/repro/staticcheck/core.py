"""Analyzer core: findings, the rule registry, and suppressions.

The reproduction's headline claims are exact-arithmetic comparisons
(bit-identical serial/parallel, vector/scalar, resumed/uninterrupted
results), so
the hazards worth linting for are the ones that silently break that
contract: unseeded randomness, wall-clock reads, float equality,
ad-hoc environment knobs.  Rules are small AST
visitors registered in :data:`RULES`; the driver parses each file
once, hands every rule the same :class:`FileContext`, and filters the
emitted findings through per-line suppression comments::

    dangerous_thing()  # repro: allow-<rule-id> <reason>

A suppression must name the rule it silences and carry a non-empty
reason (a bare ``allow-`` is itself reported, as
``suppression-missing-reason``).  The comment may sit on the flagged
line or on the line directly above it (for statements too long to
share a line with their justification).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "RULES",
    "register_rule",
    "rule_ids",
    "AnalysisResult",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "dotted_name",
    "resolved_name",
    "import_aliases",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`id` (kebab-case, used in suppression
    comments), :attr:`summary` (one line for the catalogue), and
    :attr:`hint` (the fix suggestion attached to findings), and
    implement :meth:`check`.
    """

    id: str = ""
    summary: str = ""
    hint: str = ""

    def check(self, ctx: "FileContext") -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: "FileContext",
        node: ast.AST | int,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        line = node if isinstance(node, int) else node.lineno
        col = 0 if isinstance(node, int) else node.col_offset
        return Finding(
            path=ctx.display_path,
            line=line,
            col=col,
            rule=self.id,
            message=message,
            hint=self.hint if hint is None else hint,
        )


#: The registry: rule id -> rule instance.  Importing
#: :mod:`repro.staticcheck` populates it from the ``rules_*`` modules.
RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    if rule.id in RULES and type(RULES[rule.id]) is not cls:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return cls


def rule_ids() -> tuple[str, ...]:
    return tuple(sorted(RULES))


# --------------------------------------------------------------------- #
# Name resolution helpers shared by the rules


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map of local names to canonical dotted module/object paths.

    ``import numpy as np`` maps ``np`` → ``numpy``; ``from numpy import
    random as nr`` maps ``nr`` → ``numpy.random``; ``from os import
    urandom`` maps ``urandom`` → ``os.urandom``.  Relative imports map
    to their trailing module path (``from ..parallel import
    sweep_map`` → ``parallel.sweep_map``), enough for the
    suffix-matching rules use.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for a in node.names:
                if a.name == "*":
                    continue
                full = f"{base}.{a.name}" if base else a.name
                aliases[a.asname or a.name] = full
    return aliases


def dotted_name(node: ast.AST) -> str | None:
    """The literal dotted source text of a Name/Attribute chain.

    ``self.ckpt.record`` → ``"self.ckpt.record"``; anything with a
    non-name base (calls, subscripts) returns None.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolved_name(aliases: dict[str, str], node: ast.AST) -> str | None:
    """Like :func:`dotted_name` but with the base resolved via imports.

    ``np.random.rand`` under ``import numpy as np`` resolves to
    ``"numpy.random.rand"``; a chain whose base is not an imported
    name resolves to None.
    """
    raw = dotted_name(node)
    if raw is None:
        return None
    head, _, rest = raw.partition(".")
    base = aliases.get(head)
    if base is None:
        return None
    return f"{base}.{rest}" if rest else base


# --------------------------------------------------------------------- #
# Per-file context


@dataclass
class FileContext:
    """Everything a rule needs about one parsed file."""

    path: Path
    display_path: str
    source: str
    tree: ast.AST
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(
        cls, source: str, path: Path, display_path: str | None = None
    ) -> "FileContext":
        tree = ast.parse(source, filename=str(path))
        ctx = cls(
            path=path,
            display_path=display_path or path.as_posix(),
            source=source,
            tree=tree,
        )
        ctx.aliases = import_aliases(tree)
        return ctx

    def is_module(self, *posix_suffixes: str) -> bool:
        """Whether this file *is* one of the given repo-relative files.

        Matched on the posix path suffix so it works both on the real
        tree (``src/repro/observability.py``) and on test fixtures
        that mirror the layout under a tmp dir.
        """
        p = self.path.as_posix()
        return any(p.endswith(s) for s in posix_suffixes)

    def in_package_dir(self, fragment: str) -> bool:
        """Whether the file lives under a directory path fragment
        (e.g. ``repro/experiments/``)."""
        return fragment in self.path.as_posix()


# --------------------------------------------------------------------- #
# Suppressions

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow-(?P<rule>[a-z0-9][a-z0-9-]*)(?P<reason>.*)$"
)


def parse_suppressions(source: str) -> dict[int, dict[str, str]]:
    """Per-line suppressions: ``{line: {rule_id: reason}}``.

    Parsed from real COMMENT tokens (not substring search), so the
    marker inside a string literal does not suppress anything.
    """
    out: dict[int, dict[str, str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _ALLOW_RE.search(tok.string)
            if not m:
                continue
            line = tok.start[0]
            out.setdefault(line, {})[m.group("rule")] = (
                m.group("reason").strip()
            )
    except tokenize.TokenError:
        pass
    return out


# --------------------------------------------------------------------- #
# Driver


@dataclass
class AnalysisResult:
    """Outcome of one analyzer run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, str]] = field(default_factory=list)
    files_scanned: int = 0

    def extend(self, other: "AnalysisResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_scanned += other.files_scanned

    @property
    def clean(self) -> bool:
        return not self.findings


def _select_rules(only: Sequence[str] | None) -> list[Rule]:
    if only is None:
        return [RULES[rid] for rid in sorted(RULES)]
    unknown = sorted(set(only) - set(RULES))
    if unknown:
        raise KeyError(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return [RULES[rid] for rid in sorted(set(only))]


def analyze_source(
    source: str,
    path: str | Path = "<memory>",
    *,
    rules: Sequence[str] | None = None,
    display_path: str | None = None,
) -> AnalysisResult:
    """Run the rule set over one source string."""
    p = Path(path)
    result = AnalysisResult(files_scanned=1)
    disp = display_path or p.as_posix()
    try:
        ctx = FileContext.parse(source, p, disp)
    except SyntaxError as exc:
        result.findings.append(Finding(
            path=disp,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule="parse-error",
            message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error; unparseable files cannot be "
            "linted",
        ))
        return result

    suppressions = parse_suppressions(source)
    raw: list[Finding] = []
    for rule in _select_rules(rules):
        raw.extend(rule.check(ctx))

    for f in sorted(raw):
        reason = None
        for line in (f.line, f.line - 1):
            per_line = suppressions.get(line)
            if per_line is not None and f.rule in per_line:
                reason = per_line[f.rule]
                break
        if reason is None:
            result.findings.append(f)
        elif reason:
            result.suppressed.append((f, reason))
        else:
            # A suppression with no justification defeats the audit
            # trail the syntax exists for: keep the original finding
            # *and* flag the bare marker.
            result.findings.append(f)
            result.findings.append(Finding(
                path=disp,
                line=f.line,
                col=f.col,
                rule="suppression-missing-reason",
                message=(
                    f"suppression of {f.rule} has no reason; write "
                    f"'# repro: allow-{f.rule} <why this is safe>'"
                ),
                hint="state why the finding is a false positive or "
                "an accepted exception",
            ))
    return result


def analyze_file(
    path: str | Path,
    *,
    rules: Sequence[str] | None = None,
    root: Path | None = None,
) -> AnalysisResult:
    """Run the rule set over one file on disk."""
    p = Path(path)
    display = (
        p.relative_to(root).as_posix()
        if root is not None and p.is_relative_to(root)
        else p.as_posix()
    )
    source = p.read_text(encoding="utf-8")
    return analyze_source(source, p, rules=rules, display_path=display)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under *paths*, sorted, caches skipped."""
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            candidates = [p]
        else:
            candidates = []
        for c in candidates:
            if "__pycache__" in c.parts or c in seen:
                continue
            seen.add(c)
            yield c


def analyze_paths(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[str] | None = None,
    root: Path | None = None,
) -> AnalysisResult:
    """Run the rule set over files and directories."""
    result = AnalysisResult()
    for f in iter_python_files(paths):
        result.extend(analyze_file(f, rules=rules, root=root))
    result.findings.sort()
    result.suppressed.sort(key=lambda pair: pair[0])
    return result
