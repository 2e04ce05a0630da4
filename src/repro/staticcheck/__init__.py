"""reprolint: project-native static analysis for the repro codebase.

The rules encode this repo's *portable-determinism* contracts — the
invariants the test suite can only spot-check dynamically:

- determinism: no unseeded RNG, no wall-clock reads outside
  observability, no set-iteration feeding ordered output;
- float discipline: no ``==``/``!=`` on float-typed expressions;
- env hygiene: every ``REPRO_*`` knob flows through :mod:`repro.env`;
- observability: experiment drivers open spans;
- checkpoint purity: journaled records embed no ephemeral identity.

Findings are suppressed per-line with an in-source audit trail::

    risky_call()  # repro: allow-<rule> <reason>

Use ``repro lint [paths...]`` from the CLI, or :func:`analyze_paths`
programmatically.
"""

from __future__ import annotations

from .core import (
    RULES,
    AnalysisResult,
    FileContext,
    Finding,
    Rule,
    analyze_file,
    analyze_paths,
    analyze_source,
    iter_python_files,
    parse_suppressions,
    register_rule,
    rule_ids,
)

# Importing the rule modules populates RULES via @register_rule.
from . import (  # noqa: E402,F401  (import for side effects)
    rules_checkpoint,
    rules_determinism,
    rules_env,
    rules_floats,
    rules_obs,
)
from .doccheck import check_knob_docs, find_docs_dir
from .reporters import render_json, render_text

__all__ = [
    "RULES",
    "AnalysisResult",
    "FileContext",
    "Finding",
    "Rule",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "check_knob_docs",
    "find_docs_dir",
    "iter_python_files",
    "parse_suppressions",
    "register_rule",
    "render_json",
    "render_text",
    "rule_ids",
]
