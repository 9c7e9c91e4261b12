"""Developer tooling that ships with the package (static analysis, gates)."""

from repro.tools.analysis import RULES, Diagnostic, lint_paths, lint_source

__all__ = [
    "Diagnostic",
    "RULES",
    "lint_paths",
    "lint_source",
]
