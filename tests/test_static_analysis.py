"""Tier-1 static-analysis gate.

Three layers, in increasing specificity:

1. ``repro-lint`` (tools/repro_lint.py) -- the repo-specific AST rules
   R001-R006.  Pure stdlib, so it ALWAYS runs; the source tree must be
   clean.
2. ``ruff`` -- general lint (pycodestyle, pyflakes, bugbear, numpy rules,
   import sorting) per the ``[tool.ruff]`` table in pyproject.toml.  Skipped
   when ruff is not installed (it is an optional ``lint`` extra).
3. ``mypy`` -- the strict-clean module set (``repro.utils``,
   ``repro.tools``) per the gradual-strictness table in pyproject.toml.
   Skipped when mypy is not installed.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tools.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _run(cmd):
    return subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)


class TestReproLintGate:
    def test_source_tree_is_lint_clean(self):
        diagnostics = lint_paths([SRC])
        rendered = "\n".join(d.format() for d in diagnostics)
        assert not diagnostics, f"repro-lint findings:\n{rendered}"

    def test_tools_and_wrapper_are_lint_clean(self):
        diagnostics = lint_paths([REPO_ROOT / "tools"])
        rendered = "\n".join(d.format() for d in diagnostics)
        assert not diagnostics, f"repro-lint findings:\n{rendered}"

    def test_cli_exits_zero_on_tree(self):
        result = _run([sys.executable, "tools/repro_lint.py", "src"])
        assert result.returncode == 0, result.stdout + result.stderr


class TestRuffGate:
    @pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
    def test_ruff_check_is_clean(self):
        result = _run(["ruff", "check", "src", "tests", "tools"])
        assert result.returncode == 0, result.stdout + result.stderr


class TestMypyGate:
    @pytest.mark.skipif(
        shutil.which("mypy") is None, reason="mypy not installed"
    )
    def test_strict_module_set_passes(self):
        result = _run(
            [
                "mypy",
                "-p",
                "repro.utils",
                "-p",
                "repro.tools",
            ]
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestTypingArtifacts:
    def test_py_typed_marker_ships(self):
        assert (SRC / "repro" / "py.typed").exists()

    def test_lint_extra_declared(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python < 3.11
            pytest.skip("tomllib unavailable")
        config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        extras = config["project"]["optional-dependencies"]
        assert any(dep.startswith("mypy") for dep in extras["lint"])
        assert any(dep.startswith("ruff") for dep in extras["lint"])
        assert (
            config["project"]["scripts"]["repro-lint"]
            == "repro.tools.analysis.cli:main"
        )
        assert "mypy" in config["tool"]
        assert "ruff" in config["tool"]
