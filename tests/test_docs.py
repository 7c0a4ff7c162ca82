"""Tests for the documentation subsystem (docs can't rot if they execute).

Mirrors the CI ``docs`` job: every fenced ``python`` block in README.md and
docs/*.md must run, every intra-repo link must resolve, and every public
service-layer module must carry a module docstring.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


class TestCheckerMechanics:
    def test_extracts_blocks_and_honours_no_run(self):
        text = "\n".join(
            [
                "# title",
                "```python",
                "x = 1",
                "```",
                "```python no-run",
                "raise RuntimeError('never executed')",
                "```",
                "```bash",
                "echo not python",
                "```",
            ]
        )
        blocks = check_docs.extract_python_blocks(text)
        assert [(line, source) for line, source in blocks] == [(3, "x = 1")]

    def test_unterminated_fence_rejected(self):
        with pytest.raises(ValueError):
            check_docs.extract_python_blocks("```python\nx = 1\n")

    def test_failing_block_reported(self, tmp_path):
        doc = tmp_path / "broken.md"
        doc.write_text("```python\nraise ValueError('boom')\n```\n", encoding="utf-8")
        failures = check_docs.run_code_blocks(doc)
        assert len(failures) == 1
        assert "line 1" in failures[0] and "boom" in failures[0]

    def test_blocks_share_a_namespace_per_file(self, tmp_path):
        doc = tmp_path / "chained.md"
        doc.write_text(
            "```python\nvalue = 41\n```\ntext\n```python\nassert value + 1 == 42\n```\n",
            encoding="utf-8",
        )
        assert check_docs.run_code_blocks(doc) == []

    def test_broken_link_reported(self, tmp_path):
        doc = tmp_path / "linked.md"
        doc.write_text("[missing](nope.md) and [ok](#anchor)\n", encoding="utf-8")
        failures = check_docs.check_links(doc)
        assert failures == [f"{doc.name}: broken link -> nope.md"]

    def test_main_reports_failures(self, tmp_path, capsys):
        doc = tmp_path / "bad.md"
        doc.write_text("[missing](nope.md)\n", encoding="utf-8")
        assert check_docs.main([doc]) == 1
        assert "broken link" in capsys.readouterr().err


class TestRepoDocs:
    def test_expected_files_are_covered(self):
        names = {path.name for path in check_docs.doc_files()}
        assert {"README.md", "ARCHITECTURE.md", "API.md"} <= names

    def test_all_repo_docs_pass(self, capsys):
        """The CI docs job, as a tier-1 test: snippets run, links resolve."""
        assert check_docs.main() == 0
        assert "docs check passed" in capsys.readouterr().out


class TestModuleDocstrings:
    #: Modules whose docstrings the docs satellite pinned; keep them real.
    MODULES = (
        "repro.core.batch_walks",
        "repro.service",
        "repro.service.runner",
        "repro.service.service",
        "repro.service.sharding",
        "repro.service.tenancy",
    )

    @pytest.mark.parametrize("name", MODULES)
    def test_module_has_substantial_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ is not None and len(module.__doc__.strip()) > 100, (
            f"{name} needs a real module docstring"
        )
