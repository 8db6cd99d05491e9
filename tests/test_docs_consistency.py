"""The documentation set stays consistent with the code.

Runs the same checks as ``tools/check_docs.py`` (which CI executes as
a script) under pytest, plus unit tests of the checker's own parsing —
a checker that silently matches nothing would otherwise pass forever.
"""

import pathlib
import re
import sys

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


class TestRepositoryDocs:
    def test_doc_set_is_complete(self):
        names = {path.name for path in check_docs.doc_paths(REPO_ROOT)}
        assert {
            "api_overview.md",
            "complexity_derivations.md",
            "fault_tolerance.md",
            "observability.md",
            "operations.md",
            "paper_map.md",
            "performance.md",
            "serving.md",
            "README.md",
            "CHANGELOG.md",
        } <= names

    def test_cross_links_resolve(self):
        assert check_docs.check_links(REPO_ROOT) == []

    def test_version_names_the_newest_release(self):
        """``repro.__version__``, the pyproject version and the newest
        ``## x.y.z`` heading of CHANGELOG.md are one release."""
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"', pyproject, re.M)
        changelog = (REPO_ROOT / "CHANGELOG.md").read_text()
        newest = re.search(r"^## (\d+\.\d+\.\d+)\s*$", changelog, re.M)
        assert declared and newest
        assert repro.__version__ == declared.group(1) == newest.group(1)

    def test_documented_cli_surface_exists(self):
        assert check_docs.check_cli(REPO_ROOT) == []

    def test_metric_catalog_matches_the_registry(self):
        assert check_docs.check_metrics(REPO_ROOT) == []

    def test_cli_surface_reflects_parser(self):
        surface = check_docs.cli_surface()
        assert "serve" in surface and "stats" in surface
        assert "--metrics" in surface["serve"]
        assert "--connect" in surface["stats"]


class TestCheckerParsing:
    def test_extracts_fenced_and_inline_invocations(self):
        text = (
            "Use `repro serve 16 --planes 2` or:\n\n"
            "```console\n"
            "$ repro stats 8 --format prometheus\n"
            "$ python -m repro route 16 --backend bnb\n"
            "from repro import BNBNetwork   # not an invocation\n"
            "```\n\n"
            "Module paths like `repro.core.plan` never match.\n"
        )
        tails = [tail for _ctx, tail in check_docs.extract_invocations(text)]
        assert tails == [
            "stats 8 --format prometheus",
            "route 16 --backend bnb",
            "serve 16 --planes 2",
        ]

    def test_wrapped_inline_span_collapses(self):
        text = "as in `repro serve N --engine\nvector` above"
        [(_ctx, tail)] = check_docs.extract_invocations(text)
        assert tail == "serve N --engine vector"

    def test_token_cleaning(self):
        assert check_docs._clean_tokens(
            "serve N --demo WORDS [--json] | head  # comment"
        ) == ["serve", "N", "--demo", "WORDS", "--json"]
        assert check_docs._clean_tokens("serve 16 --metrics &") == [
            "serve",
            "16",
            "--metrics",
        ]

    def test_detects_dead_link(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text("see [b](missing.md) and [ok](a.md)\n")
        errors = check_docs.check_links(tmp_path)
        assert len(errors) == 1
        assert "missing.md" in errors[0]

    def test_detects_phantom_flag_and_subcommand(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text(
            "run `repro serve 8 --no-such-flag` or `repro frobnicate 8`\n"
        )
        errors = check_docs.check_cli(tmp_path)
        assert len(errors) == 2
        assert any("--no-such-flag" in e for e in errors)
        assert any("frobnicate" in e for e in errors)

    def test_detects_phantom_flag_value(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text("run `repro serve 8 --engine vector`\n")
        errors = check_docs.check_cli(tmp_path)
        assert len(errors) == 1
        assert "--engine" in errors[0] and "'vector'" in errors[0]

    def test_value_sets_checked_member_by_member(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text(
            "`repro serve 8 --engine {batch,object}`, "
            "`repro serve 8 --engine=bnb --resilient` and "
            "`repro stats 8 --engine ENGINE --format prometheus`\n"
        )
        errors = check_docs.check_cli(tmp_path)
        assert len(errors) == 1
        assert "'object'" in errors[0]

    def test_changelog_may_name_removed_values(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "CHANGELOG.md").write_text(
            "`repro serve 8 --engine vector` is now "
            "`repro serve 8 --engine batch`\n"
        )
        assert check_docs.check_cli(tmp_path) == []

    @staticmethod
    def _catalog(tmp_path, edit):
        """Write the real metric catalog, passed through *edit*, under
        *tmp_path*."""
        text = (REPO_ROOT / check_docs.METRIC_CATALOG).read_text()
        path = tmp_path / check_docs.METRIC_CATALOG
        path.parent.mkdir()
        path.write_text(edit(text))

    def test_catalog_row_for_an_unregistered_metric(self, tmp_path):
        healthy = "| `repro_plane_healthy` | gauge | `plane` |"
        row = "| `repro_plane_in_flight` | gauge | `plane` | frames inside |\n"
        self._catalog(tmp_path, lambda text: text.replace(healthy, row + healthy))
        errors = check_docs.check_metrics(tmp_path)
        assert len(errors) == 1
        assert "repro_plane_in_flight" in errors[0]
        assert "does not register" in errors[0]

    def test_registered_metric_without_a_row(self, tmp_path):
        self._catalog(
            tmp_path,
            lambda text: "".join(
                line
                for line in text.splitlines(keepends=True)
                if not line.startswith("| `repro_gateway_cycle` |")
            ),
        )
        errors = check_docs.check_metrics(tmp_path)
        assert len(errors) == 1
        assert "repro_gateway_cycle has no catalog row" in errors[0]

    def test_external_links_ignored(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text(
            "[x](https://example.com/y) [y](#anchor) [z](a.md#frag)\n"
        )
        assert check_docs.check_links(tmp_path) == []
