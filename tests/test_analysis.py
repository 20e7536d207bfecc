"""The determinism & contract linter: rules, engine, CLI.

Covers the acceptance contract of the analysis package:

* every PAS001-PAS008 rule fires on its deliberately-bad fixture in
  ``tests/fixtures/lint/`` and stays silent on the good twin;
* PAS005 catches the stale-cache-hit bug class — a settings field that
  skips the canonical serialization is reported, both on a synthetic
  dataclass and end-to-end against the real serializer;
* inline suppressions, scoped allowances, and the three output formats
  behave as documented;
* the repository self-hosts: ``lint src tests`` is clean, with no file
  of grandfathered findings.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.cli import run_lint
from repro.analysis.contracts import cache_key_diagnostics
from repro.analysis.engine import (
    PARSE_ERROR_CODE,
    iter_python_files,
    load_context,
)
from repro.analysis.rules import RULES

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"

ALL_CODES = tuple(f"PAS00{i}" for i in range(1, 9))


def lint_fixture(*names: str, **kwargs):
    return lint_paths([FIXTURES / name for name in names], root=REPO, **kwargs)


def codes(report) -> set[str]:
    return {diag.code for diag in report.findings}


# ---------------------------------------------------------------------------
# rule registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_all_rules_registered(self):
        assert set(RULES) == set(ALL_CODES)

    def test_every_rule_documents_itself(self):
        for code, rule in RULES.items():
            summary = rule.summary()
            assert summary.startswith(code), (code, summary)


# ---------------------------------------------------------------------------
# the fixture corpus: every rule fires on bad, stays silent on good
# ---------------------------------------------------------------------------
BAD_FIXTURES = {
    "PAS001": "pas001_bad.py",
    "PAS002": "pas002_bad.py",
    "PAS003": "sim/pas003_bad.py",
    "PAS004": "sim/pas004_bad.py",
    "PAS006": "pas006_bad.py",
    "PAS007": "pas007_bad.py",
    "PAS008": "pas008_bad.py",
}

GOOD_FIXTURES = {
    "PAS001": "pas001_good.py",
    "PAS002": "pas002_good.py",
    "PAS003": "sim/pas003_good.py",
    "PAS004": "sim/pas004_good.py",
    "PAS006": "pas006_good.py",
    "PAS007": "pas007_good.py",
    "PAS008": "pas008_good.py",
}


class TestFixtureCorpus:
    @pytest.mark.parametrize("code,name", sorted(BAD_FIXTURES.items()))
    def test_bad_fixture_triggers_rule(self, code, name):
        report = lint_fixture(name)
        assert code in codes(report), report.findings

    @pytest.mark.parametrize("code,name", sorted(GOOD_FIXTURES.items()))
    def test_good_fixture_is_clean(self, code, name):
        report = lint_fixture(name)
        assert report.findings == [], report.findings

    def test_every_rule_covered_by_corpus(self):
        # PAS005 is project-level and exercised by its own tests below.
        assert set(BAD_FIXTURES) | {"PAS005"} == set(ALL_CODES)

    def test_pas001_flags_all_wall_clock_variants(self):
        report = lint_fixture("pas001_bad.py")
        messages = " ".join(d.message for d in report.findings)
        assert "time.time()" in messages
        assert "datetime.datetime.now()" in messages
        assert "time.perf_counter()" in messages

    def test_pas001_allowed_in_serve_scope(self):
        report = lint_fixture("serve/pas001_allowed.py")
        assert report.findings == []

    def test_pas003_needs_placement_scope(self, tmp_path):
        # The same set iteration outside sim/core/cluster/serving/
        # schedulers paths is not placement code: silent.
        source = FIXTURES / "sim" / "pas003_bad.py"
        copy = tmp_path / "pas003_elsewhere.py"
        copy.write_text(source.read_text())
        report = lint_paths([copy], root=tmp_path)
        assert "PAS003" not in codes(report)

    def test_diagnostics_carry_location_and_snippet(self):
        report = lint_fixture("pas007_bad.py")
        diag = report.findings[0]
        assert diag.path == "tests/fixtures/lint/pas007_bad.py"
        assert diag.line > 0 and diag.col > 0
        assert "batch=[]" in diag.snippet


# ---------------------------------------------------------------------------
# PAS005: cache-key completeness
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SyntheticSettings:
    """A settings fixture with a field the serializer 'forgets'."""

    n_requests: int = 10
    secret_knob: float = 1.0


class TestCacheKeyCompleteness:
    def _this_file_contexts(self):
        ctx = load_context(Path(__file__), root=REPO)
        return {ctx.relpath: ctx}

    def test_unserialized_field_is_reported(self):
        # The acceptance scenario: a synthetic field exists on the
        # dataclass but never reaches the canonical serialization.
        files = self._this_file_contexts()
        manifest = {"SyntheticSettings": frozenset({"n_requests"})}
        diags = list(
            cache_key_diagnostics(
                files, classes=[SyntheticSettings], manifest=manifest
            )
        )
        assert len(diags) == 1
        (diag,) = diags
        assert diag.code == "PAS005"
        assert "SyntheticSettings.secret_knob" in diag.message
        assert "secret_knob" in diag.snippet  # anchored at the field line

    def test_fully_serialized_class_is_clean(self):
        files = self._this_file_contexts()
        manifest = {
            "SyntheticSettings": frozenset({"n_requests", "secret_knob"})
        }
        diags = list(
            cache_key_diagnostics(
                files, classes=[SyntheticSettings], manifest=manifest
            )
        )
        assert diags == []

    def test_never_serialized_class_is_reported(self):
        files = self._this_file_contexts()
        diags = list(
            cache_key_diagnostics(
                files, classes=[SyntheticSettings], manifest={}
            )
        )
        assert len(diags) == 1
        assert "never reaches" in diags[0].message

    def test_class_outside_linted_set_is_skipped(self):
        # Nothing to anchor to: no crash, no diagnostic.
        diags = list(
            cache_key_diagnostics(
                {}, classes=[SyntheticSettings], manifest={}
            )
        )
        assert diags == []

    def test_end_to_end_catches_dropped_field(self, monkeypatch):
        # Sabotage the real serializer the way the PR-4 bug happened:
        # the `extensions` knob silently missing from the cell spec.
        from repro.harness import spec

        real = spec.settings_spec

        def dropping(settings):
            doc = real(settings)
            doc.pop("extensions", None)
            return doc

        monkeypatch.setattr(spec, "settings_spec", dropping)
        report = lint_paths(
            [REPO / "src" / "repro" / "harness" / "runner.py"], root=REPO
        )
        messages = [d.message for d in report.findings if d.code == "PAS005"]
        assert any("EvalSettings.extensions" in m for m in messages)
        assert any("ReplaySettings.extensions" in m for m in messages)

    def test_real_manifest_covers_every_settings_field(self):
        from repro.harness import spec

        manifest = spec.canonical_field_manifest()
        from repro.config import ExtensionPolicyConfig, PoolSpec
        from repro.harness.runner import (
            CharacterizationSettings,
            EvalSettings,
            ReplaySettings,
        )

        for cls in (
            EvalSettings,
            ReplaySettings,
            CharacterizationSettings,
            ExtensionPolicyConfig,
            PoolSpec,
        ):
            declared = {f.name for f in dataclasses.fields(cls)}
            assert declared <= manifest[cls.__name__], cls.__name__


# ---------------------------------------------------------------------------
# inline suppressions
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_ignore_suppresses_own_line(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n"
            "t = time.time()  # lint-ignore: PAS001 (fixture)\n"
        )
        report = lint_paths([path], root=tmp_path)
        assert report.findings == []

    def test_comment_line_suppresses_next_line(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n"
            "# lint-ignore: PAS001\n"
            "t = time.time()\n"
        )
        report = lint_paths([path], root=tmp_path)
        assert report.findings == []

    def test_bare_ignore_suppresses_all_codes(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time, random\n"
            "t = time.time() + random.random()  # lint-ignore\n"
        )
        report = lint_paths([path], root=tmp_path)
        assert report.findings == []

    def test_other_code_does_not_suppress(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n"
            "t = time.time()  # lint-ignore: PAS007\n"
        )
        report = lint_paths([path], root=tmp_path)
        assert codes(report) == {"PAS001"}


# ---------------------------------------------------------------------------
# engine: discovery, excludes, parse errors
# ---------------------------------------------------------------------------
class TestEngine:
    def test_fixture_corpus_excluded_from_directory_walk(self):
        files = iter_python_files([REPO / "tests"], root=REPO)
        assert all("fixtures/lint" not in f.as_posix() for f in files)

    def test_explicit_file_bypasses_excludes(self):
        target = FIXTURES / "pas001_bad.py"
        files = iter_python_files([target], root=REPO)
        assert [f.resolve() for f in files] == [target.resolve()]

    def test_explicitly_named_excluded_dir_is_linted(self):
        files = iter_python_files([FIXTURES], root=REPO)
        assert files, "explicit dir must override its own exclusion"

    def test_walk_is_sorted_and_deduplicated(self):
        twice = iter_python_files(
            [REPO / "src" / "repro" / "analysis",
             REPO / "src" / "repro" / "analysis"],
            root=REPO,
        )
        resolved = [f.resolve() for f in twice]
        assert resolved == sorted(set(resolved))

    def test_syntax_error_becomes_pas000(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        report = lint_paths([path], root=tmp_path)
        assert [d.code for d in report.findings] == [PARSE_ERROR_CODE]

    def test_report_is_sorted_by_location(self):
        report = lint_fixture(*sorted(set(BAD_FIXTURES.values())))
        assert report.findings == sorted(report.findings)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    @pytest.fixture(autouse=True)
    def _in_repo(self, monkeypatch):
        monkeypatch.chdir(REPO)

    def test_findings_exit_1(self, capsys):
        status = run_lint(["tests/fixtures/lint/pas001_bad.py"])
        assert status == 1
        out = capsys.readouterr().out
        assert "PAS001" in out

    def test_clean_exit_0(self, capsys):
        status = run_lint(["tests/fixtures/lint/pas001_good.py"])
        assert status == 0

    def test_json_format_is_machine_readable(self, capsys):
        status = run_lint(
            ["--format", "json", "tests/fixtures/lint/pas001_bad.py"]
        )
        assert status == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "pascal-lint"
        assert doc["version"] == 2
        assert set(doc) == {"format", "version", "n_files", "diagnostics"}
        assert {d["code"] for d in doc["diagnostics"]} == {"PAS001"}

    def test_github_format_emits_annotations(self, capsys):
        status = run_lint(
            ["--format", "github", "tests/fixtures/lint/pas001_bad.py"]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "::error file=tests/fixtures/lint/pas001_bad.py" in out
        assert "title=PAS001" in out

    def test_missing_path_exit_2(self, capsys):
        assert run_lint(["no/such/path"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_harness_dispatch(self, capsys):
        from repro.harness.__main__ import main

        assert main(["lint", "tests/fixtures/lint/pas001_bad.py"]) == 1
        assert main(["lint", "tests/fixtures/lint/pas001_good.py"]) == 0


# ---------------------------------------------------------------------------
# self-hosting
# ---------------------------------------------------------------------------
class TestSelfHost:
    def test_src_and_tests_lint_clean(self):
        # Deliberate exceptions are inline suppressions, and nothing else
        # can absorb a finding.
        report = lint_paths([REPO / "src", REPO / "tests"], root=REPO)
        assert report.findings == [], [d.text() for d in report.findings]
