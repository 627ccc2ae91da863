"""Contract-linter tests: every rule fires on its minimal violation and
stays quiet on the compliant twin; suppressions, the unused-suppression
check, the baseline growth gate and the ``--json`` schema all behave;
and — the tier-1 gate — the repo's own ``src/`` tree is clean, with the
atomic-write and unseeded-RNG rules clean *without* baseline help."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

from repro.devtools import (
    all_rules,
    lint_paths,
    lint_source,
    load_baseline,
    module_name_for,
)
from repro.devtools.framework import (
    PARSE_ERROR,
    UNUSED_SUPPRESSION,
    apply_baseline,
    render_baseline,
)
from repro.devtools.lint import main

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "lint"

RULE_IDS = {
    "no-wall-clock",
    "no-unseeded-rng",
    "no-builtin-hash-persistence",
    "atomic-writes",
    "lock-discipline",
    "import-layering",
}


def lint_fixture(name: str):
    path = DATA / name
    return lint_source(path.read_text(encoding="utf-8"), path=str(path))


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert RULE_IDS <= {rule.id for rule in all_rules()}

    def test_rules_carry_docs(self):
        for rule in all_rules():
            assert rule.summary and rule.rationale, rule.id


class TestRulesFire:
    """Each rule: fires on the violation file, silent on the twin."""

    FIRING = [
        ("wallclock_bad.py", "no-wall-clock", 2),
        ("rng_bad.py", "no-unseeded-rng", 2),
        ("hash_bad.py", "no-builtin-hash-persistence", 1),
        ("lock_bad.py", "lock-discipline", 1),
        ("src/repro/telemetry/atomic_bad.py", "atomic-writes", 1),
        ("src/repro/nn/layering_bad.py", "import-layering", 2),
        ("src/repro/scenarios/layering_bad.py", "import-layering", 2),
        ("src/repro/cluster/layering_bad.py", "import-layering", 3),
    ]

    QUIET = [
        "wallclock_ok.py",
        "rng_ok.py",
        "hash_ok.py",
        "lock_ok.py",
        "src/repro/telemetry/atomic_ok.py",
        "src/repro/nn/layering_ok.py",
        "src/repro/scenarios/layering_ok.py",
        "src/repro/cluster/layering_ok.py",
        "src/repro/telemetry/wallclock_allowed.py",
        "src/repro/service/wallclock_allowed.py",
        "unscoped_write_ok.py",
    ]

    @pytest.mark.parametrize("name,rule_id,count", FIRING)
    def test_fires_on_violation(self, name, rule_id, count):
        findings = lint_fixture(name)
        assert [f.rule_id for f in findings] == [rule_id] * count
        assert all(f.line > 0 for f in findings)

    @pytest.mark.parametrize("name", QUIET)
    def test_quiet_on_compliant_twin(self, name):
        assert lint_fixture(name) == []

    def test_wall_clock_allowlist_is_module_based(self):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        # The allowlist widens (repro.service joined for TTL/ingest
        # timestamps) but stays module-scoped: the engine layers right
        # next to the allowed ones must still trip the rule.
        for denied in ("repro.gpu.simulator", "repro.cluster.planner",
                       "repro.scenarios.cache", "repro.servicex.other",
                       "repro.profiling.wallclock"):
            assert lint_source(source, module=denied) != []
        for allowed in ("repro.telemetry.export", "repro.training.trainer",
                        "repro.service.catalog", "repro.service.app"):
            assert lint_source(source, module=allowed) == []

    def test_plan_unused_modules_may_import_each_other(self):
        """The Eq. 1/Eq. 2 fit modules import their siblings at module
        level; a planning module doing the same is flagged."""
        source = "from .batchsize import BatchSizeObservation\n"
        assert lint_source(source, module="repro.core.fitting") == []
        findings = lint_source(source, module="repro.core.cost")
        assert [f.rule_id for f in findings] == ["import-layering"]

    def test_parse_error_is_a_finding_not_a_crash(self):
        findings = lint_source("def broken(:\n", path="broken.py")
        assert [f.rule_id for f in findings] == [PARSE_ERROR]

    def test_seeded_default_rng_and_resolve_rng_are_quiet(self):
        source = (
            "import numpy as np\n"
            "from repro.rng import resolve_rng\n"
            "a = np.random.default_rng(7)\n"
            "b = resolve_rng(None)\n"
            "c = np.random.default_rng(seed=7)\n"
        )
        assert lint_source(source, module="repro.nn.something") == []


class TestSuppressions:
    def test_both_spellings_silence_the_finding(self):
        assert lint_fixture("suppressed_ok.py") == []

    def test_unused_suppression_is_reported(self):
        findings = lint_fixture("suppression_unused.py")
        assert [f.rule_id for f in findings] == [UNUSED_SUPPRESSION]
        assert "no-wall-clock" in findings[0].message

    def test_suppression_only_silences_named_rule(self):
        source = (
            "import time\n\n\ndef f():\n"
            "    return time.time()  # repro: allow[no-unseeded-rng]\n"
        )
        rule_ids = {f.rule_id for f in lint_source(source, module="m")}
        # The wall-clock finding survives AND the mismatched suppression
        # is itself reported as unused.
        assert rule_ids == {"no-wall-clock", UNUSED_SUPPRESSION}

    def test_docstring_mention_is_not_a_suppression(self):
        source = '"""docs: write # repro: allow[no-wall-clock] to escape"""\nX = 1\n'
        assert lint_source(source, module="m") == []


class TestBaseline:
    def test_known_findings_do_not_gate(self, tmp_path):
        findings = lint_fixture("wallclock_bad.py")
        baseline = [f.baseline_key for f in findings]
        result = lint_paths([DATA / "wallclock_bad.py"], baseline=baseline)
        assert result.ok and result.new == [] and len(result.known) == 2

    def test_growth_gates(self):
        findings = lint_fixture("wallclock_bad.py")
        baseline = [findings[0].baseline_key]  # only one of two legacy
        result = lint_paths([DATA / "wallclock_bad.py"], baseline=baseline)
        assert not result.ok and len(result.new) == 1 and len(result.known) == 1

    def test_stale_entries_are_reported_not_gating(self):
        result = lint_paths(
            [DATA / "wallclock_ok.py"], baseline=["gone.py::no-wall-clock::x"]
        )
        assert result.ok and result.stale_baseline == ["gone.py::no-wall-clock::x"]

    def test_baseline_key_excludes_line_numbers(self):
        findings = lint_fixture("hash_bad.py")
        assert "::" in findings[0].baseline_key
        assert str(findings[0].line) not in findings[0].baseline_key.split("::")

    def test_render_load_roundtrip(self, tmp_path):
        findings = lint_fixture("rng_bad.py")
        path = tmp_path / "baseline.json"
        path.write_text(render_baseline(findings), encoding="utf-8")
        entries = load_baseline(path)
        assert entries == sorted({f.baseline_key for f in findings})
        new, known, stale = apply_baseline(findings, entries)
        assert new == [] and len(known) == 2 and stale == []

    def test_load_baseline_rejects_bad_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []
        assert load_baseline(None) == []


class TestCli:
    def test_violation_file_exits_nonzero(self, capsys):
        assert main([str(DATA / "wallclock_bad.py"), "--no-baseline"]) == 1
        assert "no-wall-clock" in capsys.readouterr().out

    def test_fixture_tree_exits_nonzero(self, capsys):
        assert main([str(DATA), "--no-baseline"]) == 1

    def test_clean_file_exits_zero(self, capsys):
        assert main([str(DATA / "wallclock_ok.py"), "--no-baseline"]) == 0

    def test_json_schema(self, capsys):
        code = main([str(DATA / "rng_bad.py"), "--no-baseline", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert set(payload) >= {"version", "files", "counts", "findings", "new",
                                "stale_baseline", "ok"}
        assert payload["ok"] is False
        assert payload["counts"]["new"] == 2 == len(payload["new"])
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "rule", "message"}
            assert finding["rule"] == "no-unseeded-rng"

    def test_rule_selection(self, capsys):
        code = main([str(DATA / "rng_bad.py"), "--no-baseline",
                     "--rules", "no-wall-clock"])
        assert code == 0

    def test_unknown_rule_exits_2(self, capsys):
        assert main([str(DATA), "--rules", "no-such-rule"]) == 2

    def test_missing_path_exits_2(self, capsys):
        assert main([str(DATA / "does-not-exist.py")]) == 2

    def test_list_rules_documents_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert f"{rule_id}:" in out

    def test_write_baseline_then_gate_green(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(DATA / "hash_bad.py"), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert main([str(DATA / "hash_bad.py"), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out


class TestModuleNames:
    def test_src_anchor(self):
        assert module_name_for(Path("src/repro/nn/linear.py")) == "repro.nn.linear"
        assert (
            module_name_for(Path("tests/data/lint/src/repro/telemetry/x.py"))
            == "repro.telemetry.x"
        )

    def test_init_names_the_package(self):
        assert module_name_for(Path("src/repro/nn/__init__.py")) == "repro.nn"

    def test_repro_anchor_without_src(self):
        assert module_name_for(Path("repro/gpu/kernels.py")) == "repro.gpu.kernels"

    def test_bare_file_is_its_stem(self):
        assert module_name_for(Path("scratch.py")) == "scratch"


class TestRepoTreeClean:
    """The in-process tier-1 gate: contract regressions fail pytest
    directly, without waiting for the CI lint job."""

    def test_src_lints_clean_against_committed_baseline(self):
        baseline = load_baseline(REPO / "lint-baseline.json")
        result = lint_paths([REPO / "src"], baseline=baseline)
        assert result.ok, "new contract violations:\n" + "\n".join(
            f.render() for f in result.new
        )
        assert not result.stale_baseline, (
            "stale baseline entries (prune lint-baseline.json):\n"
            + "\n".join(result.stale_baseline)
        )

    def test_rng_and_atomic_rules_clean_without_baseline(self):
        """ISSUE 9 acceptance: the real atomic-write and unseeded-RNG
        violations are *fixed*, not suppressed or baselined."""
        result = lint_paths([REPO / "src"])
        offending = [
            f
            for f in result.findings
            if f.rule_id in ("no-unseeded-rng", "atomic-writes")
        ]
        assert offending == [], "\n".join(f.render() for f in offending)
        baseline = load_baseline(REPO / "lint-baseline.json")
        assert not any(
            "::no-unseeded-rng::" in e or "::atomic-writes::" in e for e in baseline
        )

    def test_ci_tier1_job_installs_every_third_party_import(self):
        """A clean runner has only what the tier-1 job's ``pip install``
        line names, so every top-level import under ``src/`` and
        ``tests/`` that is neither stdlib, ``repro`` nor a test-local
        module must appear on that line."""
        lines = (REPO / ".github" / "workflows" / "ci.yml").read_text().splitlines()
        job = lines[lines.index("  tier1:"):]
        install = next(line for line in job if "pip install" in line)
        installed = set(install.split("pip install", 1)[1].split())
        local = {p.stem for p in (REPO / "tests").rglob("*.py")} | {"repro"}
        imported = set()
        for root in ("src", "tests"):
            for path in (REPO / root).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Import):
                        imported.update(alias.name.split(".")[0] for alias in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - local
        assert third_party - installed == set(), install
