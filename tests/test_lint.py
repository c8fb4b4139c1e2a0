"""Tests for ``repro.lint`` — the determinism & state-protocol analyzer.

Three layers:

* fixture snippets per rule family (a seeded violation is caught, the
  suppressed variant is not, the clean variant never fires),
* the runner and CLI surfaces (roles, reports, exit codes, the JSON
  artifact the CI gate uploads),
* the repository itself: ``lint --self`` must be clean, the golden
  ``dle+collect`` traces must not move (regression for the D102 hardening
  of ``collect._final_reconnect``), and the mypy strict-module list must
  stay fully annotated.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import make_shape, run_experiment
from repro.cli import main
from repro.lint import (
    DEFAULT_SELF_PATHS,
    RULE_TYPES,
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    register_rule,
    role_for_path,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPECTED_RULES = {
    "D101", "D102", "D103", "D104",
    "S201", "S202", "S203",
    "T301", "T302",
    "L401", "L402",
    "A501", "A502",
}


def codes(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# Framework
# ---------------------------------------------------------------------------

class TestFramework:
    def test_all_families_registered(self):
        assert EXPECTED_RULES <= set(RULE_TYPES)

    def test_all_rules_sorted_and_described(self):
        rules = all_rules()
        assert [rule.code for rule in rules] == sorted(RULE_TYPES)
        for rule in rules:
            assert rule.name and rule.description
            assert set(rule.roles) <= {"src", "tests", "examples",
                                       "benchmarks"}

    def test_duplicate_code_rejected(self):
        class Clone(Rule):
            code = "D101"
            name = "clone"

        with pytest.raises(ValueError, match="duplicate"):
            register_rule(Clone)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown lint role"):
            ModuleContext("x.py", "pass\n", role="vendored")

    def test_finding_format(self):
        finding = Finding(rule="D101", path="a.py", line=3, col=5,
                          message="boom")
        assert finding.format() == "a.py:3:5: D101 boom"
        assert finding.to_dict() == {"rule": "D101", "path": "a.py",
                                     "line": 3, "col": 5, "message": "boom"}

    def test_suppression_table(self):
        module = ModuleContext("x.py", (
            "a = 1  # repro: lint-ok[D102]\n"
            "b = 2  # repro: lint-ok[D102, S203]\n"
            "c = 3  # repro: lint-ok[*]\n"
            "d = 4\n"))
        assert module.suppressed("D102", 1)
        assert not module.suppressed("D101", 1)
        assert module.suppressed("S203", 2)
        assert module.suppressed("T301", 3)
        assert not module.suppressed("D102", 4)


# ---------------------------------------------------------------------------
# D-rules: determinism
# ---------------------------------------------------------------------------

D101_VIOLATION = """
import random

def pick(items):
    return random.choice(items)
"""

D101_FROM_IMPORT = """
from random import shuffle

def scramble(items):
    shuffle(items)
"""

D101_NUMPY = """
import numpy as np

def noise(n):
    return np.random.rand(n)
"""

D101_CLEAN = """
import random

def pick(items, seed):
    rng = random.Random(seed)
    return rng.choice(items)
"""


class TestD101UnseededRandom:
    def test_module_global_call_caught(self):
        assert codes(lint_source(D101_VIOLATION)) == ["D101"]

    def test_from_import_caught(self):
        assert codes(lint_source(D101_FROM_IMPORT)) == ["D101"]

    def test_numpy_legacy_global_caught(self):
        assert codes(lint_source(D101_NUMPY)) == ["D101"]

    def test_system_random_caught(self):
        source = "import random\nr = random.SystemRandom()\n"
        assert codes(lint_source(source)) == ["D101"]

    def test_seeded_instance_clean(self):
        assert lint_source(D101_CLEAN) == []

    def test_numpy_default_rng_clean(self):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_source(source) == []

    def test_suppressed(self):
        source = D101_VIOLATION.replace(
            "random.choice(items)",
            "random.choice(items)  # repro: lint-ok[D101] test shim")
        assert lint_source(source) == []

    def test_off_in_tests_role(self):
        assert lint_source(D101_VIOLATION, role="tests") == []


D102_LIST_OVER_SET = """
def trace(ids):
    pending = {3, 1, 2}
    return list(pending)
"""

D102_COMPREHENSION = """
def trace(ids):
    pending = set(ids)
    return [i * 2 for i in pending]
"""

D102_APPEND_LOOP = """
def trace(ids):
    pending = frozenset(ids)
    out = []
    for i in pending:
        out.append(i)
    return out
"""

D102_ATTRIBUTE = """
class Collector:
    def __init__(self, ids):
        self.collected = set(ids)

    def order(self):
        return list(self.collected)
"""

D102_CLEAN = """
def trace(ids):
    pending = set(ids)
    count = len(pending)
    return sorted(pending), count, max(pending)
"""


class TestD102UnorderedIteration:
    def test_list_over_set_caught(self):
        assert codes(lint_source(D102_LIST_OVER_SET)) == ["D102"]

    def test_comprehension_caught(self):
        assert codes(lint_source(D102_COMPREHENSION)) == ["D102"]

    def test_append_loop_caught(self):
        assert codes(lint_source(D102_APPEND_LOOP)) == ["D102"]

    def test_set_attribute_caught(self):
        assert codes(lint_source(D102_ATTRIBUTE)) == ["D102"]

    def test_order_free_consumers_clean(self):
        assert lint_source(D102_CLEAN) == []

    def test_membership_loop_clean(self):
        source = (
            "def check(ids, wanted):\n"
            "    pending = set(ids)\n"
            "    hits = 0\n"
            "    for i in pending:\n"
            "        if i in wanted:\n"
            "            hits += 1\n"
            "    return hits\n")
        assert lint_source(source) == []

    def test_suppressed(self):
        source = D102_LIST_OVER_SET.replace(
            "return list(pending)",
            "return list(pending)  # repro: lint-ok[D102] order-free sink")
        assert lint_source(source) == []


D103_VIOLATION = """
import hashlib
import time

def result_digest(payload):
    h = hashlib.sha256()
    h.update(str(time.time()).encode("utf-8"))
    return h.hexdigest()
"""

D104_VIOLATION = """
import hashlib
import json

def cache_key(config):
    return hashlib.sha256(json.dumps(config).encode("utf-8")).hexdigest()
"""


class TestD103D104Digests:
    def test_wallclock_in_digest_caught(self):
        assert codes(lint_source(D103_VIOLATION)) == ["D103"]

    def test_wallclock_outside_digest_clean(self):
        source = "import time\n\ndef elapsed(start):\n" \
                 "    return time.time() - start\n"
        assert lint_source(source) == []

    def test_unsorted_json_caught(self):
        assert codes(lint_source(D104_VIOLATION)) == ["D104"]

    def test_sorted_json_clean(self):
        source = D104_VIOLATION.replace("json.dumps(config)",
                                        "json.dumps(config, sort_keys=True)")
        assert lint_source(source) == []


# ---------------------------------------------------------------------------
# S-rules: state protocol
# ---------------------------------------------------------------------------

S201_VIOLATION = """
class HalfProtocol:
    def snapshot_state(self):
        return {"x": 1}
"""

S202_VIOLATION = """
class Drifted:
    def snapshot_state(self):
        return {"x": self.x, "y": self.y}

    def restore_state(self, state):
        self.x = state["x"]
"""

S203_VIOLATION = """
class Uncovered:
    def __init__(self):
        self.count = 0
        self._cache = {}

    def bump(self):
        self.count += 1
        self._cache.clear()

    def snapshot_state(self):
        return {"rounds": 1}

    def restore_state(self, state):
        self.rounds = state["rounds"]
"""

S_CLEAN = """
class Covered:
    def __init__(self):
        self.count = 0
        self._cache = {}

    def bump(self):
        self.count += 1

    def snapshot_state(self):
        return {"count": self.count}

    def restore_state(self, state):
        self.count = state["count"]
"""


class TestStateProtocol:
    def test_missing_restore_caught(self):
        assert codes(lint_source(S201_VIOLATION)) == ["S201"]

    def test_missing_snapshot_caught(self):
        source = S201_VIOLATION.replace("snapshot_state", "restore_state")
        assert codes(lint_source(source)) == ["S201"]

    def test_key_drift_caught_both_directions(self):
        findings = lint_source(S202_VIOLATION)
        assert codes(findings) == ["S202"]
        assert "'y'" in findings[0].message
        read_only = S202_VIOLATION.replace('"y": self.y}', '}')
        findings = lint_source(read_only)
        assert findings == []
        missing_write = (
            "class Drifted:\n"
            "    def snapshot_state(self):\n"
            "        return {\"x\": self.x}\n"
            "    def restore_state(self, state):\n"
            "        self.x = state[\"x\"]\n"
            "        self.y = state[\"y\"]\n")
        findings = lint_source(missing_write)
        assert codes(findings) == ["S202"]
        assert "never writes" in findings[0].message

    def test_dynamic_snapshot_not_checked(self):
        source = (
            "class Dynamic:\n"
            "    def snapshot_state(self):\n"
            "        return dict(self._fields)\n"
            "    def restore_state(self, state):\n"
            "        self.x = state[\"x\"]\n")
        assert lint_source(source) == []

    def test_uncovered_mutable_attr_caught(self):
        findings = lint_source(S203_VIOLATION)
        assert codes(findings) == ["S203"]
        assert "count" in findings[0].message

    def test_underscore_cache_exempt_and_covered_clean(self):
        assert lint_source(S_CLEAN) == []


# ---------------------------------------------------------------------------
# T-rules: telemetry
# ---------------------------------------------------------------------------

T301_VIOLATION = """
def save(log, path):
    log.span("checkpoint.save", path=path)
    do_write(path)
"""

T301_CLEAN = """
def save(log, path):
    with log.span("checkpoint.save", path=path):
        do_write(path)
"""

T302_VIOLATION = """
from repro.telemetry import counter

def record():
    counter("cache.hitz").inc()
"""


class TestTelemetryRules:
    def test_bare_span_caught(self):
        assert codes(lint_source(T301_VIOLATION)) == ["T301"]

    def test_with_span_clean(self):
        assert lint_source(T301_CLEAN) == []

    def test_unknown_metric_caught(self):
        findings = lint_source(T302_VIOLATION)
        assert codes(findings) == ["T302"]
        assert "cache.hitz" in findings[0].message

    def test_known_metric_clean(self):
        source = T302_VIOLATION.replace("cache.hitz", "cache.hits")
        assert lint_source(source) == []

    def test_declared_prefix_composition_clean(self):
        source = (
            "from repro.telemetry import counter\n"
            "def record(source):\n"
            "    counter(\"sweep.\" + source).inc()\n")
        assert lint_source(source) == []

    def test_undeclared_prefix_composition_caught(self):
        source = (
            "from repro.telemetry import counter\n"
            "def record(source):\n"
            "    counter(\"bogus.\" + source).inc()\n")
        assert codes(lint_source(source)) == ["T302"]

    def test_fully_dynamic_name_skipped(self):
        source = (
            "from repro.telemetry import counter\n"
            "def record(name):\n"
            "    counter(name).inc()\n")
        assert lint_source(source) == []


# ---------------------------------------------------------------------------
# L-rules: lock discipline
# ---------------------------------------------------------------------------

L401_VIOLATION = """
class Board:
    def claim(self):
        with self._lock:
            with self._counter_lock:
                pass

    def note(self):
        with self._counter_lock:
            with self._lock:
                pass
"""

L401_CLEAN = """
class Board:
    def claim(self):
        with self._lock:
            with self._counter_lock:
                pass

    def note(self):
        with self._lock:
            with self._counter_lock:
                pass
"""

L402_LEXICAL = """
class Board:
    def claim(self):
        with self._lock:
            with self._lock:
                pass
"""

L402_TRANSITIVE = """
class Board:
    def claim(self):
        with self._lock:
            self.note()

    def note(self):
        with self._lock:
            pass
"""


class TestLockRules:
    def test_opposite_nesting_is_a_cycle(self):
        findings = lint_source(L401_VIOLATION)
        assert codes(findings) == ["L401"]
        assert "_lock" in findings[0].message

    def test_consistent_order_clean(self):
        assert lint_source(L401_CLEAN) == []

    def test_transitive_cycle_through_method_call(self):
        source = (
            "class Board:\n"
            "    def claim(self):\n"
            "        with self._lock:\n"
            "            self.note()\n"
            "    def note(self):\n"
            "        with self._counter_lock:\n"
            "            pass\n"
            "    def other(self):\n"
            "        with self._counter_lock:\n"
            "            with self._lock:\n"
            "                pass\n")
        assert "L401" in codes(lint_source(source))

    def test_lexical_reacquisition_caught(self):
        assert codes(lint_source(L402_LEXICAL)) == ["L402"]

    def test_transitive_reacquisition_caught(self):
        findings = lint_source(L402_TRANSITIVE)
        assert codes(findings) == ["L402"]
        assert "note()" in findings[0].message

    def test_separate_counter_lock_clean(self):
        source = L402_TRANSITIVE.replace(
            "    def note(self):\n        with self._lock:",
            "    def note(self):\n        with self._counter_lock:")
        assert lint_source(source) == []


# ---------------------------------------------------------------------------
# A-rules: API hygiene
# ---------------------------------------------------------------------------

A501_VIOLATION = """
__all__ = ["present", "missing"]

def present():
    pass
"""

A502_VIOLATION = """
from repro.core.dle import DLEAlgorithm
"""


class TestApiHygiene:
    def test_dangling_export_caught(self):
        findings = lint_source(A501_VIOLATION)
        assert codes(findings) == ["A501"]
        assert "'missing'" in findings[0].message

    def test_internal_import_caught_in_benchmarks(self):
        assert codes(lint_source(A502_VIOLATION,
                                 role="benchmarks")) == ["A502"]
        assert codes(lint_source("import repro.orchestrator\n",
                                 role="examples")) == ["A502"]

    def test_facade_import_clean(self):
        assert lint_source("from repro.api import run_sweep\n",
                           role="benchmarks") == []
        assert lint_source("from repro import api\n", role="examples") == []

    def test_internal_import_allowed_in_src(self):
        assert lint_source(A502_VIOLATION, role="src") == []


# ---------------------------------------------------------------------------
# Acceptance: one injected violation per family is demonstrably caught
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,source,role", [
    ("D", D101_VIOLATION, "src"),
    ("S", S202_VIOLATION, "src"),
    ("T", T301_VIOLATION, "src"),
    ("L", L401_VIOLATION, "src"),
    ("A", A502_VIOLATION, "benchmarks"),
])
def test_injected_violation_caught(family, source, role):
    findings = lint_source(source, role=role)
    assert findings, f"{family}-family violation not caught"
    assert all(finding.rule.startswith(family) for finding in findings)


# ---------------------------------------------------------------------------
# Runner and CLI
# ---------------------------------------------------------------------------

class TestRunner:
    def test_role_for_path(self):
        root = Path("/repo")
        assert role_for_path(Path("/repo/src/repro/cli.py"), root) == "src"
        assert role_for_path(Path("/repo/tests/test_cli.py"),
                             root) == "tests"
        assert role_for_path(Path("/repo/benchmarks/conftest.py"),
                             root) == "benchmarks"
        assert role_for_path(Path("/repo/examples/quickstart.py"),
                             root) == "examples"

    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n")
        assert codes(findings) == ["X001"]

    def test_select_by_family_and_code(self):
        both = D101_VIOLATION + D102_LIST_OVER_SET
        assert codes(lint_source(both)) == ["D101", "D102"]
        assert codes(lint_source(both, select=["D102"])) == ["D102"]
        assert codes(lint_source(both, select=["D"])) == ["D101", "D102"]
        assert codes(lint_source(both, ignore=["D"])) == []

    def test_lint_paths_report(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text(D101_VIOLATION)
        report = lint_paths([tmp_path], root=tmp_path)
        assert not report.ok
        assert report.files_checked == 2
        assert report.counts_by_rule() == {"D101": 1}
        document = report.to_dict()
        assert document["kind"] == "repro-lint-report"
        assert document["version"] == 1
        assert document["findings"][0]["rule"] == "D101"


class TestLintCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target)]) == 0
        assert "clean (1 files)" in capsys.readouterr().out

    def test_violation_exits_one_and_writes_artifact(self, tmp_path,
                                                     capsys):
        target = tmp_path / "mod.py"
        target.write_text(D101_VIOLATION)
        artifact = tmp_path / "out" / "findings.json"
        assert main(["lint", str(target), "--json", str(artifact)]) == 1
        out = capsys.readouterr().out
        assert "D101" in out and "1 finding" in out
        document = json.loads(artifact.read_text())
        assert document["ok"] is False
        assert document["counts"] == {"D101": 1}

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(D101_VIOLATION)
        assert main(["lint", str(target), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["findings"][0]["rule"] == "D101"

    def test_missing_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.py"
        assert main(["lint", str(missing)]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in sorted(EXPECTED_RULES):
            assert code in out


# ---------------------------------------------------------------------------
# The repository's own gates
# ---------------------------------------------------------------------------

def test_repository_is_lint_clean():
    """The CI gate in test form: the repo lints clean, examples and
    benchmarks included (so the facade-only A-rules are enforced)."""
    paths = [REPO_ROOT / name for name in DEFAULT_SELF_PATHS
             if (REPO_ROOT / name).exists()]
    assert any(path.name == "benchmarks" for path in paths)
    assert any(path.name == "examples" for path in paths)
    report = lint_paths(paths, root=REPO_ROOT)
    assert report.ok, "\n" + report.format_human()
    assert report.files_checked > 50


#: Golden round counts for dle+collect, captured before the D102 hardening
#: of ``CollectSimulator._final_reconnect`` (max over a generator instead of
#: a hash-ordered list) and identical after it: the trace did not move.
GOLDEN_DLE_COLLECT_ROUNDS = [
    ("hexagon", 3, 0, 460),
    ("holey", 3, 1, 2006),
    ("blob", 4, 2, 973),
]


@pytest.mark.parametrize("family,size,seed,rounds",
                         GOLDEN_DLE_COLLECT_ROUNDS)
def test_collect_golden_rounds_unchanged(family, size, seed, rounds):
    shape = make_shape(family, size, seed=seed)
    record = run_experiment("dle+collect", shape, family=family,
                            size=size, seed=seed)
    assert record.rounds == rounds


# ---------------------------------------------------------------------------
# Strict typing gate
# ---------------------------------------------------------------------------

#: Mirrors ``[tool.mypy] files`` in pyproject.toml.
STRICT_TARGETS = (
    "src/repro/api.py",
    "src/repro/session.py",
    "src/repro/state.py",
    "src/repro/telemetry",
    "src/repro/orchestrator/cache.py",
    "src/repro/orchestrator/fsutil.py",
    "src/repro/orchestrator/transport.py",
    "src/repro/orchestrator/lease.py",
    "src/repro/grid/metrics.py",
    "src/repro/core/dle.py",
    "src/repro/baselines/erosion.py",
    "src/repro/lint",
)


def _strict_files():
    for target in STRICT_TARGETS:
        path = REPO_ROOT / target
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py")
                              if "__pycache__" not in p.parts)
        else:
            yield path


def test_strict_target_list_matches_pyproject():
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for target in STRICT_TARGETS:
        assert f'"{target}"' in text


def test_strict_modules_fully_annotated():
    """Local approximation of ``mypy --strict``'s disallow_untyped_defs:
    every def in the strict-module list annotates its return type and
    every argument (``self``/``cls`` excepted)."""
    problems = []
    for path in _strict_files():
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
            if node.returns is None:
                problems.append(f"{where}: {node.name} lacks a return "
                                f"annotation")
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    problems.append(f"{where}: {node.name}({arg.arg}) "
                                    f"lacks an annotation")
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is None:
                    problems.append(f"{where}: {node.name}(*{arg.arg}) "
                                    f"lacks an annotation")
    assert not problems, "\n".join(problems)


def test_mypy_strict_passes():
    """The real gate, when mypy is installed (CI installs it; the local
    image may not ship it — then the annotation test above still runs)."""
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file",
         str(REPO_ROOT / "pyproject.toml")],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
