"""Rule-battery tests: each fixture trips exactly its rule, at exact lines.

The fixtures in ``tests/lint_fixtures/`` are deliberately-broken snippets
(no ``test_`` prefix, so pytest never collects them); each test runs the
engine over one fixture and asserts the precise ``(rule, line)`` set.
"""

import os

from repro.analysis import LintConfig, LintEngine, default_rules

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


def run_fixture(*names, config=None):
    engine = LintEngine(config or LintConfig(), default_rules())
    return engine.run([os.path.join(FIXTURES, name) for name in names])


def pairs(result):
    return [(v.rule, v.line) for v in result.violations]


def test_clean_fixture_is_clean():
    result = run_fixture("clean_ok.py")
    assert result.ok
    assert result.violations == []
    assert result.files_scanned == 1
    assert result.rules_run == ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006")


def test_rl001_wallclock_and_global_rng():
    result = run_fixture("rl001_bad.py")
    assert pairs(result) == [
        ("RL001", 3),   # import random
        ("RL001", 11),  # time.time()
        ("RL001", 15),  # datetime.now() via from-import alias
        ("RL001", 16),  # random.choice()
        ("RL001", 20),  # np.random.normal() via import alias
    ]
    messages = [v.message for v in result.violations]
    assert "time.time()" in messages[1]
    assert "datetime.datetime.now()" in messages[2]
    assert "hidden global RandomState" in messages[4]


def test_rl001_respects_wallclock_allowlist():
    config = LintConfig(allow_wallclock=("rl001_bad",), allow_global_random=("*",))
    result = run_fixture("rl001_bad.py", config=config)
    assert result.ok, pairs(result)


def test_rl002_wire_boundary():
    result = run_fixture("rl002_bad.py")
    assert pairs(result) == [
        ("RL002", 8),   # SVC_RET_NEVER_SENT declared but unused
        ("RL002", 13),  # raise escaping handle()
        ("RL002", 16),  # bare except
        ("RL002", 17),  # SVC_RET_MYSTERY used but undeclared
    ]
    messages = {v.line: v.message for v in result.violations}
    assert "'SVC_RET_NEVER_SENT' (FixtureCodes.UNUSED)" in messages[8]
    assert "dispatch entry point handle()" in messages[13]
    assert "bare 'except:'" in messages[16]
    assert "'SVC_RET_MYSTERY' is not declared" in messages[17]


def test_rl003_hot_path_transitive():
    result = run_fixture("rl003_bad.py")
    assert pairs(result) == [
        ("RL003", 19),  # @property read in the callee _tally
        ("RL003", 21),  # ListComp inside the loop
        ("RL003", 22),  # self.cfg dereferenced 3x in one loop body
    ]
    messages = {v.line: v.message for v in result.violations}
    # All three sit in _tally, one call below the tagged add(): the
    # report must attribute them to the hot root.
    for message in messages.values():
        assert "reached from hot 'rl003_bad.Accumulator.add'" in message
    assert "@property 'self.size'" in messages[19]
    assert "'self.cfg' dereferenced 3x" in messages[22]


def test_rl003_threshold_is_configurable():
    config = LintConfig(hot_rederef_threshold=4)
    result = run_fixture("rl003_bad.py", config=config)
    assert pairs(result) == [("RL003", 19), ("RL003", 21)]


def test_rl003_call_depth_zero_stops_at_the_tagged_function():
    config = LintConfig(hot_call_depth=0)
    result = run_fixture("rl003_bad.py", config=config)
    assert result.ok, pairs(result)  # all violations live one call deep


def test_rl004_fork_safety():
    result = run_fixture("rl004_bad.py")
    assert pairs(result) == [
        ("RL004", 3),   # lowercase mutable module global
        ("RL004", 9),   # subscript-store into it from a function
        ("RL004", 13),  # global-statement rebinding
        ("RL004", 18),  # post-import mutation of an ALL_CAPS constant table
    ]


def test_rl004_registry_allowlist():
    config = LintConfig(
        registries=("rl004_bad:cache", "rl004_bad:_counter", "rl004_bad:LIMITS")
    )
    result = run_fixture("rl004_bad.py", config=config)
    assert result.ok, pairs(result)


def test_rl005_serialization_sinks():
    result = run_fixture("rl005_bad.py")
    assert [(v.rule, v.line, v.col) for v in result.violations] == [
        ("RL005", 7, 47),  # set literal into append_record
        ("RL005", 8, 38),  # tuple into append_record
        ("RL005", 9, 31),  # bytes into json.dumps
        ("RL005", 9, 39),  # non-string dict key into json.dumps
    ]
    messages = [v.message for v in result.violations]
    assert "a set is not JSON-serialisable" in messages[0]
    assert "decodes back as a list" in messages[1]
    assert "bytes are not JSON-serialisable" in messages[2]
    assert "non-string key 7" in messages[3]


def test_rl006_dead_code():
    result = run_fixture("rl006_bad.py")
    assert [(v.rule, v.line, v.col) for v in result.violations] == [
        ("RL006", 5, 0),  # import os.path: nothing uses os
        ("RL006", 7, 0),  # Dict: nothing uses it
        ("RL006", 24, 0),  # orphan_function: nothing names it
        ("RL006", 34, 4),  # Ledger.orphan_method: nothing names it
    ]
    messages = [v.message for v in result.violations]
    assert messages[0].startswith("import of 'os' is never used in its module")
    assert messages[1].startswith("import of 'Dict' is never used in its module")
    assert messages[2].startswith("'orphan_function' is never named")
    assert messages[3].startswith("'Ledger.orphan_method' is never named")
    # The __future__ import is exempt, encode is re-exported through
    # __all__, TYPE_CHECKING and List are used, and Optional and Decimal are
    # used in a quoted annotation.  Ledger.balance is called,
    # registered_probe is registered by a decorator, _cmd_fixture_ping is a
    # command handler by prefix, and kept_by_pragma carries the pragma.
    assert [(v.rule, v.line) for v in result.suppressed] == [("RL006", 48)]


def test_rl006_counts_a_caller_in_another_linted_file(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from rl006_bad import orphan_function\n\n"
        "def use(ledger):\n    return orphan_function(), ledger.orphan_method()\n"
    )
    result = LintEngine(LintConfig(select=("RL006",)), default_rules()).run(
        [os.path.join(FIXTURES, "rl006_bad.py"), str(caller)]
    )
    assert [v.message.split("'")[1] for v in result.violations] == ["os", "Dict", "use"]


def test_rl006_exempts_imports_in_package_init(tmp_path):
    """A package ``__init__.py`` imports to export; a module that imports
    the same names without using them is reported."""
    text = "import os\nfrom json import dumps\n"
    (tmp_path / "__init__.py").write_text(text)
    (tmp_path / "module.py").write_text(text)
    result = LintEngine(LintConfig(select=("RL006",)), default_rules()).run([str(tmp_path)])
    found = [
        (os.path.basename(v.path), v.line, v.message.split("'")[1]) for v in result.violations
    ]
    assert found == [("module.py", 1, "os"), ("module.py", 2, "dumps")]


def test_pragmas_suppress_but_are_reported():
    result = run_fixture("pragma_ok.py")
    assert result.ok
    assert sorted({v.rule for v in result.suppressed}) == ["RL001", "RL004"]
    assert len(result.suppressed) == 2


def test_select_limits_the_battery():
    config = LintConfig(select=("RL001",))
    result = run_fixture("rl001_bad.py", "rl004_bad.py", config=config)
    assert result.rules_run == ("RL001",)
    assert {v.rule for v in result.violations} == {"RL001"}


def test_ignore_drops_a_rule():
    config = LintConfig(ignore=("RL004",))
    result = run_fixture("rl004_bad.py", config=config)
    assert result.ok
    assert "RL004" not in result.rules_run


def test_whole_fixture_directory_in_one_run():
    result = run_fixture("")  # the directory itself
    by_rule = {}
    for violation in result.violations:
        by_rule.setdefault(violation.rule, 0)
        by_rule[violation.rule] += 1
    assert by_rule == {
        "RL001": 5, "RL002": 4, "RL003": 3, "RL004": 4, "RL005": 4, "RL006": 4
    }
    assert result.files_scanned == 8
