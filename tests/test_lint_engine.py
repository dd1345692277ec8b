"""Engine-layer tests: pragmas, baseline, config, reporters, CLI, smoke.

Ends with the two gate tests CI leans on: the shipped ``src/`` tree lints
clean against the committed config/baseline, and an injected wall-clock
read into a copy of ``sim/engine.py`` is caught at the exact line.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import (
    Baseline,
    LintConfig,
    LintEngine,
    default_rules,
    render_json,
    render_text,
)
from repro.analysis.__main__ import main
from repro.analysis.engine import SourceFile, module_name_for

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint_fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def lint_with_repo_config(paths):
    """Lint ``paths`` under the repo's ``setup.cfg`` and committed baseline."""
    config = LintConfig.from_file(os.path.join(REPO, "setup.cfg"))
    baseline = Baseline.load(os.path.join(REPO, config.baseline))
    engine = LintEngine(config, default_rules())
    return engine.run(list(paths), baseline_fingerprints=baseline.fingerprints())


def no_config(tmp_path):
    """A --config path that resolves to pure in-code defaults."""
    return str(tmp_path / "absent.cfg")


# ---------------------------------------------------------------------------
# pragma parsing
# ---------------------------------------------------------------------------


def test_pragma_parsing():
    source = SourceFile(
        "x.py",
        textwrap.dedent(
            """\
            import json  # repro-lint: disable=RL001,RL004
            VALUE = 1  # repro-lint: disable=all
            # repro-lint: disable-file=RL005
            # repro-lint: hot
            def fast():
                pass


            def slow():
                pass
            """
        ),
    )
    assert source.line_disables[1] == {"RL001", "RL004"}
    assert source.is_suppressed("RL001", 1)
    assert source.is_suppressed("rl004", 1)  # case-insensitive
    assert not source.is_suppressed("RL002", 1)
    assert source.is_suppressed("RL003", 2)  # disable=all covers every rule
    assert source.is_suppressed("RL005", 99)  # disable-file covers every line
    assert [fn.name for fn in source.hot_functions()] == ["fast"]


def test_hot_tag_above_decorator():
    source = SourceFile(
        "y.py",
        "# repro-lint: hot\n@staticmethod\ndef fast():\n    pass\n",
    )
    assert [fn.name for fn in source.hot_functions()] == ["fast"]


def test_pragma_hash_inside_string_is_not_a_pragma():
    source = SourceFile(
        "z.py",
        'TEXT = "# repro-lint: disable=RL001"\n',
    )
    assert source.line_disables == {}
    assert source.file_disables == set()


def test_module_name_walks_init_parents():
    path = os.path.join(REPO, "src", "repro", "sim", "engine.py")
    assert module_name_for(path) == "repro.sim.engine"
    assert module_name_for(fixture("clean_ok.py")) == "clean_ok"


# ---------------------------------------------------------------------------
# baseline round-trip
# ---------------------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    engine = LintEngine(LintConfig(), default_rules())
    first = engine.run([fixture("rl001_bad.py")])
    assert len(first.violations) == 5

    path = tmp_path / "baseline.json"
    Baseline.from_violations(first.violations).write(str(path))
    loaded = Baseline.load(str(path))
    assert sum(loaded.fingerprints().values()) == 5

    second = engine.run(
        [fixture("rl001_bad.py")], baseline_fingerprints=loaded.fingerprints()
    )
    assert second.ok
    assert len(second.baselined) == 5 and not second.violations


def test_baseline_missing_file_is_empty(tmp_path):
    baseline = Baseline.load(str(tmp_path / "nope.json"))
    assert baseline.fingerprints() == {}


def test_baseline_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(ValueError):
        Baseline.load(str(path))


def test_committed_baseline_is_empty():
    baseline = Baseline.load(os.path.join(REPO, "lint-baseline.json"))
    assert baseline.fingerprints() == {}, (
        "policy: new findings get inline pragmas with justification, "
        "not baseline entries"
    )


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_from_ini(tmp_path):
    path = tmp_path / "setup.cfg"
    path.write_text(
        textwrap.dedent(
            """\
            [repro.analysis]
            select = RL001, RL004
            hot_rederef_threshold = 5
            registries =
                pkg.mod:REG
                pkg.mod:_SLOT
            allow_wallclock = pkg.cli.*
            """
        )
    )
    config = LintConfig.from_file(str(path))
    assert config.select == ("RL001", "RL004")
    assert config.hot_rederef_threshold == 5
    assert config.is_registry("pkg.mod", "REG")
    assert config.is_registry("pkg.mod", "_SLOT")
    assert not config.is_registry("pkg.other", "REG")
    assert config.wallclock_allowed("pkg.cli.run")
    assert not config.wallclock_allowed("pkg.core")


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "setup.cfg"
    path.write_text("[repro.analysis]\nbogus_key = 1\n")
    with pytest.raises(ValueError, match="bogus_key"):
        LintConfig.from_file(str(path))


def test_repo_setup_cfg_section_parses():
    config = LintConfig.from_file(os.path.join(REPO, "setup.cfg"))
    assert config.select == ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006")
    assert config.is_registry("repro.faults.injector", "_ACTIVE")
    assert config.baseline == "lint-baseline.json"


# ---------------------------------------------------------------------------
# reporters
# ---------------------------------------------------------------------------


def test_reporters_text_and_json():
    result = lint_with_repo_config([fixture("rl001_bad.py")])
    text = render_text(result)
    assert "rl001_bad.py:11:11 RL001" in text
    assert "5 violation(s) (RL001: 5)" in text

    payload = json.loads(render_json(result))
    assert payload["ok"] is False
    assert payload["counts"]["active"] == 5
    assert payload["counts"]["by_rule"] == {"RL001": 5}
    assert payload["violations"][0]["rule"] == "RL001"
    assert payload["violations"][0]["line"] == 3
    assert all(v["fingerprint"] for v in payload["violations"])


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------


def test_cli_exit_0_on_clean(tmp_path, capsys):
    code = main([fixture("clean_ok.py"), "--config", no_config(tmp_path), "--no-baseline"])
    assert code == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_cli_exit_1_on_violations(tmp_path, capsys):
    code = main([fixture("rl001_bad.py"), "--config", no_config(tmp_path), "--no-baseline"])
    assert code == 1
    assert "RL001" in capsys.readouterr().out


def test_cli_exit_2_on_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[repro.analysis]\nbogus_key = 1\n")
    code = main([fixture("clean_ok.py"), "--config", str(bad)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_exit_2_on_unknown_rule_id(tmp_path, capsys):
    code = main(
        [fixture("clean_ok.py"), "--config", no_config(tmp_path), "--select", "RL999"]
    )
    assert code == 2
    assert "RL999" in capsys.readouterr().err


def test_cli_update_baseline_round_trip(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    common = [fixture("rl001_bad.py"), "--config", no_config(tmp_path)]
    assert main(common + ["--baseline", baseline, "--update-baseline"]) == 0
    assert "5 accepted finding(s)" in capsys.readouterr().out
    # Accepted findings no longer fail the run...
    assert main(common + ["--baseline", baseline]) == 0
    # ...but --no-baseline still shows the debt.
    assert main(common + ["--no-baseline"]) == 1
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
        assert rule_id in out


# ---------------------------------------------------------------------------
# gate tests: shipped tree is clean; injected violations are caught
# ---------------------------------------------------------------------------


def test_shipped_src_tree_lints_clean():
    config = LintConfig.from_file(os.path.join(REPO, "setup.cfg"))
    engine = LintEngine(config, default_rules())
    baseline = Baseline.load(os.path.join(REPO, "lint-baseline.json"))
    result = engine.run(
        [os.path.join(REPO, "src")], baseline_fingerprints=baseline.fingerprints()
    )
    assert result.ok, "shipped tree has lint violations:\n" + "\n".join(
        violation.render() for violation in result.violations
    )


def test_injected_wallclock_read_is_caught(tmp_path):
    source = os.path.join(REPO, "src", "repro", "sim", "engine.py")
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    mutated = text + "\n\ndef _smoke_now():\n    import time\n    return time.time()\n"
    target = tmp_path / "engine.py"
    target.write_text(mutated)

    result = lint_with_repo_config([str(target)])
    assert not result.ok
    expected_line = len(mutated.splitlines())  # the injected read is the last line
    hits = [
        violation
        for violation in result.violations
        if violation.rule == "RL001" and violation.line == expected_line
    ]
    assert hits, [violation.render() for violation in result.violations]
    assert "time.time()" in hits[0].message
    assert hits[0].path.endswith("engine.py")
