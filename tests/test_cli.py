"""Command-line interface: exit codes, formats, output destinations."""

import argparse
import json
import subprocess
import sys

import pytest

from modcat.cli import build_parser, main
from modcat.suites import SUITE_ORDER, SUITES, Report, SuiteConfig


TINY = ["--modulus", "4", "--max-order", "4", "--max-kernel", "2", "--span", "1"]


def test_passing_run_exits_zero(capsys):
    assert main(["axioms", *TINY]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verification report")
    assert "[ok]" in out


def test_all_subcommand_runs_every_suite(capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == (*SUITE_ORDER, "all")
    helps = {action.dest: action.help for action in sub._choices_actions}
    assert helps == {name: help_ for name, (_, help_) in SUITES.items()} | {"all": "run every suite"}
    assert main(["all", *TINY]) == 0
    out = capsys.readouterr().out
    for name in ("axioms", "prop1", "flat-equiv", "enough-pi", "complexes"):
        assert name in out


def test_json_format(capsys):
    assert main(["prop1", *TINY, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["moduli"] == [4]
    assert payload["suites"][0]["name"] == "prop1"
    assert payload["suites"][0]["failed"] == 0


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    assert main(["axioms", *TINY, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().startswith("verification report")


def test_unwritable_out_path(monkeypatch, tmp_path, capsys):
    def never_run_suite(config, names):
        raise AssertionError("run_suite ran although --out cannot be written")

    monkeypatch.setattr("modcat.cli.run_suite", never_run_suite)
    missing = tmp_path / "no-such-dir" / "r.txt"
    assert main(["prop1", *TINY, "--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # The path is itself a directory, which open would refuse after the run.
    assert main(["prop1", *TINY, "--out", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err
    # An empty path names no file; it must not fall back to stdout.
    assert main(["prop1", *TINY, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    monkeypatch.undo()

    def failing_open(*args, **kwargs):
        raise OSError("disk full")

    # A write that fails after the run still exits 3.
    monkeypatch.setattr("modcat.cli.open", failing_open, raising=False)
    assert main(["prop1", *TINY, "--out", str(tmp_path / "r.txt")]) == 3
    assert "cannot write the report: disk full" in capsys.readouterr().err


def test_repeated_modulus_flag(capsys):
    code = main(
        ["enough-pi", "--modulus", "4", "--modulus", "9", "--max-order", "4",
         "--max-kernel", "2", "--span", "1", "--format", "json"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["config"]["moduli"] == [4, 9]


def test_sample_without_seed_is_a_config_error(capsys):
    assert main(["prop1", *TINY, "--mode", "sample"]) == 2
    assert "seed" in capsys.readouterr().err


def test_bad_modulus_is_a_config_error(capsys):
    assert main(["axioms", "--modulus", "1"]) == 2
    assert "modulus" in capsys.readouterr().err


def test_too_small_kernel_bound_is_a_config_error(capsys):
    assert main(["flat-equiv", "--modulus", "9", "--max-order", "8", "--max-kernel", "2"]) == 2
    err = capsys.readouterr().err
    assert "modulus 9" in err and "at least 3" in err


@pytest.mark.parametrize("flag,bound", [("--max-order", "max_module_order"),
                                        ("--max-kernel", "max_kernel_order")])
def test_order_bound_of_zero_is_a_config_error(flag, bound, capsys):
    # Without the check, axioms, prop1 and enough-pi ran 0 checks and exited 0.
    # At the squarefree modulus 6 flat-equiv accepts a kernel bound of 0.
    assert main(["all", "--modulus", "6", "--span", "1", flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bound} must be >= 1" in captured.err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--format", "yaml"])
    assert exc.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])  # a subcommand is required
    assert exc.value.code == 2


def test_crash_exits_three_with_traceback(monkeypatch, capsys):
    def crashing_run_suite(config, names):
        raise RuntimeError("boom inside a checker")

    monkeypatch.setattr("modcat.cli.run_suite", crashing_run_suite)
    assert main(["axioms", *TINY]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "RuntimeError: boom inside a checker" in captured.err


def test_recorded_crash_writes_the_report_and_exits_three(monkeypatch, tmp_path, capsys):
    def raising_pullback(g, h):
        raise RuntimeError("pullback exploded")

    monkeypatch.setattr("modcat.suites.pullback", raising_pullback)
    path = tmp_path / "report.json"
    assert main(["all", *TINY, "--format", "json", "--out", str(path)]) == 3
    assert capsys.readouterr().out == ""
    payload = json.loads(path.read_text())
    suites = {s["name"]: s for s in payload["suites"]}
    assert [ce["check"] for ce in suites["axioms"]["counterexamples"]] == ["crash"]
    for name in ("prop1", "flat-equiv", "enough-pi", "complexes"):
        assert suites[name]["checked"] > 0 and suites[name]["failed"] == 0


def test_no_flags_give_the_default_config(monkeypatch, capsys):
    seen = []

    def capturing_run_suite(config, names):
        seen.append(config)
        return Report(config, [], 0)

    monkeypatch.setattr("modcat.cli.run_suite", capturing_run_suite)
    assert main(["prop1"]) == 0
    assert seen == [SuiteConfig()]


def test_console_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "modcat.cli", "axioms", *TINY],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("verification report")
