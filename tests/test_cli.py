"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, check_workers, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_build_parser_does_not_resolve_the_version(monkeypatch):
    # The metadata lookup costs tens of milliseconds in a fresh process;
    # only ``--version`` needs it.
    import importlib.metadata

    calls = []
    monkeypatch.setattr(
        importlib.metadata, "version", lambda name: calls.append(name)
    )
    build_parser()
    assert calls == []


def test_version_flag_prints_the_package_version(capsys):
    from repro.cli import _version

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"repro {_version()}\n"


def test_bugs_command(capsys):
    assert main(["bugs"]) == 0
    out = capsys.readouterr().out
    assert "Group Imbalance" in out
    assert "138x" in out


def test_topology_command(capsys):
    assert main(["topology"]) == 0
    out = capsys.readouterr().out
    assert "AMD Bulldozer" in out
    assert "one hop -> [1, 2, 4, 6]" in out
    assert "NUMA-2hop" in out


def test_table1_command(capsys):
    assert main(["table1", "--scale", "0.05", "--apps", "ep"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "ep" in out


def test_table3_command(capsys):
    assert main(["table3", "--scale", "0.05", "--apps", "ep"]) == 0
    assert "Table 3" in capsys.readouterr().out


def test_table2_command(capsys):
    assert main(["table2", "--scale", "0.1", "--runs", "1"]) == 0
    assert "TPC-H" in capsys.readouterr().out


def test_figure5_command(capsys, tmp_path):
    assert main(["figure5", "--svg-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "coverage" in out
    assert list(tmp_path.glob("*.svg"))


def test_figure2_command(capsys):
    assert main(["figure2", "--scale", "0.05"]) == 0
    assert "Figure 2a" in capsys.readouterr().out


def test_figure3_command(capsys):
    assert main(["figure3", "--scale", "0.2"]) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_report_command(tmp_path, capsys):
    out_file = tmp_path / "report.md"
    cache_dir = str(tmp_path / "cache")
    assert main([
        "report", "--scale", "0.03", "--output", str(out_file),
        "--jobs", "2", "--cache-dir", cache_dir,
        "--digests-out", str(tmp_path / "d1.txt"),
        "--utilization-out", str(tmp_path / "util.json"),
    ]) == 0
    text = out_file.read_text()
    assert "# wastedcores reproduction report" in text
    for section in ("## Machine", "## Table 1", "## Table 2", "## Table 3",
                    "## Table 4", "## Figure 2", "## Figure 3",
                    "## Figure 5"):
        assert section in text
    util = json.loads((tmp_path / "util.json").read_text())
    assert util["jobs"] == 2

    # A serial rerun answers from the cache and is byte-identical.
    out_serial = tmp_path / "report-serial.md"
    assert main([
        "report", "--scale", "0.03", "--output", str(out_serial),
        "--jobs", "1", "--cache-dir", cache_dir,
        "--digests-out", str(tmp_path / "d2.txt"),
    ]) == 0
    assert out_serial.read_text() == text
    assert (tmp_path / "d2.txt").read_text() == (
        tmp_path / "d1.txt"
    ).read_text()


def test_report_command_no_cache(tmp_path, capsys):
    out_file = tmp_path / "report.md"
    assert main([
        "report", "--scale", "0.03", "--output", str(out_file), "--no-cache",
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    assert not (tmp_path / "cache").exists()


def test_overhead_command(capsys):
    assert main(["overhead", "--threads", "16"]) == 0
    assert "overhead" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bug",
    ["group-imbalance", "group-construction", "overload-on-wakeup",
     "missing-domains"],
)
def test_demo_commands(capsys, bug):
    assert main(["demo", bug]) == 0
    out = capsys.readouterr().out
    assert f"{bug} [buggy]" in out
    assert f"{bug} [fixed]" in out
    assert "sanity checker" in out


def test_demo_rejects_unknown_bug():
    with pytest.raises(SystemExit):
        main(["demo", "nonexistent"])


@pytest.mark.parametrize(
    "option",
    [["--baseline", "lint-baseline.json"], ["--write-baseline"], ["-j", "2"],
     ["--jobs", "2"]],
    ids=["baseline", "write-baseline", "j", "jobs"],
)
def test_lint_rejects_removed_options(option):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["lint", *option])
    assert exc.value.code == 2


WORKER_ENV = ("REPRO_JOBS", "REPRO_START_METHOD")


@pytest.mark.parametrize(
    "argv, env, error",
    [
        (["report", "-j", "-1"], {}, "jobs must be >= 0, got -1"),
        (["report"], {"REPRO_JOBS": "-3"}, "REPRO_JOBS must be >= 0, got -3"),
        (["report", "-j2"], {"REPRO_START_METHOD": "bogus"},
         "start method 'bogus' not available"),
        (["slo", "run", "-j", "-1"], {}, "jobs must be >= 0, got -1"),
        (["table1"], {"REPRO_JOBS": "many"},
         "REPRO_JOBS must be an integer, got 'many'"),
    ],
    ids=["report-j-1", "env-jobs-3", "env-start-bogus", "slo-j-1",
         "table1-env-jobs-many"],
)
def test_bad_worker_settings_fail_closed(monkeypatch, capsys, argv, env,
                                         error):
    for name in WORKER_ENV:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and error in line, line


@pytest.mark.parametrize(
    "argv, env",
    [
        (["report", "-j", "0"], {}),
        (["report"], {"REPRO_JOBS": "2", "REPRO_START_METHOD": "spawn"}),
        (["bugs"], {"REPRO_JOBS": "-3"}),  # runs no trials
        (["lint"], {"REPRO_START_METHOD": "bogus"}),
    ],
    ids=["report-j0", "env-valid", "bugs-ignores-env", "lint-ignores-env"],
)
def test_usable_worker_settings_pass(monkeypatch, argv, env):
    for name in WORKER_ENV:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert check_workers(build_parser().parse_args(argv)) is None
