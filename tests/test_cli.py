"""Tests for the command-line interface."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, check_inputs, check_workers, main


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


def _corrupt(tmp_path, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "argv, setup, error",
    [
        (["report", "--scale", "-1"], None,
         "--scale must be a positive finite number, got -1.0"),
        (["table1", "--scale", "0"], None,
         "--scale must be a positive finite number, got 0.0"),
        (["metrics", "group-imbalance", "--duration-us", "-5"], None,
         "--duration-us must be a positive integer, got -5"),
        (["table2", "--runs", "0"], None,
         "--runs must be a positive integer, got 0"),
        (["overhead", "--threads", "-1"], None,
         "--threads must be a positive integer, got -1"),
        (["replay", "diff", "missing.trace.jsonl"], None,
         "cannot read recording missing.trace.jsonl"),
        (["replay", "diff", "junk.trace.jsonl"],
         lambda d: _corrupt(d, "junk.trace.jsonl", "not json\n"),
         "junk.trace.jsonl: header is not JSON"),
        (["replay", "diff", "bytes.trace.jsonl"],
         lambda d: (d / "bytes.trace.jsonl").write_bytes(b"\xff\xfe{\n"),
         "bytes.trace.jsonl: not UTF-8 text"),
        (["replay", "diff", "list.trace.jsonl"],
         lambda d: _corrupt(d, "list.trace.jsonl", "[1, 2]\n"),
         "list.trace.jsonl: header is not a JSON object"),
        (["report", "--cache-dir", "blocker/cache"],
         lambda d: _corrupt(d, "blocker", "a file, not a directory"),
         "cannot create cache directory blocker/cache"),
        (["trace", "group-imbalance", "--duration-us", "1000",
          "--out", "missing/t.json"], None,
         "cannot write --out missing/t.json: directory"),
        (["report", "--quick", "--no-cache", "--output", "missing/r.md"],
         None, "cannot write --output missing/r.md: directory"),
        (["report", "--quick", "--no-cache", "--output", "."], None,
         "cannot write --output .: it is a directory"),
        (["report", "--quick", "--no-cache", "--digests-out",
          "missing/d.txt"], None,
         "cannot write --digests-out missing/d.txt: directory"),
        (["report", "--quick", "--no-cache", "--utilization-out",
          "missing/u.json"], None,
         "cannot write --utilization-out missing/u.json: directory"),
        (["slo", "run", "--scale", "0.05", "--no-cache", "--json",
          "missing/s.json"], None,
         "cannot write --json missing/s.json: directory"),
        (["slo", "check", "--scale", "0.05", "--no-cache", "--baseline",
          "base.json", "--json", "missing/s.json"],
         lambda d: _corrupt(d, "base.json", "{}"),
         "cannot write --json missing/s.json: directory"),
        (["lint", "--sarif", "missing/l.sarif"], None,
         "cannot write --sarif missing/l.sarif: directory"),
        (["figure5", "--svg-dir", "blocker/svg"],
         lambda d: _corrupt(d, "blocker", "a file, not a directory"),
         "cannot create --svg-dir blocker/svg"),
        (["replay", "record", "--scale", "0.05", "--out", "blocker/traces"],
         lambda d: _corrupt(d, "blocker", "a file, not a directory"),
         "cannot create --out blocker/traces"),
    ],
    ids=["report-scale-neg", "table1-scale-0", "metrics-duration-neg",
         "table2-runs-0", "overhead-threads-neg",
         "replay-missing", "replay-not-json", "replay-not-utf8",
         "replay-header-not-object",
         "report-cache-dir-uncreatable", "trace-out-missing-dir",
         "report-output-missing-dir", "report-output-is-a-dir",
         "report-digests-out-missing-dir",
         "report-utilization-out-missing-dir", "slo-run-json-missing-dir",
         "slo-check-json-missing-dir", "lint-sarif-missing-dir",
         "figure5-svg-dir-uncreatable", "replay-record-out-uncreatable"],
)
def test_bad_inputs_fail_closed(monkeypatch, tmp_path, capsys, argv, setup,
                                error):
    for name in WORKER_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.chdir(tmp_path)
    if setup is not None:
        setup(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and error in line, line


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--scale", "0.02", "--no-cache"],
        ["metrics", "group-imbalance", "--duration-us", "1"],
        ["slo", "run", "--cache-dir", "fresh/cache"],
        ["report", "--no-cache", "--output", "r.md", "--digests-out",
         "d.txt", "--utilization-out", "u.json"],
        ["trace", "group-imbalance", "--out", "t.json"],
        ["figure2", "--svg-dir", "fresh/svg"],
        ["replay", "record", "--out", "fresh/traces"],
    ],
    ids=["report-scale", "metrics-duration", "slo-cache-dir-creatable",
         "report-outputs-writable", "trace-out-writable",
         "figure2-svg-dir-creatable", "replay-record-out-creatable"],
)
def test_usable_inputs_pass(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert check_inputs(build_parser().parse_args(argv)) is None
    assert list(tmp_path.iterdir()) == []  # checking creates nothing


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


# ------------------------------------------------- generated command lines

#: Boundary values for every numeric option and environment variable.
NUMBERS = ("-1", "0", "-0", "nan", "inf", "-inf", "1e309", "abc", "",
           "0.5", "2")
#: Boundary paths, relative to a scratch directory that holds one
#: regular file and one corrupt recording: a missing path, the file used
#: as a directory, the file itself, the recording, an existing directory
#: and a path that can be created.
PATHS = ("missing/x", "afile/x", "afile", "corrupt.trace.jsonl", ".",
         "fresh/dir", "")
#: Each subcommand's argv prefix and its options, as (flag, kind):
#: ``num`` and ``path`` draw from the tuples above, ``bool`` is a bare
#: switch, ``word`` a short identifier and ``paths`` one to three paths.
SUBCOMMANDS = {
    ("bugs",): (),
    ("topology",): (),
    ("table1",): (("--scale", "num"), ("--apps", "word"), ("--obs", "bool")),
    ("table2",): (("--scale", "num"), ("--runs", "num")),
    ("table3",): (("--scale", "num"), ("--apps", "word")),
    ("figure2",): (("--scale", "num"), ("--svg-dir", "path")),
    ("figure3",): (("--scale", "num"), ("--svg-dir", "path")),
    ("figure5",): (("--svg-dir", "path"),),
    ("overhead",): (("--threads", "num"),),
    ("report",): (
        ("--scale", "num"), ("--output", "path"), ("--quick", "bool"),
        ("-j", "num"), ("--no-cache", "bool"), ("--cache-dir", "path"),
        ("--utilization-out", "path"), ("--digests-out", "path"),
    ),
    ("lint",): (("", "paths"), ("--format", "word"), ("--sarif", "path")),
    ("slo", "run"): (
        ("--registry", "paths"), ("--scenario", "word"), ("--scale", "num"),
        ("-j", "num"), ("--no-cache", "bool"), ("--cache-dir", "path"),
        ("--json", "path"), ("--progress", "bool"),
    ),
    ("slo", "check"): (
        ("--registry", "paths"), ("--scale", "num"), ("-j", "num"),
        ("--no-cache", "bool"), ("--cache-dir", "path"),
        ("--baseline", "path"), ("--json", "path"),
    ),
    ("replay", "record"): (
        ("--registry", "paths"), ("--scale", "num"), ("--out", "path"),
    ),
    ("replay", "diff"): (("", "paths"),),
    ("demo", "group-imbalance"): (("--sanitize", "bool"),),
    ("demo", "no-such-bug"): (),
    ("trace", "missing-domains"): (
        ("--variant", "word"), ("--duration-us", "num"), ("--out", "path"),
    ),
    ("metrics", "overload-on-wakeup"): (("--duration-us", "num"),),
}
ENV = {
    "REPRO_JOBS": NUMBERS,
    "REPRO_SCALE": NUMBERS,
    "REPRO_START_METHOD": ("", "fork", "spawn", "bogus"),
    "REPRO_CACHE_DIR": PATHS,
}


def _values(kind):
    if kind == "num":
        return st.sampled_from(NUMBERS).map(lambda v: [v])
    if kind == "path":
        return st.sampled_from(PATHS).map(lambda v: [v])
    if kind == "paths":
        return st.lists(st.sampled_from(PATHS), min_size=1, max_size=3)
    if kind == "word":
        return st.sampled_from(["cg", "buggy", "json", "x"]).map(
            lambda v: [v]
        )
    return st.just([])


def _command_lines():
    """(argv, environment) pairs over every subcommand."""

    def options(prefix):
        picks = [
            st.one_of(st.just([]), _values(kind).map(
                lambda vals, flag=flag: ([flag] if flag else []) + vals
            ))
            for flag, kind in SUBCOMMANDS[prefix]
        ]
        return st.tuples(*picks).map(
            lambda parts: list(prefix) + [a for part in parts for a in part]
        )

    argv = st.sampled_from(sorted(SUBCOMMANDS)).flatmap(options)
    env = st.fixed_dictionaries({
        name: st.one_of(st.none(), st.sampled_from(values))
        for name, values in ENV.items()
    })
    return st.tuples(argv, env)


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_generated_command_lines_fail_closed(monkeypatch, tmp_path):
    """Every generated command line either is an argparse error (exit 2)
    or passes both checks, each returning None or a one-line message;
    nothing else raises and nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("a regular file", encoding="utf-8")
    (tmp_path / "corrupt.trace.jsonl").write_bytes(b"\xff\xfe{\n")
    before = _tree(tmp_path)
    parser = build_parser()

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_command_lines())
    def check(case):
        argv, env = case
        with pytest.MonkeyPatch.context() as mp:
            for name, value in env.items():
                if value is None:
                    mp.delenv(name, raising=False)
                else:
                    mp.setenv(name, value)
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    args = parser.parse_args(argv)
            except SystemExit as exc:
                assert exc.code == 2, (argv, exc.code)
                return
            for message in (check_workers(args), check_inputs(args)):
                assert message is None or (
                    isinstance(message, str) and message
                    and "\n" not in message
                ), (argv, env, message)
        assert _tree(tmp_path) == before, (argv, env)

    check()
