"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_prints_figures(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for fid in ["fig3a", "fig4d", "fig8", "mb-memcpy"]:
        assert fid in out


def test_unknown_figure_id_rejected():
    with pytest.raises(SystemExit):
        main(["figures", "fig99"])


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "doom", "--machine", "testbed"])


def test_run_vpic_on_testbed(capsys):
    code = main(["run", "--workload", "vpic", "--machine", "testbed",
                 "--mode", "sync", "--ranks", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "peak bandwidth" in out
    assert "ranks / nodes   8 / 2" in out


def test_run_read_workload_with_prepopulate(capsys):
    code = main(["run", "--workload", "bdcats", "--machine", "testbed",
                 "--mode", "async", "--ranks", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bdcats (read)" in out


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["figures", "fig3a", "--profile", "quick"])
    assert args.ids == ["fig3a"]
    assert args.profile == "quick"
    with pytest.raises(SystemExit):
        parser.parse_args(["figures", "--profile", "warp"])


def test_figures_writes_output_files(tmp_path, capsys):
    code = main(["figures", "mb-memcpy", "--out", str(tmp_path)])
    assert code == 0
    saved = tmp_path / "mb-memcpy.txt"
    assert saved.exists()
    assert "memcpy bandwidth" in saved.read_text()


def test_profile_command(capsys):
    code = main(["profile", "--workload", "vpic", "--machine", "testbed",
                 "--mode", "async", "--ranks", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "I/O profile" in out
    assert "I/O-blocked fraction" in out
    assert "async" in out


def test_list_advertises_only_runnable_sections(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fault scenarios" not in out
    assert "--cache none|off|write|on" in out


@pytest.mark.parametrize("argv", [
    ["--kind", "sched", "--faults", "-1"],
    ["--kind", "sched", "--cache", "on"],
])
def test_sweep_spec_errors_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--quiet"] + argv)
    assert str(exc.value).startswith("repro sweep: ")


@pytest.mark.parametrize("command", ["sweep", "check"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_usage_errors(command, workers, tmp_path):
    argv = ["sweep", "--quiet"] if command == "sweep" else [
        "check", "--cache-dir", str(tmp_path), str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", workers])
    assert str(exc.value) == \
        f"repro {command}: workers must be >= 1, got {workers}"
