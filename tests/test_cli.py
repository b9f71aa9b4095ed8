"""Tests for the command-line interface."""

import hashlib

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
    ["--scales", "2.5"],
])
def test_sweep_spec_errors_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--quiet"] + argv)
    assert str(exc.value).startswith("repro sweep: ")


@pytest.mark.parametrize("command", ["sweep", "check"])
@pytest.mark.parametrize("workers", ["0", "-3", "2"])
def test_workers_below_one_are_usage_errors(command, workers, tmp_path,
                                            capsys):
    # The fan-out is fixed by one policy, so --workers is gone: any value,
    # below one or not, is a usage error.
    argv = ["sweep", "--quiet"] if command == "sweep" else [
        "check", "--cache-dir", str(tmp_path), str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", workers])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--workload", "vpic", "--machine", "testbed", "--ranks", "0"],
    ["profile", "--workload", "vpic", "--machine", "testbed",
     "--ranks", "0"],
    ["cache", "--ranks", "0"],
    ["cache", "--tiers", "bogus"],
    ["sched", "--jobs", "0"],
    ["sched", "--load", "0"],
    ["sched", "--fault-rate", "-1"],
])
def test_single_run_errors_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value)
    assert message.startswith(f"repro {argv[0]}: ")
    assert "\n" not in message


#: sha256 of stdout for each single-run command; any change to what
#: these commands simulate or print shows up here.
PINNED_STDOUT = {
    "run --workload vpic --machine testbed --mode async --ranks 8":
        "3482126d53ff0522a97647ca4e8b87dc5ab621570b8b019be43dc1785f0b7f5c",
    "run --workload bdcats --machine summit --ranks 48":
        "7f17d6d5847f250fa759fa90129b034cdc26e2b2e947006b1080d24d77c06858",
    "profile --workload castro --machine testbed --mode async --ranks 12 "
    "--stats":
        "c8ced85026689f1f44feb3de840d0df4be82008439aceb9cc5a2d2e26876981d",
    "cache --workload bdcats --machine summit --ranks 8":
        "c814cbf974edccdd60a3ab87d5db5f6a4b1e6d5fa4767b83d1764464571fc69c",
    "cache --workload bdcats --machine summit --ranks 8 --prefetch off "
    "--tiers testbed":
        "513068e34dac10f3a2c1dbe6b823c6f7aee872dfce38c4917ea852ddc0b136c9",
    "sched --jobs 5 --load 5 --fault-rate 10 --fault-seed 3 "
    "--size-scale 2 --no-checkpoint":
        "07b246625b4690da8fedcae46917f0bf9a258cd0a6ed95bcce6c0eb45187d8d6",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_single_run_stdout_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]
