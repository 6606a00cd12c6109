import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dug.cli
from dug import (
    DEFAULT_STATE_CAP,
    Adjust,
    HanoiParams,
    MovePath,
    build_explicit,
    load_edge_list,
    parse_path,
    save_edge_list,
    solve,
    verify_path,
)
from dug.cli import build_parser, cli_dispatch

from conftest import traced_peak


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_analyze(tmp_path, capsys):
    out = str(tmp_path / "g.dug")
    code, stdout, _ = run(capsys, "generate", "--r", "4", "--k", "2", "--proper", "--out", out)
    assert code == 0
    assert "n=16" in stdout
    g = load_edge_list(out)
    assert g.n == 16 and g.m == 30

    code, stdout, _ = run(capsys, "analyze", "--in", out)
    assert code == 0
    assert "d 3" in stdout
    assert "epsilon 9/16" in stdout


def test_analyze_json_deterministic(tmp_path, capsys):
    out = str(tmp_path / "g.dug")
    run(capsys, "generate", "--r", "5", "--k", "2", "--proper", "--out", out)
    code, first, _ = run(capsys, "analyze", "--in", out, "--json")
    code2, second, _ = run(capsys, "analyze", "--in", out, "--json")
    assert code == code2 == 0
    assert first == second
    payload = json.loads(first)
    assert payload["d"] == 3
    assert payload["epsilon"]["fraction"] == "12/25"
    # the scan has no thread knob to vary any more
    assert run(capsys, "analyze", "--in", out, "--threads", "2")[0] == 2


def test_analyze_membership_mode(tmp_path, capsys):
    out = str(tmp_path / "g.dug")
    run(capsys, "generate", "--r", "4", "--k", "2", "--proper", "--out", out)
    code, stdout, _ = run(capsys, "analyze", "--in", out, "--epsilon", "9/16", "--d", "3")
    assert code == 0 and stdout.strip() == "true"
    code, stdout, _ = run(capsys, "analyze", "--in", out, "--epsilon", "1/4", "--d", "2")
    assert code == 0 and stdout.strip() == "false"
    # a denominator far beyond int64 is still an exact comparison, not an overflow
    tiny = "1/1" + "0" * 27
    code, stdout, _ = run(capsys, "analyze", "--in", out, "--epsilon", tiny, "--d", "3")
    assert code == 0 and stdout.strip() == "false"


def test_analyze_epsilon_requires_d(tmp_path, capsys):
    out = str(tmp_path / "g.dug")
    run(capsys, "generate", "--r", "3", "--k", "1", "--out", out)
    code, _, stderr = run(capsys, "analyze", "--in", out, "--epsilon", "1/4")
    assert code == 2
    assert "--d" in stderr


def test_analyze_sampled_sources(tmp_path, capsys):
    out = str(tmp_path / "g.dug")
    run(capsys, "generate", "--r", "8", "--k", "2", "--proper", "--out", out)
    code, stdout, _ = run(capsys, "analyze", "--in", out, "--sources", "8", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["d"] == 3
    assert len(payload["sources"]) == 8


@pytest.mark.parametrize("count", ["0", "-3"])
def test_analyze_refuses_empty_source_sample(tmp_path, capsys, count):
    out = str(tmp_path / "g.dug")
    run(capsys, "generate", "--r", "3", "--k", "2", "--out", out)
    code, stdout, stderr = run(capsys, "analyze", "--in", out, "--sources", count)
    assert code == 2 and stdout == ""
    assert stderr == f"error: source sample must be at least 1, got {count}\n"


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "1/4"], "error: --epsilon and --d must be given together\n"),
    (["--d", "2"], "error: --epsilon and --d must be given together\n"),
    (["--sources", "0"], "error: source sample must be at least 1, got 0\n"),
    (["--epsilon", "1/2", "--d", "3", "--sources", "0"],
     "error: source sample must be at least 1, got 0\n"),
], ids=["epsilon-alone", "d-alone", "no-sources", "no-sources-with-epsilon"])
def test_analyze_flag_errors_come_before_the_file(tmp_path, capsys, flags, message):
    # the input does not exist, so any attempt to read it would report that instead
    code, stdout, stderr = run(capsys, "analyze", "--in", str(tmp_path / "absent.dug"), *flags)
    assert code == 2 and stdout == "" and stderr == message


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "g.el", "--epsilon", "1/0", "--d", "2"],
    ["plan", "--n", "100", "--epsilon", "1/0"],
], ids=["analyze", "plan"])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    # argparse's usage, then one error line, as for any other malformed value.
    assert stderr.startswith(f"usage: dug {argv[0]} ")
    errors = [line for line in stderr.splitlines() if "error" in line]
    assert errors == [f"dug {argv[0]}: error: argument --epsilon: zero denominator in '1/0'"]


@pytest.mark.parametrize("command", ["generate", "truncate", "verify"])
def test_negative_cap_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "g.dug"
    argv = [command, "--r", "3", "--k", "2", "--cap", "-1"]
    if command != "verify":
        argv += ["--out", str(out)]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    errors = [line for line in stderr.splitlines() if "error" in line]
    assert errors == [f"dug {command}: error: argument --cap: must be >= 0, got -1"]
    assert not out.exists()


def test_solve_disjoint_pair(capsys):
    code, stdout, _ = run(
        capsys, "solve", "--r", "5", "--k", "4",
        "--from", "1,2,1,2", "--to", "3,4,3,4", "--proper",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[1] == "15 moves"
    moves = parse_path(lines[0])
    params = HanoiParams(5, 4, proper=True)
    path = solve((1, 2, 1, 2), (3, 4, 3, 4), params)
    assert moves == path.moves
    assert verify_path(MovePath((1, 2, 1, 2), moves), params) == (3, 4, 3, 4)


@pytest.mark.parametrize("k", [40, 70])
def test_solve_at_large_k_builds_only_the_moves(capsys, k):
    """One adjustment apart at k = 40 and 70: no array sized 2^k, no index of k bits."""
    start = ",".join(["1", "2"] * (k // 2))
    target = start[:-1] + "3"
    argv = ["solve", "--r", "3", "--k", str(k), "--from", start, "--to", target]
    assert run(capsys, *argv) == (0, "a3\n1 moves\n", "")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == {"from": start, "to": target, "moves": ["a3"], "count": 1}
    a, b = (tuple(map(int, text.split(","))) for text in (start, target))
    assert traced_peak(lambda: solve(a, b, HanoiParams(3, k))) < 1 << 20


def test_solve_refuses_a_path_past_the_move_budget(capsys):
    """A disjoint pair at k = 26 needs 2^26 - 1 moves; the refusal comes before they exist."""
    argv = ["solve", "--r", "3", "--k", "26",
            "--from", ",".join(["1", "2"] * 13), "--to", ",".join(["3", "0"] * 13)]
    results = []
    assert traced_peak(lambda: results.append(run(capsys, *argv))) < 1 << 27
    assert results == [(2, "", "error: solver paths need more than 1048576 moves\n")]


def test_solve_checks_its_path_without_assert(capsys, monkeypatch):
    """A path that ends off target raises AssertionError naming both states, also under -O."""
    monkeypatch.setattr(dug.cli, "solve", lambda a, b, params: MovePath(a, (Adjust(3),)))
    with pytest.raises(AssertionError, match=r"^solver path ends at 1,3, not 3,4$"):
        cli_dispatch(["solve", "--r", "4", "--k", "2", "--from", "1,2", "--to", "3,4"])
    assert capsys.readouterr().out == ""


def test_solve_bad_state(capsys):
    code, _, stderr = run(
        capsys, "solve", "--r", "4", "--k", "2", "--from", "1,1", "--to", "2,3",
    )
    assert code == 2
    assert "error" in stderr


def test_plan_text_and_json(capsys):
    code, stdout, _ = run(capsys, "plan", "--n", "65536", "--epsilon", "1/16", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["a"] == 3 and payload["b"] == 1
    assert payload["r"] == 256 and payload["k"] == 2
    assert payload["predicted_d"] == 3

    code, stdout, stderr = run(capsys, "plan", "--n", "16", "--epsilon", "1/2")
    assert code == 0
    assert "degenerate false" in stdout
    assert "warning" in stderr  # 1/2 > 1/log2(16)


@pytest.mark.parametrize(
    "epsilon,warned,fields",
    [
        ("99999999/100000000", True, "degenerate false\nm 2 a 2 b 0\nr 16 k 1 base_n 16\n"
         "predicted_d 1\ncopies floor 6 ceil 7 ceil_vertices 4\n"),
        ("33333333/221461873", False, "degenerate true\nr 100 k 1 base_n 100\n"
         "predicted_d 1\ncopies floor 1 ceil 1 ceil_vertices 0\n"),  # just under 1/log2(100)
    ],
)
def test_plan_with_large_epsilon_terms(capsys, epsilon, warned, fields):
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "plan", "--n", "100", "--epsilon", epsilon)
    assert time.perf_counter() - start < 10  # never forms 100 ** 99999999
    assert code == 0
    assert stdout == f"n_target 100\nepsilon {epsilon}\n" + fields
    assert ("warning" in stderr) == warned


def test_plan_out_of_range(capsys):
    code, _, stderr = run(capsys, "plan", "--n", "16", "--epsilon", "1/32")
    assert code == 2
    assert "outside" in stderr


def test_truncate(tmp_path, capsys):
    out = str(tmp_path / "t.dug")
    code, stdout, _ = run(capsys, "truncate", "--r", "3", "--k", "2", "--out", out)
    assert code == 0
    assert stdout == f"wrote {out}: n=12 m=18\n"
    g = load_edge_list(out)
    assert g.n == 12 and g.m == 18
    assert g.labels is not None


def test_blowup(tmp_path, capsys):
    src = str(tmp_path / "g.dug")
    out = str(tmp_path / "b.dug")
    run(capsys, "generate", "--r", "2", "--k", "1", "--proper", "--out", src)
    code, stdout, _ = run(capsys, "blowup", "--in", src, "--n-target", "4", "--out", out)
    assert code == 0
    g = load_edge_list(out)
    assert g.n == 4 and g.m == 4
    code, stdout, _ = run(capsys, "blowup", "--in", src, "--n-target", "6", "--out", out,
                          "--json")
    assert code == 0
    assert json.loads(stdout) == {"out": out, "n": 6, "m": 9}


@pytest.mark.parametrize("n_target", ["3", "0"])
def test_blowup_of_empty_graph_is_refused(tmp_path, capsys, n_target):
    src = tmp_path / "empty.dug"
    src.write_text("dug 1 0 0\n")
    out = tmp_path / "b.dug"
    code, _, stderr = run(capsys, "blowup", "--in", str(src), "--n-target", n_target,
                          "--out", str(out))
    assert code == 2
    assert stderr == "error: cannot blow up a graph with no vertices\n"
    assert not out.exists()


@pytest.mark.parametrize("n_target", ["100000000", str(10**30)])
def test_blowup_past_the_size_cap_is_refused(tmp_path, capsys, n_target):
    src = str(tmp_path / "g.dug")
    out = tmp_path / "b.dug"
    run(capsys, "generate", "--r", "16", "--k", "2", "--proper", "--out", src)
    code, stdout, stderr = run(capsys, "blowup", "--in", src, "--n-target", n_target,
                               "--out", str(out))
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: blow-up to {n_target} vertices would have ")
    assert stderr.count("\n") == 1
    assert not out.exists()


def test_verify_pass(capsys):
    code, stdout, _ = run(capsys, "verify", "--r", "3", "--k", "2")
    assert code == 0
    assert "FAIL" not in stdout
    assert stdout.splitlines()[-1].endswith("checks passed")


def test_verify_g43(capsys):
    code, stdout, _ = run(capsys, "verify", "--r", "4", "--k", "3")
    assert code == 0
    assert "[PASS] disjoint-support exactness" in stdout


def test_verify_json(capsys):
    code, stdout, _ = run(capsys, "verify", "--r", "2", "--k", "2", "--json")
    assert code == 0
    rows = json.loads(stdout)
    assert all(row["ok"] for row in rows)
    names = [row["name"] for row in rows]
    assert "truncation isomorphism" in names


def test_bad_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dug"
    bad.write_text("dug 1 2 1\ne 1 0\n")
    code, _, stderr = run(capsys, "analyze", "--in", str(bad))
    assert code == 2
    assert "error" in stderr


@pytest.mark.parametrize("n", [10**12, DEFAULT_STATE_CAP + 1])
@pytest.mark.parametrize("command", ["analyze", "blowup"])
def test_header_past_the_vertex_cap_exits_2(tmp_path, capsys, n, command):
    src = tmp_path / "huge.dug"
    src.write_text(f"dug 1 {n} 1\ne 0 1\n")
    out = tmp_path / "b.dug"
    argv = ["--n-target", "5", "--out", str(out)] if command == "blowup" else []
    codes = []
    peak = traced_peak(lambda: codes.append(cli_dispatch([command, "--in", str(src), *argv])))
    captured = capsys.readouterr()
    assert codes == [2] and captured.out == ""
    assert captured.err == f"error: header declares {n} vertices (cap {DEFAULT_STATE_CAP})\n"
    assert peak < 100_000
    assert not out.exists()


def test_truncate_edge_cap_exits_2(tmp_path, capsys):
    # 72 vertices fit the cap of 2^7 = 128, their 288 edges do not
    out = tmp_path / "t.dug"
    code, stdout, stderr = run(capsys, "truncate", "--r", "8", "--k", "2", "--cap", "7",
                               "--out", str(out))
    assert code == 2 and stdout == ""
    assert stderr == "error: 288 edges exceed the cap of 128\n"
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    assert cli_dispatch(["generate", "--r", "4"]) == 2
    capsys.readouterr()
    assert cli_dispatch(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"], ["generate", "--r", "4"],
                                  ["nonsense"], ["plan", "--n", "x", "--epsilon", "1/2"]])
def test_reused_parser_answers_as_a_fresh_one(capsys, argv):
    # cli_dispatch builds its parser once per process and keeps it.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    fresh = capsys.readouterr()
    want = (exc.value.code, fresh.out, fresh.err)
    assert run(capsys, *argv) == run(capsys, *argv) == want
    assert run(capsys, "plan", "--n", "16", "--epsilon", "1/2")[0] == 0


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_verify_refuses_empty_pair_sample(capsys, limit):
    code, stdout, stderr = run(capsys, "verify", "--r", "3", "--k", "2", "--sample-pairs", limit)
    assert code == 2 and stdout == ""
    assert stderr == f"error: pair sample must be at least 1, got {limit}\n"


def test_verify_samples_orbits(capsys):
    code, stdout, _ = run(capsys, "verify", "--r", "4", "--k", "4", "--sample-pairs", "100")
    assert code == 0
    row = next(line for line in stdout.splitlines() if "solver vs BFS bounds" in line)
    assert row.startswith(
        "[PASS] solver vs BFS bounds: sampled 100 of 2795 orbit representatives, covering "
    )
    assert row.endswith(" of 65536 pairs")


def test_verify_at_planner_scale(capsys):
    # 16.8 M ordered pairs in 4 140 orbits; an all-pairs replay would need a
    # 64 MB distance matrix and 16.8 M solver calls.
    code, stdout, _ = run(capsys, "verify", "--r", "8", "--k", "4")
    assert code == 0
    assert "[PASS] solver vs BFS bounds: all 16777216 pairs (4140 orbits)\n" in stdout
    assert "[PASS] value relabeling is an automorphism" in stdout


def test_commands_leave_numpy_ma_unimported(tmp_path):
    """The first np.unique call in a process imports numpy.ma (about 16 ms); no command needs it."""
    graph = str(tmp_path / "g.dug")
    save_edge_list(build_explicit(HanoiParams(4, 2, proper=True)), graph)
    script = (
        "import contextlib, io, sys\n"
        "from dug.cli import cli_dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli_dispatch(['analyze', '--in', {graph!r}, '--sources', '4']),\n"
        "             cli_dispatch(['verify', '--r', '3', '--k', '2']),\n"
        "             cli_dispatch(['verify', '--r', '3', '--k', '2', '--sample-pairs', '5'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[0, 0, 0] False\n"
