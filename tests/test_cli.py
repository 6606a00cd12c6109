import json

import pytest

from dug import HanoiParams, load_edge_list, parse_path, solve, verify_path
from dug.cli import cli_dispatch


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
    from dug import MovePath

    assert verify_path(MovePath((1, 2, 1, 2), moves), params) == (3, 4, 3, 4)


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


def test_plan_out_of_range(capsys):
    code, _, stderr = run(capsys, "plan", "--n", "16", "--epsilon", "1/32")
    assert code == 2
    assert "outside" in stderr


def test_truncate(tmp_path, capsys):
    out = str(tmp_path / "t.dug")
    code, stdout, _ = run(capsys, "truncate", "--r", "3", "--k", "2", "--out", out)
    assert code == 0
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


def test_usage_error_exit_code(capsys):
    assert cli_dispatch(["generate", "--r", "4"]) == 2
    capsys.readouterr()
    assert cli_dispatch(["nonsense"]) == 2
    capsys.readouterr()
