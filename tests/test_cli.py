import importlib
import json

import nucleo.cli
import nucleo.coalitions
import nucleo.theory
from nucleo.cli import main
from nucleo.exactlp import LpSolution
from nucleo.nucleolus import SolverError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_human(capsys):
    code, out, err = run(capsys, "solve", "8; 6 4 3 2")
    assert code == 0
    assert "x*: 2/5 1/5 1/5 1/5" in out
    assert "gap: 2/15" in out
    assert "bound: 12/7" in out


def test_solve_typed_flagship_small_scale(capsys):
    code, out, _ = run(capsys, "solve", "--engine", "typed", "50; 10*4 10*3 10*2")
    assert code == 0
    assert "x*: " + " ".join(["2/45"] * 10 + ["1/30"] * 10 + ["1/45"] * 10) in out


def test_solve_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "solve", "5; 1 1")
    assert code == 2
    assert "exceeds total weight" in err


def test_solve_directory_as_game_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "solve", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Is a directory" in err


def test_solve_output_in_missing_directory_is_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "solve", "8; 6 4 3 2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not target.parent.exists()


def test_solve_limit_exit_code(capsys):
    # 21 players of positive weight, one over the brute engine's cap; the
    # null player does not count
    code, out, err = run(capsys, "solve", "--engine", "brute", "11; 21*1 0")
    assert code == 3
    assert out == ""
    assert "brute engine limited to 20 players, game has 21" in err


def test_bad_run_length_count_exit_code(capsys):
    for game in ("5; 1_0*1", "2; \u0663*1", "2; +3*1"):
        code, out, err = run(capsys, "solve", game)
        assert code == 2, game
        assert "bad run-length count" in err


def test_check_bitset_limit_exit_code(capsys):
    # total weight 2**27 + 5, past the one-bit-per-unit knapsack cap
    code, out, err = run(capsys, "check", "5; 134217728 1 1 1 1 1")
    assert code == 3
    assert out == ""
    assert "bitset limit" in err


def test_solve_internal_error_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise SolverError("stage count exceeded the dimension bound")

    monkeypatch.setattr(nucleo.cli, "nucleolus", broken)
    code, out, err = run(capsys, "solve", "8; 6 4 3 2")
    assert code == 4
    assert out == ""
    assert err == "error: internal invariant failed: stage count exceeded the dimension bound\n"

    # a knapsack reconstruction that fails is a bug, not an oracle stall:
    # the solver must not fall back to its full scan
    monkeypatch.undo()
    monkeypatch.setattr(nucleo.coalitions, "_smallest_count", lambda *args: None)
    code, out, err = run(capsys, "solve", "--engine", "typed", "50; 10*4 10*3 10*2")
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal invariant failed: no count of item 0 completes")


def test_classify_unexpected_lp_status_exit_code(capsys, monkeypatch):
    # the homogeneity LP minimizes a sum of weights bounded below by 0, so it
    # cannot be unbounded; that status must not read as "no representation"
    calls = []
    monkeypatch.setattr(nucleo.theory, "solve",
                        lambda lp: calls.append(lp) or LpSolution("unbounded"))
    for game in ("8; 6 4 3 2", "6; 2*3 2*2"):
        code, out, err = run(capsys, "classify", game)
        assert code == 4
        assert out == ""
        assert err == "error: internal invariant failed: homogeneity LP returned unbounded\n"
    # this game's equalities reach full rank, which answers before any LP
    calls.clear()
    code, out, err = run(capsys, "classify", "50; 10*4 10*3 10*2")
    assert code == 0 and err == ""
    assert "permits homogeneous representation: False" in out
    assert calls == []


def test_solve_lp_status_exit_codes(capsys, monkeypatch):
    # the master LP minimizes eps over the imputations and a face LP
    # optimizes over a face of them, a bounded set, so neither can be
    # unbounded; that status is an internal error.  Only an infeasible
    # master LP means the game has no imputation.
    nucleolus_module = importlib.import_module("nucleo.nucleolus")  # not the function
    real_solve = nucleolus_module.solve
    monkeypatch.setattr(nucleolus_module, "solve", lambda lp: LpSolution("unbounded"))
    code, out, err = run(capsys, "solve", "8; 6 4 3 2")
    assert code == 4
    assert out == ""
    assert err == "error: internal invariant failed: master LP returned unbounded\n"

    monkeypatch.setattr(nucleolus_module, "solve", lambda lp: LpSolution("infeasible"))
    code, out, err = run(capsys, "solve", "8; 6 4 3 2")
    assert code == 2
    assert out == ""
    assert err == "error: the game admits no imputation\n"

    for status in ("unbounded", "infeasible"):
        def face_fails(lp, status=status):
            # a face LP has no eps column, the master LP's free last variable
            if lp.lower_bounds[-1] is None:
                return real_solve(lp)
            return LpSolution(status)

        # the first stage of this game runs one always-tight LP on either engine
        monkeypatch.setattr(nucleolus_module, "solve", face_fails)
        for engine in ("brute", "typed"):
            code, out, err = run(capsys, "solve", "--engine", engine, "6 ; 4 5 9")
            assert code == 4
            assert out == ""
            assert err == f"error: internal invariant failed: face LP returned {status}\n"


def test_solve_json_round_trip(capsys):
    code, out, _ = run(capsys, "solve", "--format", "json", "8; 6 4 3 2")
    assert code == 0
    payload = json.loads(out)
    assert payload["x_star"] == ["2/5", "1/5", "1/5", "1/5"]
    assert payload["gap_report"]["l1_gap"] == "2/15"
    again = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert again == out


def test_check_small_game(capsys):
    code, out, _ = run(capsys, "check", "3; 2 1 1 1")
    assert code == 0
    assert "coincidence condition: fails (lhs 2/5 vs rhs 16)" in out
    assert "constant-sum: True" in out
    assert "homogeneous: True" in out


def test_check_flagship(capsys):
    code, out, _ = run(capsys, "check", "1500; 300*4 300*3 300*2")
    assert code == 0
    assert "coincidence condition: holds (lhs 400/3 vs rhs 96)" in out
    assert "homogeneous: False" in out


def test_check_percentage_game(capsys):
    code, out, _ = run(capsys, "check", "58%; 5*4 7*1")
    assert code == 0
    assert "coincidence" in out


def test_check_json_has_exact_values(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", "3; 2 1 1 1")
    payload = json.loads(out)
    assert payload["coincidence"]["lhs"] == "2/5"
    assert payload["coincidence"]["replica_threshold"] == 41
    assert payload["null_players"] == []


def test_classify_lists_witness(capsys):
    code, out, _ = run(capsys, "classify", "8; 6 4 3 2")
    assert code == 0
    assert "permits homogeneous representation: True" in out
    assert "homogeneous witness: 3 ; 2 1 1 1" in out


def test_classify_flagship_9000_answers(capsys):
    # more than the default cap of minimal winning profiles, but the first
    # four already settle that no homogeneous representation exists
    code, out, err = run(capsys, "classify", "15000; 3000*4 3000*3 3000*2")
    assert code == 0 and err == ""
    assert "permits homogeneous representation: False" in out


def test_replicate(capsys):
    code, out, _ = run(capsys, "replicate", "5; 4 3 2", "--rho", "2")
    assert code == 0
    assert out.strip() == "10 ; 4 4 3 3 2 2"


def test_replicate_rejects_bad_rho(capsys):
    code, out, err = run(capsys, "replicate", "5; 4 3 2", "--rho", "0")
    assert code == 2


def test_game_file_input(tmp_path, capsys):
    path = tmp_path / "game.txt"
    path.write_text("# textbook game\n8; 6 4 3 2\n", encoding="utf-8")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and "2/5" in out


def test_experiment_eq3(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "experiment", "eq3", "--n", "2..9", "--pair", "1,2")
    assert code == 0
    path = tmp_path / "eq3_2-9.csv"
    assert path.exists()
    lines = path.read_text().strip().split("\n")
    ratio = [line.split(",")[5] for line in lines[1:]]
    assert ratio == ["0", "1", "0", "1", "0", "1", "0", "1"]


def test_experiment_replica(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "experiment", "replica",
                       "--base", "5; 4 3 2", "--rho", "1..4")
    assert code == 0
    lines = (tmp_path / "replica_1-4.csv").read_text().strip().split("\n")
    gap_num = [line.split(",")[1] for line in lines[1:]]
    assert gap_num[1:] == ["0", "0", "0"]


def test_experiment_descending_range_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "experiment", "replica",
                         "--base", "5; 4 3 2", "--rho", "4..1")
    assert code == 2


def test_experiment_json_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "experiment", "eq3", "--n", "2..4",
                       "--format", "json", "--output", "report.json")
    assert code == 0
    text = (tmp_path / "report.json").read_text()
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text


def test_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "solution.txt"
    code, _, _ = run(capsys, "solve", "8; 6 4 3 2", "--output", str(out_path))
    assert code == 0
    assert "x*: 2/5 1/5 1/5 1/5" in out_path.read_text()
