import json

import jsonschema
import pytest

from satid import parse_cid
from satid.cli import (EXIT_GUARD, EXIT_MISMATCH, EXIT_PARSE, EXIT_SAT,
                       EXIT_UNKNOWN, EXIT_UNSAT, STATS_SCHEMA, main)
from satid.formats import MAX_NESTING

from test_formats import nested_pcid

LOOP_CID = "p cid 4\nt 1\nr 1 d 2 3 0\nr 3 d 4 0\nr 4 d 3 0\n"
UNSAT_CID = "p cid 2\nt 1\nr 1 c 2 -2 0\n"
# p_T <- c1 & c2 & c3 & c4 over the four sign pairs of a and b: the first
# conflict needs a decision, so it comes above decision level 0
QUAD_CID = ("p cid 7\nt 1\nr 1 c 2 3 4 5 0\nr 2 d 6 7 0\nr 3 d 6 -7 0\n"
            "r 4 d -6 7 0\nr 5 d -6 -7 0\n")


@pytest.fixture
def loop_path(tmp_path):
    path = tmp_path / "loop.cid"
    path.write_text(LOOP_CID)
    return str(path)


def test_solve_sat_exit_code_and_witness(loop_path, capsys):
    assert main(["solve", loop_path]) == 10
    out = capsys.readouterr().out
    assert "SATISFIABLE" in out
    v_line = next(l for l in out.splitlines() if l.startswith("v"))
    assert " 2 " in v_line and v_line.endswith(" 0")
    assert "models_represented: 2^0" in out.splitlines()


def test_solve_unsat_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cid"
    path.write_text(UNSAT_CID)
    assert main(["solve", str(path)]) == 20
    assert "UNSATISFIABLE" in capsys.readouterr().out


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.cid"
    path.write_text("p cid 2\nt 1\nr 1 q 2 0\n")
    assert main(["solve", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_rejects_an_overflowing_atom_count(tmp_path, capsys):
    path = tmp_path / "huge.cid"
    path.write_text("p cid 99999999999999999999\nt 1\nr 1 d 2 0\n")
    assert main(["solve", str(path)]) == 2
    assert "atom count 99999999999999999999 is too large" in capsys.readouterr().err


def test_stats_json_schema(loop_path, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    assert main(["solve", loop_path, "--stats-json", str(stats_path)]) == 10
    payload = json.loads(stats_path.read_text())
    jsonschema.validate(payload, STATS_SCHEMA)
    assert list(payload) == STATS_SCHEMA["required"]  # the README's key order
    assert payload["result"] == "sat"
    assert payload["stopped_early"] is True
    assert payload["models_represented_log2"] == 0
    capsys.readouterr()


def test_a_model_count_past_the_int_print_limit_is_given_as_its_exponent(tmp_path, capsys):
    # 19,998 open atoms stay unassigned: 2^19998 has 6021 digits, past the
    # 4300 that CPython turns into a string
    source = tmp_path / "wide.cid"
    source.write_text("p cid 20000\nt 1\nr 1 d 2 0\n")
    stats_path = tmp_path / "stats.json"
    assert main(["solve", str(source), "--stats-json", str(stats_path)]) == 10
    out = capsys.readouterr().out.splitlines()
    assert out == ["SATISFIABLE", "v 1 2 0", "models_represented: 2^19998"]
    payload = json.loads(stats_path.read_text())
    jsonschema.validate(payload, STATS_SCHEMA)
    assert payload["stopped_early"] is True
    assert payload["models_represented_log2"] == 19998


def test_stats_json_counts_learned_clauses_and_restarts(tmp_path, capsys):
    source = tmp_path / "quad.cid"
    source.write_text(QUAD_CID)
    stats_path = tmp_path / "stats.json"
    assert main(["solve", str(source), "--stats-json", str(stats_path)]) == 20
    payload = json.loads(stats_path.read_text())
    jsonschema.validate(payload, STATS_SCHEMA)
    assert payload["conflicts"] >= 2
    assert payload["learned_clauses"] >= 1
    assert payload["restarts"] == 0
    capsys.readouterr()


def test_budget_exhausted_exit_code_and_stats(tmp_path, capsys):
    source = tmp_path / "quad.cid"
    source.write_text(QUAD_CID)
    stats_path = tmp_path / "stats.json"
    assert main(["solve", str(source), "--max-conflicts=0",
                 "--stats-json", str(stats_path)]) == EXIT_UNKNOWN
    assert "UNKNOWN" in capsys.readouterr().out
    payload = json.loads(stats_path.read_text())
    jsonschema.validate(payload, STATS_SCHEMA)
    assert payload["result"] == "unknown"
    assert payload["conflicts"] == 1
    assert payload["models_represented_log2"] is None
    assert EXIT_UNKNOWN not in (EXIT_SAT, EXIT_UNSAT, EXIT_PARSE, EXIT_MISMATCH,
                                EXIT_GUARD)


def test_budget_exhausted_still_writes_the_dot_file(tmp_path, capsys):
    source = tmp_path / "quad.cid"
    source.write_text(QUAD_CID)
    dot_path, stats_path = tmp_path / "deps.dot", tmp_path / "stats.json"
    assert main(["solve", str(source), "--max-conflicts", "0",
                 "--dot", str(dot_path), "--stats-json", str(stats_path)]) \
        == EXIT_UNKNOWN
    assert "UNKNOWN" in capsys.readouterr().out
    assert json.loads(stats_path.read_text())["result"] == "unknown"
    dot = dot_path.read_text()
    assert dot.startswith("digraph") and '"x1" -> "x2"' in dot


@pytest.mark.parametrize("limit", ["nan", "-1", "-inf"])
def test_solve_rejects_time_limit_below_zero_or_nan(loop_path, capsys, limit):
    assert main(["solve", loop_path, f"--time-limit={limit}"]) == EXIT_PARSE
    assert "time_limit" in capsys.readouterr().err


def test_stats_deterministic_across_runs(loop_path, tmp_path, capsys):
    payloads = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        main(["solve", loop_path, "--stats-json", str(path)])
        payload = json.loads(path.read_text())
        payload.pop("wall_ms")
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    capsys.readouterr()


def test_solve_flags_accepted(loop_path, capsys):
    assert main(["solve", loop_path, "--relevance=off", "--stop-on-justified=off",
                 "--max-conflicts=100"]) == 10
    capsys.readouterr()


def test_solve_dot_output(loop_path, tmp_path, capsys):
    dot_path = tmp_path / "deps.dot"
    main(["solve", loop_path, "--dot", str(dot_path)])
    assert dot_path.read_text().startswith("digraph")
    capsys.readouterr()


def test_replay_pass_and_mismatch(loop_path, tmp_path, capsys):
    good = tmp_path / "good.trc"
    good.write_text("+ 2\n+ 1\n# expect 3 0\n? 1\n")
    assert main(["replay", loop_path, str(good)]) == 0
    out = capsys.readouterr().out
    assert "1 0" in out and "OK" in out

    bad = tmp_path / "bad.trc"
    bad.write_text("+ 2\n+ 1\n# expect 3 1\n")
    assert main(["replay", loop_path, str(bad)]) == 1
    assert "MISMATCH" in capsys.readouterr().err


def test_replay_ordering_error(loop_path, tmp_path, capsys):
    trace = tmp_path / "order.trc"
    trace.write_text("- 2\n")
    assert main(["replay", loop_path, str(trace)]) == 2
    assert "event 0: literal 2 is not justified" in capsys.readouterr().err


def test_replay_check_oracle(loop_path, tmp_path, capsys):
    trace = tmp_path / "checked.trc"
    trace.write_text("+ 2\n+ 1\n- 1\n- 2\n")
    assert main(["replay", loop_path, str(trace), "--check-oracle"]) == 0
    assert "oracle checks" in capsys.readouterr().out


def test_replay_dot_writes_the_relevance_graph(loop_path, tmp_path, capsys):
    trace = tmp_path / "t.trc"
    trace.write_text("+ 2\n")
    dot_path = tmp_path / "relevance.dot"
    assert main(["replay", loop_path, str(trace), "--dot", str(dot_path)]) == 0
    assert dot_path.read_text().startswith("digraph relevance")
    capsys.readouterr()


def test_oracle_total(loop_path, tmp_path, capsys):
    assert main(["oracle", "total", loop_path]) == 0
    assert capsys.readouterr().out.strip() == "total"
    negloop = tmp_path / "neg.cid"
    negloop.write_text("p cid 2\nt 1\nr 1 d -2 0\nr 2 d -1 0\n")
    main(["oracle", "total", str(negloop)])
    assert capsys.readouterr().out.strip() == "not total"


def test_oracle_models(loop_path, capsys):
    assert main(["oracle", "models", loop_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1"
    assert lines[1] == "1 2 -3 -4"


def test_oracle_relevant(loop_path, capsys):
    assert main(["oracle", "relevant", loop_path]) == 0
    assert capsys.readouterr().out.split() == ["x1", "x2", "x3", "x4"]
    assert main(["oracle", "relevant", loop_path, "--assign", "2"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_oracle_justified_and_count(loop_path, capsys):
    assert main(["oracle", "justified", loop_path, "--assign", "2", "--atom", "1"]) == 0
    assert capsys.readouterr().out.strip() == "x1 true"
    assert main(["oracle", "count", loop_path, "--assign", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_oracle_wfm(loop_path, capsys):
    assert main(["oracle", "wfm", loop_path, "--context", "-2"]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert out == {"x1": "f", "x2": "f", "x3": "f", "x4": "f"}


@pytest.mark.parametrize("command, option", [
    ("justified", "--assign"), ("count", "--assign"), ("wfm", "--context"),
])
def test_oracle_rejects_contradictory_assignments(loop_path, capsys, command, option):
    assert main(["oracle", command, loop_path, option, "2 -2"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option}: both 2 and -2 given" in captured.err


@pytest.mark.parametrize("value", ["1", "-3", "2 4"])
def test_oracle_wfm_context_takes_only_open_atoms(loop_path, capsys, value):
    # in LOOP_CID atoms 1, 3 and 4 are defined and 2 is open
    assert main(["oracle", "wfm", loop_path, "--context", value]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--context: atom" in captured.err and "is defined, not open" in captured.err


def test_oracle_guard_refusal(tmp_path, capsys):
    rules = "\n".join(f"r {a} d {a + 1} 0" for a in range(1, 15))
    path = tmp_path / "big.cid"
    path.write_text(f"p cid 15\nt 1\n{rules}\n")
    assert main(["oracle", "relevant", str(path)]) == 3
    assert "refused" in capsys.readouterr().err


def test_oracle_count_mismatch_on_a_non_total_definition(tmp_path, capsys):
    # 2 <- ~3 and 3 <- ~2 is a cycle through negation: with 4 true the
    # theory atom is justified, yet no context makes the definition's
    # well-founded model two-valued, so the count is 0, not 2^0
    path = tmp_path / "nontotal.cid"
    path.write_text("p cid 4\nt 1\nr 1 c 4 0\nr 2 d -3 0\nr 3 d -2 0\n")
    assert main(["oracle", "count", str(path), "--assign", "4"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mismatch: extension count 0 differs from 2^0\n"


def test_normalize_writes_cid_and_name_map(tmp_path, capsys):
    source = tmp_path / "input.pcid"
    source.write_text("(theory (constraint (or a (and b c))))")
    out = tmp_path / "out.cid"
    names = tmp_path / "names.json"
    assert main(["normalize", str(source), "-o", str(out),
                 "--name-map", str(names)]) == 0
    theory = parse_cid(out.read_text())
    assert theory.theory_atom == json.loads(names.read_text())["_pT"]
    capsys.readouterr()


def test_solve_accepts_pcid(tmp_path, capsys):
    source = tmp_path / "input.pcid"
    source.write_text("(theory (constraint p_T) (define (rule p_T (or a p)) "
                      "(rule p q) (rule q p)))")
    assert main(["solve", str(source)]) == 10
    capsys.readouterr()


@pytest.mark.parametrize("shape", ["not", "and_or"])
def test_solve_rejects_deep_nesting(tmp_path, capsys, shape):
    source = tmp_path / "deep.pcid"
    source.write_text(nested_pcid(3000, shape))
    assert main(["solve", str(source)]) == EXIT_PARSE
    assert "nesting deeper than" in capsys.readouterr().err
    source.write_text(nested_pcid(MAX_NESTING, shape))
    assert main(["solve", str(source)]) == EXIT_SAT
    capsys.readouterr()


def test_compare_agreement(loop_path, capsys):
    assert main(["compare", loop_path]) == 0
    out = capsys.readouterr().out
    assert "relevance=on" in out and "relevance=off" in out
    assert "status agreement: yes" in out


def test_missing_file_is_reported(capsys):
    assert main(["solve", "/nonexistent/file.cid"]) == 2
    assert "error" in capsys.readouterr().err


def test_directory_is_reported(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == EXIT_PARSE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["justified", "--atom", "5"], ["justified", "--atom", "-2"],
    ["justified", "--atom", "0"], ["relevant", "--assign", "5"],
    ["count", "--assign", "2 -5"], ["wfm", "--context", "-5"],
])
def test_oracle_rejects_atoms_outside_the_table(loop_path, capsys, args):
    command, option, value = args
    assert main(["oracle", command, loop_path, option, value]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option}: atom" in captured.err and "outside the atom table" in captured.err
