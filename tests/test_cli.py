"""Command line interface: exit codes, JSON output, file round trips."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trivalent
from trivalent.cli import main
from trivalent.ehrhart import zagier_polynomial

THETA_TEXT = "v 2\ne 1 1 2\ne 2 1 2\ne 3 1 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_graph_validate_named(capsys):
    payload = run_json(capsys, "graph", "validate", "theta")
    assert payload["valid"] is True


def test_graph_validate_file(tmp_path, capsys):
    path = tmp_path / "theta.g"
    path.write_text(THETA_TEXT)
    payload = run_json(capsys, "graph", "validate", str(path))
    assert payload["valid"] is True


def test_graph_info(capsys):
    payload = run_json(capsys, "graph", "info", "claw")
    assert sorted(payload["degree_sequence"]) == [1, 1, 1, 3]
    assert payload["external_edges"] == [1, 2, 3]
    assert payload["tree"] is True


def test_unknown_graph_is_usage_error(capsys):
    code, _ = run(capsys, "graph", "info", "no-such-graph")
    assert code == 2


def test_invalid_graph_file_fails_check(tmp_path, capsys):
    path = tmp_path / "bad.g"
    path.write_text("v 2\ne 1 1 2\n")  # an isolated edge is not a {1,3}-graph
    code, _ = run(capsys, "graph", "validate", str(path))
    assert code == 1


def test_nni_sequence_and_replay(tmp_path, capsys):
    out = tmp_path / "seq.json"
    payload = run_json(
        capsys, "nni", "sequence", "theta", "dumbbell", "--output", str(out)
    )
    assert payload["moves"] == [[2, 1, 3, 2, 1]]
    assert payload["relabel"] == []

    code, text = run(capsys, "nni", "replay", "theta", str(out))
    assert code == 0
    assert "v 2" in text and "e 1 1 1" in text and "e 2 2 2" in text


def test_nni_sequence_restricted(capsys):
    payload = run_json(
        capsys, "nni", "sequence", "theta", "dumbbell", "--restrict"
    )
    assert payload["moves"] == [[3, 1, 1, 2, 2]]
    assert payload["relabel"] == [[1, 3], [2, 1], [3, 2]]


def test_wnni_apply(capsys):
    payload = run_json(
        capsys, "wnni", "apply", "theta",
        "--weights", "1,0,1", "--trail", "1,1,3,2,2",
    )
    assert payload["weights"] == {"1": "1", "2": "0", "3": "0"}
    assert payload["case"] in "ABCD"


def test_wnni_apply_rational_stdout_is_pinned(capsys):
    code, out = run(
        capsys, "wnni", "apply", "k4",
        "--weights", "1/2,1/3,1/4,1/5,1/6,1/7", "--trail", "2,1,1,2,4",
    )
    assert code == 0
    assert out == (
        '{\n  "case": "A",\n'
        '  "graph": "v 4\\ne 1 1 2\\ne 2 2 3\\ne 3 1 4\\ne 4 1 3\\ne 5 2 4\\ne 6 3 4\\n",\n'
        '  "pivot": 1,\n  "weights": {\n'
        '    "1": "7/12",\n    "2": "1/3",\n    "3": "1/4",\n'
        '    "4": "1/5",\n    "5": "1/6",\n    "6": "1/7"\n  }\n}\n'
    )


def test_wnni_apply_named_weights(capsys):
    payload = run_json(
        capsys, "wnni", "apply", "theta",
        "--weights", "1=1,2=0,3=1", "--trail", "1,1,3,2,2",
    )
    assert payload["weights"]["3"] == "0"


def test_bad_weights_exit_codes(capsys):
    # wrong count: well-formed input inconsistent with the graph
    code, _ = run(
        capsys, "wnni", "apply", "theta", "--weights", "1,0", "--trail", "1,1,3,2,2"
    )
    assert code == 1
    # unparseable input is a usage error
    code, _ = run(
        capsys, "wnni", "apply", "theta", "--weights", "a,b,c", "--trail", "1,1,3,2,2"
    )
    assert code == 2


@pytest.mark.parametrize("weights", ["1/0,0,1", "1=1/0,2=0,3=1"])
def test_zero_denominator_weights_are_usage_errors(capsys, weights):
    assert main(["wnni", "apply", "theta", "--weights", weights, "--trail", "1,1,3,2,2"]) == 2
    assert capsys.readouterr().err.startswith("error: --weights ")


def test_ehrhart_count(capsys):
    payload = run_json(capsys, "ehrhart", "count", "theta", "-t", "4")
    assert payload["count"] == 11
    payload = run_json(capsys, "ehrhart", "count", "claw", "-t", "5/2")
    assert payload["count"] == 4
    payload = run_json(
        capsys, "ehrhart", "count", "claw", "-t", "3", "--method", "backtracking"
    )
    assert payload["count"] == 5


def test_tree_dp_on_a_graph_with_a_cycle_is_usage_error(capsys):
    assert main(["ehrhart", "count", "theta", "-t", "2", "--method", "tree-dp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --method tree-dp needs a tree")


@pytest.mark.parametrize(
    "command, flag",
    [(("ehrhart", "count", "claw"), "-t"), (("ehrhart", "semireflexive", "claw"), "-s")],
)
@pytest.mark.parametrize(
    "dilation, code",
    [("5/2", 0), ("1/0", 2), ("-3", 2), ("-1/2", 2), ("two", 2)],
)
def test_dilation_exit_codes(capsys, command, flag, dilation, code):
    # "--flag=value" keeps argparse from reading a leading "-" as an option
    assert main([*command, f"{flag}={dilation}"]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: dilation ")
    else:
        assert err == ""


def test_ehrhart_qp(capsys):
    payload = run_json(capsys, "ehrhart", "qp", "claw")
    assert payload["period"] == 2
    assert payload["constituents"][1] == [[1, 4], [11, 24], [1, 4], [1, 24]]


def test_ehrhart_qp_k33_equals_prism(capsys):
    # one class, two graphs: K3,3 and the prism share one quasi-polynomial,
    # whose odd constituents are the trigonometric count's polynomial
    graphs = Path(__file__).resolve().parent.parent / "demos" / "graphs"
    k33 = run_json(capsys, "ehrhart", "qp", str(graphs / "k33.g"))
    assert k33 == run_json(capsys, "ehrhart", "qp", str(graphs / "prism.g"))
    zagier = [[c.numerator, c.denominator] for c in zagier_polynomial(6)]
    assert [k33["constituents"][r % k33["period"]] for r in (1, 3)] == [zagier] * 2


def test_ehrhart_verlinde(capsys):
    payload = run_json(capsys, "ehrhart", "verlinde", "-n", "4", "-t", "5")
    assert payload["count"] == 98
    payload = run_json(
        capsys, "ehrhart", "verlinde", "-n", "2", "-t", "3", "--with-polynomial"
    )
    assert payload["count"] == 5
    assert payload["polynomial"] == [[1, 4], [11, 24], [1, 4], [1, 24]]


def test_ehrhart_verlinde_above_2_53(capsys):
    payload = run_json(capsys, "ehrhart", "verlinde", "-n", "4", "-t", "3001")
    assert payload["count"] == 509295668635905151  # zagier_polynomial(4) at 3001


def test_ehrhart_volume(capsys):
    payload = run_json(capsys, "ehrhart", "volume", "theta")
    assert payload["ok"] is True
    assert payload["expected_leading"] == [1, 24]


def test_ehrhart_volume_non_cubic_fails(capsys):
    code, _ = run(capsys, "ehrhart", "volume", "claw")
    assert code == 1


def test_ehrhart_semireflexive(capsys):
    payload = run_json(
        capsys, "ehrhart", "semireflexive", "claw", "-s", "1/2", "-s", "11/4"
    )
    assert payload["ok"] is True


def test_scissors_build_and_verify(capsys):
    payload = run_json(capsys, "scissors", "build", "theta", "dumbbell")
    assert len(payload["pieces"]) == 2
    assert [p["determinant"] for p in payload["pieces"]] == [1, 1]
    assert all(c["normal"] == [-1, 1, 0]
               for p in payload["pieces"] for c in p["constraints"])
    assert sorted(c["sense"] for p in payload["pieces"]
                  for c in p["constraints"]) == ["<", ">="]

    payload = run_json(
        capsys, "scissors", "verify", "theta", "dumbbell", "--t-max", "3"
    )
    assert payload["ok"] is True
    assert [d["points"] for d in payload["dilations"]] == [1, 1, 4, 5]


@pytest.mark.parametrize(
    "command",
    [("scissors", "verify", "theta", "dumbbell"), ("reflexive", "check", "theta")],
)
@pytest.mark.parametrize("t_max, code", [("0", 0), ("-1", 2), ("-2", 2)])
def test_t_max_exit_codes(capsys, command, t_max, code):
    # a negative bound would check no dilation and still report ok
    assert main([*command, f"--t-max={t_max}"]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("error: --t-max ")
        assert captured.out == ""
    else:
        assert json.loads(captured.out)["ok"] is True


def run_module(*argv):
    """Run `python -m trivalent` with this checkout's package on the path."""
    src = str(Path(trivalent.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "trivalent", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_dash_m_runs_the_cli():
    result = run_module("graph", "info", "theta")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["cycle_rank"] == 2


def test_out_of_memory_is_an_error_line():
    # t = 10**6 passes the int64 bound for the claw's three edges, but its
    # indicator tensor would take 8 EB, past the counting routes' tensor
    # budget, so the count is refused before anything is allocated
    result = run_module("ehrhart", "count", "claw", "-t", "1000000")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_budget_refusal_is_one_short_line():
    # at t = 1e400 the need in bytes has about 1,600 digits; it prints as a
    # power of two, and a need below 2**60 bytes in GiB
    for t, need in (("1e400", "about 2**"), ("400", "12.3 GiB")):
        result = run_module("ehrhart", "count", "k4", "-t", t)
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 120, result.stderr
        assert lines[0].startswith("error: count too large for memory")
        assert need in lines[0]


def test_reflexive_check(capsys):
    payload = run_json(capsys, "reflexive", "check", "claw", "--t-max", "2")
    assert payload["ok"] is True


def test_reflexive_hstar(capsys):
    payload = run_json(capsys, "reflexive", "hstar", "claw")
    assert payload["coefficients"] == [1, 7, 7, 1]
    assert payload["palindromic"] is True


# Q's closed counts at t = 0..3 (each equal to the interior count at t + 1)
# and h* vectors, as literals: `reflexive check` and `reflexive hstar` must
# print exactly these
PINNED_Q_COUNTS = {
    "claw": [1, 11, 45, 119], "theta": [1, 11, 45, 119], "dumbbell": [1, 11, 45, 119],
    "lollipop": [1, 5, 13, 25], "k4": [1, 49, 785, 5537], "t4": [1, 49, 785, 5537],
}
PINNED_H_STAR = {
    "claw": [1, 7, 7, 1], "theta": [1, 7, 7, 1], "dumbbell": [1, 7, 7, 1],
    "lollipop": [1, 2, 1], "k4": [1, 42, 463, 1036, 463, 42, 1],
    "t4": [1, 42, 463, 1036, 463, 42, 1],
}


@pytest.mark.parametrize("name", PINNED_Q_COUNTS)
def test_reflexive_cli_output_is_pinned(capsys, name):
    check = run_json(capsys, "reflexive", "check", name, "--t-max", "3")
    assert check == {
        "counts": [
            {"closed": c, "interior_next": c, "t": t}
            for t, c in enumerate(PINNED_Q_COUNTS[name])
        ],
        "ok": True,
    }
    coefficients = PINNED_H_STAR[name]
    assert run_json(capsys, "reflexive", "hstar", name) == {
        "coefficients": coefficients,
        "nonnegative": True,
        "normalized_volume": sum(coefficients),
        "palindromic": True,
    }


def test_reflexive_vertices(capsys):
    payload = run_json(capsys, "reflexive", "vertices", "claw")
    assert len(payload["vertices"]) == 4


def test_tree_table_check(capsys):
    code, out = run(capsys, "tree-table", "--max-edges", "3", "--check")
    assert code == 0
    table = json.loads(out)
    assert table["3"]["odd"] == [[1, 4], [11, 24], [1, 4], [1, 24]]


def test_short_trail_is_usage_error(capsys):
    argv = ["wnni", "apply", "theta", "--weights", "1,1,1", "--trail", "1,2"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --trail ")


@pytest.mark.parametrize("text", ["[]", '{"moves": [[1, 2]]}'])
def test_malformed_sequence_file_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "seq.json"
    path.write_text(text)
    assert main(["nni", "replay", "theta", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
