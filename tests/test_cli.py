"""Command-line behaviour: schemas, formats, exit codes, round-tripping."""

import json

import pytest

from cosetforge import cli


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cosets_top(capsys):
    rc, out, _ = run_cli(capsys, "cosets", "--q", "2", "--n", "21", "--top", "3")
    assert rc == 0
    assert json.loads(out)["top"] == [9, 7, 5]


def test_cosets_single_coset_and_elision(capsys):
    rc, out, _ = run_cli(capsys, "cosets", "--q", "2", "--n", "21", "--coset", "5")
    doc = json.loads(out)
    assert rc == 0 and doc["leader"] == 5 and doc["elements"] == [5, 10, 13, 17, 19, 20]
    rc, out, _ = run_cli(capsys, "cosets", "--q", "2", "--n", "21", "--coset", "5", "--max-elements", "3")
    assert "elements" not in json.loads(out)


def test_cosets_family_length(capsys):
    rc, out, _ = run_cli(capsys, "cosets", "--q", "3", "--m", "4", "--family", "minus", "--top", "1")
    assert json.loads(out) == {"n": 40, "q": 3, "top": [25]}


def test_code_report(capsys):
    rc, out, _ = run_cli(capsys, "code", "--q", "3", "--m", "4", "--family", "plus", "--delta", "11", "--true-distance")
    doc = json.loads(out)
    assert rc == 0
    assert doc["n"] == 20 and doc["dim"] == 5
    assert doc["distance"]["d"] == 11 and doc["distance"]["d"] >= doc["distance"]["bounds"]["designed"]


def test_dual_report(capsys):
    rc, out, _ = run_cli(capsys, "dual", "--q", "3", "--m", "4", "--family", "plus", "--delta", "2", "--true-distance")
    doc = json.loads(out)
    assert doc["bounds"]["closed_form"] == 11
    assert doc["bounds"]["bch_run"] == 12
    assert doc["distance"]["d"] == 12
    assert doc["dual"]["dim"] == 4


def test_dually_bch_sweep(capsys):
    rc, out, _ = run_cli(capsys, "dually-bch", "--q", "3", "--m", "4", "--family", "plus", "--sweep")
    doc = json.loads(out)
    assert doc["true_intervals"] == [[2, 2], [11, 20]]
    verdicts = {e["delta"]: e["verdict"] for e in doc["sweep"]}
    assert verdicts[2] and not verdicts[3] and verdicts[11]


def test_dually_bch_single(capsys):
    rc, out, _ = run_cli(capsys, "dually-bch", "--q", "2", "--m", "6", "--family", "plus", "--delta", "10")
    doc = json.loads(out)
    assert doc["verdict"] is True and doc["witness"] == {"b": 0, "delta": 2}


def test_verify_single_claim(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--claim", "CLM-D1P", "--grid", "q=2|3,m=4|6")
    assert rc == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0 and doc["summary"]["pass"] == 4


def test_verify_json_round_trip(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--claim", "CLM-SZP", "--grid", "q=3,m=4")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_claims_listing(capsys):
    rc, out, _ = run_cli(capsys, "claims")
    doc = json.loads(out)
    assert rc == 0 and len(doc["claims"]) == 17
    assert {c["id"] for c in doc["claims"]} >= {"CLM-D1P", "CLM-T5", "CLM-QM1"}


def test_formats_carry_same_numbers(capsys):
    rc, js, _ = run_cli(capsys, "cosets", "--q", "2", "--n", "21", "--top", "3")
    rc, csv_text, _ = run_cli(capsys, "cosets", "--q", "2", "--n", "21", "--top", "3", "--format", "csv")
    rc, table, _ = run_cli(capsys, "cosets", "--q", "2", "--n", "21", "--top", "3", "--format", "table")
    assert json.loads(js)["top"] == [9, 7, 5]
    assert "[9,7,5]" in csv_text.replace('"', "")
    assert "[9,7,5]" in table


def test_domain_error_exit_code(capsys):
    rc, out, err = run_cli(capsys, "code", "--q", "6", "--m", "4", "--family", "plus", "--delta", "3")
    assert rc == 1 and "prime power" in err and not out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cosets", "--q", "2", "--n", "21", "--top", "notanint"])
    assert exc.value.code == 2


def test_failing_points_exit_code(capsys, monkeypatch):
    # force a failing point to check the exit-code mapping
    from cosetforge import verify as v

    real = v.verify_claim

    def rigged(claim_id, grid=None, budget=None):
        rep = real(claim_id, grid=grid, budget=budget)
        rep.points[0]["status"] = "fail"
        rep.summary["fail"] += 1
        rep.summary["pass"] -= 1
        return rep

    monkeypatch.setattr(cli.verify, "verify_claim", rigged)
    rc, out, _ = run_cli(capsys, "verify", "--claim", "CLM-D1P", "--grid", "q=3,m=4")
    assert rc == 3


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "cosets", "--q", "2", "--n", "21", "--top", "1", "--out", str(path))
    assert rc == 0 and out == ""
    assert json.loads(path.read_text())["top"] == [9]


def test_verify_all_small_grid(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--all", "--grid", "q=3,m=4")
    doc = json.loads(out)
    assert rc == 0 and doc["ok"] is True
    assert len(doc["claims"]) == 17


def test_bad_budget_exit_code(capsys, monkeypatch):
    code_argv = ("code", "--q", "3", "--m", "4", "--family", "plus", "--delta", "11", "--true-distance")
    rc, out, err = run_cli(capsys, *code_argv, "--max-codewords", "-1")
    assert rc == 1 and "budget" in err and not out
    rc, out, err = run_cli(capsys, "verify", "--claim", "CLM-T1", "--grid", "q=3,m=4", "--max-codewords", "-1")
    assert rc == 1 and "budget" in err and not out
    monkeypatch.setenv("COSETFORGE_BUDGET", "abc")
    rc, out, err = run_cli(capsys, *code_argv)
    assert rc == 1 and "COSETFORGE_BUDGET" in err and not out


@pytest.mark.parametrize(
    "argv",
    [
        ("--claim", "CLM-D1P", "--grid", "q=a"),
        ("--claim", "CLM-D1P", "--grid", "q=3|"),
        ("--claim", "CLM-D1P", "--grid", "m"),
        ("--claim", "CLM-D1P", "--grid", "x=3"),
        ("--all", "--grid", "q=3,x=3"),
        ("--all", "--grid", "q=6"),
        ("--claim", "CLM-T5", "--grid", "q=2"),  # the minus family needs q >= 3
    ],
)
def test_bad_grid_is_usage_error(capsys, argv):
    rc, out, err = run_cli(capsys, "verify", *argv)
    assert rc == 2 and err.startswith("error: ") and not out


def test_grid_pair_filtered_by_checker_still_succeeds(capsys):
    # (2, 4) is a valid plus pair, but CLM-T3 only covers q > 2: zero points, exit 0
    rc, out, _ = run_cli(capsys, "verify", "--claim", "CLM-T3", "--grid", "q=2,m=4")
    assert rc == 0 and json.loads(out)["summary"]["total"] == 0
    rc, out, _ = run_cli(capsys, "verify", "--all", "--grid", "q=2,m=4")
    doc = json.loads(out)
    assert rc == 0 and doc["ok"] is True and len(doc["claims"]) == 17
    assert {c["claim"] for c in doc["claims"] if not c["points"]} >= {"CLM-T3", "CLM-LB1002", "CLM-T5"}


@pytest.mark.parametrize("mode", [["--sweep"], ["--delta", "3"]])
def test_dually_bch_needs_m_at_least_4(capsys, mode):
    rc, out, err = run_cli(capsys, "dually-bch", "--q", "3", "--m", "3", "--family", "minus", *mode)
    assert rc == 1 and not out and "need m >= 4" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dually-bch", "--q", "3", "--m", "4", "--family", "plus"],
        ["dually-bch", "--q", "3", "--m", "4", "--family", "plus", "--sweep", "--delta", "3"],
        ["verify"],
        ["verify", "--claim", "CLM-D1P", "--all", "--grid", "q=3,m=4"],
        ["cosets", "--q", "3"],
        ["cosets", "--q", "3", "--n", "20", "--m", "4", "--top", "1"],
        ["cosets", "--q", "3", "--n", "20", "--family", "plus", "--top", "1"],
        ["cosets", "--q", "2", "--n", "21", "--top", "3", "--coset", "5"],
        ["code", "--q", "3", "--m", "4", "--family", "plus", "--n", "20", "--delta", "3"],
        ["dual", "--q", "3", "--m", "4", "--family", "minus", "--n", "40", "--delta", "3"],
        ["code", "--q", "3", "--m", "4", "--family", "raw", "--delta", "3"],
        ["dual", "--q", "3", "--m", "4", "--family", "raw", "--delta", "3"],
    ],
)
def test_missing_or_conflicting_arguments_are_usage_errors(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and not out and err.startswith("error: ")


HUGE = ["--q", "3", "--m", "40", "--family", "plus"]  # n = (3^40 - 1)/4, about 3e18


@pytest.mark.parametrize("argv", [["cosets", *HUGE, "--top", "3"], ["dually-bch", *HUGE, "--sweep"], ["dually-bch", *HUGE, "--delta", "5"]])
def test_huge_modulus_is_domain_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and out == ""
    assert "exceeds the table-size guard" in err


def test_single_coset_at_huge_modulus(capsys):
    rc, out, _ = run_cli(capsys, "cosets", *HUGE, "--coset", "1", "--max-elements", "0")
    assert rc == 0
    assert json.loads(out) == {"leader": 1, "n": (3**40 - 1) // 4, "q": 3, "size": 40}


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "6", "--m", "4", "--family", "plus", "--delta", "3"],
        ["--q", "10", "--m", "4", "--family", "minus", "--sweep"],
    ],
)
def test_dually_bch_needs_prime_power_q(capsys, argv):
    rc, out, err = run_cli(capsys, "dually-bch", *argv)
    assert rc == 1 and not out and "is not a prime power" in err


def test_sweep_over_output_guard_is_domain_error(capsys, monkeypatch):
    # n = (2^22 - 1)/3 = 1,398,101 is under the table-size guard but over the sweep-output guard
    def never(*args):
        raise AssertionError("the guard must fire before any table is built")

    monkeypatch.setattr(cli.bch, "dually_bch_sweep", never)
    monkeypatch.setattr(cli.cosets, "leader_map", never)
    rc, out, err = run_cli(capsys, "dually-bch", "--q", "2", "--m", "22", "--family", "plus", "--sweep")
    assert rc == 1 and not out
    assert "n = 1398101 exceeds the sweep-output guard 1082401" in err


def test_budget_error_names_the_requested_method(capsys):
    # [20, 16] code over GF(3): 3^4 dual words fit the budget, but --method direct needs 3^16
    argv = ["code", "--q", "3", "--m", "4", "--family", "plus", "--delta", "2", "--true-distance", "--max-codewords", "100"]
    rc, out, err = run_cli(capsys, *argv, "--method", "direct")
    assert rc == 1 and not out
    assert err == "error: method direct needs q^k = 3^16 codewords, over budget 100\n"
    rc, out, err = run_cli(capsys, *argv[:-1], "10", "--method", "dual-macwilliams")
    assert rc == 1 and err == "error: method dual-macwilliams needs q^(n-k) = 3^4 codewords, over budget 10\n"


def test_unknown_claim_message(capsys):
    rc, out, err = run_cli(capsys, "verify", "--claim", "CLM-XYZ")
    assert rc == 1 and not out
    assert err == "error: unknown claim id 'CLM-XYZ'; `cosetforge claims` lists the registry\n"
