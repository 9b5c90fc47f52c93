"""Command-line behaviour: schemas, formats, exit codes, round-tripping."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from cosetforge import bch, cli, cosets, gf, verify
from cosetforge.errors import FamilyConstraint, NotPrime


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


def test_cosets_count_lists_leaders_only_under_the_elision_bound(capsys, monkeypatch):
    rc, out, _ = run_cli(capsys, "cosets", "--q", "2", "--n", "21")
    assert rc == 0 and json.loads(out) == {"count": 6, "leaders": [0, 1, 3, 5, 7, 9], "n": 21, "q": 2}

    def no_listing(*args):
        raise AssertionError("the leaders were listed")

    monkeypatch.setattr(cosets, "coset_leaders", no_listing)  # a count alone reads the map block by block
    rc, out, _ = run_cli(capsys, "cosets", "--q", "2", "--n", "21", "--max-elements", "5")
    assert rc == 0 and json.loads(out) == {"count": 6, "n": 21, "q": 2}


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


def test_dual_report_below_closed_form_range(capsys):
    # dual_bound_closed_form needs m >= 4; at m = 2 the dual reports its other bounds, as code does
    rc, out, _ = run_cli(capsys, "dual", "--q", "3", "--m", "2", "--family", "plus", "--delta", "2")
    doc = json.loads(out)
    assert rc == 0 and doc["dual"]["n"] == 2
    assert "closed_form" not in doc["bounds"] and "bch_run" in doc["bounds"]


# (q, m, family, n, delta, b): plus, minus and raw points with b = 0, 1, 2, 3; the b = 0, delta = 21 point of
# length 21 has T = Z_21, so the code has k = 0 and its dual k = n; the last three are the bound-only big towers
GOLDEN_POINTS = [
    (3, 4, "plus", None, 2, 1),
    (3, 4, "plus", None, 11, 1),
    (3, 4, "plus", None, 3, 2),
    (2, 4, "plus", None, 3, 1),
    (3, 4, "minus", None, 3, 1),
    (3, 4, "minus", None, 4, 0),
    (4, 3, "raw", 21, 10, 1),
    (2, 6, "raw", 21, 5, 1),
    (2, 6, "raw", 21, 3, 3),
    (2, 6, "raw", 21, 21, 0),
    (2, 20, "raw", 1025, 4, 1),
    (3, 12, "raw", 730, 3, 1),
    (3, 10, "plus", None, 4, 1),
]
GOLDEN_RUNS = [[], ["--true-distance"]]
GOLDEN_RUNS += [["--true-distance", "--method", method] for method in ("direct", "dual-macwilliams", "bound-only")]
GOLDEN_RUNS += [["--true-distance", "--max-codewords", "100", "--method", method] for method in ("auto", "direct", "dual-macwilliams")]
GOLDEN_ERRORS = [
    ["code", "--q", "2", "--m", "4", "--family", "raw", "--n", "7", "--delta", "3"],
    ["dual", "--q", "6", "--m", "4", "--family", "raw", "--n", "7", "--delta", "3"],
    ["code", "--q", "8191", "--m", "1", "--family", "raw", "--n", "2", "--delta", "2"],
    ["dual", "--q", "8191", "--m", "1", "--family", "raw", "--n", "4", "--delta", "2"],
    ["code", "--q", "3", "--m", "5", "--family", "plus", "--delta", "3"],
    ["dual", "--q", "2", "--m", "4", "--family", "minus", "--delta", "3"],
    ["code", "--q", "3", "--m", "4", "--family", "plus", "--delta", "21"],
    ["dual", "--q", "3", "--m", "4", "--family", "plus", "--n", "20", "--delta", "3"],
    ["code", "--q", "3", "--m", "4", "--family", "plus", "--delta", "3", "--true-distance", "--max-codewords", "-1"],
]
GOLDEN_FILE = pathlib.Path(__file__).parent / "data" / "code_dual_golden.json"


def golden_grid():
    """Every code and dual run of the golden points, then the error cases."""
    for cmd in ("code", "dual"):
        for q, m, family, n, delta, b in GOLDEN_POINTS:
            point = [cmd, "--q", str(q), "--m", str(m), "--family", family, "--delta", str(delta), "--b", str(b)]
            yield from (point + (["--n", str(n)] if n else []) + extra for extra in GOLDEN_RUNS)
    yield from GOLDEN_ERRORS


def golden_digest(capsys, argv) -> str:
    """The first 16 hex digits of sha256 over the JSON of [exit code, stdout, stderr]."""
    return hashlib.sha256(json.dumps(run_cli(capsys, *argv)).encode()).hexdigest()[:16]


def test_code_and_dual_reports_match_their_golden_bytes(capsys):
    # the digests were taken when code and dual still built the tower and generators for every report
    golden = json.loads(GOLDEN_FILE.read_text())
    assert {" ".join(argv): golden_digest(capsys, argv) for argv in golden_grid()} == golden


def test_reports_that_read_no_generator_build_no_tower(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a tower or generator was built for a report that reads neither")

    gf.tower_for.cache_clear()
    gf.build_tower.cache_clear()
    monkeypatch.setattr(gf, "_smallest_primitive_modulus", never)
    monkeypatch.setattr(bch, "generator_polynomial", never)
    golden = json.loads(GOLDEN_FILE.read_text())
    bound_only = [
        ["code", "--q", "2", "--m", "20", "--family", "raw", "--delta", "4", "--b", "1", "--n", "1025", "--true-distance"],
        ["dual", "--q", "3", "--m", "12", "--family", "raw", "--delta", "3", "--b", "1", "--n", "730", "--true-distance"],
        ["code", "--q", "3", "--m", "10", "--family", "plus", "--delta", "4", "--b", "1", "--true-distance"],
    ]
    summaries = [argv for argv in golden_grid() if "--true-distance" not in argv]  # errors among them
    for argv in summaries + bound_only:
        assert golden_digest(capsys, argv) == golden[" ".join(argv)], argv
    rc, out, _ = run_cli(capsys, *bound_only[2])
    assert rc == 0 and json.loads(out)["distance"]["method"] == "bound-only"


def test_dually_bch_sweep(capsys):
    rc, out, _ = run_cli(capsys, "dually-bch", "--q", "3", "--m", "4", "--family", "plus", "--sweep")
    doc = json.loads(out)
    assert doc["true_intervals"] == [[2, 2], [11, 20]]
    verdicts = {e["delta"]: e["verdict"] for e in doc["sweep"]}
    assert verdicts[2] and not verdicts[3] and verdicts[11]


def sweep_points(max_n):
    """Every (family, q, m) with m >= 4 and n <= max_n (q >= 17 gives n > 3000 at m = 4)."""
    out = []
    for q in range(2, 17):
        for m in range(4, 14):
            for family in ("plus", "minus"):
                try:
                    gf.prime_power(q)
                    n = cosets.family_length(q, m, family)
                except (NotPrime, FamilyConstraint):
                    continue
                if n <= max_n:
                    out.append((family, q, m))
    return out


def old_sweep_report(family, q, m, fmt):
    """The sweep report as built before row templates: one dict per delta, then the generic renderers."""
    n = cosets.family_length(q, m, family)
    return per_delta_report({"q": q, "m": m, "family": family, "n": n}, [bool(v) for v in bch.dually_bch_sweep(q, n)], fmt)


def per_delta_report(header, flags, fmt):
    """A sweep report with the given header fields and verdicts for delta = 2, 3, ..., built one dict per delta."""
    if fmt == "json":
        runs = []
        for d, v in zip(range(2, header["n"] + 1), flags):
            if v and runs and runs[-1][1] == d - 1:
                runs[-1][1] = d
            elif v:
                runs.append([d, d])
        doc = {**header, "sweep": [{"delta": d, "verdict": v} for d, v in zip(range(2, header["n"] + 1), flags)], "true_intervals": runs}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    rows = [["delta", "verdict"]] + [[str(d), "true" if v else "false"] for d, v in zip(range(2, header["n"] + 1), flags)]
    if fmt == "csv":
        return "\n".join(",".join('"' + c.replace('"', '""') + '"' if ("," in c or '"' in c) else c for c in row) for row in rows) + "\n"
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows) + "\n"


def assert_same_text(got, want, label):
    """Equal text, or a failure naming the first line that differs (pytest's own diff of megabyte strings takes minutes)."""
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"{label}: line {i + 1} is {g[i : i + 1]}, want {w[i : i + 1]} ({len(g)} lines, want {len(w)})")


SWEEP_POINTS = sweep_points(3000) + [("plus", 16, 4)]  # n = 3855: T3's m = 4 case, true at delta = 2


@pytest.mark.parametrize("family,q,m", SWEEP_POINTS)
def test_sweep_rendering_matches_per_delta_dicts(capsys, tmp_path, family, q, m):
    argv = ["dually-bch", "--q", str(q), "--m", str(m), "--family", family, "--sweep"]
    for fmt in ("json", "csv", "table"):
        want = old_sweep_report(family, q, m, fmt)
        rc, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert rc == 0 and not err
        assert_same_text(out, want, fmt)
        path = tmp_path / f"sweep.{fmt}"
        rc, out, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(path))
        assert rc == 0 and out == ""
        assert_same_text(path.read_text(), want, fmt)
    rc, out, _ = run_cli(capsys, *argv)
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    if (family, q, m) == ("plus", 16, 4):
        assert json.loads(out)["sweep"][0] == {"delta": 2, "verdict": True}


SYNTHETIC_VERDICTS = {
    "all-false": np.zeros(12344, dtype=bool),
    "all-true": np.ones(12344, dtype=bool),
    "alternating": np.arange(12344) % 2 == 0,
    "random": np.random.default_rng(20261019).random(12344) < 0.5,
    "shortest": np.array([True, False, False, True]),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_VERDICTS))
def test_sweep_rendering_of_synthetic_verdicts(name):
    # deltas 2..12345 cross four digit counts; the verdicts change at no edge, at every row, or at random
    verdicts = SYNTHETIC_VERDICTS[name]
    header = {"q": 2, "m": 4, "family": "plus", "n": verdicts.size + 1}
    doc = {**header, "sweep": verdicts, "true_intervals": verify._intervals(verdicts, 2)}
    for fmt in ("json", "csv", "table"):
        assert_same_text("".join(cli._sweep_pieces(doc, fmt)), per_delta_report(header, verdicts.tolist(), fmt), fmt)


@pytest.mark.parametrize("block", [1, 7, 10])
@pytest.mark.parametrize("family,q,m", [("plus", 3, 4), ("minus", 3, 7), ("plus", 16, 4)])
def test_sweep_rendering_across_block_edges(capsys, monkeypatch, block, family, q, m):
    # blocks of 1, 7 and 10 rows put block edges on digit edges (delta = 100 sits at row 98 = 14 * 7) and verdict edges
    monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
    argv = ["dually-bch", "--q", str(q), "--m", str(m), "--family", family, "--sweep"]
    for fmt in ("json", "csv", "table"):
        rc, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert rc == 0
        assert_same_text(out, old_sweep_report(family, q, m, fmt), fmt)
    n = cosets.family_length(q, m, family)
    doc = {"q": q, "m": m, "family": family, "n": n, "sweep": bch.dually_bch_sweep(q, n), "true_intervals": []}
    assert max(piece.count("\n") for piece in list(cli._sweep_pieces(doc, "csv"))[1:-1]) <= block


def test_sweep_rendering_with_six_digit_deltas(capsys):
    # n = 209,715: six-digit deltas, a six-wide table column and four SWEEP_BLOCK pieces
    argv = ["dually-bch", "--q", "4", "--m", "10", "--family", "plus", "--sweep"]
    for fmt in ("csv", "table"):
        rc, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert rc == 0
        assert_same_text(out, old_sweep_report("plus", 4, 10, fmt), fmt)
    assert out.splitlines()[-1] == "209715  true"


def test_sweep_report_memory_is_a_few_blocks_not_the_sweep(tmp_path):
    # the peak is set by SWEEP_BLOCK rows of the widest (json) row, about 3.8 MB here; the whole
    # json report would be 12.2 MB, and holding it as bytes and text would pass 24 MB
    n = cosets.family_length(4, 10, "plus")
    widest = len('    {\n      "delta": %d,\n      "verdict": false\n    },\n' % n)
    argv = ["dually-bch", "--q", "4", "--m", "10", "--family", "plus", "--sweep", "--out", str(tmp_path / "sweep")]
    for fmt in ("json", "csv", "table"):
        assert cli.main(argv + ["--format", fmt]) == 0  # the leader map is warm from here on
        tracemalloc.start()
        try:
            assert cli.main(argv + ["--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * cli.SWEEP_BLOCK * widest, (fmt, peak)


def test_closed_pipe_ends_quietly():
    # `cosetforge dually-bch ... --sweep | head -1`: the 1.2 MB report outgrows the pipe, so the reader's close stops the writer
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "cosetforge", "dually-bch", "--q", "2", "--m", "16", "--family", "plus", "--sweep"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.communicate(timeout=60)[1].decode()
        finally:
            proc.kill()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert proc.returncode == 141  # 128 + SIGPIPE


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


def test_budget_past_the_key_width_is_a_domain_error(capsys):
    # q^k = 2^120 fits a budget of 10^40, but base-2 keys of 120 digits hold no fixed-width integer
    argv = ["code", "--q", "2", "--m", "7", "--family", "raw", "--n", "127", "--delta", "3", "--true-distance", "--method", "direct"]
    rc, out, err = run_cli(capsys, *argv, "--max-codewords", str(10**40))
    assert rc == 1 and not out
    assert err.splitlines() == ["error: enumeration budget a 133-bit number exceeds the ceiling 2^63"]
    rc, out, err = run_cli(capsys, *argv, "--max-codewords", str(2**63))
    assert rc == 1 and not out and err.startswith("error: method direct needs q^k = 2^120 codewords")


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


GIANT = ["--q", "3", "--m", "10000"]  # 3^10000 has 4,772 digits, past the 4,300 that str() of an int allows


@pytest.mark.parametrize(
    "argv",
    [
        ["cosets", *GIANT, "--family", "minus", "--top", "1"],  # cosets.family_length
        ["dually-bch", *GIANT, "--family", "minus", "--delta", "1"],  # cosets.family_length
        ["cosets", *GIANT, "--family", "minus", "--coset", "-1"],  # cosets.family_length
        ["code", *GIANT, "--family", "raw", "--n", "4", "--delta", "2"],  # gf.check_tower_order
        ["code", *GIANT, "--family", "raw", "--n", "7", "--delta", "2"],  # gf.check_tower_order, before bch.build_family_code tests n | 3^10000 - 1
    ],
)
def test_giant_m_is_one_error_line(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


HUGE_PRIME = "100000000000000000039"  # a prime near 10^20: trial division to its square root would take hours


@pytest.mark.parametrize(
    "argv",
    [
        ["dually-bch", "--q", HUGE_PRIME, "--m", "4", "--family", "plus", "--delta", "3"],  # family n over the guard
        ["dually-bch", "--q", HUGE_PRIME, "--m", "4", "--family", "plus", "--sweep"],
        ["code", "--q", HUGE_PRIME, "--m", "4", "--family", "plus", "--delta", "3"],  # tower order over the guard
        ["dual", "--q", HUGE_PRIME, "--m", "4", "--family", "raw", "--n", "5", "--delta", "3"],
        ["verify", "--claim", "CLM-T1", "--grid", f"q={HUGE_PRIME},m=4"],  # grid point over the guard
    ],
)
def test_huge_prime_q_is_refused_before_it_is_decomposed(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert rc == 1 and not out
    assert err.startswith("error: ") and "exceeds the" in err and err.count("\n") == 1


@pytest.mark.parametrize("q", ["8191", "1000003"])
def test_subfield_over_the_table_guard_is_one_error_line(q):
    # unguarded, the q x q GF(q) tables take about 1.5 GB at q = 8191 and end in a MemoryError traceback at q = 1000003
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "cosetforge", "code", "--q", q, "--m", "1", "--family", "raw", "--n", "2", "--delta", "2"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr == f"error: q = {q} exceeds the subfield guard 4096 of the q x q tables\n"


def test_raw_code_on_a_2_24_tower_is_quick(capsys):
    # the tower holds no table over its 2^24 elements; only the n = 241 structures grow with the query
    gf.tower_for.cache_clear()
    gf.build_tower.cache_clear()
    start = time.perf_counter()
    rc, out, _ = run_cli(capsys, "code", "--q", "2", "--m", "24", "--family", "raw", "--n", "241", "--delta", "3")
    assert time.perf_counter() - start < 2
    doc = json.loads(out)
    assert rc == 0 and (doc["dim"], doc["genpoly_degree"]) == (217, 24)
    # the report reads no generator, so the library builds the tower and the degree-24 generator here
    start = time.perf_counter()
    _, code = bch.build_family_code(2, 24, "raw", 3, n=241)
    assert time.perf_counter() - start < 2 and code.genpoly.degree == 24


def test_family_length_past_the_digit_cap_is_one_error_line(capsys):
    # an in-range coset: the walk would succeed, but n could not be printed
    rc, out, err = run_cli(capsys, "cosets", *GIANT, "--family", "minus", "--coset", "5")
    assert rc == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "4300 decimal digits" in err
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "cosets", "--q", "3", "--m", str(3 * 10**7), "--family", "minus", "--coset", "5")
    assert rc == 1 and not out and err.startswith("error: ")
    assert time.perf_counter() - start < 0.5  # refused from m*log10(q), without forming 3^m
    # 3^8000 has 3,818 digits: still printed
    rc, out, _ = run_cli(capsys, "cosets", "--q", "3", "--m", "8000", "--family", "minus", "--coset", "5", "--max-elements", "0")
    assert rc == 0
    assert json.loads(out) == {"leader": 5, "n": (3**8000 - 1) // 2, "q": 3, "size": 8000}


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
    # n = (79^5 - 1)/78 = 39,449,441 is under the table-size guard but over the sweep-output guard
    def never(*args):
        raise AssertionError("the guard must fire before any table is built")

    monkeypatch.setattr(cli.bch, "dually_bch_sweep", never)
    monkeypatch.setattr(cli.cosets, "leader_map", never)
    rc, out, err = run_cli(capsys, "dually-bch", "--q", "79", "--m", "5", "--family", "minus", "--sweep")
    assert rc == 1 and not out
    assert "n = 39449441 exceeds the sweep-output guard 38386660" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["code", "--q", "2", "--m", "4", "--family", "raw", "--n", "0", "--delta", "3"], "need n >= 1 and m >= 1, got n=0, m=4"),
        (["code", "--q", "2", "--m", "4", "--family", "raw", "--n", "-5", "--delta", "3"], "need n >= 1 and m >= 1, got n=-5, m=4"),
        (["dual", "--q", "3", "--m", "0", "--family", "raw", "--n", "2", "--delta", "2"], "need n >= 1 and m >= 1, got n=2, m=0"),
        (["code", "--q", "2", "--m", "4", "--family", "raw", "--n", "7", "--delta", "3"], "n=7 does not divide q^m-1=15"),
        (["code", "--q", "6", "--m", "4", "--family", "raw", "--n", "7", "--delta", "3"], "6 is not a prime power"),
        (["code", "--q", "3", "--m", "-4", "--family", "minus", "--delta", "3"], "need m >= 1, got m=-4"),
        (["cosets", "--q", "3", "--m", "-4", "--family", "minus"], "need m >= 1, got m=-4"),
    ],
)
def test_bad_length_or_degree_is_domain_error_before_any_tower(capsys, monkeypatch, argv, message):
    def never(*args):
        raise AssertionError("a bad n or m must be rejected before the tower is built")

    monkeypatch.setattr(bch.gf, "tower_for", never)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("grid", ["q=2|2,m=4", "q=2,q=3,m=4", "q=3,m=4|6|4"])
def test_repeated_grid_key_or_value_is_usage_error(capsys, grid):
    for argv in (["--claim", "CLM-D1P"], ["--all"]):
        rc, out, err = run_cli(capsys, "verify", *argv, "--grid", grid)
        assert rc == 2 and not out and err.startswith("error: ")
        assert "twice" in err or "must not repeat" in err


def test_qm1_needs_m_at_least_4(capsys):
    # at m = 3 the third closed form is wrong ([17, 14, 8] against [17, 14, 13] for q = 3)
    rc, out, err = run_cli(capsys, "verify", "--claim", "CLM-QM1", "--grid", "q=3,m=3")
    assert rc == 2 and not out and "selects no valid (q, m) pair for CLM-QM1" in err
    rc, out, _ = run_cli(capsys, "verify", "--claim", "CLM-QM1", "--grid", "q=3,m=4")
    assert rc == 0 and json.loads(out)["summary"]["pass"] == 1


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
