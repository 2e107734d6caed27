"""Command-line verbs: payloads, formats, and exit codes."""

import csv
import io
import json
import subprocess
import sys

import pytest

from fqx import CSV_COLUMNS
from fqx.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# basic verbs


def test_field_verb(capsys):
    payload = run_json(capsys, "field", "--p", "2", "--e", "2")
    assert payload == {"p": 2, "e": 2, "q": 4, "modulus": "1,1,1"}
    prime = run_json(capsys, "field", "--p", "5")
    assert prime["q"] == 5 and prime["modulus"] is None


def test_field_verb_rejects_composite_characteristic(capsys):
    code, out, err = run_cli(capsys, "field", "--p", "4", "--e", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "p not prime" in err


def test_poly_verb_both_directions(capsys):
    by_index = run_json(capsys, "poly", "--q", "3", "--index", "5")
    assert by_index["coeffs"] == "2,1"
    assert by_index["pretty"] == "x+2"
    assert by_index["degree"] == 1 and by_index["monic"] is True
    by_text = run_json(capsys, "poly", "--q", "3", "--text", "x+2")
    assert by_text["index"] == 5


def test_irreducibles_verb(capsys):
    payload = run_json(capsys, "irreducibles", "--q", "2", "--max-degree", "3")
    assert payload["counts"] == {"1": 2, "2": 1, "3": 2}
    assert payload["polys"]["1"] == ["0,1", "1,1"]
    assert payload["polys"]["2"] == ["1,1,1"]
    counts = run_json(
        capsys, "irreducibles", "--q", "3", "--max-degree", "4", "--counts-only"
    )
    assert counts["counts"] == {"1": 3, "2": 3, "3": 8, "4": 18}
    assert "polys" not in counts


def test_zeta_verb(capsys):
    payload = run_json(capsys, "zeta", "--q", "2", "--j", "2", "--t", "1")
    assert payload["zeta_inverse"] == "1/2"
    assert payload["truncated"] == "9/16"
    assert payload["gap"] == "1/16"
    assert payload["tail_bound"] == "1/1"
    assert payload["within_bound"] is True


def test_density_verb_unimodular(capsys):
    payload = run_json(capsys, "density", "--q", "2", "--k", "1", "--n", "2")
    assert payload["density"] == "1/2"
    assert payload["predicate"] == "unimodular"


def test_density_verb_coprime_and_divisible(capsys):
    coprime = run_json(
        capsys, "density", "--q", "2", "--k", "1", "--n", "2",
        "--coprime-to", "0,1;1,1",
    )
    assert coprime["density"] == "9/16"
    divisible = run_json(
        capsys, "density", "--q", "2", "--k", "1", "--n", "2",
        "--divisible-degree", "1",
    )
    assert divisible["density"] == "1/4"
    assert divisible["bound"] == "1/2"


def test_decimals_add_siblings_without_replacing(capsys):
    payload = run_json(
        capsys, "density", "--q", "2", "--k", "1", "--n", "2", "--decimals", "4"
    )
    assert payload["density"] == "1/2"
    assert payload["density_decimal"] == "0.5000"


# ---------------------------------------------------------------------------
# census-like verbs


def test_census_verb_row(capsys):
    row = run_json(
        capsys, "census", "--q", "2", "--k", "1", "--n", "2", "--N", "3"
    )
    assert row["hits"] == 9 and row["total"] == 16
    assert row["ratio"] == "9/16"
    assert row["theory"] == "1/2"
    assert row["gap"] == "1/16"


def test_census_verb_csv(capsys):
    code, out, err = run_cli(
        capsys, "census", "--q", "2", "--k", "1", "--n", "2", "--N", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert ",9,16,9/16," in lines[1]


def test_census_verb_coprime_predicate(capsys):
    row = run_json(
        capsys, "census", "--q", "2", "--k", "1", "--n", "2", "--N", "3",
        "--coprime-to", "0,1;1,1",
    )
    assert row["predicate"] == "coprime[0,1;1,1]"
    assert row["ratio"] == "9/16"
    assert row["theory"] == "9/16"
    assert row["gap"] == "0/1"


def test_mc_verb_is_reproducible(capsys):
    args = (
        "mc", "--q", "2", "--k", "1", "--n", "2", "--N", "15",
        "--samples", "2048", "--seed", "99",
    )
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first == second
    assert first["samples"] == 2048
    assert first["seed"] == 99
    assert first["rng_id"] == "philox4x64/pages1024"
    assert first["ci"] > 0


def test_lemma_check_verb(capsys):
    payload = run_json(
        capsys, "lemma-check", "--q", "2", "--k", "1", "--n", "2",
        "--coprime-to", "0,1",
    )
    assert payload["census_hits"] == 3
    assert payload["closed_form"] == 3
    assert payload["match"] is True
    scaled = run_json(
        capsys, "lemma-check", "--q", "2", "--k", "1", "--n", "2",
        "--coprime-to", "0,1;1,1", "--multiplier", "2",
    )
    assert scaled["match"] is True
    assert scaled["N"] == 7


def test_converge_verb(capsys):
    code, out, err = run_cli(
        capsys, "converge", "--q", "2", "--k", "1", "--n", "2",
        "--schedule", "1,3,7",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["ratio"] for r in rows] == ["3/4", "9/16", "33/64"]
    assert all(r["theory"] == "1/2" for r in rows)


def test_converge_verb_csv_with_decimals(capsys):
    code, out, err = run_cli(
        capsys, "converge", "--q", "2", "--k", "1", "--n", "2",
        "--schedule", "1,3", "--format", "csv", "--decimals", "3",
    )
    assert code == 0
    lines = out.splitlines()
    expected_header = CSV_COLUMNS + ["ratio_decimal", "theory_decimal", "gap_decimal"]
    assert lines[0] == ",".join(expected_header)
    assert len(lines) == 3
    assert lines[1].endswith("0.750,0.500,0.250")


DECIMAL_COLUMNS = ["ratio_decimal", "theory_decimal", "gap_decimal"]


def test_census_decimals_past_the_int_string_limit(capsys):
    # the closed form 1 - 2**-14999 has terms of more than 4300 digits
    args = ("census", "--q", "2", "--k", "1", "--n", "15000", "--N", "0")
    plain = run_json(capsys, *args)
    row = run_json(capsys, *args, "--decimals", "3")
    for key in ("ratio", "theory", "gap"):
        assert row[key] == plain[key]
    assert [row[k] for k in DECIMAL_COLUMNS] == ["0.000", "1.000", "1.000"]


def test_converge_csv_decimals_past_the_int_string_limit(capsys):
    args = (
        "converge", "--q", "2", "--k", "1", "--n", "15000", "--schedule", "0",
        "--format", "csv",
    )
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    [plain] = list(csv.DictReader(io.StringIO(out)))
    code, out, err = run_cli(capsys, *args, "--decimals", "3")
    assert code == 0, err
    [row] = list(csv.DictReader(io.StringIO(out)))
    for key in ("ratio", "theory", "gap"):
        assert row[key] == plain[key]
    assert [row[k] for k in DECIMAL_COLUMNS] == ["0.000", "1.000", "1.000"]


def test_census_row_decimals_follow_the_fixed_columns(capsys):
    code, out, err = run_cli(
        capsys, "census", "--q", "2", "--k", "1", "--n", "2", "--N", "3",
        "--decimals", "3",
    )
    assert code == 0, err
    assert list(json.loads(out)) == CSV_COLUMNS + DECIMAL_COLUMNS


def test_census_row_without_closed_form_has_empty_theory_decimal(capsys):
    row = run_json(
        capsys, "census", "--q", "2", "--k", "2", "--n", "2", "--N", "1",
        "--divisible-by", "0,1", "--decimals", "3",
    )
    assert row["theory"] == "" and row["gap"] == ""
    assert row["theory_decimal"] == "" and row["gap_decimal"] == ""
    assert row["ratio_decimal"] != ""


def test_irreducibles_csv_cells_hold_json(capsys):
    code, out, err = run_cli(
        capsys, "irreducibles", "--q", "2", "--max-degree", "2", "--format", "csv"
    )
    assert code == 0, err
    [row] = list(csv.DictReader(io.StringIO(out)))
    assert json.loads(row["counts"]) == {"1": 2, "2": 1}
    assert json.loads(row["polys"]) == {"1": ["0,1", "1,1"], "2": ["1,1,1"]}


def test_converge_mc_csv_writes_one_line_per_row(capsys):
    code, out, err = run_cli(
        capsys, "converge", "--q", "2", "--k", "1", "--n", "2", "--mode", "mc",
        "--schedule", "1,3,7", "--samples", "50", "--seed", "5", "--format", "csv",
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(lines) == 4 and [r["N"] for r in rows] == ["1", "3", "7"]
    assert [r["seed"] for r in rows] == ["5", "6", "7"]


# ---------------------------------------------------------------------------
# matrix verbs


def test_unimodular_verb(capsys):
    payload = run_json(capsys, "unimodular", "--q", "2", "--matrix", "0,1|1,1")
    assert payload["unimodular"] is True
    assert payload["minors_gcd"] == "1"
    bad = run_json(capsys, "unimodular", "--q", "2", "--matrix", "0,1|0,0,1")
    assert bad["unimodular"] is False
    assert bad["minors_gcd_pretty"] == "x"


def test_complete_verb(capsys):
    payload = run_json(capsys, "complete", "--q", "2", "--matrix", "1|0,1")
    assert payload["completion"] == "0|1"
    assert payload["stacked"] == "1|0,1;0|1"
    assert payload["determinant"] == "1"
    assert payload["rows_added"] == 1


def test_complete_verb_rejects_nonunimodular(capsys):
    code, out, err = run_cli(
        capsys, "complete", "--q", "2", "--matrix", "0,1|0,0,1"
    )
    assert code == 1
    assert "not unimodular" in err


def test_snf_verb(capsys):
    payload = run_json(capsys, "snf", "--q", "2", "--matrix", "0,1|0,0,1")
    assert payload["invariants"] == ["0,1"]
    assert payload["invariants_pretty"] == ["x"]
    # sanity: the reported factors multiply back to the input
    from fqx import field_from_order, parse_matrix
    from oracles import matmul

    spec = field_from_order(2)
    u = parse_matrix(spec, payload["U"])
    d = parse_matrix(spec, payload["D"])
    v = parse_matrix(spec, payload["V"])
    a = parse_matrix(spec, "0,1|0,0,1")
    assert matmul(matmul(u, d), v) == a


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_2(capsys):
    assert main(["census", "--q", "2"]) == 2  # missing required args
    capsys.readouterr()
    assert main(["not-a-verb"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["mc", "--q", "2", "--k", "1", "--n", "2", "--N", "3",
                 "--samples", "10"]) == 2  # --seed missing
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "census" in out and "lemma-check" in out


def test_domain_errors_exit_1(capsys):
    code, out, err = run_cli(capsys, "zeta", "--q", "6", "--j", "2")
    assert code == 1 and "error:" in err
    code, out, err = run_cli(
        capsys, "unimodular", "--q", "2", "--matrix", "1;0,1"
    )
    assert code == 1 and "more rows than columns" in err
    code, out, err = run_cli(
        capsys, "poly", "--q", "2", "--text", "1,7"
    )
    assert code == 1 and "error:" in err


def test_budget_exhaustion_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "census", "--q", "2", "--k", "2", "--n", "2", "--N", "3",
        "--budget", "10",
    )
    assert code == 3
    assert "budget" in err


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("FQX_CENSUS_BUDGET", "10")
    code, out, err = run_cli(
        capsys, "census", "--q", "2", "--k", "2", "--n", "2", "--N", "3"
    )
    assert code == 3
    # an explicit flag wins over the environment
    code, out, err = run_cli(
        capsys, "census", "--q", "2", "--k", "2", "--n", "2", "--N", "3",
        "--budget", "300",
    )
    assert code == 0


# ---------------------------------------------------------------------------
# the installed entry points


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fqx", "density", "--q", "2", "--k", "1", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["density"] == "1/2"


def test_console_script():
    proc = subprocess.run(
        ["fqx", "field", "--p", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q"] == 3
