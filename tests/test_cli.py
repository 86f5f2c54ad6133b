import json

import pytest

from hodgerep.cli import main

pytestmark = pytest.mark.usefixtures("capsys")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inspect_c3(capsys):
    code, out, _ = run(capsys, "inspect", "C3", "--E", "3", "--mu", "0,0,1")
    assert code == 0
    assert "hodge: [1, 6, 6, 1]" in out
    assert "real_form: sp(3,R)" in out
    assert "reality: real" in out


def test_inspect_a1_level3(capsys):
    code, out, _ = run(capsys, "inspect", "A1", "--E", "1", "--mu", "3")
    assert code == 0
    assert "hodge: [1, 1, 1, 1]" in out


def test_inspect_shape_invalid_exit_2(capsys):
    code, out, _ = run(capsys, "inspect", "A2", "--E", "1", "--mu", "1,1")
    assert code == 2
    assert "eigenspaces" in out  # diagnostics still printed


def test_inspect_product(capsys):
    code, out, _ = run(capsys, "inspect", "A1xB3", "--E", "1x1", "--mu", "1x1,0,0")
    assert code == 0
    assert "hodge: [1, 6, 6, 1]" in out


def test_inspect_parse_error_exit_64(capsys):
    code, _, err = run(capsys, "inspect", "Z9", "--E", "1", "--mu", "1")
    assert code == 64
    code, _, err = run(capsys, "inspect", "A2", "--E", "1", "--mu", "1")
    assert code == 64  # wrong mu arity


def test_usage_error_exit_64(capsys):
    code, _, _ = run(capsys, "classify", "--level", "2", "--max-rank", "3")
    assert code == 64


def test_removed_max_coord_sum_flag_exit_64(capsys):
    code, _, _ = run(capsys, "classify", "--level", "3", "--max-rank", "3",
                     "--max-coord-sum", "3")
    assert code == 64


@pytest.mark.parametrize("command", [
    ["inspect", "C3", "--E", "3", "--mu", "0,0,1"],
    ["classify", "--level", "3", "--max-rank", "3"],
    ["verify-paper", "--scope", "thm2.1", "--max-rank", "3"],
], ids=["inspect", "classify", "verify-paper"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_max_dim_exit_64(capsys, command, value):
    code, out, err = run(capsys, *command, f"--max-dim={value}")
    assert code == 64
    assert "--max-dim: expected a positive integer" in err
    assert out == ""


def test_resource_guard_exit_70(capsys):
    code, _, err = run(capsys, "inspect", "C3", "--E", "3", "--mu", "0,0,1",
                       "--max-dim", "10")
    assert code == 70
    assert "resource" in err.lower()


def test_classify_json_includes_c3(capsys):
    code, out, _ = run(capsys, "classify", "--level", "3", "--families", "C",
                       "--max-rank", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    rec = next(r for r in records if r["algebra"] == "C3" and r["E"] == [3])
    assert rec["hodge"] == [1, 6, 6, 1]
    assert rec["c"] == "0"
    # schema-stable field order
    assert list(rec) == ["algebra", "E", "mu", "c", "span", "level", "reality",
                         "hodge", "real_form", "canonical"]


def test_classify_level1_spin_reality_flips(capsys):
    code, out, _ = run(capsys, "classify", "--level", "1", "--families", "B",
                       "--max-rank", "5", "--format", "json")
    assert code == 0
    records = json.loads(out)
    spin = {}
    for r in records:
        rank = int(r["algebra"][1:])
        if r["mu"] == [0] * (rank - 1) + [1] and r["E"] == [1]:
            spin[rank] = r["reality"]
    assert spin == {2: "real", 3: "quaternionic", 4: "quaternionic", 5: "real"}


def test_classify_products_includes_three_factor_row(capsys):
    code, out, _ = run(capsys, "classify", "--level", "3", "--products",
                       "--max-rank", "4", "--format", "json")
    assert code == 0
    records = json.loads(out)
    row = next(r for r in records if r["algebra"] == "A1xA1xA1")
    assert row["hodge"] == [1, 3, 3, 1]
    assert row["reality"] == "real"


def test_classify_deterministic_bytes(capsys):
    args = ["classify", "--level", "3", "--families", "A,B", "--max-rank", "3",
            "--format", "json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_rationals_never_decimal(capsys):
    _, out, _ = run(capsys, "classify", "--level", "3", "--families", "A",
                    "--max-rank", "4", "--format", "json")
    for rec in json.loads(out):
        assert "." not in rec["c"]


def test_verify_thm21_clean_exit(capsys):
    code, out, _ = run(capsys, "verify-paper", "--scope", "thm2.1",
                       "--format", "markdown", "--max-rank", "5")
    assert code == 0
    assert "result: clean" in out


def test_verify_prop39_allowlisted_items_flagged(capsys):
    code, out, _ = run(capsys, "verify-paper", "--scope", "prop3.9",
                       "--format", "json", "--max-rank", "5")
    assert code == 0  # mismatches are on the allowlist
    payload = json.loads(out)
    flagged = {r["item"] for r in payload["rows"] if r["status"] == "mismatch"}
    assert flagged == {4, 5}
    item5 = next(r for r in payload["rows"] if r["item"] == 5)
    h_diff = next(f for f in item5["diffs"][0]["fields"] if f["field"] == "h")
    assert h_diff["computed"] == "[1, 7, 7, 1]"
    assert h_diff["paper"] == "[1, 34, 34, 1]"


def test_verify_strict_exit_1(capsys):
    code, _, _ = run(capsys, "verify-paper", "--scope", "prop3.9",
                     "--format", "csv", "--max-rank", "5", "--strict")
    assert code == 1


def test_verify_csv_and_markdown_smoke(capsys):
    for fmt in ("csv", "markdown"):
        code, out, _ = run(capsys, "verify-paper", "--scope", "prop3.11",
                           "--format", fmt, "--max-rank", "3")
        assert code == 0 and "prop3.11" in out


def test_records_round_trip_losslessly(capsys):
    from fractions import Fraction

    from hodgerep.classify import SearchConfig, enumerate_level, evaluate_simple
    from hodgerep.cli import _parse_factor_lists, record_of
    from hodgerep.hodgecore import HodgeTuple

    cfg = SearchConfig(max_rank=3, level=3, families=frozenset("ABC"),
                       include_products=True)
    for t in enumerate_level(cfg):
        rec = record_of(t)
        # textual form survives JSON exactly
        assert json.loads(json.dumps(rec)) == rec
        # the rational survives the p/q rendering exactly
        assert Fraction(rec["c"]) == t.c
        # the candidate can be rebuilt from the serialized identity
        if isinstance(t, HodgeTuple):
            e_text = ",".join(str(n) for n in rec["E"])
            mu_text = ",".join(str(c) for c in rec["mu"])
        else:
            e_text = "x".join(",".join(str(n) for n in part) for part in rec["E"])
            mu_text = "x".join(",".join(str(c) for c in part) for part in rec["mu"])
        factors = _parse_factor_lists(rec["algebra"], e_text, mu_text)
        if isinstance(t, HodgeTuple):
            rebuilt = evaluate_simple(factors[0].lie_type, factors[0].E,
                                      factors[0].mu, rec["level"])
        else:
            from hodgerep.products import combine
            rebuilt = combine(factors)
        back = record_of(rebuilt)
        back["canonical"] = rec["canonical"]  # annotation, not identity
        assert back == rec
