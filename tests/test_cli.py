import hashlib
import json

import pytest

import hodgerep.hodgecore as hodgecore
import hodgerep.products as products
from hodgerep.cli import main

from test_hodgecore import _no_orbit_route

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


@pytest.mark.parametrize("argv,code,ladders", [
    (["C3", "--E", "3", "--mu", "0,0,1"], 0, 1),
    (["A1xD4", "--E", "1x1", "--mu", "1x1,0,0,0"], 0, 2),
    (["A2", "--E", "1", "--mu", "1,1"], 2, 1),
    (["A2xA2", "--E", "1x1", "--mu", "1,0x1,0"], 0, 1),
], ids=["simple", "product", "simple-shape-invalid", "product-repeated-factor"])
def test_inspect_builds_one_ladder_per_factor(capsys, monkeypatch, argv, code, ladders):
    """The span, the printed ladders and the assembly read one summary per
    distinct factor, so each factor's ladder is built once, also when a
    product names the same factor twice."""
    calls = []
    real = hodgecore.eigen_ladder

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in (hodgecore, products):
        monkeypatch.setattr(module, "eigen_ladder", counting)
    assert run(capsys, "inspect", *argv)[0] == code
    assert len(calls) == ladders, calls


@pytest.mark.parametrize("algebra, e_text, mu_text, message", [
    ("A3", "1", "1,,0,0", "--mu for A3 has an empty field: '1,,0,0'"),
    ("A3", "1", "1,0,0,", "--mu for A3 has an empty field: '1,0,0,'"),
    ("A3", "1,,2", "1,0,0", "--E for A3 has an empty field: '1,,2'"),
    ("A3", "", "1,0,0", "--E for A3 has an empty field: ''"),
    ("A1xA1", "1x", "1x1", "--E for A1 has an empty field: ''"),
    ("A1xA1", "1x1", "1x ", "--mu for A1 has an empty field: ' '"),
], ids=["mu-inner", "mu-trailing", "E-inner", "E-empty", "E-factor", "mu-blank-factor"])
def test_inspect_empty_field_exit_64(capsys, algebra, e_text, mu_text, message):
    """An empty --E or --mu field is a usage error, not a field to skip:
    "1,,0,0" is four fields, not the three of (1, 0, 0)."""
    code, out, err = run(capsys, "inspect", algebra, "--E", e_text, "--mu", mu_text)
    assert (code, out, err) == (64, "", f"error: {message}\n")


def test_inspect_parse_error_exit_64(capsys):
    code, _, err = run(capsys, "inspect", "Z9", "--E", "1", "--mu", "1")
    assert code == 64
    code, _, err = run(capsys, "inspect", "A2", "--E", "1", "--mu", "1")
    assert code == 64  # wrong mu arity


def test_usage_error_exit_64(capsys):
    code, _, _ = run(capsys, "classify", "--level", "2", "--max-rank", "3")
    assert code == 64


def test_inspect_product_below_level_3_exit_64(capsys):
    code, out, err = run(capsys, "inspect", "A1xA1", "--E", "1x1", "--mu", "1x1",
                         "--level", "1")
    assert (code, out) == (64, "")
    assert "--level 1 needs one factor" in err


def test_classify_empty_family_list_exit_64(capsys):
    code, out, err = run(capsys, "classify", "--level", "1", "--max-rank", "3",
                         "--families", ",")
    assert (code, out) == (64, "")
    assert "families must name at least one family" in err


def test_classify_unknown_family_exit_64(capsys):
    """SearchConfig holds the one unknown-family check; its message is the
    usage error."""
    code, out, err = run(capsys, "classify", "--level", "3", "--max-rank", "3",
                         "--families", "A,z")
    assert (code, out, err) == (64, "", "error: unknown families ['Z']\n")


def test_classify_level1_products_exit_64(capsys):
    """--products at level 1 is refused, not ignored: no product has
    level 1."""
    code, out, err = run(capsys, "classify", "--level", "1", "--max-rank", "3",
                         "--products")
    assert (code, out, err) == (
        64, "", "error: products need level 3: factor levels add, so no product "
                "has level 1\n")


def _drop(*path):
    def mutate(raw):
        *outer, last = path
        for key in outer:
            raw = raw[key]
        raw.pop(last)
    return mutate


def _set(table, name, value):
    return lambda raw: raw["tables"][table].__setitem__(name, value)


def _set_entry(pos, name, value):
    return lambda raw: raw["allowlist"][pos].__setitem__(name, value)


def _truncate(length):
    """The file cut after `length` characters, so it is not valid JSON."""
    return lambda raw: json.dumps(raw)[:length]


@pytest.mark.parametrize("mutate, message", [
    (_drop("tables", "thm2.1", "level"), "table thm2.1: missing field 'level'"),
    (_drop("tables", "thm2.1", "items"), "table thm2.1: missing field 'items'"),
    (_drop("allowlist", 0, "item"), "allowlist entry 1: missing field 'item'"),
    (_set("prop3.7", "pattern", 5), "table prop3.7: pattern must be a list of 2 or 3 "
                                    "positive integers on a level-3 table, got 5"),
    (_set("thm2.1", "span", "x"), "table thm2.1: span must be an integer in 1..1, "
                                  "got 'x'"),
    (_set("thm2.1", "level", True), "table thm2.1: level must be 1 or 3, got True"),
    (_truncate(11), "not valid JSON: Expecting value: line 1 column 12 (char 11)"),
    (_set_entry(0, "item", 70), "allowlist entry 1: table prop3.3 has no item 70"),
    (_set_entry(0, "table", "prop9.9"), "allowlist entry 1: no table 'prop9.9' in the file"),
    (_set_entry(0, "item", True), "allowlist entry 1: item must be an integer, got True"),
], ids=["table-without-level", "table-without-items", "allowlist-entry-without-item",
        "int-pattern", "string-span", "bool-level", "truncated-json",
        "allowlist-entry-names-no-item", "allowlist-entry-names-no-table",
        "bool-allowlist-item"])
def test_malformed_expected_file_exit_64(capsys, tmp_path, mutate, message):
    """`mutate` edits the packaged tables in place, or returns the file text."""
    from hodgerep.expected import load_expected

    raw = json.loads(json.dumps(load_expected().raw))
    text = mutate(raw)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw) if text is None else text)
    code, out, err = run(capsys, "verify-paper", "--scope", "thm2.1",
                         "--expected-file", str(path))
    assert (code, out) == (64, "")
    assert err == f"error: {path}: {message}\n"


def test_removed_max_coord_sum_flag_exit_64(capsys):
    code, _, _ = run(capsys, "classify", "--level", "3", "--max-rank", "3",
                     "--max-coord-sum", "3")
    assert code == 64


@pytest.mark.parametrize("command, message", [
    (["inspect", "C3", "--E", "3", "--mu", "0,0,1"], "--max-dim: expected a positive integer"),
    (["classify", "--level", "3", "--max-rank", "3"], "unrecognized arguments: --max-dim"),
    (["verify-paper", "--scope", "thm2.1", "--max-rank", "3"],
     "unrecognized arguments: --max-dim"),
], ids=["inspect", "classify", "verify-paper"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_max_dim_exit_64(capsys, command, message, value):
    """Only inspect takes --max-dim; the sweeps build no weight system."""
    code, out, err = run(capsys, *command, f"--max-dim={value}")
    assert code == 64
    assert message in err
    assert out == ""


@pytest.mark.parametrize("command", [
    ["classify", "--level", "1", "--max-rank", "3"],
    ["verify-paper", "--scope", "thm2.1", "--max-rank", "3"],
], ids=["classify", "verify-paper"])
def test_removed_max_dim_flag_exit_64(capsys, command):
    code, out, err = run(capsys, *command, "--max-dim", "10")
    assert (code, out) == (64, "")
    assert "unrecognized arguments: --max-dim 10" in err
    code, out, _ = run(capsys, command[0], "--help")
    assert code == 0 and "--max-rank" in out and "--max-dim" not in out


@pytest.mark.parametrize("command", [
    ["classify", "--level", "1"],
    ["verify-paper", "--scope", "thm2.1"],
], ids=["classify", "verify-paper"])
def test_max_rank_above_32_exit_64(capsys, command):
    code, out, err = run(capsys, *command, "--max-rank", "33")
    assert (code, out, err) == (64, "", "error: max_rank must be at most 32, got 33\n")


_GUARD_84 = ("resource limit: weight system of C3 with highest weight (0, 0, 2) "
             "has dimension 84, above the size guard 10\n")


@pytest.mark.parametrize("argv, code, shown, err", [
    (["C3", "--E", "3", "--mu", "0,0,2", "--max-dim", "10"], 70, None, _GUARD_84),
    (["C3", "--E", "3", "--mu", "0,0,2", "--level", "1", "--max-dim", "10"],
     70, None, _GUARD_84),
    (["C3", "--E", "3", "--mu", "0,0,1", "--max-dim", "10"], 0, "hodge: [1, 6, 6, 1]", ""),
    (["A1xD4", "--E", "1x1", "--mu", "1x1,0,0,0", "--max-dim", "1"],
     0, "hodge: [1, 7, 7, 1]", ""),
    (["A1xA1", "--E", "1x1", "--mu", "1x1", "--max-dim", "1"],
     2, "result:     shape-invalid product", ""),
], ids=["orbit-route", "orbit-route-level1", "levi-span3", "product",
        "product-shape-invalid"])
def test_resource_guard_exit_70(capsys, argv, code, shown, err):
    """C3, 2 omega_3 under E = A3 has span 6: its ladder takes the orbit
    route, which builds a weight system of dimension 84, so the guard stops
    it before any output, at either level.  C3, omega_3 (span 3) takes the
    closed form of spans 1 to 3, which builds none, so the same guard lets
    it through, as it does any span-3 candidate, self-dual or not (see
    test_complex_span3_inspect_passes_the_guard).  A product's factors have
    span 1 or 2 whenever the rule admits them, and the rule runs before any
    product ladder is built, so even a guard of 1 never fires on a
    product."""
    got_code, out, got_err = run(capsys, "inspect", *argv)
    assert (got_code, got_err) == (code, err)
    assert (shown in out) if shown else out == ""


INSPECT_A2_SPAN3 = """\
algebra:    A2
E:          A1
mu:         3,0
(mu+mu*)(E): 3
eigenspaces of E_ss on U (raw eigenvalues):
         2  dim 1
         1  dim 2
         0  dim 3
        -1  dim 4
result:     not a level-3 Hodge representation (shape-invalid)
"""


def test_complex_span3_inspect_passes_the_guard(capsys, monkeypatch):
    """A2, 3 omega_1 under E = A1 has span 3 and mu != mu*: its ladder is
    the closed form, which builds no weight system, so a guard of 1 lets it
    through to the shape verdict (exit 2), where the orbit route stopped it
    at the guard (exit 70)."""
    monkeypatch.setattr(hodgecore, "_orbit_ladder", _no_orbit_route)
    got = run(capsys, "inspect", "A2", "--E", "1", "--mu", "3,0", "--max-dim", "1")
    assert got == (2, INSPECT_A2_SPAN3, "reason: level pattern (3,) requires a real "
                                        "joint type, got complex\n")


@pytest.mark.parametrize("argv, reason", [
    ("C3 --E 3 --mu 0,0,2", "factor level 6 is outside 1..3"),
    ("A2 --E 1 --mu 0,1", "factor (A2, A1, (0, 1)) has top eigenspace dimension > 1 "
                          "(support of mu not inside support of E)"),
    ("A4 --E 1,2 --mu 0,1,0,0", "level pattern (3,) requires a real joint type, "
                                "got complex"),
    ("A2 --E 1 --mu 1,1 --level 1", "factor levels [2] cannot produce a level-1 tuple "
                                    "(allowed: one factor of level 1)"),
], ids=["level3-span", "level3-top-eigenspace", "level3-reality", "level1-span"])
def test_inspect_names_the_rule_that_rejected_a_simple_candidate(capsys, argv, reason):
    """Each rule that can reject a simple candidate writes its ShapeError
    text to stderr as one `reason:` line; stdout ends with the same verdict
    line as before, and the exit code stays 2."""
    code, out, err = run(capsys, "inspect", *argv.split())
    target = 1 if "--level 1" in argv else 3
    assert (code, err) == (2, f"reason: {reason}\n")
    assert out.endswith(f"result:     not a level-{target} Hodge representation "
                        "(shape-invalid)\n")


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


@pytest.mark.parametrize("fmt, max_rank, digest", [
    ("csv", 8, "d7147c45d1fc99123048f145cb5ad02995f3260616b7279c4b55467980e339a9"),
    ("markdown", 8, "df0575c4662b2cf25d606aad470fbcf43f753e8a6715a91283cc0a11d0f26a48"),
    ("json", 8, "20610238ea6fb996ca0cdd11c94ba3ee65707130bc9f902f9dcf9f9470e68f8a"),
    ("json", 16, "4302237339a5251eb496eeb24d094094db042e0e895f3815f2146b9cf5c17228"),
    ("json", 32, "ef5a080977bc5560bc8a4bb0907c9b6cb7f021f013bd666a29d517c81372a9b2"),
], ids=["csv", "markdown", "json", "json-rank16", "json-rank32"])
def test_verify_report_bytes_are_pinned(capsys, fmt, max_rank, digest):
    code, out, _ = run(capsys, "verify-paper", "--scope", "all", "--max-rank", str(max_rank),
                       "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flags, digest", [
    (["--level", "1"],
     "f15b4f3ca518f9e3ef0edd52438bbc1eeba3e2a54a16034b3e86e652043265a2"),
    (["--level", "3", "--products"],
     "a788c90db44e64c51c04218a9c285e4023d82a72cb8ee8809c34815e8e08e5bf"),
    (["--level", "3", "--products", "--dedupe", "--format", "csv"],
     "09c4cf01af298559e226735e90579c254056c1c71addee4d4dec4dcc4b3f4b13"),
], ids=["level1", "level3-products", "level3-products-dedupe-csv"])
def test_classify_bytes_are_pinned(capsys, flags, digest):
    code, out, _ = run(capsys, "classify", "--max-rank", "8", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


INSPECT_C3 = """\
algebra:    C3
E:          A3
mu:         0,0,1
(mu+mu*)(E): 3
eigenspaces of E_ss on U (raw eigenvalues):
       3/2  dim 1
       1/2  dim 6
      -1/2  dim 6
      -3/2  dim 1
algebra: C3
E: [3]
mu: [0, 0, 1]
c: 0
span: 3
level: 3
reality: real
hodge: [1, 6, 6, 1]
real_form: sp(3,R)
canonical: True
"""

INSPECT_A1xB3 = """\
factor A1 A1: levels 1/2:1 -1/2:1
factor B3 A1: levels 1:1 0:5 -1:1
algebra: A1xB3
E: [[1], [1]]
mu: [[1], [1, 0, 0]]
c: 0
span: 3
level: 3
reality: real
hodge: [1, 6, 6, 1]
real_form: su(1,1)+so(2,5)
canonical: True
"""


@pytest.mark.parametrize("argv, expected", [
    (["C3", "--E", "3", "--mu", "0,0,1"], INSPECT_C3),
    (["A1xB3", "--E", "1x1", "--mu", "1x1,0,0"], INSPECT_A1xB3),
], ids=["C3", "A1xB3"])
def test_inspect_output_is_pinned(capsys, argv, expected):
    assert run(capsys, "inspect", *argv) == (0, expected, "")


@pytest.mark.parametrize("argv, code, digest", [
    ("C8 --E 3,6 --mu 0,0,0,1,0,0,0,0 --level 1", 2,
     "f309fa8d6876190a2c0aaa3cb446a20afd5d217c14fcd6753c742d2a6bb92e83"),
    ("E8 --E 8 --mu 0,0,0,0,0,0,0,1 --level 3", 2,
     "1396bcd955a24c1f81da594191bcefd7da447be15c0b62a3669b9fe413b6d42f"),
    ("D4 --E 1,2,4 --mu 0,1,2,1 --level 3", 2,
     "43274fc83180bd4cd0a2f31500d4c6be76dc3c58ea472e2194f7fa1741183ad2"),
    ("G2 --E 1,2 --mu 3,2 --level 3", 2,
     "c8f997ec4b869b583e6e3505d7c3a681b3e0f6f7a0b5e9553c6de2cc557681bc"),
    ("A2 --E 1 --mu 3,0 --level 3", 2,
     "1eaa18f64ca7a5b54870773b0d1fbea62c28a503ff0a5ab2cec4c152ac95ee55"),
    ("F4 --E 1,4 --mu 1,0,0,1 --level 3", 2,
     "884b54b8149dfa1ac3a67b8216662bee0fe3acce87e55fb30a65db2c9a8e09dd"),
    ("A5 --E 1,5 --mu 1,0,0,0,2 --level 3", 2,
     "536fef81ccc051c8e83aa903902ce8a6f4f1ebe2c66af478bc8dc4a4b208a391"),
    ("E8 --E 8 --mu 0,0,0,0,0,0,0,1 --level 3 --max-dim 100", 70,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
], ids=["C8", "E8", "D4", "G2", "A2", "F4", "A5", "E8-max-dim"])
def test_orbit_route_inspect_bytes_are_pinned(capsys, argv, code, digest):
    """Candidates whose ladder took the orbit route when it also served
    span 3 with mu != mu*; every one is shape-invalid or stops at the
    guard.  A2, 3 omega_1 under E = A1 (span 3, mu != mu*) now takes the
    closed form of spans 1 to 3, with the same bytes; the others have span
    above 3 and still take the orbit route."""
    got, out, _ = run(capsys, "inspect", *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_records_round_trip_losslessly(capsys):
    from fractions import Fraction

    from hodgerep.classify import SearchConfig, enumerate_level
    from hodgerep.cli import _parse_factor_lists, record_of

    cfg = SearchConfig(max_rank=3, level=3, families=frozenset("ABC"),
                       include_products=True)
    for t in enumerate_level(cfg):
        rec = record_of(t)
        # textual form survives JSON exactly
        assert json.loads(json.dumps(rec)) == rec
        # the rational survives the p/q rendering exactly
        assert Fraction(rec["c"]) == t.c
        # the candidate can be rebuilt from the serialized identity
        if len(t.factors) == 1:
            e_text = ",".join(str(n) for n in rec["E"])
            mu_text = ",".join(str(c) for c in rec["mu"])
        else:
            e_text = "x".join(",".join(str(n) for n in part) for part in rec["E"])
            mu_text = "x".join(",".join(str(c) for c in part) for part in rec["mu"])
        keys = _parse_factor_lists(rec["algebra"], e_text, mu_text)
        assert keys == [(f.lie_type, f.E.support, f.mu) for f in t.factors]
        back = record_of(products.assemble_summaries(
            products.SummaryTable().summarise(keys), rec["level"]))
        back["canonical"] = rec["canonical"]  # annotation, not identity
        assert back == rec
