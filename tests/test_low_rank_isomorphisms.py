"""Printed rows read below their families' catalogued ranks, through the
low-rank isomorphisms.

The printed families stop at r >= 2 for B and C and at r >= 4 for D,
because the catalogue does.  Below that a row's formula still has a value,
and the standard isomorphisms (Helgason, "Differential Geometry, Lie
Groups, and Symmetric Spaces", ch. X §6; Knapp, "Lie Groups Beyond an
Introduction", ch. VI) carry its key to a catalogued one:
- B1 = A1, where the so(3) vector is A1's 2 omega_1;
- C1 = A1;
- D3 = A3, D3's node 1 going to A3's node 2 and its spin nodes 2 and 3 to
  A3's nodes 1 and 3;
- D2 = A1 x A1, where the vector is omega_1 x omega_1.

Each check below is written as data: the source row, the rank it is read
at, the image key, and the row's formula evaluated at that rank by hand
(reality, h, c).  None of it is read from the engine; the tests run the
`inspect` command on the image key and read the fields it prints.
"""
import contextlib
import io

import pytest

from hodgerep.cli import main
from hodgerep.expected import load_expected

# (source row, its formula at rank r, image algebra, E, mu, level,
#  (reality, h, c) of the formula at r)
AGREEING = [
    # D_r, E = {r-1}, omega_1: quaternionic (2r, 2r), c = 0; so*(6) = su(3,1)
    ("thm2.1 item 7", "r = 3 via D3 = A3", "A3", "1", "0,1,0", 1,
     ("quaternionic", [6, 6], "0")),
    # B_r, E = {1}, omega_r: r % 4 = 1 gives real (2^(r-1), 2^(r-1)), c = 0
    ("thm2.1 item 5", "r = 1 via B1 = A1", "A1", "1", "1", 1, ("real", [1, 1], "0")),
    # C_r, E = {r}, omega_1: real (r, r), c = 0
    ("thm2.1 item 6", "r = 1 via C1 = A1", "A1", "1", "1", 1, ("real", [1, 1], "0")),
    # D_r, E = {1}, omega_1: real (1, 2r-1, 2r-1, 1), c = 1/2
    ("prop3.3 item 9", "r = 3 via D3 = A3", "A3", "2", "0,1,0", 3,
     ("real", [1, 5, 5, 1], "1/2")),
    # A1 x D_r, E = (1),(1), mu = omega_1, omega_1: real (1, 2r-1, 2r-1, 1), c = 0
    ("prop3.9 item 3", "r = 3 via D3 = A3", "A1xA3", "1x2", "1x0,1,0", 3,
     ("real", [1, 5, 5, 1], "0")),
    # A1 x B_r, E = (1),(1), mu = omega_1, omega_1: real (1, 2r, 2r, 1), c = 0
    ("prop3.9 item 6", "r = 1 via B1 = A1", "A1xA1", "1x1", "1x2", 3,
     ("real", [1, 2, 2, 1], "0")),
]


def inspect(algebra, E, mu, level):
    """Exit code and the `key: value` fields that `inspect` prints last."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["inspect", algebra, "--E", E, "--mu", mu, "--level", str(level)])
    fields = dict(line.split(": ", 1) for line in out.getvalue().splitlines()
                  if ": " in line and not line.startswith(" "))
    return code, fields, out.getvalue()


@pytest.mark.parametrize("row, where, algebra, E, mu, level, expected", AGREEING,
                         ids=[f"{a[0]} at {a[1]}" for a in AGREEING])
def test_row_formula_agrees_on_the_image_key(row, where, algebra, E, mu, level, expected):
    code, fields, _ = inspect(algebra, E, mu, level)
    assert code == 0
    reality, h, c = expected
    assert (fields["reality"], fields["hodge"], fields["c"]) == (reality, str(h), c)
    assert fields["level"] == str(level)


def test_prop3_3_item7_at_rank_1_is_the_allowlisted_h():
    """prop3.3 item 7 (B_r, E = {1}, omega_1, real, c = 1/2) at r = 1 via
    B1 = A1 is A1 with E = {1} and mu = 2 omega_1.  The printed h,
    (1, 2r-1, 2r-1, 1), reads (1, 1, 1, 1); the engine gives the
    allowlist's computed_h, (1, 2r, 2r, 1) = (1, 2, 2, 1), the row's one
    known discrepancy."""
    entry = load_expected().allowlisted("prop3.3", 7)
    assert entry["computed_h"] == ["1", "2*r", "2*r", "1"]
    code, fields, _ = inspect("A1", "1", "2", 3)
    assert code == 0
    assert (fields["reality"], fields["hodge"], fields["c"]) == ("real", "[1, 2, 2, 1]", "1/2")


def test_prop3_3_item9_at_rank_2_is_the_named_exception():
    """prop3.3 item 9 (D_r, E = {1}, omega_1) at r = 2 goes through D2 =
    A1 x A1 to E = (1),(1) and mu = omega_1, omega_1.  The formula gives
    real (1, 3, 3, 1) with c = 1/2, but the assembly rule keeps every 1+1
    product with a real joint type out of level 3: the one disagreement,
    which the derivation of the rule from the GGK definition (ROADMAP
    item 8) is to settle."""
    code, _, text = inspect("A1xA1", "1x1", "1x1", 3)
    assert code == 2
    assert "1+1 products with joint real type stay at level 2" in text
