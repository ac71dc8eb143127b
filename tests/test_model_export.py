"""MPS/LP export, sidecar, and the minimal MPS reader."""

import json

import pytest

from blendplan.builders import build_center, build_exact_split, make_plans
from blendplan.model import INF, MilpModel, QcpModel, parse_mps
from conftest import small_instance


def golden_model(cls=MilpModel):
    """Hand-built model: E, L, G and ranged rows, two integer blocks, every
    bound kind, a column with no entries and a nonzero objective offset."""
    m = cls("golden")
    x = m.add_var("x", ("a",), 0.0, 10.0)
    y = m.add_var("x", ("b",), -INF, 5.5)
    b1 = m.add_var("beta", ("p", 0), 0.0, 1.0, binary=True)
    b2 = m.add_var("beta", ("p", 1), 0.0, 1.0, binary=True)
    z = m.add_var("x", ("c",), 2.5, 2.5)
    m.add_var("x", ("d",), 1.25, INF)
    b3 = m.add_var("beta", ("q", 0), 0.0, 0.0, binary=True)
    m.add_eq("envelope_sum", {b1: 1.0, b2: 1.0}, 1.0)
    m.add_row("envelope_ub", {x: 1.0, y: -0.5, b1: -10.0}, hi=0.0)
    m.add_row("envelope_lb", {z: 1.0 / 3.0, x: 2.0}, lo=-3.0)
    m.add_row("envelope_shift_lb", {y: 1.0, b2: 4.0, b3: 1.0}, lo=-1.0, hi=7.25)
    m.set_objective({x: 1.0, b2: 1e-3}, 123.5)
    if cls is QcpModel:
        m.add_quad_row("spec_mass_split", {x: -2.0}, [(1.5, y, z)], lo=0.0, hi=0.0)
    return m


GOLDEN_MPS = (
    "NAME          golden",
    "ROWS",
    " N  OBJ",
    " E  R1",
    " L  R2",
    " G  R3",
    " L  R4",
    "COLUMNS",
    "    C1        OBJ       1",
    "    C1        R2        1",
    "    C1        R3        2",
    "    C2        R2        -0.5",
    "    C2        R4        1",
    "    MARK0000  MARKER                 'INTORG'",
    "    C3        R1        1",
    "    C3        R2        -10",
    "    C4        OBJ       0.001",
    "    C4        R1        1",
    "    C4        R4        4",
    "    MARK0001  MARKER                 'INTEND'",
    "    C5        R3        0.333333333333",
    "    C6        OBJ       0",
    "    MARK0002  MARKER                 'INTORG'",
    "    C7        R4        1",
    "    MARK0003  MARKER                 'INTEND'",
    "RHS",
    "    RHS       OBJ       123.5",
    "    RHS       R1        1",
    "    RHS       R3        -3",
    "    RHS       R4        7.25",
    "RANGES",
    "    RNG       R4        8.25",
    "BOUNDS",
    " UP BND       C1        10",
    " MI BND       C2      ",
    " UP BND       C2        5.5",
    " BV BND       C3",
    " BV BND       C4",
    " FX BND       C5        2.5",
    " LO BND       C6        1.25",
    " FX BND       C7        0",
    "ENDATA",
)

GOLDEN_LP_HEAD = (
    "\\ Problem: golden",
    "Minimize",
    " obj: + 1 C1 + 0.001 C4",
    "Subject To",
    " R1: + 1 C3 + 1 C4 = 1",
    " R2: + 1 C1 - 0.5 C2 - 10 C3 <= 0",
    " R3: + 2 C1 + 0.333333333333 C5 >= -3",
    " R4_ub: + 1 C2 + 4 C4 + 1 C7 <= 7.25",
    " R4_lb: + 1 C2 + 4 C4 + 1 C7 >= -1",
)
GOLDEN_LP_QUAD = (" Q1: - 2 C1 [ + 1.5 C2 * C5 ] = 0",)
GOLDEN_LP_TAIL = (
    "Bounds",
    " 0 <= C1 <= 10",
    " -inf <= C2 <= 5.5",
    " 0 <= C3 <= 1",
    " 0 <= C4 <= 1",
    " C5 = 2.5",
    " 1.25 <= C6 <= +inf",
    " C7 = 0",
    "Binaries",
    " C3 C4 C7",
    "End",
)


def reference_sidecar(m) -> dict:
    """The sidecar's content, keyed and ordered as the format defines it."""
    data = {
        "model": m.name,
        "objective_offset": m.obj_offset,
        "objective_sense": "min (reported objective = offset - min value)",
        "rows": {f"R{r.num + 1}": {"name": r.name, "tag": r.tag} for r in m.rows},
        "columns": {f"C{v.col + 1}": {"name": v.name, "kind": v.kind, "binary": v.binary}
                    for v in m.vars},
        "structural_tags": dict(m.structural_tags),
        "starts": {f"C{c + 1}": v for c, v in sorted(m.starts.items())},
    }
    if m.plans is not None:
        data["plans"] = {f"{k},{q}": p.to_dict() for (k, q), p in sorted(m.plans.items())}
    if getattr(m, "quad_rows", None):
        data["quad_rows"] = {f"Q{qr.num + 1}": {"name": qr.name, "tag": qr.tag}
                             for qr in m.quad_rows}
    return data


def test_mps_round_trip_counts(tmp_path):
    inst = small_instance(0)
    m = build_center(inst, make_plans(inst, 1.0))
    path = tmp_path / "m.mps"
    m.write_mps(path)
    stats = parse_mps(path)
    assert stats["rows"] == m.n_rows
    assert stats["columns"] == m.n_vars
    assert stats["integer_columns"] == m.n_binary


def test_mps_reexport_is_byte_identical(tmp_path):
    inst = small_instance(1)
    a, b = tmp_path / "a.mps", tmp_path / "b.mps"
    build_center(inst, make_plans(inst, 1.0)).write_mps(a)
    build_center(inst, make_plans(inst, 1.0)).write_mps(b)
    assert a.read_bytes() == b.read_bytes()


def test_mps_sections_and_ranges(tmp_path):
    m = MilpModel("t")
    x = m.add_var("x", ("a",), 0.0, 10.0)
    y = m.add_var("beta", ("b",), 0.0, 1.0, binary=True)
    m.add_row("envelope_lb", {x: 1.0, y: 2.0}, lo=1.0, hi=4.0)   # two-sided -> RANGES
    m.add_row("envelope_ub", {x: 1.0}, hi=9.0)
    m.set_objective({x: 1.0}, 0.0)
    path = tmp_path / "r.mps"
    m.write_mps(path)
    text = path.read_text()
    assert "RANGES" in text and "ENDATA" in text
    assert "'INTORG'" in text and "'INTEND'" in text
    assert " BV BND" in text
    stats = parse_mps(path)
    assert stats == {"rows": 2, "columns": 2, "integer_columns": 1}


def test_sidecar_maps_rows_and_columns(tmp_path):
    inst = small_instance(2)
    m = build_center(inst, make_plans(inst, 1.0))
    side = tmp_path / "m.tags.json"
    m.write_sidecar(side)
    data = json.loads(side.read_text())
    assert len(data["rows"]) == m.n_rows
    assert len(data["columns"]) == m.n_vars
    assert data["objective_offset"] == m.obj_offset
    tags = {r["tag"] for r in data["rows"].values()}
    assert "inflow_balance" in tags
    assert "plans" in data


def test_lp_export_contains_quadratic_blocks(tmp_path):
    inst = small_instance(3)
    m = build_exact_split(inst)
    path = tmp_path / "m.lp"
    m.write_lp(path)
    text = path.read_text()
    assert "Minimize" in text and "Subject To" in text and "End" in text
    assert "[" in text and "*" in text      # bilinear blocks present
    assert "Binaries" in text
    side = tmp_path / "m.lp.tags.json"
    m.write_sidecar(side)
    data = json.loads(side.read_text())
    assert any(r["tag"] == "outflow_consistency" for r in data["quad_rows"].values())


def test_lp_reexport_is_byte_identical(tmp_path):
    inst = small_instance(3)
    a, b = tmp_path / "a.lp", tmp_path / "b.lp"
    build_exact_split(inst).write_lp(a)
    build_exact_split(inst).write_lp(b)
    assert a.read_bytes() == b.read_bytes()


def test_mps_matches_golden_text(tmp_path):
    path = tmp_path / "g.mps"
    golden_model().write_mps(path)
    assert path.read_text() == "\n".join(GOLDEN_MPS) + "\n"


@pytest.mark.parametrize("cls, quad", [(MilpModel, ()), (QcpModel, GOLDEN_LP_QUAD)])
def test_lp_matches_golden_text(tmp_path, cls, quad):
    path = tmp_path / "g.lp"
    golden_model(cls).write_lp(path)
    assert path.read_text() == "\n".join(GOLDEN_LP_HEAD + quad + GOLDEN_LP_TAIL) + "\n"


def _center_with_starts():
    inst = small_instance(2)
    m = build_center(inst, make_plans(inst, 1.0))
    assert m.plans and m.structural_tags
    m.starts = {m.vars[3].col: 1.0, m.vars[0].col: 0.25, m.vars[7].col: 1e-17}
    return m


@pytest.mark.parametrize("make", [_center_with_starts, lambda: build_exact_split(small_instance(3)),
                                  golden_model, lambda: MilpModel("no rows")])
def test_sidecar_is_json_dump_layout(tmp_path, make):
    m = make()
    odd = m.add_var("x", ('q"uote', "back\\slash", "t\u00e9\u2013\U0001f600"), 0.0, 1.0,
                    binary=True)
    if m.rows:
        m.add_row("envelope_ub", {odd: 1.0}, hi=1.0, name='row "\\ \u00e9')
    path = tmp_path / "m.tags.json"
    m.write_sidecar(path)
    text = path.read_text()
    assert text == json.dumps(reference_sidecar(m), indent=2) + "\n"
    assert text.isascii() and "\\u00e9" in text and "\\ud83d\\ude00" in text
