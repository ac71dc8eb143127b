"""MPS/LP export, sidecar, the minimal MPS reader and the solver arrays."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import blendplan
from blendplan.builders import build_center, build_exact_split, build_mccormick, make_plans
from blendplan.cli import main
from blendplan.instance import RandomizationParams, extend_periodic, randomize_supply
from blendplan.model import INF, MilpModel, ModelError, parse_mps
from conftest import small_instance, tiny_instance


def golden_model(bilinear=False):
    """Hand-built model: E, L, G and ranged rows, two integer blocks, every
    bound kind, a column with no entries and a nonzero objective offset."""
    m = MilpModel("golden")
    x = m.add_var("v_unused", ("a",), 0.0, 10.0)
    y = m.add_var("v_unused", ("b",), -INF, 5.5)
    b1 = m.add_var("gamma", ("p", 0), 0.0, 1.0, binary=True)
    b2 = m.add_var("gamma", ("p", 1), 0.0, 1.0, binary=True)
    z = m.add_var("v_unused", ("c",), 2.5, 2.5)
    m.add_var("v_unused", ("d",), 1.25, INF)
    b3 = m.add_var("gamma", ("q", 0), 0.0, 0.0, binary=True)
    m.add_eq("supply_total", ("p",), {b1: 1.0, b2: 1.0}, 1.0)
    m.add_row("xa_mid_ub", ("a", 0), {x: 1.0, y: -0.5, b1: -10.0}, hi=0.0)
    m.add_row("xa_mid_lb", ("a", 0), {z: 1.0 / 3.0, x: 2.0}, lo=-3.0)
    m.add_row("xa_mid_shift_lb", ("b", 1), {y: 1.0, b2: 4.0, b3: 1.0}, lo=-1.0, hi=7.25)
    m.set_objective({x: 1.0, b2: 1e-3}, 123.5)
    if bilinear:
        m.add_quad_row("spec_mass_split", ("a", "P", 0), {x: -2.0}, [(1.5, y, z)], lo=0.0, hi=0.0)
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
    if m.quad_rows:
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
    x = m.add_var("v_unused", ("a",), 0.0, 10.0)
    y = m.add_var("gamma", ("b", 0), 0.0, 1.0, binary=True)
    m.add_row("xa_mid_lb", ("a",), {x: 1.0, y: 2.0}, lo=1.0, hi=4.0)   # two-sided -> RANGES
    m.add_row("xa_mid_ub", ("a",), {x: 1.0}, hi=9.0)
    m.set_objective({x: 1.0}, 0.0)
    path = tmp_path / "r.mps"
    m.write_mps(path)
    text = path.read_text()
    assert "RANGES" in text and "ENDATA" in text
    assert "'INTORG'" in text and "'INTEND'" in text
    assert " BV BND" in text
    stats = parse_mps(path)
    assert stats == {"rows": 2, "columns": 2, "integer_columns": 1}


@pytest.mark.parametrize("write", ["write_mps", "write_lp"])
def test_a_row_free_on_both_sides_is_refused_before_the_file_opens(tmp_path, write):
    m = MilpModel("free")
    x = m.add_var("v_unused", ("a",), 0.0, 1.0)
    m.add_row("xa_mid_ub", ("a",), {x: 1.0}, hi=1.0)
    m.add_row("xa_mid_lb", ("a",), {x: 1.0})
    path = tmp_path / "m.out"
    with pytest.raises(ModelError, match="unbounded on both sides"):
        getattr(m, write)(path)
    assert not path.exists()


def test_an_unknown_tag_or_kind_and_a_duplicate_column_are_refused():
    m = MilpModel("bad")
    x = m.add_var("v_unused", ("a",), 0.0, 1.0)
    with pytest.raises(ModelError, match="unknown constraint tag 'no_such_tag'"):
        m.add_row("no_such_tag", ("a",), {x: 1.0}, hi=1.0)
    with pytest.raises(ModelError, match="unknown variable kind 'no_such_kind'"):
        m.add_var("no_such_kind", ("a",), 0.0, 1.0)
    with pytest.raises(ModelError, match=r"duplicate variable v_unused\('a',\)"):
        m.add_var("v_unused", ("a",), 0.0, 2.0)
    with pytest.raises(ModelError, match="unknown structural tag 'no_such_tag'"):
        m.note_structural("no_such_tag")
    # nothing refused was added
    assert m.n_vars == 1 and m.rows == [] and not m.structural_tags


def test_mps_refuses_a_bilinear_model_before_the_file_opens(tmp_path):
    path = tmp_path / "m.mps"
    with pytest.raises(ModelError, match="bilinear rows cannot be written as MPS"):
        golden_model(bilinear=True).write_mps(path)
    assert not path.exists()


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


@pytest.mark.parametrize("bilinear, quad", [(False, ()), (True, GOLDEN_LP_QUAD)],
                         ids=["linear", "bilinear"])
def test_lp_matches_golden_text(tmp_path, bilinear, quad):
    path = tmp_path / "g.lp"
    golden_model(bilinear).write_lp(path)
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
    odd = m.add_var("v_unused", ('q"uote', "back\\slash", "t\u00e9\u2013\U0001f600"), 0.0, 1.0,
                    binary=True)
    if m.rows:
        m.add_row("xa_mid_ub", ('row "\\ \u00e9', 2), {odd: 1.0}, hi=1.0)
    path = tmp_path / "m.tags.json"
    m.write_sidecar(path)
    text = path.read_text()
    assert text == json.dumps(reference_sidecar(m), indent=2) + "\n"
    assert text.isascii() and "\\u00e9" in text and "\\ud83d\\ude00" in text


def _pinned_plan(lam, eps, n, hi):
    return {"scheme": "nmdt", "base": 2, "lambda0": lam, "eps": eps, "n": n, "m": 1,
            "lo": lam, "hi": hi, "eps_hat": 1.0}


# The plans section of the bundled sample's center sidecar at eps_hat 1.0,
# key order and float digits as written before the plan fields `base` and
# `m` became constants of the sidecar format.
SAMPLE_CENTER_PLANS = {
    "T1,S1": _pinned_plan(47.9, 0.7750000000000004, 2, 51.0),
    "T1,S2": _pinned_plan(11.0, 0.7999999999999998, 1, 12.6),
    "T2,S1": _pinned_plan(47.9, 0.7750000000000004, 2, 51.0),
    "T2,S2": _pinned_plan(11.0, 0.7999999999999998, 1, 12.6),
    "T3,S1": _pinned_plan(47.9, 0.625, 2, 50.4),
    "T3,S2": _pinned_plan(11.0, 0.5499999999999998, 1, 12.1),
}


def test_sample_center_sidecar_plans_pinned(tmp_path):
    inst = blendplan.read_instance(blendplan.sample_instance_path())
    path = tmp_path / "center.mps.tags.json"
    build_center(inst, make_plans(inst, 1.0)).write_sidecar(path)
    # the last section of a center sidecar, byte for byte
    tail = '  "plans": ' + json.dumps(SAMPLE_CENTER_PLANS, indent=2).replace("\n", "\n  ")
    assert path.read_text().endswith(tail + "\n}\n")


def test_to_arrays_rows_are_the_row_coefficients():
    inst = tiny_instance(0)
    m = build_center(inst, make_plans(inst, 1.0))
    c, _, _, _, (start, index, value), row_lo, row_hi = m.to_arrays()
    assert start.dtype == index.dtype == np.int32 and value.dtype == np.float64
    assert len(start) == m.n_rows + 1 and start[0] == 0
    assert start[-1] == len(index) == len(value) == sum(len(r.coeffs) for r in m.rows)
    assert np.all(value != 0.0)
    dense = np.zeros((m.n_rows, m.n_vars))
    for r in m.rows:
        cols = index[start[r.num]:start[r.num + 1]].tolist()
        assert len(set(cols)) == len(cols) == len(r.coeffs)
        dense[r.num, cols] = value[start[r.num]:start[r.num + 1]]
    expected = np.zeros_like(dense)
    for r in m.rows:
        for col, v in r.coeffs.items():
            expected[r.num, col] = v
    assert np.array_equal(dense, expected)
    assert row_lo.tolist() == [r.lo for r in m.rows]
    assert row_hi.tolist() == [r.hi for r in m.rows]
    assert len(c) == m.n_vars

    # by hand: a zero is dropped, an int or numpy coefficient is stored as a
    # float, and a quad row's linear part is its own and not in A
    m = MilpModel("hand")
    x, y, z = (m.add_var("v_unused", (k,), 0.0, 10.0) for k in "xyz")
    r0 = m.add_row("xa_mid_ub", ("a",), {x: 2, y: 0.0, z: np.float64(-1.5)}, hi=4)
    q0 = m.add_quad_row("spec_mass_split", ("a",), {z: 3, x: 0, y: np.float64(0.25)},
                        [(1.0, x, y)], lo=0.0, hi=0.0)
    r1 = m.add_eq("supply_total", ("b",), {y: 1.0, x: np.int64(7)}, 1)
    assert r0.coeffs == {x.col: 2.0, z.col: -1.5} and list(r0.coeffs) == [x.col, z.col]
    assert q0.coeffs == {z.col: 3.0, y.col: 0.25} and q0.quads == ((1.0, x.col, y.col),)
    assert r1.coeffs == {y.col: 1.0, x.col: 7.0}
    assert all(type(v) is float for r in (r0, q0, r1) for v in r.coeffs.values())
    assert (r0.num, r1.num, q0.num) == (0, 1, 0)
    _, _, _, _, (start, index, value), _, _ = m.to_arrays()
    assert start.dtype == index.dtype == np.int32 and value.dtype == np.float64
    assert start.tolist() == [0, 2, 4]
    assert index.tolist() == [x.col, z.col, y.col, x.col]
    assert value.tolist() == [2.0, -1.5, 1.0, 7.0]
    # a returned dict is the caller's: changing it leaves the model as it was
    got = r0.coeffs
    got[y.col] = 5.0
    del got[x.col]
    assert r0.coeffs == {x.col: 2.0, z.col: -1.5}
    assert m.to_arrays()[4][1].tolist() == [x.col, z.col, y.col, x.col]
    # a row that fails part-way adds nothing
    with pytest.raises(TypeError):
        m.add_row("xa_mid_lb", ("c",), {x: 1.0, y: None}, lo=0.0)
    assert m.n_rows == 2 and m.to_arrays()[4][1].tolist() == [x.col, z.col, y.col, x.col]


# SHA-256 of the bundled sample's exports at eps_hat 1.0 and of each sidecar,
# recorded when every row's name was still formatted by its builder.
SAMPLE_EXPORTS = {
    ("center", ()): ("6ceba71c29644bbc4485802a158ad883bf22f4a2d711abf6a92cbb4efc743259",
                     "64504d9bce7445b99bb4591d6f703239bc69e9e058235fc486f408f462d1d691"),
    ("center", ("--no-tighten",)): (
        "3f100bc98634f6f5b802d31956dc666ca580e6053ae665ea4b16189b1ebb60e5",
        "64504d9bce7445b99bb4591d6f703239bc69e9e058235fc486f408f462d1d691"),
    ("mccormick", ()): ("8575b40ce8f6db4b8d57e5ec8c275db9d920a56daf41db88d54b173366f6d3a3",
                        "aa1145d8ef10aa7033c75c260da17e6810c5ef8f9e95edc09dd8cf8678d93afb"),
    ("mccormick", ("--no-tighten",)): (
        "5ca719a4dba6f9b45e86f2df335ab9b3451127cbf7f1f0ce0b5923752cfe3613",
        "aa1145d8ef10aa7033c75c260da17e6810c5ef8f9e95edc09dd8cf8678d93afb"),
    ("exact-mix", ()): ("323f9d9e264e961b17a8c7ee96ba7d3cea7f4547fe5b07ce8c927cbf26987c30",
                        "7a786fa036e61e59b19b8f3e3125a10422550715570f17781f9d83bffa785ab3"),
    ("exact-split", ()): ("5473bf0585a044b854c5b763b06ca7af02d4cb894916588cdd183db0ef172cdb",
                          "05ed761482580ebb4cce2af936cb8306fcb025251bbd2eaf7cd7496bc81e9118"),
}


# The same for a 120-day instance: the sample extended periodically, then
# jittered (seed 0, volumes 10 %, specs 5 %, windows 2 days).  Recorded when
# each row still held its coefficients in a dict and each writer built its
# whole file before writing it.
LONG_EXPORTS = {
    "center": ("4bda9ed5323f21025becb88838c2304aa40a2bb24309730d2b678053e0ee5276",
               "9c131732c4c06f8b2e34c8329d4d25df974621dee61f2a008790ac222f9196ac"),
    "mccormick": ("8cc25efeb3dbc8b58dacb7db7a9e7e5a130ba3bb2ab2da1cd1709adc367c2646",
                  "9e6e3c427355ed7d07e17c055922ca9db4ebc192fc7840ba8553b5032f5699e2"),
    "exact-mix": ("414c0fe4839c903adbe04866a48c5c9be09f9fa64c9e105263f350f481f69ae8",
                  "4ea510e7379dc9286b1e5c7754b1afb62830425041aa683dba1f82a1a3549114"),
    "exact-split": ("17ab0e9415c4f10c56c761bd9e00f0ae521c12923b4fcab69aa1a81deded0e27",
                    "473097f48aa6589d80ec299101051739529142e3b58f505bf84e1b75167dd586"),
}


def _export_hashes(instance_path, method, out, flags=()):
    assert main(["export", "--instance", instance_path, "--method", method,
                 "--out", str(out), *flags]) == 0
    sidecar = out.with_name(out.name + ".tags.json")
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, sidecar))


def _export_path(tmp_path, method):
    return tmp_path / ("m.mps" if method in ("center", "mccormick") else "m.lp")


@pytest.mark.parametrize("method, flags", list(SAMPLE_EXPORTS),
                         ids=[m + "".join(f) for m, f in SAMPLE_EXPORTS])
def test_sample_exports_pinned(tmp_path, capsys, method, flags):
    got = _export_hashes(blendplan.sample_instance_path(), method,
                         _export_path(tmp_path, method), flags)
    assert got == SAMPLE_EXPORTS[(method, flags)]


@pytest.fixture(scope="module")
def long_instance_path(tmp_path_factory):
    sample = blendplan.read_instance(blendplan.sample_instance_path())
    inst = randomize_supply(extend_periodic(sample, 120), 0,
                            RandomizationParams(volume_rel=0.1, spec_rel=0.05, window_shift=2))
    path = tmp_path_factory.mktemp("long") / "instance.json"
    blendplan.write_instance(inst, path)
    return str(path)


@pytest.mark.parametrize("method", list(LONG_EXPORTS))
def test_long_horizon_exports_pinned(tmp_path, capsys, long_instance_path, method):
    got = _export_hashes(long_instance_path, method, _export_path(tmp_path, method))
    assert got == LONG_EXPORTS[method]


# Traced bytes allocated per nonzero of the model, above the built model
# itself, while the 90-day sample's McCormick model is written as MPS and
# then its sidecar: 263 when every row held a dict and each writer joined
# its whole file before writing it, 110 with flat coefficient arrays and
# streamed writers (Python 3.11).
WRITE_BYTES_PER_NONZERO = 220


def test_writers_stream(tmp_path):
    inst = extend_periodic(blendplan.read_instance(blendplan.sample_instance_path()), 90)
    path = tmp_path / "m.mps"
    tracemalloc.start()
    try:
        m = build_mccormick(inst, make_plans(inst, 1.0))
        model = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        m.write_mps(path)
        m.write_sidecar(tmp_path / "m.mps.tags.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nnz = len(m.matrix.index)
    assert nnz == sum(len(r.coeffs) for r in m.rows) > 50_000
    assert (peak - model) / nnz < WRITE_BYTES_PER_NONZERO
