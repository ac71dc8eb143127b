"""Solver-agnostic optimization model containers.

`MilpModel` holds a flat variable registry plus tagged linear rows of the
form ``lo <= a.x <= hi``; `QcpModel` adds rows with bilinear terms.  Every
row carries a tag from the documented tag vocabulary (see TAGS) so that
structural audits and constraint-dropping variants can address whole
constraint families.  Constraints enforced purely through variable bounds
or sparse variable creation are recorded as *structural* tags.

The objective is stored in minimization form (penalty value of unloading
misses and feed misses) together with the constant target value, so the
reported objective ``offset - min_value`` is the usual maximization value.

Export targets: fixed-format MPS for linear models, LP text for any model
(with quadratic constraint blocks for bilinear rows).  Both use short
row/column ids and emit a JSON sidecar mapping ids to names and tags.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np
import scipy.sparse as sp

INF = math.inf

# Variable kinds and the position of the day index inside `index`
# (None: no day component).
VAR_DAY_POS: dict[str, int | None] = {
    "gamma": 1, "sigma": 1,
    "y_in": 2, "y_out": 1,
    "v_mid": 1, "v_end": 1,
    "f": 2,
    "vf_mid": 2, "vf_end": 2, "yf_out": 2,
    "alpha": 2, "delta_f": 2,
    "x_alpha": 2, "x_delta": 2,
    "t_first": None, "t_last": None,
    "v_unused": None, "mis": 0,
    # generic envelope-block kinds (library use, no day component)
    "x": None, "beta": None, "x_beta": None,
}

VOLUME_KINDS = frozenset({"y_in", "y_out", "v_mid", "v_end"})
SPEC_CARRYING_KINDS = frozenset({"f", "vf_mid", "vf_end", "yf_out"})

# Documented constraint-tag vocabulary.  Rows outside this set are a bug.
TAGS = frozenset({
    # flow / demand / unloading core
    "inflow_balance", "outflow_balance", "demand_balance",
    "supply_total", "run_const_feed",
    "feed_share_lb", "feed_share_ub",
    "barge_unload_limit", "daily_unload_limit",
    "unload_flow_gate", "unload_min_pct",
    "first_unload_ub", "last_unload_lb", "unload_gap",
    # structural (bounds / sparse creation)
    "inv_lb", "inv_ub", "init_volume", "init_spec", "init_spec_volume",
    "supply_window", "barge_window_mask",
    # spec handling, exact models
    "blend_mix", "spec_flow_split",
    "spec_mass_blend", "spec_mass_split", "outflow_consistency",
    "feed_spec_lb", "feed_spec_ub", "feed_ratio_lb", "feed_ratio_ub",
    # spec handling, discretized models
    "blend_relax_lb", "blend_relax_ub",
    "xf_def_mid", "xf_def_end", "xf_def_out",
    "xa_mid_lb", "xa_mid_ub", "xa_mid_shift_lb", "xa_mid_shift_ub",
    "xa_end_lb", "xa_end_ub", "xa_end_shift_lb", "xa_end_shift_ub",
    "xa_out_lb", "xa_out_ub", "xa_out_shift_lb", "xa_out_shift_ub",
    "digit_coupling",
    "xdelta_mid_lb", "xdelta_mid_ub", "xdelta_mid_shift_lb", "xdelta_mid_shift_ub",
    "xdelta_end_lb", "xdelta_end_ub", "xdelta_end_shift_lb", "xdelta_end_shift_ub",
    "xdelta_out_lb", "xdelta_out_ub", "xdelta_out_shift_lb", "xdelta_out_shift_ub",
    # generic digit-product envelope blocks (library use)
    "envelope_select", "envelope_sum", "envelope_lb", "envelope_ub",
    "envelope_shift_lb", "envelope_shift_ub",
})


class ModelError(ValueError):
    pass


@dataclass
class VarRef:
    col: int
    kind: str
    index: tuple
    lo: float
    hi: float
    binary: bool

    @property
    def name(self) -> str:
        inner = ",".join(str(i) for i in self.index)
        return f"{self.kind}[{inner}]"

    @property
    def day(self) -> int | None:
        pos = VAR_DAY_POS.get(self.kind)
        return None if pos is None else self.index[pos]

    def __hash__(self):
        return self.col


@dataclass
class Row:
    num: int
    tag: str
    coeffs: dict[int, float]       # col -> coefficient
    lo: float
    hi: float
    name: str


@dataclass
class QuadRow:
    num: int
    tag: str
    coeffs: dict[int, float]
    quads: list[tuple[float, int, int]]   # (coef, col_a, col_b)
    lo: float
    hi: float
    name: str


class MilpModel:
    """Linear constraint registry with tagged rows and a linear objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[VarRef] = []
        self.rows: list[Row] = []
        self.obj: dict[int, float] = {}
        self.obj_offset = 0.0          # target value; reported = offset - min
        self.structural_tags: Counter = Counter()
        self.starts: dict[int, float] = {}
        self._lookup: dict[tuple[str, tuple], VarRef] = {}
        self.instance = None           # set by builders
        self.plans = None              # per (tank, spec) digit plans, if any
        self.meta: dict = {}

    # -- variables ---------------------------------------------------------

    def add_var(self, kind: str, index: tuple, lo: float, hi: float, binary: bool = False) -> VarRef:
        if kind not in VAR_DAY_POS:
            raise ModelError(f"unknown variable kind {kind!r}")
        key = (kind, index)
        if key in self._lookup:
            raise ModelError(f"duplicate variable {kind}{index}")
        ref = VarRef(len(self.vars), kind, index, float(lo), float(hi), binary)
        self.vars.append(ref)
        self._lookup[key] = ref
        return ref

    def var(self, kind: str, index: tuple) -> VarRef | None:
        return self._lookup.get((kind, index))

    def vars_of_kind(self, *kinds: str) -> list[VarRef]:
        want = set(kinds)
        return [v for v in self.vars if v.kind in want]

    def fix(self, ref: VarRef, value: float) -> None:
        ref.lo = ref.hi = float(value)

    def relax_binary(self, ref: VarRef) -> None:
        if ref.binary:
            ref.binary = False
            if ref.lo == ref.hi:   # keep explicit fixings intact
                return
            ref.lo, ref.hi = 0.0, 1.0

    # -- rows ----------------------------------------------------------------

    def add_row(self, tag: str, coeffs: dict[VarRef, float], lo: float = -INF,
                hi: float = INF, name: str | None = None) -> Row:
        if tag not in TAGS:
            raise ModelError(f"unknown constraint tag {tag!r}")
        cols = {ref.col: float(c) for ref, c in coeffs.items() if c != 0.0}
        row = Row(len(self.rows), tag, cols, float(lo), float(hi),
                  name or f"{tag}_{len(self.rows)}")
        self.rows.append(row)
        return row

    def add_eq(self, tag: str, coeffs: dict[VarRef, float], rhs: float, name: str | None = None) -> Row:
        return self.add_row(tag, coeffs, rhs, rhs, name)

    def note_structural(self, tag: str, count: int = 1) -> None:
        if tag not in TAGS:
            raise ModelError(f"unknown structural tag {tag!r}")
        if count > 0:
            self.structural_tags[tag] += count

    def tags(self) -> set[str]:
        return {r.tag for r in self.rows} | set(self.structural_tags)

    def rows_by_tag(self, tag: str) -> list[Row]:
        return [r for r in self.rows if r.tag == tag]

    def drop_rows(self, tags: set[str]) -> int:
        kept = [r for r in self.rows if r.tag not in tags]
        dropped = len(self.rows) - len(kept)
        for i, r in enumerate(kept):
            r.num = i
        self.rows = kept
        return dropped

    # -- objective -----------------------------------------------------------

    def set_objective(self, coeffs: dict[VarRef, float], offset: float) -> None:
        self.obj = {ref.col: float(c) for ref, c in coeffs.items() if c != 0.0}
        self.obj_offset = float(offset)

    def reported_objective(self, min_value: float) -> float:
        return self.obj_offset - min_value

    # -- stats ---------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_binary(self) -> int:
        return sum(1 for v in self.vars if v.binary)

    def has_bilinear(self) -> bool:
        return False

    # -- solver arrays ---------------------------------------------------------

    def to_arrays(self):
        """(c, integrality, var_lo, var_hi, A, row_lo, row_hi) for a MILP solver."""
        n = len(self.vars)
        c = np.zeros(n)
        for col, v in self.obj.items():
            c[col] = v
        integrality = np.array([1 if v.binary else 0 for v in self.vars], dtype=np.uint8)
        var_lo = np.array([v.lo for v in self.vars])
        var_hi = np.array([v.hi for v in self.vars])
        rows, cols, vals = [], [], []
        row_lo = np.empty(len(self.rows))
        row_hi = np.empty(len(self.rows))
        for i, r in enumerate(self.rows):
            row_lo[i] = r.lo
            row_hi[i] = r.hi
            for col, v in r.coeffs.items():
                rows.append(i)
                cols.append(col)
                vals.append(v)
        A = sp.csr_matrix((vals, (rows, cols)), shape=(len(self.rows), n))
        return c, integrality, var_lo, var_hi, A, row_lo, row_hi

    # -- export ---------------------------------------------------------------

    def write_sidecar(self, path) -> None:
        """JSON map of the short ids to names and tags, in ``json.dump(indent=2)`` layout.

        The row, column and quad-row maps are written one preformatted entry
        at a time; the small sections go through `json.dumps`.
        """
        enc = encode_basestring_ascii
        sections = [
            _json_member("model", self.name),
            _json_member("objective_offset", self.obj_offset),
            _json_member("objective_sense", "min (reported objective = offset - min value)"),
            _json_map("rows", _json_tag_entries("R", self.rows)),
            _json_map("columns", [
                f'    "C{v.col + 1}": {{\n      "name": {enc(v.name)},\n'
                f'      "kind": {enc(v.kind)},\n'
                f'      "binary": {"true" if v.binary else "false"}\n    }}' for v in self.vars]),
            _json_member("structural_tags", dict(self.structural_tags)),
            _json_member("starts", {f"C{c + 1}": v for c, v in sorted(self.starts.items())}),
        ]
        if self.plans is not None:
            sections.append(_json_member(
                "plans", {f"{k},{q}": p.to_dict() for (k, q), p in sorted(self.plans.items())}))
        quad_rows = getattr(self, "quad_rows", ())
        if quad_rows:
            sections.append(_json_map("quad_rows", _json_tag_entries("Q", quad_rows)))
        with open(path, "w") as fh:
            fh.write("{\n" + ",\n".join(sections) + "\n}\n")

    def write_mps(self, path) -> None:
        if self.has_bilinear():
            raise ModelError("bilinear rows cannot be written as MPS; use write_lp")
        num = functools.cache(_num)
        out = [f"NAME          {self.name}", "ROWS", " N  OBJ"]
        entries: list[list[str]] = [[] for _ in self.vars]   # per column: "rid  value"
        rhs_lines, range_lines = [], []
        for r in self.rows:
            rid = f"R{r.num + 1}"
            if r.lo == r.hi:
                sense, rhs = "E", r.lo
            elif r.lo == -INF and r.hi < INF:
                sense, rhs = "L", r.hi
            elif r.hi == INF and r.lo > -INF:
                sense, rhs = "G", r.lo
            elif r.lo > -INF and r.hi < INF:
                sense, rhs = "L", r.hi
                range_lines.append(f"    RNG       {rid:<8}  {num(r.hi - r.lo)}")
            else:
                raise ModelError(f"row {r.name} is unbounded on both sides")
            out.append(f" {sense}  {rid}")
            if rhs != 0.0:
                rhs_lines.append(f"    RHS       {rid:<8}  {num(rhs)}")
            padded = f"{rid:<8}  "
            for col, val in r.coeffs.items():
                entries[col].append(padded + num(val))
        out.append("COLUMNS")
        in_int = False
        marker = 0
        for v, col_entries in zip(self.vars, entries):
            if v.binary != in_int:
                kindmark = "'INTORG'" if v.binary else "'INTEND'"
                out.append(f"    MARK{marker:04d}  {'MARKER':<8}  {'':<12} {kindmark}")
                marker += 1
                in_int = v.binary
            prefix = f"    {f'C{v.col + 1}':<8}  "
            if v.col in self.obj:
                out.append(f"{prefix}{'OBJ':<8}  {num(self.obj[v.col])}")
            elif not col_entries:   # column must still appear
                out.append(f"{prefix}{'OBJ':<8}  0")
            if col_entries:
                out.append(prefix + ("\n" + prefix).join(col_entries))
        if in_int:
            out.append(f"    MARK{marker:04d}  {'MARKER':<8}  {'':<12} 'INTEND'")
        out.append("RHS")
        if self.obj_offset:
            # objective constant: minimize c.x - offset
            out.append(f"    RHS       {'OBJ':<8}  {num(self.obj_offset)}")
        out += rhs_lines
        if range_lines:
            out.append("RANGES")
            out += range_lines
        out.append("BOUNDS")
        for v in self.vars:
            cid = f"C{v.col + 1}"
            if v.binary and v.lo == 0.0 and v.hi == 1.0:
                out.append(f" BV BND       {cid}")
            elif v.lo == v.hi:
                out.append(f" FX BND       {cid:<8}  {num(v.lo)}")
            else:
                if v.lo != 0.0:
                    kind = "MI" if v.lo == -INF else "LO"
                    val = "" if v.lo == -INF else f"  {num(v.lo)}"
                    out.append(f" {kind} BND       {cid:<8}{val}")
                if v.hi < INF:
                    out.append(f" UP BND       {cid:<8}  {num(v.hi)}")
        out.append("ENDATA")
        with open(path, "w") as fh:
            fh.write("\n".join(out) + "\n")

    def write_lp(self, path) -> None:
        """LP-format text; `QcpModel` adds rows with [ ... ] quadratic blocks."""
        num, snum = functools.cache(_num), functools.cache(_snum)
        col_ids = [f"C{v.col + 1}" for v in self.vars]
        out = [f"\\ Problem: {self.name}", "Minimize",
               " obj: " + (_lp_terms(self.obj, col_ids, snum) or "0 " + col_ids[0]),
               "Subject To"]
        for r in self.rows:
            body = _lp_terms(r.coeffs, col_ids, snum) or "0 " + col_ids[0]
            for suffix, sense, val in _senses(r.lo, r.hi):
                out.append(f" R{r.num + 1}{suffix}: {body} {sense} {num(val)}")
        out += self._lp_quad_rows(col_ids, num, snum)
        out.append("Bounds")
        for v, cid in zip(self.vars, col_ids):
            if v.lo == v.hi:
                out.append(f" {cid} = {num(v.lo)}")
            else:
                lo = "-inf" if v.lo == -INF else num(v.lo)
                hi = "+inf" if v.hi == INF else num(v.hi)
                out.append(f" {lo} <= {cid} <= {hi}")
        bins = [cid for v, cid in zip(self.vars, col_ids) if v.binary]
        if bins:
            out.append("Binaries")
            for i in range(0, len(bins), 12):
                out.append(" " + " ".join(bins[i:i + 12]))
        out.append("End")
        with open(path, "w") as fh:
            fh.write("\n".join(out) + "\n")

    def _lp_quad_rows(self, col_ids, num, snum) -> list[str]:
        """LP lines of the rows with bilinear terms; a linear model has none."""
        return []


class QcpModel(MilpModel):
    """MilpModel plus rows with bilinear (spec x volume) terms."""

    def __init__(self, name: str = "model"):
        super().__init__(name)
        self.quad_rows: list[QuadRow] = []

    def add_quad_row(self, tag: str, coeffs: dict[VarRef, float],
                     quads: list[tuple[float, VarRef, VarRef]],
                     lo: float = -INF, hi: float = INF, name: str | None = None) -> QuadRow:
        if tag not in TAGS:
            raise ModelError(f"unknown constraint tag {tag!r}")
        row = QuadRow(
            len(self.quad_rows), tag,
            {ref.col: float(c) for ref, c in coeffs.items() if c != 0.0},
            [(float(c), a.col, b.col) for c, a, b in quads if c != 0.0],
            float(lo), float(hi), name or f"{tag}_q{len(self.quad_rows)}",
        )
        self.quad_rows.append(row)
        return row

    def has_bilinear(self) -> bool:
        return any(qr.quads for qr in self.quad_rows)

    def tags(self) -> set[str]:
        return super().tags() | {qr.tag for qr in self.quad_rows}

    def bilinear_pairs(self) -> set[tuple[int, int]]:
        """Distinct unordered column pairs appearing in bilinear terms."""
        pairs = set()
        for qr in self.quad_rows:
            for _, a, b in qr.quads:
                pairs.add((min(a, b), max(a, b)))
        return pairs

    def bilinear_kind_pairs(self) -> set[tuple[str, str]]:
        out = set()
        for a, b in self.bilinear_pairs():
            ka, kb = self.vars[a].kind, self.vars[b].kind
            out.add((ka, kb) if ka <= kb else (kb, ka))
        return out

    def _lp_quad_rows(self, col_ids, num, snum) -> list[str]:
        out = []
        for qr in self.quad_rows:
            inner = " ".join(f"{snum(c)} {col_ids[a]} * {col_ids[b]}" for c, a, b in qr.quads)
            body = " ".join(x for x in (_lp_terms(qr.coeffs, col_ids, snum), f"[ {inner} ]") if x)
            for suffix, sense, val in _senses(qr.lo, qr.hi):
                out.append(f" Q{qr.num + 1}{suffix}: {body} {sense} {num(val)}")
        return out


def _senses(lo: float, hi: float):
    if lo == hi:
        return [("", "=", lo)]
    parts = []
    if hi < INF:
        parts.append(("_ub" if lo > -INF else "", "<=", hi))
    if lo > -INF:
        parts.append(("_lb" if hi < INF else "", ">=", lo))
    if not parts:
        raise ModelError("row unbounded on both sides")
    return parts


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


def _snum(x: float) -> str:
    return ("+ " if x >= 0 else "- ") + _num(abs(x))


def _lp_terms(coeffs: dict[int, float], col_ids: list[str], snum) -> str:
    return " ".join([f"{snum(v)} {col_ids[c]}" for c, v in sorted(coeffs.items())])


def _json_member(key: str, value) -> str:
    """``"key": value`` as a member of a top-level ``json.dump(indent=2)`` object.

    JSON text holds no raw newline inside a string, so indenting every line
    after the first nests the value one level.
    """
    return f'  "{key}": ' + json.dumps(value, indent=2).replace("\n", "\n  ")


def _json_tag_entries(prefix: str, rows) -> list[str]:
    enc = encode_basestring_ascii
    return [f'    "{prefix}{r.num + 1}": {{\n      "name": {enc(r.name)},\n'
            f'      "tag": {enc(r.tag)}\n    }}' for r in rows]


def _json_map(key: str, entries: list[str]) -> str:
    """A top-level member whose value is an object of preformatted entries."""
    if not entries:
        return f'  "{key}": {{}}'
    return f'  "{key}": {{\n' + ",\n".join(entries) + "\n  }"


def parse_mps(path) -> dict:
    """Minimal MPS reader returning row/column statistics (test aid and
    round-trip check for the file-based solver contract)."""
    n_rows = 0
    cols = set()
    n_int = 0
    in_int = False
    section = None
    with open(path) as fh:
        for line in fh:
            if not line.strip() or line.startswith("*"):
                continue
            if not line[0].isspace():
                section = line.split()[0]
                continue
            parts = line.split()
            if section == "ROWS":
                if parts[0] in ("L", "G", "E"):
                    n_rows += 1
            elif section == "COLUMNS":
                if len(parts) >= 3 and parts[2] in ("'INTORG'", "'INTEND'"):
                    in_int = parts[2] == "'INTORG'"
                    continue
                name = parts[0]
                if name not in cols:
                    cols.add(name)
                    if in_int:
                        n_int += 1
    return {"rows": n_rows, "columns": len(cols), "integer_columns": n_int}
