"""Solver-agnostic optimization model containers.

`MilpModel` holds a flat variable registry plus tagged linear rows of the
form ``lo <= a.x <= hi`` and, for the exact models, rows with bilinear
terms (``quad_rows``, empty in a MILP).  A
column is its ``(kind, index)`` and a row its ``(tag, index)``, the tag from
the documented tag vocabulary (see TAGS), so that structural audits and the
export sidecar can address whole constraint families.  Both are named by one
rule, ``head[i1,i2,...]`` (see `_key_name`).
Constraints enforced purely through variable bounds or sparse variable
creation are recorded as *structural* tags.

The objective is stored in minimization form (penalty value of unloading
misses and feed misses) together with the constant target value, so the
reported objective ``offset - min_value`` is the usual maximization value.

The linear coefficients of every row are kept once, in flat typed arrays
(`RowMatrix`, row-wise); a `Row` holds its number, name parts and bounds,
and its ``coeffs`` is a dict read from those arrays on each access.

Export targets: fixed-format MPS for linear models, LP text for any model
(with quadratic constraint blocks for bilinear rows).  Both use short
row/column ids and emit a JSON sidecar mapping ids to names and tags.  The
writers stream: each section goes to the file a block of lines at a time,
and no file is held whole in memory.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

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
}

# The dated binary kinds: the builders make their columns binary, and a
# rolling step may relax them.
BINARY_KINDS = ("gamma", "sigma", "alpha")

# The flow / demand / unloading core: the rows every model shares.  A model
# with every other row dropped is its flow relaxation.
CORE_TAGS = frozenset({
    "inflow_balance", "outflow_balance", "demand_balance",
    "supply_total", "run_const_feed",
    "feed_share_lb", "feed_share_ub",
    "barge_unload_limit", "daily_unload_limit",
    "unload_flow_gate", "unload_min_pct",
    "first_unload_ub", "last_unload_lb", "unload_gap",
})

# Documented constraint-tag vocabulary.  Rows outside this set are a bug.
TAGS = CORE_TAGS | frozenset({
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
    "xdelta_mid_lb", "xdelta_mid_ub", "xdelta_mid_shift_lb", "xdelta_mid_shift_ub",
    "xdelta_end_lb", "xdelta_end_ub", "xdelta_end_shift_lb", "xdelta_end_shift_ub",
    "xdelta_out_lb", "xdelta_out_ub", "xdelta_out_shift_lb", "xdelta_out_shift_ub",
})


class ModelError(ValueError):
    pass


def _key_name(head: str, index: tuple) -> str:
    """The name of a column ``(kind, index)`` or a row ``(tag, index)``:
    ``head[i1,i2,...]``."""
    return f"{head}[{','.join(map(str, index))}]"


@dataclass(slots=True)
class VarRef:
    col: int
    kind: str
    index: tuple
    lo: float
    hi: float
    binary: bool

    @property
    def name(self) -> str:
        return _key_name(self.kind, self.index)

    @property
    def day(self) -> int | None:
        pos = VAR_DAY_POS.get(self.kind)
        return None if pos is None else self.index[pos]

    def __hash__(self):
        return self.col


class RowMatrix:
    """The linear coefficients of a list of rows, row-wise (CSR) in flat
    typed arrays: row ``i`` holds the columns ``index[start[i]:start[i + 1]]``
    with the coefficients ``value[start[i]:start[i + 1]]``, in the order they
    were added.  ``start`` and ``index`` are C ``int`` (32 bits), ``value``
    is ``double``."""

    __slots__ = ("start", "index", "value")

    def __init__(self):
        self.start = array("i", [0])
        self.index = array("i")
        self.value = array("d")

    def append(self, coeffs: dict[VarRef, float]) -> int:
        """Add a row of the nonzero ``coeffs``; return its number."""
        index, value = self.index, self.value
        n = len(index)
        try:
            for ref, c in coeffs.items():
                if c != 0.0:
                    col = ref.col
                    value.append(c)
                    index.append(col)
        except BaseException:
            del index[n:], value[n:]
            raise
        self.start.append(len(index))
        return len(self.start) - 2

    def terms(self, i: int):
        """Row ``i``'s ``(col, coefficient)`` pairs."""
        s, e = self.start[i], self.start[i + 1]
        return zip(self.index[s:e], self.value[s:e])

    def all_terms(self):
        """Every row's ``(col, coefficient)`` pairs, a list per row, row by row."""
        pairs = zip(self.index, self.value)
        for n in map(operator.sub, self.start[1:], self.start):
            yield list(itertools.islice(pairs, n))


class Row:
    """Row ``num`` of its model list, ``lo <= a.x (+ quads) <= hi``, named by
    ``(tag, index)``.  ``quads`` lists ``(coef, col_a, col_b)`` bilinear
    terms and is empty for a linear row; ``a`` lives in the model's
    `RowMatrix`, and ``coeffs`` is a new dict read from it on every access,
    so changing that dict leaves the model as it was."""

    __slots__ = ("num", "tag", "index", "lo", "hi", "quads", "_matrix")

    def __init__(self, matrix: RowMatrix, num: int, tag: str, index: tuple, lo: float, hi: float,
                 quads: tuple[tuple[float, int, int], ...] = ()):
        self._matrix, self.num, self.tag, self.index = matrix, num, tag, index
        self.lo, self.hi, self.quads = lo, hi, quads

    @property
    def coeffs(self) -> dict[int, float]:
        """col -> coefficient, nonzeros only."""
        return dict(self._matrix.terms(self.num))

    @property
    def name(self) -> str:
        return _key_name(self.tag, self.index)

    def __repr__(self) -> str:
        return (f"Row({self.num}, {self.name}, {self.coeffs}, lo={self.lo}, hi={self.hi}"
                + (f", quads={self.quads})" if self.quads else ")"))


def _add_row(rows: list[Row], matrix: RowMatrix, tag: str, index: tuple,
             coeffs: dict[VarRef, float], lo: float, hi: float,
             quads: tuple[tuple[float, int, int], ...] = ()) -> Row:
    if tag not in TAGS:
        raise ModelError(f"unknown constraint tag {tag!r}")
    lo, hi = float(lo), float(hi)
    row = Row(matrix, matrix.append(coeffs), tag, index, lo, hi, quads)
    rows.append(row)
    return row


class MilpModel:
    """Constraint registry with tagged linear rows, tagged rows with
    bilinear terms and a linear objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[VarRef] = []
        self.rows: list[Row] = []
        self.quad_rows: list[Row] = []
        self.matrix = RowMatrix()          # coefficients of `rows`
        self.quad_matrix = RowMatrix()     # linear coefficients of `quad_rows`
        self.obj: dict[int, float] = {}
        self.obj_offset = 0.0          # target value; reported = offset - min
        self.structural_tags: Counter = Counter()
        self.starts: dict[int, float] = {}
        self._lookup: dict[tuple[str, tuple], VarRef] = {}
        self.instance = None           # set by builders
        self.plans = None              # per (tank, spec) digit plans, if any

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

    # -- rows ----------------------------------------------------------------

    def add_row(self, tag: str, index: tuple, coeffs: dict[VarRef, float],
                lo: float = -INF, hi: float = INF) -> Row:
        return _add_row(self.rows, self.matrix, tag, index, coeffs, lo, hi)

    def add_eq(self, tag: str, index: tuple, coeffs: dict[VarRef, float], rhs: float) -> Row:
        return self.add_row(tag, index, coeffs, rhs, rhs)

    def add_quad_row(self, tag: str, index: tuple, coeffs: dict[VarRef, float],
                     quads: list[tuple[float, VarRef, VarRef]],
                     lo: float = -INF, hi: float = INF) -> Row:
        return _add_row(self.quad_rows, self.quad_matrix, tag, index, coeffs, lo, hi,
                        tuple((float(c), a.col, b.col) for c, a, b in quads if c != 0.0))

    def note_structural(self, tag: str, count: int = 1) -> None:
        if tag not in TAGS:
            raise ModelError(f"unknown structural tag {tag!r}")
        if count > 0:
            self.structural_tags[tag] += count

    def tags(self) -> set[str]:
        return {r.tag for r in itertools.chain(self.rows, self.quad_rows)} | set(self.structural_tags)

    def rows_by_tag(self, tag: str) -> list[Row]:
        return [r for r in self.rows if r.tag == tag]

    # -- objective -----------------------------------------------------------

    def set_objective(self, coeffs: dict[VarRef, float], offset: float) -> None:
        self.obj = {ref.col: float(c) for ref, c in coeffs.items() if c != 0.0}
        self.obj_offset = float(offset)

    def value_bound(self) -> float | None:
        """An upper bound on the reported objective from the column bounds
        alone: the offset minus the least value the cost terms can take.

        None when a costed column is unbounded on its cheap side; a
        zero-cost column is not in ``obj`` (see ``set_objective``).  The
        builders cost only ``v_unused`` and ``mis``, at a non-negative
        penalty over columns with lower bound 0, so for their models this
        is ``obj_offset``, the all-served target.
        """
        least = 0.0
        for col, c in self.obj.items():
            v = self.vars[col]
            x = v.lo if c > 0 else v.hi
            if math.isinf(x):
                return None
            least += c * x
        return self.obj_offset - least

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
        return any(qr.quads for qr in self.quad_rows)

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

    # -- solver arrays ---------------------------------------------------------

    def to_arrays(self):
        """(c, integrality, var_lo, var_hi, A, row_lo, row_hi) for a MILP solver.

        ``A`` is the constraint matrix in row-wise (CSR) form, a tuple of
        numpy arrays ``(start, index, value)``: row ``i`` holds the columns
        ``index[start[i]:start[i + 1]]`` with the coefficients
        ``value[start[i]:start[i + 1]]``, in the order of ``Row.coeffs``.
        ``start`` has ``n_rows + 1`` entries; ``index`` and ``start`` are
        int32, the index type HiGHS takes.  They are copies of ``matrix``'s
        arrays: a numpy view would keep those arrays from growing, so the
        model could take no further row while the result lives.
        """
        # Imported here, not at module level: only solving needs the arrays,
        # and loading numpy is a large part of the start-up time of every
        # command that validates, exports, simulates or audits a plan.
        import numpy as np

        n = len(self.vars)
        c = np.zeros(n)
        for col, v in self.obj.items():
            c[col] = v
        integrality = np.array([1 if v.binary else 0 for v in self.vars], dtype=np.uint8)
        var_lo = np.array([v.lo for v in self.vars])
        var_hi = np.array([v.hi for v in self.vars])
        row_lo = np.array([r.lo for r in self.rows])
        row_hi = np.array([r.hi for r in self.rows])
        mat = self.matrix
        start = np.frombuffer(mat.start, dtype=np.int32).copy()
        index = np.frombuffer(mat.index, dtype=np.int32).copy()
        value = np.frombuffer(mat.value, dtype=np.float64).copy()
        return c, integrality, var_lo, var_hi, (start, index, value), row_lo, row_hi

    # -- export ---------------------------------------------------------------

    def write_sidecar(self, path) -> None:
        """JSON map of the short ids to names and tags, in ``json.dump(indent=2)`` layout.

        The row, column and quad-row maps are written one preformatted entry
        at a time; the small sections go through `json.dumps`.
        """
        enc = encode_basestring_ascii
        sections = [
            [_json_member("model", self.name)],
            [_json_member("objective_offset", self.obj_offset)],
            [_json_member("objective_sense", "min (reported objective = offset - min value)")],
            _json_map("rows", _json_tag_entries("R", self.rows)),
            _json_map("columns", (
                f'    "C{v.col + 1}": {{\n      "name": {enc(v.name)},\n'
                f'      "kind": {enc(v.kind)},\n'
                f'      "binary": {"true" if v.binary else "false"}\n    }}' for v in self.vars)),
            [_json_member("structural_tags", dict(self.structural_tags))],
            [_json_member("starts", {f"C{c + 1}": v for c, v in sorted(self.starts.items())})],
        ]
        if self.plans is not None:
            sections.append([_json_member(
                "plans", {f"{k},{q}": p.to_dict() for (k, q), p in sorted(self.plans.items())})])
        if self.quad_rows:
            sections.append(_json_map("quad_rows", _json_tag_entries("Q", self.quad_rows)))
        with open(path, "w") as fh:
            fh.write("{\n")
            for i, section in enumerate(sections):
                if i:
                    fh.write(",\n")
                fh.writelines(section)
            fh.write("\n}\n")

    def write_mps(self, path) -> None:
        """Fixed-format MPS, written a block of lines at a time.  ``COLUMNS``
        gathers each column's entries, in row order, in one pass over the
        nonzeros and joins each column's lines once."""
        if self.has_bilinear():
            raise ModelError("bilinear rows cannot be written as MPS; use write_lp")
        senses = "".join(map(_sense, self.rows))    # raises before the file is opened
        _write_lines(path, self._mps_lines(senses))

    def _mps_lines(self, senses: str):
        num = functools.cache(_num)
        yield f"NAME          {self.name}"
        yield "ROWS"
        yield " N  OBJ"
        rids = [f"R{i}" for i in range(1, len(senses) + 1)]
        yield from map(operator.add, map(_MPS_ROW_HEAD.__getitem__, senses), rids)
        yield "COLUMNS"
        # Each column's entries in row order, as two lists: the row ids,
        # padded to 8 characters plus the gap, and the values' text.  Both
        # hold strings shared with other entries, and map() fills them
        # without a Python step per nonzero.
        rids = [rid.ljust(8) + "  " for rid in rids]
        mat = self.matrix
        rid_lists = [[] for _ in self.vars]
        num_lists = [[] for _ in self.vars]
        row_rids = itertools.chain.from_iterable(
            map(itertools.repeat, rids, map(operator.sub, mat.start[1:], mat.start)))
        deque(map(list.append, map(rid_lists.__getitem__, mat.index), row_rids), 0)
        deque(map(list.append, map(num_lists.__getitem__, mat.index), map(num, mat.value)), 0)
        in_int = False
        marker = 0
        for v, col_rids, col_nums in zip(self.vars, rid_lists, num_lists):
            if v.binary != in_int:
                kindmark = "'INTORG'" if v.binary else "'INTEND'"
                yield f"    MARK{marker:04d}  {'MARKER':<8}  {'':<12} {kindmark}"
                marker += 1
                in_int = v.binary
            prefix = f"    {f'C{v.col + 1}':<8}  "
            if v.col in self.obj:
                yield f"{prefix}{'OBJ':<8}  {num(self.obj[v.col])}"
            elif not col_rids:   # column must still appear
                yield f"{prefix}{'OBJ':<8}  0"
            if col_rids:
                yield prefix + ("\n" + prefix).join(map(operator.add, col_rids, col_nums))
        del rid_lists, num_lists     # not held while the rest of the file is written
        if in_int:
            yield f"    MARK{marker:04d}  {'MARKER':<8}  {'':<12} 'INTEND'"
        yield "RHS"
        if self.obj_offset:
            # objective constant: minimize c.x - offset
            yield f"    RHS       {'OBJ':<8}  {num(self.obj_offset)}"
        for rid, sense, r in zip(rids, senses, self.rows):
            rhs = r.lo if sense in "EG" else r.hi
            if rhs != 0.0:
                yield "    RHS       " + rid + num(rhs)
        if "R" in senses:
            yield "RANGES"
            for rid, sense, r in zip(rids, senses, self.rows):
                if sense == "R":
                    yield "    RNG       " + rid + num(r.hi - r.lo)
        yield "BOUNDS"
        for v in self.vars:
            cid = f"C{v.col + 1}"
            if v.binary and v.lo == 0.0 and v.hi == 1.0:
                yield f" BV BND       {cid}"
            elif v.lo == v.hi:
                yield f" FX BND       {cid:<8}  {num(v.lo)}"
            else:
                if v.lo != 0.0:
                    kind = "MI" if v.lo == -INF else "LO"
                    val = "" if v.lo == -INF else f"  {num(v.lo)}"
                    yield f" {kind} BND       {cid:<8}{val}"
                if v.hi < INF:
                    yield f" UP BND       {cid:<8}  {num(v.hi)}"
        yield "ENDATA"

    def write_lp(self, path) -> None:
        """LP-format text, written a block of lines at a time; rows with
        bilinear terms hold [ ... ] quadratic blocks."""
        senses = "".join(map(_sense, self.rows))    # raises before the file is opened
        quad_senses = "".join(map(_sense, self.quad_rows))
        _write_lines(path, self._lp_lines(senses, quad_senses))

    def _lp_lines(self, senses: str, quad_senses: str):
        num, snum = functools.cache(_num), functools.cache(_snum)
        col_ids = [f"C{v.col + 1}" for v in self.vars]
        yield f"\\ Problem: {self.name}"
        yield "Minimize"
        yield " obj: " + (_lp_terms(self.obj.items(), col_ids, snum) or "0 " + col_ids[0])
        yield "Subject To"
        for r, sense, terms in zip(self.rows, senses, self.matrix.all_terms()):
            body = _lp_terms(terms, col_ids, snum) or "0 " + col_ids[0]
            for suffix, op, upper in _LP_CONSTRAINTS[sense]:
                yield f" R{r.num + 1}{suffix}: {body} {op} {num(r.hi if upper else r.lo)}"
        for qr, sense, terms in zip(self.quad_rows, quad_senses, self.quad_matrix.all_terms()):
            inner = " ".join(f"{snum(c)} {col_ids[a]} * {col_ids[b]}" for c, a, b in qr.quads)
            body = " ".join(x for x in (_lp_terms(terms, col_ids, snum), f"[ {inner} ]") if x)
            for suffix, op, upper in _LP_CONSTRAINTS[sense]:
                yield f" Q{qr.num + 1}{suffix}: {body} {op} {num(qr.hi if upper else qr.lo)}"
        yield "Bounds"
        for v, cid in zip(self.vars, col_ids):
            if v.lo == v.hi:
                yield f" {cid} = {num(v.lo)}"
            else:
                lo = "-inf" if v.lo == -INF else num(v.lo)
                hi = "+inf" if v.hi == INF else num(v.hi)
                yield f" {lo} <= {cid} <= {hi}"
        bins = [cid for v, cid in zip(self.vars, col_ids) if v.binary]
        if bins:
            yield "Binaries"
            for i in range(0, len(bins), 12):
                yield " " + " ".join(bins[i:i + 12])
        yield "End"


# The MPS ROWS line head of each `_sense`.
_MPS_ROW_HEAD = {"E": " E  ", "L": " L  ", "G": " G  ", "R": " L  "}

# The LP constraints of each `_sense`: (name suffix, operator, whether the
# right-hand side is ``hi`` rather than ``lo``).
_LP_CONSTRAINTS = {"E": (("", "=", False),), "L": (("", "<=", True),),
                   "G": (("", ">=", False),), "R": (("_ub", "<=", True), ("_lb", ">=", False))}


def _sense(r: Row) -> str:
    """A row's sense, ``E``, ``L`` or ``G``, or ``R`` for a row bounded on
    both sides by different values: in MPS, an ``L`` row with a range, its
    right-hand side ``lo`` for ``E`` and ``G``, ``hi`` for ``L`` and ``R``."""
    if r.lo == r.hi:
        return "E"
    if r.lo == -INF and r.hi < INF:
        return "L"
    if r.hi == INF and r.lo > -INF:
        return "G"
    if r.lo > -INF and r.hi < INF:
        return "R"
    raise ModelError(f"row {r.name} is unbounded on both sides")


def _blocks(items, sep: str, size: int = 4096):
    """``sep.join(items)`` as a series of strings of up to ``size`` items each."""
    items = iter(items)
    lead = ""
    while block := list(itertools.islice(items, size)):
        yield lead + sep.join(block)
        lead = sep


def _write_lines(path, lines) -> None:
    """Write each of ``lines`` and a newline to the file at ``path``."""
    with open(path, "w") as fh:
        fh.writelines(_blocks(lines, "\n"))
        fh.write("\n")


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


def _snum(x: float) -> str:
    return ("+ " if x >= 0 else "- ") + _num(abs(x))


def _lp_terms(terms, col_ids: list[str], snum) -> str:
    """``(col, coefficient)`` pairs as LP text, in column order."""
    return " ".join([f"{snum(v)} {col_ids[c]}" for c, v in sorted(terms)])


def _json_member(key: str, value) -> str:
    """``"key": value`` as a member of a top-level ``json.dump(indent=2)`` object.

    JSON text holds no raw newline inside a string, so indenting every line
    after the first nests the value one level.
    """
    return f'  "{key}": ' + json.dumps(value, indent=2).replace("\n", "\n  ")


def _json_tag_entries(prefix: str, rows):
    enc = encode_basestring_ascii
    return (f'    "{prefix}{r.num + 1}": {{\n      "name": {enc(r.name)},\n'
            f'      "tag": {enc(r.tag)}\n    }}' for r in rows)


def _json_map(key: str, entries):
    """A top-level member whose value is an object of preformatted entries,
    as a series of strings."""
    blocks = _blocks(entries, ",\n")
    first = next(blocks, None)
    if first is None:
        yield f'  "{key}": {{}}'
        return
    yield f'  "{key}": {{\n' + first
    yield from blocks
    yield "\n  }"


def parse_mps(path) -> dict:
    """Minimal MPS reader returning row/column statistics (a test aid, and
    the benchmark's check that an exported model has the built model's size)."""
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
