"""Problem data for the barge unloading / tank blending scheduler.

An `Instance` bundles everything the model builders and the simulator need:
chemical properties ("specs", tracked as percentage points of volume),
supply barges with availability windows, storage tanks with inventory
bounds, demand runs (consecutive days of constant production feed), and
operational limits on unloading.

Time is a 0-based integer day grid ``{0, ..., horizon - 1}``.  Run days and
barge windows are inclusive ``[first, last]`` intervals on that grid.  Tank
initial state is the state at the end of day -1.

Instances are treated as immutable after validation (frozen dataclasses,
shallow) and can therefore be shared freely across workers.  Each instance
object validates itself once, on the first `derive_sets` call, and keeps
the derived sets; mutating its nested dicts afterwards is not supported.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

log = logging.getLogger(__name__)

SCHEMA_ID = "blendplan-instance/1"


class InstanceError(ValueError):
    """Raised for malformed instance or plan files and invalid instance data."""


@dataclass(frozen=True)
class SpecDef:
    id: str
    unit: str = "vol%"  # concentration in percentage points of volume


@dataclass(frozen=True)
class Barge:
    id: str
    volume: float                    # metric tons available for unloading
    specs: dict[str, float]          # spec id -> concentration on the barge
    window: tuple[int, int]          # inclusive [first, last] available day
    unload_penalty: float            # currency per metric ton left on board
    allowed_tanks: tuple[str, ...]   # tanks this barge may unload into
    max_unloads: int | None = None   # per-barge override of ops.max_unloads_per_barge
    min_unload_pct: float | None = None  # per-barge override of ops.min_daily_unload_pct


@dataclass(frozen=True)
class Tank:
    id: str
    v_max: float                     # maximum inventory, metric tons
    v_min: float                     # minimum inventory, metric tons
    v_init: float                    # inventory at end of day -1
    specs_init: dict[str, float]     # spec id -> initial concentration
    min_feed_pct: float              # min share of daily demand if tank feeds


@dataclass(frozen=True)
class Run:
    id: str
    days: tuple[int, int]            # inclusive [first, last] demand day
    daily_demand: float              # metric tons per day, constant in the run
    spec_bounds: dict[str, tuple[float, float]]
    ratio_bounds: dict[tuple[str, str], tuple[float, float]]
    miss_penalty: float              # currency per metric ton of missed feed


@dataclass(frozen=True)
class OpsParams:
    max_unloads_per_day: int         # barges unloaded per day, plant-wide
    max_unloads_per_barge: int       # unload days per barge over its window
    max_unload_gap: int              # max days between first and last unload
    min_daily_unload_pct: float      # min fraction of barge volume per unload day
    horizon: int                     # number of days in the schedule


@dataclass(frozen=True)
class Instance:
    specs: tuple[SpecDef, ...]
    barges: tuple[Barge, ...]
    tanks: tuple[Tank, ...]
    runs: tuple[Run, ...]
    ops: OpsParams

    @property
    def horizon(self) -> int:
        return self.ops.horizon

    def spec_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.specs)

    def tank(self, tank_id: str) -> Tank:
        return _by_id(self.tanks, tank_id)

    def barge(self, barge_id: str) -> Barge:
        return _by_id(self.barges, barge_id)

    def barge_max_unloads(self, b: Barge) -> int:
        return b.max_unloads if b.max_unloads is not None else self.ops.max_unloads_per_barge

    def barge_min_unload_pct(self, b: Barge) -> float:
        return b.min_unload_pct if b.min_unload_pct is not None else self.ops.min_daily_unload_pct

    @cached_property
    def _sets(self) -> DerivedSets:
        # cached_property writes __dict__ directly, past the frozen
        # __setattr__; a raise caches nothing, so invalid stays invalid
        validate_instance(self).raise_if_invalid()
        return _build_sets(self)

    def __getstate__(self) -> dict:
        # pickles and copies carry the fields only, as before the cache
        return {k: v for k, v in self.__dict__.items() if k != "_sets"}


def _by_id(items, item_id: str):
    for it in items:
        if it.id == item_id:
            return it
    raise KeyError(item_id)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def add(self, path: str, message: str) -> None:
        self.violations.append(Violation(path, message))

    def raise_if_invalid(self) -> None:
        if not self.ok:
            lines = "\n  ".join(str(v) for v in self.violations)
            raise InstanceError(f"invalid instance:\n  {lines}")


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every structural invariant; an empty report means well-formed."""
    rep = ValidationReport()
    spec_ids = [s.id for s in inst.specs]
    _check_unique(rep, "specs", spec_ids)
    _check_unique(rep, "tanks", [t.id for t in inst.tanks])
    _check_unique(rep, "barges", [b.id for b in inst.barges])
    _check_unique(rep, "runs", [r.id for r in inst.runs])
    tank_ids = {t.id for t in inst.tanks}
    specs = set(spec_ids)
    H = inst.ops.horizon

    ops = inst.ops
    if ops.horizon <= 0:
        rep.add("ops.horizon", "must be positive")
    if ops.max_unloads_per_day <= 0:
        rep.add("ops.max_unloads_per_day", "must be positive")
    if ops.max_unloads_per_barge <= 0:
        rep.add("ops.max_unloads_per_barge", "must be positive")
    if ops.max_unload_gap <= 0:
        rep.add("ops.max_unload_gap", "must be positive")
    if not 0 < ops.min_daily_unload_pct <= 1:
        rep.add("ops.min_daily_unload_pct", "must be a fraction in (0, 1]")

    for i, t in enumerate(inst.tanks):
        path = f"tanks[{i}]({t.id})"
        _check_finite(rep, path, {"v_max": t.v_max, "v_min": t.v_min, "v_init": t.v_init,
                                  "min_feed_pct": t.min_feed_pct})
        if not (0 <= t.v_min <= t.v_init <= t.v_max):
            rep.add(path, "inventory bounds inverted: need 0 <= v_min <= v_init <= v_max")
        if not (0 <= t.min_feed_pct <= 1):
            rep.add(path + ".min_feed_pct", "must be a fraction in [0, 1]")
        _check_spec_map(rep, path + ".specs_init", t.specs_init, specs)

    for i, b in enumerate(inst.barges):
        path = f"barges[{i}]({b.id})"
        _check_finite(rep, path, {"volume": b.volume, "unload_penalty": b.unload_penalty})
        if b.volume <= 0:
            rep.add(path + ".volume", "must be positive")
        if b.unload_penalty < 0:
            rep.add(path + ".unload_penalty", "must be non-negative")
        t0, t1 = b.window
        if not (0 <= t0 <= t1):
            rep.add(path + ".window", "need 0 <= first <= last")
        elif t1 > H - 1:
            rep.add(path + ".window", f"ends on day {t1}, beyond horizon {H}")
        if not b.allowed_tanks:
            rep.add(path + ".allowed_tanks", "must be nonempty")
        _check_unique(rep, path + ".allowed_tanks", b.allowed_tanks)
        for k in b.allowed_tanks:
            if k not in tank_ids:
                rep.add(path + ".allowed_tanks", f"unknown tank {k!r}")
        if b.max_unloads is not None and b.max_unloads < 0:
            rep.add(path + ".max_unloads", "must be non-negative")
        if b.min_unload_pct is not None and not (0 < b.min_unload_pct <= 1):
            rep.add(path + ".min_unload_pct", "must be a fraction in (0, 1]")
        _check_spec_map(rep, path + ".specs", b.specs, specs)

    seen_days: list[tuple[int, int, str]] = []
    for i, r in enumerate(inst.runs):
        path = f"runs[{i}]({r.id})"
        t0, t1 = r.days
        if not (0 <= t0 <= t1):
            rep.add(path + ".days", "need 0 <= first <= last")
        elif t1 > H - 1:
            rep.add(path + ".days", f"ends on day {t1}, beyond horizon {H}")
        _check_finite(rep, path, {"daily_demand": r.daily_demand,
                                  "miss_penalty": r.miss_penalty})
        if r.daily_demand <= 0:
            rep.add(path + ".daily_demand", "must be positive")
        if r.miss_penalty < 0:
            rep.add(path + ".miss_penalty", "must be non-negative")
        for q, (lo, hi) in r.spec_bounds.items():
            if q not in specs:
                rep.add(path + ".spec_bounds", f"unknown spec {q!r}")
            _check_finite(rep, path + f".spec_bounds[{q}]", {"lo": lo, "hi": hi})
            if lo > hi:
                rep.add(path + f".spec_bounds[{q}]", "empty interval")
        for (q1, q2), (lo, hi) in r.ratio_bounds.items():
            rpath = path + f".ratio_bounds[{q1}/{q2}]"
            if q1 not in specs or q2 not in specs:
                rep.add(rpath, "unknown spec in ratio pair")
                continue
            if q1 == q2:
                rep.add(rpath, "ratio pair must use two distinct specs")
            _check_finite(rep, rpath, {"lo": lo, "hi": hi})
            if lo > hi:
                rep.add(rpath, "empty interval")
            denom = r.spec_bounds.get(q2)
            if denom is None or denom[0] <= 0:
                rep.add(rpath, "denominator spec needs a positive lower bound in spec_bounds")
        for pt0, pt1, pid in seen_days:
            if t0 <= pt1 and pt0 <= t1:
                rep.add(path + ".days", f"runs overlap: {r.id} and {pid}")
        seen_days.append((t0, t1, r.id))

    return rep


def _check_finite(rep: ValidationReport, path: str, values: dict[str, float]) -> None:
    """Flag each named value that is not a finite number, NaN included."""
    for name, v in values.items():
        if not math.isfinite(v):
            rep.add(f"{path}.{name}", "must be a finite number")


def _check_unique(rep: ValidationReport, path: str, ids) -> None:
    seen = set()
    for i in ids:
        if i in seen:
            rep.add(path, f"duplicate id {i!r}")
        seen.add(i)


def _check_spec_map(rep: ValidationReport, path: str, mapping: dict[str, float], specs: set[str]) -> None:
    if set(mapping) != specs:
        missing = sorted(specs - set(mapping))
        extra = sorted(set(mapping) - specs)
        parts = []
        if missing:
            parts.append(f"missing specs {missing}")
        if extra:
            parts.append(f"unknown specs {extra}")
        rep.add(path, "; ".join(parts))
    for q, v in mapping.items():
        if not math.isfinite(v):
            rep.add(f"{path}[{q}]", "concentration must be a finite number")
        elif v < 0:
            rep.add(f"{path}[{q}]", "concentration must be non-negative")


# ---------------------------------------------------------------------------
# Derived index sets


@dataclass(frozen=True)
class DerivedSets:
    available_by_day: dict[int, tuple[str, ...]]   # day -> barges in window
    demand_days: tuple[int, ...]                   # sorted union of run days
    demand_by_day: dict[int, float]
    miss_penalty_by_day: dict[int, float]
    value_target: float                            # penalty value of all supply and demand

    def demand(self, day: int) -> float:
        return self.demand_by_day.get(day, 0.0)


def derive_sets(inst: Instance) -> DerivedSets:
    """Expand windows and runs into per-day lookup tables.

    The first call on an instance object validates it (raising
    `InstanceError`) and builds the sets; later calls return the same
    `DerivedSets` object.
    """
    return inst._sets


def _build_sets(inst: Instance) -> DerivedSets:
    available: dict[int, list[str]] = {}
    for b in inst.barges:
        for t in range(b.window[0], b.window[1] + 1):
            available.setdefault(t, []).append(b.id)
    demand_by_day: dict[int, float] = {}
    miss_by_day: dict[int, float] = {}
    for r in inst.runs:
        for t in range(r.days[0], r.days[1] + 1):
            demand_by_day[t] = r.daily_demand
            miss_by_day[t] = r.miss_penalty
    demand_days = tuple(sorted(demand_by_day))
    return DerivedSets(
        available_by_day={t: tuple(v) for t, v in sorted(available.items())},
        demand_days=demand_days,
        demand_by_day=demand_by_day,
        miss_penalty_by_day=miss_by_day,
        value_target=(sum(b.unload_penalty * b.volume for b in inst.barges)
                      + sum(miss_by_day[t] * demand_by_day[t] for t in demand_days)),
    )


# ---------------------------------------------------------------------------
# Instance generation: periodic extension and randomized supply


def extend_periodic(inst: Instance, target_h: int) -> Instance:
    """Repeat runs and barges with period equal to the source horizon.

    Replica j is shifted by ``j * horizon`` days; entities whose interval
    does not fit entirely inside ``target_h`` are dropped whole (a run with
    a constant-feed requirement has no meaning when cut).  Replica 0 keeps
    the original ids, later replicas get an ``#j`` suffix.
    """
    h0 = inst.ops.horizon
    if target_h < h0:
        raise InstanceError(f"target horizon {target_h} is below the source horizon {h0}")
    if target_h == h0:
        return inst
    barges: list[Barge] = []
    runs: list[Run] = []
    n_rep = math.ceil(target_h / h0)
    for j in range(n_rep):
        shift = j * h0
        suffix = "" if j == 0 else f"#{j}"
        for b in inst.barges:
            w = (b.window[0] + shift, b.window[1] + shift)
            if w[1] <= target_h - 1:
                barges.append(replace(b, id=b.id + suffix, window=w))
        for r in inst.runs:
            d = (r.days[0] + shift, r.days[1] + shift)
            if d[1] <= target_h - 1:
                runs.append(replace(r, id=r.id + suffix, days=d))
    out = replace(inst, barges=tuple(barges), runs=tuple(runs),
                  ops=replace(inst.ops, horizon=target_h))
    derive_sets(out)
    return out


@dataclass(frozen=True)
class RandomizationParams:
    volume_rel: float = 0.0      # barge volume jitter, relative (+/-)
    spec_rel: float = 0.0        # barge spec jitter, relative (+/-)
    window_shift: int = 0        # max absolute shift of the window, days

    def __post_init__(self):
        # written so that NaN fails; numpy draws nothing from an infinite range
        for name in ("volume_rel", "spec_rel", "window_shift"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


def randomize_supply(inst: Instance, seed: int, jitter: RandomizationParams) -> Instance:
    """Perturb barge volumes, specs and windows; deterministic per seed.

    Values that would break invariants (windows off the grid, negative
    concentrations) are clamped and the clamp is logged.
    """
    # numpy is imported here, not at module level: loading it is most of the
    # start-up time of `import blendplan`, and nothing else here needs it
    import numpy as np

    derive_sets(inst)
    rng = np.random.default_rng(seed)
    H = inst.ops.horizon
    barges: list[Barge] = []
    for b in inst.barges:
        vol = b.volume * (1.0 + rng.uniform(-jitter.volume_rel, jitter.volume_rel))
        if vol <= 0:
            log.warning("randomize_supply: volume of %s clamped to %.3f", b.id, b.volume * 0.01)
            vol = b.volume * 0.01
        specs = {}
        for q in sorted(b.specs):
            v = b.specs[q] * (1.0 + rng.uniform(-jitter.spec_rel, jitter.spec_rel))
            if v < 0:
                log.warning("randomize_supply: spec %s of %s clamped to 0", q, b.id)
                v = 0.0
            specs[q] = v
        shift = int(rng.integers(-jitter.window_shift, jitter.window_shift + 1)) if jitter.window_shift else 0
        t0, t1 = b.window[0] + shift, b.window[1] + shift
        if t0 < 0 or t1 > H - 1:
            fix = -t0 if t0 < 0 else (H - 1 - t1)
            log.warning("randomize_supply: window of %s clamped by %+d days", b.id, fix)
            t0, t1 = t0 + fix, t1 + fix
        barges.append(replace(b, volume=vol, specs=specs, window=(t0, t1)))
    out = replace(inst, barges=tuple(barges))
    derive_sets(out)
    return out


# ---------------------------------------------------------------------------
# File formats (instance schema "blendplan-instance/1"; plans in simulate.py)
#
# Each record is declared once, as a table of its members in file order,
# each mapped to the shape of its value.  One reader and one writer per
# shape serve every table; a reader refuses a value of the wrong shape
# with the value's path, e.g. ``barges[0].window[0]``, which each reader
# hands its children extended by their index, key or member name.


@dataclass(frozen=True)
class Shape:
    """How a value reads from JSON, ``read(value, path)``, and writes back.
    ``path`` is the value's place as text, ``""`` at the top of a file.
    An ``optional`` member may be missing: it then takes its dataclass
    default, or ``default()`` where the field has none."""
    read: object
    write: object
    optional: bool = False
    default: object = None


def _refuse(where: str, want: str, value):
    got = json.dumps(value, default=repr)
    raise InstanceError(f"{where}: expected {want}, got {got if len(got) <= 60 else got[:57] + '...'}")


def _scalar(want: str, ok, convert, write=lambda v: v) -> Shape:
    def read(value, path):
        try:
            if not isinstance(value, bool) and ok(value):
                return convert(value)
        except OverflowError:   # an integer beyond the float range
            pass
        _refuse(path, want, value)
    return Shape(read, write)


NUMBER = _scalar("a number", lambda v: isinstance(v, (int, float)), float)
FINITE = _scalar("a finite number",
                 lambda v: isinstance(v, (int, float)) and math.isfinite(v), float)
WHOLE = _scalar("a whole number",
                lambda v: isinstance(v, int) or isinstance(v, float) and v.is_integer(), int, int)
COUNT = _scalar("a whole number >= 0",
                lambda v: isinstance(v, (int, float)) and v >= 0 and v % 1 == 0, int, int)
BINARY = _scalar("0 or 1", lambda v: isinstance(v, (int, float)) and v in (0, 1), int, int)
STRING = _scalar("a string", lambda v: isinstance(v, str), str)


def optional(shape: Shape, default=None) -> Shape:
    return replace(shape, optional=True, default=default)


def array(item: Shape) -> Shape:
    """A JSON array of ``item``s, read as a tuple."""
    def read(value, path):
        if not isinstance(value, list):
            _refuse(path, "an array", value)
        return tuple(item.read(x, f"{path}[{i}]") for i, x in enumerate(value))
    return Shape(read, lambda value: [item.write(x) for x in value])


def fixed(want: str, *parts: Shape) -> Shape:
    """A JSON array of one value per part, ``want`` naming them, read as a
    tuple: a ``[first, last]`` pair or a plan entry."""
    def read(value, path):
        if not isinstance(value, list) or len(value) != len(parts):
            _refuse(path, want, value)
        return tuple(s.read(x, f"{path}[{i}]") for i, (s, x) in enumerate(zip(parts, value)))
    return Shape(read, lambda value: [s.write(x) for s, x in zip(parts, value)])


def keyed(item: Shape, key: Shape = STRING) -> Shape:
    """A JSON object of ``item``s, written in key order."""
    def read(value, path):
        if not isinstance(value, dict):
            _refuse(path, "a JSON object", value)
        return {key.read(k, path): item.read(x, f"{path}[{k}]") for k, x in value.items()}
    return Shape(read, lambda value: {key.write(k): item.write(x) for k, x in sorted(value.items())})


def entries(want: str, *parts: Shape) -> Shape:
    """A map as a JSON array of ``[*key, value]`` entries, the plan files'
    form, written in key order; a one-part key reads bare."""
    rows, bare = array(fixed(want, *parts)), len(parts) == 2

    def read(value, path):
        out = {}
        for i, (*key, x) in enumerate(rows.read(value, path)):
            key = key[0] if bare else tuple(key)
            if key in out:
                raise InstanceError(f"{path}[{i}]: repeats the key of an earlier entry")
            out[key] = x
        return out
    return Shape(read, lambda value: [[*((k,) if bare else k), parts[-1].write(x)]
                                      for k, x in sorted(value.items())])


def record(cls, fields: dict[str, Shape], schema: str | None = None, label: str = "") -> Shape:
    """A JSON object read as ``cls(**members)``; a member that is None is not
    written.  A file's record leads with a ``schema`` member holding
    ``schema``, and its own errors name it ``label``."""
    head = {} if schema is None else {"schema": schema}

    def read(value, path=""):
        if not isinstance(value, dict):
            _refuse(path or label, "a JSON object", value)
        if schema is not None and value.get("schema") != schema:
            _refuse("schema", repr(schema), value.get("schema"))
        unknown = sorted(value.keys() - fields.keys() - head.keys())
        if unknown:
            raise InstanceError(f"{path or label}: unknown field(s) {unknown}")
        out = {}
        for name, shape in fields.items():
            if name in value:
                out[name] = shape.read(value[name], f"{path}.{name}" if path else name)
            elif not shape.optional:
                raise InstanceError(f"{path or label}: missing field {name!r}")
            elif shape.default is not None:
                out[name] = shape.default()
        return cls(**out)

    def write(obj):
        return {**head, **{name: shape.write(v) for name, shape in fields.items()
                           if (v := getattr(obj, name)) is not None}}
    return Shape(read, write)


def _ratio_key(key: str, path: str) -> tuple[str, str]:
    q1, sep, q2 = key.partition("/")
    if not sep:
        raise InstanceError(f"{path}: key {key!r} is not 'q1/q2'")
    return q1, q2


_DAYS, _BOUNDS = fixed("[first, last]", WHOLE, WHOLE), fixed("[lo, hi]", NUMBER, NUMBER)
INSTANCE_FORMAT = record(Instance, {
    "specs": array(record(SpecDef, {"id": STRING, "unit": optional(STRING)})),
    "tanks": array(record(Tank, {
        "id": STRING, "v_max": NUMBER, "v_min": NUMBER, "v_init": NUMBER,
        "specs_init": keyed(NUMBER), "min_feed_pct": NUMBER})),
    "barges": array(record(Barge, {
        "id": STRING, "volume": NUMBER, "specs": keyed(NUMBER), "window": _DAYS,
        "unload_penalty": NUMBER, "allowed_tanks": array(STRING),
        "max_unloads": optional(WHOLE), "min_unload_pct": optional(NUMBER)})),
    "runs": array(record(Run, {
        "id": STRING, "days": _DAYS, "daily_demand": NUMBER, "spec_bounds": keyed(_BOUNDS),
        "ratio_bounds": optional(keyed(_BOUNDS, Shape(_ratio_key, "/".join)), dict),
        "miss_penalty": NUMBER})),
    "ops": record(OpsParams, {
        "max_unloads_per_day": WHOLE, "max_unloads_per_barge": WHOLE,
        "max_unload_gap": WHOLE, "min_daily_unload_pct": NUMBER, "horizon": WHOLE}),
}, schema=SCHEMA_ID, label="top level")


def instance_to_dict(inst: Instance) -> dict:
    return INSTANCE_FORMAT.write(inst)


def instance_from_dict(data: dict) -> Instance:
    """The instance in ``data``, not validated; a value of the wrong shape
    raises ``InstanceError`` naming its path."""
    return INSTANCE_FORMAT.read(data)


def write_instance(inst: Instance, path) -> None:
    derive_sets(inst)
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def parse_instance(path) -> Instance:
    """The instance in a file, not validated; a file that does not parse or
    has an unknown, missing or wrongly shaped member raises ``InstanceError``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise InstanceError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    return instance_from_dict(data)


def read_instance(path) -> Instance:
    """The instance in a file, validated (by `derive_sets`, which caches)."""
    inst = parse_instance(path)
    derive_sets(inst)
    return inst
