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

import numpy as np

log = logging.getLogger(__name__)

SCHEMA_ID = "blendplan-instance/1"


class InstanceError(ValueError):
    """Raised for malformed instance files or invalid instance data."""


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

    def run(self, run_id: str) -> Run:
        return _by_id(self.runs, run_id)

    def barge_max_unloads(self, barge_id: str) -> int:
        b = self.barge(barge_id)
        return b.max_unloads if b.max_unloads is not None else self.ops.max_unloads_per_barge

    def barge_min_unload_pct(self, barge_id: str) -> float:
        b = self.barge(barge_id)
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
    if ops.min_daily_unload_pct <= 0 or ops.min_daily_unload_pct > 1:
        rep.add("ops.min_daily_unload_pct", "must be a fraction in (0, 1]")

    for i, t in enumerate(inst.tanks):
        path = f"tanks[{i}]({t.id})"
        if not (0 <= t.v_min <= t.v_init <= t.v_max):
            rep.add(path, "inventory bounds inverted: need 0 <= v_min <= v_init <= v_max")
        if not (0 <= t.min_feed_pct <= 1):
            rep.add(path + ".min_feed_pct", "must be a fraction in [0, 1]")
        _check_spec_map(rep, path + ".specs_init", t.specs_init, specs)

    for i, b in enumerate(inst.barges):
        path = f"barges[{i}]({b.id})"
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
        if r.daily_demand <= 0:
            rep.add(path + ".daily_demand", "must be positive")
        if r.miss_penalty < 0:
            rep.add(path + ".miss_penalty", "must be non-negative")
        for q, (lo, hi) in r.spec_bounds.items():
            if q not in specs:
                rep.add(path + ".spec_bounds", f"unknown spec {q!r}")
            if lo > hi:
                rep.add(path + f".spec_bounds[{q}]", "empty interval")
        for (q1, q2), (lo, hi) in r.ratio_bounds.items():
            rpath = path + f".ratio_bounds[{q1}/{q2}]"
            if q1 not in specs or q2 not in specs:
                rep.add(rpath, "unknown spec in ratio pair")
                continue
            if q1 == q2:
                rep.add(rpath, "ratio pair must use two distinct specs")
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


def _check_unique(rep: ValidationReport, path: str, ids: list[str]) -> None:
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
        if v < 0:
            rep.add(f"{path}[{q}]", "concentration must be non-negative")


# ---------------------------------------------------------------------------
# Derived index sets


@dataclass(frozen=True)
class DerivedSets:
    available_by_day: dict[int, tuple[str, ...]]   # day -> barges in window
    window_by_barge: dict[str, tuple[int, int]]
    demand_days: tuple[int, ...]                   # sorted union of run days
    demand_by_day: dict[int, float]
    run_by_day: dict[int, str]
    miss_penalty_by_day: dict[int, float]
    tanks_by_barge: dict[str, tuple[str, ...]]     # barge -> allowed tanks
    barges_by_tank: dict[str, tuple[str, ...]]     # tank -> barges allowed in
    value_target: float                            # penalty value of all supply and demand

    def available(self, day: int) -> tuple[str, ...]:
        return self.available_by_day.get(day, ())

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
    H = inst.ops.horizon
    available: dict[int, list[str]] = {}
    for b in inst.barges:
        for t in range(b.window[0], b.window[1] + 1):
            available.setdefault(t, []).append(b.id)
    demand_by_day: dict[int, float] = {}
    run_by_day: dict[int, str] = {}
    miss_by_day: dict[int, float] = {}
    for r in inst.runs:
        for t in range(r.days[0], r.days[1] + 1):
            demand_by_day[t] = r.daily_demand
            run_by_day[t] = r.id
            miss_by_day[t] = r.miss_penalty
    barges_by_tank: dict[str, list[str]] = {t.id: [] for t in inst.tanks}
    for b in inst.barges:
        for k in b.allowed_tanks:
            barges_by_tank[k].append(b.id)
    demand_days = tuple(sorted(demand_by_day))
    return DerivedSets(
        available_by_day={t: tuple(v) for t, v in sorted(available.items()) if 0 <= t < H},
        window_by_barge={b.id: b.window for b in inst.barges},
        demand_days=demand_days,
        demand_by_day=demand_by_day,
        run_by_day=run_by_day,
        miss_penalty_by_day=miss_by_day,
        tanks_by_barge={b.id: tuple(b.allowed_tanks) for b in inst.barges},
        barges_by_tank={k: tuple(v) for k, v in barges_by_tank.items()},
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
    validate_instance(out).raise_if_invalid()
    return out


@dataclass(frozen=True)
class RandomizationParams:
    volume_rel: float = 0.0      # barge volume jitter, relative (+/-)
    spec_rel: float = 0.0        # barge spec jitter, relative (+/-)
    window_shift: int = 0        # max absolute shift of the window, days


def randomize_supply(inst: Instance, seed: int, jitter: RandomizationParams) -> Instance:
    """Perturb barge volumes, specs and windows; deterministic per seed.

    Values that would break invariants (windows off the grid, negative
    concentrations) are clamped and the clamp is logged.
    """
    validate_instance(inst).raise_if_invalid()
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
    validate_instance(out).raise_if_invalid()
    return out


# ---------------------------------------------------------------------------
# Canonical JSON serialization (schema "blendplan-instance/1")


def instance_to_dict(inst: Instance) -> dict:
    return {
        "schema": SCHEMA_ID,
        "specs": [{"id": s.id, "unit": s.unit} for s in inst.specs],
        "tanks": [
            {
                "id": t.id,
                "v_max": t.v_max,
                "v_min": t.v_min,
                "v_init": t.v_init,
                "specs_init": {q: t.specs_init[q] for q in sorted(t.specs_init)},
                "min_feed_pct": t.min_feed_pct,
            }
            for t in inst.tanks
        ],
        "barges": [
            {
                "id": b.id,
                "volume": b.volume,
                "specs": {q: b.specs[q] for q in sorted(b.specs)},
                "window": list(b.window),
                "unload_penalty": b.unload_penalty,
                "allowed_tanks": list(b.allowed_tanks),
                **({"max_unloads": b.max_unloads} if b.max_unloads is not None else {}),
                **({"min_unload_pct": b.min_unload_pct} if b.min_unload_pct is not None else {}),
            }
            for b in inst.barges
        ],
        "runs": [
            {
                "id": r.id,
                "days": list(r.days),
                "daily_demand": r.daily_demand,
                "spec_bounds": {q: list(r.spec_bounds[q]) for q in sorted(r.spec_bounds)},
                "ratio_bounds": {f"{q1}/{q2}": list(v) for (q1, q2), v in sorted(r.ratio_bounds.items())},
                "miss_penalty": r.miss_penalty,
            }
            for r in inst.runs
        ],
        "ops": {
            "max_unloads_per_day": inst.ops.max_unloads_per_day,
            "max_unloads_per_barge": inst.ops.max_unloads_per_barge,
            "max_unload_gap": inst.ops.max_unload_gap,
            "min_daily_unload_pct": inst.ops.min_daily_unload_pct,
            "horizon": inst.ops.horizon,
        },
    }


def _take(obj: dict, path: str, fields: dict[str, bool]) -> dict:
    """Pull declared fields out of a JSON object, rejecting unknown keys."""
    unknown = set(obj) - set(fields)
    if unknown:
        raise InstanceError(f"{path}: unknown field(s) {sorted(unknown)}")
    out = {}
    for name, required in fields.items():
        if name in obj:
            out[name] = obj[name]
        elif required:
            raise InstanceError(f"{path}: missing field {name!r}")
    return out


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InstanceError("top level: expected a JSON object")
    top = _take(data, "top level", {
        "schema": True, "specs": True, "tanks": True, "barges": True, "runs": True, "ops": True,
    })
    if top["schema"] != SCHEMA_ID:
        raise InstanceError(f"schema: expected {SCHEMA_ID!r}, got {top['schema']!r}")

    specs = []
    for i, s in enumerate(top["specs"]):
        f = _take(s, f"specs[{i}]", {"id": True, "unit": False})
        specs.append(SpecDef(id=f["id"], unit=f.get("unit", "vol%")))

    tanks = []
    for i, t in enumerate(top["tanks"]):
        f = _take(t, f"tanks[{i}]", {
            "id": True, "v_max": True, "v_min": True, "v_init": True,
            "specs_init": True, "min_feed_pct": True,
        })
        tanks.append(Tank(
            id=f["id"], v_max=float(f["v_max"]), v_min=float(f["v_min"]),
            v_init=float(f["v_init"]),
            specs_init={q: float(v) for q, v in f["specs_init"].items()},
            min_feed_pct=float(f["min_feed_pct"]),
        ))

    barges = []
    for i, b in enumerate(top["barges"]):
        f = _take(b, f"barges[{i}]", {
            "id": True, "volume": True, "specs": True, "window": True,
            "unload_penalty": True, "allowed_tanks": True, "max_unloads": False,
            "min_unload_pct": False,
        })
        w = f["window"]
        if not (isinstance(w, list) and len(w) == 2):
            raise InstanceError(f"barges[{i}].window: expected [first, last]")
        barges.append(Barge(
            id=f["id"], volume=float(f["volume"]),
            specs={q: float(v) for q, v in f["specs"].items()},
            window=(int(w[0]), int(w[1])),
            unload_penalty=float(f["unload_penalty"]),
            allowed_tanks=tuple(f["allowed_tanks"]),
            max_unloads=int(f["max_unloads"]) if "max_unloads" in f else None,
            min_unload_pct=float(f["min_unload_pct"]) if "min_unload_pct" in f else None,
        ))

    runs = []
    for i, r in enumerate(top["runs"]):
        f = _take(r, f"runs[{i}]", {
            "id": True, "days": True, "daily_demand": True,
            "spec_bounds": True, "ratio_bounds": False, "miss_penalty": True,
        })
        d = f["days"]
        if not (isinstance(d, list) and len(d) == 2):
            raise InstanceError(f"runs[{i}].days: expected [first, last]")
        ratio_bounds = {}
        for key, v in f.get("ratio_bounds", {}).items():
            if "/" not in key:
                raise InstanceError(f"runs[{i}].ratio_bounds: key {key!r} is not 'q1/q2'")
            q1, q2 = key.split("/", 1)
            ratio_bounds[(q1, q2)] = (float(v[0]), float(v[1]))
        runs.append(Run(
            id=f["id"], days=(int(d[0]), int(d[1])), daily_demand=float(f["daily_demand"]),
            spec_bounds={q: (float(v[0]), float(v[1])) for q, v in f["spec_bounds"].items()},
            ratio_bounds=ratio_bounds, miss_penalty=float(f["miss_penalty"]),
        ))

    o = _take(top["ops"], "ops", {
        "max_unloads_per_day": True, "max_unloads_per_barge": True,
        "max_unload_gap": True, "min_daily_unload_pct": True, "horizon": True,
    })
    ops = OpsParams(
        max_unloads_per_day=int(o["max_unloads_per_day"]),
        max_unloads_per_barge=int(o["max_unloads_per_barge"]),
        max_unload_gap=int(o["max_unload_gap"]),
        min_daily_unload_pct=float(o["min_daily_unload_pct"]),
        horizon=int(o["horizon"]),
    )
    return Instance(specs=tuple(specs), tanks=tuple(tanks), barges=tuple(barges),
                    runs=tuple(runs), ops=ops)


def write_instance(inst: Instance, path) -> None:
    validate_instance(inst).raise_if_invalid()
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def read_instance(path) -> Instance:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise InstanceError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    inst = instance_from_dict(data)
    validate_instance(inst).raise_if_invalid()
    return inst
