"""Build optimization models from an instance.

Four builders share one linear core (flows, demand, unload rules); the
last three also share its extension by per-spec volumes:

* ``build_exact_mix``   -- bilinear model tracking tank concentrations
  directly; products are concentration x volume.
* ``build_exact_split`` -- bilinear model tracking per-spec volumes; the
  only bilinear rows tie outflow composition to tank composition.
* ``build_center``      -- MILP: grid part of each tank spec encoded in
  shared binary digits, residual pinned to the cell midpoint, and the
  blending balance relaxed by half a cell per unit volume.
* ``build_mccormick``   -- MILP: same digits, residual kept as a variable
  whose volume products are bounded by convex-envelope rows.

Both MILPs take their base-2 digit plans, one ``plan`` per (tank, spec),
from ``make_plans``; a missing plan raises ``KeyError``.  Every model writes
its demand windows with ``_Core.feed_window_rows``, from ``tighten``: buffered
by half the MILPs' precision (and its ratio differential), or, at precision
0, the runs' own windows.  The buffers bound the digits' spec error to first
order only: where the specs bind, a simulated plan can still break an
original window, and the audit reports each break.
Both MILPs take their options, whether to tighten, as one ``CenterOptions``.

Every row is added as its ``(tag, index)``, the index holding the ids and
days it ranges over; the model names it from those (see ``model.py``).
One helper, ``_window_rows``, writes every two-sided window row: feed
shares, spec windows and ratio windows, bilinear ones included.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass

from .discretize import DiscretizationPlan, plan
from .instance import Instance, Tank, derive_sets
from .model import INF, MilpModel, VarRef
from .simulate import value_target

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CenterOptions:
    tighten: bool = True       # buffer demand spec / ratio windows


# ---------------------------------------------------------------------------
# Reachable bounds, digit plans, tightened demand windows


def reachable_spec_bounds(inst: Instance) -> dict[tuple[str, str], tuple[float, float]]:
    """Per (tank, spec): hull of the initial content and admissible inflows."""
    derive_sets(inst)      # validates
    out = {}
    for tank in inst.tanks:
        for q in inst.spec_ids():
            vals = [tank.specs_init[q]]
            vals += [b.specs[q] for b in inst.barges if tank.id in b.allowed_tanks]
            out[(tank.id, q)] = (min(vals), max(vals))
    return out


def _eps_by_spec(inst: Instance, eps_hat) -> dict[str, float]:
    if isinstance(eps_hat, dict):
        missing, unknown = set(inst.spec_ids()) - set(eps_hat), set(eps_hat) - set(inst.spec_ids())
        if missing or unknown:
            raise ValueError(f"eps_hat missing specs {sorted(missing)}, "
                             f"specs the instance lacks {sorted(unknown)}")
        return {q: float(eps_hat[q]) for q in inst.spec_ids()}
    return {q: float(eps_hat) for q in inst.spec_ids()}


def make_plans(inst: Instance, eps_hat) -> dict[tuple[str, str], DiscretizationPlan]:
    """Base-2 digit plan per (tank, spec): ``plan`` of its reachable bounds
    at its spec's precision, which must be positive."""
    eps = _eps_by_spec(inst, eps_hat)
    return {(k, q): plan(lo, hi, eps[q])
            for (k, q), (lo, hi) in reachable_spec_bounds(inst).items()}


def plan_eps_hat(plans: dict[tuple[str, str], DiscretizationPlan]) -> dict[str, float]:
    out: dict[str, float] = {}
    for (_, q), p in plans.items():
        out[q] = max(out.get(q, 0.0), p.eps_hat)
    return out


def ratio_buffer(f1_max: float, f2_min: float, eps1: float, eps2: float) -> float:
    """First-order bound on the ratio error from spec errors of eps/2 each."""
    if f2_min <= 0:
        raise ValueError("ratio denominator must have a positive reachable lower bound")
    return (eps1 / 2.0) / f2_min + f1_max * (eps2 / 2.0) / f2_min ** 2


@dataclass
class TightenedBounds:
    spec: dict[tuple[str, str], tuple[float, float]]          # (run, spec)
    ratio: dict[tuple[str, str, str], tuple[float, float]]    # (run, q1, q2)


def _shrink(lo: float, hi: float, buffer: float, min_width: float,
            label: str) -> tuple[float, float]:
    width = hi - lo
    if width - 2.0 * buffer >= min_width - 1e-12:
        return (lo + buffer, hi - buffer)
    if width >= min_width - 1e-12:
        b = (width - min_width) / 2.0
        return (lo + b, hi - b)
    log.warning("%s: window width %s below one discretization cell %s; buffer skipped",
                label, width, min_width)
    return (lo, hi)


def tighten(inst: Instance, eps_hat) -> TightenedBounds:
    """Buffer each demand window by eps_hat/2 (specs) or by the ratio
    differential (ratios); at precision 0 every window is the run's own.  A
    buffer is reduced when it would leave a window narrower than one
    discretization cell, and skipped with a logged warning when the original
    window is already narrower than that.  A ratio's denominator floor is the
    least reachable ``q2`` if positive, else the run's own lower bound on
    ``q2``, which validation keeps positive and no feed in the window goes below.
    The buffers bound the digits' error to first order; a simulated plan can
    still break an original window, and ``audit`` reports it if it does.
    """
    eps = _eps_by_spec(inst, eps_hat)
    reach = reachable_spec_bounds(inst)
    glo = {q: min(reach[(k.id, q)][0] for k in inst.tanks) for q in inst.spec_ids()}
    ghi = {q: max(reach[(k.id, q)][1] for k in inst.tanks) for q in inst.spec_ids()}
    out = TightenedBounds({}, {})
    for r in inst.runs:
        for q, (lo, hi) in r.spec_bounds.items():
            out.spec[(r.id, q)] = _shrink(lo, hi, eps[q] / 2.0, eps[q],
                                          f"run {r.id} spec {q}")
        for (q1, q2), (lo, hi) in r.ratio_bounds.items():
            floor = glo[q2] if glo[q2] > 0 else r.spec_bounds[q2][0]
            buf = ratio_buffer(ghi[q1], floor, eps[q1], eps[q2])
            out.ratio[(r.id, q1, q2)] = _shrink(lo, hi, buf, 2.0 * buf,
                                                f"run {r.id} ratio {q1}/{q2}")
    return out


# ---------------------------------------------------------------------------
# Shared linear core and spec-volume scaffold


def _window_rows(m, tag: str, index: tuple, num: dict, den: dict, lo: float, hi: float):
    """Rows ``<tag>_lb``, ``num - lo·den >= 0``, and ``<tag>_ub``, ``num -
    hi·den <= 0``, each listing ``num``'s terms, then ``den``'s others.  Both
    map a term to its coefficient; a term is a column or a pair of columns,
    their product, which makes the row a quad row.  A term in both gets the
    sum of its two coefficients."""
    for side, bound, row_lo, row_hi in (("lb", lo, 0.0, INF), ("ub", hi, -INF, 0.0)):
        side_tag = sys.intern(f"{tag}_{side}")     # one string per tag, not one per row
        terms = dict(num)
        for x, c in den.items():
            terms[x] = terms.get(x, 0.0) - bound * c
        quads = [(c, *x) for x, c in terms.items() if isinstance(x, tuple)]
        if quads:
            m.add_quad_row(side_tag, index,
                           {x: c for x, c in terms.items() if isinstance(x, VarRef)},
                           quads, row_lo, row_hi)
        else:
            m.add_row(side_tag, index, terms, row_lo, row_hi)


class _Core:
    """Variable handles for the flow/unload/demand skeleton of a model,
    built into ``m``, which is registered as a model of ``inst``."""

    def __init__(self, m: MilpModel, inst: Instance):
        self.m = m
        self.inst = inst
        self.ds = derive_sets(inst)
        m.instance = inst
        H = inst.horizon
        ds = self.ds
        self.demand_days = set(ds.demand_days)

        self.v_unused = {b.id: m.add_var("v_unused", (b.id,), 0.0, b.volume) for b in inst.barges}
        self.mis = {t: m.add_var("mis", (t,), 0.0, ds.demand(t)) for t in ds.demand_days}
        self.gamma = {}
        self.y_in = {}
        self.inflows = {}          # (tank, day) -> [(Barge, y_in)], in barge order
        self.window_days = {}      # barge -> the days of its window
        for b in inst.barges:
            days = self.window_days[b.id] = range(b.window[0], b.window[1] + 1)
            for t in days:
                self.gamma[(b.id, t)] = m.add_var("gamma", (b.id, t), 0.0, 1.0, binary=True)
                for k in b.allowed_tanks:
                    ref = m.add_var("y_in", (b.id, k, t), 0.0, b.volume)
                    self.y_in[(b.id, k, t)] = ref
                    self.inflows.setdefault((k, t), []).append((b, ref))
            m.note_structural("barge_window_mask", H - len(list(days)))
            m.note_structural("supply_window", (H - len(list(days))) * len(b.allowed_tanks))
        self.sigma = {}
        self.y_out = {}
        for k in inst.tanks:
            for t in ds.demand_days:
                self.sigma[(k.id, t)] = m.add_var("sigma", (k.id, t), 0.0, 1.0, binary=True)
                self.y_out[(k.id, t)] = m.add_var("y_out", (k.id, t), 0.0, ds.demand(t))
        self.v_mid = {}
        self.v_end = {}
        for k in inst.tanks:
            for t in range(H):
                self.v_mid[(k.id, t)] = m.add_var("v_mid", (k.id, t), k.v_min, k.v_max)
                self.v_end[(k.id, t)] = m.add_var("v_end", (k.id, t), k.v_min, k.v_max)
            m.note_structural("inv_lb", H)
            m.note_structural("inv_ub", H)
            m.note_structural("init_volume")
        self.t_first = {b.id: m.add_var("t_first", (b.id,), 0.0, H) for b in inst.barges}
        self.t_last = {b.id: m.add_var("t_last", (b.id,), 0.0, H) for b in inst.barges}

        self._rows()
        self._objective()

    def _rows(self):
        m, inst, ds = self.m, self.inst, self.ds
        H = inst.horizon
        for k in inst.tanks:
            for t in range(H):
                coeffs = {ref: 1.0 for _, ref in self.inflows.get((k.id, t), ())}
                coeffs[self.v_mid[(k.id, t)]] = -1.0
                rhs = 0.0
                if t == 0:
                    rhs = -k.v_init
                else:
                    coeffs[self.v_end[(k.id, t - 1)]] = 1.0
                m.add_eq("inflow_balance", (k.id, t), coeffs, rhs)
                coeffs = {self.v_mid[(k.id, t)]: 1.0, self.v_end[(k.id, t)]: -1.0}
                out = self.y_out.get((k.id, t))
                if out is not None:
                    coeffs[out] = -1.0
                m.add_eq("outflow_balance", (k.id, t), coeffs, 0.0)

        for t in ds.demand_days:
            coeffs = {self.y_out[(k.id, t)]: 1.0 for k in inst.tanks}
            coeffs[self.mis[t]] = 1.0
            m.add_eq("demand_balance", (t,), coeffs, ds.demand(t))

        for b in inst.barges:
            coeffs = {self.y_in[(b.id, k, t)]: 1.0
                      for t in self.window_days[b.id] for k in b.allowed_tanks}
            coeffs[self.v_unused[b.id]] = 1.0
            m.add_eq("supply_total", (b.id,), coeffs, b.volume)

        for r in inst.runs:
            for k in inst.tanks:
                for t in range(r.days[0] + 1, r.days[1] + 1):
                    m.add_eq("run_const_feed", (k.id, t),
                             {self.y_out[(k.id, t)]: 1.0, self.y_out[(k.id, t - 1)]: -1.0}, 0.0)
        for k in inst.tanks:
            for t in ds.demand_days:
                _window_rows(m, "feed_share", (k.id, t), {self.y_out[(k.id, t)]: 1.0},
                             {self.sigma[(k.id, t)]: ds.demand(t)}, k.min_feed_pct, 1.0)

        for b in inst.barges:
            m.add_row("barge_unload_limit", (b.id,),
                      {self.gamma[(b.id, t)]: 1.0 for t in self.window_days[b.id]},
                      hi=float(inst.barge_max_unloads(b)))
        for t, avail in ds.available_by_day.items():
            m.add_row("daily_unload_limit", (t,), {self.gamma[(s, t)]: 1.0 for s in avail},
                      hi=float(inst.ops.max_unloads_per_day))
        for (s, k, t), ref in self.y_in.items():     # ref.hi is the barge's volume
            m.add_row("unload_flow_gate", (s, k, t), {ref: 1.0, self.gamma[(s, t)]: -ref.hi},
                      hi=0.0)
        for b in inst.barges:
            need = inst.barge_min_unload_pct(b) * b.volume
            for t in self.window_days[b.id]:
                coeffs = {self.y_in[(b.id, k, t)]: 1.0 for k in b.allowed_tanks}
                coeffs[self.gamma[(b.id, t)]] = -need
                m.add_row("unload_min_pct", (b.id, t), coeffs, lo=0.0)

        for (s, t), g in self.gamma.items():
            m.add_row("first_unload_ub", (s, t), {self.t_first[s]: 1.0, g: float(H - t)},
                      hi=float(H))
            m.add_row("last_unload_lb", (s, t), {self.t_last[s]: 1.0, g: -float(H + t)},
                      lo=-float(H))
        for b in inst.barges:
            m.add_row("unload_gap", (b.id,), {self.t_last[b.id]: 1.0, self.t_first[b.id]: -1.0},
                      hi=float(inst.ops.max_unload_gap))

    def _objective(self):
        inst, ds = self.inst, self.ds
        coeffs: dict[VarRef, float] = {}
        for b in inst.barges:
            coeffs[self.v_unused[b.id]] = b.unload_penalty
        for t in ds.demand_days:
            coeffs[self.mis[t]] = ds.miss_penalty_by_day[t]
        self.m.set_objective(coeffs, value_target(inst))

    def feed_window_rows(self, bounds: TightenedBounds, fed):
        """Every run day's spec and ratio window rows at ``bounds``; ``fed(q, t)``
        gives the spec-``q`` feed of day ``t`` as ``_window_rows`` terms."""
        m, inst = self.m, self.inst
        for r in inst.runs:
            for t in range(r.days[0], r.days[1] + 1):
                outs = {self.y_out[(k.id, t)]: 1.0 for k in inst.tanks}
                for q in sorted(r.spec_bounds):
                    _window_rows(m, "feed_spec", (q, t), fed(q, t), outs,
                                 *bounds.spec[(r.id, q)])
                for (q1, q2) in sorted(r.ratio_bounds):
                    _window_rows(m, "feed_ratio", (q1, q2, t), fed(q1, t), fed(q2, t),
                                 *bounds.ratio[(r.id, q1, q2)])


class _SpecVolumes(_Core):
    """The core plus per-(tank, spec, day) spec volumes: ``vf_mid``,
    ``vf_end`` and, on demand days, ``yf_out``.

    Given digit ``plans``, the spec volumes are bounded by the plans' ranges
    and one digit vector per (tank, spec, day) is added: binaries ``alpha``
    and their products ``xa`` with each volume the spec volumes belong to.
    Without plans the bounds are the reachable ones.
    """

    def __init__(self, m: MilpModel, inst: Instance, plans=None):
        super().__init__(m, inst)
        if plans is None:
            reach = reachable_spec_bounds(inst)
        else:
            _check_plans(inst, plans)
            m.plans = plans
            reach = {kq: (p.lo, p.hi) for kq, p in plans.items()}
        vf_mid, vf_end, yf_out = {}, {}, {}
        for k in inst.tanks:
            for q in inst.spec_ids():
                lo, hi = reach[(k.id, q)]
                for t in range(inst.horizon):
                    vf_mid[(k.id, q, t)] = m.add_var("vf_mid", (k.id, q, t), lo * k.v_min, hi * k.v_max)
                    vf_end[(k.id, q, t)] = m.add_var("vf_end", (k.id, q, t), lo * k.v_min, hi * k.v_max)
                    if t in self.demand_days:
                        yf_out[(k.id, q, t)] = m.add_var("yf_out", (k.id, q, t),
                                                         0.0, hi * self.ds.demand(t))
                m.note_structural("init_spec_volume")
        self.vf_mid, self.vf_end, self.yf_out = vf_mid, vf_end, yf_out
        if plans is None:
            return
        alpha, xa = {}, {}
        for k in inst.tanks:
            for q in inst.spec_ids():
                p = plans[(k.id, q)]
                for t in range(inst.horizon):
                    for i in range(1, p.n + 1):
                        alpha[(k.id, q, t, i)] = m.add_var("alpha", (k.id, q, t, i), 0.0, 1.0, binary=True)
                        xa[(k.id, q, t, i, "mid")] = m.add_var(
                            "x_alpha", (k.id, q, t, i, "mid"), 0.0, k.v_max)
                        xa[(k.id, q, t, i, "end")] = m.add_var(
                            "x_alpha", (k.id, q, t, i, "end"), 0.0, k.v_max)
                        if t in self.demand_days:
                            xa[(k.id, q, t, i, "out")] = m.add_var(
                                "x_alpha", (k.id, q, t, i, "out"), 0.0, self.ds.demand(t))
        self.alpha, self.xa = alpha, xa

    def mass_rows(self, relax_eps=None):
        """Mass-balance rows for spec volumes.

        With ``relax_eps`` a per-(tank,spec) map, the blending balance becomes
        a two-sided relaxation of +/- eps/2 per unit of post-blend volume;
        with None it is an equality.
        """
        m, inst = self.m, self.inst
        for k in inst.tanks:
            for q in inst.spec_ids():
                for t in range(inst.horizon):
                    coeffs = {self.vf_mid[(k.id, q, t)]: 1.0, self.vf_end[(k.id, q, t)]: -1.0}
                    out = self.yf_out.get((k.id, q, t))
                    if out is not None:
                        coeffs[out] = -1.0
                    m.add_eq("spec_mass_split", (k.id, q, t), coeffs, 0.0)

                    base = {self.vf_mid[(k.id, q, t)]: 1.0}
                    for b, ref in self.inflows.get((k.id, t), ()):
                        base[ref] = -b.specs[q]
                    rhs = k.specs_init[q] * k.v_init if t == 0 else 0.0
                    if t > 0:
                        base[self.vf_end[(k.id, q, t - 1)]] = -1.0
                    if relax_eps is None:
                        m.add_eq("spec_mass_blend", (k.id, q, t), base, rhs)
                    else:
                        half = relax_eps[(k.id, q)] / 2.0
                        vm = self.v_mid[(k.id, t)]
                        ub = dict(base)
                        ub[vm] = ub.get(vm, 0.0) - half
                        m.add_row("blend_relax_ub", (k.id, q, t), ub, hi=rhs)
                        lb = dict(base)
                        lb[vm] = lb.get(vm, 0.0) + half
                        m.add_row("blend_relax_lb", (k.id, q, t), lb, lo=rhs)

    def products(self, k: Tank, q: str, t: int) -> list[tuple[str, VarRef, VarRef, float, float]]:
        """(family, spec volume, volume, volume lower, volume upper) of each
        volume that tank ``k`` has on day ``t``, with its spec-``q`` volume."""
        out = [("mid", self.vf_mid[(k.id, q, t)], self.v_mid[(k.id, t)], k.v_min, k.v_max),
               ("end", self.vf_end[(k.id, q, t)], self.v_end[(k.id, t)], k.v_min, k.v_max)]
        if t in self.demand_days:
            out.append(("out", self.yf_out[(k.id, q, t)], self.y_out[(k.id, t)],
                        0.0, self.ds.demand(t)))
        return out

    def digit_rows(self, k: Tank, q: str, t: int, product, origin: float,
                   residual: VarRef | None = None):
        """Row ``xf_def_<family>``: spec volume = origin x volume + the
        ``residual`` product, if any, + the weighted digit products; then
        the exact envelope rows of each digit product."""
        fam, xf, x, xlo, xhi = product
        p = self.m.plans[(k.id, q)]
        coeffs = {xf: 1.0, x: -origin}
        if residual is not None:
            coeffs[residual] = -1.0
        for i in range(1, p.n + 1):
            coeffs[self.xa[(k.id, q, t, i, fam)]] = -_digit_weight(p, i)
        self.m.add_eq(f"xf_def_{fam}", (k.id, q, t), coeffs, 0.0)
        for i in range(1, p.n + 1):
            _envelope_rows(self.m, f"xa_{fam}", (k.id, q, t, i), x, self.alpha[(k.id, q, t, i)],
                           self.xa[(k.id, q, t, i, fam)], xlo, xhi)

    def fed(self, q: str, t: int) -> dict[VarRef, float]:     # the spec-q feed of day t
        return {self.yf_out[(k.id, q, t)]: 1.0 for k in self.inst.tanks}


# ---------------------------------------------------------------------------
# Exact bilinear models


def build_exact_mix(inst: Instance) -> MilpModel:
    """Bilinear model with explicit tank concentrations (products f x v)."""
    m = MilpModel("exact_mix")
    core = _Core(m, inst)
    reach = reachable_spec_bounds(inst)
    H = inst.horizon

    f = {}
    for k in inst.tanks:
        for q in inst.spec_ids():
            lo, hi = reach[(k.id, q)]
            m.note_structural("init_spec")
            for t in range(H):
                fv = f[(k.id, q, t)] = m.add_var("f", (k.id, q, t), lo, hi)
                lin = {ref: -b.specs[q] for b, ref in core.inflows.get((k.id, t), ())}
                quads = [(1.0, fv, core.v_mid[(k.id, t)])]
                rhs = 0.0
                if t == 0:
                    rhs = k.specs_init[q] * k.v_init
                else:
                    quads.append((-1.0, f[(k.id, q, t - 1)], core.v_end[(k.id, t - 1)]))
                m.add_quad_row("blend_mix", (k.id, q, t), lin, quads, rhs, rhs)
                quads = [(1.0, fv, core.v_mid[(k.id, t)]), (-1.0, fv, core.v_end[(k.id, t)])]
                out = core.y_out.get((k.id, t))
                if out is not None:
                    quads.append((-1.0, fv, out))
                m.add_quad_row("spec_flow_split", (k.id, q, t), {}, quads, 0.0, 0.0)

    def fed(q, t):         # the spec-q feed of day t: each tank's f times its feed
        return {(f[(k.id, q, t)], core.y_out[(k.id, t)]): 1.0 for k in inst.tanks}

    core.feed_window_rows(tighten(inst, 0.0), fed)
    return m


def build_exact_split(inst: Instance) -> MilpModel:
    """Bilinear model tracking spec volumes; mixing is linear and the only
    bilinear rows force outflow composition to match tank composition."""
    m = MilpModel("exact_split")
    s = _SpecVolumes(m, inst)
    s.mass_rows()
    s.feed_window_rows(tighten(inst, 0.0), s.fed)
    for k in inst.tanks:
        for q in inst.spec_ids():
            for t in sorted(s.demand_days):
                m.add_quad_row(
                    "outflow_consistency", (k.id, q, t), {},
                    [(1.0, s.vf_mid[(k.id, q, t)], s.y_out[(k.id, t)]),
                     (-1.0, s.yf_out[(k.id, q, t)], s.v_mid[(k.id, t)])],
                    0.0, 0.0)
    return m


# ---------------------------------------------------------------------------
# Discretized MILP models


def _digit_weight(p: DiscretizationPlan, i: int) -> float:
    return p.eps * p.level_weight(i)


def _envelope_rows(m, tag_family: str, index: tuple, x: VarRef, beta: VarRef, prod: VarRef,
                   xlo: float, xhi: float, scale: float = 1.0):
    """Convex-envelope rows ``<tag_family>_<kind>[index]`` for
    prod = x * (scale * beta), beta in [0, 1].

    With scale == 1 and binary beta these rows are exact; with scale == eps
    and beta the residual variable in [0, eps] they are its envelope.
    """
    rows = (
        ("lb", {prod: 1.0, beta: -xlo}, 0.0, INF),
        ("ub", {prod: 1.0, beta: -xhi}, -INF, 0.0),
        ("shift_ub", {prod: 1.0, x: -scale, beta: -xlo}, -INF, -xlo * scale),
        ("shift_lb", {prod: 1.0, x: -scale, beta: -xhi}, -xhi * scale, INF),
    )
    for kind, coeffs, lo, hi in rows:
        m.add_row(f"{tag_family}_{kind}", index, coeffs, lo, hi)


def build_center(inst: Instance, plans, opts: CenterOptions | None = None) -> MilpModel:
    """MILP with the spec residual pinned to the grid-cell midpoint.

    The blending balance is relaxed two-sided by eps/2 per unit of
    post-blend volume, so any true mixture within half a cell of a grid
    midpoint is representable.  One digit vector per (tank, spec, day) is
    shared by the post-blend volume, end volume and feed products; its
    length is the (tank, spec) plan's ``n`` in ``plans`` (see ``make_plans``).
    """
    opts = opts or CenterOptions()
    m = MilpModel("center")
    s = _SpecVolumes(m, inst, plans)
    s.mass_rows(relax_eps={kq: p.eps for kq, p in plans.items()})

    for k in inst.tanks:
        for q in inst.spec_ids():
            p = plans[(k.id, q)]
            center0 = p.lambda0 + p.eps / 2.0
            for t in range(inst.horizon):
                for product in s.products(k, q, t):
                    s.digit_rows(k, q, t, product, center0)

    s.feed_window_rows(tighten(inst, plan_eps_hat(plans) if opts.tighten else 0.0), s.fed)
    return m


def build_mccormick(inst: Instance, plans, opts: CenterOptions | None = None) -> MilpModel:
    """MILP keeping the spec residual as a variable; residual-volume
    products are enclosed by their convex envelopes.  Blending is exact.
    The digits and residual bounds come from ``plans`` (see ``make_plans``)."""
    opts = opts or CenterOptions()
    m = MilpModel("mccormick")
    s = _SpecVolumes(m, inst, plans)
    s.mass_rows()

    for k in inst.tanks:
        for q in inst.spec_ids():
            p = plans[(k.id, q)]
            for t in range(inst.horizon):
                df = m.add_var("delta_f", (k.id, q, t), 0.0, p.eps) if p.eps > 0.0 else None
                for product in s.products(k, q, t):
                    fam, _, x, xlo, xhi = product
                    xd = None if df is None else m.add_var("x_delta", (k.id, q, t, fam),
                                                           0.0, p.eps * xhi)
                    s.digit_rows(k, q, t, product, p.lambda0, residual=xd)
                    if xd is not None:
                        # beta = delta_f / eps; rows scaled through by eps
                        _envelope_rows(m, f"xdelta_{fam}", (k.id, q, t), x, df, xd, xlo, xhi,
                                       scale=p.eps)

    s.feed_window_rows(tighten(inst, plan_eps_hat(plans) if opts.tighten else 0.0), s.fed)
    return m


def _check_plans(inst: Instance, plans) -> None:
    for k in inst.tanks:
        for q in inst.spec_ids():
            if (k.id, q) not in plans:
                raise KeyError(f"no discretization plan for tank {k.id}, spec {q}")

