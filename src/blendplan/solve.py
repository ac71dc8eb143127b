"""Solve linear models with HiGHS, extract plans, attach warm starts.

``solve`` runs in-process HiGHS through the ``_Highs`` object of
``scipy.optimize._highspy._core`` (the HiGHS build scipy ships, scipy >=
1.15).  It tries starts in turn (the caller's, or else the plan of the
model's flow relaxation and then the all-miss plan), completes each in a
*held run*, and judges every run by one rule (see ``solve``).
``highs_core`` loads that extension module on its own, without the
``scipy.optimize`` package: it runs scipy's package init only, then loads
``_core`` from scipy's ``optimize/_highspy`` directory under its full name,
so a later import of ``scipy.optimize`` reuses the same module.  The
constraint matrix goes to HiGHS row-wise, as ``MilpModel.to_arrays``
builds it in numpy arrays; no sparse-matrix package is loaded.
``solve_reference`` is a testing aid: it enumerates the binary assignments
of a tiny model with one HiGHS LP per assignment, a cross-check of ``solve``.

Objectives are reported in maximization form (target value minus misses);
``best_bound`` is an upper bound on that value.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import itertools
import logging
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from .discretize import DigitCode, encode, grid_value
from .model import BINARY_KINDS, CORE_TAGS, MilpModel, _key_name
from .simulate import (PLAN_FIELDS, FlowPlan, PlanInconsistencyError, empty_plan, simulate,
                       unload_count_violations)

log = logging.getLogger(__name__)

ROW_FEAS_TOL = 1e-6


class SolverError(RuntimeError):
    pass


class ExtractionError(SolverError):
    """Rounded binaries break a hard counting constraint."""


HIGHS_CORE = "scipy.optimize._highspy._core"
_load_lock = threading.Lock()


def _highs_dir() -> str:
    """The directory scipy keeps its HiGHS extension in (runs scipy's
    package init, not ``scipy.optimize``)."""
    import scipy
    return os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")


def highs_core():
    """The ``scipy.optimize._highspy._core`` extension module, loaded alone.

    The module already in ``sys.modules`` when there is one (for example
    once ``scipy.optimize`` is imported).  Otherwise the extension is found in
    scipy's ``optimize/_highspy`` directory and loaded under its full dotted
    name, registered in ``sys.modules`` first (and removed again if loading
    fails), so that a later import of ``scipy.optimize`` reuses this
    module object.  Loading it this way skips the hundreds of modules of
    ``scipy.optimize``.  Raises ``SolverError`` when scipy has no such
    extension.
    """
    with _load_lock:
        core = sys.modules.get(HIGHS_CORE)
        if core is not None:
            return core
        where = _highs_dir()
        spec = importlib.machinery.PathFinder.find_spec(HIGHS_CORE, [where])
        if spec is None:
            import scipy
            raise SolverError(f"scipy {scipy.__version__} has no HiGHS extension "
                              f"_core in {where}")
        try:
            core = importlib.util.module_from_spec(spec)
            sys.modules[HIGHS_CORE] = core
            spec.loader.exec_module(core)
        except BaseException:
            sys.modules.pop(HIGHS_CORE, None)
            raise
        return core


@dataclass(frozen=True)
class SolveOptions:
    mip_gap: float = 0.005
    time_limit: float = 600.0

    def __post_init__(self):
        # written so that NaN fails; inf passes (no limit / any incumbent)
        if not self.mip_gap >= 0:
            raise ValueError("mip_gap must be >= 0")
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass
class SolveResult:
    status: str                        # optimal | gap_reached | time_limit | infeasible | error
    objective: float | None            # reported (maximization) objective
    best_bound: float | None           # upper bound on the reported objective
    values: list[float] = field(default_factory=list)   # by column; empty: no plan
    wall_time: float = 0.0
    gap: float | None = None
    message: str = ""
    nodes: int = 0                     # branch-and-bound nodes HiGHS explored
    start: str | None = None           # "given" | "flow" | "all-miss" | None (no start)

    @property
    def has_values(self) -> bool:
        """Whether the solve ended with a plan; an infeasible or failed one never does."""
        return bool(self.values)

    def value(self, ref) -> float:
        return self.values[ref.col]


def solve(model: MilpModel, opts: SolveOptions | None = None) -> SolveResult:
    """Solve a linear model with HiGHS from a start; bilinear models must go
    through file export.

    *One loop.*  A solve tries starts in turn; ``start`` names the try its
    result came from, None when there was none.  A start that holds no
    column of a ``BINARY_KINDS`` kind is no try.  ``"given"`` is
    ``model.starts`` when that holds one; otherwise, for a model with an
    instance, ``"flow"`` (the *first try*) is the plan of the model's flow
    relaxation.  Last, for a model with an instance, ``"all-miss"`` is the
    all-miss plan (no unloads, all demand missed), encoded as ``warm_start``
    encodes a plan when its turn comes: its digit binaries, ``v_unused`` and
    ``mis``, no ``gamma`` and no ``sigma``.  ``model.starts`` stays as it was.
    Every MIP with an instance and no ``"given"`` start takes the first try.
    Its relaxation is the model with every row outside ``CORE_TAGS`` freed
    and every column bound kept, solved in at most half of
    ``opts.time_limit``; dropping rows relaxes any model, so its bound
    bounds the model's value whatever bounds the caller set or a rolling
    step's committed past fixed.  Its plan (``extract_flow_plan``) is
    encoded by ``_plan_starts``, less a rolling step's relaxed ``gamma``
    and ``sigma`` columns, decisions the step does not take.  The digits of
    every start keep those the model fixes, so a start agrees with a
    committed past.

    An LP takes no try.  On a MIP each try gets a *held run* on the solve's
    one HiGHS object: its ``BINARY_KINDS`` columns, relaxed ones included,
    fixed at their start values, up to HiGHS's own start-node limit
    (``mip_max_start_nodes``).  A held run whose plan ends the solve (below)
    gives the result; otherwise the solve moves to the next try, or to the
    full run after a ``"given"`` held run that found a plan.  After the
    last try the *full run* solves the model from the best plan a held run
    found, a complete start and HiGHS's only one, or from no start.  Each
    run gets the part of ``opts.time_limit`` that the runs before it left;
    when none is left, or the full run ends with less, the solve returns
    that best plan.  The answer is always a plan of ``model``; the
    relaxation is only a start and a bound.

    *One rule.*  No plan is worth more than ``model.value_bound()`` or the
    flow relaxation's bound; the lesser is the least bound known.  A MIP
    with a finite, positive value bound and a finite ``opts.mip_gap`` stops
    every run at the first incumbent within ``opts.mip_gap`` of the value
    bound (HiGHS's objective target).  The value bound is exact, so a plan
    HiGHS reports a rounding error above it reads at it.  A run's
    ``best_bound`` is the least bound known or, after a full run, HiGHS's
    dual bound when that is lower (a held run's dual bound bounds only the
    restricted model), and never below its objective; ``gap`` is
    ``(best_bound - objective) / |objective|``, 0 at or below ``GAP_TOL``.
    A plan ends the solve when it is within ``opts.mip_gap`` of
    ``best_bound`` or HiGHS proved it (the objective target, or a full
    run's ``Optimal``): ``status`` is
    ``"optimal"`` at gap 0, else ``"gap_reached"``, and ``message`` names the
    bound it met, "value bound reached", "flow bound reached" or HiGHS's own
    message for its dual bound.  Any other held run reads ``"time_limit"``, with its
    plan if it found one; a full run reads ``"time_limit"``,
    ``"infeasible"`` or ``"error"`` as HiGHS reports.  ``best_bound`` and
    ``gap`` are None when no bound is known.  ``nodes`` counts the nodes of
    every run, 0 when the stop comes before a root node.  A solve that runs
    past ``opts.time_limit`` (HiGHS can overspend it) is logged as a
    warning.
    """
    if model.has_bilinear():
        raise SolverError("model has bilinear rows; export it for a QCP-capable solver")
    t0 = time.perf_counter()
    opts = opts or SolveOptions()
    result = _solve_highs(model, opts)
    result.wall_time = time.perf_counter() - t0
    if result.wall_time > opts.time_limit:
        log.warning("solve took %.3f s, over its time_limit of %g s",
                    result.wall_time, opts.time_limit)
    return result


def _highs_lp(model: MilpModel, _core):
    """The ``HighsLp`` of a linear model, built row-wise from ``to_arrays()``,
    with the model's cost vector and integrality flags."""
    c, integrality, var_lo, var_hi, (start, index, value), row_lo, row_hi = model.to_arrays()
    lp = _core.HighsLp()
    # The constant target value enters as the objective offset: HiGHS
    # measures mip_rel_gap on the objective with its offset included, so
    # the gap is taken against the full plan value, not against the miss
    # value (which tends to 0).
    lp.offset_ = -model.obj_offset
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lo)
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, var_lo, var_hi
    lp.row_lower_, lp.row_upper_ = row_lo, row_hi
    lp.a_matrix_.format_ = _core.MatrixFormat.kRowwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = start, index, value
    lp.integrality_ = [_core.HighsVarType(i) for i in integrality]
    return lp, c, integrality


def _solve_highs(model: MilpModel, opts: SolveOptions) -> SolveResult:
    if model.n_vars == 0:
        return SolveResult("optimal", model.obj_offset, model.obj_offset, gap=0.0)
    # Loaded on first use, not at module level: only solving needs numpy
    # and HiGHS, and loading them is most of the start-up time of every
    # command that validates, exports, simulates or audits a plan.
    import numpy as np
    _core = highs_core()
    lp, _, integrality = _highs_lp(model, _core)
    h = _core._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("mip_rel_gap", float(opts.mip_gap))
    runs = _Runs(model, h, _core, opts, is_mip=bool(integrality.any()))
    if runs.is_mip and runs.bound is not None and runs.bound > 0 and math.isfinite(opts.mip_gap):
        # No plan is worth more than the value bound, so an incumbent within
        # mip_gap of it needs no further proof.  HiGHS minimises the negated
        # value (its objective includes offset_) and stops at the first
        # incumbent below this target, in every run: its own relative-gap
        # rule, measured against the bound.  An LP proves its optimum
        # anyway, and an infinite mip_gap already stops at the first
        # incumbent.
        h.setOptionValue("objective_target", -runs.bound / (1.0 + opts.mip_gap))
    # the relaxation passes its own model, so it runs before h gets lp
    flow = (_flow_relaxation(runs, lp) if runs.is_mip and model.instance is not None
            and not _holds_binaries(model, model.starts) else None)
    if h.passModel(lp) == _core.HighsStatus.kError:
        return SolveResult("error", None, None, message="HiGHS rejected the model")
    best = None                # the held run with the plan worth most
    for label, starts in _tries(model, flow) if runs.is_mip else ():
        if not _holds_binaries(model, starts):
            continue
        result = runs.held_run(starts)
        result.start = label
        best = _kept(best, result) if result.has_values else best
        if result.status != "time_limit" or runs.left <= 0.0:
            return _kept(best, result)
        if label == "given" and best is not None:
            break
    if best is not None:
        h.setSolution(model.n_vars, np.arange(model.n_vars, dtype=np.int32),
                      np.array(best.values))
    result = runs.run(runs.left)
    result.start = best.start if best else None
    return _kept(best, result)


def _holds_binaries(model: MilpModel, starts: dict[int, float]) -> bool:
    return any(model.vars[col].kind in BINARY_KINDS for col in starts)


def _kept(best: SolveResult | None, result: SolveResult) -> SolveResult:
    """``result``, or ``best`` when its plan is worth more, with every run's nodes."""
    if best is None or (result.has_values and result.objective >= best.objective):
        return result
    best.nodes = result.nodes
    return best


def _tries(model: MilpModel, flow: dict[int, float] | None):
    """The starts a solve tries in turn, each with its label: the caller's
    when they hold a binary kind's column, else the first try's ``flow``
    starts, if any; then the all-miss plan's, encoded when its turn comes."""
    if _holds_binaries(model, model.starts):
        yield "given", model.starts
    if flow:
        yield "flow", flow
    if model.instance is not None:
        yield "all-miss", _plan_starts(model, empty_plan(model.instance), logging.DEBUG)


class _Runs:
    """The HiGHS runs of one solve, on one ``_Highs`` object ``h`` that
    holds ``model``: the seconds of ``opts.time_limit`` they leave
    (``left``), the nodes they explored, and ``bound``, the least upper
    bound on the model's value known so far (the value bound, or a lower
    one from the flow relaxation)."""

    def __init__(self, model: MilpModel, h, core, opts: SolveOptions, is_mip: bool):
        self.model, self.h, self.core, self.opts, self.is_mip = model, h, core, opts, is_mip
        self.value_bound = self.bound = model.value_bound()
        self.left = opts.time_limit
        self.nodes = 0

    def run(self, limit: float, held: bool = False) -> SolveResult:
        """Run HiGHS for at most ``limit`` seconds; the result (see
        ``_run_result``), its ``nodes`` those of every run so far."""
        self.h.setOptionValue("time_limit", max(limit, 0.0))
        self.left -= _run(self.h)
        result = _run_result(self, held)
        self.nodes += result.nodes
        result.nodes = self.nodes
        return result

    def held_run(self, starts: dict[int, float]) -> SolveResult:
        """The held run: every started column of a ``BINARY_KINDS`` kind,
        relaxed ones included, fixed at its start value, under the node
        limit HiGHS puts on completing a start, in the time left; then the
        columns' bounds and the node limit are put back.  Its incumbents
        are plans of the full model."""
        import numpy as np     # loaded already: see _solve_highs
        held = np.array([col for col in sorted(starts)
                         if self.model.vars[col].kind in BINARY_KINDS], dtype=np.int32)
        at = np.array([starts[col] for col in held])
        self.h.changeColsBounds(len(held), held, at, at)
        self.h.setOptionValue("mip_max_nodes", self.h.getOptionValue("mip_max_start_nodes")[1])
        result = self.run(self.left, held=True)
        self.h.setOptionValue("mip_max_nodes", self.core.kHighsIInf)
        self.h.changeColsBounds(len(held), held, np.array([self.model.vars[c].lo for c in held]),
                                np.array([self.model.vars[c].hi for c in held]))
        return result


# The dated binaries a plan states: ``gamma`` and ``sigma``, not the digits.
_DECISIONS = frozenset(BINARY_KINDS) & PLAN_FIELDS.keys()


def _flow_relaxation(runs: _Runs, lp) -> dict[int, float] | None:
    """The first try's relaxed run (see ``solve``): pass ``lp`` with every
    row outside ``CORE_TAGS`` freed and solve it in at most half the time
    limit, lowering ``runs.bound`` to its bound.  The starts ``_plan_starts``
    encodes from its plan; None when it has no plan or its rounded plan
    breaks a counting rule.  A relaxed ``gamma`` or ``sigma`` column (a
    rolling step's decision for a later step) gets no start, so the held
    run leaves it free; digits keep theirs, relaxed ones included.  ``lp``
    is left as it was."""
    import numpy as np
    model = runs.model
    row_lo, row_hi = lp.row_lower_, lp.row_upper_
    core = np.array([r.tag in CORE_TAGS for r in model.rows], dtype=bool)
    lp.row_lower_ = np.where(core, row_lo, -math.inf)
    lp.row_upper_ = np.where(core, row_hi, math.inf)
    passed = runs.h.passModel(lp) != runs.core.HighsStatus.kError
    lp.row_lower_, lp.row_upper_ = row_lo, row_hi
    if not passed:
        return None
    relaxed = runs.run(runs.opts.time_limit / 2.0)
    if relaxed.best_bound is not None and (runs.bound is None or relaxed.best_bound < runs.bound):
        runs.bound = relaxed.best_bound
    if not relaxed.has_values:
        return None
    try:
        plan = extract_flow_plan(model, relaxed)
    except ExtractionError as e:
        log.debug("first try dropped: %s", e)
        return None
    starts = _plan_starts(model, plan, logging.DEBUG)
    return {col: x for col, x in starts.items()
            if model.vars[col].binary or model.vars[col].kind not in _DECISIONS}


def _run(h) -> float:
    """Run HiGHS, its stray prints kept off stdout; the seconds it took."""
    t0 = time.perf_counter()
    with _stdout_to_stderr():
        h.run()
    return time.perf_counter() - t0


def _run_result(runs: _Runs, held: bool) -> SolveResult:
    """The result of HiGHS's last run, judged by the rule ``solve`` states.
    A ``held`` run solved the model with columns fixed: its incumbent is a
    plan of the model, but its dual bound speaks of the restriction only,
    and a result of it that does not end the solve reads ``"time_limit"``,
    the result of a solve out of time before the full model ran."""
    h, _core = runs.h, runs.core
    _Status = _core.HighsModelStatus
    status = h.getModelStatus()
    info = h.getInfo()
    message = h.modelStatusToString(status)
    nodes = max(info.mip_node_count, 0)    # -1 for an LP
    if not held and status not in (_Status.kOptimal, _Status.kObjectiveTarget,
                                   _Status.kTimeLimit, _Status.kIterationLimit):
        return SolveResult("infeasible" if status == _Status.kInfeasible else "error",
                           None, None, message=message, nodes=nodes)
    values, objective = [], None
    if info.primal_solution_status == _core.kSolutionStatusFeasible:
        values = list(h.getSolution().col_value)
        # With the offset the solver minimises -(target - misses), so the
        # reported value is the negation; without one, the target is 0.
        objective = _negated(info.objective_function_value)
        if runs.value_bound is not None and objective > runs.value_bound:
            objective = runs.value_bound    # a rounding error above the exact bound
    proved = status == _Status.kObjectiveTarget or (status == _Status.kOptimal and not held)
    dual = None                # HiGHS's dual bound; an LP's is its optimum
    if not held:
        dual = (_finite(_negated(info.mip_dual_bound)) if runs.is_mip
                else objective if status == _Status.kOptimal else None)
    bound = runs.bound
    if dual is not None and (bound is None or dual < bound):
        bound, met = dual, message
    else:
        met = "value bound reached" if bound == runs.value_bound else "flow bound reached"
    if objective is not None and bound is not None and bound < objective:
        bound = objective      # a rounding error below the plan
    gap = _gap(bound, objective)
    if objective is not None and (proved or (gap is not None and gap <= runs.opts.mip_gap)):
        return SolveResult("optimal" if gap == 0.0 else "gap_reached", objective, bound,
                           values, gap=gap, message=met, nodes=nodes)
    if held:
        message = h.modelStatusToString(_Status.kTimeLimit)
    return SolveResult("time_limit", objective, bound, values, gap=gap,
                       message=message, nodes=nodes)


def _negated(x: float) -> float:
    """-x, but +0.0 for a zero optimum, which plain negation reports as -0.0."""
    return 0.0 - x


def _finite(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


# A relative gap this small is a rounding error: the plan is proven.
GAP_TOL = 1e-9


def _gap(bound: float | None, objective: float | None) -> float | None:
    """``(bound - objective) / |objective|``, as HiGHS defines it, read as 0
    at or below ``GAP_TOL`` (a bound at or below the plan included); None
    without a bound or a plan, and for a zero plan below a positive bound."""
    if bound is None or objective is None or (objective == 0.0 and bound > 0.0):
        return None
    gap = (bound - objective) / abs(objective) if bound > objective else 0.0
    return gap if gap > GAP_TOL else 0.0


_fd1_lock = threading.Lock()
_fd1_users = 0
_fd1_saved = -1


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at stderr while any thread is inside.

    HiGHS 1.12 prints a debug line to fd 1 while it completes some MIP
    starts, whatever its output options say; a caller's stdout (the CLI's
    JSON) must hold only what the caller writes.  HiGHS releases the GIL
    while it runs, so solves in several threads share one redirection.
    """
    global _fd1_users, _fd1_saved
    with _fd1_lock:
        if _fd1_users == 0:
            sys.stdout.flush()
            _fd1_saved = os.dup(1)
            os.dup2(2, 1)
        _fd1_users += 1
    try:
        yield
    finally:
        with _fd1_lock:
            _fd1_users -= 1
            if _fd1_users == 0:
                os.dup2(_fd1_saved, 1)
                os.close(_fd1_saved)


def solve_reference(model: MilpModel) -> SolveResult:
    """Enumerate binary assignments, fixing them in one HiGHS LP (tiny
    models; a testing aid that cross-checks HiGHS).  It chooses by the
    ``c·x`` of its own columns, so it also checks ``solve``'s offset."""
    if model.has_bilinear():
        raise SolverError("model has bilinear rows; the reference solver takes linear models")
    if model.n_vars > 200:
        raise SolverError(f"reference solver is capped at 200 variables, model has {model.n_vars}")
    bins = [v for v in model.vars if v.binary and v.lo != v.hi]
    if len(bins) > 14:
        raise SolverError(f"reference solver is capped at 14 free binaries, model has {len(bins)}")
    if model.n_vars == 0:
        return SolveResult("optimal", model.obj_offset, model.obj_offset, gap=0.0)
    # imported here for the reason _solve_highs gives
    import numpy as np
    _core = highs_core()

    lp, c, _ = _highs_lp(model, _core)
    lp.integrality_ = []    # continuous: each assignment fixes the binaries
    h = _core._Highs()
    h.setOptionValue("output_flag", False)
    if h.passModel(lp) == _core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    cols = np.array([v.col for v in bins], dtype=np.int32)
    best = None
    best_x = None
    for assignment in itertools.product((0.0, 1.0), repeat=len(bins)):
        fixed = np.array(assignment)
        h.changeColsBounds(len(cols), cols, fixed, fixed)
        h.run()
        if h.getModelStatus() == _core.HighsModelStatus.kOptimal:
            x = np.array(h.getSolution().col_value)
            fun = float(c @ x)
            if best is None or fun < best - 1e-12:
                best = fun
                best_x = x
    if best is None:
        return SolveResult("infeasible", None, None)
    obj = model.obj_offset - best
    return SolveResult("optimal", obj, obj, best_x.tolist(), gap=0.0)


# ---------------------------------------------------------------------------
# Warm starts and plan extraction


def warm_start(model: MilpModel, plan: FlowPlan) -> MilpModel:
    """Attach starting values for unload/feed decisions from a plan.

    Plan entries without a matching variable are skipped; values outside
    the variable bounds are dropped with a warning.  Digit binaries get
    starts by simulating the plan and encoding the resulting tank specs.
    """
    model.starts.update(_plan_starts(model, plan))
    return model


def _plan_starts(model: MilpModel, plan: FlowPlan, level: int = logging.WARNING) -> dict[int, float]:
    """The column starts ``warm_start`` takes from a plan; a value outside
    its column's bounds is dropped and logged at ``level``."""
    starts: dict[int, float] = {}
    if not any(getattr(plan, name) for name in PLAN_FIELDS):
        return starts

    def put(kind, index, value):
        ref = model.var(kind, index)
        if ref is None:
            return
        if value < ref.lo - 1e-9 or value > ref.hi + 1e-9:
            if log.isEnabledFor(level):
                log.log(level, "warm start for %s dropped: %.6g outside [%g, %g]",
                        ref.name, value, ref.lo, ref.hi)
            return
        starts[ref.col] = float(min(max(value, ref.lo), ref.hi))

    for name, fld in PLAN_FIELDS.items():
        for key, value in getattr(plan, name).items():
            put(name, fld.index(key), float(value))

    if model.plans is not None and model.instance is not None:
        try:
            trace = simulate(model.instance, plan)
        except PlanInconsistencyError as e:
            log.log(level, "warm start digits skipped, plan inconsistent: %s", e)
            return starts
        codes = _midpoint_codes if model.name == "center" else _exact_codes
        for (k, q, t), code in codes(model, plan, trace):
            for i, digit in enumerate(code.digits, start=1):
                put("alpha", (k, q, t, i), float(digit))
    return starts


def _exact_codes(model: MilpModel, plan: FlowPlan, trace):
    """Each ``(tank, spec, day)`` with digits and the code of the plan's
    exactly simulated spec value."""
    for (k, q, t), fval in trace.f.items():
        p = model.plans.get((k, q))
        if p is not None and p.n > 0:
            yield (k, q, t), encode(min(max(fval, p.lo), p.hi), p)


def _midpoint_codes(model: MilpModel, plan: FlowPlan, trace):
    """Each ``(tank, spec, day)`` with digits and the code of the value the
    ``center`` model's own arithmetic gives it: ``c_t = (m_{t-1} v_end[t-1]
    + sum spec y_in) / v_mid[t]``, ``m_{t-1}`` the midpoint of day t-1's
    cell and ``m_{-1} v_end[-1]`` the tank's initial spec times its initial
    volume.  The midpoint of ``c_t``'s cell lies within half a cell of it,
    so every ``blend_relax`` row holds.  A day without inflow keeps the
    value of the day before, so the all-miss plan keeps the initial spec's
    digits on every day, as the exact encoding does.  A day whose digits
    the model all fixes (a rolling step's committed past) gives those
    digits instead, and ``m_t`` is their cell's midpoint, so every start
    agrees with that past."""
    inst = model.instance
    specs = {b.id: b.specs for b in inst.barges}
    inflows: dict[tuple[str, int], list[tuple[str, float]]] = {}
    for (s, k, t), v in plan.y_in.items():
        if v:
            inflows.setdefault((k, t), []).append((s, v))
    for tank in inst.tanks:
        k = tank.id
        for q in inst.spec_ids():
            p = model.plans.get((k, q))
            if p is None or p.n == 0:
                continue
            c, volume = min(max(tank.specs_init[q], p.lo), p.hi), tank.v_init
            for t in range(inst.horizon):
                refs = [model.var("alpha", (k, q, t, i)) for i in range(1, p.n + 1)]
                if all(ref.lo == ref.hi for ref in refs):
                    code = DigitCode(tuple(round_binary(ref.lo) for ref in refs), 0.0)
                else:
                    vin = inflows.get((k, t))
                    if vin:
                        mass = c * volume + sum(specs[s][q] * v for s, v in vin)
                        c = min(max(mass / trace.v_mid[(k, t)], p.lo), p.hi)
                    code = encode(c, p)
                yield (k, q, t), code
                c, volume = grid_value(code, p) + p.eps / 2.0, trace.v_end[(k, t)]


def row_violations(model: MilpModel, x: list[float], tol: float = ROW_FEAS_TOL):
    """Rows violated by more than ``tol`` at the column vector ``x`` (diagnostics)."""
    if len(x) != model.n_vars:
        raise ValueError(f"point has {len(x)} values, model has {model.n_vars} columns")
    out = []
    for row, terms in zip(model.rows, model.matrix.all_terms()):
        ax = sum(c * x[col] for col, c in terms)
        if ax < row.lo - tol or ax > row.hi + tol:
            out.append((row.name, ax, row.lo, row.hi))
    return out


def round_binary(x: float) -> int:
    """A binary column's solved value as 0 or 1: rounded at 0.5."""
    return 1 if x >= 0.5 else 0


def extract_flow_plan(model: MilpModel, result: SolveResult) -> FlowPlan:
    """Read the plan out of a solve: each column of a ``PLAN_FIELDS`` kind by
    its field's rule, binaries by ``round_binary``; then check the rounded
    unloads by the audit's count rules (``unload_count_violations``)."""
    if not result.has_values and model.n_vars > 0:
        raise ExtractionError(f"no values in result with status {result.status!r}")
    inst = model.instance
    plan = FlowPlan()
    for v in model.vars:
        fld = PLAN_FIELDS.get(v.kind)
        if fld is None:
            continue
        x = result.values[v.col]
        if fld.read == "binary":
            x = round_binary(x)
        else:
            x = 0.0 if abs(x) < 1e-9 else max(x, 0.0)
        if x > 0.0 or fld.read != "flow":
            getattr(plan, v.kind)[v.index if len(fld.parts) > 1 else v.index[0]] = x
    if inst is not None:
        per_barge, per_day = unload_count_violations(inst, plan.unload_days())
        broken = [*per_barge.values(), *per_day]
        if broken:
            raise ExtractionError("rounded binaries violate counting limits: " + "; ".join(
                f"{_key_name(v.tag, v.index)} over by {v.magnitude}" for v in broken))
    return plan
