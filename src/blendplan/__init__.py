"""blendplan: schedule barge unloading and tank blending against
production-feed demand with spec and spec-ratio requirements.

The library builds MILP approximations of the underlying bilinear blending
model (midpoint-pinned or envelope-bounded residuals over a shared binary
digit encoding of tank specs), solves them flat or under rolling-horizon
schemes, and simulates solutions exactly to verify true spec feasibility.

``blendplan.solve`` is the function ``solve``, not its submodule, and so is
``m`` after ``import blendplan.solve as m``; reach the module through
``sys.modules["blendplan.solve"]``.
"""

from importlib import resources

__version__ = "0.1.0"

from .builders import (CenterOptions, TightenedBounds, build_center,
                       build_exact_mix, build_exact_split, build_mccormick,
                       make_plans, reachable_spec_bounds, tighten)
from .discretize import (DigitCode, DiscretizationPlan, binary_count,
                         binary_count_ratio, decode, digit_count, encode, plan)
from .instance import (Barge, DerivedSets, Instance, InstanceError, OpsParams,
                       RandomizationParams, Run, SpecDef, Tank,
                       ValidationReport, derive_sets, extend_periodic,
                       randomize_supply, read_instance, validate_instance,
                       write_instance)
from .model import MilpModel, VarRef
from .rolling import (SEGMENT_POLICY, Period, RollParams, RollResult,
                      fixed_periods, roll_full, roll_partial,
                      run_based_periods)
from .simulate import (FeasibilityReport, FlowPlan, LossReport,
                       PlanInconsistencyError, SimulationTrace, audit,
                       empty_plan, grid_oracle, loss, plan_objective,
                       read_plan, simulate, write_plan)
from .solve import (ExtractionError, SolveOptions, SolveResult, SolverError,
                    extract_flow_plan, row_violations, solve, warm_start)


def sample_instance_path() -> str:
    """Path of the bundled three-tank sample instance."""
    return str(resources.files("blendplan").joinpath("data/sample_instance.json"))
