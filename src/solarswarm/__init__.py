"""solarswarm: robust multiobjective sizing of a solar irrigation pump.

Pipeline: a monthly climate table feeds interval type-2 fuzzy models of
temperature and insolation noise; the inverse of a factor's annual curve
turns secondary membership grades into crisp noise intervals; a bacterial
foraging swarm maximizes weighted sums of three pump response surfaces over
design and noise jointly; a weight-grid sweep assembles the Pareto
frontier, scored by dominance and sigma-line diversity.
"""

from .bfa import (
    BfaConfig,
    BoxFunction,
    RunResult,
    RunTrace,
    Swarm,
    eliminate_disperse,
    reproduce,
    run_bfa,
    sphere_function,
)
from .climate import (
    ClimateTable,
    MonthlyClimateRecord,
    annual_extrema,
    builtin_table,
    monthly_interval,
    parse_climate_csv,
    serialize_climate_csv,
)
from .fuzzy import (
    GradeContext,
    SCurveParams,
    Type2FuzzyVariable,
    build_type2_model,
    noise_interval_from_grades,
    sample_fou,
    scurve_grade,
    scurve_invert,
    type_reduce,
)
from .irrigation import (
    DesignVector,
    IrrigationFitness,
    NoiseVector,
    ObjectiveTriple,
    ProblemSpec,
    WeightVector,
    aggregate,
    eval_objectives,
    feasible,
)
from .pareto import (
    Frontier,
    SigmaVector,
    SolutionPoint,
    build_frontier,
    compute_metrics,
    derive_seed,
    diversity_metric,
    frontier_dominance,
    nondominated_filter,
    rank_solutions,
    read_frontier_csv,
    reference_sigma_lines,
    sigma_components,
    weight_grid,
    write_frontier_csv,
)

__version__ = "0.1.0"
