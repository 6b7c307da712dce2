"""Variance-minimizing treatment assignment for networked experiments.

Outcomes follow a conditional autoregressive model on the experiment's
social graph, so the precision of the treatment-effect estimate depends
on how assignments sit relative to both edges and covariates.  This
package evaluates that precision, optimizes assignments under a balance
constraint with a capped network term, and scripts the simulation
studies that compare the results against random designs.
"""

from .car import (
    CarParams,
    FitResult,
    HeteroCarParams,
    NetworkSpectrum,
    PrecisionFactor,
    factor_precision,
    fit_gls,
    fit_profile_ml,
    network_spectrum,
    precision_matrix,
    sample_noise,
    sample_outcomes,
)
from .criterion import (
    CriterionBreakdown,
    CriterionEvaluator,
    GapDiagnostics,
    RobustnessScatter,
    balanced_moment_c,
    concavity_probe,
    evaluate,
    expected_breakdown,
    expected_precision,
    k_matrix,
    pip,
    quadform_correlation,
    robustness_correlation,
    robustness_scatter,
    robustness_scatters,
    surrogate_gap_diagnostics,
)
from .designs import Design, as_sign_vector
from .errors import (
    DataError,
    DegenerateDesignError,
    EigenSolverError,
    GraphFormatError,
    InfeasibleError,
    NetdesignError,
    NotPositiveDefiniteError,
    RankError,
    StudySpecError,
)
from .experiments import (
    DEFAULT_SEED,
    STUDY_KINDS,
    StudyResult,
    StudySpec,
    bundled_study_path,
    derive_seed,
    list_bundled_studies,
    load_study_spec,
    run_study,
    study_defaults,
    study_spec_from_dict,
    synth_dataset,
)
from .graph import (
    CovariateMatrix,
    Network,
    RepairResult,
    generate_bernoulli_network,
    generate_pm1_covariates,
    load_covariates,
    load_edge_list,
    paired_bipartite_instance,
    repair_isolated,
    subsample_network,
    write_covariates,
    write_edge_list,
)
from .optimizer import (
    AnnealingSchedule,
    HybridProblem,
    SolveReport,
    hybrid_problem,
    no_network_problem,
    quantile_cap,
    random_balanced_design,
    random_iid_design,
    solve,
    solve_annealing,
    solve_exact,
    solve_local,
    solve_no_network,
)

__version__ = "0.1.0"
