"""jumpkit: renewal and pattern analytics plus impulse control for
1-D jump diffusions, with every closed form backed by an independent
oracle or Monte Carlo check."""

from .calculus import ScalarField, dynkin_residual, generator_apply, ito_residual
from .distributions import (
    Deterministic,
    Discrete,
    Exponential,
    Uniform,
    bernoulli,
    expectation,
    symmetric_pair,
)
from .errors import (
    ChatteringError,
    ConfigError,
    DegeneratePolicyError,
    DistributionError,
    HypothesisViolationError,
    JumpkitError,
    NumericalBlowupError,
    NumericalError,
    ParameterError,
)
from .impulse import (
    CandidateValue,
    CostEstimate,
    ImpulsePolicy,
    ImpulseProblem,
    QVIReport,
    ValueVerification,
    affine_intervention_operator,
    estimate_cost,
    intervention_operator,
    minimize_over_targets,
    qvi_residual,
    simulate_controlled,
    synthesize_policy,
    verify_value,
)
from .mc import EstimateWithCI, estimate_from_samples, replicate
from .patterns import (
    IIDSource,
    MarkovChain,
    Pattern,
    automaton_expected_time,
    border_chain,
    carryover_progress,
    conditional_expected_time,
    expected_time_iid,
    expected_time_markov,
    failure_function,
    mean_hitting_times,
    overlap_size,
    stationary_distribution,
)
from .qvi import (
    BenchmarkParams,
    BenchmarkSolution,
    make_benchmark_problem,
    solve_benchmark_qvi,
)
from .race import (
    AlternatingRunRaceReport,
    RaceResult,
    SimulatedRace,
    alternating_run_race_report,
    conditional_decomposition_probabilities,
    race_solve,
    run_race_probability,
    run_race_probability_two_stage,
    simulate_pattern_race,
)
from .renewal import (
    RegenerativeSpec,
    RenewalSpec,
    blackwell_check,
    delayed_renewal_stats,
    estimate_mean_process,
    regenerative_occupancy,
    reward_rate_check,
    simulate_renewal,
    wald_check,
)
from .renewal_equation import (
    RenewalEquationSolution,
    last_renewal_cdf,
    solve_renewal_equation,
)
from .sde import (
    InterventionRecord,
    JumpDiffusionSpec,
    JumpRecord,
    SamplePath,
    sample_jump_times,
    simulate_jump_diffusion,
)
from .streams import RandomStream, derive_stream

__all__ = [name for name in dir() if not name.startswith("_")]
