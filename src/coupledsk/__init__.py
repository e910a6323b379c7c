"""Finite-size laboratory for overlap-coupled mean-field spin systems."""

from .configurations import (
    OverlapConstraint,
    SpinConfig,
    admissible_sequence,
    construct_u_prime,
    fiber_count,
    hamming,
    nearest_admissible,
    overlap,
    pair_count,
    project_pi,
)
from .disorder import (
    CavityFieldSample,
    DirichletWeights,
    FixedWeights,
    HamiltonianTable,
    RostSpec,
    empirical_covariance,
    random_gram_rost,
    sample_process,
    sample_rost_fields,
    sample_tensor,
)
from .free_energy import (
    Estimate,
    GEstimate,
    OverlapResolvedPartition,
    build_explicit_rost,
    estimate_F,
    estimate_F_window,
    estimate_G,
    estimate_G_MN,
    inner_cavity_sum,
    partition_by_overlap,
)
from .interpolation import (
    InterpolationRun,
    Lemma2Derivative,
    Lemma3Derivative,
    VerdictConfig,
    lemma2_phi,
    lemma2_phi_prime_fd,
    lemma2_phi_prime_gibbs,
    lemma3_phi,
    lemma3_phi_prime_fd,
    lemma3_phi_prime_gibbs,
    run_lemma2_curve,
    run_lemma3_curve,
    verdict_suite,
)
from .mixture import (
    MixtureFunctions,
    MixtureSpec,
    binary_entropy,
    check_convexity,
    check_positivity,
    eval_theta,
    eval_xi,
    eval_xi_prime,
)

__version__ = "0.1.0"
