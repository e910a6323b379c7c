"""Finite-size laboratory for overlap-coupled mean-field spin systems."""

from .configurations import (
    OverlapConstraint,
    admissible_sequence,
    construct_u_prime,
    nearest_admissible,
)
from .disorder import (
    CavityFieldSample,
    DirichletWeights,
    FixedWeights,
    HamiltonianTable,
    RostSpec,
    empirical_covariance,
    random_gram_rost,
)
from .free_energy import (
    Estimate,
    GEstimate,
    build_explicit_rost,
    estimate_F,
    estimate_G,
    estimate_G_MN,
    partition_by_overlap,
)
from .interpolation import (
    InterpolationRun,
    Lemma2Derivative,
    Lemma3Derivative,
    run_lemma2_curve,
    run_lemma3_curve,
)
from .mixture import (
    MixtureFunctions,
    MixtureSpec,
    check_convexity,
    check_positivity,
)

__version__ = "0.1.0"
