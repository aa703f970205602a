"""Numerical toolkit for asymptotically periodic Markov dynamics: exact
Ornstein-Uhlenbeck transitions, ergodic-average experiments, drift and
minorization certificates, and conditioned ensembles for Brownian motion
absorbed by moving boundaries."""

from .absorbed import (BoundaryPair, FVResult, OccupationMeasure, ParticleSystem,
                       QEDComparison, QProcessResult, SurvivalEstimate,
                       boundary_convergence_report, conditioned_endpoint_law,
                       default_boundary_pair, fleming_viot, girsanov_survival_estimate,
                       girsanov_weight, q_process_approx, qed_comparison,
                       survival_probability)
from .certificates import (DriftCertificate, GaussianKernel, MinorizationCertificate,
                           check_drift, gaussian_class_minorization, quadratic_psi)
from .ergodic import (ASReport, ErgodicReport, default_checkpoints, normal_initial,
                      point_initial, run_as_experiment, run_l2_experiment)
from .invariant import (SkeletonMap, invariant_gaussian, limiting_value,
                        power_iteration_invariant, skeleton_kernel_matrix)
from .measures import Mesh, MeshMeasure, tv_distance
from .ou import (GaussianTransition, OUSpec, asymptotic_periodicity_report,
                 default_ou_spec, gaussian_tv, transition_params)
from .paths import Observable
from .rng import make_generator, substream_key
from .timefns import TimeFunction, TimeGrid, parse_time_function

__version__ = "0.1.0"
