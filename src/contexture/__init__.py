"""Finite-support toolkit for context-induced spectral representation learning.

Construct finite context distributions, extract their singular systems,
check that the standard pretraining objectives recover them, and score
contexts with task-agnostic usefulness metrics.
"""

from .context import (DiscreteDistribution, FiniteContext, PointSet,
                      build_from_descriptor, build_graph_context,
                      build_knn_context, build_label_context,
                      build_masked_context, build_rbf_context,
                      parse_descriptor)
from .errors import ConstraintViolationError, DivergenceError, NumericalError
from .estimation import (CovariancePair, estimate_covariances,
                         estimate_spectrum_posthoc, subsample_support)
from .evaluation import (ProbeResult, TaskFunction, UsefulnessReport,
                         approx_err, cca_alignment, compatibility,
                         compatible_lift, correlation_stats, decay_rate,
                         fisher_discriminant, fit_linear_probe,
                         kernel_association_measures, make_usefulness_report,
                         mutual_knn, ratio_trace, trace_gap_bound,
                         usefulness_metric, worst_case_err)
from .harness import (ExperimentConfig, load_config, load_dataset,
                      run_experiment, split_dataset, write_report)
from .objectives import (LossKernelKind, ObjectiveKind, SampleEncoder,
                         VariationalOptions, average_encoder, eval_objective,
                         load_encoder, loss_kernel_matrix,
                         operator_eigenvalues, save_encoder, solve_spectral,
                         solve_variational)
from .spectral import (ContextureSpectrum, adjoint_matrix, contexture_svd,
                       dual_kernel, load_spectrum, positive_pair_kernel,
                       reconstruct_joint, save_spectrum)
from .verify import verify_theorems

__version__ = "0.1.0"
