"""finslab: numerical engine for pseudo-Finsler metrics.

Evaluates metric tensors, the associated connection, lightlike geodesics,
Jacobi fields and focal points for user-supplied metric scalars, and checks
the invariance of this structure under direction-dependent conformal
rescalings.
"""

from .conformal import (ConformalPair, anisotropy_factor, inverse_factor,
                        lightcones_coincide, scale_metric)
from .connection import ConnectionFrame, chern_curvature, spray_coefficients
from .curves import DiscreteCurve, Reparametrization
from .dsl import (MetricDefinition, SampleBatch, TangentSample,
                  builtin_metric, builtin_names, load_metric_file,
                  parse_expression, parse_metric, pretty, sample_admissible)
from .errors import (ConfigError, DomainExit, EvaluationDomainError,
                     ExpressionError, FinslabError, InadmissibleSample,
                     IncompatiblePair, NoAdmissibleSample, NoConvergence,
                     PositivityFailure, SingularMetric, TransversalityFailure)
from .geodesics import (energy, integrate_geodesic, lightlike_defect,
                        pregeodesic_residual, project_to_lightcone,
                        reparametrize_conformal)
from .jets import Jet, JetSpace, jet_space
from .tensors import (CartanTensor, FundamentalTensor, cartan_tensor,
                      fundamental_tensor, inverse_metric, legendre)
from .variational import (CurveGeometry, FocalPoint, JacobiSolution,
                          SubmanifoldPatch, VariationField, boundary_residual,
                          conformal_jacobi_residual, energy_derivative_fd,
                          find_focal_points, first_variation, index_form,
                          integrate_jacobi_basis,
                          normal_second_fundamental_form, second_fundamental_form,
                          second_variation, transfer_jacobi,
                          verify_focal_correspondence)

__version__ = "0.1.0"
