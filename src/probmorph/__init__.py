"""Finite probability kernels and affine-Gaussian morphisms.

Measures, stochastic kernels and their algebra (composition, products,
graphs, marginals) over finite spaces with exact-rational or float64
scalars; disintegration and Bayesian inversion; a closed-form Gaussian
counterpart with a discretization bridge; supervised models and GP
regression built on top of the same operations.
"""

from .errors import (
    BackendMismatchError,
    GridError,
    NonProductSpaceError,
    NotAbsolutelyContinuousError,
    NotPSDError,
    NumericalError,
    ProbmorphError,
    SchemaError,
    SingularMatrixError,
    UnsupportedStructureError,
)
from .measures import (
    DEFAULT_TOLERANCE,
    FLOAT,
    RATIONAL,
    BoundedFunction,
    FiniteMeasure,
    FiniteSpace,
    bounded_function,
    constant_function,
    convolve,
    dirac_measure,
    expectation,
    integrate,
    measure,
    measures_equal,
    prob_measure,
    product_measure,
    product_space,
    radon_nikodym,
    signed_measure,
    tv_norm,
    uniform_measure,
)
from .kernels import (
    FiniteKernel,
    MeasurableMap,
    compose,
    dirac_kernel,
    finite_kernel,
    graph,
    identity_kernel,
    identity_map,
    join,
    kernels_equal,
    map_compose,
    marginal,
    mirror,
    product_kernel,
    projection_map,
    pullback,
    pushforward,
)
from .bayes import (
    BayesModel,
    InversionResult,
    ae_equal,
    bayes_invert,
    disintegrate,
    invert_composition,
    joint_measure,
    predictive_measure,
    verify_inversion,
)
from .gaussian import (
    AffineGaussianMap,
    GaussianMeasure,
    GridSpec,
    discretize_model,
    gauss_compose,
    gauss_condition,
    gauss_convolve,
    gauss_discretize,
    gauss_graph,
    gauss_invert,
    gauss_marginal,
    gauss_pushforward,
    gauss_swap_blocks,
    gaussians_equal,
)
from .supervised import (
    GPModel,
    InferenceResult,
    SupervisedModel,
    TestInputs,
    TrainingSet,
    constant_mean,
    gp_joint,
    gp_posterior_predictive,
    label_marginals,
    posterior,
    predictive,
    restrict_inputs,
    restriction_consistency,
    sampling_kernel,
    squared_exponential,
    zero_mean,
)

__version__ = "0.1.0"
