"""Thermodynamic formalism and multifractal analysis for conformal graph
directed Markov systems with finite or countably infinite alphabets."""

from .errors import (BracketBudgetError, CgdmsError, ConfigError,
                     DomainMismatchError, InvalidWordError,
                     NotIrreducibleError)
from .families import (CodingPoint, Custom1DFamily, DerivativeBracket,
                       MapFamily, MoebiusCFFamily, SimilarityFamily,
                       approximate_pi, geometric_potential_bracket,
                       log_deriv_bracket)
from .measures import (BernoulliSpec, GenericWordReport, MeasureSummary,
                       Q_of_bernoulli, Q_of_periodic, construct_generic_word,
                       semicontinuity_counterexample)
from .multifractal import (BetaPoint, BetaSolver, CertificateResult,
                           GradResult, HessianResult, KLEstimate, MEstimate,
                           SpectrumPoint, estimate_KL, estimate_M, grad_beta,
                           hessian_beta, independence_certificate, legendre,
                           solve_beta, spectrum_scan)
from .potentials import PotentialVector, cycle_birkhoff
from .symbolic import (IncidenceMatrix, IrreducibilityWitness, Multigraph,
                       count_words, enumerate_words,
                       find_irreducibility_witness, is_admissible)
from .system import (SystemDescriptor, TailRule, moebius_cf_system,
                     similarity_system, truncated_cf_system)
from .thermo import (BowenResult, PressureBracket, PressureQuery, ThermoReport,
                     ThetaResult, bowen_dimension, classify_regularity,
                     estimate_theta, pressure_bracket, thermo_report)
from .util import Enclosure

__version__ = "0.1.0"
