"""Finite-truncation d-bar calculus under Gaussian product measures.

Subpackages by topic: multi-index combinatorics (`multiindex`), symbolic
cylinder functions and Wirtinger operators (`symfun`), the product measure
and quadratures (`gaussmeasure`), sparse (s,t)-forms (`forms`), the operators
and identity verifiers (`dbarops`), the pseudo-convex domain catalog
(`domains`), cut-offs/majorants/weights (`weights`), reduction and
mollification (`reduction`), and the minimal-norm solver with bound audits
(`solver`).  The `dbarl2` console script drives config-based verification
runs.
"""

from . import (dbarops, domains, forms, gaussmeasure, multiindex, reduction,
               solver, symfun, weights)
from .dbarops import OperatorContext, Tstar, dbar
from .forms import Form
from .gaussmeasure import GaussianSpec, Quadrature
from .multiindex import (WeightFamily, check_conditions, constant_family, epsilon,
                         insert, multiplicative_family, prior_work_family)
from .symfun import CylinderFn, parse

__version__ = "0.1.0"
