"""Bidirectional Helmholtz machines for binary data.

Training by weighted wake-sleep on importance samples, log-likelihood
estimation, Gibbs sampling and inpainting, plus an exhaustive-enumeration
oracle for small models.
"""

from bihm import estimators, io, model, oracle, sampling, training
from bihm.estimators import *
from bihm.io import *
from bihm.model import *
from bihm.oracle import *
from bihm.sampling import *
from bihm.training import *

__all__ = (
    model.__all__
    + estimators.__all__
    + oracle.__all__
    + training.__all__
    + sampling.__all__
    + io.__all__
)

__version__ = "0.1.0"
