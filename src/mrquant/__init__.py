"""Multi-resolution scalar quantizers and their cell-size analysis toolkit."""

from . import cdf_analysis, quantizers, relay_sim, tradeoff, verify
from .cdf_analysis import *
from .quantizers import *
from .relay_sim import *
from .tradeoff import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (cdf_analysis, quantizers, relay_sim, tradeoff, verify)
    for name in module.__all__
] + ["__version__"]
