"""Self-consistent network valuation of interbank claims.

Build a :class:`FinancialNetwork`, pick a :class:`ValuationSpec`, and solve
for the greatest or least self-consistent equity vector; the analysis layer
adds stress tests, limit experiments and a Monte Carlo estimate of globally
valued equities, and the CLI exposes the same operations on JSON inputs.
"""

from .network import *  # noqa: F401,F403
from .valuation import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .files import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*network.__all__, *valuation.__all__, *solver.__all__,
           *analysis.__all__, *files.__all__, "__version__"]
