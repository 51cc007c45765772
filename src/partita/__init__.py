"""Exact counts of integer partitions into a given number of parts.

The central quantity is P(n, m), the number of partitions of n into
exactly m parts, with Q(n, m) its distinct-parts twin.  The package
offers scalar counts with automatic algorithm dispatch (``p_parts``,
``q_parts``), whole rows and columns of the tables (``p_row``,
``p_column``, ``q_row``, ``q_column``), cached unrestricted series with
several interchangeable recurrences (``PartitionSeries``,
``DistinctSeries``), persistence for those caches, and a deliberately
slow enumeration oracle for independent verification.  All counts are
exact Python integers.
"""

from . import core, lists, oracle, series
from .core import *
from .lists import *
from .oracle import *
from .series import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += lists.__all__
__all__ += oracle.__all__
__all__ += series.__all__
