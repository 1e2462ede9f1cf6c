"""Finite truncations of binomial posets.

Exact maximal-chain counting and the equal-count verification, canonical
certificates and isomorphism, section-word classification of the
type-(1,1,2,2,...) family, constructions for the recognized realizable
families, atom-sequence admissibility, and exhaustive extension search.
"""

from . import classify, construct, core, iso, search, seqcheck
from .classify import *
from .construct import *
from .core import *
from .iso import *
from .search import *
from .seqcheck import *

__version__ = "0.1.0"

__all__ = sorted(
    {name for mod in (classify, construct, core, iso, search, seqcheck) for name in mod.__all__}
) + ["__version__"]
