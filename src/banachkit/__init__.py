"""Desk-scale workbench for block sequences in concrete Banach sequence spaces.

Exact norms (l_p, c_0, l_p sums of finite dimensional pieces, an interleaved
direct sum, the James space), block/NCCB sequence machinery, empirical
goodness and spreading-model detection, asymptotic-game constants, and
finite Ramsey/Hindman/Milliken-Taylor monochromatic searches driving an
NCCB stabilization procedure.
"""

from . import analysis, blockseq, combinatorics, games, spaces
from .spaces import *
from .combinatorics import *
from .blockseq import *
from .analysis import *
from .games import *

__all__ = spaces.__all__ + combinatorics.__all__ + blockseq.__all__ + analysis.__all__ + games.__all__

__version__ = "0.1.0"
