"""Joint angle and delay estimation for fading multipath array channels.

Synthesizes snapshots of a known keyed raised-cosine pulse arriving at a
uniform linear array over several randomly faded paths, then estimates
each path's angle of arrival (spatial-lag correlation + matrix pencil,
Hua & Sarkar 1990) and time delay (beamforming + a delay periodogram over
all snapshots, the delay half of RELAX, Li & Stoica 1996).
"""

__version__ = "0.1.0"

# Each module declares its public names in its own __all__; the package re-exports them.
from . import exceptions, pulse, channel, correlation, prony, delay, pipeline
from .exceptions import *
from .pulse import *
from .channel import *
from .correlation import *
from .prony import *
from .delay import *
from .pipeline import *

__all__ = ["__version__"]
__all__ += exceptions.__all__
__all__ += pulse.__all__
__all__ += channel.__all__
__all__ += correlation.__all__
__all__ += prony.__all__
__all__ += delay.__all__
__all__ += pipeline.__all__
