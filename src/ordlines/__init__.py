"""Exact-arithmetic laboratory for ordinary lines and spanned lines and planes
of finite point sets in the plane and in space.

Each module's ``__all__`` declares its public names; the package re-exports them.
"""

from . import analysis, constructions, errors, fields, geometry, incidence, pointset_io, search
from .analysis import *  # noqa: F403
from .constructions import *  # noqa: F403
from .errors import *  # noqa: F403
from .fields import *  # noqa: F403
from .geometry import *  # noqa: F403
from .incidence import *  # noqa: F403
from .pointset_io import *  # noqa: F403
from .search import *  # noqa: F403

__version__ = "0.1.0"

__all__ = (
    analysis.__all__
    + constructions.__all__
    + errors.__all__
    + fields.__all__
    + geometry.__all__
    + incidence.__all__
    + pointset_io.__all__
    + search.__all__
)
