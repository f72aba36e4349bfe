"""Proper-time electrodynamics and relativistic mechanics toolkit.

Dual-clock kinematics, the nonlinear transformation group that fixes the
source clock, retarded fields with their radiation-reaction terms,
canonical proper-time dynamics for one and many particles, and the
nonlocal square-root operator kernel.
"""

from . import dynamics, fields, group, kinematics, many, spectral
from .kinematics import *
from .group import *
from .fields import *
from .dynamics import *
from .many import *
from .spectral import *

__all__ = [*kinematics.__all__, *group.__all__, *fields.__all__,
           *dynamics.__all__, *many.__all__, *spectral.__all__]
__version__ = "0.1.0"
