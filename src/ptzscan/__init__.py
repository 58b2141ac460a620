"""Geometric planning and evaluation toolkit for PTZ-camera surface scans.

The namespace is the ``__all__`` of each module imported below, and no name
is in two of them. ``formats`` and ``cli`` are imported by module path.
"""

from ptzscan.geometry import *
from ptzscan.losses import *
from ptzscan.evaluation import *
from ptzscan.surface import *
from ptzscan.pantilt import *
from ptzscan.planner import *
from ptzscan.randomizer import *
from ptzscan.simulator import *

__version__ = "0.1.0"
