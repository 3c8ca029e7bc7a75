"""Resilient control of mobile multi-agent networks under attack.

The package keeps a mobile network connected while an adversary removes
communication links and spoofs position reports.  It provides:

- weighted proximity graphs and algebraic-connectivity machinery
  (:mod:`resilnet.graph_core`),
- a worst-case link-removal adversary (:mod:`resilnet.adversary`),
- a moving-horizon max-min connectivity controller, centralized and
  decentralized (:mod:`resilnet.controller`),
- a closed-loop scenario simulator with jamming and spoofing events and
  resilience metrics (:mod:`resilnet.simulator`),
- a coupled stealthy-takeover timing game and trust signaling game solved
  for a joint equilibrium (:mod:`resilnet.gne`),
- YAML scenario parsing, canonical JSON output, trace parsing, and the
  ``resilnet`` command line (:mod:`resilnet.scenario_io`, :mod:`resilnet.cli`).
"""

__version__ = "0.1.0"

from . import adversary, controller, gne, graph_core, scenario_io, simulator
from .graph_core import *
from .adversary import *
from .controller import *
from .simulator import *
from .gne import *
from .scenario_io import *

__all__ = [
    "__version__",
    *graph_core.__all__,
    *adversary.__all__,
    *controller.__all__,
    *simulator.__all__,
    *gne.__all__,
    *scenario_io.__all__,
]
