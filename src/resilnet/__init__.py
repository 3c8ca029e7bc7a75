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

Every module's exports, as its ``__all__`` lists them, are package
attributes, and each loads its module on first use: importing the package
loads no module.  Game-only work, in the library or the ``resilnet``
command, never imports the network modules (graph, adversary, controller,
simulator), and scenario work never imports the game module.
"""

__version__ = "0.1.0"

import importlib

# __all__ lists the exports in this order
_MODULES = ("graph_core", "adversary", "controller", "simulator", "gne", "scenario_io")
# and a name is looked for in this one: the file modules, then the network ones
_SEARCH = ("scenario_io", "gne", *_MODULES[:4])


def _load(module: str):
    return importlib.import_module(f"{__name__}.{module}")


def __getattr__(name: str):
    # without a cache, so that a name rebound in its home module reads the same here
    if name == "__all__":
        return ["__version__", *(n for module in _MODULES for n in _load(module).__all__)]
    if not name.startswith("_"):
        if name == "cli" or name in _MODULES:
            return _load(name)
        for module in _SEARCH:
            if name in (home := _load(module)).__all__:
                return getattr(home, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), "cli", *_MODULES})
