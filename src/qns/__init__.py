"""Subnetwork selection in fixed random neural networks via simulated quantum search.

``import qns`` loads no submodule: ``qns.<name>`` imports ``qns.<name>`` on
first access (PEP 562), so a process loads only the methods it runs.
"""
import sys

__all__ = [
    "anneal",
    "bitstrings",
    "distill",
    "edgepopup",
    "grover",
    "harness",
    "masknet",
    "nkesn",
    "oracle",
    "qsim",
    "search",
    "variational",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        # __import__, unlike importlib.import_module, shows in -X importtime
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
