"""Subnetwork selection in fixed random neural networks via simulated quantum search."""

from . import (
    anneal,
    bitstrings,
    distill,
    edgepopup,
    grover,
    harness,
    masknet,
    nkesn,
    oracle,
    qsim,
    search,
    variational,
)

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
