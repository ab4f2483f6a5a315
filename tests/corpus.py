"""Shared fixture curves used across the test modules.

Each entry: (name, source text, variable, parameter bindings, domain lo,
domain hi).  Domains avoid the edges of restricted-domain functions so
central finite differences stay well defined.
"""

import math

from revolve.expr import bind, differentiate, enclose, the_variable
from revolve.monotone import Enclosures

TWO_PI = 2.0 * math.pi

CURVES = [
    ("line", "x", "x", {}, 1.0, 2.0),
    ("falling-line", "3 - x", "x", {}, 1.0, 2.0),
    ("square", "x^2", "x", {}, 1.0, 2.0),
    ("cubic", "x^3 - 2*x + 1", "x", {}, -1.5, 1.5),
    ("ramp-plus-wave", "x/pi + sin(x)", "x", {}, 0.0, TWO_PI),
    ("mirrored-ramp", "2 - x/pi - sin(x)", "x", {}, 0.0, TWO_PI),
    ("shifted-wave", "1 + sin(x)", "x", {}, 0.0, 1.5 * math.pi),
    ("kepler-mid", "y - eps*sin(y)", "y", {"eps": 0.5}, 0.0, TWO_PI),
    ("kepler-high", "y - eps*sin(y)", "y", {"eps": 0.9}, 0.0, TWO_PI),
    ("wave-ramp-y", "y/pi + sin(y)", "y", {}, 0.0, TWO_PI),
    ("cosine-mix", "cos(x)*x/2 + 2", "x", {}, 0.0, TWO_PI),
    ("root", "sqrt(x)", "x", {}, 0.01, 4.0),
    ("inverse-cosine", "arccos(x)", "x", {}, -0.9, 0.9),
    ("scaled-power", "2*x^0.5 + x", "x", {}, 0.01, 3.0),
]


def compiled(curve, parameters=None):
    """``(fn, derivative, enclosures)``: the parsed ``curve`` and its
    derivative bound with ``parameters``, and the interval enclosures of
    the curve and its first two derivatives, which the monotone analyses
    take in that order."""
    var = the_variable(curve) or "_"
    slope = differentiate(curve, var)
    return (bind(curve, var, parameters), bind(slope, var, parameters),
            Enclosures(enclose(curve, var, parameters),
                       enclose(slope, var, parameters),
                       enclose(differentiate(slope, var), var, parameters)))
