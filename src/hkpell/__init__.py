"""Exact arithmetic of Pell-controlled invariants for polarized hyperkahler
manifolds of K3^[m]-type: cone slopes and chamber walls, biregular and
birational automorphism groups, Heegner-divisor components, and the excluded
lists of the period-map image.

Each layer module is imported on first access (PEP 562), so `import hkpell`
loads none of them and `hkpell.pell` loads pell and the layers it imports.
"""

import importlib

__all__ = ["arith", "autgroups", "cones", "discform", "lattice", "pell", "periods", "rrinv"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
