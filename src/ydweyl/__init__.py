"""ydweyl: exact Nichols-algebra reflections and Weyl groupoids.

Computes in the braided category of Yetter-Drinfeld modules over a finite
group twisted by a 3-cocycle: module validation, braided tensor algebras,
Nichols algebra truncations, adjoint reflections, semi-Cartan graphs, real
root enumeration and (in)finite-dimensionality certificates.
"""

from .cyclo import CycScalar, inv, parse_scalar, root_of_unity, scalar_key

__all__ = ["CycScalar", "inv", "parse_scalar", "root_of_unity", "scalar_key"]
__version__ = "0.1.0"
