"""Skew-ensemble tau functions, their lattice flows and the hydrodynamic
chain limit, with each layer cross-checked against the others:

- ``ensemble``: moment matrices of the skew pairing by quadrature, the one
  skew elimination that gives their Pfaffians (the taus) and the skew
  factor, the closed-form zero-coupling tau ratio and the moment-flow law;
- ``lax``: the band Lax matrix, projection-commutator flows, explicit flow
  tables, Gaussian initial data and RK4 stepping of the table flows;
- ``chain``: the continuum hydrodynamic chain, its lattice-size corrections,
  grid evolution and the lattice-vs-continuum order measurement;
- ``integrability``: exact Nijenhuis/Haantjes tensors for chain-class
  matrices (diagonalisability test);
- ``reductions``: Riemann-invariant tangent recursion and the
  Gibbons-Tsarev closure with its involutivity check, both in Python ints;
- ``poly``: sparse exact polynomials, and ``over_lcm``, the common
  denominator every exact kernel starts from;
- ``cli``: the ``pfaffchain`` command.
"""

from . import chain, ensemble, integrability, lax, reductions

__all__ = ["chain", "ensemble", "integrability", "lax", "reductions"]
__version__ = "0.1.0"
