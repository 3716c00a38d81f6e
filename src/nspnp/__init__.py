"""Finite element solver for the Navier-Stokes-Planck-Nernst-Poisson system.

A first-order, fully decoupled projection scheme: linearized implicit ion
transport, a Poisson solve for the potential, a scalar-auxiliary-variable
treatment of the coupled convection and electric forcing, and a pressure
correction step.  The discrete scheme conserves ion masses exactly and
dissipates a modified energy unconditionally; both properties are monitored
at runtime.
"""

__version__ = "0.1.0"
