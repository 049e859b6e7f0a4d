"""certctrl: certified approximate computation for control engineering.

Every operation returns its result together with an explicit, testable
error certificate: epsilon-optimal policies, Danskin directional
derivatives, measurable selectors, residual-certified eigenpairs,
Caratheodory trajectories, Lyapunov certificates and certified
sample-and-hold sampling times.
"""

__version__ = "0.1.0"

from .core import (
    ArgumentError,
    CertifiedReal,
    ContractError,
    DomainExitError,
    FiniteMesh,
    Hypercube,
    InternalConsistencyError,
    Modulus,
    ResourceBudgetError,
    build_mesh,
)

__all__ = [
    "__version__",
    "ArgumentError",
    "CertifiedReal",
    "ContractError",
    "DomainExitError",
    "FiniteMesh",
    "Hypercube",
    "InternalConsistencyError",
    "Modulus",
    "ResourceBudgetError",
    "build_mesh",
]
