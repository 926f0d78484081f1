"""galemb: obstruction calculator for realizing p-groups of order p^5 and p^6
with abelian central quotients as Galois groups, with an independent local
tame-symbol oracle for every symbolic rewrite."""

__version__ = "0.1.0"

from .catalog import enumerate_instances, instantiate, lookup
from .obstructions import (
    ObstructionResult,
    generate_table,
    obstruction_for_instance,
)
from .symbols import SymbolBasis, normalize, parse, render

__all__ = [
    "ObstructionResult",
    "SymbolBasis",
    "__version__",
    "enumerate_instances",
    "generate_table",
    "instantiate",
    "lookup",
    "normalize",
    "obstruction_for_instance",
    "parse",
    "render",
]
