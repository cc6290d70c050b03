"""Finite-state workbench for relational, transformer and hyper-level
semantics of a small imperative language."""

from ._kernels import backend as kernel_backend
from .family import (DEFAULT_EXPANSION_CAP, FamilySet, family_le,
                     family_union, mask_of, powerset_family, ssc, states_of)
from .hyper import HEval, LoopVariant, happly, loop_iterates
from .lang import elaborate_atom, eval_bool, parse, pp_program
from .noninterference import (LowView, agr, ni_hyper, ni_possibilistic,
                              ni_relational)
from .relation import Rel
from .semantics import sem_rel, sem_tr
from .space import StateSpace
from .transformer import Transformer, psc_check

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EXPANSION_CAP", "FamilySet", "HEval", "LoopVariant", "LowView",
    "Rel", "StateSpace", "Transformer", "agr", "elaborate_atom", "eval_bool",
    "family_le", "family_union", "happly", "kernel_backend", "loop_iterates",
    "mask_of", "ni_hyper", "ni_possibilistic", "ni_relational", "parse",
    "powerset_family", "pp_program", "psc_check", "sem_rel", "sem_tr", "ssc",
    "states_of",
]
