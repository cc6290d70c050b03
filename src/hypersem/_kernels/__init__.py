"""Bitset kernels.

The modules call every kernel through this package, so each call here is
one layer boundary; the kernels in ``pure`` call each other directly.
"""

from .pure import (below_set, closed_antichain, compose_rows,
                   converse_rows, dirimg_rows, expand_downset, is_downclosed,
                   maximal_sets, psc_scan_table, states_of)


def backend():
    """Name of the kernel implementation; always 'pure'."""
    return "pure"
