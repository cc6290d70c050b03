"""Test-side machinery: transformers as plain subset tables, and walks over
statements.

A subset table over n states lists the image of every mask q, for q in
range(1 << n).  Tables host the lemma tests' transformers that are no
relation's direct image, such as monotone maps that are not disjunctive;
every transformer a program denotes is a direct image.  Tables are scanned
with ``_kernels.psc_scan_table``, the reference for ``psc_check``'s answer
from rows.
"""

from hypersem import _kernels
from hypersem.lang import Atom, Choice, If, Seq, While, elaborate_atom


def table_of(tr):
    """The subset table of a transformer."""
    return [tr.apply(p) for p in range(1 << tr.space.size)]


def is_monotone(table, n):
    """p <= q implies table[p] <= table[q], checked by single-bit additions."""
    for p in range(1 << n):
        for b in range(n):
            if not p >> b & 1 and table[p] & ~table[p | 1 << b]:
                return False
    return True


def is_disjunctive(table, n):
    """Strict and distributing over union; on a finite space, agreeing with
    the union of the singleton images everywhere."""
    single = [table[1 << s] for s in range(n)]
    return all(_kernels.dirimg_rows(single, p) == table[p]
               for p in range(1 << n))


def domain(tr):
    """States whose singleton image under the transformer is nonempty."""
    return sum(1 << s for s in tr.space.states() if tr.apply(1 << s))


def statements(node):
    """Every statement node under node, in pre-order from the left; the
    stack makes no nesting depth reach the recursion limit."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Seq, Choice)):
            stack += reversed(node.parts)
        elif isinstance(node, If):
            stack += (node.orelse, node.then)
        elif isinstance(node, While):
            stack.append(node.body)


def is_choice_free(node):
    return not any(isinstance(n, Choice) for n in statements(node))


def atoms_deterministic(node, space):
    """True iff every elaborated atom is a partial function."""
    return all(elaborate_atom(n.atom, space).is_partial_function()
               for n in statements(node) if isinstance(n, Atom))
