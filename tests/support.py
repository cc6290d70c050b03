"""Test-side machinery: transformers as plain subset tables, walks over
statements, the random relations and hand-built atoms and guards that
several test modules share, the definitional forms (the Kleene loop
and the NI scans over pairs) that ``src/`` computes in closed form, and
the token-at-a-time lexer that ``lang._lex``'s one scan replaces.

A subset table over n states lists the image of every mask q, for q in
range(1 << n).  Tables host the lemma tests' transformers that are no
relation's direct image, such as monotone maps that are not disjunctive;
every transformer a program denotes is a direct image.  Tables are scanned
with ``_kernels.psc_scan_table``, the reference for ``psc_check``'s answer
from rows; ``is_partial_function`` is the reference for its verdict.
"""

import re
import string

from hypersem import _kernels
from hypersem.errors import ParseError
from hypersem.lang import (KEYWORDS, Atom, BoolBin, BoolConst, Choice, Cmp,
                           If, IntConst, IntVar, RelAtom, Seq, Skip, While,
                           _SYMBOLS, _position, elaborate_atom, eval_bool)
from hypersem.noninterference import NIVerdict
from hypersem.relation import Rel
from hypersem.semantics import sem_rel


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


def is_partial_function(rel):
    """Every state has at most one successor."""
    return all(row.bit_count() <= 1 for row in rel.rows)


def atoms_deterministic(node, space):
    """True iff every elaborated atom is a partial function."""
    return all(is_partial_function(elaborate_atom(n.atom, space))
               for n in statements(node) if isinstance(n, Atom))


class _NotKept(Exception):
    pass


def _not_kept(node, space):
    raise _NotKept


def kept(space, node):
    """What the space keeps for node, or None; asking builds nothing."""
    try:
        return space.elaborated(node, _not_kept)
    except _NotKept:
        return None


def rnd_rel(rng, space, density=None):
    """A random relation: each pair with the given density, or with one
    density drawn first."""
    d = rng.random() if density is None else density
    rows = [sum(1 << t for t in space.states() if rng.random() < d)
            for _ in space.states()]
    return Rel(space, rows)


def rnd_partial_fn(rng, space):
    """A random partial function, defined on each state with odds 0.8."""
    rows = [1 << rng.randrange(space.size) if rng.random() < 0.8 else 0
            for _ in space.states()]
    return Rel(space, rows)


def rel_to_atom(rel, space):
    """The `rel { ... }` atom that elaborates to rel."""
    pairs = []
    for s, t in rel.pairs():
        pairs.append((tuple(sorted(space.decode(s).items())),
                      tuple(sorted(space.decode(t).items()))))
    return Atom(RelAtom(tuple(pairs)))


def mask_guard(space, bmask):
    """A guard whose satisfying set is exactly bmask, via equality tests."""
    cond = BoolConst(False)
    for s in range(space.size):
        if bmask >> s & 1:
            clause = BoolConst(True)
            for n, v in space.decode(s).items():
                clause = BoolBin("&&", clause, Cmp("=", IntVar(n), IntConst(v)))
            cond = BoolBin("||", cond, clause)
    return cond


def ni_relational_by_pairs(rel, view, view_out=None):
    """Relational NI as a scan over pairs of ``pairs()``, each in
    ``pairs()`` order, for the first two with agreeing sources and
    disagreeing targets: the reference for ``ni_relational``'s verdict and
    witness."""
    out = view_out if view_out is not None else view
    pairs = list(rel.pairs())
    for s, s2 in pairs:
        for t, t2 in pairs:
            if (view.class_of[s] == view.class_of[t]
                    and out.class_of[s2] != out.class_of[t2]):
                return NIVerdict(False, (s, s2, t, t2))
    return NIVerdict(True)


def ni_possibilistic_by_pairs(rel, view, view_out=None):
    """Possibilistic NI as a scan of sim;R's pairs, in ``pairs()`` order,
    for the first one outside R;sim: the reference for
    ``ni_possibilistic``'s verdict and witness."""
    out = view_out if view_out is not None else view
    lhs = view.sim_relation().compose(rel)
    rhs = rel.compose(out.sim_relation())
    if lhs.is_subrelation(rhs):
        return NIVerdict(True)
    for s, t in lhs.pairs():
        if not rhs.rows[s] >> t & 1:
            return NIVerdict(False, (s, t))
    raise AssertionError("sim;R is not inside R;sim, yet has no pair outside")


def sem_rel_loop_by_kleene(node, space):
    """A `while` node's relation as the least fixpoint of
    X = (b; c); X u !b, by Kleene iteration from the empty relation: the
    reference for ``sem_rel``'s closed form (b; c)* ; !b.  Each strict
    step adds a pair, so the chain stops within size*size steps."""
    b = eval_bool(node.cond, space)
    notb = Rel.coreflexive(space, space.full_mask & ~b)
    step = Rel.coreflexive(space, b).compose(sem_rel(node.body, space))
    cur = Rel.empty(space)
    for _ in range(space.size * space.size + 2):
        nxt = step.compose(cur).union(notb)
        if nxt == cur:
            return cur
        cur = nxt
    raise AssertionError("the Kleene chain did not stabilize")


def binary_chains(node):
    """node with every `[]` chain of three or more branches nested to the
    left, two branches at a time, as the binary definition reads.  Each
    left operand sits behind `skip ;`, which keeps the Choice constructor
    from splicing it back into one chain, so the definitional evaluator
    reads every chain with its two-branch rule: the reference for its
    fold over longer chains."""
    if isinstance(node, Choice):
        parts = [binary_chains(part) for part in node.parts]
        left = parts[0]
        for part in parts[1:-1]:
            left = Seq((Skip(), Choice((left, part))))
        return Choice((left, parts[-1]))
    if isinstance(node, Seq):
        return Seq(tuple(binary_chains(part) for part in node.parts))
    if isinstance(node, If):
        return If(node.cond, binary_chains(node.then),
                  binary_chains(node.orelse))
    if isinstance(node, While):
        return While(node.cond, binary_chains(node.body))
    return node


FUZZ_ALPHABET = " ;{}[](),=<>-+*:.!&|xyz019"


def mutate(rng, text, alphabet=FUZZ_ALPHABET):
    """text with one character deleted, inserted or replaced at a random
    place; an inserted or replacing character is drawn from alphabet."""
    i = rng.randrange(len(text) + 1)
    c = rng.choice(alphabet)
    return rng.choice((text[:i] + text[i + 1:], text[:i] + c + text[i:],
                       text[:i] + c + text[i + 1:]))


# The lexer's pattern with one named group per token kind: the reference
# for ``lang._lex``, which reads one list of texts in one findall.
_REF_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?://[^\r\n]*(?![^\r\n])[ \t\r\n]*)*"
    r"(?:(?P<kw>(?:" + "|".join(sorted(KEYWORDS)) + r")(?![A-Za-z0-9_]))"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r"|(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + r")"
    r"|(?P<eof>\Z)|(?P<bad>.))", re.DOTALL)


def ref_lex(text):
    """Text as three parallel lists, token kinds, texts and start offsets,
    ending with eof, whose text is "": one match of the named-group
    pattern per token, read up to eof or to the first bad character,
    which raises the ParseError the front end reports."""
    kinds, texts, starts = [], [], []
    for m in _REF_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        kinds.append(kind)
        texts.append(m[kind])
        starts.append(m.start(kind))
        if kind == "eof":
            return kinds, texts, starts
        if kind == "bad":
            raise ParseError(f"unexpected character {texts[-1]!r}",
                             *_position(text, starts[-1]))


def token_kind(text):
    """A token's kind read off its text: "" is eof, a token that starts
    with an ASCII digit is an int, one that starts with an ASCII word
    character is a keyword if its text is in KEYWORDS and a name
    otherwise, and any other token is a symbol."""
    if not text:
        return "eof"
    if text[0] in string.digits:
        return "int"
    if text[0] in string.ascii_letters + "_":
        return "kw" if text in KEYWORDS else "name"
    return "sym"
