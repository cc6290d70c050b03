"""Textual notation for states, state sets, families, and relation files.

States print as ``{x=2,hi=1}`` (declaration order), state sets as
``[{x=2},{x=5}]`` sorted by state id, families as nested brackets
``[[],[{x=4}],[{x=5}]]``.  Relation files carry ``var x: 0..7;``
declarations, one per line, followed by one ``{x=0} -> {x=4}`` line per
pair.  Every literal is read by the program parser (``lang._Parser``):
a state is the state-literal grammar of ``rel { ... }`` atoms, and
declarations are those of program files.  Errors give positions in the
text that was read: a relation file's line and column.
"""

import json

from .errors import ParseError
from .family import FamilySet, mask_of, states_of
from .lang import _LINE_RE, _Parser
from .relation import Rel
from .space import StateSpace

_BLANKS = " \t\r\n"  # the program lexer's


def format_state(space, sid):
    env = space.decode(sid)
    return "{" + ",".join(f"{n}={env[n]}" for n, _, _ in space.vars) + "}"


def format_state_set(space, mask):
    return "[" + ",".join(format_state(space, s) for s in states_of(mask)) + "]"


def format_family(space, fam, antichain=False):
    sets = sorted(fam.antichain() if antichain else fam.members())
    return "[" + ",".join(format_state_set(space, m) for m in sets) + "]"


def state_json(space, sid):
    return space.decode(sid)


def state_set_json(space, mask):
    return [state_json(space, s) for s in states_of(mask)]


def family_json(space, fam, antichain=False):
    sets = sorted(fam.antichain() if antichain else fam.members())
    return [state_set_json(space, m) for m in sets]


def to_json_text(data):
    return json.dumps(data, sort_keys=True)


def _read(text, literal, start=0, end=None):
    """One literal read by the program parser, and nothing after it; from
    the slice of text from start to end when they are given."""
    p = _Parser(text, start=start, end=end)
    out = literal(p)
    p.end()
    return out


def _state(space, p):
    return space.encode(dict(p.state_literal()))


def _state_set(space, p):
    return mask_of(p.items("[", "]", lambda: _state(space, p)))


def parse_state(space, text):
    return _read(text, lambda p: _state(space, p))


def parse_state_set(space, text):
    return _read(text, lambda p: _state_set(space, p))


def parse_family(space, text):
    return _read(text, lambda p: FamilySet.explicit(
        p.items("[", "]", lambda: _state_set(space, p))))


def parse_rel_file(text):
    """Relation literal file: var declarations then `{..} -> {..}` lines.

    Each line holds one declaration or one pair, read from the line's span
    of the text without its comment and its surrounding blanks.  Lines and
    blanks are the program lexer's.
    """
    decls = []
    pair_spans = []
    start = 0
    for line in _LINE_RE.findall(text):
        body = line.split("//", 1)[0]
        item = body.strip(_BLANKS)
        if item:
            begin = start + len(body) - len(body.lstrip(_BLANKS))
            span = (begin, begin + len(item))
            if item.split(None, 1)[0] == "var":
                decls.append(_read(text, _Parser.var_decl, *span))
            else:
                pair_spans.append(span)
        start += len(line)
    if not decls:
        raise ParseError("relation file needs var declarations", 1, 1)
    space = StateSpace(decls)
    rows = [0] * space.size
    for span in pair_spans:
        src, dst = _read(text, _Parser.rel_pair, *span)
        rows[space.encode(dict(src))] |= 1 << space.encode(dict(dst))
    return space, Rel(space, rows)
