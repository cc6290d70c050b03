"""Textual notation for states, state sets, families, and relation files.

States print as ``{x=2,hi=1}`` (declaration order), state sets as
``[{x=2},{x=5}]`` sorted by state id, families as nested brackets
``[[],[{x=4}],[{x=5}]]``.  Relation files carry ``var x: 0..7;``
declarations, one per line, followed by one ``{x=0} -> {x=4}`` line per
pair.  Every literal is read by the program parser (``lang._Parser``):
a state is the state-literal grammar of ``rel { ... }`` atoms, and
declarations are those of program files.
"""

import json

from .errors import ParseError
from .family import FamilySet, mask_of, states_of
from .lang import _Parser, parse_var_decl
from .relation import Rel
from .space import StateSpace


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


def _read(text, literal):
    """One literal read by the program parser, and nothing after it."""
    p = _Parser(text)
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
    """Relation literal file: var declarations then `{..} -> {..}` lines."""
    decls = []
    pair_lines = []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.split(None, 1)[0] == "var":
            decls.append(parse_var_decl(line))
        else:
            pair_lines.append(line)
    if not decls:
        raise ParseError("relation file needs var declarations", 1, 1)
    space = StateSpace(decls)
    rows = [0] * space.size
    for line in pair_lines:
        src, dst = _read(line, _Parser.rel_pair)
        rows[space.encode(dict(src))] |= 1 << space.encode(dict(dst))
    return space, Rel(space, rows)


def format_rel_file(space, rel):
    lines = [f"var {n}: {lo}..{hi};" for n, lo, hi in space.vars]
    for s, t in rel.pairs():
        lines.append(f"{format_state(space, s)} -> {format_state(space, t)}")
    return "\n".join(lines) + "\n"
