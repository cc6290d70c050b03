"""Textual notation for states, state sets and families.

States print as ``{x=2,hi=1}`` (declaration order), state sets as
``[{x=2},{x=5}]`` sorted by state id, families as nested brackets
``[[],[{x=4}],[{x=5}]]``.  Every literal is read by the program parser
(``lang._Parser``): a state is the state-literal grammar of ``rel { ... }``
atoms.  Errors give positions in the literal's text.
"""

import json

from .family import FamilySet, mask_of, states_of
from .lang import _Parser


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

