"""Textual notation for states, state sets, families, and relation files.

States print as ``{x=2,hi=1}`` (declaration order), state sets as
``[{x=2},{x=5}]`` sorted by state id, families as nested brackets
``[[],[{x=4}],[{x=5}]]``.  Relation files carry ``var x: 0..7;``
declarations, one per line and parsed as in program files, followed by
one ``{x=0} -> {x=4}`` line per pair.
"""

import json

from .errors import ParseError
from .family import DEFAULT_EXPANSION_CAP, FamilySet, states_of
from .lang import parse_var_decl, tokenize
from .relation import Rel
from .space import StateSpace


def format_state(space, sid):
    env = space.decode(sid)
    return "{" + ",".join(f"{n}={env[n]}" for n, _, _ in space.vars) + "}"


def format_state_set(space, mask):
    return "[" + ",".join(format_state(space, s) for s in states_of(mask)) + "]"


def format_family(space, fam, cap=DEFAULT_EXPANSION_CAP, antichain=False):
    sets = sorted(fam.antichain() if antichain else fam.members(cap))
    return "[" + ",".join(format_state_set(space, m) for m in sets) + "]"


def state_json(space, sid):
    return space.decode(sid)


def state_set_json(space, mask):
    return [state_json(space, s) for s in states_of(mask)]


def family_json(space, fam, cap=DEFAULT_EXPANSION_CAP, antichain=False):
    sets = sorted(fam.antichain() if antichain else fam.members(cap))
    return [state_set_json(space, m) for m in sets]


def to_json_text(data):
    return json.dumps(data, sort_keys=True)


class _Lit:
    """Tiny recursive-descent reader over the shared token stream."""

    def __init__(self, space, text):
        self.space = space
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def eat(self, text):
        t = self.toks[self.pos]
        if t.text != text or t.kind not in ("sym", "kw"):
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        self.pos += 1
        return t

    def done(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)

    def state(self):
        self.eat("{")
        items = {}
        if self.peek().text != "}":
            while True:
                t = self.toks[self.pos]
                if t.kind != "name":
                    raise ParseError("expected variable name", t.line, t.col)
                self.pos += 1
                self.eat("=")
                items[t.text] = self._int()
                if self.peek().text == ",":
                    self.pos += 1
                    continue
                break
        self.eat("}")
        return self.space.encode(items)

    def _int(self):
        neg = False
        t = self.peek()
        if t.text == "-" and t.kind == "sym":
            self.pos += 1
            neg = True
        t = self.peek()
        if t.kind != "int":
            raise ParseError("expected integer", t.line, t.col)
        self.pos += 1
        v = int(t.text)
        return -v if neg else v

    def state_set(self):
        if self.peek().text == "[]":
            self.pos += 1
            return 0
        self.eat("[")
        mask = 0
        if self.peek().text != "]":
            while True:
                mask |= 1 << self.state()
                if self.peek().text == ",":
                    self.pos += 1
                    continue
                break
        self.eat("]")
        return mask

    def family(self):
        if self.peek().text == "[]":
            self.pos += 1
            return FamilySet.empty()
        self.eat("[")
        sets = []
        if self.peek().text != "]":
            while True:
                sets.append(self.state_set())
                if self.peek().text == ",":
                    self.pos += 1
                    continue
                break
        self.eat("]")
        return FamilySet.explicit(sets)


def parse_state(space, text):
    lit = _Lit(space, text)
    out = lit.state()
    lit.done()
    return out


def parse_state_set(space, text):
    lit = _Lit(space, text)
    out = lit.state_set()
    lit.done()
    return out


def parse_family(space, text):
    lit = _Lit(space, text)
    out = lit.family()
    lit.done()
    return out


def parse_rel_file(text):
    """Relation literal file: var declarations then `{..} -> {..}` lines."""
    decls = []
    pair_lines = []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("var "):
            decls.append(parse_var_decl(line))
        else:
            pair_lines.append(line)
    if not decls:
        raise ParseError("relation file needs var declarations", 1, 1)
    space = StateSpace(decls)
    rows = [0] * space.size
    for line in pair_lines:
        lit = _Lit(space, line)
        src = lit.state()
        lit.eat("->")
        dst = lit.state()
        lit.done()
        rows[src] |= 1 << dst
    return space, Rel(space, rows)


def format_rel_file(space, rel):
    lines = [f"var {n}: {lo}..{hi};" for n, lo, hi in space.vars]
    for s, t in rel.pairs():
        lines.append(f"{format_state(space, s)} -> {format_state(space, t)}")
    return "\n".join(lines) + "\n"
