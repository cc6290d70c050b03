"""Surface syntax: AST, parser, pretty printer, and atom elaboration.

Program files declare finite-range variables, optionally a low-security
view, and one statement:

    var x: 0..7;
    low x;
    while x < 4 { x := x + 1 }

Statements: ``skip``, ``x := e``, ``assume b``, ``x :in e1..e2``,
``havoc x``, ``rel { {x=0} -> {x=4}, ... }``, ``c ; d``, ``c [] d``
(nondeterministic choice, binding looser than ``;``),
``if b { c } else { d }``, ``while b { c }``.  Line comments ``//``.

AST nodes are immutable: assigning or deleting a field raises
AttributeError.  A node equals only a node of the same class with equal
fields, and equal nodes hash equal; its repr is ``Name(field=value,
...)``, and it copies and pickles by calling its class on its fields.

Expressions denote columns: an expression's value at every state of the
space at once, and a guard's mask of the states where it holds.  The
space keeps each atom's relation and each guard's mask once computed,
so a space serves one program (see ``space``).
"""

import operator
import re

from .errors import ParseError, UndeclaredVariable
from .relation import Rel
from .space import StateSpace


# ---------------------------------------------------------------- AST

_set_field = object.__setattr__


class _Node:
    """Base of the AST classes, which keep the contract stated at the top
    of this module.

    Each class lists its fields in ``__slots__`` and sets them in its own
    ``__init__``, which takes them in that order; a copy or an unpickled
    node is built by calling the class on the fields again.  Plain
    classes import much faster than dataclasses, whose methods are
    generated and compiled at import.
    """

    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an "
                             f"immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an "
                             f"immutable {type(self).__name__}")


class IntConst(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        _set_field(self, "value", value)


class IntVar(_Node):
    __slots__ = ("name",)

    def __init__(self, name):
        _set_field(self, "name", name)


class IntNeg(_Node):
    __slots__ = ("expr",)

    def __init__(self, expr):
        _set_field(self, "expr", expr)


class IntBin(_Node):
    __slots__ = ("op", "left", "right")  # op: + - *

    def __init__(self, op, left, right):
        _set_field(self, "op", op)
        _set_field(self, "left", left)
        _set_field(self, "right", right)


class BoolConst(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        _set_field(self, "value", value)


class Cmp(_Node):
    __slots__ = ("op", "left", "right")  # op: = != < <= > >=

    def __init__(self, op, left, right):
        _set_field(self, "op", op)
        _set_field(self, "left", left)
        _set_field(self, "right", right)


class BoolBin(_Node):
    __slots__ = ("op", "left", "right")  # op: && ||

    def __init__(self, op, left, right):
        _set_field(self, "op", op)
        _set_field(self, "left", left)
        _set_field(self, "right", right)


class Not(_Node):
    __slots__ = ("expr",)

    def __init__(self, expr):
        _set_field(self, "expr", expr)


class Assign(_Node):
    __slots__ = ("var", "expr")

    def __init__(self, var, expr):
        _set_field(self, "var", var)
        _set_field(self, "expr", expr)


class Assume(_Node):
    __slots__ = ("cond",)

    def __init__(self, cond):
        _set_field(self, "cond", cond)


class NondetAssign(_Node):
    __slots__ = ("var", "lo", "hi")

    def __init__(self, var, lo, hi):
        _set_field(self, "var", var)
        _set_field(self, "lo", lo)
        _set_field(self, "hi", hi)


class Havoc(_Node):
    __slots__ = ("var",)

    def __init__(self, var):
        _set_field(self, "var", var)


class RelAtom(_Node):
    # pairs of state literals, each a sorted tuple of (name, value)
    __slots__ = ("pairs",)

    def __init__(self, pairs):
        _set_field(self, "pairs", pairs)


class Atom(_Node):
    __slots__ = ("atom",)

    def __init__(self, atom):
        _set_field(self, "atom", atom)


class Skip(_Node):
    __slots__ = ()


class Seq(_Node):
    """``parts[0] ; ... ; parts[-1]``, two or more parts.  A last part that
    is itself a Seq is spliced in, so a `;` chain is one node however it
    is built; a Seq elsewhere in parts stays, and prints in parentheses."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        if isinstance(parts[-1], Seq):
            parts = parts[:-1] + parts[-1].parts
        _set_field(self, "parts", parts)


class Choice(_Node):
    """``parts[0] [] ... [] parts[-1]``, two or more parts.  A first part
    that is itself a Choice is spliced in, so a `[]` chain is one node
    however it is built; a Choice elsewhere in parts stays."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        if isinstance(parts[0], Choice):
            parts = parts[0].parts + parts[1:]
        _set_field(self, "parts", parts)


class If(_Node):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond, then, orelse):
        _set_field(self, "cond", cond)
        _set_field(self, "then", then)
        _set_field(self, "orelse", orelse)


class While(_Node):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        _set_field(self, "cond", cond)
        _set_field(self, "body", body)


class ProgramFile(_Node):
    # decls: (name, lo, hi) in declaration order
    __slots__ = ("decls", "low", "low_in", "low_out", "body")

    def __init__(self, decls, low, low_in, low_out, body):
        _set_field(self, "decls", decls)
        _set_field(self, "low", low)
        _set_field(self, "low_in", low_in)
        _set_field(self, "low_out", low_out)
        _set_field(self, "body", body)

    def space(self):
        return StateSpace(self.decls)


# ---------------------------------------------------------------- lexer

KEYWORDS = {"var", "low", "lowin", "lowout", "skip", "assume", "havoc",
            "rel", "if", "else", "while", "true", "false", "and", "or", "not"}

_SYMBOLS = [":=", ":in", "..", "[]", "->", "!=", "<=", ">=", "&&", "||",
            ";", "{", "}", "(", ")", "[", "]", ",", "=", "<", ">", "+",
            "-", "*", "!", ":"]

# Blanks and comments, then one token.  A line break is \r\n, \r or \n,
# in the lexer and in positions alike, and a comment runs to the next
# one.  Symbols are tried in _SYMBOLS order; a keyword is a name-shaped
# word, so one followed by a name character is part of a longer name.
# `eof` and `bad` (any other character) make the pattern match at every
# position.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?://[^\r\n]*(?![^\r\n])[ \t\r\n]*)*"
    r"(?:(?P<kw>(?:" + "|".join(sorted(KEYWORDS)) + r")(?![A-Za-z0-9_]))"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r"|(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + r")"
    r"|(?P<eof>\Z)|(?P<bad>.))", re.DOTALL)


def _lex(text):
    """Text as three parallel lists: token kinds, texts and start offsets.
    They end with eof, whose text is "".

    One match of _TOKEN_RE per token covers the blanks and comments before
    it, then the token; the pattern matches at every position, so the
    scan skips no character.  No token object is built and no line or
    column is computed: positions come from start offsets, through
    _position, only when an error is reported.

    The pattern stays linear on any input because no nested quantifier is
    ambiguous: blanks are read as runs between comments, and a comment
    runs to the end of its line and cannot give characters back (the
    lookahead after it fails on any shorter match).  It needs neither
    possessive quantifiers nor atomic groups, which Python 3.10, the
    oldest supported version, lacks.
    """
    kinds, texts, starts = [], [], []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        kinds.append(kind)
        texts.append(m[kind])
        starts.append(m.start(kind))
        if kind == "eof":
            return kinds, texts, starts
        if kind == "bad":
            raise ParseError(f"unexpected character {texts[-1]!r}",
                             *_position(text, starts[-1]))


def _position(text, offset):
    """Line and column of offset in text, both counted from 1 (columns in
    characters); a \r\n pair is one line break."""
    breaks = (text.count("\n", 0, offset) + text.count("\r", 0, offset)
              - text.count("\r\n", 0, offset))
    return (breaks + 1,
            offset - max(text.rfind("\n", 0, offset),
                         text.rfind("\r", 0, offset)))


# ---------------------------------------------------------------- parser

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
_UNIT_WORDS = ("skip", "assume", "havoc", "rel", "(", "while", "if")


class _Retry(Exception):
    """A syntax error inside a tentative parse, which the innermost
    tentative parse catches; it carries no message or position."""


class _Parser:
    """Recursive-descent reader for programs and for every literal form.

    ``declared`` is the set of variable names a reference may use; None
    reads names unchecked (literals, whose states the space encodes).
    ``tentative`` counts the tentative parses (``batom``'s parenthesized
    guard) in progress: inside one, every syntax error is caught, so it
    is raised as a bare _Retry, and no position is computed for it.
    """

    def __init__(self, text):
        self.text = text
        self.kinds, self.texts, self.starts = _lex(text)
        self.pos = 0
        self.declared = None
        self.tentative = 0

    def at(self, text):
        """Whether the current token is the keyword or symbol text.  The
        text alone decides: no name or int token has a keyword's or a
        symbol's text, and eof's is empty."""
        return self.texts[self.pos] == text

    def next(self):
        """The current token's text; moves past it."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def found(self):
        """The current token, as error messages name it."""
        if self.kinds[self.pos] == "eof":
            return "end of input"
        return repr(self.texts[self.pos])

    def eat(self, text):
        if self.texts[self.pos] != text:
            self.fail(f"expected {text!r}, found {self.found()}")
        self.pos += 1

    def fail(self, msg, index=None):
        """Raise msg at the current token, or at the token at index."""
        if self.tentative:
            raise _Retry
        start = self.starts[self.pos if index is None else index]
        raise ParseError(msg, *_position(self.text, start))

    def name(self):
        if self.kinds[self.pos] != "name":
            self.fail(f"expected identifier, found {self.found()}")
        return self.next()

    def ref(self):
        """A variable reference: a name that must be declared."""
        nm = self.name()
        if self.declared is not None and nm not in self.declared:
            raise UndeclaredVariable(nm)
        return nm

    def int_lit(self):
        neg = self.at("-")
        if neg:
            self.pos += 1
        if self.kinds[self.pos] != "int":
            self.fail(f"expected integer, found {self.found()}")
        v = self.int_token()
        return -v if neg else v

    def int_token(self):
        """The current int token's value; moves past it.

        A literal with more digits than int() converts
        (sys.get_int_max_str_digits()) is a syntax error at the literal.
        No reading of the text can take that literal, so the error is
        raised even inside a tentative parse.
        """
        text = self.texts[self.pos]
        try:
            v = int(text)
        except ValueError:
            start = self.starts[self.pos]
            raise ParseError(
                f"integer literal of {len(text)} digits is too long",
                *_position(self.text, start)) from None
        self.pos += 1
        return v

    def items(self, open_, close, item):
        """`open item, ..., item close` as a list of item() results; the
        list may be empty, and `[]` is one token to the lexer."""
        if self.at(open_ + close):
            self.pos += 1
            return []
        self.eat(open_)
        out = []
        if not self.at(close):
            out.append(item())
            while self.at(","):
                self.pos += 1
                out.append(item())
        self.eat(close)
        return out

    def end(self):
        if self.kinds[self.pos] != "eof":
            self.fail(f"unexpected trailing input {self.texts[self.pos]!r}")

    # ---- program

    def var_decl(self):
        """`var name: lo..hi;` as (name, lo, hi)."""
        self.eat("var")
        nm = self.name()
        self.eat(":")
        lo = self.int_lit()
        self.eat("..")
        hi = self.int_lit()
        self.eat(";")
        return nm, lo, hi

    def program(self):
        decls = []
        low = ()
        low_in = ()
        low_out = ()
        while (which := self.texts[self.pos]) in ("var", "low", "lowin",
                                                  "lowout"):
            if which == "var":
                decls.append(self.var_decl())
                continue
            self.pos += 1
            names = [self.name()]
            while self.at(","):
                self.pos += 1
                names.append(self.name())
            self.eat(";")
            if which == "low":
                low += tuple(names)
            elif which == "lowin":
                low_in += tuple(names)
            else:
                low_out += tuple(names)
        if not decls:
            self.fail("program must declare at least one variable")
        self.declared = {n for n, _, _ in decls}
        for nm in low + low_in + low_out:
            if nm not in self.declared:
                raise UndeclaredVariable(nm)
        body = self.stmt()
        self.end()
        return ProgramFile(tuple(decls), low, low_in, low_out, body)

    # ---- statements

    def stmt(self):
        """A `[]` chain of `;` chains of units, read in two nested loops, as
        one Choice of Seq nodes (or a lone chain or unit).  Reading it in
        one frame keeps each level of `if`, `while` and `( )` nesting to
        two frames, this one and ``unit``."""
        branches = []
        while True:
            parts = [self.unit()]
            while self.texts[self.pos] == ";":
                self.pos += 1
                parts.append(self.unit())
            branches.append(parts[0] if len(parts) == 1 else Seq(tuple(parts)))
            if self.texts[self.pos] != "[]":
                break
            self.pos += 1
        return branches[0] if len(branches) == 1 else Choice(tuple(branches))

    def unit(self):
        pos = self.pos
        t = self.texts[pos]
        if self.kinds[pos] == "name":
            # check the target only once this is an assignment, so a
            # misspelled keyword keeps its syntax error
            op = self.texts[pos + 1]
            if op != ":=" and op != ":in":
                self.fail(f"expected ':=' or ':in' after {t!r}", pos + 1)
            nm = self.ref()
            self.pos += 1
            if op == ":=":
                return Atom(Assign(nm, self.iexpr()))
            lo = self.iexpr()
            self.eat("..")
            return Atom(NondetAssign(nm, lo, self.iexpr()))
        if t not in _UNIT_WORDS:
            self.fail(f"expected statement, found {self.found()}")
        self.pos += 1
        if t == "skip":
            return Skip()
        if t == "assume":
            return Atom(Assume(self.bexpr()))
        if t == "havoc":
            return Atom(Havoc(self.ref()))
        if t == "rel":
            return Atom(RelAtom(tuple(self.items("{", "}", self.rel_pair))))
        if t == "(":
            node = self.stmt()
            self.eat(")")
            return node
        if t == "while":
            cond = self.bexpr()
            self.eat("{")
            body = self.stmt()
            self.eat("}")
            return While(cond, body)
        cond = self.bexpr()
        self.eat("{")
        then = self.stmt()
        self.eat("}")
        self.eat("else")
        self.eat("{")
        orelse = self.stmt()
        self.eat("}")
        return If(cond, then, orelse)

    def rel_pair(self):
        src = self.state_literal()
        self.eat("->")
        return src, self.state_literal()

    def state_literal(self):
        """`{x=1, y=0}` as a tuple of (name, value) sorted by name."""
        values = {}

        def item():
            index = self.pos
            nm = self.ref()
            if nm in values:
                self.fail(f"repeated variable {nm!r}", index)
            self.eat("=")
            values[nm] = self.int_lit()

        self.items("{", "}", item)
        return tuple(sorted(values.items()))

    # ---- boolean expressions

    def bexpr(self):
        node = self.band()
        while self.texts[self.pos] in ("||", "or"):
            self.pos += 1
            node = BoolBin("||", node, self.band())
        return node

    def band(self):
        node = self.bnot()
        while self.texts[self.pos] in ("&&", "and"):
            self.pos += 1
            node = BoolBin("&&", node, self.bnot())
        return node

    def bnot(self):
        if self.texts[self.pos] in ("!", "not"):
            self.pos += 1
            return Not(self.bnot())
        return self.batom()

    def batom(self):
        t = self.texts[self.pos]
        if t == "true":
            self.pos += 1
            return BoolConst(True)
        if t == "false":
            self.pos += 1
            return BoolConst(False)
        if t == "(":
            # either a parenthesized bexpr or an iexpr inside a comparison
            save = self.pos
            self.tentative += 1
            try:
                self.pos += 1
                node = self.bexpr()
                self.eat(")")
                return node
            except _Retry:
                self.pos = save
            finally:
                self.tentative -= 1
        left = self.iexpr()
        if self.texts[self.pos] in _CMP_OPS:
            op = self.next()
            return Cmp(op, left, self.iexpr())
        self.fail(f"expected comparison operator, found {self.found()}")

    # ---- integer expressions

    def iexpr(self):
        node = self.term()
        while self.texts[self.pos] in ("+", "-"):
            op = self.next()
            node = IntBin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.texts[self.pos] == "*":
            self.pos += 1
            node = IntBin("*", node, self.factor())
        return node

    def factor(self):
        kind = self.kinds[self.pos]
        if kind == "int":
            return IntConst(self.int_token())
        if kind == "name":
            return IntVar(self.ref())
        t = self.texts[self.pos]
        if t == "-":
            self.pos += 1
            return IntNeg(self.factor())
        if t == "(":
            self.pos += 1
            node = self.iexpr()
            self.eat(")")
            return node
        self.fail(f"expected integer expression, found {self.found()}")


def parse(text):
    """Parse program text into a ProgramFile."""
    return _Parser(text).program()


# ---------------------------------------------------------------- pretty

_PREC = {"||": 1, "&&": 2, "+": 1, "-": 1, "*": 2}


def _left_spine(node, kind):
    """A left-nested chain of kind nodes as its leftmost operand and its
    (op, right operand) steps in order, collected without recursion."""
    steps = []
    while isinstance(node, kind):
        steps.append((node.op, node.right))
        node = node.left
    return node, steps[::-1]


def _pp_chain(node, level, pp):
    """A binary node printed along its left spine in a loop, so a long
    left-nested chain costs no depth."""
    node, steps = _left_spine(node, type(node))
    s, prec = pp(node), 3
    for op, right in steps:
        if prec < _PREC[op]:
            s = f"({s})"
        prec = _PREC[op]
        s = f"{s} {op} {pp(right, prec + 1)}"
    return f"({s})" if prec < level else s


def pp_int(e, level=0):
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, IntVar):
        return e.name
    if isinstance(e, IntNeg):
        return "-" + pp_int(e.expr, 3)
    return _pp_chain(e, level, pp_int)


def pp_bool(b, level=0):
    if isinstance(b, BoolConst):
        return "true" if b.value else "false"
    if isinstance(b, Cmp):
        return f"{pp_int(b.left)} {b.op} {pp_int(b.right)}"
    if isinstance(b, Not):
        inner = pp_bool(b.expr, 4)
        if isinstance(b.expr, (BoolConst, Not)):
            return "!" + inner
        return f"!({inner})"
    return _pp_chain(b, level, pp_bool)


def _pp_state_literal(items):
    return "{" + ",".join(f"{n}={v}" for n, v in items) + "}"


def pp_stmt(node, level=0):
    if isinstance(node, Skip):
        return "skip"
    if isinstance(node, Atom):
        a = node.atom
        if isinstance(a, Assign):
            return f"{a.var} := {pp_int(a.expr)}"
        if isinstance(a, Assume):
            return f"assume {pp_bool(a.cond)}"
        if isinstance(a, NondetAssign):
            return f"{a.var} :in {pp_int(a.lo)}..{pp_int(a.hi)}"
        if isinstance(a, Havoc):
            return f"havoc {a.var}"
        if isinstance(a, RelAtom):
            body = ", ".join(
                f"{_pp_state_literal(s)} -> {_pp_state_literal(d)}"
                for s, d in a.pairs)
            return "rel { " + body + " }" if body else "rel { }"
    if isinstance(node, Seq):
        s = " ; ".join([pp_stmt(part, 2) for part in node.parts[:-1]]
                       + [pp_stmt(node.parts[-1], 1)])
        return f"({s})" if level > 1 else s
    if isinstance(node, Choice):
        s = " [] ".join(pp_stmt(part, 1) for part in node.parts)
        return f"({s})" if level > 0 else s
    if isinstance(node, If):
        return (f"if {pp_bool(node.cond)} {{ {pp_stmt(node.then)} }} "
                f"else {{ {pp_stmt(node.orelse)} }}")
    if isinstance(node, While):
        return f"while {pp_bool(node.cond)} {{ {pp_stmt(node.body)} }}"
    raise TypeError(f"not a statement: {node!r}")


def pp_program(pf):
    lines = [f"var {n}: {lo}..{hi};" for n, lo, hi in pf.decls]
    if pf.low:
        lines.append("low " + ", ".join(pf.low) + ";")
    if pf.low_in:
        lines.append("lowin " + ", ".join(pf.low_in) + ";")
    if pf.low_out:
        lines.append("lowout " + ", ".join(pf.low_out) + ";")
    lines.append(pp_stmt(pf.body))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- evaluation

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "&&": operator.and_, "||": operator.or_, "=": operator.eq,
        "!=": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def eval_int(e, space):
    """Value of e at every state, as a tuple by state id."""
    e, steps = _left_spine(e, IntBin)
    if isinstance(e, IntConst):
        col = (e.value,) * space.size
    elif isinstance(e, IntVar):
        col = space.column(e.name)
    else:
        col = tuple(map(operator.neg, eval_int(e.expr, space)))
    for op, right in steps:
        col = tuple(map(_OPS[op], col, eval_int(right, space)))
    return col


def _guard_mask(b, space):
    b, steps = _left_spine(b, BoolBin)
    if isinstance(b, BoolConst):
        mask = space.full_mask if b.value else 0
    elif isinstance(b, Cmp):
        holds = map(_OPS[b.op], eval_int(b.left, space),
                    eval_int(b.right, space))
        mask = sum(h << s for s, h in enumerate(holds))
    else:
        mask = space.full_mask & ~_guard_mask(b.expr, space)
    for op, right in steps:
        mask = _OPS[op](mask, _guard_mask(right, space))
    return mask


def eval_bool(b, space):
    """Mask of the states satisfying b (guards are total), built from the
    columns of its comparisons with &, | and ~, once per space and node
    (see ``StateSpace.elaborated``)."""
    return space.elaborated(b, _guard_mask)


def join_branches(node, space):
    """The (branch, mask) pairs a `[]` or `if` node joins: every `[]`
    branch with the full mask, and an `if`'s two branches with its guard's
    mask and that mask's complement, for `if b { c } else { d }` is
    `(assume b; c) [] (assume !b; d)`.  Every evaluator reads a join's
    masks from here, and nowhere else."""
    if isinstance(node, If):
        b = eval_bool(node.cond, space)
        return ((node.then, b), (node.orelse, space.full_mask & ~b))
    return tuple((part, space.full_mask) for part in node.parts)


# ---------------------------------------------------------------- elaboration

def elaborate_atom(a, space):
    """Relation denoted by an atom over the given space.

    Assignments whose result falls outside the declared range yield no
    transition from that state (partial atoms, not wrapping).

    The relation is built once per space and node, and every denotation
    of a program over one space shares it (see ``StateSpace.elaborated``).
    """
    return space.elaborated(a, _atom_rel)


def _atom_rel(a, space):
    if isinstance(a, Assume):
        return Rel.coreflexive(space, eval_bool(a.cond, space))
    if isinstance(a, RelAtom):
        return Rel.from_pairs(space, ((space.encode(dict(src)),
                                       space.encode(dict(dst)))
                                      for src, dst in a.pairs))
    if isinstance(a, Assign):
        lows = highs = eval_int(a.expr, space)
    elif isinstance(a, NondetAssign):
        lows, highs = eval_int(a.lo, space), eval_int(a.hi, space)
    elif isinstance(a, Havoc):
        lo, hi = space.var_range(a.var)
        lows, highs = (lo,) * space.size, (hi,) * space.size
    else:
        raise TypeError(f"not an atom: {a!r}")
    return Rel(space, space.assign_rows(a.var, lows, highs))
