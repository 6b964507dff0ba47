"""Decision functions over basis indices and their concrete sources.

A predicate classifies every basis index of a register as valid (a
solution) or invalid.  Three source forms are supported:

* boolean expressions over qubit variables, grammar::

      expr   := term (('|' | '^') term)*
      term   := factor ('&' factor)*
      factor := '~' factor | '(' expr ')' | 'b' digits | '0' | '1'

  with precedence ``~`` > ``&`` > (``|`` = ``^``, left-associative) and
  variable ``b<k>`` naming qubit ``k`` of the bit convention;

* a DIMACS CNF subset (``c`` comments, one ``p cnf <vars> <clauses>``
  header, 0-terminated clauses), variable ``v`` mapping to qubit ``v-1``;

* an explicit set of valid basis indices.

Each predicate also carries a set of excluded indices: an excluded index
is invalid regardless of the source.  Predicates are immutable; adding
exclusions returns a new predicate.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, RegisterMismatch, UnboundVariable
from .state import PhaseMask, Register, _block_length, _put

# Expressions and CNF formulas compile bitsliced: basis index i is bit
# i % 64 of word i // 64, in explicitly little-endian 64-bit words.
_WORD = np.dtype("<u8")
_WORD_QUBITS = 6
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# Word pattern of qubit k < 6: bit j of the word is bit k of j.
_LOW_QUBIT_WORDS = tuple(
    np.uint64(sum(1 << j for j in range(64) if (j >> k) & 1))
    for k in range(_WORD_QUBITS)
)


def _qubit_words(qubit: int, word_count: int) -> np.ndarray:
    """Packed truth of variable ``b<qubit>``; one word when it is word-uniform.

    Qubits below 6 vary inside a word, so every word holds the same
    pattern; a higher qubit selects whole words.
    """
    if qubit < _WORD_QUBITS:
        return np.array([_LOW_QUBIT_WORDS[qubit]], dtype=_WORD)
    words = np.zeros(word_count, dtype=_WORD)
    words.reshape(-1, 2, 1 << (qubit - _WORD_QUBITS))[:, 1, :] = _ONES
    return words


# ---------------------------------------------------------------------------
# Expression AST
#
# Compound nodes walk their trees with an explicit stack, never by
# recursion, so a chain of any length (a DNF listing thousands of minterms,
# say) evaluates, prints, hashes and compares.


def _nodes(root: "BoolExpr"):
    """Every node of the tree in pre-order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def _fold(root: "BoolExpr", leaf, combine):
    """Value of the tree, children first and left to right.

    ``leaf(node)`` values a node without children and ``combine(node,
    *values)`` values any other node from its children's values.
    """
    values = []
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if not node.children:
            values.append(leaf(node))
        elif ready:
            count = len(node.children)
            args = values[-count:]
            del values[-count:]
            values.append(combine(node, *args))
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
    return values[0]


class BoolExpr:
    """Base class for boolean expression nodes."""

    precedence = 4
    children: tuple = ()

    def words(self, qubit_words, ones):
        """Evaluate bitsliced: ``qubit_words(k)`` holds variable k's lanes and
        ``ones`` has every lane true; the result's lanes hold the truth.

        Compiling passes uint64 words, 64 basis indices each, and gets one
        word, broadcast over the register, or one per 64 indices;
        ``evaluate`` passes one index as a one-lane int.
        """
        raise NotImplementedError

    def max_variable(self) -> int:
        """Largest qubit index referenced, or -1 if none."""
        return -1

    def to_text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class Var(BoolExpr):
    index: int

    def words(self, qubit_words, ones):
        return qubit_words(self.index)

    def max_variable(self):
        return self.index

    def to_text(self):
        return f"b{self.index}"


@dataclass(frozen=True)
class Const(BoolExpr):
    value: bool

    def words(self, qubit_words, ones):
        return ones if self.value else ~ones

    def to_text(self):
        return "1" if self.value else "0"


def _apply(node, *values):
    return node._combine(*values)


class _Compound(BoolExpr):
    """A node with operands; ``_combine`` maps their values, and ``_text``
    their texts, to its own."""

    def words(self, qubit_words, ones):
        return _fold(self, lambda leaf: leaf.words(qubit_words, ones), _apply)

    def max_variable(self):
        return _fold(self, lambda leaf: leaf.max_variable(),
                     lambda node, *values: max(values))

    def to_text(self):
        return _fold(self, lambda leaf: leaf.to_text(),
                     lambda node, *texts: node._text(*texts))

    def _key(self) -> tuple:
        # Arity follows from the node type, so the pre-order sequence of
        # types and leaves determines the tree.
        return tuple(type(node) if node.children else node
                     for node in _nodes(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        # The dataclass form, e.g. "And(lhs=Var(index=0), rhs=Var(index=1))".
        return _fold(self, repr, lambda node, *reprs: "{}({})".format(
            type(node).__qualname__,
            ", ".join(f"{field.name}={text}" for field, text
                      in zip(dataclasses.fields(node), reprs))))

    def __reduce__(self):
        # A flat sequence, so pickle and copy.deepcopy do not recurse.
        return _from_key, (self._key(),)


def _from_key(key: tuple) -> BoolExpr:
    """The tree whose ``_Compound._key`` is ``key``."""
    values = []
    for item in reversed(key):
        if isinstance(item, type):
            args = values[-len(dataclasses.fields(item)):]
            del values[-len(args):]
            item = item(*reversed(args))
        values.append(item)
    return values[0]


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Compound):
    operand: BoolExpr
    precedence = 3

    @property
    def children(self):
        return (self.operand,)

    @staticmethod
    def _combine(value):
        return ~value

    def _text(self, inner):
        if self.operand.precedence < self.precedence:
            inner = f"({inner})"
        return f"~{inner}"


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(_Compound):
    lhs: BoolExpr
    rhs: BoolExpr
    symbol = "?"

    @property
    def children(self):
        return (self.lhs, self.rhs)

    def _text(self, left, right):
        if self.lhs.precedence < self.precedence:
            left = f"({left})"
        # Parenthesize equal precedence on the right to keep left association.
        if self.rhs.precedence <= self.precedence:
            right = f"({right})"
        return f"{left} {self.symbol} {right}"


class And(_Binary):
    precedence = 2
    symbol = "&"

    @staticmethod
    def _combine(a, b):
        return a & b


class Or(_Binary):
    precedence = 1
    symbol = "|"

    @staticmethod
    def _combine(a, b):
        return a | b


class Xor(_Binary):
    precedence = 1
    symbol = "^"

    @staticmethod
    def _combine(a, b):
        return a ^ b


# ---------------------------------------------------------------------------
# Expression parser

_SINGLE_CHAR_TOKENS = {"~", "&", "|", "^", "(", ")", "0", "1"}
# ASCII only: str.isdigit() also accepts digits that int() rejects ('²').
_DIGITS = frozenset("0123456789")
_ASCII_SPACE = " \t\n\r\v\f"
_INT = re.compile(rf"[{_ASCII_SPACE}]*([+-]?[0-9]+)[{_ASCII_SPACE}]*")


def parse_int(text: str, offset: int = 0,
              message: str = "expected an integer, got {!r}") -> int:
    """The integer of a field: ASCII digits with an optional sign, between
    optional ASCII whitespace (int() would also take "1_0", other scripts'
    digits and 0xA0).  Otherwise, or past int()'s digit limit, a ParseError
    at ``offset`` whose message formats ``message`` with the stripped text.
    """
    match = _INT.fullmatch(text)
    if match is not None:
        try:
            return int(match.group(1))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise ParseError(message.format(text.strip(_ASCII_SPACE)), offset)


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Produce (kind, value, offset) triples; kind 'var' carries the index."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch in _ASCII_SPACE:  # ASCII only, so offsets count bytes
            pos += 1
            continue
        if ch in _SINGLE_CHAR_TOKENS:
            tokens.append((ch, 0, pos))
            pos += 1
            continue
        if ch == "b":
            start = pos + 1
            end = start
            while end < len(text) and text[end] in _DIGITS:
                end += 1
            if end == start:
                raise ParseError("expected digits after 'b'", start)
            index = parse_int(text[start:end], start,
                              "variable index has too many digits")
            tokens.append(("var", index, pos))
            pos = end
            continue
        raise ParseError(
            f"unexpected character {ch!r}; expected '~', '(', ')', '&', '|', "
            "'^', 'b<k>', '0' or '1'",
            pos,
        )
    tokens.append(("end", 0, len(text)))
    return tokens


# The parser recurses once per open '~' or '(' (three frames per '('), so
# their nesting is limited; chains of binary operators are loops.
MAX_EXPR_NESTING = 200


class _ExprParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # open '~' and '(' around the current factor

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> BoolExpr:
        node = self.expr()
        kind, _, offset = self.peek()
        if kind != "end":
            raise ParseError(
                f"unexpected {kind!r}; expected '&', '|', '^' or end of input",
                offset,
            )
        return node

    def expr(self) -> BoolExpr:
        node = self.term()
        while self.peek()[0] in ("|", "^"):
            kind, _, _ = self.advance()
            rhs = self.term()
            node = Or(node, rhs) if kind == "|" else Xor(node, rhs)
        return node

    def term(self) -> BoolExpr:
        node = self.factor()
        while self.peek()[0] == "&":
            self.advance()
            node = And(node, self.factor())
        return node

    def factor(self) -> BoolExpr:
        kind, value, offset = self.peek()
        if kind in ("~", "("):
            if self.nesting == MAX_EXPR_NESTING:
                raise ParseError(
                    f"'~' and '(' nest deeper than {MAX_EXPR_NESTING} levels",
                    offset,
                )
            self.nesting += 1
            self.advance()
            if kind == "~":
                node = Not(self.factor())
            else:
                node = self.expr()
                kind, _, offset = self.peek()
                if kind != ")":
                    raise ParseError("expected ')'", offset)
                self.advance()
            self.nesting -= 1
            return node
        if kind == "var":
            self.advance()
            return Var(value)
        if kind in ("0", "1"):
            self.advance()
            return Const(kind == "1")
        raise ParseError(
            "expected '~', '(', a variable 'b<k>', '0' or '1'", offset
        )


def parse_expr(text: str) -> BoolExpr:
    """Parse a boolean expression; raises ParseError with a byte offset."""
    return _ExprParser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# DIMACS CNF subset


@dataclass(frozen=True)
class CnfFormula:
    """Clauses of signed 1-based variable ids; variable v is qubit v-1."""

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.variable_count < 0:
            raise ValueError("variable_count must be >= 0")
        clauses = tuple(tuple(cl) for cl in self.clauses)
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"literal {lit} out of range")
        object.__setattr__(self, "clauses", clauses)

    def words(self, qubit_words, ones):
        """Bitsliced evaluation, as ``BoolExpr.words``."""
        result = ones
        for clause in self.clauses:
            satisfied = ~ones
            for lit in clause:
                bit = qubit_words(abs(lit) - 1)
                satisfied = satisfied | (bit if lit > 0 else ~bit)
            result = result & satisfied
        return result

    def max_variable(self) -> int:
        return self.variable_count - 1


# Lines end at "\n" alone and fields part at ASCII whitespace alone;
# str.splitlines and str.split would also take the bytes 0x85, 0xA0 or 0x1C.
_DIMACS_FIELD = re.compile(rf"[^{_ASCII_SPACE}]+")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse the DIMACS CNF subset; raises ParseError with a byte offset."""
    header = None
    body = []  # (int value, offset) literal stream after the header
    line_start = 0
    for line in text.split("\n"):
        fields = [(match.group(), line_start + match.start())
                  for match in _DIMACS_FIELD.finditer(line)]
        line_start += len(line) + 1
        if not fields or fields[0][0].startswith("c"):
            continue
        if header is None:
            if len(fields) != 4 or fields[0][0] != "p" or fields[1][0] != "cnf":
                raise ParseError(
                    "expected header 'p cnf <vars> <clauses>'", fields[0][1]
                )
            var_count, clause_count = (
                parse_int(field, offset,
                          "expected integer counts in 'p cnf <vars> <clauses>'")
                for field, offset in fields[2:])
            if var_count < 0 or clause_count < 0:
                raise ParseError("header counts must be non-negative",
                                 fields[2][1])
            header = (var_count, clause_count)
        else:
            body.extend(
                (parse_int(field, offset, "expected a literal or 0, got {!r}"),
                 offset) for field, offset in fields)
    if header is None:
        raise ParseError("expected header 'p cnf <vars> <clauses>'", len(text))
    var_count, clause_count = header

    clauses = []
    current: list[int] = []
    for lit, offset in body:
        if lit == 0:
            if not current:
                raise ParseError("empty clause", offset)
            clauses.append(tuple(current))
            current = []
        else:
            if abs(lit) > var_count:
                raise ParseError(
                    f"literal {lit} out of range 1..{var_count}", offset
                )
            current.append(lit)
    if current:
        raise ParseError("clause not terminated by 0", len(text))
    if len(clauses) != clause_count:
        raise ParseError(
            f"header declares {clause_count} clauses, found {len(clauses)}",
            len(text),
        )
    return CnfFormula(var_count, tuple(clauses))


# ---------------------------------------------------------------------------
# Predicate


@dataclass(frozen=True)
class Predicate:
    """A total valid/invalid classification of a register's basis indices.

    ``source`` is a BoolExpr, a CnfFormula, or an explicit collection of
    valid indices.  Excluded indices are invalid regardless of the source.
    """

    source: object
    register: Register
    exclusions: frozenset = frozenset()

    def __post_init__(self):
        m = self.register.total_qubits
        src = self.source
        if isinstance(src, (BoolExpr, CnfFormula)):
            top = src.max_variable()
            if top >= m:
                raise UnboundVariable(
                    f"predicate references qubit {top} but the register has "
                    f"only {m} qubits"
                )
        else:
            object.__setattr__(self, "source", self.register.indices(src))
        object.__setattr__(self, "exclusions",
                           self.register.indices(self.exclusions))


def evaluate(pred: Predicate, index: int) -> bool:
    """Truth of the predicate at ``index``; excluded indices read invalid."""
    index = pred.register.index(index)
    if index in pred.exclusions:
        return False
    src = pred.source
    if isinstance(src, (BoolExpr, CnfFormula)):
        # The compile's walk on one lane: bit 0 of a Python int.
        return bool(src.words(lambda k: index >> k & 1, 1) & 1)
    return index in src


@functools.lru_cache(maxsize=1)
def _source_flags(source, register: Register, step: int) -> PhaseMask:
    """A source's valid flags over ``register`` as a mask in block form,
    in aligned blocks of ``step`` indices.

    An explicit set is grouped by block.  An expression or CNF is
    evaluated bitsliced, and only a block whose words are neither all zero
    nor all ones is unpacked into flags, once per distinct row of words,
    so equal mixed blocks share one read-only array.  The single cache
    entry lets every run of an enumeration, which only adds exclusions,
    and every equal source compiled in a row share one compile.
    """
    if not isinstance(source, (BoolExpr, CnfFormula)):
        return PhaseMask.from_indices(register, source)
    word_count = max(1, register.dimension >> _WORD_QUBITS)
    words = source.words(functools.cache(
        functools.partial(_qubit_words, word_count=word_count)),
        np.array([_ONES], dtype=_WORD))
    # One row of words per block; a word-uniform result stays one word.
    rows = np.broadcast_to(words, (word_count,)).reshape(
        -1, max(1, step >> _WORD_QUBITS))
    full = (rows == _ONES).all(axis=1)
    kinds, mixed, counts = bytearray(full.astype(np.uint8).tobytes()), {}, {}
    unpack = functools.cache(lambda row: np.unpackbits(
        np.frombuffer(row, np.uint8), bitorder="little")[:step].view(bool))
    for b in np.flatnonzero(rows.any(axis=1) & ~full).tolist():
        _put(kinds, mixed, counts, b, unpack(rows[b].tobytes()))
    return PhaseMask._from_blocks(register, step, kinds, mixed, counts)


def compile_mask(pred: Predicate, register: Register) -> PhaseMask:
    """The predicate's mask; its block form holds flags only for the
    blocks that mix valid and invalid indices."""
    if register != pred.register:
        raise RegisterMismatch(
            f"predicate bound to {pred.register}, asked to compile for {register}"
        )
    mask = _source_flags(pred.source, register,
                         _block_length(register.dimension))
    # Either the cached mask or one that copies the blocks it clears.
    return mask._cleared(pred.exclusions) if pred.exclusions else mask


def with_exclusions(pred: Predicate, found) -> Predicate:
    """A copy of ``pred`` whose valid set additionally excludes ``found``."""
    return Predicate(pred.source, pred.register, pred.exclusions.union(found))
