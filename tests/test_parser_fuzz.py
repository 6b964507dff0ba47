"""Fuzzing of the three text parsers: every input parses or raises ParseError.

Each parser gets arbitrary text and text assembled from pieces of its own
grammar (plus near misses such as non-ASCII digits, digit strings longer
than int() accepts and unusual line breaks).  ``parse_scheme`` may also
refuse a well-formed scheme that breaks the structural rules with
SchemeInvalid, which the CLI reports like a ParseError (exit 2).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qic.ecc import ChecksumScheme, parse_scheme
from qic.errors import ParseError, SchemeInvalid
from qic.predicate import BoolExpr, CnfFormula, parse_dimacs, parse_expr

# Near misses shared by every grammar.
_ODD = ["²", "٣", "½", " ", " ", "\x85", "\x0b", "\r", "\t", "-",
        "+", "_", "9" * 4400, "é", "\x00"]


def _near(pieces):
    return st.lists(st.sampled_from(pieces + _ODD), max_size=40).map("".join)


_EXPR_PIECES = ["b", "b0", "b1", "b12", "b007", " ", "~", "&", "|", "^", "(",
                ")", "0", "1", "2"]
_DIMACS_PIECES = ["p", "cnf", "c", " ", "\n", "0", "1", "-1", "2", "-2", "3",
                  "10", "x", "p cnf 2 1\n", "p cnf 3 2\n", "1 -2 0\n", "-0"]
_SCHEME_PIECES = ["global", "groups:", "0", "1", "2", "3", "10", "-1", ",",
                  ";", " ", ":", "x"]


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=60), _near(_EXPR_PIECES)))
def test_parse_expr_parses_or_raises_parse_error(text):
    try:
        node = parse_expr(text)
    except ParseError:
        return
    assert isinstance(node, BoolExpr)
    assert parse_expr(str(node)) == node


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=60), _near(_DIMACS_PIECES)))
@example(text="p cnf 2 1\n" + "9" * 4400)
@example(text="p cnf " + "9" * 4400 + " 1\n")
def test_parse_dimacs_parses_or_raises_parse_error(text):
    try:
        cnf = parse_dimacs(text)
    except ParseError:
        return
    assert isinstance(cnf, CnfFormula)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=60), _near(_SCHEME_PIECES)),
       data_bits=st.integers(0, 12))
def test_parse_scheme_parses_or_raises_parse_error(text, data_bits):
    try:
        scheme = parse_scheme(text, data_bits)
    except (ParseError, SchemeInvalid):
        return
    assert isinstance(scheme, ChecksumScheme)
