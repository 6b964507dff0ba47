import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qic.ecc import ChecksumScheme, checksum_predicate
from qic.enumeration import RunConfig, enumerate_solutions, verify
from qic.errors import IndexOutOfRange, ParseError, RegisterMismatch, UnboundVariable
from qic.predicate import (
    MAX_EXPR_NESTING,
    And,
    CnfFormula,
    Const,
    Not,
    Or,
    Predicate,
    Var,
    Xor,
    compile_mask,
    evaluate,
    parse_dimacs,
    parse_expr,
    with_exclusions,
)
import qic.state
from qic.interference import InterferenceConfig
from qic.state import (
    PhaseMask,
    Register,
    basis_state,
    probability,
    uniform_superposition,
)

import reference
from conftest import (
    bits_of,
    brute_force_valid,
    cnf_truth_brute,
    expr_truth_brute,
    random_cnf,
    random_expr,
)


class TestParseExpr:
    def test_and_not(self):
        assert parse_expr("b0 & ~b2") == And(Var(0), Not(Var(2)))

    def test_unclosed_paren_reports_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("b0 & (b1 | ")
        assert err.value.offset == 11

    def test_double_negation(self):
        assert parse_expr("~~b1") == Not(Not(Var(1)))

    def test_precedence_not_over_and_over_or(self):
        assert parse_expr("~b0 & b1 | b2") == Or(And(Not(Var(0)), Var(1)), Var(2))

    def test_or_xor_left_associative(self):
        assert parse_expr("b0 | b1 ^ b2") == Xor(Or(Var(0), Var(1)), Var(2))
        assert parse_expr("b0 ^ b1 | b2") == Or(Xor(Var(0), Var(1)), Var(2))

    def test_constants(self):
        assert parse_expr("1 & b3") == And(Const(True), Var(3))
        assert parse_expr("0") == Const(False)

    def test_whitespace_insensitive(self):
        assert parse_expr(" b0&~ b2 ") == parse_expr("b0 & ~b2")

    @pytest.mark.parametrize("text,offset", [
        ("~" * 5000 + "b0", MAX_EXPR_NESTING),
        ("(" * 3000 + "b0" + ")" * 3000, MAX_EXPR_NESTING),
        ("~(" * 150 + "b0" + ")" * 150, MAX_EXPR_NESTING),
        ("b0 & " + "(" * 201 + "b0" + ")" * 201, 5 + MAX_EXPR_NESTING),
    ])
    def test_too_deep_raises_parse_error(self, text, offset):
        with pytest.raises(ParseError, match="deeper than") as err:
            parse_expr(text)
        assert err.value.offset == offset

    # Truth over indices 0-3, derived by hand: the recursive brute-force
    # evaluator cannot walk these trees.
    DEEP_AND_LONG = {
        # An even count of '~'.
        "~" * MAX_EXPR_NESTING + "b1": [False, False, True, True],
        "(" * MAX_EXPR_NESTING + "b1" + ")" * MAX_EXPR_NESTING:
            [False, False, True, True],
        # Every '(' adds two levels to the tree: an Or over an And.  The
        # innermost b0 | b1 & b1 is b0 | b1, and so is each level around it.
        "b0 | b1 & (" * MAX_EXPR_NESTING + "b1" + ")" * MAX_EXPR_NESTING:
            [False, True, True, True],
        # An even count of b1.
        " ^ ".join(["b1"] * 300): [False, False, False, False],
        " | ".join(["b1 & ~b0"] * 5000): [False, False, True, False],
        " & ".join(["~b1"] * 5000): [True, True, False, False],
    }

    @pytest.mark.parametrize("text", list(DEEP_AND_LONG))
    def test_deep_and_long_trees_are_usable(self, text):
        node = parse_expr(text)
        reg = Register(2)
        pred = Predicate(node, reg)
        flags = compile_mask(pred, reg).valid
        assert [bool(f) for f in flags] == [evaluate(pred, i) for i in range(4)]
        assert [bool(f) for f in flags] == self.DEEP_AND_LONG[text]
        assert parse_expr(str(node)) == node
        assert hash(node) == hash(parse_expr(text))

    def test_repr_is_the_dataclass_form(self):
        node = parse_expr("~(b0 & b1) | b2 ^ ~1")
        assert repr(node) == (
            "Xor(lhs=Or(lhs=Not(operand=And(lhs=Var(index=0), "
            "rhs=Var(index=1))), rhs=Var(index=2)), "
            "rhs=Not(operand=Const(value=True)))")

    @pytest.mark.parametrize("terms", [2000, 5000])
    @pytest.mark.parametrize("op", ["&", "|", "^"])
    def test_long_chains_repr_copy_and_pickle(self, terms, op):
        node = parse_expr(f" {op} ".join(f"~b{i % 3}" for i in range(terms)))
        text = repr(node)
        name = type(node).__name__
        assert text.startswith(f"{name}(lhs={name}(lhs=")
        assert text.count(f"{name}(") == terms - 1
        assert text.count("Not(operand=Var(index=") == terms
        for twin in (copy.deepcopy(node),
                     pickle.loads(pickle.dumps(node))):
            assert twin is not node
            assert twin == node and hash(twin) == hash(node)
            assert repr(twin) == text

    def test_pickle_keeps_the_tree_shape(self):
        for text in ("b0 & (b1 & b2)", "(b0 & b1) & b2", "~~b0 ^ (1 | ~b1)"):
            node = parse_expr(text)
            twin = pickle.loads(pickle.dumps(node))
            assert twin == node and str(twin) == str(node)

    @pytest.mark.parametrize("a,b", [
        ("b0 & b1 & b2", "b0 & (b1 & b2)"),
        ("b0 | b1", "b0 ^ b1"),
        ("~b0", "b0"),
        ("~~b0", "b0"),
        ("b0 & b1", "b1 & b0"),
        ("b0 & 1", "b0 & b1"),
        ("(b0 | b1) & b2", "(b0 ^ b1) & b2"),
        ("~(b0 & b1)", "~(b0 | b1)"),
    ])
    def test_equality_is_structural(self, a, b):
        assert parse_expr(a) != parse_expr(b)
        assert parse_expr(a) == parse_expr(a)

    def test_bad_character_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("b0 + b1")
        assert err.value.offset == 3

    def test_bare_b_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("b & b1")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_expr("b0 b1")
        assert err.value.offset == 3

    def test_missing_close_paren(self):
        with pytest.raises(ParseError) as err:
            parse_expr("(b0 | b1")
        assert err.value.offset == 8

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse_expr("")
        assert err.value.offset == 0


class TestParseDimacs:
    def test_basic(self):
        cnf = parse_dimacs("p cnf 3 2\n1 -3 0\n3 2 0\n")
        assert cnf.variable_count == 3
        assert cnf.clauses == ((1, -3), (3, 2))

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 2 1\n3 0\n")
        assert "out of range" in str(err.value)

    def test_comments_skipped(self):
        cnf = parse_dimacs("c note\np cnf 1 1\n-1 0\n")
        assert cnf.variable_count == 1
        assert cnf.clauses == ((-1,),)

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 2 2\n1 0\n")
        assert "clauses" in str(err.value)

    def test_empty_clause_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 2 2\n1 0\n0\n")
        assert "empty clause" in str(err.value)

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 0\n")
        with pytest.raises(ParseError):
            parse_dimacs("c only a comment\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("p dnf 2 1\n1 0\n")
        with pytest.raises(ParseError):
            parse_dimacs("p cnf two 1\n1 0\n")

    def test_clauses_span_lines_and_whitespace(self):
        cnf = parse_dimacs("p cnf 4 2\n1 2\n-3 0 4\nc mid comment\n-1 0\n")
        assert cnf.clauses == ((1, 2, -3), (4, -1))


class TestEvaluate:
    def test_expression_against_truth_table(self):
        reg = Register(3)
        pred = Predicate(parse_expr("b0 & ~b2"), reg)
        oracle = brute_force_valid(lambda bits: bits[0] == 1 and bits[2] == 0, 3)
        assert oracle == {1, 3}
        for i in range(8):
            assert evaluate(pred, i) == (i in oracle)
        assert evaluate(pred, 1) and evaluate(pred, 3) and not evaluate(pred, 5)

    def test_exclusion_dominates(self):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3}), reg, exclusions=frozenset({1}))
        assert evaluate(pred, 1) is False
        assert evaluate(pred, 3) is True

    def test_cnf_against_clause_oracle(self):
        clauses = ((1, -3), (3, 2))
        reg = Register(3)
        pred = Predicate(CnfFormula(3, clauses), reg)
        assert evaluate(pred, 0) is False
        for i in range(8):
            assert evaluate(pred, i) == cnf_truth_brute(clauses, bits_of(i, 3))

    def test_index_out_of_range(self):
        pred = Predicate(frozenset({0}), Register(2))
        with pytest.raises(IndexOutOfRange):
            evaluate(pred, 4)

    def test_point_queries_allocate_no_flags(self):
        # 2^26 compiled flags would take 64 MiB; one lane takes none.
        m = 26
        reg = Register(m)
        expr = parse_expr("b25 & ~b0 | b13 ^ b7")
        clauses = random_cnf(np.random.default_rng(26), m)
        cases = [(Predicate(expr, reg),
                  lambda bits: expr_truth_brute(expr, bits)),
                 (Predicate(CnfFormula(m, tuple(clauses)), reg),
                  lambda bits: cnf_truth_brute(clauses, bits))]
        indices = [0, 1, 1 << 25, (1 << 26) - 1, 0x2A5A5A5]
        tracemalloc.start()
        try:
            got = [[evaluate(pred, i) for i in indices] for pred, _ in cases]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert got == [[oracle(bits_of(i, m)) for i in indices]
                       for _, oracle in cases]


class TestCompileMask:
    def test_always_true(self):
        reg = Register(3)
        mask = compile_mask(Predicate(parse_expr("1"), reg), reg)
        assert reference.valid_indices(mask.valid) == list(range(8))

    def test_worked_example(self):
        reg = Register(3)
        mask = compile_mask(Predicate(parse_expr("b0 & ~b2"), reg), reg)
        assert reference.valid_indices(mask.valid) == [1, 3]

    def test_always_false(self):
        reg = Register(2)
        mask = compile_mask(Predicate(parse_expr("0"), reg), reg)
        assert reference.valid_indices(mask.valid) == []

    def test_register_mismatch(self):
        pred = Predicate(parse_expr("b0"), Register(2))
        with pytest.raises(RegisterMismatch):
            compile_mask(pred, Register(3))

    def test_materialization_cap(self):
        # No mask can be compiled over a register that cannot be built.
        with pytest.raises(ValueError, match="27 qubits exceeds the 26-qubit"):
            Register(27)

    def test_private_flags_are_not_copied_again(self):
        reg = Register(8)
        source = frozenset({3, 200})
        base = compile_mask(Predicate(source, reg), reg).valid
        assert compile_mask(Predicate(source, reg), reg).valid is base
        excluded = compile_mask(
            Predicate(source, reg, exclusions=frozenset({3})), reg).valid
        assert excluded is not base and not excluded.flags.writeable
        assert excluded.base is None

    def test_exclusions_cleared_from_mask(self):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3, 5}), reg, exclusions=frozenset({3}))
        assert reference.valid_indices(compile_mask(pred, reg).valid) == [1, 5]


class TestWithExclusions:
    def test_removes_found(self):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3}), reg)
        narrowed = with_exclusions(pred, {1})
        assert reference.valid_indices(compile_mask(narrowed, reg).valid) == [3]

    def test_empty_found_keeps_semantics(self):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3}), reg)
        same = with_exclusions(pred, set())
        assert reference.valid_indices(compile_mask(same, reg).valid) == [1, 3]

    def test_everything_removed(self):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3}), reg)
        empty = with_exclusions(pred, {1, 3})
        assert reference.valid_indices(compile_mask(empty, reg).valid) == []

    def test_original_unchanged(self):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3}), reg)
        with_exclusions(pred, {1})
        assert pred.exclusions == frozenset()


# Every public entry point that takes basis indices, as a value comparable
# across calls.
_INDEX_ENTRY_POINTS = {
    "bitstring": lambda reg, i: reg.bitstring(i),
    "basis_state": lambda reg, i: tuple(basis_state(reg, i).amplitudes),
    "probability": lambda reg, i: probability(uniform_superposition(reg), i),
    "evaluate": lambda reg, i: evaluate(Predicate(parse_expr("b0"), reg), i),
    "verify": lambda reg, i: verify(Predicate(parse_expr("b0"), reg), i),
    "PhaseMask.from_indices":
        lambda reg, i: reference.valid_indices(
            PhaseMask.from_indices(reg, [0, i]).valid),
    "Predicate source": lambda reg, i: Predicate(frozenset({0, i}), reg).source,
    "Predicate exclusions": lambda reg, i: Predicate(
        parse_expr("b0"), reg, exclusions=frozenset({i})).exclusions,
    "with_exclusions": lambda reg, i: with_exclusions(
        Predicate(parse_expr("b0"), reg), [i]).exclusions,
}


@pytest.mark.parametrize("entry", sorted(_INDEX_ENTRY_POINTS))
def test_every_index_entry_point_checks_the_register_range(entry):
    call = _INDEX_ENTRY_POINTS[entry]
    reg = Register(3)
    for bad in (-1, 8):
        with pytest.raises(IndexOutOfRange) as err:
            call(reg, bad)
        assert str(err.value) == f"index {bad} outside [0, 8)"
    for good in (0, 5, 7):
        expected = call(reg, good)
        for kind in (np.int64, np.uint8):
            got = call(reg, kind(good))
            assert got == expected
            if isinstance(got, frozenset):
                assert all(type(i) is int for i in got)


@pytest.mark.parametrize("entry", sorted(_INDEX_ENTRY_POINTS))
def test_every_index_entry_point_refuses_non_integers(entry):
    call = _INDEX_ENTRY_POINTS[entry]
    for bad in (1.0, 1.7, "5", np.float64(1.0)):
        with pytest.raises(TypeError):
            call(Register(3), bad)


class TestUnboundVariable:
    def test_expression_beyond_register(self):
        with pytest.raises(UnboundVariable):
            Predicate(parse_expr("b9"), Register(3))

    def test_cnf_beyond_register(self):
        with pytest.raises(UnboundVariable):
            Predicate(CnfFormula(4, ((4,),)), Register(3))


def test_mask_agrees_with_evaluate_on_random_instances():
    # Constants, an empty CNF and an all-negative clause first.
    for m in (1, 3, 7):
        reg = Register(m)
        for source in (Const(True), Const(False), Not(Const(True))):
            oracle = expr_truth_brute(source, bits_of(0, m))
            flags = compile_mask(Predicate(source, reg), reg).valid
            assert flags.tolist() == [oracle] * reg.dimension
            assert [evaluate(Predicate(source, reg), i)
                    for i in range(reg.dimension)] == [oracle] * reg.dimension
        for clauses in ((), ((-1, -m),)):
            pred = Predicate(CnfFormula(m, clauses), reg)
            flags = compile_mask(pred, reg).valid
            for i in range(reg.dimension):
                assert (flags[i] == evaluate(pred, i)
                        == cnf_truth_brute(clauses, bits_of(i, m)))
    # 100 random sources, exhaustive per-index agreement, m up to 8
    rng = np.random.default_rng(1776)
    for trial in range(100):
        m = int(rng.integers(1, 9))
        reg = Register(m)
        if trial % 2 == 0:
            pred = Predicate(random_expr(rng, m), reg)
            oracle = {
                i for i in range(1 << m)
                if expr_truth_brute(pred.source, bits_of(i, m))
            }
        else:
            clauses = random_cnf(rng, m)
            pred = Predicate(CnfFormula(m, tuple(clauses)), reg)
            oracle = {
                i for i in range(1 << m)
                if cnf_truth_brute(clauses, bits_of(i, m))
            }
        flags = compile_mask(pred, reg).valid
        for i in range(1 << m):
            assert flags[i] == evaluate(pred, i) == (i in oracle)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6))
def test_pretty_print_round_trip(seed, m):
    rng = np.random.default_rng(seed)
    expr = random_expr(rng, m, depth=4)
    reg = Register(m)
    reparsed = parse_expr(expr.to_text())
    original_mask = compile_mask(Predicate(expr, reg), reg)
    reparsed_mask = compile_mask(Predicate(reparsed, reg), reg)
    assert np.all(original_mask.valid == reparsed_mask.valid)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6))
def test_exclusion_monotonicity(seed, m):
    rng = np.random.default_rng(seed)
    reg = Register(m)
    pred = Predicate(random_expr(rng, m), reg)
    size = int(rng.integers(0, reg.dimension + 1))
    removed = {int(i) for i in rng.choice(reg.dimension, size=size,
                                          replace=False)}
    base = set(reference.valid_indices(compile_mask(pred, reg).valid))
    narrowed = set(reference.valid_indices(
        compile_mask(with_exclusions(pred, removed), reg).valid))
    assert narrowed == base - removed


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       use_cnf=st.booleans())
def test_packed_compile_matches_evaluate_and_oracle(seed, m, use_cnf):
    # m < 6 fills part of one word, m = 6 exactly one, m > 6 several
    # words selected by variables >= 6.
    rng = np.random.default_rng(seed)
    reg = Register(m)
    if use_cnf:
        clauses = random_cnf(rng, m)
        pred = Predicate(CnfFormula(m, tuple(clauses)), reg)
        oracle = brute_force_valid(lambda bits: cnf_truth_brute(clauses, bits), m)
    else:
        expr = random_expr(rng, m, depth=4)
        pred = Predicate(expr, reg)
        oracle = brute_force_valid(lambda bits: expr_truth_brute(expr, bits), m)
    flags = compile_mask(pred, reg).valid
    assert flags.shape == (reg.dimension,)
    assert set(np.flatnonzero(flags).tolist()) == oracle
    assert [bool(f) for f in flags] == [evaluate(pred, i)
                                        for i in range(reg.dimension)]


class TestCompileCache:
    def test_exclusions_do_not_leak_into_cache(self):
        reg = Register(7)
        source = parse_expr("b0 | b6")
        def indices(pred):
            return reference.valid_indices(compile_mask(pred, reg).valid)

        full = indices(Predicate(source, reg))
        excluded = Predicate(source, reg, exclusions=frozenset(full[:5]))
        assert indices(excluded) == full[5:]
        assert indices(Predicate(source, reg)) == full

    def test_alternating_sources(self):
        reg = Register(8)
        first = Predicate(parse_expr("b1 & ~b7"), reg)
        second = Predicate(CnfFormula(8, ((1, -8), (3,))), reg)
        masks = [compile_mask(p, reg).valid for p in (first, second, first, second)]
        assert np.array_equal(masks[0], masks[2])
        assert np.array_equal(masks[1], masks[3])
        assert not np.array_equal(masks[0], masks[1])

    def test_equal_checksum_predicates_share_flags(self):
        scheme = ChecksumScheme(7, ((0, 1, 2), (3, 4, 5, 6)))
        first, second = checksum_predicate(scheme), checksum_predicate(scheme)
        assert first is not second and first == second
        reg = scheme.register()
        flags = compile_mask(first, reg).valid
        assert np.array_equal(flags, compile_mask(second, reg).valid)
        assert [bool(f) for f in flags] == [evaluate(first, i)
                                            for i in range(reg.dimension)]
        # Valid exactly where the checksum qubits hold the data's checksum.
        n = scheme.data_bits
        assert [bool(f) for f in flags] == [
            i >> n == reference.checksum(scheme, i & ((1 << n) - 1))
            for i in range(reg.dimension)]

    @pytest.mark.parametrize("source", [parse_expr("b0 ^ b9"),
                                        frozenset({3, 700})])
    def test_mask_is_read_only(self, source):
        reg = Register(10)
        mask = compile_mask(Predicate(source, reg), reg)
        assert not mask.valid.flags.writeable
        with pytest.raises(ValueError):
            mask.valid[0] = True


@pytest.mark.parametrize("left,right", [
    ("~(b0 & b1)", "~b0 | ~b1"),
    ("~(b0 | b1)", "~b0 & ~b1"),
    ("b0 ^ b1", "(b0 | b1) & ~(b0 & b1)"),
])
def test_boolean_identities(left, right):
    for m in range(2, 7):
        reg = Register(m)
        lhs = compile_mask(Predicate(parse_expr(left), reg), reg)
        rhs = compile_mask(Predicate(parse_expr(right), reg), reg)
        assert np.all(lhs.valid == rhs.valid)


# ---------------------------------------------------------------------------
# Block form: a compiled mask keeps flags only for its mixed blocks.


def _assert_block_form(mask, flags):
    """``mask``'s block form (128-index blocks) is that of dense ``flags``:
    each block's kind and each mixed block's flags and count; no constant
    block is stored as mixed."""
    step = min(128, len(flags))
    rows = flags.reshape(-1, step)
    assert mask._step == step and len(mask._kinds) == len(rows)
    for b, row in enumerate(rows):
        count = np.count_nonzero(row)
        assert mask._kinds[b] == (2 if 0 < count < step else int(count > 0))
    assert set(mask._mixed) == {b for b, kind in enumerate(mask._kinds)
                                if kind == 2}
    for b, stored in mask._mixed.items():
        assert stored.dtype == bool and not stored.flags.writeable
        assert np.array_equal(stored, rows[b])
    assert mask._counts == {b: np.count_nonzero(rows[b]) for b in mask._mixed}
    assert mask._count() == np.count_nonzero(flags)
    assert np.array_equal(mask.valid, flags)


def _block_kind_set(rng, m):
    """A valid set whose 128-index blocks are each empty, full, one index
    or a random subset."""
    dim, valid = 1 << m, set()
    for lo in range(0, dim, 128):
        hi = min(lo + 128, dim)
        kind = rng.integers(4)
        if kind == 1:
            valid.update(range(lo, hi))
        elif kind == 2:
            valid.add(int(rng.integers(lo, hi)))
        elif kind == 3:
            valid.update(i for i in range(lo, hi) if rng.random() < 0.5)
    return valid


def _exclusions(rng, valid, m):
    """Random indices, plus one index of a full block (breaking it) and
    every valid index of one block (emptying it) where such blocks exist."""
    dim = 1 << m
    found = {int(i) for i in rng.integers(0, dim, int(rng.integers(0, 6)))}
    blocks = [set(range(lo, min(lo + 128, dim))) for lo in range(0, dim, 128)]
    full = [block for block in blocks if block <= valid]
    if full:
        found.add(min(full[int(rng.integers(len(full)))]))
    held = [block & valid for block in blocks if block & valid]
    if held:
        found |= held[int(rng.integers(len(held)))]
    return found


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10),
       kind=st.sampled_from(["explicit", "expr", "cnf"]))
def test_block_form_matches_dense_reference_flags(seed, m, kind):
    rng = np.random.default_rng(seed)
    reg = Register(m)
    if kind == "explicit":
        valid = _block_kind_set(rng, m)
        source = frozenset(valid)
    elif kind == "expr":
        source = random_expr(rng, m, depth=4)
        valid = brute_force_valid(
            lambda bits: expr_truth_brute(source, bits), m)
    else:
        clauses = random_cnf(rng, m)
        source = CnfFormula(m, tuple(clauses))
        valid = brute_force_valid(
            lambda bits: cnf_truth_brute(clauses, bits), m)
    excluded = _exclusions(rng, valid, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qic.state, "_BLOCK", 128)
        base = compile_mask(Predicate(source, reg), reg)
        _assert_block_form(base, reference.flags(valid, reg.dimension))
        mask = compile_mask(Predicate(source, reg, frozenset(excluded)), reg)
        _assert_block_form(mask, reference.flags(valid - excluded,
                                                 reg.dimension))
        # An enumeration excludes what it finds, on copies of the blocks.
        cfg = RunConfig(seed, InterferenceConfig(0.05, 2), max_runs=3)
        enumerate_solutions(Predicate(source, reg), reg, cfg)
        again = compile_mask(Predicate(source, reg), reg)
    assert again is base
    _assert_block_form(again, reference.flags(valid, reg.dimension))


@pytest.mark.parametrize("source", [
    parse_expr("1"), CnfFormula(9, ()), frozenset(range(1 << 9))])
def test_block_form_of_an_all_valid_register(source, monkeypatch):
    monkeypatch.setattr(qic.state, "_BLOCK", 128)
    reg = Register(9)
    mask = compile_mask(Predicate(source, reg), reg)
    assert mask._kinds == bytes([1] * 4) and not mask._mixed
    # Excluding one index breaks its full block; the others stay full.
    broken = compile_mask(Predicate(source, reg, frozenset({300})), reg)
    assert broken._kinds == bytes([1, 1, 2, 1]) and set(broken._mixed) == {2}
    _assert_block_form(broken, reference.flags(set(range(512)) - {300}, 512))
    # Excluding a whole block empties it.
    emptied = compile_mask(
        Predicate(source, reg, frozenset(range(128, 256))), reg)
    assert emptied._kinds == bytes([1, 0, 1, 1]) and not emptied._mixed
    assert mask._kinds == bytes([1] * 4) and not mask._mixed


def test_exclusion_that_empties_a_mixed_block(monkeypatch):
    monkeypatch.setattr(qic.state, "_BLOCK", 128)
    reg = Register(9)
    source = frozenset({5, 200, 201, 400})
    mask = compile_mask(Predicate(source, reg, frozenset({200, 201, 7})), reg)
    assert mask._kinds == bytes([2, 0, 0, 2]) and set(mask._mixed) == {0, 3}
    _assert_block_form(mask, reference.flags({5, 400}, 512))


def test_equal_mixed_blocks_share_one_array(monkeypatch):
    # 128-index blocks over ten qubits: b0 mixes all eight blocks alike;
    # b0 ^ b8 in two patterns, by bit 1 of the block.
    monkeypatch.setattr(qic.state, "_BLOCK", 128)
    reg = Register(10)
    for text, patterns in (("b0", 1), ("b0 ^ b8", 2)):
        mask = compile_mask(Predicate(parse_expr(text), reg), reg)
        assert mask._kinds == bytes([2] * 8)
        assert len({id(flags) for flags in mask._mixed.values()}) == patterns
        assert not any(flags.flags.writeable for flags in mask._mixed.values())
        valid = brute_force_valid(
            lambda bits: expr_truth_brute(parse_expr(text), bits), 10)
        _assert_block_form(mask, reference.flags(valid, reg.dimension))
    # Clearing copies the one block it writes; the shared array is unchanged.
    base = compile_mask(Predicate(parse_expr("b0"), reg), reg)
    shared = base._mixed[0]
    cleared = compile_mask(Predicate(parse_expr("b0"), reg, frozenset({1})),
                           reg)
    assert cleared._mixed[0] is not shared and not cleared._mixed[0][1]
    assert all(cleared._mixed[b] is shared for b in range(1, 8))
    assert shared[1] and base._mixed[0] is shared


@pytest.mark.parametrize("build", ["indices", "expr", "dense"])
def test_recorded_counts_follow_every_clear(build, monkeypatch):
    # A mixed block's count is recorded when the block is built and when a
    # clear copies it, so _count sums records and never rereads flags.
    monkeypatch.setattr(qic.state, "_BLOCK", 128)
    rng = np.random.default_rng(11)
    reg = Register(10)
    mask = {
        "indices": lambda: PhaseMask.from_indices(
            reg, rng.integers(0, 1 << 10, 300).tolist()),
        "expr": lambda: compile_mask(
            Predicate(parse_expr("b0 ^ b8 | b3 & ~b9"), reg), reg),
        "dense": lambda: PhaseMask(reg, rng.random(1 << 10) < 0.4),
    }[build]()
    while True:
        flags = mask.valid
        assert mask._count() == np.count_nonzero(flags)
        _assert_block_form(mask, flags)
        valid = np.flatnonzero(flags)
        if not len(valid):
            break
        # One index, as an enumeration clears, or several at once.
        count = 1 if rng.random() < 0.5 else int(rng.integers(2, 40))
        picked = rng.choice(valid, min(len(valid), count), replace=False)
        mask = mask._cleared(picked.tolist())
