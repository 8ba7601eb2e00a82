import argparse
import dataclasses
import itertools
import json
import os
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammag
import oracles
from gammag import core
from gammag.core import (
    GammaMagma,
    InputError,
    LAW_NAMES,
    LawReport,
    LawWitness,
    TERM_PATTERNS,
    canonical_json,
    check_laws,
    check_single_law,
    dump_structure,
    find_left_identity,
    from_base_with_terms,
    integer_op_eval,
    load_structure,
    structure_from_dict,
)
from gammag.cli import cmd_verify
from gammag.crisp import (
    CrispSubset,
    classify_subset,
    enumerate_ideals,
    intra_regular_witness,
    intra_witness_valid,
    is_intra_regular,
    set_product,
)
from gammag.finder import SearchSpec, count_models, enumerate_models, find_counterexample_structure
from gammag.fuzzy import (
    CutKinds,
    FuzzySubset,
    Lattice,
    characteristic,
    classify_fuzzy,
    fuzzy_from_dict,
    gamma_product,
    kinds_on_cuts,
    level_cut,
    meet,
)
from gammag.theorems import (
    DEFAULT_TUPLE_BUDGET,
    sample_subset,
    semilattice_report,
    structure_hypotheses,
    two_sided_family,
    verify,
    verify_all,
)

# ---------------------------------------------------------------------------
# construction and accessors


def test_rejects_out_of_range_entry():
    with pytest.raises(InputError):
        GammaMagma(order=2, gamma=("a",), tables=(((0, 2), (0, 0)),))


def test_rejects_non_square_table():
    with pytest.raises(InputError):
        GammaMagma(order=2, gamma=("a",), tables=(((0, 0, 0), (0, 0)),))


def test_rejects_table_count_mismatch():
    with pytest.raises(InputError):
        GammaMagma(order=2, gamma=("a", "b"), tables=(((0, 0), (0, 0)),))


def test_rejects_duplicate_labels():
    t = ((0, 0), (0, 0))
    with pytest.raises(InputError):
        GammaMagma(order=2, gamma=("a", "a"), tables=(t, t))


def test_rejects_empty_gamma():
    with pytest.raises(InputError):
        GammaMagma(order=1, gamma=(), tables=())


def test_rejects_bad_order():
    with pytest.raises(InputError):
        GammaMagma(order=0, gamma=("a",), tables=((),))
    # bool is an int subclass; True must not pass for order 1
    with pytest.raises(InputError):
        GammaMagma(order=True, gamma=("a",), tables=(((0,),),))
    with pytest.raises(InputError):
        structure_from_dict({"order": True, "gamma": ["a"], "tables": {"a": [[0]]}})


def test_apply_and_names(ir5):
    assert ir5.apply(2, "1", 3) == ir5.tables[0][2][3]
    assert ir5.element_name(0) == "a"
    assert ir5.element_index("c") == 2
    assert ir5.element_index("2") == 2
    assert ir5.element_index(4) == 4
    for name in ("nope", "5"):
        with pytest.raises(InputError):
            ir5.element_index(name)
    with pytest.raises(InputError):
        ir5.apply(0, "zz", 0)
    with pytest.raises(InputError):
        ir5.apply(9, "1", 0)


def test_products_and_factorizability_match_naive(li_models_small, ir5, ag9, m2):
    # every pair of den-1 subsets where there are at most 2**10 pairs,
    # else seeded den-4 pairs
    rng = random.Random(20111)
    for m in [*li_models_small, ir5, ag9, m2]:
        factorizable = all(
            any(m.apply(b, g, c) == a for g in m.gamma for b in range(m.order) for c in range(m.order))
            for a in range(m.order)
        )
        assert m.every_element_factorizable == factorizable
        if m.order <= 5:
            pairs = itertools.product(Lattice(1).subsets(m.order), repeat=2)
        else:
            pairs = [tuple(FuzzySubset(tuple(Fraction(rng.randint(0, 4), 4) for _ in range(m.order)))
                           for _ in range(2)) for _ in range(100)]
        for f, g in pairs:
            assert gamma_product(m, f, g).values == oracles.naive_gamma_product(m, f.values, g.values)
    assert ir5.every_element_factorizable
    assert ag9.every_element_factorizable
    assert not m2.every_element_factorizable


# ---------------------------------------------------------------------------
# law reports on the corpus (values frozen from the table data)


def test_ir5_laws(ir5):
    rep = check_laws(ir5)
    assert rep.left_invertive and rep.medial and rep.ag_star_star and rep.paramedial
    assert not rep.commutative and not rep.associative and not rep.band
    assert rep.has_left_identity and rep.left_identity == 3
    assert rep.holds("left_invertive")
    with pytest.raises(InputError):
        rep.holds("nonsense")


def test_ag9_laws(ag9):
    rep = check_laws(ag9)
    assert rep.left_invertive and rep.medial and rep.band
    assert not rep.ag_star_star and not rep.paramedial
    assert not rep.commutative and not rep.associative
    assert not rep.has_left_identity and rep.left_identity is None


def test_corpus_laws_match_naive_predicates(ir5, ag9):
    for m in (ir5, ag9):
        flat = oracles.magma_flat(m)
        rep = check_laws(m)
        for law, pred in oracles.LAW_PREDICATES.items():
            assert rep.holds(law) == pred(flat, m.order, len(m.gamma)), law


def test_witnesses_are_lexicographically_first(ag9):
    # independent first-failure scan in the same component order
    rep = check_laws(ag9)
    w = rep.witnesses["commutative"]
    assert (w.elements, w.labels, w.lhs, w.rhs) == ((0, 1), ("alpha",), 3, 8)
    found = None
    for x, y in itertools.product(range(9), repeat=2):
        for g in ag9.gamma:
            if ag9.apply(x, g, y) != ag9.apply(y, g, x):
                found = (x, y, g)
                break
        if found:
            break
    assert found == (0, 1, "alpha")
    assert w.render(ag9)  # render stays printable


def test_law_scans_find_the_least_failure(ir5, ag9):
    # check_laws(m).to_dict() against brute force: every table of order <= 2
    # with 1-2 labels, seeded order-3 ones with 1-3 labels, seeded order-3/4
    # ones with 2-3 labels (most fail the laws, so witnesses are compared at
    # every depth, packed root labels included), and the corpus
    structures = [
        GammaMagma(order=n, gamma=tuple("ab"[:k]), tables=tuple(
            tuple(flat[g * n * n + x * n:g * n * n + x * n + n] for x in range(n)) for g in range(k)))
        for n in (1, 2)
        for k in (1, 2)
        for flat in itertools.product(range(n), repeat=k * n * n)
    ]
    assert len(structures) == 1 + 1 + 2**4 + 2**8
    rng = random.Random(20107)
    for _ in range(150):
        k = rng.randint(1, 3)
        tables = tuple(tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)) for _ in range(k))
        structures.append(GammaMagma(order=3, gamma=tuple("abc"[:k]), tables=tables))
    rng = random.Random(20116)
    for _ in range(120):
        n, k = rng.choice((3, 4)), rng.choice((2, 3))
        tables = tuple(tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)) for _ in range(k))
        structures.append(GammaMagma(order=n, gamma=tuple("abc"[:k]), tables=tables))
    for m in [*structures, ir5, ag9]:
        assert check_laws(m).to_dict() == oracles.naive_law_report(m), m.tables


def test_law_reports_match_brute_force_on_the_catalog():
    # all 2,327 order-3 three-label left-invertive models, where the root
    # label of five laws is packed; the witness search alone sets the flags
    # here, as the law_* predicates agree with it above and take seconds more
    catalog = list(enumerate_models(SearchSpec(order=3, gamma_count=3)))
    assert len(catalog) == 2327
    for m in catalog:
        assert check_laws(m).to_dict() == oracles.naive_law_report(m, predicates=False), m.tables


def test_mirror_renamings():
    # the renamings that swap the two sides, which the law scans prune by
    want = {
        "left_invertive": "zyx",
        "medial": "wyxz",
        "ag_star_star": "yxz",
        "paramedial": "zyxw",
        "commutative": "yx",
        "associative": None,
        "band": None,
    }
    assert {law: core._mirror(row[0], row[2]) for law, row in core.LAW_TERMS.items()} == want


def test_single_law_matches_report(ir5, ag9):
    for m in (ir5, ag9):
        rep = check_laws(m)
        for law in LAW_NAMES:
            if law == "has_left_identity":
                with pytest.raises(InputError):
                    check_single_law(m, law)
                continue
            witness = check_single_law(m, law)
            assert (witness is None) == rep.holds(law)
            if witness is not None:
                assert witness == rep.witnesses[law]


def test_law_implications_on_enumerated_models(li_models_small):
    # check_laws itself checks these; run it over the whole pool
    for m in li_models_small:
        rep = check_laws(m)
        assert rep.left_invertive
        assert rep.medial
        if rep.ag_star_star:
            assert rep.paramedial


def test_broken_law_scan_is_caught(ir5, monkeypatch):
    # ir5 is left invertive, so a medial scan that reports a failure
    # contradicts the implication check_laws guards (also under python -O)
    def broken(m, packed):
        return LawWitness("medial", (0, 0, 0, 0), (m.gamma[0],) * 3, 0, 1)

    monkeypatch.setitem(core._SCANS, "medial", broken)
    with pytest.raises(AssertionError):
        check_laws(ir5)


def test_new_law_is_one_row(ir5, ag9, monkeypatch):
    # flexible, (x a y) b x = x a (y b x): one compiled row, nothing else
    row = ("xy", 2, ((1, (0, "x", "y"), "x"), (0, "x", (1, "y", "x"))))
    monkeypatch.setitem(core._SCANS, "flexible", core._compile_scan("flexible", *row))
    monkeypatch.setattr(core, "LAW_NAMES", (*core.LAW_NAMES, "flexible"))
    for m in (ir5, ag9):
        failures = [
            (x, y, a, b)
            for x, y in itertools.product(range(m.order), repeat=2)
            for a, b in itertools.product(m.gamma, repeat=2)
            if m.apply(m.apply(x, a, y), b, x) != m.apply(x, a, m.apply(y, b, x))
        ]
        rep = check_laws(m)
        assert rep.holds("flexible") == rep.flexible == (not failures)
        out = rep.to_dict(m)
        assert out["laws"]["flexible"] == (not failures)
        if failures:
            w = rep.witnesses["flexible"]
            assert w.elements + w.labels == failures[0]
            assert out["witnesses"]["flexible"] == w.to_dict(m)
        else:
            assert "flexible" not in out["witnesses"]
        with pytest.raises(AttributeError):
            rep.nonsense
    assert [f.name for f in dataclasses.fields(LawReport)] == ["witnesses", "left_identity"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_law_implications_on_random_tables(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 2))
    flat = data.draw(
        st.lists(st.integers(0, n - 1), min_size=k * n * n, max_size=k * n * n)
    )
    tables = tuple(
        tuple(tuple(flat[g * n * n + x * n : g * n * n + x * n + n]) for x in range(n))
        for g in range(k)
    )
    m = GammaMagma(order=n, gamma=tuple("ab"[:k]), tables=tables)
    rep = check_laws(m)  # internal checks: invertive -> medial etc.
    for law, pred in oracles.LAW_PREDICATES.items():
        assert rep.holds(law) == pred(tuple(flat), n, k), law


# ---------------------------------------------------------------------------
# single-label reduction and derived-term structures


def test_single_label_product_pattern_reduces_to_classical():
    rng = random.Random(20260817)
    cases = [
        tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        for _ in range(200)
    ]
    cases += [
        tuple(tuple(flat[3 * r + c] for c in range(3)) for r in range(3))
        for flat in itertools.islice(itertools.product(range(3), repeat=9), 120)
    ]
    for base in cases:
        m = from_base_with_terms(base, ("xy",))
        assert len(m.gamma) == 1
        flat = oracles.magma_flat(m)
        rep = check_laws(m)
        for law, pred in oracles.LAW_PREDICATES.items():
            assert rep.holds(law) == pred(flat, 3, 1), law


def test_term_patterns_build_expected_tables(ir5):
    base = ir5.tables[0]
    m = from_base_with_terms(base, TERM_PATTERNS)
    assert len(m.gamma) == 3
    for x, y in itertools.product(range(5), repeat=2):
        assert m.tables[0][x][y] == base[x][y]
        assert m.tables[1][x][y] == base[base[x][x]][y]
        assert m.tables[2][x][y] == base[x][base[y][y]]


def test_from_base_rejects_unknown_pattern(ir5):
    with pytest.raises(InputError):
        from_base_with_terms(ir5.tables[0], ("yx",))


def test_integer_op_left_invertive_closed_form():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (rng.randrange(-50, 50) for _ in range(3))
        beta, gamma = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        z = rng.randrange(-5, 6)
        lhs = integer_op_eval(integer_op_eval(a, beta, b, z), gamma, c, z)
        rhs = integer_op_eval(integer_op_eval(c, beta, b, z), gamma, a, z)
        assert lhs == rhs == c - b + 2 * beta + a - 2 * gamma


# ---------------------------------------------------------------------------
# serialization


def test_structure_round_trip(ir5, ag9, tmp_path):
    for m in (ir5, ag9):
        again = structure_from_dict(json.loads(canonical_json(m.to_dict())))
        assert again == m
        assert again.labels == m.labels
        p = tmp_path / "s.json"
        dump_structure(m, p)
        assert load_structure(p) == m


def test_structure_dict_validation():
    good = {"order": 1, "gamma": ["g"], "tables": {"g": [[0]]}}
    assert structure_from_dict(good).order == 1
    with pytest.raises(InputError):
        structure_from_dict({**good, "extra": 1})
    with pytest.raises(InputError):
        structure_from_dict({"order": 1, "gamma": ["g"]})
    with pytest.raises(InputError):
        structure_from_dict({**good, "tables": {"h": [[0]]}})
    with pytest.raises(InputError):
        structure_from_dict({**good, "tables": [[[0]]]})
    with pytest.raises(InputError):
        structure_from_dict([1, 2])


def test_load_structure_errors(tmp_path):
    with pytest.raises(InputError):
        load_structure(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_structure(bad)
    # UTF-16 with a byte order mark is not UTF-8 text
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"order": 1}'.encode("utf-16-le"))
    with pytest.raises(InputError):
        load_structure(utf16)
    # nesting deeper than the JSON parser's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(InputError):
        load_structure(deep)
    # an integer past the interpreter's 4,300-digit parsing limit
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"order": ' + "9" * 5001 + "}")
    with pytest.raises(InputError):
        load_structure(long_int)
    # wrongly typed labels, gamma entries, tables and rows
    good = {"order": 2, "gamma": ["a"], "tables": {"a": [[0, 0], [0, 0]]}}
    for bad_part in (
        {"labels": 5},
        {"gamma": [["a"]]},
        {"tables": {"a": 7}},
        {"tables": {"a": [1, 2]}},
    ):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps({**good, **bad_part}))
        with pytest.raises(InputError):
            load_structure(typed)


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}'


# ---------------------------------------------------------------------------
# every integer, name and collection argument goes through core.checked_int,
# core.checked_name and core.checked_collection, so each malformed value is
# refused with InputError

_M = GammaMagma(order=2, gamma=("a", "b"), tables=(((0, 1), (1, 0)), ((1, 1), (0, 1))), labels=("p", "q"))
_F = FuzzySubset((Fraction(1, 2), Fraction(1)))
_ONE = Lattice(1)
# order 1 meets every hypothesis, so a call on it gets past the hypothesis checks
_TRIVIAL = GammaMagma(order=1, gamma=("a",), tables=(((0,),),))


def _cli_verify(jobs):
    args = argparse.Namespace(structure="ir5", theorem="sf", lattice=1, mode="exhaustive",
                              budget=DEFAULT_TUPLE_BUDGET, jobs=jobs)
    return cmd_verify(args)


# (argument, call, out-of-range int or None when any int is valid,
# whether a string is a valid spelling)
_INT_ARGUMENTS = [
    ("GammaMagma order", lambda v: GammaMagma(order=v, gamma=("a",), tables=(((0,),),)), 0, False),
    ("table entry", lambda v: GammaMagma(order=2, gamma=("a",), tables=(((0, v), (0, 0)),)), 2, False),
    ("apply x", lambda v: _M.apply(v, "a", 0), 2, False),
    ("apply y", lambda v: _M.apply(0, "a", v), 2, False),
    ("element_index", _M.element_index, 2, True),
    ("element_name", _M.element_name, 2, False),
    ("integer_op_eval", lambda v: integer_op_eval(v, 0, 0, 0), None, False),
    ("CrispSubset size", lambda v: CrispSubset(v, 0), 0, False),
    ("CrispSubset bits", lambda v: CrispSubset(2, v), 4, False),
    ("from_elements", lambda v: CrispSubset.from_elements(2, [v]), 2, False),
    ("intra_regular_witness", lambda v: intra_regular_witness(_M, v), 2, False),
    ("FuzzySubset call", _F, 2, False),
    ("FuzzySubset.constant order", lambda v: FuzzySubset.constant(v, 1), 0, False),
    ("fuzzy_from_dict den", lambda v: fuzzy_from_dict({"den": v, "num": [0]}), 0, False),
    ("fuzzy_from_dict numerator", lambda v: fuzzy_from_dict({"den": 2, "num": [v]}), 3, False),
    ("Lattice den", Lattice, 0, False),
    ("Lattice.count order", _ONE.count, 0, False),
    ("Lattice.subsets order", lambda v: next(_ONE.subsets(v)), 0, False),
    ("sample_subset seed", lambda v: sample_subset(v, 0, 2, 1), None, False),
    ("sample_subset counter", lambda v: sample_subset(1, v, 2, 1), -1, False),
    ("sample_subset order", lambda v: sample_subset(1, 0, v, 1), 0, False),
    ("sample_subset den", lambda v: sample_subset(1, 0, 2, v), 2**256, False),
    ("verify seed", lambda v: verify(_M, "sf", _ONE, "sampled", v, 4), None, False),
    ("verify samples", lambda v: verify(_M, "sf", _ONE, "sampled", 1, v), 0, False),
    ("verify budget", lambda v: verify(_M, "sf", _ONE, budget=v), 0, False),
    ("verify_all jobs", lambda v: verify_all(_M, _ONE, jobs=v), 0, False),
    ("two_sided_family budget", lambda v: two_sided_family(_M, _ONE, v), 0, False),
    ("cmd_verify --jobs", _cli_verify, 0, False),
    ("SearchSpec order", lambda v: SearchSpec(order=v), 7, False),
    ("SearchSpec gamma_count", lambda v: SearchSpec(order=2, gamma_count=v), 27, False),
    ("SearchSpec budget", lambda v: SearchSpec(order=2, budget=v), 0, False),
]

_NAME_ARGUMENTS = [
    ("gamma_index", _M.gamma_index),
    ("LawReport.holds", check_laws(_M).holds),
    ("check_single_law", lambda v: check_single_law(_M, v)),
    ("from_base_with_terms pattern", lambda v: from_base_with_terms(((0, 1), (1, 0)), (v,))),
    ("enumerate_ideals", lambda v: enumerate_ideals(_M, v)),
    ("kinds_on_cuts", lambda v: kinds_on_cuts(_M, _F, ("left", v))),
    ("CutKinds", lambda v: CutKinds(_M)(_F, ("left", v))),
    ("SearchSpec laws", lambda v: SearchSpec(order=2, laws=v)),
    ("SearchSpec law", lambda v: SearchSpec(order=2, laws=("medial", v))),
    ("SearchSpec iso_mode", lambda v: SearchSpec(order=2, iso_mode=v)),
    ("find_counterexample_structure", find_counterexample_structure),
    ("verify mode", lambda v: verify(_M, "sf", _ONE, v)),
    ("verify_all mode", lambda v: verify_all(_M, _ONE, v)),
    ("verify theorem id", lambda v: verify(_M, v, _ONE)),
]

_T = ((0, 1), (1, 0))

# (argument, call, values that are neither a list nor a tuple, and for
# kinds not a set either); a string is refused, not split into characters
_COLLECTION_ARGUMENTS = [
    ("GammaMagma gamma", lambda v: GammaMagma(order=2, gamma=v, tables=(_T, _T)), (None, "ab", 5)),
    ("GammaMagma tables", lambda v: GammaMagma(order=2, gamma=("a",), tables=v), (None, 5, {_T})),
    ("GammaMagma labels", lambda v: GammaMagma(order=2, gamma=("a",), tables=(_T,), labels=v), ("pq", 5)),
    ("FuzzySubset values", FuzzySubset, (None, "01", 5, {1})),
    ("kinds_on_cuts kinds", lambda v: kinds_on_cuts(_M, _F, v), (None, 5, {"left": 0})),
    ("CutKinds kinds", lambda v: CutKinds(_M)(_F, v), (None, 5, {"left": 0})),
    ("from_base_with_terms base", lambda v: from_base_with_terms(v, ("xy",)), (None, 5)),
    ("from_base_with_terms patterns", lambda v: from_base_with_terms(_T, v), (None, 5, {"xy"})),
    ("from_base_with_terms gamma", lambda v: from_base_with_terms(_T, ("xy", "xy"), v), ("ab", 5)),
]

_BAD_ARGUMENTS = []
for argument, call, out_of_range, spelled in _INT_ARGUMENTS:
    values = [True, 1.5, None]
    values += [] if out_of_range is None else [out_of_range]
    values += [] if spelled else ["1"]
    _BAD_ARGUMENTS += [(argument, call, value) for value in values]
for argument, call in _NAME_ARGUMENTS:
    _BAD_ARGUMENTS += [(argument, call, value) for value in ("nope", ["sf"], None)]
for argument, call, values in _COLLECTION_ARGUMENTS:
    _BAD_ARGUMENTS += [(argument, call, value) for value in values]
# a membership value or threshold Fraction cannot read
_BAD_ARGUMENTS += [("FuzzySubset value", lambda v: FuzzySubset((v,)), float("inf"))]
_BAD_ARGUMENTS += [("level_cut threshold", lambda v: level_cut(_F, v), value)
                   for value in (None, [1], "x", "1/0", float("inf"))]
# a float keeps its binary value and a bool reads as 0 or 1: neither is exact
_BAD_ARGUMENTS += [("FuzzySubset value", lambda v: FuzzySubset((v,)), value) for value in (0.1, True)]
_BAD_ARGUMENTS += [("level_cut threshold", lambda v: level_cut(_F, v), value) for value in (0.1, True)]
# a subset argument of the wrong type: a list, None, a tuple or a subset of the other kind
_BAD_ARGUMENTS += [
    ("gamma_product subset", lambda v: gamma_product(_M, v, _F), [1] * 2),
    ("meet subset", lambda v: meet(_F, v), None),
    ("kinds_on_cuts subset", lambda v: kinds_on_cuts(_M, v, ("left",)), CrispSubset(2, 3)),
    ("CutKinds subset", lambda v: CutKinds(_M)(v, ("left",)), CrispSubset(2, 3)),
    ("CutKinds subset", lambda v: CutKinds(_M)(v, ("left",)), FuzzySubset((1,) * 7)),
    ("classify_fuzzy subset", lambda v: classify_fuzzy(_M, v), (1,) * 2),
    ("set_product subset", lambda v: set_product(_M, v, v), _F),
    ("level_cut subset", lambda v: level_cut(v, 1), None),
    ("characteristic subset", characteristic, None),
    ("characteristic subset", characteristic, _F),
    ("Lattice.contains subset", _ONE.contains, None),
    ("intra_witness_valid witness", lambda v: intra_witness_valid(_M, v), None),
]
# a search spec or a value lattice of the wrong type: None, or the number it would hold
_BAD_ARGUMENTS += [(argument, call, value) for argument, call in (
    ("enumerate_models spec", enumerate_models),
    ("count_models spec", count_models),
    ("verify lattice", lambda v: verify(_M, "sf", v)),
    ("verify_all lattice", lambda v: verify_all(_M, v)),
    ("semilattice_report lattice", lambda v: semilattice_report(_TRIVIAL, v)),
    ("two_sided_family lattice", lambda v: two_sided_family(_M, v, DEFAULT_TUPLE_BUDGET)),
) for value in (None, 2)]
# a file path that is neither a string nor path-like
_BAD_ARGUMENTS += [
    ("load_structure path", load_structure, None),
    ("load_structure path", load_structure, 5),
    ("dump_structure path", lambda v: dump_structure(_M, v), None),
]
# a row that is a string or a set, or of the wrong length (a ragged table)
_BAD_ARGUMENTS += [("GammaMagma table row", lambda v: GammaMagma(order=2, gamma=("a",), tables=((v, (0, 0)),)),
                    value) for value in ("01", {0, 1}, (0,))]


@pytest.mark.parametrize(
    "call, value", [(call, value) for _, call, value in _BAD_ARGUMENTS],
    ids=[f"{argument}={value!r}" for argument, _, value in _BAD_ARGUMENTS],
)
def test_malformed_argument_is_input_error(call, value):
    with pytest.raises(InputError):
        call(value)


# every entry point that takes a structure refuses anything but a GammaMagma
_STRUCTURE_ARGUMENTS = [
    ("check_laws", check_laws),
    ("check_single_law", lambda v: check_single_law(v, "medial")),
    ("find_left_identity", find_left_identity),
    ("enumerate_ideals", lambda v: enumerate_ideals(v, "left")),
    ("classify_subset", lambda v: classify_subset(v, CrispSubset(2, 1))),
    ("set_product", lambda v: set_product(v, CrispSubset(2, 1), CrispSubset(2, 3))),
    ("is_intra_regular", is_intra_regular),
    ("intra_regular_witness", lambda v: intra_regular_witness(v, 0)),
    ("gamma_product", lambda v: gamma_product(v, _F, _F)),
    ("classify_fuzzy", lambda v: classify_fuzzy(v, _F)),
    ("kinds_on_cuts", lambda v: kinds_on_cuts(v, _F, ("left",))),
    ("CutKinds", lambda v: CutKinds(v)(_F, ("left",))),
    ("verify", lambda v: verify(v, "sf", _ONE)),
    ("structure_hypotheses", structure_hypotheses),
    ("semilattice_report", lambda v: semilattice_report(v, _ONE)),
    ("two_sided_family", lambda v: two_sided_family(v, _ONE, DEFAULT_TUPLE_BUDGET)),
    ("intra_witness_valid", lambda v: intra_witness_valid(v, intra_regular_witness(_M, 0))),
    ("dump_structure", lambda v: dump_structure(v, os.devnull)),
]


@pytest.mark.parametrize(
    "call, value", [(call, value) for _, call in _STRUCTURE_ARGUMENTS for value in ("ir5", None, _M.tables)],
    ids=[f"{name}={value}" for name, _ in _STRUCTURE_ARGUMENTS for value in ("'ir5'", None, "tables")],
)
def test_structure_argument_of_wrong_type_is_input_error(call, value):
    with pytest.raises(InputError, match="expected a GammaMagma"):
        call(value)


def test_emitted_models_equal_their_tables_rebuilt_from_lists():
    for n in range(1, 5):
        for k in (1, 2):
            for m in enumerate_models(SearchSpec(order=n, gamma_count=k)):
                tables = [[list(row) for row in table] for table in m.tables]
                rebuilt = GammaMagma(m.order, list(m.gamma), tables)
                assert rebuilt == m and rebuilt.tables == m.tables and rebuilt.gamma == m.gamma


# ---------------------------------------------------------------------------
# package surface

PUBLIC_API = [
    "CapacityError", "CrispSubset", "FINDER_PROPERTIES", "FUZZY_KINDS", "FuzzySubset",
    "GammaMagma", "IDEAL_KINDS", "InputError", "IntraWitness", "Lattice", "LawReport",
    "LawWitness", "REGISTRY", "REGISTRY_ORDER", "SearchBudgetError", "SearchSpec",
    "SemilatticeReport", "Verdict", "Violation", "characteristic", "check_laws",
    "classify_fuzzy", "classify_subset", "enumerate_ideals", "enumerate_models",
    "find_counterexample_structure", "from_base_with_terms", "gamma_product",
    "integer_op_eval", "intra_regular_witness", "is_intra_regular", "join", "leq",
    "level_cut", "load_structure", "meet", "semilattice_report", "set_product",
    "structure_from_dict", "verify", "verify_all",
]


def test_public_api_is_pinned():
    assert sorted(gammag.__all__) == PUBLIC_API
    assert not any(isinstance(getattr(gammag, name), types.ModuleType) for name in gammag.__all__)
