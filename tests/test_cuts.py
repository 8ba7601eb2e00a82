"""The mask and level-cut kind decisions against the naive oracles.

Crisp kinds are decided on product masks and fuzzy kinds on level cuts;
the oracles quantify straight from the defining inequalities.
"""

import random
from fractions import Fraction

import pytest

import oracles
from gammag.crisp import (
    FIXED_POINTS,
    IDEAL_KINDS,
    KIND_SHAPES,
    CrispSubset,
    KindProducts,
    classify_subset,
    enumerate_ideals,
)
from gammag.finder import SearchSpec, enumerate_models
from gammag.fuzzy import (
    FUZZY_KINDS,
    CutKinds,
    FuzzySubset,
    Lattice,
    characteristic,
    classify_fuzzy,
    has_fuzzy_kind,
    kind_violation,
)


@pytest.fixture(scope="module")
def structures(li_models_small, ir5, ag9):
    """Left-invertive models of order <= 3 with 1-2 labels at den 2, and the corpus at den 1."""
    return [(m, Lattice(2)) for m in li_models_small] + [(ir5, Lattice(1)), (ag9, Lattice(1))]


def test_crisp_kinds_match_naive_on_every_mask(structures):
    for m, _ in structures:
        for bits in range(1, 1 << m.order):
            a = CrispSubset(m.order, bits)
            want = {kind for kind in IDEAL_KINDS if oracles.naive_crisp_kind(m, a.elements(), kind)}
            assert classify_subset(m, a) == want, (m.tables, bits)


_FIXED_POINT_TERMS = {"=SA": "ones*f", "=AS": "f*ones", "=SAS": "(ones*f)*ones", "=ASA": "(f*ones)*f", "=AA": "f*f"}


def test_fuzzy_kinds_match_naive_on_every_lattice_subset(structures):
    for m, lattice in structures:
        # one engine per structure, so later subsets read the cuts earlier ones decided
        held = CutKinds(m)
        for f in lattice.subsets(m.order):
            want = {kind for kind in FUZZY_KINDS if oracles.naive_fuzzy_kind(m, f.values, kind)}
            assert classify_fuzzy(m, f) == want, (m.tables, f.values)
            assert held(f, FUZZY_KINDS) == want, (m.tables, f.values)
            for kind in FUZZY_KINDS:
                assert has_fuzzy_kind(m, f, kind) == (kind in want), (m.tables, f.values, kind)
                assert (kind_violation(m, f, kind) is None) == (kind in want), (m.tables, f.values, kind)
            # a fixed-point key holds when its composition is f; its witness is the first a where not
            for key, term in _FIXED_POINT_TERMS.items():
                value = oracles.eval_expr(term, m, {"f": f.values})
                diff = [a for a, (u, v) in enumerate(zip(value, f.values)) if u != v]
                assert (key in held(f, (key,))) == (not diff), (m.tables, f.values, key)
                w = kind_violation(m, f, key)
                if diff:
                    a = diff[0]
                    assert tuple(w) == ((a,), (), "eq", value[a], f.values[a]), (m.tables, f.values, key)
                else:
                    assert w is None, (m.tables, f.values, key)


def test_crisp_kind_paths_match_naive_on_every_subset(li_models_small, ag9):
    # every left-invertive model of order <= 3 with 1-3 labels, and ag9,
    # whose order-9 masks span two 8-bit chunks of the row-union index
    three_labels = [m for n in (1, 2, 3) for m in enumerate_models(SearchSpec(order=n, gamma_count=3))]
    rng = random.Random(20116)
    for m in [*li_models_small, *three_labels, ag9]:
        want = {bits: {kind for kind in IDEAL_KINDS if oracles.naive_crisp_kind(m, CrispSubset(m.order, bits), kind)}
                for bits in range(1, 1 << m.order)}
        for kind in IDEAL_KINDS:
            got = [a.bits for a in enumerate_ideals(m, kind)]
            assert got == [bits for bits, kinds in want.items() if kind in kinds], (m.tables, kind)
        for bits, kinds in want.items():
            a = CrispSubset(m.order, bits)
            assert classify_subset(m, a) == kinds, (m.tables, bits)
            assert CutKinds(m)(characteristic(a), IDEAL_KINDS) == kinds, (m.tables, bits)
        # a subset with several levels has a kind exactly when each cut has it
        for _ in range(20):
            values = [rng.randint(0, 3) for _ in range(m.order)]
            cuts = {sum(1 << i for i, v in enumerate(values) if v >= t) for t in set(values) - {0}}
            kinds = set(IDEAL_KINDS).intersection(*(want[cut] for cut in cuts))
            f = FuzzySubset(tuple(Fraction(v, 3) for v in values))
            assert CutKinds(m)(f, IDEAL_KINDS) == kinds, (m.tables, values)


# the products each kind and fixed-point key reads besides A and S
_KIND_PRODUCTS = {
    "subgroupoid": {"AA"},
    "left": {"SA"},
    "right": {"AS"},
    "two_sided": {"SA", "AS"},
    "bi": {"AA", "AS", "ASA"},
    "generalized_bi": {"AS", "ASA"},
    "interior": {"SA", "SAS"},
    "quasi": {"SA", "AS"},
    "idempotent": {"AA"},
    "=SA": {"SA"},
    "=AS": {"AS"},
    "=SAS": {"SA", "SAS"},
    "=ASA": {"AS", "ASA"},
    "=AA": {"AA"},
}


def test_one_kind_question_builds_only_the_products_it_reads(monkeypatch, ir5):
    built = []
    missing = KindProducts.__missing__

    def counted(products, key):
        built.append((products["A"], key))
        return missing(products, key)

    monkeypatch.setattr(KindProducts, "__missing__", counted)
    assert set(_KIND_PRODUCTS) == set(FUZZY_KINDS + FIXED_POINTS)
    for kind, reads in _KIND_PRODUCTS.items():
        seen = set()
        for f in Lattice(2).subsets(ir5.order):
            built.clear()
            CutKinds(ir5)(f, (kind,))
            # each product of a cut is built once, and only those kind reads;
            # a fixed-point key such as "=SA" is no product, though isupper() holds
            shapes = {shape for _, shape in built if shape.isalpha() and shape.isupper()}
            assert len(built) == len(set(built)) and shapes <= reads, (kind, f.values)
            seen.update(shapes)
        assert seen == reads, kind


# multi-part kinds and their parts, in table order
_PARTS = {"two_sided": ("left", "right"), "bi": ("subgroupoid", "generalized_bi")}


def test_multi_part_witness_is_the_first_failing_part(ir5, ag9):
    assert tuple(KIND_SHAPES) == IDEAL_KINDS
    for parts in KIND_SHAPES.values():
        for shape in (shape for part in parts for shape in part):
            assert len(shape) >= 2 and set(shape) <= {"A", "S"} and "A" in shape, shape
    for kind, parts in _PARTS.items():
        assert KIND_SHAPES[kind] == tuple(part for name in parts for part in KIND_SHAPES[name]), kind
    both_fail = {}
    for m, lattice in ((ir5, Lattice(2)), (ag9, Lattice(1))):
        for f in lattice.subsets(m.order):
            for kind, parts in _PARTS.items():
                witnesses = [kind_violation(m, f, part) for part in parts]
                first = next((w for w in witnesses if w is not None), None)
                assert kind_violation(m, f, kind) == first, (m.tables, f.values, kind)
                both_fail[m.order, kind] = both_fail.get((m.order, kind), 0) + (None not in witnesses)
    # on these subsets the part order decides which witness is reported
    assert both_fail == {(5, "two_sided"): 233, (5, "bi"): 189, (9, "two_sided"): 510, (9, "bi"): 501}
