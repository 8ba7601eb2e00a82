"""The mask and level-cut kind decisions against the naive oracles.

Crisp kinds are decided on product masks and fuzzy kinds on level cuts;
the oracles quantify straight from the defining inequalities.
"""

import random
from fractions import Fraction

import pytest

import oracles
from gammag.crisp import IDEAL_KINDS, CrispSubset, classify_subset, enumerate_ideals
from gammag.finder import SearchSpec, enumerate_models
from gammag.fuzzy import (
    FUZZY_KINDS,
    FuzzySubset,
    Lattice,
    characteristic,
    classify_fuzzy,
    has_fuzzy_kind,
    kind_violation,
    kinds_on_cuts,
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


def test_fuzzy_kinds_match_naive_on_every_lattice_subset(structures):
    for m, lattice in structures:
        for f in lattice.subsets(m.order):
            want = {kind for kind in FUZZY_KINDS if oracles.naive_fuzzy_kind(m, f.values, kind)}
            assert classify_fuzzy(m, f) == want, (m.tables, f.values)
            for kind in FUZZY_KINDS:
                assert has_fuzzy_kind(m, f, kind) == (kind in want), (m.tables, f.values, kind)
                assert (kind_violation(m, f, kind) is None) == (kind in want), (m.tables, f.values, kind)


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
            assert kinds_on_cuts(m, characteristic(a), IDEAL_KINDS) == kinds, (m.tables, bits)
        # a subset with several levels has a kind exactly when each cut has it
        for _ in range(20):
            values = [rng.randint(0, 3) for _ in range(m.order)]
            cuts = {sum(1 << i for i, v in enumerate(values) if v >= t) for t in set(values) - {0}}
            kinds = set(IDEAL_KINDS).intersection(*(want[cut] for cut in cuts))
            f = FuzzySubset(tuple(Fraction(v, 3) for v in values))
            assert kinds_on_cuts(m, f, IDEAL_KINDS) == kinds, (m.tables, values)
