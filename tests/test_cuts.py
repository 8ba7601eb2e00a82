"""The mask and level-cut kind decisions against the naive oracles.

Crisp kinds are decided on product masks and fuzzy kinds on level cuts;
the oracles quantify straight from the defining inequalities.
"""

import pytest

import oracles
from gammag.crisp import IDEAL_KINDS, CrispSubset, classify_subset
from gammag.fuzzy import FUZZY_KINDS, Lattice, classify_fuzzy, has_fuzzy_kind, kind_violation


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
