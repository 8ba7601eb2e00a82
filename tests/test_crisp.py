import itertools
import random

import pytest

import oracles
from gammag import crisp
from gammag.core import ROW_UNION_BUDGET, CapacityError, GammaMagma, InputError
from gammag.crisp import (
    IDEAL_KINDS,
    CrispSubset,
    IntraWitness,
    classify_subset,
    enumerate_ideals,
    intra_regular_witness,
    intra_witness_valid,
    is_intra_regular,
    set_product,
    subset_from_json,
)

# ---------------------------------------------------------------------------
# subset container


def test_subset_basics():
    a = CrispSubset.from_elements(5, [3, 0, 3])
    assert a.elements() == (0, 3)
    assert 3 in a and 1 not in a and 9 not in a
    assert len(a) == 2 and bool(a)
    assert list(a) == [0, 3]
    assert not CrispSubset.empty(5)
    assert CrispSubset.full(5).elements() == (0, 1, 2, 3, 4)
    b = CrispSubset.from_elements(5, [1, 3])
    assert a.union(b).elements() == (0, 1, 3)
    assert a.intersection(b).elements() == (3,)
    assert a.intersection(b).issubset(a) and not a.issubset(b)
    assert a.to_json() == [0, 3]


@pytest.mark.parametrize("value", [1.5, "a", True, None, [1]])
def test_membership_of_a_non_element_is_false(value):
    # a value checked_int refuses is no element, not a TypeError
    assert value not in CrispSubset(2, 3)


def test_subset_validation():
    with pytest.raises(InputError):
        CrispSubset(0, 0)
    with pytest.raises(InputError):
        CrispSubset(True, 1)
    with pytest.raises(InputError):
        CrispSubset(3, 8)
    with pytest.raises(InputError):
        CrispSubset(3, True)
    with pytest.raises(InputError):
        CrispSubset.from_elements(3, [3])
    with pytest.raises(InputError):
        CrispSubset.from_elements(3, [True])
    with pytest.raises(InputError):
        CrispSubset(3, 1).union(CrispSubset(4, 1))
    with pytest.raises(InputError):
        subset_from_json(3, {"a": 1})
    assert subset_from_json(3, [2, 0]).elements() == (0, 2)


# ---------------------------------------------------------------------------
# products and classification against the naive oracle


def test_set_product_matches_naive_everywhere(ir5):
    subsets = [CrispSubset(5, bits) for bits in range(32)]
    for a, b in itertools.product(subsets, repeat=2):
        got = set(set_product(ir5, a, b))
        want = oracles.naive_set_product(ir5, set(a), set(b))
        assert got == want


@pytest.mark.parametrize("order, width", [(1, 8), (9, 8), (30, 7), (45, 5), (64, 4), (100, 1), (256, 1)])
def test_set_product_matches_naive_at_every_chunk_width(order, width):
    # the row-union index narrows its chunks as the order grows, and holds
    # at most max(ROW_UNION_BUDGET, 2 * order**2) entries at any order
    rng = random.Random(order)
    tables = [[[rng.randrange(order) for _ in range(order)] for _ in range(order)] for _ in range(2)]
    m = GammaMagma(order, ("a", "b"), tables)
    w, _, index = m.row_unions
    assert w == width
    assert len(index) <= max(ROW_UNION_BUDGET, 2 * order * order)
    for _ in range(10):
        a, b = (CrispSubset(order, rng.getrandbits(order)) for _ in range(2))
        assert set(set_product(m, a, b)) == oracles.naive_set_product(m, set(a), set(b))


def test_set_product_carrier_mismatch(ir5):
    with pytest.raises(InputError):
        set_product(ir5, CrispSubset.full(4), CrispSubset.full(5))


def test_classify_frozen_examples(ir5):
    assert classify_subset(ir5, CrispSubset.from_elements(5, [0, 1])) == set(IDEAL_KINDS)
    assert classify_subset(ir5, CrispSubset.from_elements(5, [2])) == set()
    with pytest.raises(InputError):
        classify_subset(ir5, CrispSubset.empty(5))


def test_classify_matches_naive_on_corpus(ir5, ag9):
    for m in (ir5, ag9):
        for bits in range(1, 1 << m.order):
            a = CrispSubset(m.order, bits)
            got = classify_subset(m, a)
            want = {k for k in IDEAL_KINDS if oracles.naive_crisp_kind(m, set(a), k)}
            assert got == want, (m.order, bits)


def test_two_sided_ideals_are_quasi(ir5, ag9, li_models_small):
    for m in (ir5, ag9, *li_models_small):
        for a in enumerate_ideals(m, "two_sided"):
            kinds = classify_subset(m, a)
            assert "quasi" in kinds


def _seeded_structure(rng, n, k):
    # entries mostly at or below min(x, y), so down-sets are often ideals
    # and every kind has members to find
    return GammaMagma(order=n, gamma=tuple("abc"[:k]), tables=tuple(
        tuple(tuple(rng.randrange(min(x, y) + 1) if rng.random() < 0.8 else rng.randrange(n) for y in range(n))
              for x in range(n))
        for _ in range(k)))


def _seeded_large_structures():
    # orders 9-14: the last row-union chunk is 1-6 elements wide, below 8
    rng = random.Random(1809)
    return [_seeded_structure(rng, n, 1 + n % 3) for n in range(9, 15)]


def test_enumerate_ideals_matches_naive(ir5, ag9, li_models_small):
    for m in (*li_models_small, ir5, ag9, *_seeded_large_structures()):
        want = {kind: [] for kind in IDEAL_KINDS}
        for bits in range(1, 1 << m.order):
            a = set(CrispSubset(m.order, bits))
            for kind in IDEAL_KINDS:
                if oracles.naive_crisp_kind(m, a, kind):
                    want[kind].append(bits)
        for kind in IDEAL_KINDS:
            assert [a.bits for a in enumerate_ideals(m, kind)] == want[kind], (m.tables, kind)


def test_enumerate_ideals_above_the_oracle_orders():
    # order 16: each kind's list is the masks classify_subset gives the kind
    m = _seeded_structure(random.Random(1830), 16, 2)
    want = {kind: [] for kind in IDEAL_KINDS}
    for bits in range(1, 1 << m.order):
        for kind in classify_subset(m, CrispSubset(m.order, bits)):
            want[kind].append(bits)
    for kind in IDEAL_KINDS:
        assert [a.bits for a in enumerate_ideals(m, kind)] == want[kind], kind


def test_enumerate_ideals_order_18_family_sizes():
    # x a y = x, x b y = min(x, y): every subset is a subgroupoid, and the
    # down-sets {0, ..., k} are the right, bi, generalized bi and quasi ideals
    n = 18
    m = GammaMagma(order=n, gamma=("a", "b"), tables=(
        tuple(tuple(x for _ in range(n)) for x in range(n)),
        tuple(tuple(min(x, y) for y in range(n)) for x in range(n))))
    sizes = [len(enumerate_ideals(m, kind)) for kind in IDEAL_KINDS]
    assert sizes == [2**n - 1, 1, n, 1, n, n, 1, n]
    assert [a.bits for a in enumerate_ideals(m, "bi")] == [(2 << k) - 1 for k in range(n)]


def test_enumerate_ideals_cost_follows_the_family(monkeypatch):
    # each member is reached from the one before in at most n closures of
    # at most n steps, each step one product per factor after the first
    m = _seeded_large_structures()[3]
    assert m.order == 12
    calls = []

    def counted(rows, a, b):
        calls.append((a, b))
        return mask_product(rows, a, b)

    mask_product = crisp._mask_product
    monkeypatch.setattr(crisp, "_mask_product", counted)
    for kind in IDEAL_KINDS:
        calls.clear()
        family = enumerate_ideals(m, kind)
        factors = sum(len(shape) - 1 for part in crisp.KIND_SHAPES[kind] for shape in part)
        assert 0 < len(calls) <= len(family) * m.order ** 2 * factors < 2 ** m.order, kind


def test_enumerate_ideals_frozen_two_sided(ir5):
    ideals = enumerate_ideals(ir5, "two_sided")
    assert [a.to_json() for a in ideals] == [[0], [0, 1], [0, 1, 2, 3, 4]]


def test_enumerate_ideals_rejects_unknown_kind(ir5):
    with pytest.raises(InputError):
        enumerate_ideals(ir5, "prime")


def test_enumerate_ideals_order_cap():
    n = 21
    table = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    m = GammaMagma(order=n, gamma=("a",), tables=(table,))
    with pytest.raises(CapacityError):
        enumerate_ideals(m, "left")


# ---------------------------------------------------------------------------
# intra-regularity


def test_known_decompositions_validate(ir5):
    # one concrete decomposition per element, checked by direct evaluation
    known = [
        IntraWitness(0, 1, 0, "1", "1", "1"),
        IntraWitness(1, 2, 3, "1", "1", "1"),
        IntraWitness(2, 2, 3, "1", "1", "1"),
        IntraWitness(3, 2, 4, "1", "1", "1"),
        IntraWitness(4, 2, 2, "1", "1", "1"),
    ]
    for w in known:
        assert intra_witness_valid(ir5, w)
    d = known[2].to_dict(ir5)
    assert d["display"] == "c = (c 1 (c 1 c)) 1 d"


def test_intra_witness_is_scan_minimal(ir5, ag9, intra_ss_models_3):
    for m in (ir5, ag9, *intra_ss_models_3):
        for a in range(m.order):
            w = intra_regular_witness(m, a)
            want = oracles.naive_intra_witness(m, a)
            if want is None:
                assert w is None
            else:
                assert w is not None
                assert (w.x, w.y, w.beta, w.xi, w.gamma) == want
                assert intra_witness_valid(m, w)


def test_intra_regular_flags(ir5, ag9, m2, intra_ss_models_3):
    assert is_intra_regular(ir5)
    assert is_intra_regular(ag9)
    assert not is_intra_regular(m2)
    for m in intra_ss_models_3:
        assert is_intra_regular(m)


def _all_tables(n, k):
    for flat in itertools.product(range(n), repeat=k * n * n):
        yield GammaMagma(order=n, gamma=tuple("ab"[:k]), tables=tuple(
            tuple(flat[t * n * n + x * n:t * n * n + x * n + n] for x in range(n)) for t in range(k)))


def test_intra_regular_matches_witness_search():
    rng = random.Random(4242)
    seeded = [GammaMagma(order=n, gamma=tuple("ab"[:k]), tables=tuple(
        tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)) for _ in range(k)))
        for n, k in ((rng.randint(4, 8), rng.randint(1, 2)) for _ in range(200))]
    tables = [*(m for n in (1, 2, 3) for m in _all_tables(n, 1)), *_all_tables(2, 2), *seeded]
    flags = []
    for m in tables:
        want = all(oracles.naive_intra_witness(m, a) is not None for a in range(m.order))
        assert is_intra_regular(m) == want, m.tables
        flags.append(want)
    assert any(flags) and not all(flags)


def test_intra_witness_bad_element(ir5):
    with pytest.raises(InputError):
        intra_regular_witness(ir5, 5)
    with pytest.raises(InputError):
        intra_regular_witness(ir5, True)


# ---------------------------------------------------------------------------
# structural consequences checked extensionally


def test_seven_kinds_coincide_when_intra_regular(ir5, intra_ss_models_3):
    kinds = ("left", "right", "two_sided", "bi", "generalized_bi", "interior", "quasi")
    for m in (ir5, *intra_ss_models_3):
        families = [[a.bits for a in enumerate_ideals(m, k)] for k in kinds]
        assert all(fam == families[0] for fam in families[1:])


def test_full_product_detects_factorizability(ir5, ag9, m2):
    for m in (ir5, ag9, m2):
        s = CrispSubset.full(m.order)
        assert (set_product(m, s, s) == s) == m.every_element_factorizable
