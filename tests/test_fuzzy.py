import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gammag.core import InputError
from gammag.crisp import IDEAL_KINDS, CrispSubset, classify_subset, set_product
from gammag.fuzzy import (
    FUZZY_KINDS,
    CutKinds,
    FuzzySubset,
    Lattice,
    characteristic,
    classify_fuzzy,
    fuzzy_from_dict,
    gamma_product,
    has_fuzzy_kind,
    join,
    kind_violation,
    leq,
    level_cut,
    meet,
)

# ---------------------------------------------------------------------------
# containers and order structure


def test_subset_validation():
    f = FuzzySubset((Fraction(1, 2), 1, 0))
    assert f.order == 3
    assert f(0) == Fraction(1, 2)
    assert f.support() == (0, 1)
    with pytest.raises(InputError):
        FuzzySubset(())
    for value in (Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(InputError) as exc:
            FuzzySubset((value,))
        assert str(exc.value) == f"membership value {value} outside [0, 1]"
    with pytest.raises(InputError):
        f(3)
    # a tiny plain Fraction is in range; a subclass instance is stored as a plain Fraction
    assert FuzzySubset((Fraction(1, 10**400),)).values == (Fraction(1, 10**400),)
    stored = FuzzySubset((_Rational(1, 3),)).values[0]
    assert type(stored) is Fraction and stored == Fraction(1, 3)


class _Rational(Fraction):
    pass


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_fraction_membership_kept_exactly_in_range(p, q):
    value = Fraction(p, q)
    if 0 <= value <= 1:
        stored = FuzzySubset((value,)).values[0]
        assert type(stored) is Fraction and stored == value
    else:
        with pytest.raises(InputError):
            FuzzySubset((value,))


def test_constant_builders():
    assert FuzzySubset.ones(3).values == (Fraction(1),) * 3
    assert FuzzySubset.zeros(2).values == (Fraction(0),) * 2
    assert FuzzySubset.constant(2, Fraction(1, 3)).values == (Fraction(1, 3),) * 2
    for order in (True, 0, -1, 2.0):
        with pytest.raises(InputError, match="order"):
            FuzzySubset.constant(order, 1)
    with pytest.raises(InputError, match="order"):
        FuzzySubset.ones(False)
    with pytest.raises(InputError, match="order"):
        FuzzySubset.zeros(1.5)


def test_meet_join_leq():
    f = FuzzySubset((Fraction(1, 2), Fraction(1)))
    g = FuzzySubset((Fraction(1), Fraction(1, 4)))
    assert meet(f, g).values == (Fraction(1, 2), Fraction(1, 4))
    assert join(f, g).values == (Fraction(1), Fraction(1))
    assert leq(meet(f, g), f) and leq(f, join(f, g))
    assert not leq(f, g) and not leq(g, f)
    with pytest.raises(InputError):
        leq(f, FuzzySubset.ones(3))


# ---------------------------------------------------------------------------
# sup-min composition against the naive oracle


def test_product_matches_naive_exhaustive(ir5):
    lat = Lattice(1)
    subsets = list(lat.subsets(5))
    for f, g in itertools.product(subsets, repeat=2):
        got = gamma_product(ir5, f, g)
        assert got.values == oracles.naive_gamma_product(ir5, f.values, g.values)


def test_product_matches_naive_random(ir5, ag9, m2, li_models_small):
    rng = random.Random(411)

    def draw(order, den):
        return FuzzySubset(tuple(Fraction(rng.randint(0, den), den) for _ in range(order)))

    # one den for both factors on the corpus, two different dens on the small models
    pairs = []
    for m in (ir5, ag9, m2):
        for _ in range(120):
            den = rng.choice((2, 3, 5, 7))
            pairs.append((m, draw(m.order, den), draw(m.order, den)))
    for m in li_models_small:
        for _ in range(4):
            den_f, den_g = rng.sample((2, 3, 5, 7), 2)
            pairs.append((m, draw(m.order, den_f), draw(m.order, den_g)))
    for m, f, g in pairs:
        got = gamma_product(m, f, g)
        assert got.values == oracles.naive_gamma_product(m, f.values, g.values)


def test_product_carrier_mismatch(ir5):
    with pytest.raises(InputError):
        gamma_product(ir5, FuzzySubset.ones(4), FuzzySubset.ones(5))


def test_product_is_zero_without_factorizations(m2):
    got = gamma_product(m2, FuzzySubset.ones(2), FuzzySubset.ones(2))
    assert got.values == (Fraction(1), Fraction(0))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_product_is_monotone(ir5, data):
    def draw_vec():
        nums = data.draw(st.lists(st.integers(0, 4), min_size=5, max_size=5))
        return FuzzySubset(tuple(Fraction(n, 4) for n in nums))

    f, g, h = draw_vec(), draw_vec(), draw_vec()
    wider = join(f, g)
    assert leq(gamma_product(ir5, f, h), gamma_product(ir5, wider, h))
    assert leq(gamma_product(ir5, h, f), gamma_product(ir5, h, wider))


# ---------------------------------------------------------------------------
# crisp bridge


def test_characteristic_and_level_cut_round_trip():
    a = CrispSubset.from_elements(4, [1, 3])
    chi = characteristic(a)
    assert chi.values == (Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    assert level_cut(chi, 1) == a
    assert level_cut(chi, Fraction(1, 7)) == a
    with pytest.raises(InputError):
        level_cut(chi, 0)


def test_cut_of_product_is_product_of_cuts(ir5):
    lat = Lattice(2)
    subsets = list(lat.subsets(5))
    rng = random.Random(9)
    pairs = [(rng.choice(subsets), rng.choice(subsets)) for _ in range(200)]
    for f, g in pairs:
        fg = gamma_product(ir5, f, g)
        for t in (Fraction(1, 2), Fraction(1)):
            left = level_cut(fg, t)
            right = set_product(ir5, level_cut(f, t), level_cut(g, t))
            assert left == right


def test_fuzzy_kind_iff_every_cut_has_kind(ir5):
    lat = Lattice(2)
    thresholds = [t for t in lat.values() if t > 0]
    for f in lat.subsets(5):
        cuts = [level_cut(f, t) for t in thresholds]
        for kind in IDEAL_KINDS:
            want = all(
                not cut or oracles.naive_crisp_kind(ir5, set(cut), kind) for cut in cuts
            )
            assert has_fuzzy_kind(ir5, f, kind) == want, (f.values, kind)


def test_characteristic_classification_matches_crisp(ir5, ag9, m2):
    for m in (ir5, ag9, m2):
        for bits in range(1, 1 << m.order):
            a = CrispSubset(m.order, bits)
            fuzzy_kinds = classify_fuzzy(m, characteristic(a)) & set(IDEAL_KINDS)
            assert fuzzy_kinds == classify_subset(m, a)


# ---------------------------------------------------------------------------
# kind predicates against the naive oracle, plus witness replay


def test_kinds_match_naive_and_witnesses_replay(ir5, ag9, m2):
    cases = []
    for m in (ir5, ag9, m2):
        lat = Lattice(1)
        cases.extend((m, f) for f in lat.subsets(m.order))
    rng = random.Random(77)
    for m in (ir5, ag9):
        for _ in range(40):
            vec = tuple(Fraction(rng.randint(0, 3), 3) for _ in range(m.order))
            cases.append((m, FuzzySubset(vec)))
    for m, f in cases:
        for kind in FUZZY_KINDS:
            w = kind_violation(m, f, kind)
            assert (w is None) == oracles.naive_fuzzy_kind(m, f.values, kind)
            if w is not None:
                if w.relation == "geq":
                    assert w.lhs < w.rhs
                else:
                    assert w.relation == "eq" and w.lhs != w.rhs
                assert oracles._kind_point_check(
                    m, f.values, kind, w.elements, w.labels, w.lhs, w.rhs
                )


def test_kind_violation_rejects_unknown_kind(ir5):
    with pytest.raises(InputError):
        kind_violation(ir5, FuzzySubset.ones(5), "prime")
    # a product spelling, or a fixed-point key outside FIXED_POINTS, is no kind name
    for name in ("SA", "A", "=S", "=SSA", "=", ""):
        with pytest.raises(InputError):
            CutKinds(ir5)(FuzzySubset.ones(5), (name,))
        with pytest.raises(InputError):
            kind_violation(ir5, FuzzySubset.ones(5), name)


def test_classify_fuzzy_matches_single_kind_calls(ir5, ag9):
    for m in (ir5, ag9):
        for f in Lattice(1).subsets(m.order):
            kinds = classify_fuzzy(m, f)
            for kind in FUZZY_KINDS:
                assert (kind in kinds) == has_fuzzy_kind(m, f, kind)


def test_kind_scans_agree_with_defining_inequalities(ir5, ag9):
    # every kind restated through public product and order operations
    for m, lat in ((ir5, Lattice(2)), (ag9, Lattice(1))):
        ones = FuzzySubset.ones(m.order)
        for f in lat.subsets(m.order):
            of = gamma_product(m, ones, f)
            fo = gamma_product(m, f, ones)
            ff = gamma_product(m, f, f)
            assert has_fuzzy_kind(m, f, "subgroupoid") == leq(ff, f)
            assert has_fuzzy_kind(m, f, "left") == leq(of, f)
            assert has_fuzzy_kind(m, f, "right") == leq(fo, f)
            assert has_fuzzy_kind(m, f, "two_sided") == (leq(of, f) and leq(fo, f))
            assert has_fuzzy_kind(m, f, "generalized_bi") == leq(
                gamma_product(m, fo, f), f
            )
            assert has_fuzzy_kind(m, f, "bi") == (
                leq(ff, f) and leq(gamma_product(m, fo, f), f)
            )
            assert has_fuzzy_kind(m, f, "interior") == leq(gamma_product(m, of, ones), f)
            assert has_fuzzy_kind(m, f, "quasi") == leq(meet(of, fo), f)
            assert has_fuzzy_kind(m, f, "idempotent") == (ff == f)


# ---------------------------------------------------------------------------
# lattices and serialization


def test_lattice_values_and_count():
    lat = Lattice(4)
    assert lat.values() == tuple(Fraction(i, 4) for i in range(5))
    assert lat.count(3) == 125
    assert lat.contains(FuzzySubset((Fraction(3, 4), Fraction(0))))
    assert not lat.contains(FuzzySubset((Fraction(1, 3),)))
    with pytest.raises(InputError):
        Lattice(0)
    with pytest.raises(InputError):
        Lattice(True)


def test_lattice_subsets_enumeration_order():
    got = [f.values for f in Lattice(1).subsets(2)]
    z, o = Fraction(0), Fraction(1)
    assert got == [(z, z), (z, o), (o, z), (o, o)]
    assert Lattice(4).subset((4, 2, 0)).values == (o, Fraction(1, 2), z)
    with pytest.raises(InputError):
        list(Lattice(1).subsets(0))


def test_fuzzy_from_dict_round_trip():
    f = FuzzySubset((Fraction(1, 2), Fraction(1, 3), Fraction(0)))
    d = f.to_dict()
    assert d == {"den": 6, "num": [3, 2, 0]}
    assert fuzzy_from_dict(d) == f
    assert fuzzy_from_dict(d, order=3) == f


def test_fuzzy_from_dict_validation():
    good = {"den": 2, "num": [0, 1, 2]}
    assert fuzzy_from_dict(good).values == (Fraction(0), Fraction(1, 2), Fraction(1))
    for bad in (
        [1, 2],
        {"den": 2},
        {"num": [1]},
        {"den": 2, "num": [1], "extra": 0},
        {"den": 0, "num": [0]},
        {"den": True, "num": [1]},
        {"den": 2, "num": []},
        {"den": 2, "num": [3]},
        {"den": 2, "num": [-1]},
        {"den": 2, "num": [True]},
        {"den": 2, "num": "11"},
    ):
        with pytest.raises(InputError):
            fuzzy_from_dict(bad)
    with pytest.raises(InputError):
        fuzzy_from_dict(good, order=2)
