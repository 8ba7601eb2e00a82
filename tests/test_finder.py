import itertools

import pytest

import oracles
from gammag import finder
from gammag.cli import main
from gammag.core import CapacityError, GammaMagma, InputError, check_laws
from gammag.crisp import is_intra_regular
from gammag.finder import (
    FINDER_PROPERTIES,
    ISO_MODES,
    MAX_ORDER,
    SearchBudgetError,
    SearchSpec,
    enumerate_models,
    find_counterexample_structure,
)


def models(**kwargs):
    return list(enumerate_models(SearchSpec(**kwargs)))


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    with pytest.raises(InputError):
        SearchSpec(order=0)
    with pytest.raises(InputError):
        SearchSpec(order=MAX_ORDER + 1)
    with pytest.raises(InputError):
        SearchSpec(order=2, gamma_count=0)
    with pytest.raises(InputError):
        SearchSpec(order=2, gamma_count=27)
    with pytest.raises(InputError):
        SearchSpec(order=2, laws=("invertive",))
    with pytest.raises(InputError):
        SearchSpec(order=2, iso_mode="none")
    with pytest.raises(InputError):
        SearchSpec(order=2, budget=0)
    spec = SearchSpec(order=2, laws=("medial", "left_invertive", "medial"))
    assert spec.laws == ("left_invertive", "medial")


# ---------------------------------------------------------------------------
# counts against the naive filter-all-tables oracle


def test_single_label_counts_match_naive():
    # every law alone, and two labels at order 2 where the modes differ
    for law, pred in oracles.LAW_PREDICATES.items():
        for n, k in ((1, 1), (2, 1), (3, 1), (2, 2)):
            for mode in ISO_MODES:
                _, classes = oracles.naive_model_counts(
                    n, k, (pred,), with_gamma=(mode == "elements_and_gamma")
                )
                got = models(order=n, gamma_count=k, laws=(law,), iso_mode=mode)
                assert len(got) == classes, (law, n, k, mode)
    for n in (1, 2, 3):
        raw, classes = oracles.naive_model_counts(
            n, 1, (oracles.law_left_invertive,), with_gamma=False
        )
        assert (n, raw, classes) in {(1, 1, 1), (2, 6, 3), (3, 105, 20)}


def test_single_label_strong_counts_match_naive():
    preds = (oracles.law_left_invertive, oracles.law_ag_star_star)
    raw, classes = oracles.naive_model_counts(3, 1, preds, with_gamma=False)
    assert (raw, classes) == (81, 16)
    got = models(order=3, laws=("ag_star_star", "left_invertive"))
    assert len(got) == 16


def test_two_label_counts_match_naive_small():
    raw_eo, eo = oracles.naive_model_counts(
        2, 2, (oracles.law_left_invertive,), with_gamma=False
    )
    raw_eg, eg = oracles.naive_model_counts(
        2, 2, (oracles.law_left_invertive,), with_gamma=True
    )
    assert (raw_eo, eo, raw_eg, eg) == (14, 7, 14, 6)
    assert len(models(order=2, gamma_count=2)) == 7
    assert len(models(order=2, gamma_count=2, iso_mode="elements_and_gamma")) == 6


def test_two_label_counts_match_factored_oracle():
    # full scan at order 3 with two labels is out of reach, so pair the
    # 105 single-label tables and keep pairs satisfying the mixed-label
    # law instances, then bucket by canonical form
    n = 3
    singles = []
    for flat in itertools.product(range(n), repeat=n * n):
        if oracles.law_left_invertive(flat, n, 1):
            singles.append(flat)
    assert len(singles) == 105

    def mixed_ok(t0, t1):
        tables = (t0, t1)
        for a, b in ((0, 1), (1, 0)):
            ta, tb = tables[a], tables[b]
            for x, y, z in itertools.product(range(n), repeat=3):
                if tb[ta[x * n + y] * n + z] != tb[ta[z * n + y] * n + x]:
                    return False
        return True

    raws = [t0 + t1 for t0 in singles for t1 in singles if mixed_ok(t0, t1)]
    assert len(raws) == 1095
    eo = {oracles.canonical_flat(flat, n, 2, with_gamma=False) for flat in raws}
    eg = {oracles.canonical_flat(flat, n, 2, with_gamma=True) for flat in raws}
    assert (len(eo), len(eg)) == (187, 112)
    assert len(models(order=3, gamma_count=2)) == 187
    assert len(models(order=3, gamma_count=2, iso_mode="elements_and_gamma")) == 112


def test_pool_totals(li_models_small, ss_models_small):
    assert len(li_models_small) == 219
    assert len(ss_models_small) == 105


# ---------------------------------------------------------------------------
# emitted models: soundness, canonicity, order, determinism


def test_emitted_models_satisfy_requested_laws():
    for kwargs in (
        {"order": 3},
        {"order": 3, "laws": ("ag_star_star", "left_invertive")},
        {"order": 2, "gamma_count": 2, "laws": ("band", "left_invertive")},
        {"order": 3, "laws": ("commutative", "left_invertive")},
        {"order": 2, "laws": ("associative", "left_invertive", "medial")},
    ):
        got = models(**kwargs)
        assert got
        for m in got:
            rep = check_laws(m)
            for law in kwargs.get("laws", ("left_invertive",)):
                assert rep.holds(law)


def test_emitted_models_are_canonical_and_ascending():
    for mode in ISO_MODES:
        for kwargs in ({"order": 3}, {"order": 2, "gamma_count": 2}):
            got = models(iso_mode=mode, **kwargs)
            flats = [oracles.magma_flat(m) for m in got]
            assert flats == sorted(flats)
            assert len(set(flats)) == len(flats)
            n = kwargs["order"]
            k = kwargs.get("gamma_count", 1)
            for flat in flats:
                assert flat == oracles.canonical_flat(
                    flat, n, k, with_gamma=(mode == "elements_and_gamma")
                )


def test_emitted_models_are_pairwise_non_isomorphic():
    got = models(order=3)
    for a, b in itertools.combinations(got, 2):
        assert not oracles.isomorphic(a, b, with_gamma=False)
    got = models(order=2, gamma_count=2, iso_mode="elements_and_gamma")
    for a, b in itertools.combinations(got, 2):
        assert not oracles.isomorphic(a, b, with_gamma=True)


def test_enumeration_is_deterministic():
    spec = SearchSpec(order=3, gamma_count=2)
    assert [m.to_dict() for m in enumerate_models(spec)] == [
        m.to_dict() for m in enumerate_models(spec)
    ]


def test_gamma_labels_and_shape():
    got = models(order=2, gamma_count=3)
    for m in got:
        assert m.gamma == ("a", "b", "c")
        assert m.order == 2 and len(m.tables) == 3


# ---------------------------------------------------------------------------
# intra-regular post-filter


def test_intra_regular_filter(intra_ss_models_3, ss_models_small):
    assert len(intra_ss_models_3) == 6
    base = models(order=3, laws=("ag_star_star", "left_invertive"))
    want = [m for m in base if is_intra_regular(m)]
    assert [m.to_dict() for m in intra_ss_models_3] == [m.to_dict() for m in want]
    for m in intra_ss_models_3:
        assert is_intra_regular(m)


# ---------------------------------------------------------------------------
# budgets


def test_budget_exhaustion_is_reported():
    full = models(order=3)
    partial = []
    with pytest.raises(SearchBudgetError) as info:
        for m in enumerate_models(SearchSpec(order=3, budget=300)):
            partial.append(m)
    err = info.value
    assert err.emitted == len(partial) < len(full)
    assert isinstance(err.frontier, tuple) and len(err.frontier) <= 9
    assert all(isinstance(v, int) for v in err.frontier)
    assert "300" in str(err)
    # whatever was emitted before exhaustion is a prefix of the full list
    assert [m.to_dict() for m in partial] == [m.to_dict() for m in full[: len(partial)]]


def test_oversized_isomorphism_group_is_refused(monkeypatch, capsys):
    # 12 labels give 12! label permutations: refused before any is made
    real = itertools.permutations

    def guarded(iterable, *args):
        pool = tuple(iterable)
        if len(pool) > 8:
            raise AssertionError(f"permutations of {len(pool)} items requested")
        return real(pool, *args)

    monkeypatch.setattr(finder.itertools, "permutations", guarded)
    spec = SearchSpec(order=1, gamma_count=12, iso_mode="elements_and_gamma")
    with pytest.raises(CapacityError, match="479001600 members"):
        next(enumerate_models(spec))
    argv = ["enumerate", "--order", "1", "--gamma", "12", "--iso", "elements_and_gamma", "--count"]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# smallest structures with a named defect


def test_counterexample_structures_frozen():
    m = find_counterexample_structure("non_factorizable_element")
    assert m.order == 2 and m.tables == (((0, 0), (0, 0)),)
    assert not m.every_element_factorizable
    rep = check_laws(m)
    assert rep.left_invertive and rep.ag_star_star

    m = find_counterexample_structure("non_commutative_ag")
    assert m.order == 3 and m.tables == (((0, 0, 0), (0, 0, 0), (0, 1, 0)),)
    rep = check_laws(m)
    assert rep.left_invertive and not rep.commutative

    m = find_counterexample_structure("ag_not_ag_star_star")
    assert m.order == 3 and m.tables == (((0, 0, 0), (0, 0, 0), (1, 0, 0)),)
    rep = check_laws(m)
    assert rep.left_invertive and not rep.ag_star_star


def test_counterexample_structures_are_lex_least():
    # no smaller left-invertive table at the same order has the defect,
    # and no smaller order has one at all
    checks = {
        "non_factorizable_element": lambda flat, n: any(
            a not in {flat[b * n + c] for b in range(n) for c in range(n)}
            for a in range(n)
        ),
        "non_commutative_ag": lambda flat, n: any(
            flat[x * n + y] != flat[y * n + x]
            for x in range(n)
            for y in range(n)
        ),
        "ag_not_ag_star_star": lambda flat, n: not oracles.law_ag_star_star(
            flat, n, 1
        ),
    }
    for prop, has_defect in checks.items():
        m = find_counterexample_structure(prop)
        n = m.order
        found = m.tables[0]
        for smaller in range(1, n):
            for flat in itertools.product(range(smaller), repeat=smaller * smaller):
                if oracles.law_left_invertive(flat, smaller, 1):
                    assert not has_defect(flat, smaller)
        for flat in itertools.product(range(n), repeat=n * n):
            if oracles.law_left_invertive(flat, n, 1) and has_defect(flat, n):
                first = tuple(tuple(flat[r * n : r * n + n]) for r in range(n))
                assert first == found
                break


def test_counterexample_unknown_property():
    with pytest.raises(InputError):
        find_counterexample_structure("nonsense")
