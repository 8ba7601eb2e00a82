import itertools
import pickle

import pytest

import oracles
from gammag import finder
from gammag.cli import main
from gammag.core import LAW_TERMS, CapacityError, GammaMagma, InputError, LawWitness, check_laws
from gammag.crisp import CrispSubset, IntraWitness, is_intra_regular
from gammag.finder import (
    DEFAULT_NODE_BUDGET,
    FINDER_PROPERTIES,
    ISO_MODES,
    MAX_ORDER,
    SearchBudgetError,
    SearchSpec,
    count_models,
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
    with pytest.raises(InputError):
        SearchSpec(order=2.5)
    with pytest.raises(InputError):
        SearchSpec(order=2, budget=True)
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


def _seen_set_instances(n, k, laws):
    """Law instance buckets built with a set of the equations kept so far:
    an instance is dropped when its two sides are equal or when its side
    swap is already in the set."""
    n2 = n * n
    total = k * n2
    buckets = [[] for _ in range(total)]
    seen = set()

    def cell(term, env, labels):
        if isinstance(term, str):
            return total + env[term]
        g, left, right = term
        return labels[g] * n2 + env[left] * n + env[right]

    def side(term, env, labels):
        if isinstance(term, str) or all(isinstance(op, str) for op in term[1:]):
            return (cell(term, env, labels), total, total)
        g, left, right = term
        return (labels[g] * n2, cell(left, env, labels), cell(right, env, labels))

    for law, (variables, slots, (lhs, rhs)) in LAW_TERMS.items():
        if law not in laws:
            continue
        for elements in itertools.product(range(n), repeat=len(variables)):
            env = dict(zip(variables, elements))
            for labels in itertools.product(range(k), repeat=slots):
                s1, s2 = side(lhs, env, labels), side(rhs, env, labels)
                if s1 == s2 or (s2, s1) in seen:
                    continue
                seen.add((s1, s2))
                static = [c for b, p, q in (s1, s2) for c in ((b,) if p == q == total else (p, q))]
                buckets[max(c for c in static if c < total)].append(s1 + s2)
    return buckets


def test_mirror_rule_keeps_the_seen_set_buckets():
    # the same instances in the same buckets and order, law by law
    cases = 0
    for law, (variables, slots, _) in LAW_TERMS.items():
        for n, k in itertools.product(range(1, 5), range(1, 4)):
            if n ** len(variables) * k**slots <= 200_000:
                assert finder._build_instances(n, k, (law,)) == _seen_set_instances(n, k, (law,)), (law, n, k)
                cases += 1
    assert cases == 84


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
# shared rows and slotted result records


def _rows(got):
    return [row for m in got for table in m.tables for row in table]


def test_models_of_one_search_share_equal_rows():
    spec = SearchSpec(order=4, gamma_count=2, laws=("ag_star_star", "left_invertive"))
    first, second = list(enumerate_models(spec)), list(enumerate_models(spec))
    assert len(first) == 1802
    rows = _rows(first)
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)
    assert len({id(m.gamma) for m in first}) == 1
    # the shared rows die with their search: a second run has rows of its own
    assert not {id(row) for row in rows} & {id(row) for row in _rows(second)}


def test_result_records_are_slotted_and_pickle_unchanged():
    records = (CrispSubset(3, 5), IntraWitness(0, 1, 2, "a", "b", "c"),
               LawWitness("medial", (0, 1, 2, 0), ("a", "b", "a"), 0, 1))
    for record in records:
        assert not hasattr(record, "__dict__")
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and hash(copy) == hash(record)


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


def _outcome(search):
    # how many items the search gives, or where its budget stopped it
    try:
        return search(), None
    except SearchBudgetError as e:
        return None, (str(e), e.frontier, e.emitted)


def test_count_models_matches_enumeration():
    # the grid of tests/test_golden.py::test_finder_search_pinned, then the
    # filters decided on completed structures, under the default budget
    # and a budget that stops the search part way
    law_sets = [(law,) for law in LAW_TERMS] + [("ag_star_star", "left_invertive")]
    specs = [
        SearchSpec(order=n, gamma_count=k, laws=laws, iso_mode=mode, budget=budget)
        for laws in law_sets
        for n in range(1, 5)
        for k in range(1, 4)
        for mode in ISO_MODES
        for budget in (200, 3_000)
    ]
    specs += [
        SearchSpec(order=n, gamma_count=k, laws=laws, iso_mode=mode, intra_regular=intra, budget=budget)
        for laws, intra in [(("has_left_identity", "left_invertive"), False),
                            (("left_invertive",), True),
                            (("ag_star_star", "has_left_identity", "left_invertive"), True)]
        for n in range(1, 4)
        for k in (1, 2)
        for mode in ISO_MODES
        for budget in (300, DEFAULT_NODE_BUDGET)
    ]
    stops = 0
    for spec in specs:
        counted = _outcome(lambda: count_models(spec))
        assert counted == _outcome(lambda: sum(1 for _ in enumerate_models(spec))), spec
        stops += counted[1] is not None
    # both outcomes are exercised
    assert 0 < stops < len(specs)


def test_count_models_builds_no_model(monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(finder, "GammaMagma", unbuilt)
    assert count_models(SearchSpec(order=4, gamma_count=2)) == 117686


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
    with pytest.raises(SearchBudgetError, match="479001600 members") as info:
        next(enumerate_models(spec))
    assert info.value.frontier == () and info.value.emitted == 0
    # 5! * 2! = 240 members against a budget of 200: the same refusal
    spec = SearchSpec(order=5, gamma_count=2, iso_mode="elements_and_gamma", budget=200)
    with pytest.raises(SearchBudgetError, match="240 members") as info:
        next(enumerate_models(spec))
    assert info.value.frontier == () and info.value.emitted == 0
    argv = ["enumerate", "--order", "1", "--gamma", "12", "--iso", "elements_and_gamma", "--count"]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


def test_oversized_law_instances_are_refused(monkeypatch, capsys):
    # order 4 with 8 labels gives 4^4 * 8^3 = 131072 medial instances:
    # refused before any is built
    def unbuilt(*args):
        raise AssertionError("law instances built before the budget check")

    monkeypatch.setattr(finder, "_build_instances", unbuilt)
    spec = SearchSpec(order=4, gamma_count=8, laws=("medial",), budget=1000)
    with pytest.raises(CapacityError, match="131072 law instances exceed node budget 1000"):
        next(enumerate_models(spec))
    monkeypatch.setenv("AGG_BUDGET", "1000")
    assert main(["enumerate", "--order", "4", "--gamma", "8", "--laws", "medial", "--count"]) == 3
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
    # brute force: the least left-invertive one-label table with the
    # defect, over every table of order 1, 2 and 3 in ascending order
    defects = {
        "non_factorizable_element": lambda flat, n: set(flat) != set(range(n)),
        "non_commutative_ag": lambda flat, n: not oracles.law_commutative(flat, n, 1),
        "ag_not_ag_star_star": lambda flat, n: not oracles.law_ag_star_star(flat, n, 1),
    }
    assert tuple(defects) == FINDER_PROPERTIES
    for prop, has_defect in defects.items():
        least = next(
            (n, flat)
            for n in (1, 2, 3)
            for flat in itertools.product(range(n), repeat=n * n)
            if oracles.law_left_invertive(flat, n, 1) and has_defect(flat, n)
        )
        m = find_counterexample_structure(prop)
        assert (m.order, oracles.magma_flat(m)) == least, prop


def test_counterexample_unknown_property():
    with pytest.raises(InputError):
        find_counterexample_structure("nonsense")
