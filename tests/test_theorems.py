import itertools
import random
from fractions import Fraction

import pytest

import oracles
from gammag.core import CapacityError, GammaMagma, InputError
from gammag.fuzzy import FUZZY_KINDS, FuzzySubset, Lattice, gamma_product, leq, meet
from gammag import fuzzy, theorems
from gammag.crisp import KindProducts
from gammag.theorems import (
    DEFAULT_TUPLE_BUDGET,
    HYPOTHESIS_NAMES,
    REGISTRY,
    REGISTRY_ORDER,
    sample_subset,
    semilattice_report,
    structure_hypotheses,
    two_sided_family,
    verify,
    verify_all,
)

ALL_IDS = (
    "sf",
    "sf_factorizable",
    "trm_i",
    "trm_ii",
    "agss_i",
    "agss_ii",
    "rl_cap_quasi",
    "qqq",
    "idem_quasi_bi",
    "onesided_quasi",
    "onesided_genbi",
    "idemquasi_prod_bi",
    "prod_onesided",
    "llb",
    "left_idem",
    "cap_eq_prod",
    "semi1",
    "irr_iff_prime",
    "all_prime_iff_chain",
    "inte",
    "q2",
    "gener",
    "bii",
    "bi_fixedpoint",
    "interior_fixedpoint",
    "l145",
    "grand_equiv",
)

FAMILY_IDS = ("semi1", "irr_iff_prime", "all_prime_iff_chain")


@pytest.fixture(scope="module")
def ir5_battery(ir5):
    return verify_all(ir5, Lattice(1))


@pytest.fixture(scope="module")
def ag9_battery(ag9):
    return verify_all(ag9, Lattice(1))


# ---------------------------------------------------------------------------
# registry shape


def test_registry_order_is_frozen():
    assert REGISTRY_ORDER == ALL_IDS
    assert set(REGISTRY) == set(ALL_IDS)


def _row_terms_and_kinds(row):
    """Every term and every kind a registry row names."""
    _, _, _, filters, shape, items = row
    kinds = {k for spec in filters for alt in spec.split("|") for k in alt.split("&") if k}
    terms = []
    if shape == "family":
        return terms, kinds
    for item in items:
        if shape == "coincide":
            if isinstance(item, str):
                kinds.add(item)
            else:
                terms += [t for lhs, _, rhs in item[1] for t in (lhs, rhs)]
            continue
        lhs, rel, rhs, *guard = item
        if rel == "is":
            terms.append(lhs)
            kinds.add(rhs)
        else:
            terms += [lhs, rhs]
        for kinds_of_variables in guard:
            kinds.update(kinds_of_variables)
    return terms, kinds


def test_registry_entries_are_well_formed(m2):
    assert tuple(row[0] for row in theorems._ROWS) == REGISTRY_ORDER
    subsets = dict(zip("fghk", (FuzzySubset.ones(2).values,) * 4))
    for row in theorems._ROWS:
        tid = row[0]
        entry = REGISTRY[tid]
        assert entry.theorem_id == tid
        assert entry.summary and isinstance(entry.summary, str)
        assert set(entry.hypotheses) <= set(HYPOTHESIS_NAMES)
        assert "gamma_ag" in entry.hypotheses
        if tid in FAMILY_IDS:
            assert entry.family and entry.arity == 0 and callable(entry.check)
        else:
            assert not entry.family and 1 <= entry.arity <= 4
            assert callable(entry.check)
            assert len(entry.pre_filters) == entry.arity
        terms, kinds = _row_terms_and_kinds(row)
        assert kinds <= set(FUZZY_KINDS), tid
        for term in terms:
            oracles.eval_expr(theorems._render(term), m2, subsets)


def test_linear_rows_are_the_four_composition_identities():
    assert {tid for tid, entry in REGISTRY.items() if entry.linear} == {"trm_i", "trm_ii", "agss_i", "agss_ii"}


def test_structure_hypotheses_cached_per_structure(monkeypatch, li_models_small):
    # more structures than any small fixed-size cache holds, under gamma
    # labels no other test uses, each decided once across two sweeps
    models = [
        GammaMagma(order=m.order, gamma=tuple(f"probe{i}" for i in range(len(m.gamma))), tables=m.tables)
        for m in li_models_small
    ]
    assert len(models) == 219
    calls = []
    real = theorems.check_laws
    monkeypatch.setattr(theorems, "check_laws", lambda m: calls.append(m) or real(m))
    for _ in range(2):
        for m in models:
            verify(m, "sf", Lattice(1))
    assert len(calls) == len(models)


def test_structure_hypotheses_frozen(ir5, ag9, m2):
    assert structure_hypotheses(ir5) == {
        "gamma_ag": True,
        "ag_star_star": True,
        "intra_regular": True,
        "every_element_factorizable": True,
    }
    assert structure_hypotheses(ag9) == {
        "gamma_ag": True,
        "ag_star_star": False,
        "intra_regular": True,
        "every_element_factorizable": True,
    }
    assert structure_hypotheses(m2) == {
        "gamma_ag": True,
        "ag_star_star": True,
        "intra_regular": False,
        "every_element_factorizable": False,
    }


# ---------------------------------------------------------------------------
# verify: argument handling and gating


def test_verify_rejects_bad_arguments(ir5):
    lat = Lattice(1)
    with pytest.raises(InputError):
        verify(ir5, "nope", lat)
    with pytest.raises(InputError):
        verify(ir5, "sf", lat, mode="fuzzy")
    with pytest.raises(InputError):
        verify(ir5, "sf", lat, mode="sampled", samples=10)
    with pytest.raises(InputError):
        verify(ir5, "sf", lat, mode="sampled", seed=1)
    with pytest.raises(InputError):
        verify(ir5, "sf", lat, mode="sampled", seed=1, samples=True)
    # a sampled draw takes at least one base den + 1 digit from each 256-bit digest
    with pytest.raises(InputError, match="2\\*\\*256"):
        verify(ir5, "sf", Lattice(2**256), mode="sampled", seed=1, samples=1)
    # trm_i has no pre-filter, so its one draw at the largest den is checked
    v = verify(ir5, "trm_i", Lattice(2**256 - 1), mode="sampled", seed=1, samples=1)
    assert (v.status, v.checked) == ("holds", 1)
    for budget in (0, -1, 1.5):
        with pytest.raises(InputError, match="budget"):
            verify(ir5, "sf", lat, budget=budget)
        with pytest.raises(InputError, match="budget"):
            verify_all(ir5, lat, budget=budget)
        with pytest.raises(InputError, match="budget"):
            semilattice_report(ir5, lat, budget=budget)
        with pytest.raises(InputError, match="budget"):
            two_sided_family(ir5, lat, budget)


def test_hypothesis_gating(ag9, m2):
    v = verify(ag9, "agss_i", Lattice(1))
    assert v.status == "hypothesis_not_met"
    assert v.failed_hypotheses == ("ag_star_star",)
    assert v.checked == 0 and v.violation is None
    v = verify(m2, "grand_equiv", Lattice(1))
    assert v.status == "hypothesis_not_met"
    assert v.failed_hypotheses == ("intra_regular",)
    v = verify(m2, "sf_factorizable", Lattice(1))
    assert v.status == "hypothesis_not_met"
    assert v.failed_hypotheses == ("every_element_factorizable",)


def test_capacity_error_raised_from_single_verify(ir5):
    # 625 singleton tuples are over this budget too, so the stop keeps its detail
    with pytest.raises(CapacityError, match="^exhaustive check needs 1048576 tuples; budget is 100$"):
        verify(ir5, "trm_ii", Lattice(1), budget=100)
    with pytest.raises(CapacityError):
        verify(ir5, "trm_i", Lattice(1), budget=100)


def test_capacity_error_for_counts_past_the_digit_limit(ir5):
    # (10**900 + 1)**5 subsets: more than 4,300 decimal digits
    with pytest.raises(CapacityError, match=r"^exhaustive check needs at least 2\*\*\d+ tuples; budget is 1000000$"):
        verify(ir5, "sf", Lattice(10**900))
    with pytest.raises(CapacityError, match=r"^family enumeration needs at least 2\*\*\d+ lattice subsets"):
        verify(ir5, "semi1", Lattice(10**900))
    with pytest.raises(CapacityError, match=r"^sampling needs at least 2\*\*\d+ draws; budget is 1000000$"):
        verify(ir5, "trm_ii", Lattice(1), mode="sampled", seed=1, samples=10**4300 - 1)


# pre-filtered rows whose full tuple space, (d+1)**(5*2), is over the
# default budget while their filtered pools hold 20*20 (den 3) and
# 35*35 (den 4) tuples
PREFILTERED_PAIRS = ("rl_cap_quasi", "idemquasi_prod_bi", "prod_onesided", "cap_eq_prod")


@pytest.mark.parametrize("den", (3, 4))
@pytest.mark.parametrize("tid", PREFILTERED_PAIRS)
def test_prefiltered_rows_charged_at_their_pools(ir5, tid, den):
    verdict = verify(ir5, tid, Lattice(den))
    assert verdict.to_dict() == verify(ir5, tid, Lattice(den), budget=20_000_000).to_dict()
    assert verdict.status == "holds" and verdict.mode == "exhaustive"
    if tid == "rl_cap_quasi":
        assert verdict.checked == {3: 400, 4: 1225}[den]


def test_prefiltered_charge_is_the_pool_product(ir5, m2):
    # the lattice itself must fit before it is filtered: 1024 subsets here,
    # and past that the stop keeps the unfiltered count
    assert verify(ir5, "rl_cap_quasi", Lattice(3), budget=1024).checked == 400
    with pytest.raises(CapacityError, match="^exhaustive check needs 1048576 tuples; budget is 1023$"):
        verify(ir5, "rl_cap_quasi", Lattice(3), budget=1023)
    # on m2 every subset with f(0) >= f(1) is left and right stable: 3 of
    # the 4 crisp subsets, so 3*3 tuples fit a budget of 9, not of 8
    assert verify(m2, "rl_cap_quasi", Lattice(1), budget=9).checked == 9
    with pytest.raises(CapacityError, match="^exhaustive check needs 9 tuples; budget is 8$"):
        verify(m2, "rl_cap_quasi", Lattice(1), budget=8)


@pytest.mark.parametrize("tid, den", [("prod_onesided", 4), ("idemquasi_prod_bi", 3), ("grand_equiv", 3)])
def test_prefilter_and_guard_kinds_decided_once_per_verify(monkeypatch, ir5, tid, den):
    # pre-filters, guards, kind conclusions and coincide rows all read the
    # call's memo, so each distinct cut mask has its kinds decided once
    decided = []

    def counted(m, cut):
        decided.append(cut)
        return KindProducts(m, cut)

    monkeypatch.setattr(fuzzy, "KindProducts", counted)
    verdict = verify(ir5, tid, Lattice(den))
    assert verdict.status == "holds" and verdict.checked > 0
    assert decided and len(decided) == len(set(decided))


def test_shared_cut_memo_answers_as_a_fresh_engine(ir5, m2):
    for m, den in ((ir5, 2), (m2, 3)):
        held = fuzzy.CutKinds(m)
        for f in Lattice(den).subsets(m.order):
            assert held(f, FUZZY_KINDS) == fuzzy.CutKinds(m)(f, FUZZY_KINDS)
            assert held(f, ("left", "quasi")) == fuzzy.CutKinds(m)(f, ("left", "quasi"))
        assert len(held) <= 2 ** m.order - 1


# ---------------------------------------------------------------------------
# full batteries, statuses and applicable-tuple counts frozen


def test_ir5_battery_frozen(ir5_battery):
    got = {tid: (v.status, v.checked) for tid, v in ir5_battery.items()}
    assert got == {
        "sf": ("holds", 4),
        "sf_factorizable": ("holds", 4),
        "trm_i": ("holds", 32768),
        "trm_ii": ("holds", 625),
        "agss_i": ("holds", 32768),
        "agss_ii": ("holds", 625),
        "rl_cap_quasi": ("holds", 16),
        "qqq": ("holds", 4),
        "idem_quasi_bi": ("holds", 4),
        "onesided_quasi": ("holds", 4),
        "onesided_genbi": ("holds", 4),
        "idemquasi_prod_bi": ("holds", 16),
        "prod_onesided": ("holds", 16),
        "llb": ("holds", 32),
        "left_idem": ("holds", 4),
        "cap_eq_prod": ("holds", 16),
        "semi1": ("holds", 4),
        "irr_iff_prime": ("holds", 4),
        "all_prime_iff_chain": ("holds", 4),
        "inte": ("holds", 32),
        "q2": ("holds", 32),
        "gener": ("holds", 32),
        "bii": ("holds", 32),
        "bi_fixedpoint": ("holds", 32),
        "interior_fixedpoint": ("holds", 32),
        "l145": ("holds", 4),
        "grand_equiv": ("holds", 32),
    }
    for v in ir5_battery.values():
        assert v.violation is None
        if v.status == "capacity_error":
            assert v.detail


def test_ag9_battery_frozen(ag9_battery):
    got = {tid: (v.status, v.checked, v.failed_hypotheses) for tid, v in ag9_battery.items()}
    gated = ("ag_star_star",)
    assert got == {
        "sf": ("holds", 2, ()),
        "sf_factorizable": ("holds", 2, ()),
        "trm_i": ("holds", 729, ()),
        "trm_ii": ("holds", 6561, ()),
        "agss_i": ("hypothesis_not_met", 0, gated),
        "agss_ii": ("hypothesis_not_met", 0, gated),
        "rl_cap_quasi": ("holds", 4, ()),
        "qqq": ("holds", 2, ()),
        "idem_quasi_bi": ("holds", 2, ()),
        "onesided_quasi": ("holds", 2, ()),
        "onesided_genbi": ("holds", 2, ()),
        "idemquasi_prod_bi": ("hypothesis_not_met", 0, gated),
        "prod_onesided": ("hypothesis_not_met", 0, gated),
        "llb": ("holds", 512, ()),
        "left_idem": ("hypothesis_not_met", 0, gated),
        "cap_eq_prod": ("hypothesis_not_met", 0, gated),
        "semi1": ("hypothesis_not_met", 0, gated),
        "irr_iff_prime": ("hypothesis_not_met", 0, gated),
        "all_prime_iff_chain": ("hypothesis_not_met", 0, gated),
        "inte": ("hypothesis_not_met", 0, gated),
        "q2": ("hypothesis_not_met", 0, gated),
        "gener": ("hypothesis_not_met", 0, gated),
        "bii": ("hypothesis_not_met", 0, gated),
        "bi_fixedpoint": ("hypothesis_not_met", 0, gated),
        "interior_fixedpoint": ("hypothesis_not_met", 0, gated),
        "l145": ("hypothesis_not_met", 0, gated),
        "grand_equiv": ("hypothesis_not_met", 0, gated),
    }


def test_verify_all_parallel_matches_serial(ag9, ag9_battery):
    parallel = verify_all(ag9, Lattice(1), jobs=2)
    assert parallel == ag9_battery


def test_verify_all_parallel_matches_serial_ir5(ir5, ir5_battery):
    assert verify_all(ir5, Lattice(1), jobs=2) == ir5_battery


def test_worker_count_is_clamped(monkeypatch):
    # checked as a function: no worker process is started here
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 8)
    assert theorems._worker_count(1) == 1
    assert theorems._worker_count(5) == 5
    assert theorems._worker_count(10**9) == 8
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 64)
    assert theorems._worker_count(10**9) == len(REGISTRY_ORDER)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: None)
    assert theorems._worker_count(10**9) == 1
    for jobs in (0, -1, 1.5):
        with pytest.raises(InputError):
            theorems._worker_count(jobs)
        with pytest.raises(InputError):
            verify_all(GammaMagma(order=1, gamma=("a",), tables=(((0,),),)), Lattice(1), jobs=jobs)


# ---------------------------------------------------------------------------
# counterexample reporting and replay


def test_absorption_counterexample_and_replay(ir5, m2):
    v = verify(m2, "sf", Lattice(1))
    assert v.status == "counterexample"
    assert v.checked == 3
    w = v.violation
    assert w.clause == "ones*f == f"
    assert [f.to_dict() for f in w.subsets] == [{"den": 1, "num": [1, 1]}]
    assert dict(w.derived)["ones*f"].to_dict() == {"den": 1, "num": [1, 0]}
    assert w.elements == (1,) and w.relation == "eq"
    assert (w.lhs, w.rhs) == (Fraction(0), Fraction(1))
    assert oracles.replay_violation(m2, w)
    d = v.to_dict()
    assert d["status"] == "counterexample"
    assert d["witness"]["lhs"] == "0" and d["witness"]["rhs"] == "1"
    assert verify(ir5, "sf", Lattice(1)).status == "holds"


def test_direct_checker_violations_replay():
    # run statement checkers on arbitrary 2-element tables, where the
    # statements routinely fail, and replay every reported counterexample
    lat = Lattice(1)
    single = [
        REGISTRY["sf"].check,
        REGISTRY["qqq"].check,
        REGISTRY["llb"].check,
        REGISTRY["left_idem"].check,
        REGISTRY["inte"].check,
        REGISTRY["q2"].check,
        REGISTRY["gener"].check,
        REGISTRY["bii"].check,
        REGISTRY["bi_fixedpoint"].check,
        REGISTRY["interior_fixedpoint"].check,
        REGISTRY["l145"].check,
        REGISTRY["grand_equiv"].check,
    ]
    pairs = [
        REGISTRY["rl_cap_quasi"].check,
        REGISTRY["cap_eq_prod"].check,
        REGISTRY["idemquasi_prod_bi"].check,
    ]
    triples = [REGISTRY["trm_i"].check, REGISTRY["agss_i"].check]
    shapes = {"eq": 0, "kind": 0}
    kinds_seen = set()
    for flat in itertools.product(range(2), repeat=4):
        table = (flat[0:2], flat[2:4])
        m = GammaMagma(order=2, gamma=("a",), tables=(table,))
        fs = list(lat.subsets(2))
        found = []
        for f in fs:
            for check in single:
                found.append(check(m, f))
        for f, g in itertools.product(fs, repeat=2):
            for check in pairs:
                found.append(check(m, f, g))
            for check in triples:
                found.append(check(m, f, g, g))
        for w in found:
            if w is None:
                continue
            assert oracles.replay_violation(m, w), (m.tables, w)
            if w.kind is None:
                shapes["eq"] += 1
            else:
                shapes["kind"] += 1
                kinds_seen.add(w.kind)
    assert shapes["eq"] > 50 and shapes["kind"] > 50
    assert len(kinds_seen) >= 4


# ---------------------------------------------------------------------------
# linear rows decided on singleton tuples, against brute force

_LINEAR_IDS = ("trm_i", "trm_ii", "agss_i", "agss_ii")


def _brute_force(m, tid, den):
    """(first failing tuple of den-lattice subsets or None, first failing
    singleton tuple or None) for the row's equations, with every product
    taken once per pair of pool subsets by the naive oracle."""
    pool = [f.values for f in Lattice(den).subsets(m.order)]
    index = {values: i for i, values in enumerate(pool)}
    prod = [[index[oracles.naive_gamma_product(m, f, g)] for g in pool] for f in pool]

    def compile_term(term):
        if isinstance(term, str):
            i = "fghk".index(term)
            return lambda xs: xs[i]
        a, b = compile_term(term[1]), compile_term(term[2])
        return lambda xs: prod[a(xs)][b(xs)]

    row = next(row for row in theorems._ROWS if row[0] == tid)
    sides = [(compile_term(lhs), compile_term(rhs)) for lhs, _, rhs in row[5]]
    arity = REGISTRY[tid].arity

    def first_failure(tuples):
        return next((xs for xs in tuples if any(lhs(xs) != rhs(xs) for lhs, rhs in sides)), None)

    point = [index[tuple(Fraction(int(i == x)) for i in range(m.order))] for x in range(m.order)]
    singles = (tuple(point[x] for x in xs) for xs in itertools.product(range(m.order), repeat=arity))
    least = first_failure(singles)
    if least is not None:
        least = tuple(pool[i] for i in least)
    return first_failure(itertools.product(range(len(pool)), repeat=arity)), least


def _cross_check(m, tid, den):
    """The singleton decision agrees with brute force at den; returns its status."""
    entry = REGISTRY[tid]
    checked, v = theorems._singleton_decision(m, entry)
    exhaustive, least = _brute_force(m, tid, den)
    assert (v is None) == (exhaustive is None) == (least is None), (m.tables, tid, den)
    if v is None:
        assert checked == m.order ** entry.arity
        return "holds"
    assert tuple(f.values for f in v.subsets) == least, (m.tables, tid)
    singletons = list(itertools.product(range(m.order), repeat=entry.arity))
    assert checked == 1 + singletons.index(tuple(f.values.index(1) for f in v.subsets))
    assert oracles.replay_violation(m, v), (m.tables, tid)
    return "counterexample"


def test_singleton_decision_matches_brute_force_on_small_models(li_models_small, ss_models_small):
    assert (len(li_models_small), len(ss_models_small)) == (219, 105)
    statuses = [_cross_check(m, tid, 1) for m in li_models_small for tid in ("trm_i", "trm_ii")]
    statuses += [_cross_check(m, tid, 1) for m in ss_models_small for tid in ("agss_i", "agss_ii")]
    assert set(statuses) == {"holds"}


def test_singleton_decision_matches_brute_force_on_random_tables():
    rng = random.Random(20101)
    statuses = []
    for _ in range(200):
        n, k = rng.choice((2, 3)), rng.choice((1, 2))
        tables = tuple(
            tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)) for _ in range(k)
        )
        m = GammaMagma(order=n, gamma=tuple("ab"[:k]), tables=tables)
        statuses += [_cross_check(m, tid, 1) for tid in _LINEAR_IDS]
    assert statuses.count("counterexample") > len(statuses) // 2
    assert "holds" in statuses


def test_singletons_decide_every_den(li_models_small):
    # every one-label order-2 table and the two-label order-2 models, at den 2
    tables = [
        GammaMagma(order=2, gamma=("a",), tables=((flat[:2], flat[2:]),))
        for flat in itertools.product(range(2), repeat=4)
    ]
    tables += [m for m in li_models_small if m.order == 2 and len(m.gamma) == 2]
    statuses = [_cross_check(m, tid, 2) for m in tables for tid in _LINEAR_IDS]
    assert {"holds", "counterexample"} <= set(statuses)


def test_linear_row_over_budget_decided_on_singletons(ir5, m2):
    v = verify(ir5, "trm_ii", Lattice(3))
    assert (v.status, v.mode, v.checked, v.violation) == ("holds", "singletons", 625, None)
    assert v.to_dict() == {
        "theorem": "trm_ii", "status": "holds", "lattice": 3, "mode": "singletons", "checked": 625, "witness": None,
    }
    # within budget the exhaustive path runs as before
    v = verify(m2, "trm_ii", Lattice(1))
    assert (v.mode, v.checked) == ("exhaustive", 256)
    # charged at n^arity: 625 tuples fit a budget of 625, not of 624
    assert verify(ir5, "agss_ii", Lattice(1), budget=625).checked == 625
    with pytest.raises(CapacityError, match="needs 1048576 tuples; budget is 624"):
        verify(ir5, "agss_ii", Lattice(1), budget=624)
    # a row that is not linear keeps its capacity stop
    with pytest.raises(CapacityError, match="^exhaustive check needs 1099511627776 tuples; budget is 1000000$"):
        verify(ir5, "rl_cap_quasi", Lattice(15))


# ---------------------------------------------------------------------------
# coincide rows walked as level-cut chains, against brute force

_COINCIDE_ROWS = [row for row in theorems._ROWS if row[4] == "coincide"]


def _naive_term(m, term, fv):
    if term == "f":
        return tuple(fv)
    if term == "ones":
        return (Fraction(1),) * m.order
    _, left, right = term
    return oracles.naive_gamma_product(m, _naive_term(m, left, fv), _naive_term(m, right, fv))


def _naive_condition(m, condition, fv):
    if isinstance(condition, str):
        return oracles.naive_fuzzy_kind(m, fv, condition)
    return all(_naive_term(m, lhs, fv) == _naive_term(m, rhs, fv) for lhs, _, rhs in condition[1])


def _naive_coincide(m, conditions, lattice):
    """(checked, first subset whose conditions disagree or None), by a loop over Lattice.subsets."""
    for checked, f in enumerate(lattice.subsets(m.order), 1):
        flags = {_naive_condition(m, c, f.values) for c in conditions}
        if flags == {True, False}:
            return checked, f
    return checked, None


def test_cut_walk_matches_brute_force_on_small_models(li_models_small):
    # verify gates these structures out by hypothesis, and only there do
    # the conditions of a coincide row disagree, so the walk is called directly
    tables = [
        GammaMagma(order=2, gamma=("a",), tables=((flat[:2], flat[2:]),))
        for flat in itertools.product(range(2), repeat=4)
    ]
    assert len(_COINCIDE_ROWS) == 8
    statuses = []
    for m in tables + li_models_small:
        for den in (1, 2):
            lattice = Lattice(den)
            for tid, *_, conditions in _COINCIDE_ROWS:
                checked, v = theorems._cut_walk(m, REGISTRY[tid], lattice, fuzzy.CutKinds(m))
                want_checked, first = _naive_coincide(m, conditions, lattice)
                assert checked == want_checked, (m.tables, tid, den)
                if first is None:
                    assert v is None, (m.tables, tid, den)
                    statuses.append("holds")
                    continue
                assert v is not None and v.subsets == (first,), (m.tables, tid, den)
                assert oracles.replay_violation(m, v), (m.tables, tid, den)
                statuses.append("counterexample")
    assert {"holds", "counterexample"} <= set(statuses)


# ---------------------------------------------------------------------------
# sampled mode


def test_sampled_mode_is_deterministic(ir5):
    a = verify(ir5, "trm_i", Lattice(4), mode="sampled", seed=11, samples=50)
    b = verify(ir5, "trm_i", Lattice(4), mode="sampled", seed=11, samples=50)
    assert a == b
    assert (a.status, a.checked, a.mode) == ("holds", 50, "sampled")
    d = a.to_dict()
    assert d["seed"] == 11 and d["requested"] == 50
    c = verify(ir5, "sf", Lattice(2), mode="sampled", seed=3, samples=30)
    assert c == verify(ir5, "sf", Lattice(2), mode="sampled", seed=3, samples=30)
    assert c.status == "holds" and 0 < c.checked <= 30


def test_sampled_mode_stops_when_nothing_is_checked(ir5, ag9):
    # no draw of 2000 passes sf's one-sided pre-filters on ag9 at den 4:
    # a capacity stop, not a vacuous holds, and verify_all records it so
    with pytest.raises(CapacityError, match="^no sampled draw of 2000 passed"):
        verify(ag9, "sf", Lattice(4), mode="sampled", seed=1, samples=2000)
    with pytest.raises(CapacityError, match="^no sampled draw of 1 passed"):
        verify(ir5, "sf", Lattice(2**256 - 1), mode="sampled", seed=1, samples=1)
    v = verify_all(ag9, Lattice(4), "sampled", 1, 200)["sf"]
    assert (v.status, v.checked) == ("capacity_error", 0)
    assert v.detail.startswith("no sampled draw")


def test_sample_subset_frozen_values():
    f0 = sample_subset(7, 0, 5, 4)
    f1 = sample_subset(7, 1, 5, 4)
    assert [str(v) for v in f0.values] == ["1", "3/4", "0", "1", "1/4"]
    assert [str(v) for v in f1.values] == ["1/2", "1", "1/2", "1", "1/2"]
    assert f0 == sample_subset(7, 0, 5, 4)
    assert Lattice(4).contains(f0)
    assert sample_subset(8, 0, 5, 4) != f0


def test_sample_subset_fills_members_past_one_digest():
    # 120 members at den 4 need 279 bits, more than one 256-bit digest holds
    last = {sample_subset(seed, 0, 120, 4).values[-1] * 4 for seed in range(200)}
    assert last == {0, 1, 2, 3, 4}


def test_sample_subset_refuses_den_past_one_digest():
    # base den + 1 must fit a 256-bit digest at least once
    with pytest.raises(InputError, match="2\\*\\*256"):
        sample_subset(1, 0, 5, 2**256)
    for den in (0, -1, True):
        with pytest.raises(InputError, match="denominator"):
            sample_subset(1, 0, 5, den)
    assert Lattice(2**256 - 1).contains(sample_subset(1, 0, 5, 2**256 - 1))


# ---------------------------------------------------------------------------
# two-sided families and the semilattice report


def test_two_sided_family_matches_naive(ir5):
    for den, size in ((1, 4), (2, 10)):
        lat = Lattice(den)
        family = two_sided_family(ir5, lat, DEFAULT_TUPLE_BUDGET)
        assert len(family) == size
        want = [
            f.values
            for f in lat.subsets(5)
            if oracles.naive_fuzzy_kind(ir5, f.values, "two_sided")
        ]
        assert [f.values for f in family] == want


def test_semilattice_report_frozen(ir5):
    rep = semilattice_report(ir5, Lattice(1))
    assert rep.ok and rep.violation is None
    assert (rep.lattice_den, rep.ideal_count) == (1, 4)
    assert rep.closed and rep.commutative and rep.associative
    assert rep.all_idempotent and rep.identity_holds
    rep2 = semilattice_report(ir5, Lattice(2))
    assert rep2.ok and rep2.ideal_count == 10


def test_semilattice_report_requires_hypotheses(ag9, m2):
    with pytest.raises(InputError, match="ag_star_star"):
        semilattice_report(ag9, Lattice(1))
    with pytest.raises(InputError, match="intra_regular"):
        semilattice_report(m2, Lattice(1))


def test_family_statements_cross_checked_naively(ir5):
    # recompute the three family-level statements from first principles
    lat = Lattice(1)
    family = two_sided_family(ir5, lat, DEFAULT_TUPLE_BUDGET)
    prods = {}
    for f, g in itertools.product(family, repeat=2):
        fg = gamma_product(ir5, f, g)
        prods[(f.values, g.values)] = fg
        assert oracles.naive_fuzzy_kind(ir5, fg.values, "two_sided")
    for f, g in itertools.product(family, repeat=2):
        assert prods[(f.values, g.values)] == prods[(g.values, f.values)]
    for f, g, h in itertools.product(family, repeat=3):
        left = gamma_product(ir5, prods[(f.values, g.values)], h)
        right = gamma_product(ir5, f, prods[(g.values, h.values)])
        assert left == right
    ones = FuzzySubset.ones(5)
    for f in family:
        assert prods[(f.values, f.values)] == f
        assert gamma_product(ir5, ones, f) == f == gamma_product(ir5, f, ones)

    def prime(f):
        return all(
            leq(g, f) or leq(h, f)
            for g in family
            for h in family
            if leq(prods[(g.values, h.values)], f)
        )

    def irreducible(f):
        return all(
            leq(g, f) or leq(h, f)
            for g in family
            for h in family
            if leq(meet(g, h), f)
        )

    assert all(prime(f) == irreducible(f) for f in family)
    chain = all(
        leq(f, g) or leq(g, f) for f, g in itertools.combinations(family, 2)
    )
    assert all(prime(f) for f in family) == chain


def test_family_statements_match_the_pairwise_scan(ir5, li_models_small):
    # the three family checks against oracles that compose every pair and
    # triple afresh, first failure, payload and semilattice flags included.
    # The one-label tables on {0, 1} fail idempotence, the identity and
    # primeness; the order-3 models fail closure, commutativity and
    # associativity too, which takes products of non-members
    two_element = [GammaMagma(order=2, gamma=("a",), tables=((flat[0:2], flat[2:4]),))
                   for flat in itertools.product(range(2), repeat=4)]
    cases = [(m, den) for m in two_element for den in (1, 2, 3)]
    cases += [(m, 1) for m in li_models_small if m.order == 3] + [(ir5, 2)]

    def payload(v):
        return None if v is None else (
            v.clause, tuple(f.values for f in v.subsets), tuple((n, f.values) for n, f in v.derived))

    for m, den in cases:
        family = two_sided_family(m, Lattice(den), DEFAULT_TUPLE_BUDGET)
        values = [f.values for f in family]
        flags, v = theorems._semilattice_scan(m, family)
        assert ({flag for flag, ok in flags.items() if not ok}, payload(v)) == oracles.naive_semilattice(m, values)
        for tid in ("irr_iff_prime", "all_prime_iff_chain"):
            got = payload(REGISTRY[tid].check(m, family))
            assert got == oracles.naive_prime_failure(m, values, tid), (m.tables, den, tid)


@pytest.mark.parametrize("tid, products", [("semi1", 35 * 35 + 35), ("irr_iff_prime", 35 * 35),
                                           ("all_prime_iff_chain", 35 * 35)])
def test_family_audit_composes_each_member_pair_once(monkeypatch, ir5, tid, products):
    # the 35 two-sided ideals of ir5 at den 4: one product per member pair,
    # and for semi1 one f*ones per member; every other check reads indices
    calls = []
    gamma_product = theorems.gamma_product

    def counted(m, f, g):
        calls.append((f, g))
        return gamma_product(m, f, g)

    monkeypatch.setattr(theorems, "gamma_product", counted)
    verdict = verify(ir5, tid, Lattice(4))
    assert verdict.status == "holds" and verdict.checked == 35
    assert len(calls) <= products


def test_two_sided_family_capacity(ir5):
    with pytest.raises(CapacityError):
        two_sided_family(ir5, Lattice(1), budget=10)
