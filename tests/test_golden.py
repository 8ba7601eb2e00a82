"""Exact payload pins for law witnesses, kind witnesses and statement violations.

Other tests check that a reported witness replays; these check that it is
the same witness, field for field. Each test hashes canonical JSON of a
fixed set of outputs, exhaustively enumerated or drawn with a fixed seed.
"""

import hashlib
import itertools
import random

import oracles
from gammag import theorems
from gammag.core import GammaMagma, canonical_json, check_laws
from gammag.fuzzy import FUZZY_KINDS, Lattice, kind_violation
from gammag.theorems import DEFAULT_TUPLE_BUDGET, REGISTRY, sample_subset, two_sided_family


def _digest(rows) -> str:
    return hashlib.sha256(canonical_json(rows).encode()).hexdigest()


def _two_element_tables():
    """The 16 one-label multiplication tables on {0, 1}."""
    for flat in itertools.product(range(2), repeat=4):
        yield GammaMagma(order=2, gamma=("a",), tables=((flat[0:2], flat[2:4]),))


def _random_tables(count, seed):
    """Seeded random structures of order 1-4 with 1-3 labels."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        tables = tuple(
            tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            for _ in range(k)
        )
        yield GammaMagma(order=n, gamma=tuple("abc"[:k]), tables=tables)


def test_law_witness_payloads_pinned(ir5, ag9):
    structures = list(_two_element_tables())
    for flat in itertools.product(range(2), repeat=8):
        tables = ((flat[0:2], flat[2:4]), (flat[4:6], flat[6:8]))
        structures.append(GammaMagma(order=2, gamma=("a", "b"), tables=tables))
    structures += list(_random_tables(500, seed=20100))
    structures += [ir5, ag9]
    rows = [check_laws(m).to_dict(m) for m in structures]
    assert _digest(rows) == "47e27b324f4f5a0305c9915a8d041185279c2b71bc791a5181eaae12918dad06"


def _witness_row(w):
    if w is None:
        return None
    return {
        "elements": list(w.elements),
        "labels": list(w.labels),
        "relation": w.relation,
        "lhs": str(w.lhs),
        "rhs": str(w.rhs),
    }


def _kind_rows(m, lattice):
    return [
        [f.to_dict(), kind, _witness_row(kind_violation(m, f, kind))]
        for f in lattice.subsets(m.order)
        for kind in FUZZY_KINDS
    ]


def test_kind_violation_payloads_pinned(ir5, ag9):
    rows = [_kind_rows(ir5, Lattice(1)), _kind_rows(ag9, Lattice(1))]
    rows += [_kind_rows(m, Lattice(2)) for m in _two_element_tables()]
    assert _digest(rows) == "5e6dae0a2b2b12fb14827a35030fb968f577ab83234eb420c678379b05878eb5"


def test_statement_violation_payloads_pinned():
    # the same checker calls as test_direct_checker_violations_replay
    lat = Lattice(1)
    single = [
        REGISTRY[tid].check
        for tid in (
            "sf", "qqq", "llb", "left_idem", "inte", "q2", "gener", "bii",
            "bi_fixedpoint", "interior_fixedpoint", "l145", "grand_equiv",
        )
    ]
    pairs = [REGISTRY[tid].check for tid in ("rl_cap_quasi", "cap_eq_prod", "idemquasi_prod_bi")]
    triples = [REGISTRY[tid].check for tid in ("trm_i", "agss_i")]
    rows = []
    for m in _two_element_tables():
        fs = list(lat.subsets(2))
        found = [check(m, f) for f in fs for check in single]
        for f, g in itertools.product(fs, repeat=2):
            found += [check(m, f, g) for check in pairs]
            found += [check(m, f, g, g) for check in triples]
        rows.append([None if v is None else v.to_dict() for v in found])
    assert _digest(rows) == "7dba222ec268fde58a3dd5485f57590c56a392abcdbd49d40c5950053a17ce2c"


def test_remaining_statement_violation_payloads_pinned():
    # the ids the test above leaves out, on the 2-element one-label tables
    # (den 2; den 1 for the four-place laws) and on seeded 3-element ones,
    # where products of one-sided subsets can fail; every violation replays
    single = [
        REGISTRY[tid].check
        for tid in ("sf_factorizable", "idem_quasi_bi", "onesided_quasi", "onesided_genbi")
    ]
    pair = REGISTRY["prod_onesided"].check
    quads = [REGISTRY[tid].check for tid in ("trm_ii", "agss_ii")]
    rng = random.Random(20110)
    order3 = [
        GammaMagma(order=3, gamma=("a",), tables=(tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)),))
        for _ in range(200)
    ]
    rows = []
    for m in [*_two_element_tables(), *order3]:
        fs = list(Lattice(2 if m.order == 2 else 1).subsets(m.order))
        found = [check(m, f) for f in fs for check in single]
        found += [pair(m, f, g) for f, g in itertools.product(fs, repeat=2)]
        if m.order == 2:
            quadruples = itertools.product(Lattice(1).subsets(2), repeat=4)
            found += [check(m, *t) for t in quadruples for check in quads]
        for v in found:
            assert v is None or oracles.replay_violation(m, v), (m.tables, v)
        rows.append([None if v is None else v.to_dict() for v in found])
    assert _digest(rows) == "bd7b556f6975ceea02f508549127ca360ce01bad92223eb694995c2656b736f1"


def test_family_violation_payloads_pinned():
    checks = [
        theorems._family_semilattice,
        theorems._family_irr_iff_prime,
        theorems._family_all_prime_iff_chain,
    ]
    rows = []
    for m in _two_element_tables():
        family = two_sided_family(m, Lattice(1), DEFAULT_TUPLE_BUDGET)
        rows.append([f.to_dict() for f in family])
        for check in checks:
            v = check(m, family)
            rows.append(None if v is None else v.to_dict())
    assert _digest(rows) == "655009df3fe26f1b52a5857478dd4c395033557642235a18063c65ff97727fec"


def test_sample_subset_draws_pinned():
    # orders and dens small enough that one digest covers every member
    rows = [
        [sample_subset(seed, counter, order, den).to_dict()
         for seed in (0, 7, 20100) for counter in range(20) for order in range(1, 10)]
        for den in range(1, 5)
    ]
    assert _digest(rows) == "5c4f4e1a8e8b8d0c96807aa6192bccb2d33d4b84502ab844576e6b563eefe636"
