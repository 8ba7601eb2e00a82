"""Exact payload pins for law witnesses, kind witnesses and statement violations.

Other tests check that a reported witness replays; these check that it is
the same witness, field for field. Each test hashes canonical JSON of a
fixed set of outputs, exhaustively enumerated or drawn with a fixed seed.
"""

import hashlib
import itertools
import random

from gammag import theorems
from gammag.core import GammaMagma, canonical_json, check_laws
from gammag.fuzzy import FUZZY_KINDS, Lattice, kind_violation
from gammag.theorems import DEFAULT_TUPLE_BUDGET, two_sided_family


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
        theorems._stmt_sf,
        theorems._stmt_qqq,
        theorems._stmt_llb,
        theorems._stmt_left_idem,
        theorems._stmt_inte,
        theorems._stmt_q2,
        theorems._stmt_gener,
        theorems._stmt_bii,
        theorems._stmt_bi_fixedpoint,
        theorems._stmt_interior_fixedpoint,
        theorems._stmt_l145,
        theorems._stmt_grand_equiv,
    ]
    pairs = [
        theorems._stmt_rl_cap_quasi,
        theorems._stmt_cap_eq_prod,
        theorems._stmt_idemquasi_prod_bi,
    ]
    triples = [theorems._stmt_trm_i, theorems._stmt_agss_i]
    rows = []
    for m in _two_element_tables():
        fs = list(lat.subsets(2))
        found = [check(m, f) for f in fs for check in single]
        for f, g in itertools.product(fs, repeat=2):
            found += [check(m, f, g) for check in pairs]
            found += [check(m, f, g, g) for check in triples]
        rows.append([None if v is None else v.to_dict() for v in found])
    assert _digest(rows) == "7dba222ec268fde58a3dd5485f57590c56a392abcdbd49d40c5950053a17ce2c"


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
