"""Registered algebraic statements verified extensionally on instances.

Each registry entry binds a stable string id to structure hypotheses, a
premise restricting the quantified fuzzy subsets, and a checker that
either passes or returns a replayable violation. Quantification ranges
over all lattice-valued subsets (exhaustive) or a seeded pseudo-random
sample; both paths are deterministic for fixed inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .core import CapacityError, GammaMagma, InputError, check_laws
from .crisp import is_intra_regular
from .fuzzy import (
    FuzzySubset,
    Lattice,
    gamma_product,
    has_fuzzy_kind,
    kind_violation,
    leq,
    meet,
)

HYPOTHESIS_NAMES = ("gamma_ag", "ag_star_star", "intra_regular", "every_element_factorizable")

DEFAULT_TUPLE_BUDGET = 1_000_000


@lru_cache(maxsize=64)
def structure_hypotheses(m: GammaMagma) -> dict:
    """Which structure-level hypotheses m satisfies (cached per structure)."""
    report = check_laws(m)
    return {
        "gamma_ag": report.left_invertive,
        "ag_star_star": report.left_invertive and report.ag_star_star,
        "intra_regular": report.left_invertive and is_intra_regular(m),
        "every_element_factorizable": m.every_element_factorizable,
    }


def sample_subset(seed: int, counter: int, order: int, den: int) -> FuzzySubset:
    """Deterministic counter-indexed draw of one lattice-valued subset.

    Keyed hashing makes the stream splittable: any (seed, counter) pair
    can be evaluated independently, with no sequential generator state.
    """
    h = hashlib.blake2b(
        f"{seed}:{counter}:{den}".encode(), digest_size=32, person=b"lattice-sample"
    )
    v = int.from_bytes(h.digest(), "big")
    base = den + 1
    values = []
    for _ in range(order):
        v, r = divmod(v, base)
        values.append(Fraction(r, den))
    return FuzzySubset(tuple(values))


@dataclass(frozen=True)
class Violation:
    """Replayable counterexample: quantified subsets plus evaluated sides.

    relation "eq" means lhs == rhs was expected, "geq" means lhs >= rhs.
    For statements about whole composites, lhs_vector/rhs_vector record
    the evaluated sides and elements points at the first disagreement.
    """

    clause: str
    subsets: tuple[FuzzySubset, ...]
    derived: tuple[tuple[str, FuzzySubset], ...]
    elements: tuple[int, ...]
    labels: tuple[str, ...]
    relation: str
    lhs: Fraction
    rhs: Fraction
    lhs_vector: FuzzySubset | None = None
    rhs_vector: FuzzySubset | None = None
    kind: str | None = None

    def to_dict(self) -> dict:
        return {
            "clause": self.clause,
            "subsets": [f.to_dict() for f in self.subsets],
            "derived": {name: f.to_dict() for name, f in self.derived},
            "elements": list(self.elements),
            "gamma": list(self.labels),
            "relation": self.relation,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "lhs_vector": self.lhs_vector.to_dict() if self.lhs_vector else None,
            "rhs_vector": self.rhs_vector.to_dict() if self.rhs_vector else None,
            "kind": self.kind,
        }


def _eq_check(clause, subsets, lhs_name, lhs, rhs_name, rhs) -> Violation | None:
    if lhs == rhs:
        return None
    a = next(i for i, (u, v) in enumerate(zip(lhs.values, rhs.values)) if u != v)
    return Violation(
        clause=clause,
        subsets=tuple(subsets),
        derived=((lhs_name, lhs), (rhs_name, rhs)),
        elements=(a,),
        labels=(),
        relation="eq",
        lhs=lhs.values[a],
        rhs=rhs.values[a],
        lhs_vector=lhs,
        rhs_vector=rhs,
    )


def _kind_failure(clause, subsets, derived, kind, w) -> Violation:
    """Violation carrying the pointwise failure w of the named kind."""
    return Violation(
        clause=clause,
        subsets=tuple(subsets),
        derived=tuple(derived),
        elements=w.elements,
        labels=w.labels,
        relation=w.relation,
        lhs=w.lhs,
        rhs=w.rhs,
        kind=kind,
    )


def _kind_check(clause, m, subsets, name, h, kind) -> Violation | None:
    w = kind_violation(m, h, kind)
    return None if w is None else _kind_failure(clause, subsets, ((name, h),), kind, w)


def _family_failure(clause, subsets, derived=()) -> Violation:
    """Violation of a family-level statement: subsets only, no pointwise data."""
    return Violation(
        clause=clause,
        subsets=tuple(subsets),
        derived=tuple(derived),
        elements=(),
        labels=(),
        relation="geq",
        lhs=Fraction(0),
        rhs=Fraction(0),
    )


def _ones(m: GammaMagma) -> FuzzySubset:
    return FuzzySubset.ones(m.order)


# ---------------------------------------------------------------------------
# statement checkers; each returns None or the first Violation


def _stmt_sf(m, f):
    return _eq_check("ones*f == f", (f,), "ones*f", gamma_product(m, _ones(m), f), "f", f)


def _stmt_trm_i(m, f, g, h):
    lhs = gamma_product(m, gamma_product(m, f, g), h)
    rhs = gamma_product(m, gamma_product(m, h, g), f)
    return _eq_check("(f*g)*h == (h*g)*f", (f, g, h), "(f*g)*h", lhs, "(h*g)*f", rhs)


def _stmt_trm_ii(m, f, g, h, k):
    lhs = gamma_product(m, gamma_product(m, f, g), gamma_product(m, h, k))
    rhs = gamma_product(m, gamma_product(m, f, h), gamma_product(m, g, k))
    return _eq_check("(f*g)*(h*k) == (f*h)*(g*k)", (f, g, h, k), "(f*g)*(h*k)", lhs, "(f*h)*(g*k)", rhs)


def _stmt_agss_i(m, f, g, h):
    lhs = gamma_product(m, f, gamma_product(m, g, h))
    rhs = gamma_product(m, g, gamma_product(m, f, h))
    return _eq_check("f*(g*h) == g*(f*h)", (f, g, h), "f*(g*h)", lhs, "g*(f*h)", rhs)


def _stmt_agss_ii(m, f, g, h, k):
    lhs = gamma_product(m, gamma_product(m, f, g), gamma_product(m, h, k))
    rhs = gamma_product(m, gamma_product(m, k, h), gamma_product(m, g, f))
    return _eq_check("(f*g)*(h*k) == (k*h)*(g*f)", (f, g, h, k), "(f*g)*(h*k)", lhs, "(k*h)*(g*f)", rhs)


def _stmt_rl_cap_quasi(m, f, g):
    return _kind_check("f^g is quasi", m, (f, g), "f^g", meet(f, g), "quasi")


def _stmt_qqq(m, f):
    return _kind_check("f is subgroupoid", m, (f,), "f", f, "subgroupoid")


def _stmt_idem_quasi_bi(m, f):
    return _kind_check("f is bi", m, (f,), "f", f, "bi")


def _stmt_onesided_quasi(m, f):
    return _kind_check("f is quasi", m, (f,), "f", f, "quasi")


def _stmt_onesided_genbi(m, f):
    return _kind_check("f is generalized_bi", m, (f,), "f", f, "generalized_bi")


def _stmt_idemquasi_prod_bi(m, f, g):
    fg = _kind_check("f*g is bi", m, (f, g), "f*g", gamma_product(m, f, g), "bi")
    return fg or _kind_check("g*f is bi", m, (f, g), "g*f", gamma_product(m, g, f), "bi")


def _stmt_prod_onesided(m, f, g):
    for side in ("left", "right"):
        if has_fuzzy_kind(m, f, side) and has_fuzzy_kind(m, g, side):
            v = _kind_check(f"f*g is {side}", m, (f, g), "f*g", gamma_product(m, f, g), side)
            if v is not None:
                return v
    return None


def _iff_kinds(m, f, kind_a, kind_b):
    wa = kind_violation(m, f, kind_a)
    wb = kind_violation(m, f, kind_b)
    if (wa is None) == (wb is None):
        return None
    if wa is None:
        return _kind_failure(f"{kind_a} but not {kind_b}", (f,), (("f", f),), kind_b, wb)
    return _kind_failure(f"{kind_b} but not {kind_a}", (f,), (("f", f),), kind_a, wa)


def _stmt_llb(m, f):
    return _iff_kinds(m, f, "right", "left")


def _stmt_left_idem(m, f):
    return _eq_check("f*f == f", (f,), "f*f", gamma_product(m, f, f), "f", f)


def _stmt_cap_eq_prod(m, f, g):
    return _eq_check("f^g == f*g", (f, g), "f^g", meet(f, g), "f*g", gamma_product(m, f, g))


def _stmt_inte(m, f):
    return _iff_kinds(m, f, "two_sided", "interior")


def _stmt_q2(m, f):
    return _iff_kinds(m, f, "two_sided", "quasi")


def _stmt_gener(m, f):
    return _iff_kinds(m, f, "bi", "generalized_bi")


def _stmt_bii(m, f):
    return _iff_kinds(m, f, "two_sided", "bi")


def _stmt_bi_fixedpoint(m, f):
    one = _ones(m)
    fs_f = gamma_product(m, gamma_product(m, f, one), f)
    ff = gamma_product(m, f, f)
    eqs = fs_f == f and ff == f
    w = kind_violation(m, f, "bi")
    if (w is None) == eqs:
        return None
    if w is None:
        lhs, name = (fs_f, "(f*ones)*f") if fs_f != f else (ff, "f*f")
        return _eq_check(f"bi but {name} != f", (f,), name, lhs, "f", f)
    return _kind_failure(
        "fixed point equations but not bi", (f,), (("(f*ones)*f", fs_f), ("f*f", ff)), "bi", w
    )


def _stmt_interior_fixedpoint(m, f):
    one = _ones(m)
    sfs = gamma_product(m, gamma_product(m, one, f), one)
    w = kind_violation(m, f, "interior")
    if (w is None) == (sfs == f):
        return None
    if w is None:
        return _eq_check("interior but (ones*f)*ones != f", (f,), "(ones*f)*ones", sfs, "f", f)
    return _kind_failure(
        "(ones*f)*ones == f but not interior", (f,), (("(ones*f)*ones", sfs),), "interior", w
    )


def _stmt_l145(m, f):
    return _stmt_sf(m, f) or _eq_check("f*ones == f", (f,), "f*ones", gamma_product(m, f, _ones(m)), "f", f)


GRAND_CONDITIONS = ("left", "right", "two_sided", "bi", "generalized_bi", "interior", "quasi")


def _stmt_grand_equiv(m, f):
    one = _ones(m)
    flags = {kind: has_fuzzy_kind(m, f, kind) for kind in GRAND_CONDITIONS}
    sf = gamma_product(m, one, f)
    fs = gamma_product(m, f, one)
    flags["ones*f == f == f*ones"] = sf == f and fs == f
    if all(flags.values()) or not any(flags.values()):
        return None
    true_name = next(n for n, v in flags.items() if v)
    false_name = next(n for n, v in flags.items() if not v)
    if false_name in GRAND_CONDITIONS:
        return _kind_check(f"{true_name} but not {false_name}", m, (f,), "f", f, false_name)
    bad = sf if sf != f else fs
    name = "ones*f" if sf != f else "f*ones"
    return _eq_check(f"{true_name} but {name} != f", (f,), name, bad, "f", f)


# ---------------------------------------------------------------------------
# premises


def _is_left(m, f):
    return has_fuzzy_kind(m, f, "left")


def _is_right(m, f):
    return has_fuzzy_kind(m, f, "right")


def _is_onesided(m, f):
    return has_fuzzy_kind(m, f, "left") or has_fuzzy_kind(m, f, "right")


def _is_idem_quasi(m, f):
    return has_fuzzy_kind(m, f, "quasi") and has_fuzzy_kind(m, f, "idempotent")


def _is_two_sided(m, f):
    return has_fuzzy_kind(m, f, "two_sided")


def _both_same_side(m, f, g):
    if _is_left(m, f) and _is_left(m, g):
        return True
    return _is_right(m, f) and _is_right(m, g)


# ---------------------------------------------------------------------------
# family-level statements over the set of lattice-valued two-sided ideals


def two_sided_family(m: GammaMagma, lattice: Lattice, budget: int) -> list[FuzzySubset]:
    total = lattice.count(m.order)
    if total > budget:
        raise CapacityError(
            f"family enumeration needs {total} lattice subsets; budget is {budget}"
        )
    return [f for f in lattice.subsets(m.order) if _is_two_sided(m, f)]


def _audited_family(m: GammaMagma, lattice: Lattice, budget: int) -> list[FuzzySubset]:
    """The two-sided family, once its triple audit is known to fit the budget."""
    family = two_sided_family(m, lattice, budget)
    if len(family) ** 3 > budget:
        raise CapacityError(
            f"family of {len(family)} ideals needs {len(family) ** 3} triple checks; budget is {budget}"
        )
    return family


def _closure_violation(m, f, g, fg):
    # fg left the family, so it fails two_sided somewhere (or it is a
    # two sided ideal the family enumeration missed, which the family
    # oracle test would catch)
    v = _kind_check("closure: f*g is not a two sided ideal", m, (f, g), "f*g", fg, "two_sided")
    if v is None:
        raise AssertionError("product is two sided but missing from the family")
    return v


def _semilattice_scan(m, family) -> tuple[dict[str, bool], Violation | None]:
    """Which semilattice properties the family has, and the first violation."""
    one = _ones(m)
    index = set(family)
    flags = dict.fromkeys(("closed", "commutative", "associative", "all_idempotent", "identity_holds"), True)
    violation = None

    def note(flag, v):
        nonlocal violation
        if v is not None:
            flags[flag] = False
            violation = violation or v

    for f in family:
        for g in family:
            fg = gamma_product(m, f, g)
            if fg not in index:
                note("closed", _closure_violation(m, f, g, fg))
            note("commutative", _eq_check("f*g == g*f", (f, g), "f*g", fg, "g*f", gamma_product(m, g, f)))
    for f in family:
        note("all_idempotent", _eq_check("f*f == f", (f,), "f*f", gamma_product(m, f, f), "f", f))
        note("identity_holds", _eq_check("f*ones == f", (f,), "f*ones", gamma_product(m, f, one), "f", f))
    for f, g, h in itertools.product(family, repeat=3):
        lhs = gamma_product(m, gamma_product(m, f, g), h)
        rhs = gamma_product(m, f, gamma_product(m, g, h))
        note("associative", _eq_check("(f*g)*h == f*(g*h)", (f, g, h), "(f*g)*h", lhs, "f*(g*h)", rhs))
        if not flags["associative"]:
            break
    return flags, violation


def _family_semilattice(m, family):
    return _semilattice_scan(m, family)[1]


def _is_prime_in(m, f, family):
    for g, h in itertools.product(family, repeat=2):
        if leq(gamma_product(m, g, h), f) and not leq(g, f) and not leq(h, f):
            return (g, h)
    return None


def _is_strongly_irreducible_in(m, f, family):
    for g, h in itertools.product(family, repeat=2):
        if leq(meet(g, h), f) and not leq(g, f) and not leq(h, f):
            return (g, h)
    return None


def _family_irr_iff_prime(m, family):
    for f in family:
        irr = _is_strongly_irreducible_in(m, f, family)
        prime = _is_prime_in(m, f, family)
        if (irr is None) == (prime is None):
            continue
        if irr is None:
            g, h = prime
            return _family_failure(
                "strongly irreducible but not prime", (f, g, h), (("g*h", gamma_product(m, g, h)),)
            )
        g, h = irr
        return _family_failure("prime but not strongly irreducible", (f, g, h), (("g^h", meet(g, h)),))
    return None


def _family_all_prime_iff_chain(m, family):
    not_prime = None
    for f in family:
        witness = _is_prime_in(m, f, family)
        if witness is not None:
            not_prime = (f,) + witness
            break
    incomparable = None
    for f, g in itertools.product(family, repeat=2):
        if not leq(f, g) and not leq(g, f):
            incomparable = (f, g)
            break
    if (not_prime is None) == (incomparable is None):
        return None
    if not_prime is None:
        return _family_failure("every ideal prime but family is not a chain", incomparable)
    f, g, h = not_prime
    return _family_failure(
        "family is a chain but some ideal is not prime", (f, g, h), (("g*h", gamma_product(m, g, h)),)
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class TheoremEntry:
    theorem_id: str
    summary: str
    hypotheses: tuple[str, ...]
    arity: int
    check: Callable | None
    premise: Callable | None = None
    pre_filters: tuple | None = None
    family_check: Callable | None = None

    @property
    def family(self) -> bool:
        return self.family_check is not None


_GAMMA_AG = ("gamma_ag",)
_AGSS = ("gamma_ag", "ag_star_star")
_INTRA = ("gamma_ag", "intra_regular")
_INTRA_AGSS = ("gamma_ag", "ag_star_star", "intra_regular")

_ENTRIES = [
    TheoremEntry(
        "sf",
        "composing the all-ones subset onto a left-stable subset returns it unchanged",
        _GAMMA_AG,
        1,
        _stmt_sf,
        pre_filters=(_is_left,),
    ),
    TheoremEntry(
        "sf_factorizable",
        "same statement as sf, gated on every element having a factorization",
        ("gamma_ag", "every_element_factorizable"),
        1,
        _stmt_sf,
        pre_filters=(_is_left,),
    ),
    TheoremEntry(
        "trm_i",
        "composition satisfies the invertive law",
        _GAMMA_AG,
        3,
        _stmt_trm_i,
    ),
    TheoremEntry(
        "trm_ii",
        "composition satisfies the medial law",
        _GAMMA_AG,
        4,
        _stmt_trm_ii,
    ),
    TheoremEntry(
        "agss_i",
        "composition lets the first factors of nested products swap",
        _AGSS,
        3,
        _stmt_agss_i,
    ),
    TheoremEntry(
        "agss_ii",
        "composition satisfies the paramedial law",
        _AGSS,
        4,
        _stmt_agss_ii,
    ),
    TheoremEntry(
        "rl_cap_quasi",
        "meet of a right-stable and a left-stable subset is quasi-stable",
        _GAMMA_AG,
        2,
        _stmt_rl_cap_quasi,
        pre_filters=(_is_right, _is_left),
    ),
    TheoremEntry(
        "qqq",
        "every quasi-stable subset is closed under composition pointwise",
        _GAMMA_AG,
        1,
        _stmt_qqq,
        pre_filters=(lambda m, f: has_fuzzy_kind(m, f, "quasi"),),
    ),
    TheoremEntry(
        "idem_quasi_bi",
        "idempotent quasi-stable subsets satisfy the bi condition",
        _GAMMA_AG,
        1,
        _stmt_idem_quasi_bi,
        pre_filters=(_is_idem_quasi,),
    ),
    TheoremEntry(
        "onesided_quasi",
        "one-sided stability implies quasi stability",
        _GAMMA_AG,
        1,
        _stmt_onesided_quasi,
        pre_filters=(_is_onesided,),
    ),
    TheoremEntry(
        "onesided_genbi",
        "one-sided stability implies the generalized bi condition",
        _GAMMA_AG,
        1,
        _stmt_onesided_genbi,
        pre_filters=(_is_onesided,),
    ),
    TheoremEntry(
        "idemquasi_prod_bi",
        "products of idempotent quasi-stable subsets satisfy the bi condition",
        _AGSS,
        2,
        _stmt_idemquasi_prod_bi,
        pre_filters=(_is_idem_quasi, _is_idem_quasi),
    ),
    TheoremEntry(
        "prod_onesided",
        "products of two left-stable (right-stable) subsets stay left-stable (right-stable)",
        _AGSS,
        2,
        _stmt_prod_onesided,
        premise=_both_same_side,
        pre_filters=(_is_onesided, _is_onesided),
    ),
    TheoremEntry(
        "llb",
        "right stability and left stability coincide",
        _INTRA,
        1,
        _stmt_llb,
    ),
    TheoremEntry(
        "left_idem",
        "left-stable subsets are idempotent under composition",
        _INTRA_AGSS,
        1,
        _stmt_left_idem,
        pre_filters=(_is_left,),
    ),
    TheoremEntry(
        "cap_eq_prod",
        "meet equals composition for right-stable against left-stable subsets",
        _INTRA_AGSS,
        2,
        _stmt_cap_eq_prod,
        pre_filters=(_is_right, _is_left),
    ),
    TheoremEntry(
        "semi1",
        "two-sided-stable subsets form a commutative idempotent semigroup with the all-ones identity",
        _INTRA_AGSS,
        0,
        None,
        family_check=_family_semilattice,
    ),
    TheoremEntry(
        "irr_iff_prime",
        "strong irreducibility and primeness coincide on the two-sided family",
        _INTRA_AGSS,
        0,
        None,
        family_check=_family_irr_iff_prime,
    ),
    TheoremEntry(
        "all_prime_iff_chain",
        "all members prime exactly when the two-sided family is totally ordered",
        _INTRA_AGSS,
        0,
        None,
        family_check=_family_all_prime_iff_chain,
    ),
    TheoremEntry(
        "inte",
        "two-sided stability coincides with the interior condition",
        _INTRA_AGSS,
        1,
        _stmt_inte,
    ),
    TheoremEntry(
        "q2",
        "two-sided stability coincides with quasi stability",
        _INTRA_AGSS,
        1,
        _stmt_q2,
    ),
    TheoremEntry(
        "gener",
        "the bi condition coincides with the generalized bi condition",
        _INTRA_AGSS,
        1,
        _stmt_gener,
    ),
    TheoremEntry(
        "bii",
        "two-sided stability coincides with the bi condition",
        _INTRA_AGSS,
        1,
        _stmt_bii,
    ),
    TheoremEntry(
        "bi_fixedpoint",
        "the bi condition coincides with the two fixed point equations",
        _INTRA_AGSS,
        1,
        _stmt_bi_fixedpoint,
    ),
    TheoremEntry(
        "interior_fixedpoint",
        "the interior condition coincides with its fixed point equation",
        _INTRA_AGSS,
        1,
        _stmt_interior_fixedpoint,
    ),
    TheoremEntry(
        "l145",
        "left-stable subsets absorb the all-ones subset on both sides",
        _INTRA_AGSS,
        1,
        _stmt_l145,
        pre_filters=(_is_left,),
    ),
    TheoremEntry(
        "grand_equiv",
        "the seven stability kinds and the absorption equations all coincide",
        _INTRA_AGSS,
        1,
        _stmt_grand_equiv,
    ),
]

REGISTRY = {e.theorem_id: e for e in _ENTRIES}
REGISTRY_ORDER = tuple(e.theorem_id for e in _ENTRIES)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification run, with the bounds actually used."""

    theorem_id: str
    status: str  # holds | counterexample | hypothesis_not_met | capacity_error
    lattice_den: int
    mode: str  # exhaustive | sampled
    seed: int | None
    requested: int | None
    checked: int
    failed_hypotheses: tuple[str, ...]
    violation: Violation | None
    detail: str | None = None

    def to_dict(self) -> dict:
        d = {
            "theorem": self.theorem_id,
            "status": self.status,
            "lattice": self.lattice_den,
            "mode": self.mode,
            "checked": self.checked,
        }
        if self.mode == "sampled":
            d["seed"] = self.seed
            d["requested"] = self.requested
        if self.failed_hypotheses:
            d["failed_hypotheses"] = list(self.failed_hypotheses)
        d["witness"] = self.violation.to_dict() if self.violation else None
        if self.detail:
            d["detail"] = self.detail
        return d


def _verdict(entry, status, lattice, mode, seed, requested, checked, failed=(), violation=None, detail=None):
    return Verdict(
        theorem_id=entry.theorem_id,
        status=status,
        lattice_den=lattice.den,
        mode=mode,
        seed=seed,
        requested=requested,
        checked=checked,
        failed_hypotheses=tuple(failed),
        violation=violation,
        detail=detail,
    )


def _exhaustive_tuples(m, entry, lattice, budget):
    """Every tuple of lattice subsets, each position drawn from its pre-filtered pool."""
    per_subset = lattice.count(m.order)
    if per_subset ** entry.arity > budget:
        raise CapacityError(
            f"exhaustive check needs {per_subset ** entry.arity} tuples; budget is {budget}"
        )
    pool = list(lattice.subsets(m.order))
    filters = entry.pre_filters or (None,) * entry.arity
    yield from itertools.product(*[[f for f in pool if flt(m, f)] if flt else pool for flt in filters])


def _sampled_tuples(m, entry, lattice, seed, samples, budget):
    """The seeded draws, in counter order, that pass every pre-filter."""
    if samples * entry.arity > budget:
        raise CapacityError(f"sampling needs {samples * entry.arity} draws; budget is {budget}")
    filters = entry.pre_filters or (None,) * entry.arity
    for i in range(samples):
        fs = tuple(
            sample_subset(seed, i * entry.arity + j, m.order, lattice.den)
            for j in range(entry.arity)
        )
        if all(flt is None or flt(m, f) for flt, f in zip(filters, fs)):
            yield fs


def verify(
    m: GammaMagma,
    theorem_id: str,
    lattice: Lattice,
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int | None = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> Verdict:
    """Check one registered statement on m over the given value lattice.

    Family-level statements always enumerate the full two-sided family:
    a sampled sub-family would fabricate closure violations, so the mode
    only affects per-subset quantification.
    """
    try:
        entry = REGISTRY[theorem_id]
    except KeyError:
        raise InputError(f"unknown theorem id {theorem_id!r}") from None
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown mode {mode!r}; expected exhaustive or sampled")
    if mode == "sampled":
        if seed is None or samples is None or samples < 1:
            raise InputError("sampled mode needs a seed and a positive sample count")
    hyps = structure_hypotheses(m)
    failed = tuple(h for h in entry.hypotheses if not hyps[h])
    if failed:
        return _verdict(entry, "hypothesis_not_met", lattice, mode, seed, samples, 0, failed=failed)

    if entry.family:
        family = _audited_family(m, lattice, budget)
        violation = entry.family_check(m, family)
        status = "holds" if violation is None else "counterexample"
        return _verdict(entry, status, lattice, mode, seed, samples, len(family), violation=violation)

    if mode == "exhaustive":
        tuples = _exhaustive_tuples(m, entry, lattice, budget)
    else:
        tuples = _sampled_tuples(m, entry, lattice, seed, samples, budget)
    checked = 0
    for fs in tuples:
        if entry.premise is not None and not entry.premise(m, *fs):
            continue
        checked += 1
        violation = entry.check(m, *fs)
        if violation is not None:
            return _verdict(entry, "counterexample", lattice, mode, seed, samples, checked, violation=violation)
    return _verdict(entry, "holds", lattice, mode, seed, samples, checked)


def _verify_task(args):
    m, theorem_id, lattice, mode, seed, samples, budget = args
    try:
        return theorem_id, verify(m, theorem_id, lattice, mode, seed, samples, budget)
    except CapacityError as exc:
        entry = REGISTRY[theorem_id]
        return theorem_id, _verdict(
            entry, "capacity_error", lattice, mode, seed, samples, 0, detail=str(exc)
        )


def _worker_count(jobs: int) -> int:
    """Worker processes for verify_all: at most one per id and one per CPU."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, len(REGISTRY_ORDER), os.cpu_count() or 1)


def verify_all(
    m: GammaMagma,
    lattice: Lattice,
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int | None = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
    jobs: int = 1,
) -> dict[str, Verdict]:
    """Run every registered id; capacity errors are recorded, not raised."""
    workers = _worker_count(jobs)
    tasks = [(m, tid, lattice, mode, seed, samples, budget) for tid in REGISTRY_ORDER]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_task, tasks))
    else:
        results = [_verify_task(t) for t in tasks]
    return dict(results)


@dataclass(frozen=True)
class SemilatticeReport:
    """Findings for the two-sided family under composition."""

    lattice_den: int
    ideal_count: int
    closed: bool
    commutative: bool
    associative: bool
    all_idempotent: bool
    identity_holds: bool
    violation: Violation | None

    @property
    def ok(self) -> bool:
        return (
            self.closed
            and self.commutative
            and self.associative
            and self.all_idempotent
            and self.identity_holds
        )

    def to_dict(self) -> dict:
        return {
            "lattice": self.lattice_den,
            "ideal_count": self.ideal_count,
            "closed": self.closed,
            "commutative": self.commutative,
            "associative": self.associative,
            "all_idempotent": self.all_idempotent,
            "identity_holds": self.identity_holds,
            "ok": self.ok,
            "violation": self.violation.to_dict() if self.violation else None,
        }


def semilattice_report(m: GammaMagma, lattice: Lattice, budget: int = DEFAULT_TUPLE_BUDGET) -> SemilatticeReport:
    """Exhaustive semilattice audit of the lattice-valued two-sided family."""
    hyps = structure_hypotheses(m)
    missing = [h for h in ("gamma_ag", "ag_star_star", "intra_regular") if not hyps[h]]
    if missing:
        raise InputError(f"structure fails required hypotheses: {', '.join(missing)}")
    family = _audited_family(m, lattice, budget)
    flags, violation = _semilattice_scan(m, family)
    return SemilatticeReport(lattice.den, len(family), violation=violation, **flags)
