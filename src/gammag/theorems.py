"""Registered algebraic statements verified extensionally on instances.

Each registry row binds a stable string id to structure hypotheses,
pre-filters on the quantified fuzzy subsets, and a statement written in
terms and kinds, compiled at import into a checker that either passes or
returns a replayable violation. Quantification ranges over all
lattice-valued subsets (exhaustive) or a seeded pseudo-random sample;
both paths are deterministic for fixed inputs. A linear row (an identity
of compositions with each variable once per side) whose exhaustive tuple
space overflows the budget is decided on singleton tuples instead, which
decide it at every lattice (see _singleton_decision). An exhaustive
coincide row is decided on its subsets' level-cut chains (see _cut_walk).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Callable
from weakref import WeakKeyDictionary

from .core import (
    LAW_TERMS,
    CapacityError,
    GammaMagma,
    InputError,
    check_laws,
    checked_instance,
    checked_int,
    checked_name,
    checked_structure,
)
from .crisp import CrispSubset, _mask_product, is_intra_regular
from .fuzzy import (
    CutKinds,
    FuzzySubset,
    Lattice,
    _level_cuts,
    characteristic,
    gamma_product,
    kind_violation,
    leq,
    meet,
)

HYPOTHESIS_NAMES = ("gamma_ag", "ag_star_star", "intra_regular", "every_element_factorizable")

DEFAULT_TUPLE_BUDGET = 1_000_000


_HYPOTHESES: WeakKeyDictionary = WeakKeyDictionary()


def structure_hypotheses(m: GammaMagma) -> dict:
    """Which structure-level hypotheses m satisfies (cached while m lives)."""
    hyps = _HYPOTHESES.get(checked_structure(m))
    if hyps is None:
        report = check_laws(m)
        hyps = _HYPOTHESES[m] = {
            "gamma_ag": report.left_invertive,
            "ag_star_star": report.left_invertive and report.ag_star_star,
            "intra_regular": report.left_invertive and is_intra_regular(m),
            "every_element_factorizable": m.every_element_factorizable,
        }
    return hyps


# checked_int's what, least and most for a sampled lattice denominator: a
# draw takes at least one base den + 1 digit from each 256-bit digest
_SAMPLE_DEN = ("sampled mode's lattice denominator (below 2**256)", 1, (1 << 256) - 1)


def sample_subset(seed: int, counter: int, order: int, den: int) -> FuzzySubset:
    """Deterministic counter-indexed draw of one lattice-valued subset.

    Keyed hashing makes the stream splittable: any (seed, counter) pair
    can be evaluated independently, with no sequential generator state.
    One 256-bit digest gives the first e members, e the most base-(den+1)
    digits it holds in full; each later block of e members comes from a
    digest keyed with the block's index as well.
    """
    checked_int(seed, "seed")
    checked_int(counter, "counter", 0)
    checked_int(order, "order", 1)
    checked_int(den, *_SAMPLE_DEN)
    base = den + 1
    per_digest = _digits_per_digest(base)
    values = []
    for block in range(-(-order // per_digest)):
        key = f"{seed}:{counter}:{den}" + (f":{block}" if block else "")
        h = hashlib.blake2b(key.encode(), digest_size=32, person=b"lattice-sample")
        v = int.from_bytes(h.digest(), "big")
        for _ in range(min(per_digest, order - len(values))):
            v, r = divmod(v, base)
            values.append(Fraction(r, den))
    return FuzzySubset(tuple(values))


@cache
def _digits_per_digest(base: int) -> int:
    """Largest e with base**e <= 2**256."""
    return next(e for e in itertools.count() if base ** (e + 1) > 1 << 256)


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


def _kind_check(clause, m, subsets, name, h, kind, held) -> Violation | None:
    """None when h has kind, as the memo held answers; else the failure,
    its witness built by kind_violation."""
    if kind in held(h, (kind,)):
        return None
    return _kind_failure(clause, subsets, ((name, h),), kind, kind_violation(m, h, kind))


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


@cache
def _ones(order: int) -> FuzzySubset:
    return FuzzySubset.ones(order)


def _count(n: int) -> str:
    """n in decimal, or a power-of-two bound on it where decimal text would pass Python's digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2**{n.bit_length() - 1}"


# ---------------------------------------------------------------------------
# family-level statements over the set of lattice-valued two-sided ideals


def two_sided_family(m: GammaMagma, lattice: Lattice, budget: int) -> list[FuzzySubset]:
    checked_int(budget, "budget", 1)
    total = checked_instance(lattice, Lattice).count(checked_structure(m).order)
    if total > budget:
        raise CapacityError(
            f"family enumeration needs {_count(total)} lattice subsets; budget is {budget}"
        )
    held = CutKinds(m)
    return [f for f in lattice.subsets(m.order) if held(f, ("two_sided",))]


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
    w = kind_violation(m, fg, "two_sided")
    if w is None:
        raise AssertionError("product is two sided but missing from the family")
    return _kind_failure("closure: f*g is not a two sided ideal", (f, g), (("f*g", fg),), "two_sided", w)


class _FamilyTables:
    """One family audit's tables, each built once, on first use: the member
    pair products and meets as values, and the order relation.

    A value is a member's index, or the subset itself where it is no
    member, so two values are equal exactly when their subsets are."""

    def __init__(self, m, family):
        self.m, self.family, self.members = m, family, range(len(family))
        self.index = {f: i for i, f in enumerate(family)}

    def value(self, f):
        return self.index.get(f, f)

    def subset(self, x) -> FuzzySubset:
        return self.family[x] if type(x) is int else x

    @cached_property
    def products(self) -> list[list]:
        return [[self.value(gamma_product(self.m, g, h)) for h in self.family] for g in self.family]

    @cached_property
    def meets(self) -> list[list]:
        return [[self.value(meet(g, h)) for h in self.family] for g in self.family]

    @cached_property
    def below(self) -> list[set[int]]:
        """Per member f, the members g <= f."""
        return [{g for g in self.members if leq(self.family[g], f)} for f in self.family]

    def compose(self, x, y):
        """The value of x*y; gamma_product runs only where x or y is no member."""
        if type(x) is int and type(y) is int:
            return self.products[x][y]
        return self.value(gamma_product(self.m, self.subset(x), self.subset(y)))

    def leq(self, x, f: int) -> bool:
        return x in self.below[f] if type(x) is int else leq(x, self.family[f])


def _semilattice_scan(m, family) -> tuple[dict[str, bool], Violation | None]:
    """Which semilattice properties the family has, and the first violation."""
    one = _ones(m.order)
    tables = _FamilyTables(m, family)
    products, subset = tables.products, tables.subset
    flags = dict.fromkeys(("closed", "commutative", "associative", "all_idempotent", "identity_holds"), True)
    violation = None

    def note(flag, v):
        nonlocal violation
        if v is not None:
            flags[flag] = False
            violation = violation or v

    for f, g in itertools.product(tables.members, repeat=2):
        fg, gf = products[f][g], products[g][f]
        if type(fg) is not int:
            note("closed", _closure_violation(m, family[f], family[g], fg))
        if fg != gf:
            note("commutative", _eq_check("f*g == g*f", (family[f], family[g]), "f*g", subset(fg), "g*f", subset(gf)))
    for i, f in enumerate(family):
        note("all_idempotent", _eq_check("f*f == f", (f,), "f*f", subset(products[i][i]), "f", f))
        note("identity_holds", _eq_check("f*ones == f", (f,), "f*ones", gamma_product(m, f, one), "f", f))
    for f, g, h in itertools.product(tables.members, repeat=3):
        lhs, rhs = tables.compose(products[f][g], h), tables.compose(f, products[g][h])
        if lhs != rhs:
            note("associative", _eq_check("(f*g)*h == f*(g*h)", (family[f], family[g], family[h]),
                                          "(f*g)*h", subset(lhs), "f*(g*h)", subset(rhs)))
            break
    return flags, violation


def _family_semilattice(m, family):
    return _semilattice_scan(m, family)[1]


def _split_below(tables, f, combined):
    """First members (g, h) with combined[g][h] <= member f but neither g <= f nor h <= f.

    With the pair products, None means f is prime in the family; with the
    meets, it means f is strongly irreducible."""
    outside = [g for g in tables.members if g not in tables.below[f]]
    for g, h in itertools.product(outside, repeat=2):
        if tables.leq(combined[g][h], f):
            return tables.family[g], tables.family[h]
    return None


def _family_irr_iff_prime(m, family):
    tables = _FamilyTables(m, family)
    for i, f in enumerate(family):
        irr = _split_below(tables, i, tables.meets)
        prime = _split_below(tables, i, tables.products)
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
    tables = _FamilyTables(m, family)
    not_prime = None
    for i, f in enumerate(family):
        witness = _split_below(tables, i, tables.products)
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
#
# One row per statement: (id, summary, hypotheses, pre-filters, shape,
# items). A term is a variable f, g, h or k, the all-ones subset "ones",
# or (op, left, right) with op "*" (composition) or "^" (meet); an
# equation is (lhs, "==", rhs). A pre-filter names the kinds a quantified
# position is drawn from, all of the kinds joined by "&", any one of the
# alternatives joined by "|"; "" or no pre-filters at all draws from every
# subset. Shape "holds" lists conclusions, equations or (term, "is",
# kind), and reports the first that fails; a conclusion may end with a
# guard, one kind per variable, and is then checked only where its guard
# holds, so a tuple counts as checked when some guard holds. Shape
# "coincide" lists conditions on f, each a kind or a (name, equations)
# group, and fails when some hold and others do not, setting the first
# that holds against the first that fails. Shape "family" names a check of
# the two-sided family, called as check(m, family).

_VARIABLES = "fghk"


def _law(name):
    """A LAW_TERMS row as an equation: labels dropped, variables renamed in order to f, g, h, k."""
    variables, _, (lhs, rhs) = LAW_TERMS[name]
    rename = dict(zip(variables, _VARIABLES))

    def term(t):
        return rename[t] if isinstance(t, str) else ("*", term(t[1]), term(t[2]))

    return (term(lhs), "==", term(rhs))


_ONES_F = ("*", "ones", "f")
_F_ONES = ("*", "f", "ones")
_FG = ("*", "f", "g")
_F_CAP_G = ("^", "f", "g")
_GAMMA_AG = ("gamma_ag",)
_AGSS = ("gamma_ag", "ag_star_star")
_INTRA = ("gamma_ag", "intra_regular")
_INTRA_AGSS = ("gamma_ag", "ag_star_star", "intra_regular")

_ROWS = (
    ("sf", "composing the all-ones subset onto a left-stable subset returns it unchanged",
     _GAMMA_AG, ("left",), "holds", [(_ONES_F, "==", "f")]),
    ("sf_factorizable", "same statement as sf, gated on every element having a factorization",
     ("gamma_ag", "every_element_factorizable"), ("left",), "holds", [(_ONES_F, "==", "f")]),
    ("trm_i", "composition satisfies the invertive law",
     _GAMMA_AG, (), "holds", [_law("left_invertive")]),
    ("trm_ii", "composition satisfies the medial law",
     _GAMMA_AG, (), "holds", [_law("medial")]),
    ("agss_i", "composition lets the first factors of nested products swap",
     _AGSS, (), "holds", [_law("ag_star_star")]),
    ("agss_ii", "composition satisfies the paramedial law",
     _AGSS, (), "holds", [_law("paramedial")]),
    ("rl_cap_quasi", "meet of a right-stable and a left-stable subset is quasi-stable",
     _GAMMA_AG, ("right", "left"), "holds", [(_F_CAP_G, "is", "quasi")]),
    ("qqq", "every quasi-stable subset is closed under composition pointwise",
     _GAMMA_AG, ("quasi",), "holds", [("f", "is", "subgroupoid")]),
    ("idem_quasi_bi", "idempotent quasi-stable subsets satisfy the bi condition",
     _GAMMA_AG, ("quasi&idempotent",), "holds", [("f", "is", "bi")]),
    ("onesided_quasi", "one-sided stability implies quasi stability",
     _GAMMA_AG, ("left|right",), "holds", [("f", "is", "quasi")]),
    ("onesided_genbi", "one-sided stability implies the generalized bi condition",
     _GAMMA_AG, ("left|right",), "holds", [("f", "is", "generalized_bi")]),
    ("idemquasi_prod_bi", "products of idempotent quasi-stable subsets satisfy the bi condition",
     _AGSS, ("quasi&idempotent", "quasi&idempotent"), "holds",
     [(_FG, "is", "bi"), (("*", "g", "f"), "is", "bi")]),
    ("prod_onesided", "products of two left-stable (right-stable) subsets stay left-stable (right-stable)",
     _AGSS, ("left|right", "left|right"), "holds",
     [(_FG, "is", "left", ("left", "left")), (_FG, "is", "right", ("right", "right"))]),
    ("llb", "right stability and left stability coincide",
     _INTRA, (), "coincide", ["right", "left"]),
    ("left_idem", "left-stable subsets are idempotent under composition",
     _INTRA_AGSS, ("left",), "holds", [(("*", "f", "f"), "==", "f")]),
    ("cap_eq_prod", "meet equals composition for right-stable against left-stable subsets",
     _INTRA_AGSS, ("right", "left"), "holds", [(_F_CAP_G, "==", _FG)]),
    ("semi1", "two-sided-stable subsets form a commutative idempotent semigroup with the all-ones identity",
     _INTRA_AGSS, (), "family", _family_semilattice),
    ("irr_iff_prime", "strong irreducibility and primeness coincide on the two-sided family",
     _INTRA_AGSS, (), "family", _family_irr_iff_prime),
    ("all_prime_iff_chain", "all members prime exactly when the two-sided family is totally ordered",
     _INTRA_AGSS, (), "family", _family_all_prime_iff_chain),
    ("inte", "two-sided stability coincides with the interior condition",
     _INTRA_AGSS, (), "coincide", ["two_sided", "interior"]),
    ("q2", "two-sided stability coincides with quasi stability",
     _INTRA_AGSS, (), "coincide", ["two_sided", "quasi"]),
    ("gener", "the bi condition coincides with the generalized bi condition",
     _INTRA_AGSS, (), "coincide", ["bi", "generalized_bi"]),
    ("bii", "two-sided stability coincides with the bi condition",
     _INTRA_AGSS, (), "coincide", ["two_sided", "bi"]),
    ("bi_fixedpoint", "the bi condition coincides with the two fixed point equations",
     _INTRA_AGSS, (), "coincide",
     ["bi", ("fixed point equations", [(("*", _F_ONES, "f"), "==", "f"), (("*", "f", "f"), "==", "f")])]),
    ("interior_fixedpoint", "the interior condition coincides with its fixed point equation",
     _INTRA_AGSS, (), "coincide",
     ["interior", ("(ones*f)*ones == f", [(("*", _ONES_F, "ones"), "==", "f")])]),
    ("l145", "left-stable subsets absorb the all-ones subset on both sides",
     _INTRA_AGSS, ("left",), "holds", [(_ONES_F, "==", "f"), (_F_ONES, "==", "f")]),
    ("grand_equiv", "the seven stability kinds and the absorption equations all coincide",
     _INTRA_AGSS, (), "coincide",
     ["left", "right", "two_sided", "bi", "generalized_bi", "interior", "quasi",
      ("ones*f == f == f*ones", [(_ONES_F, "==", "f"), (_F_ONES, "==", "f")])]),
)


def _render(term, nested=False) -> str:
    """The term's name as derived payloads carry it, e.g. "(f*g)*h"."""
    if isinstance(term, str):
        return term
    op, left, right = term
    text = f"{_render(left, True)}{op}{_render(right, True)}"
    return f"({text})" if nested else text


def _symbols(term) -> list[str]:
    """The term's leaves and operators, left to right."""
    if isinstance(term, str):
        return [term]
    op, left, right = term
    return _symbols(left) + [op] + _symbols(right)


def _evaluator(term):
    """Closure computing the term's value from (algebra, one value per variable),
    the algebra being (product, meet, ones) on lattice subsets or on crisp masks."""
    if term == "ones":
        return lambda alg, xs: alg[2]
    if isinstance(term, str):
        i = _VARIABLES.index(term)
        return lambda alg, xs: xs[i]
    op, left, right = term
    k = "*^".index(op)
    a, b = _evaluator(left), _evaluator(right)
    return lambda alg, xs: alg[k](a(alg, xs), b(alg, xs))


def _subset_algebra(m):
    # gamma_product and meet are looked up at each check, so a wrapper
    # installed on this module's attribute sees every call
    return partial(gamma_product, m), meet, _ones(m.order)


def _equation(eq):
    lhs, _, rhs = eq
    return _render(lhs), _evaluator(lhs), _render(rhs), _evaluator(rhs)


def _admits(held, tests, fs) -> bool:
    """Whether each subset passes its position's kind test (None passes all);
    held is a fuzzy.CutKinds engine, asked held(f, kinds)."""
    return all(test is None or test(held, f) for test, f in zip(tests, fs))


def _conclusion(item):
    """(guard: a kind test per variable or None, test returning the violation or None, equation closures or None)."""
    lhs, relation, rhs, *guard = item
    guard = tuple(map(_pre_filter, guard[0])) if guard else None
    if relation == "is":
        name, value = _render(lhs), _evaluator(lhs)
        clause = f"{name} is {rhs}"

        def test(m, alg, fs, held):
            return _kind_check(clause, m, fs, name, value(alg, fs), rhs, held)

        return guard, test, None
    lname, lvalue, rname, rvalue = _equation(item[:3])
    clause = f"{lname} == {rname}"

    def test(m, alg, fs, held):
        return _eq_check(clause, fs, lname, lvalue(alg, fs), rname, rvalue(alg, fs))

    return guard, test, (lvalue, rvalue)


def _holds(conclusions):
    """Checker, premise and each conclusion's equation closures for a "holds" row.

    The checker's guards and kind conclusions ask held(f, kinds), the
    caller's CutKinds memo or a new one."""
    steps = [_conclusion(item) for item in conclusions]
    guards = [guard for guard, _, _ in steps]

    def check(m, *fs, held=None):
        alg = _subset_algebra(m)
        if held is None:
            held = CutKinds(m)
        for guard, test, _ in steps:
            if guard is None or _admits(held, guard, fs):
                v = test(m, alg, fs, held)
                if v is not None:
                    return v
        return None

    premise = None if None in guards else lambda held, *fs: any(_admits(held, guard, fs) for guard in guards)
    return check, premise, [sides for _, _, sides in steps]


# each equation a coincide row states, as the CutKinds fixed-point key deciding it
_FIXED_POINT_KEYS = {
    "ones*f == f": "=SA",
    "f*ones == f": "=AS",
    "(ones*f)*ones == f": "=SAS",
    "(f*ones)*f == f": "=ASA",
    "f*f == f": "=AA",
}


def _coincide(conditions):
    """Checker for a "coincide" row, and each condition's CutKinds keys: a
    kind is its own key, and an equation group one fixed-point key per
    equation. Every condition is decided on held, the caller's CutKinds
    memo or a new one, and the first that holds is set against the first
    that fails; only then are the equations evaluated, for the witness."""
    parts = [(c, None) if isinstance(c, str) else (c[0], [_equation(eq) for eq in c[1]]) for c in conditions]
    keys = tuple((name,) if eqs is None else tuple(_FIXED_POINT_KEYS[f"{ln} == {rn}"] for ln, _, rn, _ in eqs)
                 for name, eqs in parts)
    asked = frozenset().union(*keys)

    def check(m, *fs, held=None):
        f = fs[0]
        found = (CutKinds(m) if held is None else held)(f, asked)
        flags = [found.issuperset(k) for k in keys]
        if all(flags) or not any(flags):
            return None
        t, u = flags.index(True), flags.index(False)
        (true_name, true_eqs), (false_name, false_eqs) = parts[t], parts[u]
        alg = _subset_algebra(m)
        if false_eqs is None:
            derived = (("f", f),) if true_eqs is None else [(ln, lv(alg, fs)) for ln, lv, _, _ in true_eqs]
            w = kind_violation(m, f, false_name)
            return _kind_failure(f"{true_name} but not {false_name}", fs, derived, false_name, w)
        for ln, lv, rn, rv in false_eqs:
            lhs, rhs = lv(alg, fs), rv(alg, fs)
            if lhs != rhs:
                return _eq_check(f"{true_name} but {ln} != {rn}", fs, ln, lhs, rn, rhs)
        raise AssertionError("a level cut fails a fixed point but its equations hold")

    return check, keys


def _linear_sides(filters, items, sides):
    """The (lhs, rhs) closures of a "holds" row's equations when the row is linear, else None.

    A row is linear when it has no pre-filter and no guard, and every
    conclusion is an equation between products in which every one of the
    row's variables occurs exactly once."""
    if any(filters) or any(len(item) != 3 or item[1] != "==" for item in items):
        return None
    terms = [_symbols(t) for lhs, _, rhs in items for t in (lhs, rhs)]
    variables = sorted({s for t in terms for s in t if s in _VARIABLES})
    if all("*" in t and sorted(s for s in t if s != "*") == variables for t in terms):
        return tuple(sides)
    return None


@cache
def _pre_filter(spec):
    """Membership test for one quantified position, one per spec; None for no filter."""
    if not spec:
        return None
    alternatives = [set(alt.split("&")) for alt in spec.split("|")]
    named = frozenset().union(*alternatives)

    def test(held, f):
        found = held(f, named)
        return any(kinds <= found for kinds in alternatives)

    return test


@dataclass(frozen=True)
class TheoremEntry:
    theorem_id: str
    summary: str
    hypotheses: tuple[str, ...]
    arity: int  # 0 for a family row, whose check is called as check(m, family)
    check: Callable
    premise: Callable | None = None  # premise(held, *fs) for a guarded row, held(f, kinds) a kinds query
    pre_filters: tuple | None = None
    linear: tuple | None = None  # (lhs, rhs) closures of each equation of a linear row
    conditions: tuple | None = None  # a coincide row's CutKinds keys, per condition

    @property
    def family(self) -> bool:
        return self.arity == 0


def _entry(theorem_id, summary, hypotheses, filters, shape, items) -> TheoremEntry:
    """Compile one row; the arity is the number of variables the row uses."""
    if shape == "family":
        return TheoremEntry(theorem_id, summary, hypotheses, 0, items)
    conditions = None
    if shape == "holds":
        check, premise, sides = _holds(items)
        linear = _linear_sides(filters, items, sides)
        terms = [t for lhs, rel, rhs, *_ in items for t in ((lhs, rhs) if rel == "==" else (lhs,))]
    else:
        (check, conditions), premise, linear = _coincide(items), None, None
        groups = [c[1] for c in items if not isinstance(c, str)]
        terms = ["f"] + [t for equations in groups for lhs, _, rhs in equations for t in (lhs, rhs)]
    arity = 1 + max(_VARIABLES.index(s) for t in terms for s in _symbols(t) if s in _VARIABLES)
    pre_filters = tuple(_pre_filter(spec) for spec in filters or ("",) * arity)
    return TheoremEntry(theorem_id, summary, hypotheses, arity, check, premise, pre_filters, linear, conditions)


REGISTRY = {row[0]: _entry(*row) for row in _ROWS}
REGISTRY_ORDER = tuple(REGISTRY)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification run, with the bounds actually used."""

    theorem_id: str
    status: str  # holds | counterexample | hypothesis_not_met | capacity_error
    lattice_den: int
    mode: str  # exhaustive | sampled | singletons (a linear row decided on singleton tuples)
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


def _exhaustive_pools(m, entry, lattice, budget, held):
    """Each position's pre-filtered pool of lattice subsets; None where singletons decide the row.

    The budget is charged the tuples the pools hold: a pre-filtered
    position counts at its filtered pool, once the lattice itself fits the
    budget. Past the budget a linear row is decided on its n^arity
    singleton tuples, if they fit; any other request raises CapacityError.
    """
    count = lattice.count(m.order)
    needed = count ** entry.arity
    if count <= budget and (needed <= budget or any(entry.pre_filters)):
        pool = list(lattice.subsets(m.order))
        # positions with one spec share its compiled test, so each pool is filtered once
        filtered = {flt: [f for f in pool if flt(held, f)] for flt in set(entry.pre_filters) if flt}
        pools = [filtered.get(flt, pool) for flt in entry.pre_filters]
        needed = math.prod(map(len, pools))
        if needed <= budget:
            return pools
    elif entry.linear is not None and m.order ** entry.arity <= budget:
        return None
    raise CapacityError(f"exhaustive check needs {_count(needed)} tuples; budget is {budget}")


def _singleton_decision(m, entry) -> tuple[int, Violation | None]:
    """Decide a linear row on singleton tuples: (tuples examined, first violation or None).

    Sup-min composition distributes over joins in each argument, the
    empty join included (a zero argument gives a zero product). Every
    subset is the join of its fuzzy points x_s (x at level s), so a side
    in which every variable occurs once is the join of its values on
    tuples of fuzzy points. On points, x_s * y_t is the crisp product
    x*y at level min(s, t); so each side is the crisp singleton term cut
    at the minimum of the tuple's levels, and that minimum is the same on
    both sides. Hence the equations hold on every tuple at every lattice
    den exactly when they hold on every tuple of singletons. A failing
    singleton tuple has values in {0, 1}, so it is itself a den-d
    counterexample; the first in lexicographic element order is reported
    through the row's own check on its characteristic subsets.
    """
    alg = partial(_mask_product, m.row_unions), int.__and__, (1 << m.order) - 1
    checked = 0
    for xs in itertools.product([1 << x for x in range(m.order)], repeat=entry.arity):
        checked += 1
        if any(lhs(alg, xs) != rhs(alg, xs) for lhs, rhs in entry.linear):
            violation = entry.check(m, *(characteristic(CrispSubset(m.order, x)) for x in xs))
            if violation is None:
                raise AssertionError("a singleton tuple fails on masks but passes the row's check")
            return checked, violation
    return checked, None


def _cut_walk(m, entry, lattice, held) -> tuple[int, Violation | None]:
    """Decide a coincide row on every lattice subset: (subsets checked,
    first violation or None), as the subset walk would report them.

    f meets a condition exactly when each of its non-empty level cuts
    meets all of the condition's CutKinds keys (see fuzzy.CutKinds). So
    the walk runs over numerator tuples in Lattice.subsets order, reads
    each tuple's cut chain, and ANDs the per-cut condition flags, which a
    memo for this walk keeps per cut mask. The subset is built, and the
    row's check called for its witness, only at the first tuple where the
    conditions disagree."""
    every = (1 << len(entry.conditions)) - 1
    flags = {}  # cut mask -> bit i set when condition i holds on the cut
    for checked, num in enumerate(itertools.product(range(lattice.den + 1), repeat=m.order), 1):
        agree = every
        for cut in _level_cuts(num):
            bits = flags.get(cut)
            if bits is None:
                products = held[cut]
                bits = flags[cut] = sum(1 << i for i, keys in enumerate(entry.conditions)
                                        if all(products[k] for k in keys))
            agree &= bits
            if not agree:
                break
        if agree and agree != every:
            f = FuzzySubset(tuple(Fraction(v, lattice.den) for v in num))
            violation = entry.check(m, f, held=held)
            if violation is None:
                raise AssertionError("the cut flags disagree but the row's check passes")
            return checked, violation
    return lattice.count(m.order), None


def _sampled_tuples(m, entry, lattice, seed, samples, budget, held):
    """The seeded draws, in counter order, that pass every pre-filter."""
    if samples * entry.arity > budget:
        raise CapacityError(f"sampling needs {_count(samples * entry.arity)} draws; budget is {budget}")
    for i in range(samples):
        fs = tuple(
            sample_subset(seed, i * entry.arity + j, m.order, lattice.den)
            for j in range(entry.arity)
        )
        if _admits(held, entry.pre_filters, fs):
            yield fs


def _check_request(lattice, mode, seed, samples, budget) -> None:
    """Reject a malformed verify request before any work starts."""
    checked_instance(lattice, Lattice)
    if checked_name(mode, "mode", ("exhaustive", "sampled")) == "sampled":
        checked_int(seed, "seed")
        checked_int(samples, "sample count", 1)
        checked_int(lattice.den, *_SAMPLE_DEN)
    checked_int(budget, "budget", 1)


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
    only affects per-subset quantification. A sampled run in which no draw
    passes the pre-filters and the premise has checked nothing, so it
    raises CapacityError rather than holding vacuously.
    """
    entry = REGISTRY[checked_name(theorem_id, "theorem id", REGISTRY)]
    _check_request(lattice, mode, seed, samples, budget)
    hyps = structure_hypotheses(m)
    failed = tuple(h for h in entry.hypotheses if not hyps[h])
    if failed:
        return _verdict(entry, "hypothesis_not_met", lattice, mode, seed, samples, 0, failed=failed)

    if entry.family:
        family = _audited_family(m, lattice, budget)
        violation = entry.check(m, family)
        status = "holds" if violation is None else "counterexample"
        return _verdict(entry, status, lattice, mode, seed, samples, len(family), violation=violation)

    # every kind question of the call (pre-filters, guards, kind
    # conclusions, coincide conditions) reads one memo keyed by cut mask
    held = CutKinds(m)
    if mode == "exhaustive":
        # a coincide row walks cut chains; past the budget it stops in _exhaustive_pools
        if entry.conditions is not None and lattice.count(m.order) <= budget:
            checked, violation = _cut_walk(m, entry, lattice, held)
            status = "holds" if violation is None else "counterexample"
            return _verdict(entry, status, lattice, mode, seed, samples, checked, violation=violation)
        pools = _exhaustive_pools(m, entry, lattice, budget, held)
        if pools is None:
            checked, violation = _singleton_decision(m, entry)
            status = "holds" if violation is None else "counterexample"
            return _verdict(entry, status, lattice, "singletons", seed, samples, checked, violation=violation)
        tuples = itertools.product(*pools)
    else:
        tuples = _sampled_tuples(m, entry, lattice, seed, samples, budget, held)
    check, premise = partial(entry.check, held=held), entry.premise
    if premise is not None:
        premise = partial(premise, held)
    checked = 0
    for fs in tuples:
        if premise is not None and not premise(*fs):
            continue
        checked += 1
        violation = check(m, *fs)
        if violation is not None:
            return _verdict(entry, "counterexample", lattice, mode, seed, samples, checked, violation=violation)
    if checked == 0 and mode == "sampled":
        # no evidence either way: a capacity stop, not a vacuous holds
        raise CapacityError(f"no sampled draw of {samples} passed the row's pre-filters and premise")
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
    return min(checked_int(jobs, "jobs", 1), len(REGISTRY_ORDER), os.cpu_count() or 1)


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
    _check_request(lattice, mode, seed, samples, budget)
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
    checked_instance(lattice, Lattice)
    hyps = structure_hypotheses(m)
    missing = [h for h in REGISTRY["semi1"].hypotheses if not hyps[h]]
    if missing:
        raise InputError(f"structure fails required hypotheses: {', '.join(missing)}")
    family = _audited_family(m, lattice, budget)
    flags, violation = _semilattice_scan(m, family)
    return SemilatticeReport(lattice.den, len(family), violation=violation, **flags)
