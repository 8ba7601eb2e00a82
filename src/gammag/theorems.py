"""Registered algebraic statements verified extensionally on instances.

Each registry row binds a stable string id to structure hypotheses,
pre-filters on the quantified fuzzy subsets, and a statement written in
terms, kinds and crisp.FIXED_POINTS keys, compiled at import into a
checker that either passes or returns a replayable violation, each built
by _failure. Quantification ranges over all lattice-valued subsets
(exhaustive) or a seeded pseudo-random sample; both paths are
deterministic for fixed inputs, and _charge stops either one whose work
would pass the tuple budget. One walk, _grid_walk, reads the grid as
numerator tuples, each with the kinds of its level-cut chain:
pre-filtered pools and the two-sided family build only the subsets they
keep, and a coincide row stops at its first disagreement.
A linear row (an identity of compositions with each variable once per
side) whose exhaustive tuple space overflows the budget is decided on
singleton tuples instead, which decide it at every lattice (see
_singleton_decision).
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
from .crisp import CrispSubset, _mask_product, is_intra_regular, shape_product
from .fuzzy import (
    CutKinds,
    FuzzySubset,
    KindWitness,
    Lattice,
    _first_failure,
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


def _failure(clause, subsets, derived, w=KindWitness((), (), "geq", Fraction(0), Fraction(0)), **extra) -> Violation:
    """Violation of clause carrying the pointwise failure w (a family
    statement has none) and extra, the sides' vectors or the failed kind."""
    return Violation(clause, tuple(subsets), tuple(derived), *w, **extra)


def _eq_check(clause, subsets, lhs_name, lhs, rhs_name, rhs) -> Violation | None:
    if lhs == rhs:
        return None
    return _failure(clause, subsets, ((lhs_name, lhs), (rhs_name, rhs)), _first_failure("eq", lhs, rhs),
                    lhs_vector=lhs, rhs_vector=rhs)


@cache
def _ones(order: int) -> FuzzySubset:
    return FuzzySubset.ones(order)


def _charge(needed: int, budget: int, work: str, unit: str) -> None:
    """Stop with "<work> needs N <unit>; budget is B" when needed is over
    the budget; N is a power-of-two bound where decimal text would pass
    Python's digit limit."""
    if needed > budget:
        try:
            count = str(needed)
        except ValueError:
            count = f"at least 2**{needed.bit_length() - 1}"
        raise CapacityError(f"{work} needs {count} {unit}; budget is {budget}")


# ---------------------------------------------------------------------------
# the lattice grid, walked as numerator tuples, and family-level statements
# over its two-sided ideals


def _grid_walk(m, lattice, keysets, held):
    """Every numerator tuple of the lattice grid, in Lattice.subsets order,
    with a mask whose bit i is set when the subset has all the CutKinds
    keys of keysets[i] (an empty keyset is had by every subset).

    A subset has a key exactly when each of its non-empty level cuts has
    it (see fuzzy.CutKinds), so the mask ANDs, along the tuple's cut
    chain, per-cut bits that a memo for this walk keeps per cut mask."""
    every = (1 << len(keysets)) - 1
    bits_of = {}
    for num in itertools.product(range(lattice.den + 1), repeat=m.order):
        mask = every
        for cut in _level_cuts(num):
            bits = bits_of.get(cut)
            if bits is None:
                products = held[cut]
                bits = bits_of[cut] = sum(1 << i for i, keys in enumerate(keysets)
                                          if all(products[k] for k in keys))
            mask &= bits
            if not mask:
                break
        yield num, mask


def _grid_pools(m, lattice, held, filters) -> list[list[FuzzySubset]]:
    """Each pre-filter's pool: the lattice subsets, in Lattice.subsets
    order, with all the kinds of one of its alternatives. Equal filters
    share one list, and only subsets some pool keeps are built, once."""
    keysets = list(dict.fromkeys(itertools.chain(*filters)))
    bits = {flt: sum(1 << keysets.index(kinds) for kinds in flt) for flt in filters}
    pools = {flt: [] for flt in filters}
    for num, mask in _grid_walk(m, lattice, keysets, held):
        if mask:
            f = lattice.subset(num)
            for flt, flt_bits in bits.items():
                if mask & flt_bits:
                    pools[flt].append(f)
    return [pools[flt] for flt in filters]


def two_sided_family(m: GammaMagma, lattice: Lattice, budget: int) -> list[FuzzySubset]:
    checked_int(budget, "budget", 1)
    total = checked_instance(lattice, Lattice).count(checked_structure(m).order)
    _charge(total, budget, "family enumeration", "lattice subsets")
    return _grid_pools(m, lattice, CutKinds(m), [(("two_sided",),)])[0]


def _audited_family(m: GammaMagma, lattice: Lattice, budget: int) -> list[FuzzySubset]:
    """The two-sided family, once its triple audit is known to fit the budget."""
    family = two_sided_family(m, lattice, budget)
    _charge(len(family) ** 3, budget, f"family of {len(family)} ideals", "triple checks")
    return family


def _closure_violation(m, f, g, fg):
    # fg left the family, so it fails two_sided somewhere (or it is a
    # two sided ideal the family enumeration missed, which the family
    # oracle test would catch)
    w = kind_violation(m, fg, "two_sided")
    if w is None:
        raise AssertionError("product is two sided but missing from the family")
    return _failure("closure: f*g is not a two sided ideal", (f, g), (("f*g", fg),), w, kind="two_sided")


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
            return _failure("strongly irreducible but not prime", (f, g, h), (("g*h", gamma_product(m, g, h)),))
        g, h = irr
        return _failure("prime but not strongly irreducible", (f, g, h), (("g^h", meet(g, h)),))
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
        return _failure("every ideal prime but family is not a chain", incomparable, ())
    f, g, h = not_prime
    return _failure("family is a chain but some ideal is not prime", (f, g, h), (("g*h", gamma_product(m, g, h)),))


# ---------------------------------------------------------------------------
# registry
#
# One row per statement: (id, summary, hypotheses, pre-filters, shape,
# items). A term is a variable f, g, h or k, the all-ones subset "ones",
# or (op, left, right) with op "*" (composition) or "^" (meet); an
# equation is (lhs, "==", rhs), and _fixed_point spells the equation of a
# crisp.FIXED_POINTS key ("=SA" is ones*f == f). A pre-filter names the
# kinds a quantified position is drawn from, all of the kinds joined by
# "&", any one of the alternatives joined by "|"; "" or no pre-filters at
# all draws from every subset. Shape "holds" lists conclusions, equations
# or (term, "is", kind), and reports the first that fails; a conclusion
# may end with a guard, one kind per variable, and is then checked only
# where its guard holds, so a tuple counts as checked when some guard
# holds. Shape "coincide" lists conditions on f, each a kind or a (name,
# keys) group of fixed-point keys, and fails when some hold and others do
# not, setting the first that holds against the first that fails. Shape
# "family" names a check of the two-sided family, called as
# check(m, family).

_VARIABLES = "fghk"


def _law(name):
    """A LAW_TERMS row as an equation: labels dropped, variables renamed in order to f, g, h, k."""
    variables, _, (lhs, rhs) = LAW_TERMS[name]
    rename = dict(zip(variables, _VARIABLES))

    def term(t):
        return rename[t] if isinstance(t, str) else ("*", term(t[1]), term(t[2]))

    return (term(lhs), "==", term(rhs))


def _fixed_point(key):
    """A crisp.FIXED_POINTS key as its equation, f for A and ones for S: "=SAS" is (ones*f)*ones == f."""
    return (shape_product(lambda x, y: ("*", x, y), key[1:], "f", "ones"), "==", "f")


_FG = ("*", "f", "g")
_F_CAP_G = ("^", "f", "g")
_GAMMA_AG = ("gamma_ag",)
_AGSS = ("gamma_ag", "ag_star_star")
_INTRA = ("gamma_ag", "intra_regular")
_INTRA_AGSS = ("gamma_ag", "ag_star_star", "intra_regular")

_ROWS = (
    ("sf", "composing the all-ones subset onto a left-stable subset returns it unchanged",
     _GAMMA_AG, ("left",), "holds", [_fixed_point("=SA")]),
    ("sf_factorizable", "same statement as sf, gated on every element having a factorization",
     ("gamma_ag", "every_element_factorizable"), ("left",), "holds", [_fixed_point("=SA")]),
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
     _INTRA_AGSS, ("left",), "holds", [_fixed_point("=AA")]),
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
     ["bi", ("fixed point equations", ("=ASA", "=AA"))]),
    ("interior_fixedpoint", "the interior condition coincides with its fixed point equation",
     _INTRA_AGSS, (), "coincide",
     ["interior", ("(ones*f)*ones == f", ("=SAS",))]),
    ("l145", "left-stable subsets absorb the all-ones subset on both sides",
     _INTRA_AGSS, ("left",), "holds", [_fixed_point("=SA"), _fixed_point("=AS")]),
    ("grand_equiv", "the seven stability kinds and the absorption equations all coincide",
     _INTRA_AGSS, (), "coincide",
     ["left", "right", "two_sided", "bi", "generalized_bi", "interior", "quasi",
      ("ones*f == f == f*ones", ("=SA", "=AS"))]),
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


def _admits(held, filters, fs) -> bool:
    """Whether each subset has all the kinds of some alternative of its
    position's pre-filter (None admits every subset); held is a
    fuzzy.CutKinds engine, asked held(f, kinds)."""
    return all(flt is None or any(held(f, kinds) == set(kinds) for kinds in flt)
               for flt, f in zip(filters, fs))


def _conclusion(item):
    """(guard: a pre-filter per variable or None, test returning the violation or None, equation closures or None)."""
    lhs, relation, rhs, *guard = item
    guard = tuple(map(_pre_filter, guard[0])) if guard else None
    if relation == "is":
        name, value = _render(lhs), _evaluator(lhs)
        clause = f"{name} is {rhs}"

        def test(m, alg, fs, held):
            # held decides the kind; kind_violation builds the witness only on a failure
            h = value(alg, fs)
            if rhs in held(h, (rhs,)):
                return None
            return _failure(clause, fs, ((name, h),), kind_violation(m, h, rhs), kind=rhs)

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


def _coincide(conditions):
    """Checker for a "coincide" row, and each condition's CutKinds keys: a
    kind is its own key, and a group its fixed-point keys. Every condition
    is decided on held, the caller's CutKinds memo or a new one, and the
    first that holds is set against the first that fails; only then are
    the keys' equations evaluated, for the witness."""
    parts = [(c, None) if isinstance(c, str) else (c[0], [_equation(_fixed_point(k)) for k in c[1]])
             for c in conditions]
    keys = tuple((c,) if isinstance(c, str) else c[1] for c in conditions)
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
            return _failure(f"{true_name} but not {false_name}", fs, derived, w, kind=false_name)
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


def _pre_filter(spec):
    """One quantified position's pre-filter as its alternatives, each a
    tuple of kinds, as "quasi&idempotent|left" gives (("quasi",
    "idempotent"), ("left",)); None for no filter."""
    return tuple(tuple(alt.split("&")) for alt in spec.split("|")) if spec else None


@dataclass(frozen=True)
class TheoremEntry:
    theorem_id: str
    summary: str
    hypotheses: tuple[str, ...]
    arity: int  # 0 for a family row, whose check is called as check(m, family)
    check: Callable
    premise: Callable | None = None  # premise(held, *fs) for a guarded row, held(f, kinds) a kinds query
    pre_filters: tuple | None = None  # per position, _pre_filter's alternatives or None
    linear: tuple | None = None  # (lhs, rhs) closures of each equation of a linear row
    conditions: tuple | None = None  # a coincide row's CutKinds keys, per condition

    @property
    def family(self) -> bool:
        return self.arity == 0


def _entry(theorem_id, summary, hypotheses, filters, shape, items) -> TheoremEntry:
    """Compile one row; the arity is the number of variables the row uses,
    f alone in a coincide row."""
    if shape == "family":
        return TheoremEntry(theorem_id, summary, hypotheses, 0, items)
    if shape == "holds":
        check, premise, sides = _holds(items)
        linear, conditions = _linear_sides(filters, items, sides), None
        terms = [t for lhs, rel, rhs, *_ in items for t in ((lhs, rhs) if rel == "==" else (lhs,))]
        arity = 1 + max(_VARIABLES.index(s) for t in terms for s in _symbols(t) if s in _VARIABLES)
    else:
        (check, conditions), premise, linear, arity = _coincide(items), None, None, 1
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


def _exhaustive_pools(m, entry, lattice, budget, held):
    """Each position's pre-filtered pool of lattice subsets; None where singletons decide the row.

    The budget is charged the tuples the pools hold: a pre-filtered
    position counts at its filtered pool, once the lattice itself fits the
    budget. Past the budget a linear row is decided on its n^arity
    singleton tuples, if they fit; any other request raises CapacityError.
    """
    count = lattice.count(m.order)
    needed = count ** entry.arity
    if needed > budget and entry.linear is not None and m.order ** entry.arity <= budget:
        return None
    if count <= budget and (needed <= budget or any(entry.pre_filters)):
        # a position with no pre-filter asks the empty alternative, which every subset has
        pools = _grid_pools(m, lattice, held, [flt or ((),) for flt in entry.pre_filters])
        needed = math.prod(map(len, pools))
    _charge(needed, budget, "exhaustive check", "tuples")  # needed is past the budget where no pools were built
    return pools


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
    first violation or None), as a loop over Lattice.subsets would report
    them. The grid walk asks for each condition's keys; the subset is
    built, and the row's check called for its witness, only at the first
    tuple where the conditions disagree."""
    every = (1 << len(entry.conditions)) - 1
    for checked, (num, mask) in enumerate(_grid_walk(m, lattice, entry.conditions, held), 1):
        if mask and mask != every:
            violation = entry.check(m, lattice.subset(num), held=held)
            if violation is None:
                raise AssertionError("the cut flags disagree but the row's check passes")
            return checked, violation
    return lattice.count(m.order), None


def _sampled_tuples(m, entry, lattice, seed, samples, budget, held):
    """The seeded draws, in counter order, that pass every pre-filter."""
    _charge(samples * entry.arity, budget, "sampling", "draws")
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


def _decide(m, entry, lattice, mode, seed, samples, budget) -> tuple[str, int, Violation | None]:
    """(mode, checked, first violation or None) for a row whose hypotheses m meets."""
    if entry.family:
        family = _audited_family(m, lattice, budget)
        return mode, len(family), entry.check(m, family)
    # every kind question of the call (pre-filters, guards, kind
    # conclusions, coincide conditions) reads one memo keyed by cut mask
    held = CutKinds(m)
    if mode == "sampled":
        tuples = _sampled_tuples(m, entry, lattice, seed, samples, budget, held)
    elif entry.conditions is not None:
        # a coincide row walks cut chains, one tuple per lattice subset
        _charge(lattice.count(m.order), budget, "exhaustive check", "tuples")
        return (mode, *_cut_walk(m, entry, lattice, held))
    else:
        pools = _exhaustive_pools(m, entry, lattice, budget, held)
        if pools is None:
            return ("singletons", *_singleton_decision(m, entry))
        tuples = itertools.product(*pools)
    if entry.premise is not None:
        tuples = (fs for fs in tuples if entry.premise(held, *fs))
    checked = 0
    for checked, fs in enumerate(tuples, 1):
        violation = entry.check(m, *fs, held=held)
        if violation is not None:
            return mode, checked, violation
    if checked == 0 and mode == "sampled":
        # no evidence either way: a capacity stop, not a vacuous holds
        raise CapacityError(f"no sampled draw of {samples} passed the row's pre-filters and premise")
    return mode, checked, None


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
        status, checked, violation = "hypothesis_not_met", 0, None
    else:
        mode, checked, violation = _decide(m, entry, lattice, mode, seed, samples, budget)
        status = "holds" if violation is None else "counterexample"
    return Verdict(theorem_id, status, lattice.den, mode, seed, samples, checked, failed, violation)


def _verify_task(args):
    m, theorem_id, lattice, mode, seed, samples, budget = args
    try:
        return theorem_id, verify(m, theorem_id, lattice, mode, seed, samples, budget)
    except CapacityError as exc:
        detail = str(exc)
        return theorem_id, Verdict(theorem_id, "capacity_error", lattice.den, mode, seed, samples, 0, (), None, detail)


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
