"""Fuzzy subsets with exact rational membership and sup-min composition.

Membership values are fractions.Fraction throughout; nothing in this
module touches floats, so comparisons and equalities are exact. The
composition of f and g under a structure takes, at each element a, the
best min(f(b), g(c)) over all table entries a = b g c, and 0 where a is
no entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from typing import NamedTuple

from .core import (
    GammaMagma,
    InputError,
    checked_collection,
    checked_instance,
    checked_int,
    checked_name,
    checked_structure,
    json_fields,
)
from .crisp import IDEAL_KINDS, KIND_PARTS, KIND_SHAPES, CrispSubset, KindProducts

ZERO = Fraction(0)
ONE = Fraction(1)

FUZZY_KINDS = IDEAL_KINDS + ("idempotent",)


def _rational(v, what: str) -> Fraction:
    """Fraction(v), or InputError for a float, a bool or a value Fraction cannot read."""
    if isinstance(v, (float, bool)):
        raise InputError(f"{what} {v!r} is not an exact rational; give an int, Fraction or string")
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"{what} {v!r} is not rational") from None


def _as_value(v) -> Fraction:
    # a plain Fraction is in lowest terms over a positive denominator, so
    # two integer comparisons place it in [0, 1] and it is kept as it is
    if type(v) is Fraction and 0 <= v.numerator <= v.denominator:
        return v
    value = _rational(v, "membership value")
    if not ZERO <= value <= ONE:
        raise InputError(f"membership value {value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class FuzzySubset:
    """Vector of membership values, one exact rational per element."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(map(_as_value, checked_collection(self.values, "fuzzy subset values")))
        if not values:
            raise InputError("fuzzy subset needs at least one element")
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, order: int, value) -> "FuzzySubset":
        return cls((_as_value(value),) * checked_int(order, "order", 1))

    @classmethod
    def ones(cls, order: int) -> "FuzzySubset":
        return cls.constant(order, ONE)

    @classmethod
    def zeros(cls, order: int) -> "FuzzySubset":
        return cls.constant(order, ZERO)

    @property
    def order(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> Fraction:
        return self.values[checked_int(i, "element", 0, self.order - 1)]

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v > ZERO)

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """Common denominator and the integer numerators over it."""
        ratios = [v.as_integer_ratio() for v in self.values]
        den = math.lcm(*[d for _, d in ratios])
        return den, tuple([n * (den // d) for n, d in ratios])

    def to_dict(self) -> dict:
        den, num = self.scaled
        return {"den": den, "num": list(num)}


def _check_pair(f: FuzzySubset, g: FuzzySubset) -> None:
    checked_instance(f, FuzzySubset)
    checked_instance(g, FuzzySubset)
    if f.order != g.order:
        raise InputError(f"fuzzy subset order mismatch: {f.order} vs {g.order}")


def meet(f: FuzzySubset, g: FuzzySubset) -> FuzzySubset:
    _check_pair(f, g)
    return FuzzySubset(tuple(min(a, b) for a, b in zip(f.values, g.values)))


def join(f: FuzzySubset, g: FuzzySubset) -> FuzzySubset:
    _check_pair(f, g)
    return FuzzySubset(tuple(max(a, b) for a, b in zip(f.values, g.values)))


def leq(f: FuzzySubset, g: FuzzySubset) -> bool:
    _check_pair(f, g)
    return all(a <= b for a, b in zip(f.values, g.values))


def _check_carrier(m: GammaMagma, f: FuzzySubset) -> None:
    checked_structure(m)
    checked_instance(f, FuzzySubset)
    if f.order != m.order:
        raise InputError(f"fuzzy subset order {f.order} does not match structure order {m.order}")


def gamma_product(m: GammaMagma, f: FuzzySubset, g: FuzzySubset) -> FuzzySubset:
    """Sup-min composition: each table entry a = b g c raises out[a] to min(f(b), g(c))."""
    _check_carrier(m, f)
    _check_carrier(m, g)
    gv = g.values
    out = [ZERO] * m.order
    for table in m.tables:
        for fb, row in zip(f.values, table):
            for a, gc in zip(row, gv):
                v = gc if gc < fb else fb
                if v > out[a]:
                    out[a] = v
    return FuzzySubset(tuple(out))


def characteristic(a: CrispSubset) -> FuzzySubset:
    checked_instance(a, CrispSubset)
    return FuzzySubset(tuple(ONE if i in a else ZERO for i in range(a.size)))


def level_cut(f: FuzzySubset, t) -> CrispSubset:
    """Elements with membership at least t; t must be positive."""
    checked_instance(f, FuzzySubset)
    threshold = _rational(t, "level cut threshold")
    if threshold <= ZERO:
        raise InputError("level cut threshold must be positive")
    return CrispSubset.from_elements(f.order, (i for i, v in enumerate(f.values) if v >= threshold))


class KindWitness(NamedTuple):
    """First pointwise failure of a kind constraint.

    relation "geq" means lhs >= rhs was expected and lhs < rhs holds;
    relation "eq" means lhs == rhs was expected and they differ.
    """

    elements: tuple[int, ...]
    labels: tuple[str, ...]
    relation: str
    lhs: Fraction
    rhs: Fraction


def _product_violation(m: GammaMagma, f: FuzzySubset, shape: str) -> KindWitness | None:
    """First elements, then labels, where f of the product bracketed to the left
    falls below f at the A factors of shape; for "ASA", f((x a y) b z) < f(x) ^ f(z)."""
    den, num = f.scaled
    # bound weights per factor; an S factor weighs den, membership 1
    weights = [num if c == "A" else (den,) * m.order for c in shape]
    for elements in itertools.product(range(m.order), repeat=len(shape)):
        bound = min(w[e] for w, e in zip(weights, elements))
        for labels in itertools.product(range(len(m.tables)), repeat=len(shape) - 1):
            v = elements[0]
            for gi, e in zip(labels, elements[1:]):
                v = m.tables[gi][v][e]
            if num[v] < bound:
                names = tuple(m.gamma[gi] for gi in labels)
                return KindWitness(elements, names, "geq", f.values[v], Fraction(bound, den))
    return None


def _composite(m: GammaMagma, shape: str, factors: dict) -> FuzzySubset:
    out = factors[shape[0]]
    for c in shape[1:]:
        out = gamma_product(m, out, factors[c])
    return out


def _composite_violation(m: GammaMagma, f: FuzzySubset, shapes) -> KindWitness | None:
    """First a with f(a) below the meet of the shapes' compositions at a."""
    factors = {"A": f, "S": FuzzySubset.ones(m.order)}
    bound = reduce(meet, (_composite(m, shape, factors) for shape in shapes))
    for a in range(m.order):
        if f.values[a] < bound.values[a]:
            return KindWitness((a,), (), "geq", f.values[a], bound.values[a])
    return None


def _idempotent_violation(m: GammaMagma, f: FuzzySubset) -> KindWitness | None:
    square = gamma_product(m, f, f)
    for a in range(m.order):
        if square.values[a] != f.values[a]:
            return KindWitness((a,), (), "eq", square.values[a], f.values[a])
    return None


def _violation(m: GammaMagma, f: FuzzySubset, kind: str) -> KindWitness | None:
    """First failure of kind as the kind table defines it; parts in table order."""
    if kind == "idempotent":
        return _idempotent_violation(m, f)
    parts = KIND_PARTS.get(kind)
    if parts is not None:
        for part in parts:
            w = _violation(m, f, part)
            if w is not None:
                return w
        return None
    shapes = KIND_SHAPES[kind]
    if len(shapes) > 1:
        return _composite_violation(m, f, shapes)
    return _product_violation(m, f, shapes[0])


def _level_cuts(f: FuzzySubset):
    """The masks of f's non-empty level cuts, from the top value down."""
    by_value = {}
    for i, v in enumerate(f.scaled[1]):
        if v:
            by_value[v] = by_value.get(v, 0) | 1 << i
    cut = 0
    for v in sorted(by_value, reverse=True):
        cut |= by_value[v]
        yield cut


class CutKinds(dict):
    """The fuzzy kinds of subsets of m, decided on their level cuts.

    f has a kind exactly when every non-empty level cut has the crisp
    kind (for idempotent, A A == A): the decomposition theorem (Mordeson,
    Malik & Kuroki, Fuzzy Semigroups, 2003, ch. 2), as the cut of a
    composition is the product of the cuts. held = CutKinds(m) keeps one
    KindProducts per cut mask asked about, so each product and each kind
    of a cut is decided once while held lives (one run of questions, such
    as one verify call). held(f, kinds) decides only the kinds still held
    on the next cut, from the top value down.
    """

    def __init__(self, m: GammaMagma):
        self.m = checked_structure(m)

    def __missing__(self, cut: int) -> KindProducts:
        products = self[cut] = KindProducts(self.m, cut)
        return products

    def __call__(self, f: FuzzySubset, kinds) -> set[str]:
        _check_carrier(self.m, f)
        kinds = checked_collection(kinds, "kinds", (list, tuple, set, frozenset))
        held = {checked_name(k, "fuzzy kind", FUZZY_KINDS) for k in kinds}
        for cut in _level_cuts(f):
            held = set(filter(self[cut].__getitem__, held))
            if not held:
                break
        return held


def kinds_on_cuts(m: GammaMagma, f: FuzzySubset, kinds) -> set[str]:
    """The named fuzzy kinds f has, decided on its level cuts (CutKinds)."""
    return CutKinds(m)(f, kinds)


def kind_violation(m: GammaMagma, f: FuzzySubset, kind: str) -> KindWitness | None:
    """First pointwise failure of the kind constraint, or None if it holds.

    The level cuts decide; the pointwise scan runs only on a failure, to
    build the witness.
    """
    if kind in kinds_on_cuts(m, f, (kind,)):
        return None
    w = _violation(m, f, kind)
    if w is None:
        raise AssertionError(f"a level cut fails {kind} but the pointwise scan finds no failure")
    return w


def has_fuzzy_kind(m: GammaMagma, f: FuzzySubset, kind: str) -> bool:
    return kind in kinds_on_cuts(m, f, (kind,))


# one predicate per kind the table spells, each deciding on the level cuts
is_fuzzy_subgroupoid = partial(has_fuzzy_kind, kind="subgroupoid")
is_fuzzy_left = partial(has_fuzzy_kind, kind="left")
is_fuzzy_right = partial(has_fuzzy_kind, kind="right")
is_fuzzy_generalized_bi = partial(has_fuzzy_kind, kind="generalized_bi")
is_fuzzy_interior = partial(has_fuzzy_kind, kind="interior")
is_fuzzy_quasi = partial(has_fuzzy_kind, kind="quasi")
is_fuzzy_idempotent = partial(has_fuzzy_kind, kind="idempotent")


def classify_fuzzy(m: GammaMagma, f: FuzzySubset) -> set[str]:
    """Every fuzzy kind f satisfies, including composition idempotence."""
    kinds = kinds_on_cuts(m, f, FUZZY_KINDS)
    # Two-sided forces both one-sided compositions below f, hence their
    # pointwise min too; a miss here means a product path is wrong.
    if "two_sided" in kinds and "quasi" not in kinds:
        raise AssertionError("two-sided fuzzy ideal that is not a fuzzy quasi-ideal")
    return kinds


@dataclass(frozen=True)
class Lattice:
    """Evenly spaced value grid 0, 1/den, ..., 1 for decidable quantification."""

    den: int

    def __post_init__(self):
        checked_int(self.den, "lattice denominator", 1)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(i, self.den) for i in range(self.den + 1))

    def count(self, order: int) -> int:
        return (self.den + 1) ** checked_int(order, "order", 1)

    def subsets(self, order: int):
        """All lattice-valued subsets, first element varying slowest."""
        checked_int(order, "order", 1)
        for values in itertools.product(self.values(), repeat=order):
            yield FuzzySubset(values)

    def contains(self, f: FuzzySubset) -> bool:
        checked_instance(f, FuzzySubset)
        return all((v * self.den).denominator == 1 for v in f.values)


def fuzzy_from_dict(d: dict, order: int | None = None) -> FuzzySubset:
    """Parse the {"den": d, "num": [...]} layout with strict bounds checks."""
    den, num = json_fields(d, "fuzzy subset", ("den", "num"))
    checked_int(den, "den", 1)
    if not isinstance(num, list) or not num:
        raise InputError("num must be a non-empty list of integers")
    for n in num:
        checked_int(n, "numerator", 0, den)
    if order is not None and len(num) != order:
        raise InputError(f"fuzzy subset has {len(num)} entries; structure order is {order}")
    return FuzzySubset(tuple(Fraction(n, den) for n in num))
