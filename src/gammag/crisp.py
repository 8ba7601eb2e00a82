"""Crisp subsets of a finite carrier and their ideal classifications.

Subsets are bitmasks over {0, ..., order-1}; bit i set means element i is
a member. Products, inclusions, and the whole classification logic are
pure table scans, so everything here is exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .core import (
    CapacityError,
    GammaMagma,
    InputError,
    checked_instance,
    checked_int,
    checked_name,
    checked_structure,
)

IDEAL_KINDS = (
    "subgroupoid",
    "left",
    "right",
    "two_sided",
    "bi",
    "generalized_bi",
    "interior",
    "quasi",
)

# The kind table. Each kind is a tuple of parts, checked in order, and a
# part is a tuple of products whose intersection must stay inside the
# subset A. A product is spelled by its factors, left to right and
# bracketed to the left, with A for the subset and S for the whole
# carrier: "SAS" is (S A) S. The fuzzy reading puts f for A and the
# all-ones subset for S, so a one-product part becomes the pointwise bound
# f(product) >= min of f over the A factors.
KIND_SHAPES = {
    "subgroupoid": (("AA",),),
    "left": (("SA",),),
    "right": (("AS",),),
    "two_sided": (("SA",), ("AS",)),
    "bi": (("AA",), ("ASA",)),
    "generalized_bi": (("ASA",),),
    "interior": (("SAS",),),
    "quasi": (("SA", "AS"),),
}

# Fixed-point keys: "=" and a shape ask whether the product the shape
# spells is A itself. The fuzzy reading is the equation shape(f, ones) == f
# ("=SA" is ones*f == f), which the coincide rows of gammag.theorems state.
FIXED_POINTS = ("=SA", "=AS", "=SAS", "=ASA", "=AA")

ENUMERATION_ORDER_CAP = 20


@dataclass(frozen=True, slots=True)
class CrispSubset:
    """Subset of a carrier of known size, stored as a bitmask."""

    size: int
    bits: int

    def __post_init__(self):
        size = checked_int(self.size, "subset carrier size", 1)
        checked_int(self.bits, "bitmask", 0, (1 << size) - 1)

    @classmethod
    def from_elements(cls, size: int, elements) -> "CrispSubset":
        top = checked_int(size, "subset carrier size", 1) - 1
        bits = 0
        for e in elements:
            bits |= 1 << checked_int(e, "element", 0, top)
        return cls(size, bits)

    @classmethod
    def full(cls, size: int) -> "CrispSubset":
        return cls(size, (1 << size) - 1)

    @classmethod
    def empty(cls, size: int) -> "CrispSubset":
        return cls(size, 0)

    def elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if self.bits >> i & 1)

    def __contains__(self, e) -> bool:
        # a value checked_int refuses (a bool, a float, a str) is no element
        if not isinstance(e, int) or isinstance(e, bool):
            return False
        return 0 <= e < self.size and bool(self.bits >> e & 1)

    def __iter__(self):
        return iter(self.elements())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def _check_mate(self, other: "CrispSubset") -> None:
        checked_instance(other, CrispSubset)
        if other.size != self.size:
            raise InputError(f"carrier size mismatch: {self.size} vs {other.size}")

    def union(self, other: "CrispSubset") -> "CrispSubset":
        self._check_mate(other)
        return CrispSubset(self.size, self.bits | other.bits)

    def intersection(self, other: "CrispSubset") -> "CrispSubset":
        self._check_mate(other)
        return CrispSubset(self.size, self.bits & other.bits)

    def issubset(self, other: "CrispSubset") -> bool:
        self._check_mate(other)
        return self.bits & ~other.bits == 0

    def to_json(self) -> list[int]:
        return list(self.elements())


def subset_from_json(order: int, data) -> CrispSubset:
    if not isinstance(data, list):
        raise InputError("subset must be a JSON array of element indices")
    return CrispSubset.from_elements(order, data)


def _check_carrier(m: GammaMagma, a: CrispSubset) -> None:
    checked_structure(m)
    checked_instance(a, CrispSubset)
    if a.size != m.order:
        raise InputError(f"subset size {a.size} does not match structure order {m.order}")


def _mask_product(rows, a: int, b: int) -> int:
    """Mask of every x g y with x in mask a, y in mask b; rows is m.row_unions.

    One lookup per element of a and w-bit chunk of b: the union of x's
    products with the c-th chunk of b sits at x * width + 2**w * c + chunk."""
    w, width, index = rows
    low, out, c = (1 << w) - 1, 0, 0
    while b:
        chunk, b = b & low, b >> w
        rest, i = a, c + chunk
        while rest:
            if rest & 1:
                out |= index[i]
            rest >>= 1
            i += width
        c += low + 1
    return out


def shape_product(product, shape: str, a, s):
    """The product KIND_SHAPES spells by shape, with a for A and s for S,
    folded to the left by the product step product(x, y)."""
    out = a if shape[0] == "A" else s
    for factor in shape[1:]:
        out = product(out, a if factor == "A" else s)
    return out


def set_product(m: GammaMagma, a: CrispSubset, b: CrispSubset) -> CrispSubset:
    """All products x g y with x in a, y in b, over every gamma label."""
    _check_carrier(m, a)
    _check_carrier(m, b)
    return CrispSubset(m.order, _mask_product(m.row_unions, a.bits, b.bits))


class KindProducts(dict):
    """The products of a subset mask A and the carrier S spelled as in
    KIND_SHAPES ("SAS" and so on), the fixed-point keys of FIXED_POINTS,
    and the kinds of A by name, each computed on first use and shared by
    every later question about A.

    A kind holds when each of its parts holds, in table order, and a part
    holds when the meet of its products stays inside A; a fixed-point key
    "=" + shape holds when the product the shape spells equals A, and
    "idempotent" is "=AA"."""

    def __init__(self, m: GammaMagma, a: int):
        self["A"], self["S"], self.rows = a, (1 << m.order) - 1, m.row_unions

    def __missing__(self, key: str) -> int | bool:
        if key[0] == "=":  # before the product test: "=SA".isupper() holds too
            value = self[key[1:]] == self["A"]
        elif key.isupper():  # a product, spelled in A and S
            value = _mask_product(self.rows, self[key[:-1]], self[key[-1]])
        elif key == "idempotent":
            value = self["=AA"]
        else:
            value = True
            for part in KIND_SHAPES[key]:
                inside = -1
                for shape in part:
                    inside &= self[shape]
                if inside & ~self["A"]:
                    value = False
                    break
        self[key] = value
        return value


def classify_subset(m: GammaMagma, a: CrispSubset) -> set[str]:
    """Every ideal kind the non-empty subset satisfies."""
    _check_carrier(m, a)
    if not a:
        raise InputError("classification needs a non-empty subset")
    products = KindProducts(m, a.bits)
    kinds = {kind for kind in IDEAL_KINDS if products[kind]}
    # Both one-sided products land inside a two-sided ideal, so its
    # intersection does too; a miss here means a product scan is wrong.
    if "two_sided" in kinds and "quasi" not in kinds:
        raise AssertionError("two-sided ideal that is not a quasi-ideal")
    return kinds


@dataclass(frozen=True, slots=True)
class IntraWitness:
    """Decomposition a = (x b (a xi a)) g y for a single element a."""

    element: int
    x: int
    y: int
    beta: str
    xi: str
    gamma: str

    def to_dict(self, m: GammaMagma | None = None) -> dict:
        d = {
            "element": self.element,
            "x": self.x,
            "y": self.y,
            "beta": self.beta,
            "xi": self.xi,
            "gamma": self.gamma,
        }
        if m is not None and m.labels is not None:
            d["display"] = "{a} = ({x} {b} ({a} {xi} {a})) {g} {y}".format(
                a=m.element_name(self.element),
                x=m.element_name(self.x),
                y=m.element_name(self.y),
                b=self.beta,
                xi=self.xi,
                g=self.gamma,
            )
        return d


def intra_witness_valid(m: GammaMagma, w: IntraWitness) -> bool:
    checked_structure(m)
    checked_instance(w, IntraWitness)
    inner = m.apply(w.element, w.xi, w.element)
    left = m.apply(w.x, w.beta, inner)
    return m.apply(left, w.gamma, w.y) == w.element


def intra_regular_witness(m: GammaMagma, a: int) -> IntraWitness | None:
    """Lexicographically least (x, y, beta, xi, gamma) decomposing a, if any."""
    checked_int(a, "element", 0, checked_structure(m).order - 1)
    t = m.tables
    k = len(t)
    rng = range(m.order)
    inner = [t[xi][a][a] for xi in range(k)]
    for x in rng:
        for y in rng:
            for bi in range(k):
                tb = t[bi]
                for xi in range(k):
                    mid = tb[x][inner[xi]]
                    for gi in range(k):
                        if t[gi][mid][y] == a:
                            return IntraWitness(a, x, y, m.gamma[bi], m.gamma[xi], m.gamma[gi])
    return None


def is_intra_regular(m: GammaMagma) -> bool:
    """Whether every element a has a decomposition (x b (a xi a)) g y.

    Those values over all x, y and labels make up the product (S M) S,
    spelled "SAS" with M for A, where M is the mask of every a xi a; so
    each a is decided by two mask products and one membership test,
    without the witness search."""
    checked_structure(m)
    step, full = partial(_mask_product, m.row_unions), (1 << m.order) - 1
    for a in range(m.order):
        squares = 0
        for table in m.tables:
            squares |= 1 << table[a][a]
        if not shape_product(step, "SAS", squares, full) >> a & 1:
            return False
    return True


def _compile_step(kind: str):
    """The closure step g(X) = X | the union over the kind's parts of the
    meet of their products, as one straight-line function
    step(x, s, product, rows) with x for A and s for S. Each product is one
    call product(rows, left, right), made once per spelling, left to right
    in table order. No two shapes of one kind in KIND_SHAPES share a
    product, so a step makes the calls of the fold of shape_product over
    its parts, call for call."""
    names, lines = {"A": "x", "S": "s"}, []

    def name(shape: str) -> str:
        if shape not in names:
            left, right = name(shape[:-1]), names[shape[-1]]
            names[shape] = f"p{len(lines)}"
            lines.append(f" {names[shape]} = product(rows, {left}, {right})")
        return names[shape]

    meets = [" & ".join(map(name, part)) for part in KIND_SHAPES[kind]]
    src = ["def step(x, s, product, rows):", *lines, " return " + " | ".join(["x", *meets])]
    namespace = {}
    exec(compile("\n".join(src), f"<{kind} closure step>", "exec"), namespace)
    return namespace["step"]


_CLOSURE_STEPS = {kind: _compile_step(kind) for kind in IDEAL_KINDS}


def enumerate_ideals(m: GammaMagma, kind: str) -> list[CrispSubset]:
    """All non-empty subsets of the given kind, in ascending bit-pattern order.

    Every product in KIND_SHAPES grows with A, so g(X) = X | the union
    over parts of the meet of their products is monotone and extensive,
    and A has the kind exactly when g(A) == A. If g fixes X and Y it maps
    X & Y into g(X) & g(Y) = X & Y, so the fixed points are closed under
    intersection; they include S and the empty set, whose products are
    empty. Iterating g from X stays inside every fixed point above X and
    stops within n steps, so it reaches the least of them, the closure of
    X. Ganter's NextClosure ("Two basic algorithms in concept analysis",
    1984) then lists the fixed points in ascending mask order: the one
    after A is the closure of A's bits above some bit i missing from A,
    plus bit i, for the least i whose closure adds no bit above i. g is
    the kind's compiled step (_compile_step).
    """
    if checked_structure(m).order > ENUMERATION_ORDER_CAP:
        raise CapacityError(
            f"subset enumeration is capped at order {ENUMERATION_ORDER_CAP}; got {m.order}"
        )
    step = _CLOSURE_STEPS[checked_name(kind, "ideal kind", IDEAL_KINDS)]
    full, product, rows = (1 << m.order) - 1, _mask_product, m.row_unions
    found, a = [], 0
    while a != full:
        for i in range(m.order):
            if a >> i & 1:
                continue
            b = (a >> i | 1) << i
            c = step(b, full, product, rows)
            # stop as soon as the closure takes a bit above i that A lacks
            while c != b and c >> i == b >> i:
                b, c = c, step(c, full, product, rows)
            if c == b:
                break
        found.append(a := b)
    return [CrispSubset(m.order, a) for a in found]
