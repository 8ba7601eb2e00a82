"""Crisp subsets of a finite carrier and their ideal classifications.

Subsets are bitmasks over {0, ..., order-1}; bit i set means element i is
a member. Products, inclusions, and the whole classification logic are
pure table scans, so everything here is exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CapacityError, GammaMagma, InputError, checked_int, checked_name

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

# The kind table. A base kind asks that the intersection of its products
# stays inside the subset A. A product is spelled by its factors, left to
# right and bracketed to the left, with A for the subset and S for the
# whole carrier: "SAS" is (S A) S. The fuzzy reading puts f for A and the
# all-ones subset for S, so a one-product kind becomes the pointwise bound
# f(product) >= min of f over the A factors.
KIND_SHAPES = {
    "subgroupoid": ("AA",),
    "left": ("SA",),
    "right": ("AS",),
    "generalized_bi": ("ASA",),
    "interior": ("SAS",),
    "quasi": ("SA", "AS"),
}

# Kinds that are conjunctions of base kinds, parts checked in this order.
KIND_PARTS = {
    "two_sided": ("left", "right"),
    "bi": ("subgroupoid", "generalized_bi"),
}

ENUMERATION_ORDER_CAP = 20


@dataclass(frozen=True)
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
        if not isinstance(other, CrispSubset):
            raise InputError("expected a CrispSubset")
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
    if not isinstance(a, CrispSubset):
        raise InputError(f"expected a CrispSubset, got {type(a).__name__}")
    if a.size != m.order:
        raise InputError(f"subset size {a.size} does not match structure order {m.order}")


def _mask_product(masks, a: int, b: int) -> int:
    """Mask of every x g y with x in mask a, y in mask b; masks is m.product_masks."""
    out = 0
    for row in masks:
        if a & 1:
            rest, y = b, 0
            while rest:
                if rest & 1:
                    out |= row[y]
                rest >>= 1
                y += 1
        a >>= 1
    return out


def set_product(m: GammaMagma, a: CrispSubset, b: CrispSubset) -> CrispSubset:
    """All products x g y with x in a, y in b, over every gamma label."""
    _check_carrier(m, a)
    _check_carrier(m, b)
    return CrispSubset(m.order, _mask_product(m.product_masks, a.bits, b.bits))


class KindProducts(dict):
    """The products of a subset mask A and the carrier S spelled as in
    KIND_SHAPES ("SAS" and so on), each computed on first use and shared
    by every kind asked of A."""

    def __init__(self, m: GammaMagma, a: int):
        super().__init__(A=a, S=(1 << m.order) - 1)
        self.masks = m.product_masks

    def __missing__(self, shape: str) -> int:
        p = self[shape] = _mask_product(self.masks, self[shape[:-1]], self[shape[-1]])
        return p

    def has(self, kind: str) -> bool:
        """Whether the meet of each part's products stays inside A."""
        outside = ~self["A"]
        for part in KIND_PARTS.get(kind, (kind,)):
            inside = -1
            for shape in KIND_SHAPES[part]:
                inside &= self[shape]
            if inside & outside:
                return False
        return True


def classify_subset(m: GammaMagma, a: CrispSubset) -> set[str]:
    """Every ideal kind the non-empty subset satisfies."""
    _check_carrier(m, a)
    if not a:
        raise InputError("classification needs a non-empty subset")
    products = KindProducts(m, a.bits)
    kinds = {kind for kind in IDEAL_KINDS if products.has(kind)}
    # Both one-sided products land inside a two-sided ideal, so its
    # intersection does too; a miss here means a product scan is wrong.
    if "two_sided" in kinds and "quasi" not in kinds:
        raise AssertionError("two-sided ideal that is not a quasi-ideal")
    return kinds


@dataclass(frozen=True)
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
    inner = m.apply(w.element, w.xi, w.element)
    left = m.apply(w.x, w.beta, inner)
    return m.apply(left, w.gamma, w.y) == w.element


def intra_regular_witness(m: GammaMagma, a: int) -> IntraWitness | None:
    """Lexicographically least (x, y, beta, xi, gamma) decomposing a, if any."""
    checked_int(a, "element", 0, m.order - 1)
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
    return all(intra_regular_witness(m, a) is not None for a in range(m.order))


def enumerate_ideals(m: GammaMagma, kind: str) -> list[CrispSubset]:
    """All non-empty subsets of the given kind, in ascending bit-pattern order."""
    if m.order > ENUMERATION_ORDER_CAP:
        raise CapacityError(
            f"subset enumeration is capped at order {ENUMERATION_ORDER_CAP}; got {m.order}"
        )
    checked_name(kind, "ideal kind", IDEAL_KINDS)
    return [CrispSubset(m.order, a) for a in range(1, 1 << m.order) if KindProducts(m, a).has(kind)]
