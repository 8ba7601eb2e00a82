"""Backtracking enumeration of small structures satisfying selected laws.

Tables are filled cell by cell in a fixed flat order (label-major, then
row-major). Each law instance is checked the moment its last needed
cell is assigned, so a branch dies as soon as any fully determined
instance fails. Isomorphism rejection keeps exactly the tables that are
the lexicographically least member of their orbit; the same comparison,
run on partial prefixes, prunes branches that can no longer be minimal.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass

from .core import (
    CapacityError,
    GammaMagma,
    InputError,
    LAW_NAMES,
    check_single_law,
    find_left_identity,
)
from .crisp import is_intra_regular

ISO_MODES = ("elements_only", "elements_and_gamma")

FINDER_PROPERTIES = ("non_factorizable_element", "non_commutative_ag", "ag_not_ag_star_star")

DEFAULT_NODE_BUDGET = 2_000_000

MAX_ORDER = 6

class SearchBudgetError(CapacityError):
    """Node budget ran out mid-search; carries the frontier reached."""

    def __init__(self, message: str, frontier: tuple[int, ...], emitted: int):
        super().__init__(message)
        self.frontier = frontier
        self.emitted = emitted


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: size, label count, laws, quotient, node cap."""

    order: int
    gamma_count: int = 1
    laws: tuple[str, ...] = ("left_invertive",)
    iso_mode: str = "elements_only"
    intra_regular: bool = False
    budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if not 1 <= self.order <= MAX_ORDER:
            raise InputError(f"order must be in 1..{MAX_ORDER}, got {self.order}")
        if not 1 <= self.gamma_count <= 26:
            raise InputError(f"gamma_count must be in 1..26, got {self.gamma_count}")
        object.__setattr__(self, "laws", tuple(sorted(set(self.laws))))
        unknown = [law for law in self.laws if law not in LAW_NAMES]
        if unknown:
            raise InputError(f"unknown laws: {', '.join(unknown)}")
        if self.iso_mode not in ISO_MODES:
            raise InputError(f"iso_mode must be one of {ISO_MODES}, got {self.iso_mode!r}")
        if self.budget < 1:
            raise InputError("budget must be positive")


def _build_instances(n: int, k: int, laws: tuple[str, ...]) -> list[list[tuple]]:
    """Static instance buckets: buckets[c] holds the instances whose last
    statically-known cell is c (their value-dependent cells are chased
    dynamically via the pending lists)."""
    n2 = n * n
    buckets: list[list[tuple]] = [[] for _ in range(k * n2)]

    def cell(g, x, y):
        return g * n2 + x * n + y

    def put(inner_max, inst):
        buckets[inner_max].append(inst)

    labels = range(k)
    if "left_invertive" in laws:
        # (x a y) b z = (z a y) b x; mirror x<->z is the same equation
        for a, b, x, z, y in itertools.product(labels, labels, range(n), range(n), range(n)):
            if x >= z:
                continue
            i1, i2 = cell(a, x, y), cell(a, z, y)
            put(max(i1, i2), ("L", i1, i2, b * n2, x, z))
    if "ag_star_star" in laws:
        # x a (y b z) = y a (x b z); mirror x<->y is the same equation
        for a, b, x, y, z in itertools.product(labels, labels, range(n), range(n), range(n)):
            if x >= y:
                continue
            i1, i2 = cell(b, y, z), cell(b, x, z)
            put(max(i1, i2), ("S", i1, i2, a * n2, x, y))
    if "associative" in laws:
        for a, b, x, y, z in itertools.product(labels, labels, range(n), range(n), range(n)):
            i1, i2 = cell(a, x, y), cell(b, y, z)
            put(max(i1, i2), ("A", i1, i2, b * n2, z, a * n2, x))
    if "medial" in laws:
        # (w a x) b (y g z) = (w a y) b (x g z); x<->y mirror
        for a, b, g in itertools.product(labels, repeat=3):
            for w, x, y, z in itertools.product(range(n), repeat=4):
                if x >= y:
                    continue
                i1, i2 = cell(a, w, x), cell(g, y, z)
                i3, i4 = cell(a, w, y), cell(g, x, z)
                put(max(i1, i2, i3, i4), ("M", i1, i2, i3, i4, b * n2))
    if "paramedial" in laws:
        # (w a x) b (y g z) = (z a y) b (x g w); (w,x,y,z,a,g) mirrors to (z,y,x,w,g,a)
        for a, b, g in itertools.product(labels, repeat=3):
            for w, x, y, z in itertools.product(range(n), repeat=4):
                if (w, x, y, z, a, g) >= (z, y, x, w, g, a):
                    continue
                i1, i2 = cell(a, w, x), cell(g, y, z)
                i3, i4 = cell(a, z, y), cell(g, x, w)
                put(max(i1, i2, i3, i4), ("M", i1, i2, i3, i4, b * n2))
    if "commutative" in laws:
        for g, x, y in itertools.product(labels, range(n), range(n)):
            if x >= y:
                continue
            i1, i2 = cell(g, x, y), cell(g, y, x)
            put(max(i1, i2), ("C", i1, i2))
    if "band" in laws:
        for g, x in itertools.product(labels, range(n)):
            put(cell(g, x, x), ("B", cell(g, x, x), x))
    return buckets


def _iso_group(n: int, k: int, iso_mode: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Non-identity group elements as (value_map, source_cell_of_cell)."""
    n2 = n * n
    label_perms: list[tuple[int, ...]]
    if iso_mode == "elements_and_gamma":
        label_perms = [tuple(p) for p in itertools.permutations(range(k))]
    else:
        label_perms = [tuple(range(k))]
    out = []
    for sigma in itertools.permutations(range(n)):
        sig_inv = [0] * n
        for i, s in enumerate(sigma):
            sig_inv[s] = i
        for tau in label_perms:
            tau_inv = [0] * k
            for i, s in enumerate(tau):
                tau_inv[s] = i
            if all(sigma[i] == i for i in range(n)) and all(tau[i] == i for i in range(k)):
                continue
            pre = []
            for g in range(k):
                for u in range(n):
                    for v in range(n):
                        pre.append(tau_inv[g] * n2 + sig_inv[u] * n + sig_inv[v])
            out.append((sigma, tuple(pre)))
    return out


def _gamma_labels(k: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:k])


def _build_magma(t: list[int], n: int, k: int) -> GammaMagma:
    n2 = n * n
    tables = tuple(
        tuple(tuple(t[g * n2 + x * n : g * n2 + x * n + n]) for x in range(n))
        for g in range(k)
    )
    return GammaMagma(order=n, gamma=_gamma_labels(k), tables=tables)


def _models(spec: SearchSpec, canonical: bool, property_check=None):
    """DFS over cell assignments; yields structures in ascending table order."""
    n, k = spec.order, spec.gamma_count
    n2 = n * n
    total = k * n2
    t = [-1] * total
    buckets = _build_instances(n, k, spec.laws)
    pending: list[list[tuple]] = [[] for _ in range(total)]
    group = _iso_group(n, k, spec.iso_mode) if canonical else []
    needs_left_identity = "has_left_identity" in spec.laws
    nodes = 0
    emitted = 0

    def process(inst, trail):
        tag = inst[0]
        if tag == "L":
            _, i1, i2, bb, x, z = inst
            o1 = bb + t[i1] * n + z
            o2 = bb + t[i2] * n + x
        elif tag == "S":
            _, i1, i2, ab, x, y = inst
            o1 = ab + x * n + t[i1]
            o2 = ab + y * n + t[i2]
        elif tag == "A":
            _, i1, i2, bb, z, ab, x = inst
            o1 = bb + t[i1] * n + z
            o2 = ab + x * n + t[i2]
        elif tag == "M":
            _, i1, i2, i3, i4, bb = inst
            o1 = bb + t[i1] * n + t[i2]
            o2 = bb + t[i3] * n + t[i4]
        elif tag == "C":
            return t[inst[1]] == t[inst[2]]
        else:
            return t[inst[1]] == inst[2]
        a, b = t[o1], t[o2]
        if a >= 0 and b >= 0:
            return a == b
        # not determined yet: re-examine when the last unknown cell fills
        if a < 0 and b < 0:
            reg = o1 if o1 > o2 else o2
        elif a < 0:
            reg = o1
        else:
            reg = o2
        pending[reg].append(inst)
        trail.append(reg)
        return True

    def dominated(depth):
        # true when some group element conclusively maps the assigned
        # prefix to a lexicographically smaller one
        for sigma, pre in group:
            for j in range(depth + 1):
                src = t[pre[j]]
                if src < 0:
                    break
                pv = sigma[src]
                tv = t[j]
                if pv != tv:
                    if pv < tv:
                        return True
                    break
        return False

    def rec(depth):
        nonlocal nodes, emitted
        if depth == total:
            # the existential law and the properties are decided on the
            # completed structure
            m = _build_magma(t, n, k)
            if needs_left_identity and find_left_identity(m) is None:
                return
            if property_check is not None and not property_check(m):
                return
            if spec.intra_regular and not is_intra_regular(m):
                return
            emitted += 1
            yield m
            return
        for v in range(n):
            nodes += 1
            if nodes > spec.budget:
                raise SearchBudgetError(
                    f"node budget {spec.budget} exhausted after emitting {emitted} models",
                    frontier=tuple(t[:depth]) + (v,),
                    emitted=emitted,
                )
            trail: list[int] = []
            t[depth] = v
            ok = True
            for inst in buckets[depth]:
                if not process(inst, trail):
                    ok = False
                    break
            if ok:
                for inst in pending[depth]:
                    if not process(inst, trail):
                        ok = False
                        break
            if ok and group and dominated(depth):
                ok = False
            if ok:
                yield from rec(depth + 1)
            for reg in trail:
                pending[reg].pop()
            t[depth] = -1

    yield from rec(0)


def enumerate_models(spec: SearchSpec):
    """All structures matching spec, one per isomorphism class, in
    ascending flat-table order. Raises SearchBudgetError mid-stream when
    the node cap runs out."""
    return _models(spec, canonical=True)


_PROPERTY_CHECKS = {
    "non_factorizable_element": (lambda m: not m.every_element_factorizable, 2),
    "non_commutative_ag": (lambda m: check_single_law(m, "commutative") is not None, 3),
    "ag_not_ag_star_star": (lambda m: check_single_law(m, "ag_star_star") is not None, 4),
}


def find_counterexample_structure(
    property_name: str, budget: int = DEFAULT_NODE_BUDGET
) -> GammaMagma | None:
    """Smallest left-invertive single-label structure with the named
    defect, table lexicographically least at that order; None when no
    order up to the property's cap has one."""
    if property_name not in _PROPERTY_CHECKS:
        raise InputError(
            f"unknown property {property_name!r}; expected one of {FINDER_PROPERTIES}"
        )
    check, max_order = _PROPERTY_CHECKS[property_name]
    for order in range(1, max_order + 1):
        spec = SearchSpec(order=order, gamma_count=1, laws=("left_invertive",), budget=budget)
        for m in _models(spec, canonical=False, property_check=check):
            return m
    return None
