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
import math
import string
from dataclasses import dataclass

from .core import (
    CapacityError,
    GammaMagma,
    InputError,
    LAW_NAMES,
    LAW_TERMS,
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
    """Static instance buckets for the equational laws among `laws`.

    Every element tuple and label tuple is substituted into both sides of
    the law's LAW_TERMS row. Cells total + e hold the constant e, so a
    variable is a cell too, and each side becomes a triple (base, p, q)
    whose value sits in cell base + t[p]*n + t[q]. A variable, or a
    product of two variables, is one cell c known here; it is written
    (c, Z, Z) with Z = total, the cell holding 0. Any other side is a
    product whose operands are variables or products of two variables.

    buckets[c] holds the instances whose last statically known table cell
    is c; cells that depend on values are chased dynamically via the
    pending lists. An instance whose two sides are the same triple always
    holds, and one whose side swap is already in is the same equation;
    both are dropped. The side swap maps left invertive (x, y, z) to
    (z, y, x), AG** (x, y, z) and commutative (x, y) to (y, x, ...),
    medial (w, x, y, z) to (w, y, x, z) and paramedial (w, x, y, z) to
    (z, y, x, w), labels fixed; associative and band have no swapped
    pairs. So this keeps the equations that the filters x < z (left
    invertive), x < y (AG**, medial, commutative) and (w, x, y, z, a, g)
    < (z, y, x, w, g, a) (paramedial) keep. The last one swaps the labels
    a and g too, but it decides on (w, x, y, z) unless w = z and x = y,
    where both sides are equal. Only instances that always hold differ,
    so the search prunes exactly the same nodes."""
    n2 = n * n
    total = k * n2
    buckets: list[list[tuple]] = [[] for _ in range(total)]
    seen = set()

    def cell(term, env, labels):
        # a variable, or a product of two variables (else a KeyError)
        if isinstance(term, str):
            return total + env[term]
        g, left, right = term
        return labels[g] * n2 + env[left] * n + env[right]

    def side(term, env, labels):
        if isinstance(term, str) or all(isinstance(op, str) for op in term[1:]):
            return (cell(term, env, labels), total, total)
        g, left, right = term
        return (labels[g] * n2, cell(left, env, labels), cell(right, env, labels))

    for law, (variables, slots, (lhs, rhs)) in LAW_TERMS.items():
        if law not in laws:
            continue
        for elements in itertools.product(range(n), repeat=len(variables)):
            env = dict(zip(variables, elements))
            for labels in itertools.product(range(k), repeat=slots):
                s1, s2 = side(lhs, env, labels), side(rhs, env, labels)
                if s1 == s2 or (s2, s1) in seen:
                    continue
                seen.add((s1, s2))
                static = [c for b, p, q in (s1, s2) for c in ((b,) if p == q == total else (p, q))]
                buckets[max(c for c in static if c < total)].append(s1 + s2)
    return buckets


def _iso_group(n: int, k: int, iso_mode: str, budget: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Non-identity group elements as (value_map, source_cell_of_cell).

    The group has n! (times k! with labels) members; one larger than the
    node budget is refused before any of it is built."""
    size = math.factorial(n) * (math.factorial(k) if iso_mode == "elements_and_gamma" else 1)
    if size > budget:
        raise CapacityError(f"isomorphism group has {size} members; node budget is {budget}")
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
    # cells past the table hold the constants 0..n-1 (see _build_instances)
    t = [-1] * total + list(range(n))
    buckets = _build_instances(n, k, spec.laws)
    pending: list[list[tuple]] = [[] for _ in range(total)]
    group = _iso_group(n, k, spec.iso_mode, spec.budget) if canonical else []
    needs_left_identity = "has_left_identity" in spec.laws
    nodes = 0
    emitted = 0

    def process(inst, trail):
        b1, p1, q1, b2, p2, q2 = inst
        o1 = b1 + t[p1] * n + t[q1]
        o2 = b2 + t[p2] * n + t[q2]
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
