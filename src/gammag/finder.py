"""Backtracking enumeration of small structures satisfying selected laws.

Tables are filled cell by cell in a fixed flat order (label-major, then
row-major). Each law instance is checked the moment its last needed
cell is assigned, so a branch dies as soon as any fully determined
instance fails. Isomorphism rejection keeps exactly the tables that are
the lexicographically least member of their orbit; the same comparison,
run on partial prefixes, prunes branches that can no longer be minimal.
That comparison is incremental (the lex-leader check of Crawford et al.,
KR 1996): each group element carries its tie position, the first flat
position where its image is not yet known to equal the table, and waits
on the one cell that decides that position. A node compares only the
elements waiting on the cell it assigns, from their tie positions on,
and the trail that restores pending law instances restores them too.
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
    _mirror,
    check_single_law,
    find_left_identity,
    positive_int,
)
from .crisp import is_intra_regular

ISO_MODES = ("elements_only", "elements_and_gamma")

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
        positive_int(self.order, "order", MAX_ORDER)
        positive_int(self.gamma_count, "gamma_count", 26)
        object.__setattr__(self, "laws", tuple(sorted(set(self.laws))))
        unknown = [law for law in self.laws if law not in LAW_NAMES]
        if unknown:
            raise InputError(f"unknown laws: {', '.join(unknown)}")
        if self.iso_mode not in ISO_MODES:
            raise InputError(f"iso_mode must be one of {ISO_MODES}, got {self.iso_mode!r}")
        positive_int(self.budget, "budget")


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
    holds and is dropped. A row with a mirror renaming (core._mirror)
    keeps only the element tuples below their mirror, as its law scan
    does: the instance at the mirror tuple is the same equation with its
    sides swapped, and a tuple equal to its mirror has equal sides."""
    n2 = n * n
    total = k * n2
    buckets: list[list[tuple]] = [[] for _ in range(total)]

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
        image = [variables.index(v) for v in _mirror(variables, (lhs, rhs)) or ""]
        for elements in itertools.product(range(n), repeat=len(variables)):
            if image and elements >= tuple(elements[i] for i in image):
                continue
            env = dict(zip(variables, elements))
            for labels in itertools.product(range(k), repeat=slots):
                s1, s2 = side(lhs, env, labels), side(rhs, env, labels)
                if s1 == s2:
                    continue
                static = [c for b, p, q in (s1, s2) for c in ((b,) if p == q == total else (p, q))]
                buckets[max(c for c in static if c < total)].append(s1 + s2)
    return buckets


def _iso_group(
    n: int, k: int, iso_mode: str, budget: int
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Non-identity group elements as (value_map, source_cell_of_cell,
    wake_cell_of_cell).

    The image of a table t under an element has sigma[t[pre[j]]] at flat
    position j, so comparing it with t at j needs cells j and pre[j]:
    wake[j] is the later of the two in fill order. The last entry,
    wake[total] = total, is where an element tied at every position (an
    automorphism of the finished table) waits. The group has n!
    (times k! with labels) members; one larger than the node budget is
    refused before any of it is built."""
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
            wake = [max(j, c) for j, c in enumerate(pre)] + [k * n2]
            out.append((sigma, tuple(pre), tuple(wake)))
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


def enumerate_models(spec: SearchSpec):
    """All structures matching spec, one per isomorphism class, in
    ascending flat-table order. Raises CapacityError before the search
    when the isomorphism group or the law instances outnumber the node
    budget (for the instances a SearchBudgetError with an empty frontier),
    and SearchBudgetError mid-stream when the node cap runs out."""
    n, k = spec.order, spec.gamma_count
    n2 = n * n
    total = k * n2
    # cells past the table hold the constants 0..n-1 (see _build_instances)
    t = [-1] * total + list(range(n))
    group = _iso_group(n, k, spec.iso_mode, spec.budget)
    instances = sum(
        n ** len(variables) * k**slots
        for law, (variables, slots, _) in LAW_TERMS.items()
        if law in spec.laws
    )
    if instances > spec.budget:
        raise SearchBudgetError(
            f"{instances} law instances exceed node budget {spec.budget}", frontier=(), emitted=0
        )
    buckets = _build_instances(n, k, spec.laws)
    pending: list[list[tuple]] = [[] for _ in range(total)]
    # watch[c]: group elements, each with its tie position, whose next
    # comparison waits on cell c; watch[total] holds the automorphisms
    watch: list[list[tuple]] = [[] for _ in range(total + 1)]
    for sigma, pre, wake in group:
        watch[wake[0]].append((sigma, pre, wake, 0))
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
        trail.append(pending[reg])
        return True

    def dominated(depth, trail):
        """True when some group element conclusively maps the assigned
        prefix to a lexicographically smaller one.

        The verdict is the one a scan of every element's image from
        position 0 gives; each scan resumes where it last stopped instead.
        An element with tie position j has its image equal to t below j,
        on cells that are all assigned. They stay assigned for the whole
        subtree below the node that assigned them, so those positions stay
        tied there and the scan resumes at j. An element whose image is
        larger at a decided position is dropped: that position stays
        decided and larger in the subtree, so the element never dominates
        there. Any other element stops at a position j whose comparison
        needs the unassigned cell wake[j]; until that cell is assigned,
        its scan stops at j again, not dominated. So only watch[depth] is
        scanned. An element that stops again joins the list of its new
        wake cell, and the trail takes it off on backtrack, which restores
        its tie position and its membership together."""
        for sigma, pre, wake, j in watch[depth]:
            while wake[j] <= depth:
                pv = sigma[t[pre[j]]]
                tv = t[j]
                if pv != tv:
                    if pv < tv:
                        return True
                    break
                j += 1
            else:
                waiting = watch[wake[j]]
                waiting.append((sigma, pre, wake, j))
                trail.append(waiting)
        return False

    def rec(depth):
        nonlocal nodes, emitted
        if depth == total:
            # the existential law and intra-regularity are decided on
            # the completed structure
            m = _build_magma(t, n, k)
            if needs_left_identity and find_left_identity(m) is None:
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
            trail: list[list] = []
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
            if ok and dominated(depth, trail):
                ok = False
            if ok:
                yield from rec(depth + 1)
            for waiting in trail:
                waiting.pop()
            t[depth] = -1

    yield from rec(0)


_PROPERTY_CHECKS = {
    "non_factorizable_element": (lambda m: not m.every_element_factorizable, 2),
    "non_commutative_ag": (lambda m: check_single_law(m, "commutative") is not None, 3),
    "ag_not_ag_star_star": (lambda m: check_single_law(m, "ag_star_star") is not None, 4),
}

FINDER_PROPERTIES = tuple(_PROPERTY_CHECKS)


def find_counterexample_structure(
    property_name: str, budget: int = DEFAULT_NODE_BUDGET
) -> GammaMagma | None:
    """Smallest left-invertive single-label structure with the named
    defect, table lexicographically least at that order; None when no
    order up to the property's cap has one.

    Left invertivity and each defect survive relabelling the elements,
    so the tables that have both are a union of isomorphism classes, and
    the least of them is the least member of its own class: the
    canonical stream, ascending, meets it first (the lex-leader argument
    of Crawford et al., KR 1996)."""
    if property_name not in _PROPERTY_CHECKS:
        raise InputError(
            f"unknown property {property_name!r}; expected one of {FINDER_PROPERTIES}"
        )
    check, max_order = _PROPERTY_CHECKS[property_name]
    for order in range(1, max_order + 1):
        spec = SearchSpec(order=order, gamma_count=1, laws=("left_invertive",), budget=budget)
        for m in enumerate_models(spec):
            if check(m):
                return m
    return None
