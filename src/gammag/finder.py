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
The search is one iterative depth-first loop, a trail per depth, with
two consumers: enumerate_models builds each emitted model, count_models
counts them and builds one only where a completed-structure filter asks.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass

from .core import (
    CapacityError,
    GammaMagma,
    LAW_MIRRORS,
    LAW_NAMES,
    LAW_TERMS,
    check_single_law,
    checked_collection,
    checked_instance,
    checked_int,
    checked_name,
    find_left_identity,
)
from .crisp import is_intra_regular

ISO_MODES = ("elements_only", "elements_and_gamma")

DEFAULT_NODE_BUDGET = 2_000_000

MAX_ORDER = 6

class SearchBudgetError(CapacityError):
    """The node budget ran out, or could not cover the isomorphism group or
    the law instances; carries the frontier reached (empty for a refusal
    before the search) and the number of models emitted."""

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
        checked_int(self.order, "order", 1, MAX_ORDER)
        checked_int(self.gamma_count, "gamma_count", 1, 26)
        laws = {checked_name(law, "law", LAW_NAMES)
                for law in checked_collection(self.laws, "laws", (list, tuple, set, frozenset))}
        object.__setattr__(self, "laws", tuple(sorted(laws)))
        checked_name(self.iso_mode, "iso_mode", ISO_MODES)
        checked_int(self.budget, "budget", 1)


def _build_instances(n: int, k: int, laws: tuple[str, ...]) -> list[list[tuple]]:
    """The pending law instances of each cell before the search starts,
    for the equational laws among `laws`.

    Every element tuple and label tuple is substituted into both sides of
    the law's LAW_TERMS row. Cells total + e hold the constant e, so a
    variable is a cell too, and each side becomes a triple (base, p, q)
    whose value sits in cell base + t[p]*n + t[q]. A variable, or a
    product of two variables, is one cell c known here; it is written
    (c, Z, Z) with Z = total, the cell holding 0. Any other side is a
    product whose operands are variables or products of two variables.

    This is the one instance list per cell. pending[c] starts with the
    instances whose last statically known table cell is c. During the
    search a node appends the instances that wait on c because assigned
    values pointed them at c, and pops them on backtrack, so the static
    ones always come first. An instance whose two sides are the same
    triple always holds and is dropped. A row with a mirror renaming
    (core.LAW_MIRRORS) keeps only the element tuples below their mirror,
    as its law scan does: the instance at the mirror tuple is the same
    equation with its sides swapped, and a tuple equal to its mirror has
    equal sides."""
    n2 = n * n
    total = k * n2
    pending: list[list[tuple]] = [[] for _ in range(total)]

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
        image = [variables.index(v) for v in LAW_MIRRORS[law] or ""]
        for elements in itertools.product(range(n), repeat=len(variables)):
            if image and elements >= tuple(elements[i] for i in image):
                continue
            env = dict(zip(variables, elements))
            for labels in itertools.product(range(k), repeat=slots):
                s1, s2 = side(lhs, env, labels), side(rhs, env, labels)
                if s1 == s2:
                    continue
                static = [c for b, p, q in (s1, s2) for c in ((b,) if p == q == total else (p, q))]
                pending[max(c for c in static if c < total)].append(s1 + s2)
    return pending


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
    refused, with an empty frontier, before any of it is built."""
    size = math.factorial(n) * (math.factorial(k) if iso_mode == "elements_and_gamma" else 1)
    if size > budget:
        raise SearchBudgetError(
            f"isomorphism group has {size} members; node budget is {budget}", frontier=(), emitted=0
        )
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


def _build_magma(t: list[int], n: int, gamma: tuple[str, ...], rows: dict) -> GammaMagma:
    """The model whose tables t holds, each row taken from rows, which maps
    a row tuple to its first copy: the models of one search share equal rows."""
    n2 = n * n
    tables = []
    for g in range(0, len(gamma) * n2, n2):
        table = []
        for i in range(g, g + n2, n):
            row = tuple(t[i : i + n])
            table.append(rows.setdefault(row, row))
        tables.append(tuple(table))
    return GammaMagma(order=n, gamma=gamma, tables=tuple(tables))


def _search(spec: SearchSpec, build: bool):
    """Yields once per emitted leaf of the search enumerate_models
    describes: its model, when build is true or a filter needs it, else None."""
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
    pending = _build_instances(n, k, spec.laws)
    # watch[c]: group elements, each with its tie position, whose next
    # comparison waits on cell c; watch[total] holds the automorphisms
    watch: list[list[tuple]] = [[] for _ in range(total + 1)]
    for sigma, pre, wake in group:
        watch[wake[0]].append((sigma, pre, wake, 0))
    needs_left_identity = "has_left_identity" in spec.laws
    build = build or needs_left_identity or spec.intra_regular
    # the emitted models share their label tuple and their equal rows
    gamma, rows = tuple(string.ascii_lowercase[:k]), {}
    nodes = emitted = 0

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

    # trails[d]: the lists the node at depth d appended to; deeper cells hold -1
    trails: list[list[list]] = [[] for _ in range(total)]
    depth = 0
    while depth >= 0:
        trail = trails[depth]
        while trail:
            trail.pop().pop()
        v = t[depth] + 1
        if v == n:
            t[depth] = -1
            depth -= 1
            continue
        nodes += 1
        if nodes > spec.budget:
            raise SearchBudgetError(f"node budget {spec.budget} exhausted after emitting {emitted} models",
                                    frontier=tuple(t[:depth]) + (v,), emitted=emitted)
        t[depth] = v
        # an undecided instance waits on an unassigned cell, never on
        # this one, so the list does not change under the loop
        for inst in pending[depth]:
            b1, p1, q1, b2, p2, q2 = inst
            o1 = b1 + t[p1] * n + t[q1]
            o2 = b2 + t[p2] * n + t[q2]
            a, b = t[o1], t[o2]
            if a < 0 or b < 0:
                # re-examined when the last unknown cell fills
                waiting = pending[o2 if a >= 0 or b < 0 and o2 > o1 else o1]
                waiting.append(inst)
                trail.append(waiting)
            elif a != b:
                break
        else:
            if dominated(depth, trail):
                continue
            if depth + 1 < total:
                depth += 1
                continue
            # the existential law and intra-regularity are decided on
            # the completed structure
            m = _build_magma(t, n, gamma, rows) if build else None
            if (needs_left_identity and find_left_identity(m) is None
                    or spec.intra_regular and not is_intra_regular(m)):
                continue
            emitted += 1
            yield m


def enumerate_models(spec: SearchSpec):
    """All structures matching spec, one per isomorphism class, in
    ascending flat-table order. Raises SearchBudgetError with an empty
    frontier before the search when the isomorphism group or the law
    instances outnumber the node budget, and mid-stream, with the frontier
    reached, when the node cap runs out."""
    return _search(checked_instance(spec, SearchSpec), build=True)


def count_models(spec: SearchSpec) -> int:
    """How many structures enumerate_models(spec) yields, or its SearchBudgetError;
    a model is built only where has_left_identity or intra_regular needs one."""
    return sum(1 for _ in _search(checked_instance(spec, SearchSpec), build=False))


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
    check, max_order = _PROPERTY_CHECKS[checked_name(property_name, "property", _PROPERTY_CHECKS)]
    for order in range(1, max_order + 1):
        spec = SearchSpec(order=order, gamma_count=1, laws=("left_invertive",), budget=budget)
        for m in enumerate_models(spec):
            if check(m):
                return m
    return None
