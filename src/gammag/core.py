"""Finite gamma-indexed AG-groupoids as explicit multiplication tables.

A structure is a carrier {0, ..., order-1} together with one binary
operation per gamma label. Everything downstream (ideal classification,
theorem verification, model search) works on these tables, so this module
keeps them immutable and cheap to interrogate.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path


class InputError(ValueError):
    """Malformed structure, file, or argument."""


class CapacityError(RuntimeError):
    """A requested computation exceeds its configured budget or cap."""


def checked_int(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """value, when it is an int (not a bool) in least..most, each bound optional; else InputError."""
    if isinstance(value, int) and not isinstance(value, bool) and (
        least is None or least <= value) and (most is None or value <= most):
        return value
    span = "" if least is None else f" >= {least}" if most is None else f" in {least}..{most}"
    raise InputError(f"{what} must be an integer{span}")


def checked_name(value, what: str, names):
    """value, when it is hashable and one of names; else InputError."""
    try:
        if value in names:
            return value
    except TypeError:  # an unhashable value looked up in a dict or set
        pass
    raise InputError(f"no such {what} {value!r}; expected one of {', '.join(names)}")


def checked_collection(value, what: str, kinds: tuple = (list, tuple)):
    """value, when it is an instance of one of kinds (so never a string split up); else InputError."""
    if isinstance(value, kinds):
        return value
    raise InputError(f"{what} must be a {' or a '.join(kind.__name__ for kind in kinds)}")


def checked_instance(value, kind: type):
    """value, when it is an instance of kind; else InputError."""
    if isinstance(value, kind):
        return value
    raise InputError(f"expected {kind.__name__}, got {type(value).__name__}")


def json_fields(d, what: str, required: tuple, optional: tuple = ()) -> tuple:
    """The required fields of the JSON object d, once it is known to hold
    every required key and no key outside required and optional."""
    if not isinstance(d, dict):
        raise InputError(f"{what} must be a JSON object")
    unknown = set(d).difference(required, optional)
    if unknown:
        raise InputError(f"unknown {what} keys {sorted(unknown)}")
    missing = [key for key in required if key not in d]
    if missing:
        raise InputError(f"{what} missing key {missing[0]!r}")
    return tuple(d[key] for key in required)


def _as_path(path, what: str) -> Path:
    """path as a Path, when it is a string or path-like; else InputError."""
    try:
        return Path(path)
    except TypeError:
        raise InputError(f"{what} path must be a string or path-like, got {type(path).__name__}") from None


def read_json(path, what: str):
    """The JSON document in the file at path, read as UTF-8 text.

    Every input file is read here. One that cannot be read, is not UTF-8,
    is not JSON, nests past the parser's recursion limit or holds an
    integer past the interpreter's digit limit raises InputError.
    """
    try:
        return json.loads(_as_path(path, what).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} file {path} as UTF-8 JSON: {exc}") from None


# One row per equational law: its variables, its number of label slots,
# and its two sides. A term is a variable or (label_slot, left, right);
# slot i is the i-th label of a witness. Adding a law is adding a row.
LAW_TERMS = {
    "left_invertive": ("xyz", 2, ((1, (0, "x", "y"), "z"), (1, (0, "z", "y"), "x"))),
    "medial": ("wxyz", 3, ((1, (0, "w", "x"), (2, "y", "z")), (1, (0, "w", "y"), (2, "x", "z")))),
    "ag_star_star": ("xyz", 2, ((0, "x", (1, "y", "z")), (0, "y", (1, "x", "z")))),
    "paramedial": ("wxyz", 3, ((1, (0, "w", "x"), (2, "y", "z")), (1, (0, "z", "y"), (2, "x", "w")))),
    "commutative": ("xy", 1, ((0, "x", "y"), (0, "y", "x"))),
    "associative": ("xyz", 2, ((1, (0, "x", "y"), "z"), (0, "x", (1, "y", "z")))),
    "band": ("x", 1, ((0, "x", "x"), "x")),
}

LAW_NAMES = (*LAW_TERMS, "has_left_identity")


def _as_tables(tables, order):
    """tables as tuples of order x order tuples with int entries in 0..order-1.

    Each row's type and length are checked as it is copied, then all entries'
    types and values in one pass each; checked_int names the first bad entry.
    """
    out, entries = [], []
    for rows in checked_collection(tables, "tables"):
        if not isinstance(rows, (list, tuple)) or len(rows) != order:
            raise InputError(f"table must be {order}x{order}")
        table = []
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != order:
                raise InputError(f"table must be {order}x{order}")
            table.append(tuple(row))
            entries += row
        out.append(tuple(table))
    if {*map(type, entries)} != {int} or min(entries) < 0 or max(entries) >= order:
        for v in entries:
            checked_int(v, "table entry", 0, order - 1)
    return tuple(out)


# GammaMagma.row_unions holds at most max(ROW_UNION_BUDGET, 2 * order**2)
# entries: its chunks narrow below 8 bits at the orders where 8 would hold more.
ROW_UNION_BUDGET = 1 << 14


@dataclass(frozen=True)
class GammaMagma:
    """Immutable family of multiplication tables over a common carrier.

    tables[gi][x][y] is the product of x and y under the gamma label
    with index gi. Optional labels give display names for elements;
    they never affect equality or hashing.
    """

    order: int
    gamma: tuple[str, ...]
    tables: tuple[tuple[tuple[int, ...], ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        checked_int(self.order, "order", 1)
        gamma = tuple(checked_collection(self.gamma, "gamma"))
        if not gamma:
            raise InputError("gamma label set must be non-empty")
        if any(not isinstance(g, str) or not g for g in gamma):
            raise InputError("gamma labels must be non-empty strings")
        if len(set(gamma)) != len(gamma):
            raise InputError("gamma labels must be distinct")
        tables = _as_tables(self.tables, self.order)
        if len(tables) != len(gamma):
            raise InputError("need exactly one table per gamma label")
        labels = self.labels
        if labels is not None:
            labels = tuple(str(v) for v in checked_collection(labels, "labels"))
            if len(labels) != self.order or len(set(labels)) != self.order:
                raise InputError("labels must name each element exactly once")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "labels", labels)

    @cached_property
    def _gamma_index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.gamma)}

    def gamma_index(self, label: str) -> int:
        return self._gamma_index[checked_name(label, "gamma label", self._gamma_index)]

    def apply(self, x: int, label: str, y: int) -> int:
        """Product of x and y under the named operation."""
        x, y = (checked_int(v, "element", 0, self.order - 1) for v in (x, y))
        return self.tables[self.gamma_index(label)][x][y]

    def element_name(self, x: int) -> str:
        x = checked_int(x, "element", 0, self.order - 1)
        return self.labels[x] if self.labels is not None else str(x)

    def element_index(self, name) -> int:
        """Resolve an element given as index, label, or numeric string."""
        if isinstance(name, str):
            if self.labels is not None and name in self.labels:
                return self.labels.index(name)
            try:
                name = int(name)
            except ValueError:
                raise InputError(f"unknown element {name!r}") from None
        return checked_int(name, "element", 0, self.order - 1)

    @cached_property
    def row_unions(self) -> tuple[int, int, tuple[int, ...]]:
        """(w, width, index): index[x * width + 2**w * c + chunk] has bit a set
        when some label takes x and some y = w*c + j, bit j set in chunk, to a;
        that is, the products of x with the c-th w-bit chunk of a subset mask.
        Each row x spans width entries, 2**w per full chunk and 2**r for a
        last chunk of r < w elements. w is the widest chunk of at most 8 bits
        that keeps the index within ROW_UNION_BUDGET entries, and 1 when none
        does: then index[2 * (x * order + y) + 1] is every label's x g y, one
        mask per table cell. Built on first use, never at construction."""
        n = self.order
        fits = (w for w in range(8, 1, -1) if n * sum(1 << min(w, n - c) for c in range(0, n, w)) <= ROW_UNION_BUDGET)
        w = next(fits, 1)
        index = []
        for rows in zip(*self.tables):  # rows: row x of every table
            masks = (0,) * n  # masks[y]: every label's x g y
            for entries in rows:
                masks = [mask | 1 << v for mask, v in zip(masks, entries)]
            for c in range(0, n, w):
                unions = [0]
                for mask in masks[c:c + w]:
                    unions += [u | mask for u in unions]
                index += unions
        return w, len(index) // n, tuple(index)

    @property
    def every_element_factorizable(self) -> bool:
        """Every element is b g c for some b, c and label g: an entry of a table."""
        return len({a for table in self.tables for row in table for a in row}) == self.order

    def to_dict(self) -> dict:
        d = {
            "order": self.order,
            "gamma": list(self.gamma),
            "tables": {g: [list(row) for row in self.tables[i]] for i, g in enumerate(self.gamma)},
        }
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d


def checked_structure(value) -> GammaMagma:
    """value, when it is a GammaMagma; else InputError."""
    if isinstance(value, GammaMagma):
        return value
    raise InputError(f"expected a GammaMagma structure, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class LawWitness:
    """One substitution that makes the two sides of a law differ."""

    law: str
    elements: tuple[int, ...]
    labels: tuple[str, ...]
    lhs: int
    rhs: int

    def render(self, m: GammaMagma) -> str:
        names = [m.element_name(e) for e in self.elements]
        return f"{self.law}{tuple(names) + self.labels}: {m.element_name(self.lhs)} != {m.element_name(self.rhs)}"

    def to_dict(self, m: GammaMagma | None = None) -> dict:
        d = {
            "law": self.law,
            "elements": list(self.elements),
            "gamma": list(self.labels),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
        if m is not None and m.labels is not None:
            d["display"] = self.render(m)
        return d


@dataclass(frozen=True)
class LawReport:
    """First lexicographic witness for each failed law, plus the least
    left identity; every flag in LAW_NAMES is read from these two.

    Witness tuples order element components before gamma components, and
    the scan enumerates elements in carrier order and labels in declared
    order, so the recorded witness is the lexicographically smallest one.
    has_left_identity is existential: when it holds, left_identity is the
    least such element; when it fails there is no witness to attach.
    Flags read as attributes too (report.medial).
    """

    witnesses: dict[str, LawWitness]
    left_identity: int | None

    def holds(self, law: str) -> bool:
        if checked_name(law, "law", LAW_NAMES) == "has_left_identity":
            return self.left_identity is not None
        return law not in self.witnesses

    def __getattr__(self, name: str) -> bool:
        try:
            return self.holds(name)
        except InputError:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}") from None

    def to_dict(self, m: GammaMagma | None = None) -> dict:
        return {
            "laws": {law: self.holds(law) for law in LAW_NAMES},
            "witnesses": {law: w.to_dict(m) for law, w in sorted(self.witnesses.items())},
            "left_identity": self.left_identity,
        }


def _mirror(variables: str, sides: tuple) -> str | None:
    """A renaming of the variables that swaps the two sides, labels fixed.

    Given as the variables' new names in variable order ("zyx" renames x
    to z and z to x); None when no renaming does.
    """
    def rename(term):
        return renaming[term] if isinstance(term, str) else (term[0], rename(term[1]), rename(term[2]))

    lhs, rhs = sides
    for image in itertools.permutations(variables):
        renaming = dict(zip(variables, image))
        if rename(lhs) == rhs and rename(rhs) == lhs and all(renaming[w] == v for v, w in renaming.items()):
            return "".join(image)
    return None


# Each LAW_TERMS row's mirror renaming, or None; the law scans and the
# finder's law instances both skip the element tuples above their mirror.
LAW_MIRRORS = {law: _mirror(variables, sides) for law, (variables, _, sides) in LAW_TERMS.items()}


def _fused_root(sides: tuple) -> int | None:
    """The label slot both sides apply at their root, when it occurs nowhere else; else None."""
    def slots(term):
        return () if isinstance(term, str) else (term[0], *slots(term[1]), *slots(term[2]))

    lhs, rhs = map(slots, sides)
    if lhs and rhs and lhs[0] == rhs[0] and lhs[0] not in lhs[1:] + rhs[1:]:
        return lhs[0]
    return None


def _compile_scan(law: str, variables: str, slots: int, sides: tuple):
    """First-failure scan for one LAW_TERMS row, as generated nested loops.

    Loops run over elements in variable order, then over labels in slot
    order, so the first failure found is the lexicographically least
    witness. Each product is computed once, at the shallowest loop that
    binds all of its elements and labels.

    A row with a mirror renaming skips every element tuple e that is not
    lexicographically below its mirror e' (e' gives each variable the
    value e gives its image). The sides at e' are the sides at e
    swapped, so e fails exactly when e' does; a tuple equal to its mirror
    has equal sides; and a failing e above e' is beaten by e' under the
    same labels. So the least failing tuple is below its mirror and the
    witness is unchanged. A row outside LAW_TERMS scans every tuple.

    A row whose sides apply one label slot at the root, and nowhere else,
    has no loop over that slot: the scan reads both roots from the packed
    entries (packed[p][q] holds every label's p g q, see _packed_entries),
    which are equal exactly when the sides agree under every label of the
    slot. So the first element tuple whose packed roots differ is the first
    failing one, and the loops over every slot are run again at that tuple
    alone to find its least failing labels.
    """
    fused, n_vars = _fused_root(sides), len(variables)

    def emit(skip):
        # loop bodies by depth and the two sides' names; a product under the
        # skipped slot reads the packed entries instead of one label's table
        body = [[] for _ in range(n_vars + slots)]
        local = {}

        def value(term):
            # (name holding the term's value, loop depth where it is known)
            if isinstance(term, str):
                i = variables.index(term)
                return f"e{i}", i
            if term not in local:
                g, left, right = term
                (a, da), (b, db) = value(left), value(right)
                v = f"{'p' if g == skip else 'v'}{len(local)}"
                row, depth = (f"P[{a}]", da) if g == skip else (f"T{g}[{a}]", max(n_vars + g, da))
                if db > depth:  # the row is known before the column
                    body[depth].append(f"r{v} = {row}")
                    row, depth = f"r{v}", db
                body[depth].append(f"{v} = {row}[{b}]")
                local[term] = v, depth
            return local[term]

        return body, value(sides[0])[0], value(sides[1])[0]

    def nest(loops, body, depths, indent):
        # the loops at depths, each followed by its body
        out = []
        for depth in depths:
            out += [" " * indent + loops[depth]] + [" " * (indent + 1) + line for line in body[depth]]
            indent += 1
        return out, indent

    outer, lhs, rhs = emit(fused)
    mirror = LAW_MIRRORS.get(law)
    if mirror is not None:
        # compare e with e' from the first variable its renaming moves;
        # the first position where they differ is the lesser of a pair
        pairs = [(i, variables.index(v)) for i, v in enumerate(mirror) if variables.index(v) > i]
        here, there = (", ".join(f"e{p[j]}" for p in pairs) for j in (0, 1))
        outer[max(j for p in pairs for j in p)].insert(0, f"if ({here}) >= ({there}): continue")
    loops = [f"for e{i} in rng:" for i in range(n_vars)] + [f"for l{j}, T{j} in enumerate(t):" for j in range(slots)]
    lines, indent = nest(loops, outer, range(n_vars), 1)
    src = ["def scan(m, P):", " t = m.tables", " rng = range(m.order)", *lines]
    if fused is not None:
        # the packed scan names no labels; at the first element tuple whose
        # roots differ, the loops over every slot below find the least labels
        bare = loops[:n_vars] + [f"for T{j} in t:" for j in range(slots)]
        lines, indent = nest(bare, outer, [n_vars + j for j in range(slots) if j != fused], indent)
        src += lines + [" " * indent + f"if {lhs} != {rhs}:"]
        indent += 1
    inner, lhs, rhs = emit(None)
    lines, deepest = nest(loops, inner, range(n_vars, n_vars + slots), indent)
    elements = "".join(f"e{i}, " for i in range(n_vars))
    labels = "".join(f"m.gamma[l{j}], " for j in range(slots))
    src += lines + [" " * deepest + f"if {lhs} != {rhs}:",
                    " " * deepest + f" return LawWitness({law!r}, ({elements}), ({labels}), {lhs}, {rhs})"]
    if fused is not None:
        src.append(" " * indent + "raise AssertionError('the packed roots differ under no labels')")
    src.append(" return None")
    namespace = {"LawWitness": LawWitness}
    exec(compile("\n".join(src), f"<{law} scan>", "exec"), namespace)
    return namespace["scan"]


_SCANS = {law: _compile_scan(law, *row) for law, row in LAW_TERMS.items()}


def _packed_entries(m: GammaMagma) -> list[list[int]]:
    """packed[p][q] holds the entries p g q of every label g, in label order,
    as the base-order digits of one int: one comparison compares them all."""
    n = m.order
    packed = [(0,) * n] * n
    for table in m.tables:
        packed = [[acc * n + v for acc, v in zip(row, entries)] for row, entries in zip(packed, table)]
    return packed


def find_left_identity(m: GammaMagma) -> int | None:
    """Least e with e g x == x for every label g and element x, if any."""
    checked_structure(m)
    for e in range(m.order):
        if all(table[e][x] == x for table in m.tables for x in range(m.order)):
            return e
    return None


def check_laws(m: GammaMagma) -> LawReport:
    """Exhaustively decide every law, with first-failure witnesses."""
    packed = _packed_entries(checked_structure(m))
    witnesses = {law: w for law, scan in _SCANS.items() if (w := scan(m, packed)) is not None}
    report = LawReport(witnesses, find_left_identity(m))
    # The invertive law forces mediality, and together with the starred
    # law it forces paramediality; a violation here means a scan is wrong.
    if report.left_invertive and not report.medial:
        raise AssertionError("left invertive but not medial")
    if report.left_invertive and report.ag_star_star and not report.paramedial:
        raise AssertionError("left invertive and AG** but not paramedial")
    return report


def check_single_law(m: GammaMagma, law: str) -> LawWitness | None:
    """Scan one equational law; None means it holds."""
    scan = _SCANS[checked_name(law, "equational law", _SCANS)]
    return scan(m, _packed_entries(checked_structure(m)))


TERM_PATTERNS = ("xy", "(xx)y", "x(yy)")


def from_base_with_terms(base, patterns, gamma=None, labels=None) -> GammaMagma:
    """Build a gamma-indexed structure from one base table and term patterns.

    Each pattern from {"xy", "(xx)y", "x(yy)"} contributes a derived
    operation evaluated in the base table. Gamma labels default to
    g0, g1, ... in pattern order.
    """
    order = len(checked_collection(base, "base table"))
    (base,) = _as_tables((base,), order)
    patterns = checked_collection(patterns, "term patterns")
    patterns = tuple(checked_name(p, "term pattern", TERM_PATTERNS) for p in patterns)
    if not patterns:
        raise InputError("need at least one term pattern")
    if gamma is None:
        gamma = tuple(f"g{i}" for i in range(len(patterns)))
    if len(checked_collection(gamma, "gamma")) != len(patterns):
        raise InputError("need exactly one gamma label per pattern")
    tables = []
    for p in patterns:
        if p == "xy":
            tables.append(base)
        elif p == "(xx)y":
            tables.append(tuple(tuple(base[base[x][x]][y] for y in range(order)) for x in range(order)))
        else:
            tables.append(tuple(tuple(base[x][base[y][y]] for y in range(order)) for x in range(order)))
    return GammaMagma(order=order, gamma=gamma, tables=tuple(tables), labels=labels)


def integer_op_eval(a: int, beta: int, b: int, z: int) -> int:
    """Integer-carrier operation b - beta - a - beta - z.

    The offset z is a parameter of the family; composing two applications
    cancels it, which is what the law regression tests exploit.
    """
    for v in (a, beta, b, z):
        checked_int(v, "integer operation argument")
    return b - beta - a - beta - z


def structure_from_dict(d: dict) -> GammaMagma:
    """Parse the structure JSON object layout, validating shape and closure."""
    order, gamma, tables = json_fields(d, "structure", ("order", "gamma", "tables"), ("labels",))
    if not isinstance(gamma, list) or not all(isinstance(g, str) for g in gamma):
        raise InputError("gamma must be a list of label strings")
    if not isinstance(tables, dict):
        raise InputError("tables must map each gamma label to a square table")
    if set(tables) != set(gamma):
        raise InputError("tables keys must equal the gamma label list")
    if not isinstance(d.get("labels", []), list):
        raise InputError("labels must be a list of element names")
    return GammaMagma(
        order=order,
        gamma=tuple(gamma),
        tables=tuple(tables[g] for g in gamma),
        labels=tuple(d["labels"]) if "labels" in d else None,
    )


def load_structure(path) -> GammaMagma:
    return structure_from_dict(read_json(path, "structure"))


def canonical_json(obj) -> str:
    """Stable serialization so identical results are byte-identical."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True)


def dump_structure(m: GammaMagma, path) -> None:
    text = canonical_json(checked_structure(m).to_dict()) + "\n"
    _as_path(path, "structure").write_text(text)
