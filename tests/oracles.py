"""Independent naive reimplementations used as test oracles.

Everything here quantifies by brute force straight from the defining
formulas, shares no code with the package internals, and is written for
clarity over speed. Tests compare package results against these.
"""

import itertools
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# flat-table law predicates (tables as a flat tuple, label-major row-major)


def _ap(flat, n, g, x, y):
    return flat[g * n * n + x * n + y]


def law_left_invertive(flat, n, k):
    for a, b in itertools.product(range(k), repeat=2):
        for x, y, z in itertools.product(range(n), repeat=3):
            if _ap(flat, n, b, _ap(flat, n, a, x, y), z) != _ap(flat, n, b, _ap(flat, n, a, z, y), x):
                return False
    return True


def law_medial(flat, n, k):
    for a, b, g in itertools.product(range(k), repeat=3):
        for w, x, y, z in itertools.product(range(n), repeat=4):
            lhs = _ap(flat, n, b, _ap(flat, n, a, w, x), _ap(flat, n, g, y, z))
            rhs = _ap(flat, n, b, _ap(flat, n, a, w, y), _ap(flat, n, g, x, z))
            if lhs != rhs:
                return False
    return True


def law_ag_star_star(flat, n, k):
    for a, b in itertools.product(range(k), repeat=2):
        for x, y, z in itertools.product(range(n), repeat=3):
            if _ap(flat, n, a, x, _ap(flat, n, b, y, z)) != _ap(flat, n, a, y, _ap(flat, n, b, x, z)):
                return False
    return True


def law_paramedial(flat, n, k):
    for a, b, g in itertools.product(range(k), repeat=3):
        for w, x, y, z in itertools.product(range(n), repeat=4):
            lhs = _ap(flat, n, b, _ap(flat, n, a, w, x), _ap(flat, n, g, y, z))
            rhs = _ap(flat, n, b, _ap(flat, n, a, z, y), _ap(flat, n, g, x, w))
            if lhs != rhs:
                return False
    return True


def law_commutative(flat, n, k):
    for g in range(k):
        for x, y in itertools.product(range(n), repeat=2):
            if _ap(flat, n, g, x, y) != _ap(flat, n, g, y, x):
                return False
    return True


def law_associative(flat, n, k):
    for a, b in itertools.product(range(k), repeat=2):
        for x, y, z in itertools.product(range(n), repeat=3):
            if _ap(flat, n, b, _ap(flat, n, a, x, y), z) != _ap(flat, n, a, x, _ap(flat, n, b, y, z)):
                return False
    return True


def law_band(flat, n, k):
    return all(_ap(flat, n, g, x, x) == x for g in range(k) for x in range(n))


def law_has_left_identity(flat, n, k):
    return any(
        all(_ap(flat, n, g, e, x) == x for g in range(k) for x in range(n))
        for e in range(n)
    )


LAW_PREDICATES = {
    "left_invertive": law_left_invertive,
    "medial": law_medial,
    "ag_star_star": law_ag_star_star,
    "paramedial": law_paramedial,
    "commutative": law_commutative,
    "associative": law_associative,
    "band": law_band,
    "has_left_identity": law_has_left_identity,
}


# each equational law as its element count, its label count and its two
# sides at (T, e, l): T[g][x][y] is x g y, e the elements, l the label indices
LAW_SIDES = {
    "left_invertive": (3, 2, lambda T, e, l: (
        T[l[1]][T[l[0]][e[0]][e[1]]][e[2]], T[l[1]][T[l[0]][e[2]][e[1]]][e[0]])),
    "medial": (4, 3, lambda T, e, l: (
        T[l[1]][T[l[0]][e[0]][e[1]]][T[l[2]][e[2]][e[3]]], T[l[1]][T[l[0]][e[0]][e[2]]][T[l[2]][e[1]][e[3]]])),
    "ag_star_star": (3, 2, lambda T, e, l: (
        T[l[0]][e[0]][T[l[1]][e[1]][e[2]]], T[l[0]][e[1]][T[l[1]][e[0]][e[2]]])),
    "paramedial": (4, 3, lambda T, e, l: (
        T[l[1]][T[l[0]][e[0]][e[1]]][T[l[2]][e[2]][e[3]]], T[l[1]][T[l[0]][e[3]][e[2]]][T[l[2]][e[1]][e[0]]])),
    "commutative": (2, 1, lambda T, e, l: (T[l[0]][e[0]][e[1]], T[l[0]][e[1]][e[0]])),
    "associative": (3, 2, lambda T, e, l: (
        T[l[1]][T[l[0]][e[0]][e[1]]][e[2]], T[l[0]][e[0]][T[l[1]][e[1]][e[2]]])),
    "band": (1, 1, lambda T, e, l: (T[l[0]][e[0]][e[0]], e[0])),
}


def naive_least_witness(m, law):
    """The least failing (elements, labels, lhs, rhs) of law, elements
    compared before labels, both ascending; None when the law holds."""
    elements, labels, sides = LAW_SIDES[law]
    for e in itertools.product(range(m.order), repeat=elements):
        for l in itertools.product(range(len(m.tables)), repeat=labels):
            lhs, rhs = sides(m.tables, e, l)
            if lhs != rhs:
                return e, l, lhs, rhs
    return None


def naive_law_report(m, predicates=True):
    """check_laws(m).to_dict() by brute force: flags from the law_*
    predicates (from the witness search alone when predicates is false),
    the least witness of each failed law and the least left identity."""
    flat, n, k = magma_flat(m), m.order, len(m.gamma)
    witnesses = {}
    for law in LAW_SIDES:
        w = naive_least_witness(m, law)
        if w is not None:
            e, l, lhs, rhs = w
            witnesses[law] = {"law": law, "elements": list(e), "gamma": [m.gamma[g] for g in l],
                              "lhs": lhs, "rhs": rhs}
    laws = {law: law not in witnesses for law in LAW_SIDES}
    laws["has_left_identity"] = law_has_left_identity(flat, n, k)
    if predicates:
        laws = {law: pred(flat, n, k) for law, pred in LAW_PREDICATES.items()}
    identities = [e for e in range(n) if all(_ap(flat, n, g, e, x) == x for g in range(k) for x in range(n))]
    return {"laws": laws, "witnesses": witnesses, "left_identity": identities[0] if identities else None}


def magma_flat(m):
    return tuple(
        m.tables[g][x][y]
        for g in range(len(m.gamma))
        for x in range(m.order)
        for y in range(m.order)
    )


# ---------------------------------------------------------------------------
# isomorphism bucketing


def canonical_flat(flat, n, k, with_gamma):
    best = None
    label_perms = (
        list(itertools.permutations(range(k))) if with_gamma else [tuple(range(k))]
    )
    for tau in label_perms:
        tau_inv = [0] * k
        for i, s in enumerate(tau):
            tau_inv[s] = i
        for sigma in itertools.permutations(range(n)):
            sig_inv = [0] * n
            for i, s in enumerate(sigma):
                sig_inv[s] = i
            img = tuple(
                sigma[flat[tau_inv[g] * n * n + sig_inv[u] * n + sig_inv[v]]]
                for g in range(k)
                for u in range(n)
                for v in range(n)
            )
            if best is None or img < best:
                best = img
    return best


def naive_model_counts(n, k, predicates, with_gamma):
    """(raw count, isomorphism class count) over every k*n*n table."""
    raw = 0
    classes = set()
    for flat in itertools.product(range(n), repeat=k * n * n):
        if all(p(flat, n, k) for p in predicates):
            raw += 1
            classes.add(canonical_flat(flat, n, k, with_gamma))
    return raw, len(classes)


def isomorphic(m1, m2, with_gamma):
    n, k = m1.order, len(m1.gamma)
    if (m2.order, len(m2.gamma)) != (n, k):
        return False
    f1, f2 = magma_flat(m1), magma_flat(m2)
    label_perms = (
        list(itertools.permutations(range(k))) if with_gamma else [tuple(range(k))]
    )
    for tau in label_perms:
        tau_inv = [0] * k
        for i, s in enumerate(tau):
            tau_inv[s] = i
        for sigma in itertools.permutations(range(n)):
            sig_inv = [0] * n
            for i, s in enumerate(sigma):
                sig_inv[s] = i
            img = tuple(
                sigma[f1[tau_inv[g] * n * n + sig_inv[u] * n + sig_inv[v]]]
                for g in range(k)
                for u in range(n)
                for v in range(n)
            )
            if img == f2:
                return True
    return False


# ---------------------------------------------------------------------------
# crisp subset oracles (subsets as python frozensets of element indices)


def naive_set_product(m, aset, bset):
    out = set()
    for gi in range(len(m.gamma)):
        for a in aset:
            for b in bset:
                out.add(m.tables[gi][a][b])
    return frozenset(out)


def naive_crisp_kind(m, aset, kind):
    full = frozenset(range(m.order))
    aset = frozenset(aset)
    prod = naive_set_product
    if kind == "subgroupoid":
        return prod(m, aset, aset) <= aset
    if kind == "left":
        return prod(m, full, aset) <= aset
    if kind == "right":
        return prod(m, aset, full) <= aset
    if kind == "two_sided":
        return prod(m, full, aset) <= aset and prod(m, aset, full) <= aset
    if kind == "generalized_bi":
        return prod(m, prod(m, aset, full), aset) <= aset
    if kind == "bi":
        return naive_crisp_kind(m, aset, "generalized_bi") and naive_crisp_kind(m, aset, "subgroupoid")
    if kind == "interior":
        return prod(m, prod(m, full, aset), full) <= aset
    if kind == "quasi":
        return (prod(m, full, aset) & prod(m, aset, full)) <= aset
    raise ValueError(kind)


def naive_intra_witness(m, a):
    """First (x, y, beta, xi, gamma) in scan order decomposing a."""
    for x in range(m.order):
        for y in range(m.order):
            for beta in m.gamma:
                for xi in m.gamma:
                    for gamma in m.gamma:
                        if m.apply(m.apply(x, beta, m.apply(a, xi, a)), gamma, y) == a:
                            return (x, y, beta, xi, gamma)
    return None


# ---------------------------------------------------------------------------
# fuzzy oracles (fuzzy subsets as plain tuples of Fractions)


def naive_gamma_product(m, fv, gv):
    out = []
    for a in range(m.order):
        best = Fraction(0)
        for gi in range(len(m.gamma)):
            for b in range(m.order):
                for c in range(m.order):
                    if m.tables[gi][b][c] == a:
                        cand = min(fv[b], gv[c])
                        if cand > best:
                            best = cand
        out.append(best)
    return tuple(out)


def naive_fuzzy_kind(m, fv, kind):
    n = len(fv)
    rng = range(n)
    labels = range(len(m.gamma))

    def ap(g, x, y):
        return m.tables[g][x][y]

    if kind == "subgroupoid":
        return all(fv[ap(g, x, y)] >= min(fv[x], fv[y]) for g in labels for x in rng for y in rng)
    if kind == "left":
        return all(fv[ap(g, x, y)] >= fv[y] for g in labels for x in rng for y in rng)
    if kind == "right":
        return all(fv[ap(g, x, y)] >= fv[x] for g in labels for x in rng for y in rng)
    if kind == "two_sided":
        return naive_fuzzy_kind(m, fv, "left") and naive_fuzzy_kind(m, fv, "right")
    if kind == "generalized_bi":
        return all(
            fv[ap(b, ap(a, x, y), z)] >= min(fv[x], fv[z])
            for a in labels for b in labels for x in rng for y in rng for z in rng
        )
    if kind == "bi":
        return naive_fuzzy_kind(m, fv, "generalized_bi") and naive_fuzzy_kind(m, fv, "subgroupoid")
    if kind == "interior":
        return all(
            fv[ap(b, ap(a, x, y), z)] >= fv[y]
            for a in labels for b in labels for x in rng for y in rng for z in rng
        )
    if kind == "quasi":
        ones = tuple(Fraction(1) for _ in rng)
        fs = naive_gamma_product(m, fv, ones)
        sf = naive_gamma_product(m, ones, fv)
        return all(fv[a] >= min(fs[a], sf[a]) for a in rng)
    if kind == "idempotent":
        return naive_gamma_product(m, fv, fv) == tuple(fv)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# family statements, scanned pair by pair and triple by triple


def naive_semilattice(m, family):
    """The semilattice flags the family fails and its first failure, as
    (clause, subsets, derived (name, vector) pairs), or None; family holds
    value tuples. Closure and commutativity are scanned pair by pair, then
    idempotence and the identity per member, then associativity triple by
    triple up to its first failure."""
    ones = (Fraction(1),) * m.order
    failures = []  # (flag, payload) in scan order
    for f in family:
        for g in family:
            fg, gf = naive_gamma_product(m, f, g), naive_gamma_product(m, g, f)
            if fg not in family:
                failures.append(("closed", ("closure: f*g is not a two sided ideal", (f, g), (("f*g", fg),))))
            if fg != gf:
                failures.append(("commutative", ("f*g == g*f", (f, g), (("f*g", fg), ("g*f", gf)))))
    for f in family:
        ff, f1 = naive_gamma_product(m, f, f), naive_gamma_product(m, f, ones)
        if ff != f:
            failures.append(("all_idempotent", ("f*f == f", (f,), (("f*f", ff), ("f", f)))))
        if f1 != f:
            failures.append(("identity_holds", ("f*ones == f", (f,), (("f*ones", f1), ("f", f)))))
    for f, g, h in itertools.product(family, repeat=3):
        lhs = naive_gamma_product(m, naive_gamma_product(m, f, g), h)
        rhs = naive_gamma_product(m, f, naive_gamma_product(m, g, h))
        if lhs != rhs:
            failures.append(("associative", ("(f*g)*h == f*(g*h)", (f, g, h), (("(f*g)*h", lhs), ("f*(g*h)", rhs)))))
            break
    return {flag for flag, _ in failures}, failures[0][1] if failures else None


def _naive_leq(fv, gv):
    return all(a <= b for a, b in zip(fv, gv))


def _naive_split_below(f, family, combine):
    """First (g, h) with combine(g, h) <= f but neither g <= f nor h <= f."""
    for g, h in itertools.product(family, repeat=2):
        if _naive_leq(combine(g, h), f) and not _naive_leq(g, f) and not _naive_leq(h, f):
            return g, h
    return None


def naive_prime_failure(m, family, statement):
    """The first failure of irr_iff_prime or all_prime_iff_chain, as
    (clause, subsets, derived (name, vector) pairs), or None; family holds
    value tuples."""
    def prod(fv, gv):
        return naive_gamma_product(m, fv, gv)

    def meet(fv, gv):
        return tuple(map(min, fv, gv))

    if statement == "irr_iff_prime":
        for f in family:
            irr = _naive_split_below(f, family, meet)
            prime = _naive_split_below(f, family, prod)
            if irr is None and prime is not None:
                g, h = prime
                return "strongly irreducible but not prime", (f, g, h), (("g*h", prod(g, h)),)
            if prime is None and irr is not None:
                g, h = irr
                return "prime but not strongly irreducible", (f, g, h), (("g^h", meet(g, h)),)
        return None
    not_prime = next(((f,) + w for f in family if (w := _naive_split_below(f, family, prod))), None)
    incomparable = next(((f, g) for f, g in itertools.product(family, repeat=2)
                         if not _naive_leq(f, g) and not _naive_leq(g, f)), None)
    if (not_prime is None) == (incomparable is None):
        return None
    if not_prime is None:
        return "every ideal prime but family is not a chain", incomparable, ()
    f, g, h = not_prime
    return "family is a chain but some ideal is not prime", (f, g, h), (("g*h", prod(g, h)),)


# ---------------------------------------------------------------------------
# replaying theorem violations

_TOKEN = re.compile(r"ones|[fghk]|\(|\)|\*|\^")


def eval_expr(expr, m, subsets):
    """Evaluate composite names like "(f*g)*h" or "f^ones" naively.

    subsets maps the letters f, g, h, k to membership tuples; ones is
    the all-ones vector; * is the sup-min composition, ^ the pointwise
    minimum. Operators associate left.
    """
    tokens = _TOKEN.findall(expr)
    if "".join(tokens) != expr.replace(" ", ""):
        raise ValueError(f"unparsed characters in {expr!r}")
    pos = 0

    def parse_atom():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            value = parse_chain()
            assert tokens[pos] == ")"
            pos += 1
            return value
        if tok == "ones":
            return tuple(Fraction(1) for _ in range(m.order))
        return tuple(subsets[tok])

    def parse_chain():
        nonlocal pos
        value = parse_atom()
        while pos < len(tokens) and tokens[pos] in ("*", "^"):
            op = tokens[pos]
            pos += 1
            rhs = parse_atom()
            if op == "*":
                value = naive_gamma_product(m, value, rhs)
            else:
                value = tuple(min(a, b) for a, b in zip(value, rhs))
        return value

    out = parse_chain()
    assert pos == len(tokens)
    return out


def _kind_point_check(m, hv, kind, elements, labels, lhs, rhs):
    """Recompute the recorded pointwise kind failure from scratch."""
    gi = [m.gamma.index(lab) for lab in labels]
    if kind in ("subgroupoid", "left", "right", "two_sided"):
        x, y = elements
        got = hv[m.tables[gi[0]][x][y]]
        if kind == "subgroupoid":
            bound = min(hv[x], hv[y])
        elif kind == "left":
            bound = hv[y]
        elif kind == "right":
            bound = hv[x]
        else:
            if rhs == hv[y] and got < hv[y]:
                bound = hv[y]
            else:
                bound = hv[x]
        return got == lhs and bound == rhs and got < bound
    if kind in ("generalized_bi", "interior", "bi"):
        if kind == "bi" and len(elements) == 2:
            return _kind_point_check(m, hv, "subgroupoid", elements, labels, lhs, rhs)
        x, y, z = elements
        got = hv[m.tables[gi[1]][m.tables[gi[0]][x][y]][z]]
        bound = hv[y] if kind == "interior" else min(hv[x], hv[z])
        return got == lhs and bound == rhs and got < bound
    if kind == "quasi":
        (a,) = elements
        ones = tuple(Fraction(1) for _ in range(m.order))
        bound = min(
            naive_gamma_product(m, hv, ones)[a], naive_gamma_product(m, ones, hv)[a]
        )
        return hv[a] == lhs and bound == rhs and hv[a] < bound
    if kind == "idempotent":
        (a,) = elements
        sq = naive_gamma_product(m, hv, hv)[a]
        return sq == lhs and hv[a] == rhs and sq != hv[a]
    raise ValueError(kind)


def replay_violation(m, violation):
    """True when the recorded counterexample reproduces bit for bit."""
    subsets = dict(zip("fghk", (f.values for f in violation.subsets)))
    recomputed = {}
    for name, vec in violation.derived:
        got = eval_expr(name, m, subsets)
        if got != vec.values:
            return False
        recomputed[name] = got
    if violation.kind is not None:
        name, _ = violation.derived[-1]
        return _kind_point_check(
            m,
            recomputed[name],
            violation.kind,
            violation.elements,
            violation.labels,
            violation.lhs,
            violation.rhs,
        )
    # equality violation over the last two derived vectors
    (lname, _), (rname, _) = violation.derived[-2], violation.derived[-1]
    lv, rv = recomputed[lname], recomputed[rname]
    a = violation.elements[0]
    return lv[a] == violation.lhs and rv[a] == violation.rhs and lv[a] != rv[a]
