"""The four benchmark workloads: set-up, op lists and correctness gates.

Every op calls a public gammag entry point through its module attribute at
call time (``g.theorems.verify(...)``, never a bound reference), so the
traced run's wrappers see it. Seed-free outputs are compared with digests
frozen in ``expected``; seeded outputs are checked against invariants.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import expected

ROOT = Path(__file__).resolve().parent.parent

WHY = {
    "verify-composite": "the CLI registry run on ir5 at den 1: fuzzy.gamma_product on order 5 "
    "dominates, finder and crisp are idle, and two ops end in capacity stops",
    "sampled-models": "criterion-6 traffic: sampled composition identities at den 4 on hundreds "
    "of tiny enumerated models, so per-structure and per-den costs show",
    "classify": "crisp and lattice-valued ideal-kind classification, where kind scans and "
    "set_product do most of the work",
    "enumerate": "the finder alone: order-4 counts and a budget-capped order-5 search, with "
    "fuzzy and theorems idle",
}

SAMPLES = 32            # sampled-models: draws per verify call
FUZZY_PER_CORPUS = 600  # classify: den-4 subsets per corpus structure


def digest(obj) -> str:
    """sha256 of canonical JSON (sorted keys, two-space indent)."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


def cli_run(g, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = g.cli.main(argv)
    return code, out.getvalue()


@dataclass
class Tally:
    """Outcome of checking one pass: decisions attempted, undecided (capacity
    stops that are the frozen outcome), and mismatches."""

    attempted: int = 0
    undecided: int = 0
    mismatches: list[str] = field(default_factory=list)

    def add(self, attempted: int, undecided: int = 0, mismatch: str | None = None) -> None:
        self.attempted += attempted
        self.undecided += undecided
        if mismatch:
            self.mismatches.append(mismatch)


@dataclass
class Plan:
    """One workload after set-up: the op list and the gate for its outputs."""

    ops: list[tuple[str, Callable[[], object]]]
    check: Callable[[list], Tally]
    setup_mismatches: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# gates shared by several workloads


def check_verdict(d: dict, frozen: tuple[str, str]) -> tuple[int, str | None]:
    """Gate one verdict dict against its frozen (status, digest).

    Returns (undecided, mismatch). A frozen capacity stop may later be
    decided, but only as ``holds``: every registry statement is a theorem.
    """
    status, sha = frozen
    if digest(d) == sha:
        return (1 if status == "capacity_error" else 0), None
    if status == "capacity_error" and d.get("status") == "holds" and d.get("witness") is None:
        return 0, None
    return 0, f"verdict {d.get('theorem')} differs from the frozen output"


def check_verify_all(out, frozen_verdicts: dict) -> Tally:
    code, stdout = out
    tally = Tally()
    try:
        doc = json.loads(stdout)
        results = doc["results"]
    except (ValueError, KeyError, TypeError):
        tally.add(len(frozen_verdicts), mismatch="verify --theorem all printed no results document")
        return tally
    if stdout != json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n":
        tally.mismatches.append("verify --theorem all stdout is not canonical JSON")
    ids = [r.get("theorem") for r in results]
    if ids != list(frozen_verdicts):
        tally.add(len(frozen_verdicts), mismatch=f"verify --theorem all ran {ids}")
        return tally
    for d in results:
        undecided, mismatch = check_verdict(d, frozen_verdicts[d["theorem"]])
        tally.add(1, undecided, mismatch)
    want = 3 if tally.undecided else 0
    if code != want:
        tally.mismatches.append(f"verify --theorem all exited {code}, expected {want}")
    return tally


def check_classify_fuzzy(g, m, f, got) -> str | None:
    """Criterion 10: on the crisp kinds, f has a kind exactly when every
    non-empty level cut of f has it."""
    want = set(expected.CRISP_KINDS)
    for t in {v for v in f.values if v > 0}:
        want &= g.crisp.classify_subset(m, g.fuzzy.level_cut(f, t))
    crisp_part = set(got) & set(expected.CRISP_KINDS)
    if crisp_part != want:
        return f"classify_fuzzy {f.to_dict()} gave {sorted(crisp_part)}, level cuts give {sorted(want)}"
    return None


# ---------------------------------------------------------------------------
# workloads


def plan_verify_composite(g, seed: int) -> Plan:
    argv = ["verify", "ir5", "--theorem", "all", "--lattice", "1"]
    frozen = expected.VERIFY_ALL_IR5_DEN1

    def check(outputs):
        return check_verify_all(outputs[0], frozen)

    return Plan(ops=[("cli " + " ".join(argv), lambda: cli_run(g, argv))], check=check)


def model_pool(g, laws) -> list:
    pool = []
    for n in (1, 2, 3):
        for k in (1, 2):
            spec = g.finder.SearchSpec(order=n, gamma_count=k, laws=laws)
            pool.extend(g.finder.enumerate_models(spec))
    return pool


def plan_sampled_models(g, seed: int) -> Plan:
    li_pool = model_pool(g, ("left_invertive",))
    ss_pool = model_pool(g, ("ag_star_star", "left_invertive"))
    mismatches = []
    if (len(li_pool), len(ss_pool)) != (expected.LI_POOL, expected.SS_POOL):
        mismatches.append(f"model pools have {len(li_pool)} and {len(ss_pool)} models, "
                          f"expected {expected.LI_POOL} and {expected.SS_POOL}")
    lattice = g.fuzzy.Lattice(4)
    sample_seed = random.Random(seed).randrange(2**32)
    ops = []
    for pool, tids in ((li_pool, ("trm_i", "trm_ii")), (ss_pool, ("agss_i", "agss_ii"))):
        for i, m in enumerate(pool):
            for tid in tids:
                ops.append((f"verify {tid} model {i} sampled",
                            lambda m=m, tid=tid: g.theorems.verify(
                                m, tid, lattice, "sampled", sample_seed, SAMPLES)))

    def check(outputs):
        tally = Tally()
        for (label, _), v in zip(ops, outputs):
            ok = (v.status == "holds" and v.checked == SAMPLES and v.mode == "sampled"
                  and v.seed == sample_seed and v.lattice_den == 4 and v.violation is None)
            tally.add(1, mismatch=None if ok else f"{label}: {v.to_dict()}")
        return tally

    return Plan(ops=ops, check=check, setup_mismatches=mismatches)


def catalog_entry(g, m):
    return (g.core.check_laws(m), g.crisp.is_intra_regular(m),
            [g.crisp.enumerate_ideals(m, kind) for kind in expected.CRISP_KINDS])


def catalog_digest(catalog, entries) -> str:
    h = hashlib.sha256()
    for m, (report, intra, ideals) in zip(catalog, entries):
        row = [m.tables, report.to_dict(m), intra, [[s.bits for s in found] for found in ideals]]
        h.update(json.dumps(row, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def random_subsets(g, rng, order: int, count: int) -> list:
    return [g.fuzzy.FuzzySubset(tuple(Fraction(rng.randint(0, 4), 4) for _ in range(order)))
            for _ in range(count)]


def plan_classify(g, seed: int) -> Plan:
    corpus = {name: g.core.load_structure(ROOT / "corpus" / f"{name}.json") for name in ("ag9", "ir5")}
    catalog = list(g.finder.enumerate_models(g.finder.SearchSpec(order=3, gamma_count=3)))
    rng = random.Random(seed)
    fuzzy_inputs = [(name, f) for name in ("ag9", "ir5")
                    for f in random_subsets(g, rng, corpus[name].order, FUZZY_PER_CORPUS)]
    mismatches = []
    if len(catalog) != expected.CATALOG_MODELS:
        mismatches.append(f"order-3 three-label catalog has {len(catalog)} models, "
                          f"expected {expected.CATALOG_MODELS}")
    lattice3 = g.fuzzy.Lattice(3)
    ir5 = corpus["ir5"]

    ops = [(f"catalog model {i}", lambda m=m: catalog_entry(g, m)) for i, m in enumerate(catalog)]
    n_catalog = len(ops)
    ops += [(f"classify_fuzzy {name} {f.to_dict()['num']}",
             lambda m=corpus[name], f=f: g.fuzzy.classify_fuzzy(m, f))
            for name, f in fuzzy_inputs]
    ops += [("cli " + argv, lambda argv=argv: cli_run(g, argv.split()))
            for argv in expected.CLASSIFY_CLI]
    ops += [(f"verify {tid} ir5 den 3", lambda tid=tid: g.theorems.verify(ir5, tid, lattice3))
            for tid in expected.CLASSIFY_VERIFY_IR5_DEN3]
    def check(outputs):
        tally = Tally()
        cat_ok = catalog_digest(catalog, outputs[:n_catalog]) == expected.CATALOG_DIGEST
        tally.attempted += n_catalog
        if not cat_ok:
            tally.mismatches.append("crisp catalog output differs from the frozen digest")
        pos = n_catalog
        for i, (name, f) in enumerate(fuzzy_inputs):
            tally.add(1, mismatch=check_classify_fuzzy(g, corpus[name], f, outputs[pos + i]))
        pos += len(fuzzy_inputs)
        for argv, (code_want, sha) in expected.CLASSIFY_CLI.items():
            code, stdout = outputs[pos]
            ok = code == code_want and hashlib.sha256(stdout.encode()).hexdigest() == sha
            tally.add(1, mismatch=None if ok else f"cli {argv} output differs from the frozen output")
            pos += 1
        for tid, frozen in expected.CLASSIFY_VERIFY_IR5_DEN3.items():
            undecided, mismatch = check_verdict(outputs[pos].to_dict(), frozen)
            tally.add(1, undecided, mismatch)
            pos += 1
        return tally

    return Plan(ops=ops, check=check, setup_mismatches=mismatches)


def order5_prefix(g, budget: int):
    spec = g.finder.SearchSpec(order=5, gamma_count=1, budget=budget)
    models = []
    try:
        for m in g.finder.enumerate_models(spec):
            models.append(m)
    except g.finder.SearchBudgetError:
        return models, True
    return models, False


def check_order5(out) -> tuple[int, str | None]:
    """Budget-capped order-5 search: it must emit at least the frozen prefix,
    unchanged; if it ever finishes, it must find all 31,913 models."""
    models, stopped = out
    k = expected.ORDER5_EMITTED
    if len(models) < k:
        return 0, f"order-5 search emitted {len(models)} models before its stop, expected {k}"
    h = hashlib.sha256()
    for m in models[:k]:
        h.update(json.dumps(m.tables, separators=(",", ":")).encode())
    if h.hexdigest() != expected.ORDER5_PREFIX_DIGEST:
        return 0, "order-5 search emitted models that differ from the frozen prefix"
    if not stopped and len(models) != expected.ORDER5_MODELS:
        return 0, f"order-5 search finished with {len(models)} models, expected {expected.ORDER5_MODELS}"
    return (1 if stopped else 0), None


def plan_enumerate(g, seed: int) -> Plan:
    ops = [("cli " + argv, lambda argv=argv: cli_run(g, argv.split())) for argv in expected.ENUMERATE_CLI]
    ops.append((f"order 5 count, node budget {expected.ORDER5_BUDGET}",
                lambda: order5_prefix(g, expected.ORDER5_BUDGET)))

    def check(outputs):
        tally = Tally()
        for (argv, want), out in zip(expected.ENUMERATE_CLI.items(), outputs):
            tally.add(1, mismatch=None if out == want else f"cli {argv} gave {out}, expected {want}")
        undecided, mismatch = check_order5(outputs[-1])
        tally.add(1, undecided, mismatch)
        return tally

    return Plan(ops=ops, check=check)


PLANS = {
    "verify-composite": plan_verify_composite,
    "sampled-models": plan_sampled_models,
    "classify": plan_classify,
    "enumerate": plan_enumerate,
}
