"""Command line front end: structure and fuzzy files in, JSON out.

stdout carries exactly one JSON document per invocation, so identical
invocations produce byte-identical output; anything meant for humans
goes to stderr. Exit codes: 0 success or statement holds, 1 negative
finding (counterexample, missing witness), 2 bad input, 3 capacity.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import os
import sys
from pathlib import Path

from .core import (
    CapacityError,
    GammaMagma,
    InputError,
    canonical_json,
    check_laws,
    checked_int,
    checked_name,
    load_structure,
    read_json,
)
from .crisp import (
    IDEAL_KINDS,
    enumerate_ideals,
    intra_regular_witness,
    is_intra_regular,
)
from .finder import DEFAULT_NODE_BUDGET, ISO_MODES, SearchSpec, count_models, enumerate_models
from .fuzzy import FUZZY_KINDS, Lattice, classify_fuzzy, fuzzy_from_dict, gamma_product
from .theorems import DEFAULT_TUPLE_BUDGET, REGISTRY_ORDER, verify, verify_all

CORPUS_NAMES = ("ag9", "ir5")


def _emit(obj) -> None:
    sys.stdout.write(canonical_json(obj) + "\n")


def _resolve_structure(arg: str) -> GammaMagma:
    if Path(arg).exists():
        return load_structure(arg)
    name = checked_name(arg, "structure file or corpus name", CORPUS_NAMES)
    return load_structure(importlib.resources.files("gammag").joinpath("corpus", f"{name}.json"))


def _load_fuzzy(path: str, order: int):
    return fuzzy_from_dict(read_json(path, "fuzzy subset"), order=order)


def cmd_check(args) -> int:
    m = _resolve_structure(args.structure)
    out = check_laws(m).to_dict(m)
    out["intra_regular"] = is_intra_regular(m)
    _emit(out)
    return 0


def cmd_ideals(args) -> int:
    m = _resolve_structure(args.structure)
    subsets = enumerate_ideals(m, args.kind)
    out = {
        "kind": args.kind,
        "count": len(subsets),
        "subsets": [s.to_json() for s in subsets],
    }
    if m.labels is not None:
        out["named"] = [[m.element_name(e) for e in s] for s in subsets]
    _emit(out)
    return 0


def cmd_witness(args) -> int:
    m = _resolve_structure(args.structure)
    if args.element is not None:
        idx = m.element_index(args.element)
        w = intra_regular_witness(m, idx)
        _emit({"element": idx, "witness": w.to_dict(m) if w else None})
        return 0 if w else 1
    witnesses = [intra_regular_witness(m, a) for a in range(m.order)]
    _emit(
        {
            "intra_regular": all(w is not None for w in witnesses),
            "witnesses": [w.to_dict(m) if w else None for w in witnesses],
        }
    )
    return 0 if all(w is not None for w in witnesses) else 1


def cmd_fuzzy(args) -> int:
    m = _resolve_structure(args.structure)
    f = _load_fuzzy(args.f, m.order)
    if args.op == "product":
        if args.g is None:
            raise InputError("product needs a second fuzzy file")
        g = _load_fuzzy(args.g, m.order)
        _emit(gamma_product(m, f, g).to_dict())
        return 0
    if args.g is not None:
        raise InputError("classify takes one fuzzy file")
    kinds = classify_fuzzy(m, f)
    _emit({"kinds": {k: k in kinds for k in FUZZY_KINDS}})
    return 0


def _parse_mode(text: str):
    """(mode, seed, samples) from sampled:SEED:N; any other text is passed
    on as the mode name for verify to accept or refuse."""
    mode, _, rest = text.partition(":")
    if mode != "sampled":
        return text, None, None
    try:
        seed, samples = map(int, rest.split(":"))
    except ValueError:
        raise InputError(f"bad sampled mode {text!r}; want sampled:SEED:N") from None
    return mode, seed, samples


def cmd_verify(args) -> int:
    m = _resolve_structure(args.structure)
    checked_int(args.jobs, "--jobs", 1)
    lattice = Lattice(args.lattice)
    mode, seed, samples = _parse_mode(args.mode)
    if args.theorem == "all":
        results = verify_all(
            m, lattice, mode=mode, seed=seed, samples=samples,
            budget=args.budget, jobs=args.jobs,
        )
        _emit({"results": [results[tid].to_dict() for tid in REGISTRY_ORDER]})
        statuses = {v.status for v in results.values()}
        if "counterexample" in statuses:
            return 1
        if "capacity_error" in statuses:
            return 3
        return 0
    verdict = verify(
        m, args.theorem, lattice, mode=mode, seed=seed, samples=samples,
        budget=args.budget,
    )
    _emit(verdict.to_dict())
    return 1 if verdict.status == "counterexample" else 0


def cmd_enumerate(args) -> int:
    tokens = [t for t in args.laws.split(",") if t]
    intra = args.intra_regular or "intra_regular" in tokens
    laws = tuple(t for t in tokens if t != "intra_regular")
    try:
        budget = int(os.environ.get("AGG_BUDGET", DEFAULT_NODE_BUDGET))
    except ValueError:
        raise InputError(f"AGG_BUDGET must be an integer, got {os.environ['AGG_BUDGET']!r}") from None
    spec = SearchSpec(
        order=args.order,
        gamma_count=args.gamma,
        laws=laws,
        iso_mode=args.iso,
        intra_regular=intra,
        budget=budget,
    )
    if args.count:
        _emit(count_models(spec))
        return 0
    out_dir = Path(args.emit)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for m in enumerate_models(spec):
        text = canonical_json(m.to_dict()) + "\n"
        name = hashlib.blake2b(text.encode(), digest_size=8).hexdigest() + ".json"
        (out_dir / name).write_text(text, encoding="utf-8")
        names.append(name)
    _emit(names)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammag",
        description="finite label-indexed groupoid toolkit: law checks, ideals, "
        "lattice-valued subsets, statement verification, model search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="law report plus intra-regularity for a structure")
    p.add_argument("structure", help="structure JSON path or corpus name (ag9, ir5)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ideals", help="enumerate stable subsets of one kind")
    p.add_argument("structure")
    p.add_argument("--kind", choices=IDEAL_KINDS, default="two_sided")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("witness", help="intra-regularity decompositions")
    p.add_argument("structure")
    p.add_argument("--element", help="element label or index; omit for all")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("fuzzy", help="lattice-valued subset operations")
    p.add_argument("op", choices=("product", "classify"))
    p.add_argument("structure")
    p.add_argument("f", help="fuzzy JSON file {den, num}")
    p.add_argument("g", nargs="?", default=None, help="second fuzzy file (product only)")
    p.set_defaults(func=cmd_fuzzy)

    p = sub.add_parser("verify", help="check registered statements on a structure")
    p.add_argument("structure")
    p.add_argument("--theorem", required=True, help="registry id or 'all'")
    p.add_argument("--lattice", type=int, default=1, help="value lattice denominator d")
    p.add_argument("--mode", default="exhaustive", help="exhaustive or sampled:SEED:N")
    p.add_argument("--budget", type=int, default=DEFAULT_TUPLE_BUDGET)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for --theorem all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="search small structures satisfying laws")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--laws", default="left_invertive", help="comma separated law names; "
                   "intra_regular is applied as a completion filter")
    p.add_argument("--iso", choices=ISO_MODES, default=ISO_MODES[0])
    p.add_argument("--intra-regular", action="store_true", dest="intra_regular")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--count", action="store_true")
    group.add_argument("--emit", metavar="DIR")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
