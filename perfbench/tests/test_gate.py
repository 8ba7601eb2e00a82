import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import expected
import workloads

ROOT = Path(__file__).resolve().parents[2]


def ir5(g):
    return g.core.load_structure(ROOT / "corpus" / "ir5.json")


def test_frozen_verdict_passes_and_a_corrupted_one_fails(g):
    d = g.theorems.verify(ir5(g), "llb", g.fuzzy.Lattice(3)).to_dict()
    frozen = expected.CLASSIFY_VERIFY_IR5_DEN3["llb"]
    assert workloads.check_verdict(d, frozen) == (0, None)
    d["checked"] -= 1
    assert workloads.check_verdict(d, frozen)[1] is not None


def test_capacity_stop_may_become_holds_but_nothing_else():
    frozen = expected.VERIFY_ALL_IR5_DEN1["trm_ii"]
    decided = {"theorem": "trm_ii", "status": "holds", "witness": None, "checked": 1048576}
    assert workloads.check_verdict(decided, frozen) == (0, None)
    refuted = dict(decided, status="counterexample", witness={"clause": "x"})
    assert workloads.check_verdict(refuted, frozen)[1] is not None


def test_verify_all_gate_rejects_unparsable_and_reordered_output():
    frozen = expected.VERIFY_ALL_IR5_DEN1
    assert workloads.check_verify_all((3, "not json"), frozen).mismatches
    reordered = {"results": [{"theorem": tid} for tid in reversed(list(frozen))]}
    text = json.dumps(reordered, sort_keys=True, indent=2) + "\n"
    tally = workloads.check_verify_all((3, text), frozen)
    assert tally.mismatches and tally.attempted == len(frozen)


def test_cli_output_gate(g):
    plan = workloads.plan_enumerate(g, seed=0)
    outputs = [want for want in expected.ENUMERATE_CLI.values()]
    outputs.append(workloads.order5_prefix(g, expected.ORDER5_BUDGET))
    tally = plan.check(outputs)
    assert tally.mismatches == [] and tally.undecided == 1 and tally.attempted == 4
    outputs[1] = (0, "330\n")
    assert len(plan.check(outputs).mismatches) == 1
    # a changed model inside the frozen prefix is caught by the digest
    models, stopped = outputs[-1]
    swapped = models[:]
    swapped[5], swapped[6] = swapped[6], swapped[5]
    assert workloads.check_order5((swapped, stopped))[1] is not None
    assert workloads.check_order5((models[:-1], stopped))[1] is not None


def test_sampled_gate_rejects_a_short_checked_count(g):
    plan = workloads.plan_sampled_models(g, seed=3)
    assert plan.setup_mismatches == []
    outputs = [fn() for _, fn in plan.ops[:2]]
    assert plan.check(outputs).mismatches == []
    outputs[1] = dataclasses.replace(outputs[1], checked=outputs[1].checked - 1)
    assert len(plan.check(outputs).mismatches) == 1


def test_classify_fuzzy_gate_uses_the_level_cut_identity(g):
    m = ir5(g)
    f = g.fuzzy.FuzzySubset((1, g.fuzzy.Fraction(1, 2), 0, 0, 0))
    got = g.fuzzy.classify_fuzzy(m, f)
    assert workloads.check_classify_fuzzy(g, m, f, got) is None
    wrong = set(got) ^ {"quasi"}
    assert workloads.check_classify_fuzzy(g, m, f, wrong) is not None


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_matches_the_code():
    from spans import per_layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = per_layer_metrics({}, {}, 1, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(workloads.WHY.items())
    assert list(workloads.WHY) == list(workloads.PLANS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "decided_frac", "peak_rss_mb"}
