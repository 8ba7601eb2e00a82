import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammag.cli import main
from gammag.core import canonical_json, load_structure
from gammag.crisp import CrispSubset
from gammag.fuzzy import FUZZY_KINDS, FuzzySubset, classify_fuzzy, gamma_product

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# check


def test_check_ir5(capsys):
    code, out, _ = run_json(capsys, "check", "ir5")
    assert code == 0
    assert out["laws"] == {
        "left_invertive": True,
        "medial": True,
        "ag_star_star": True,
        "paramedial": True,
        "commutative": False,
        "associative": False,
        "band": False,
        "has_left_identity": True,
    }
    assert out["left_identity"] == 3
    assert out["intra_regular"] is True
    assert set(out["witnesses"]) == {"commutative", "associative", "band"}


def test_check_ag9(capsys):
    code, out, _ = run_json(capsys, "check", "ag9")
    assert code == 0
    laws = out["laws"]
    assert laws["left_invertive"] and laws["band"] and laws["medial"]
    assert not laws["commutative"] and not laws["associative"]
    assert not laws["ag_star_star"] and not laws["paramedial"]
    assert out["intra_regular"] is True
    w = out["witnesses"]["commutative"]
    assert w["elements"] == [0, 1] and w["gamma"] == ["alpha"]
    assert w["lhs"] == 3 and w["rhs"] == 8


def test_check_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "check", "ir5")
    _, second, _ = run(capsys, "check", "ir5")
    _, by_path, _ = run(capsys, "check", str(REPO_ROOT / "corpus" / "ir5.json"))
    assert first == second == by_path
    assert first.endswith("\n")
    # canonical layout: sorted keys, two-space indent
    assert first == canonical_json(json.loads(first)) + "\n"


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "no/such/file.json")
    assert code == 2 and out == "" and "no such structure" in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)
_LABEL = st.sampled_from(["a", "b"])
_TABLE = _JSON_VALUES | st.lists(st.lists(st.integers(-1, 3) | _JSON_VALUES, max_size=3), max_size=3)
_STRUCTURE_LIKE = st.fixed_dictionaries(
    {
        "order": st.integers(0, 3) | _JSON_VALUES,
        "gamma": st.lists(_LABEL | _JSON_VALUES, max_size=3),
        "tables": st.dictionaries(_LABEL | st.text(max_size=2), _TABLE, max_size=3),
    },
    optional={"labels": _JSON_VALUES},
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        (_JSON_VALUES | _STRUCTURE_LIKE).map(lambda v: json.dumps(v).encode()),
        st.binary(max_size=64),
    )
)
def test_check_malformed_file_exits_0_or_2(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "structure.json"
        path.write_bytes(payload)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", str(path)])
    assert code in (0, 2)


# ---------------------------------------------------------------------------
# ideals and witnesses


def test_ideals_two_sided_frozen(capsys):
    code, out, _ = run_json(capsys, "ideals", "ir5")
    assert code == 0
    assert out == {
        "kind": "two_sided",
        "count": 3,
        "subsets": [[0], [0, 1], [0, 1, 2, 3, 4]],
        "named": [["a"], ["a", "b"], ["a", "b", "c", "d", "e"]],
    }


def test_ideals_kind_flag(capsys, ir5):
    code, out, _ = run_json(capsys, "ideals", "ir5", "--kind", "quasi")
    assert code == 0 and out["kind"] == "quasi"
    from gammag.crisp import enumerate_ideals

    assert out["subsets"] == [s.to_json() for s in enumerate_ideals(ir5, "quasi")]
    with pytest.raises(SystemExit):
        main(["ideals", "ir5", "--kind", "prime"])
    capsys.readouterr()


def test_witness_single_element(capsys):
    code, out, _ = run_json(capsys, "witness", "ir5", "--element", "c")
    assert code == 0
    assert out["element"] == 2
    assert out["witness"]["display"] == "c = (c 1 (c 1 c)) 1 d"


def test_witness_all_elements(capsys):
    code, out, _ = run_json(capsys, "witness", "ir5")
    assert code == 0
    assert out["intra_regular"] is True
    assert len(out["witnesses"]) == 5
    assert all(w is not None for w in out["witnesses"])


def test_witness_missing_decomposition(capsys, m2_file):
    code, out, _ = run_json(capsys, "witness", str(m2_file), "--element", "1")
    assert code == 1
    assert out == {"element": 1, "witness": None}
    code, out, _ = run_json(capsys, "witness", str(m2_file))
    assert code == 1
    assert out["intra_regular"] is False


# ---------------------------------------------------------------------------
# fuzzy operations


@pytest.fixture()
def fuzzy_files(tmp_path):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    f.write_text(json.dumps({"den": 2, "num": [2, 1, 0, 0, 0]}))
    g.write_text(json.dumps({"den": 1, "num": [1, 1, 1, 1, 1]}))
    return str(f), str(g)


def test_fuzzy_product(capsys, ir5, fuzzy_files):
    fp, gp = fuzzy_files
    code, out, _ = run_json(capsys, "fuzzy", "product", "ir5", fp, gp)
    assert code == 0
    f = FuzzySubset((1, "1/2", 0, 0, 0))
    want = gamma_product(ir5, f, FuzzySubset.ones(5)).to_dict()
    assert out == want


def test_fuzzy_classify(capsys, ir5, fuzzy_files):
    fp, _ = fuzzy_files
    code, out, _ = run_json(capsys, "fuzzy", "classify", "ir5", fp)
    assert code == 0
    kinds = classify_fuzzy(ir5, FuzzySubset((1, "1/2", 0, 0, 0)))
    assert out == {"kinds": {k: k in kinds for k in FUZZY_KINDS}}


def test_fuzzy_product_needs_second_file(capsys, fuzzy_files):
    fp, _ = fuzzy_files
    code, _, err = run(capsys, "fuzzy", "product", "ir5", fp)
    assert code == 2 and "second fuzzy file" in err


def test_fuzzy_classify_refuses_second_file(capsys, fuzzy_files):
    code, out, err = run(capsys, "fuzzy", "classify", "ir5", *fuzzy_files)
    assert code == 2 and out == "" and err.startswith("error:")


def test_fuzzy_bad_vector(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"den": 2, "num": [3, 0, 0, 0, 0]}))
    code, _, err = run(capsys, "fuzzy", "classify", "ir5", str(bad))
    assert code == 2 and "numerator" in err
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"den": 1, "num": [1, 0]}))
    code, _, _ = run(capsys, "fuzzy", "classify", "ir5", str(short))
    assert code == 2
    code, _, _ = run(capsys, "fuzzy", "classify", "ir5", str(tmp_path / "none.json"))
    assert code == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    code, _, err = run(capsys, "fuzzy", "classify", "ir5", str(notjson))
    assert code == 2 and "JSON" in err
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"den": 1}'.encode("utf-16-le"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    # past the interpreter's 4,300-digit limit on integer parsing
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"den": ' + "9" * 5001 + ', "num": [1]}')
    for path in (utf16, deep, long_int):
        code, out, err = run(capsys, "fuzzy", "classify", "ir5", str(path))
        assert code == 2 and out == "" and err.startswith("error:")
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == "" and err.startswith("error:")


# ---------------------------------------------------------------------------
# verify


def test_verify_single_holds(capsys):
    code, out, _ = run_json(
        capsys, "verify", "ir5", "--theorem", "grand_equiv", "--lattice", "2"
    )
    assert code == 0
    assert out["status"] == "holds" and out["checked"] == 243
    assert out["mode"] == "exhaustive" and out["lattice"] == 2


def test_verify_counterexample_exit(capsys, m2_file):
    code, out, _ = run_json(capsys, "verify", str(m2_file), "--theorem", "sf")
    assert code == 1
    assert out["status"] == "counterexample"
    assert out["witness"]["lhs"] == "0" and out["witness"]["rhs"] == "1"
    assert out["witness"]["elements"] == [1]


def test_verify_capacity_exit(capsys):
    code, out, err = run(capsys, "verify", "ir5", "--theorem", "trm_ii", "--budget", "100")
    assert (code, out, err) == (3, "", "capacity: exhaustive check needs 1048576 tuples; budget is 100\n")
    # a family row: 165 two-sided ideals at den 8 need 165**3 triple checks
    code, out, err = run(capsys, "verify", "ir5", "--theorem", "semi1", "--lattice", "8")
    assert (code, out, err) == (3, "", "capacity: family of 165 ideals needs 4492125 triple checks; budget is 1000000\n")


@pytest.mark.parametrize("args, message", [
    # a coincide row's walk of the 3**5 lattice subsets
    (("llb", "--lattice", "2", "--budget", "5"), "exhaustive check needs 243 tuples; budget is 5"),
    (("trm_i", "--mode", "sampled:1:400000"), "sampling needs 1200000 draws; budget is 1000000"),
    (("semi1", "--lattice", "3", "--budget", "100"), "family enumeration needs 1024 lattice subsets; budget is 100"),
])
def test_verify_capacity_messages_pinned(capsys, args, message):
    code, out, err = run(capsys, "verify", "ir5", "--theorem", *args)
    assert (code, out, err) == (3, "", f"capacity: {message}\n")


def test_verify_counts_past_the_digit_limit_are_capacity_stops(capsys):
    big = str(10**900)  # (10**900 + 1)**5 lattice subsets
    for tid in ("sf", "semi1"):
        code, out, err = run(capsys, "verify", "ir5", "--theorem", tid, "--lattice", big)
        assert code == 3 and out == "" and err.startswith("capacity:") and "Traceback" not in err
    code, out, err = run_json(capsys, "verify", "ir5", "--theorem", "all", "--lattice", big)
    assert code == 3 and "Traceback" not in err
    details = [r["detail"] for r in out["results"] if r["status"] == "capacity_error"]
    assert details and all(isinstance(d, str) and "at least 2**" in d for d in details)
    code, out, err = run(capsys, "verify", "ir5", "--theorem", "trm_ii", "--mode", "sampled:1:" + "9" * 4300)
    assert code == 3 and out == "" and err.startswith("capacity: sampling needs at least 2**")


def test_verify_all_ir5_den3_decided(capsys):
    # the four pre-filtered pair rows fit at their filtered pools (20*20 tuples)
    code, out, _ = run_json(capsys, "verify", "ir5", "--theorem", "all", "--lattice", "3")
    assert code == 0
    assert {r["status"] for r in out["results"]} == {"holds"}


def test_verify_linear_row_decided_on_singletons(capsys):
    # 3125**3 exhaustive tuples, 5**3 singleton tuples
    code, out, _ = run_json(capsys, "verify", "ir5", "--theorem", "trm_i", "--lattice", "4")
    assert code == 0
    assert out == {"theorem": "trm_i", "status": "holds", "lattice": 4, "mode": "singletons",
                   "checked": 125, "witness": None}


def test_verify_all_ir5_den1_decided(capsys):
    code, out, _ = run_json(capsys, "verify", "ir5", "--theorem", "all", "--lattice", "1")
    assert code == 0
    results = {r["theorem"]: r for r in out["results"]}
    for tid in ("trm_ii", "agss_ii"):
        assert results.pop(tid) == {"theorem": tid, "status": "holds", "lattice": 1, "mode": "singletons",
                                    "checked": 625, "witness": None}
    # the other 25 verdicts, byte for byte as before singleton decisions
    text = canonical_json(list(results.values()))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c5ca70a03abf11b24dfb664274cf292f8e341e55a9a0bc349e260fb86bd13fc3"
    )


def test_verify_budget_flag(capsys, m2_file):
    # lowering the budget forces a capacity stop on a normally fine run
    code, out, err = run(capsys, "verify", "ir5", "--theorem", "trm_i", "--budget", "100")
    assert code == 3 and out == "" and "capacity" in err
    # raising it is plumbed through too; this arity-4 run fits easily
    code, out, _ = run_json(
        capsys, "verify", str(m2_file), "--theorem", "trm_ii", "--budget", "2000000"
    )
    assert code == 0 and out["status"] == "holds" and out["checked"] == 256


def test_verify_nonpositive_budget_is_bad_input(capsys):
    for argv in (("--theorem", "sf", "--budget", "0"), ("--theorem", "all", "--budget", "-1")):
        code, out, err = run(capsys, "verify", "ir5", *argv)
        assert code == 2 and out == "" and "budget" in err and "Traceback" not in err


def test_verify_sampled_mode(capsys):
    code, out, _ = run_json(
        capsys, "verify", "ir5", "--theorem", "trm_ii",
        "--lattice", "4", "--mode", "sampled:11:40",
    )
    assert code == 0
    assert out["status"] == "holds" and out["checked"] == 40
    assert out["seed"] == 11 and out["requested"] == 40
    for bad in ("sampled:x:9", "sampled:5", "random", "sampled:1:0"):
        code, _, err = run(capsys, "verify", "ir5", "--theorem", "sf", "--mode", bad)
        assert code == 2, bad


def test_verify_sampled_mode_with_nothing_checked_is_a_capacity_stop(capsys):
    # no draw passes sf's one-sided pre-filters on ag9 at den 4
    code, out, err = run(
        capsys, "verify", "ag9", "--theorem", "sf", "--lattice", "4", "--mode", "sampled:1:2000"
    )
    assert code == 3 and out == "" and err.startswith("capacity: no sampled draw")


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "ir5", "--theorem", "zzz")
    assert code == 2 and "zzz" in err


def test_verify_bad_lattice(capsys):
    code, _, _ = run(capsys, "verify", "ir5", "--theorem", "sf", "--lattice", "0")
    assert code == 2
    # a sampled draw takes each member from a 256-bit digest
    code, out, err = run(
        capsys, "verify", "ir5", "--theorem", "sf", "--lattice", str(2**256), "--mode", "sampled:1:1"
    )
    assert code == 2 and out == "" and err.startswith("error:") and "Traceback" not in err


def test_verify_all_mixed_statuses_prefer_counterexample(capsys, m2_file):
    code, out, _ = run_json(
        capsys, "verify", str(m2_file), "--theorem", "all", "--budget", "10"
    )
    assert code == 1
    results = out["results"]
    assert len(results) == 27
    statuses = {r["theorem"]: r["status"] for r in results}
    assert statuses["sf"] == "counterexample"
    assert "capacity_error" in statuses.values()


def test_verify_all_capacity_only(capsys):
    # trm_i fits the budget on 9**3 singleton tuples; trm_ii needs 9**4;
    # rl_cap_quasi is charged at its 2*2 pre-filtered tuples
    code, out, _ = run_json(capsys, "verify", "ag9", "--theorem", "all", "--budget", "1000")
    assert code == 3
    statuses = [r["status"] for r in out["results"]]
    assert statuses.count("capacity_error") == 1
    assert "counterexample" not in statuses
    stopped = [r["theorem"] for r in out["results"] if r["status"] == "capacity_error"]
    assert stopped == ["trm_ii"]


def test_verify_all_jobs_flag_same_output(capsys, m2_file):
    _, serial, _ = run(capsys, "verify", str(m2_file), "--theorem", "all")
    _, parallel, _ = run(
        capsys, "verify", str(m2_file), "--theorem", "all", "--jobs", "2"
    )
    assert serial == parallel


def test_verify_rejects_nonpositive_jobs(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "verify", "ir5", "--theorem", "all", "--jobs", jobs)
        assert code == 2 and out == "" and "--jobs" in err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_counts(capsys):
    code, out, _ = run_json(capsys, "enumerate", "--order", "3", "--count")
    assert code == 0 and out == 20
    code, out, _ = run_json(
        capsys, "enumerate", "--order", "3",
        "--laws", "left_invertive,ag_star_star", "--count",
    )
    assert code == 0 and out == 16
    code, out, _ = run_json(
        capsys, "enumerate", "--order", "2", "--gamma", "2",
        "--iso", "elements_and_gamma", "--count",
    )
    assert code == 0 and out == 6
    code, out, _ = run_json(
        capsys, "enumerate", "--order", "3",
        "--laws", "left_invertive,ag_star_star,intra_regular", "--count",
    )
    assert code == 0 and out == 6
    code, out, _ = run_json(
        capsys, "enumerate", "--order", "3",
        "--laws", "left_invertive,ag_star_star", "--intra-regular", "--count",
    )
    assert code == 0 and out == 6


def test_enumerate_emit(capsys, tmp_path):
    out_dir = tmp_path / "models"
    code, names, _ = run_json(
        capsys, "enumerate", "--order", "2", "--emit", str(out_dir)
    )
    assert code == 0 and len(names) == 3
    for name in names:
        path = out_dir / name
        text = path.read_text()
        digest = hashlib.blake2b(text.encode(), digest_size=8).hexdigest()
        assert name == digest + ".json"
        m = load_structure(path)
        assert m.order == 2
    second = tmp_path / "again"
    code, names2, _ = run_json(
        capsys, "enumerate", "--order", "2", "--emit", str(second)
    )
    assert names2 == names


def test_enumerate_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("AGG_BUDGET", "50")
    code, out, err = run(capsys, "enumerate", "--order", "3", "--count")
    assert code == 3 and out == "" and "node budget 50" in err
    # a float spelling is bad input, named in the message
    monkeypatch.setenv("AGG_BUDGET", "6e7")
    code, out, err = run(capsys, "enumerate", "--order", "2", "--count")
    assert code == 2 and out == "" and "AGG_BUDGET" in err


def test_enumerate_rejects_bad_law(capsys):
    code, _, err = run(capsys, "enumerate", "--order", "2", "--laws", "nope", "--count")
    assert code == 2


def test_enumerate_requires_count_or_emit(capsys):
    with pytest.raises(SystemExit):
        main(["enumerate", "--order", "2"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["enumerate", "--order", "2", "--count", "--emit", "x"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# entry points


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_console_script_subprocess():
    # `python -m gammag` runs in any checkout; the console script exists only
    # after `pip install`, so it is run as well wherever it is on PATH. The
    # child imports gammag from this checkout's src/ whatever the cwd is.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    commands = [[sys.executable, "-m", "gammag"]]
    script = shutil.which("gammag")
    if script is not None:
        commands.append([script])
    for command in commands:
        proc = subprocess.run(
            command + ["ideals", "ir5"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        out = json.loads(proc.stdout)
        assert out["count"] == 3

        proc = subprocess.run(
            command + ["check", "no/such/file.json"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2, (command, proc.stderr)
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr


def test_ideals_subsets_are_valid(capsys, ir5):
    code, out, _ = run_json(capsys, "ideals", "ir5", "--kind", "left")
    assert code == 0
    for elems in out["subsets"]:
        CrispSubset.from_elements(5, elems)
