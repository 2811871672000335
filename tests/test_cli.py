import hashlib
import json
from collections import Counter
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chaincodes
from chaincodes.cli import CONSTRUCTION_KINDS, MAX_M, MAX_N, _check_caps, build_construction, main
from chaincodes.code import CyclicCode
from chaincodes.constructions import ConstructionResult
from chaincodes.ring import RingSpec
from chaincodes.ringpoly import RPoly
from chaincodes.serialize import code_from_json, code_to_json

Z9 = RingSpec(3, 2)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_factor_z9_n11(capsys):
    rc, out, _ = run(capsys, "factor", "--p", "3", "--e", "2", "--n", "11", "--json")
    assert rc == 0
    doc = json.loads(out)
    lifted = {tuple(f["lifted"]) for f in doc["factors"]}
    assert (8, 2, 1, 8, 3, 1) in lifted
    assert (8, 6, 1, 8, 7, 1) in lifted
    assert (8, 1) in lifted


def test_factor_with_an_unproven_unit_group_piece_exits_2(capsys):
    # ord_179(2) = 178 and the prime 2^89 - 1 divides 2^178 - 1; it lies above
    # the range where is_prime is exact, so only bounded trial division is
    # left, and it must end with an error rather than run for hours
    start = time.perf_counter()
    rc, out, err = run(capsys, "factor", "--p", "2", "--e", "2", "--n", "179")
    assert rc == 2
    assert out == ""
    assert "(p, s) = (2, 178)" in err and str(2**89 - 1) in err
    assert time.perf_counter() - start < 30


def test_duadic_with_too_many_splitting_masks_exits_2_at_once(capsys):
    # 107 = 1 mod 53, so the 52 nonzero cosets are singletons; the witnesses' cycles give
    # 67,125,344 masks, so the search refuses before it lists any
    start = time.perf_counter()
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "construct", "duadic", "--p", "107", "--e", "2", "--m", "53")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert out == ""
    assert "would list 67125344 coset masks" in err
    assert time.perf_counter() - start < 1
    assert peak < 1 << 20, peak


def test_factor_z4_n31(capsys):
    rc, out, _ = run(capsys, "factor", "--p", "2", "--e", "2", "--n", "31", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["factors"]) == 7


def test_factor_rejects_shared_prime(capsys):
    rc, _, err = run(capsys, "factor", "--p", "3", "--e", "2", "--n", "3")
    assert rc == 2
    assert "divides" in err


def test_factor_rejects_zero_length(capsys):
    # 0 is divisible by every p, so the length check must come first
    rc, _, err = run(capsys, "factor", "--p", "3", "--e", "2", "--n", "0")
    assert rc == 2
    assert "length must be positive, got 0" in err


def test_factor_rejects_composite_p(capsys):
    rc, _, err = run(capsys, "factor", "--p", "6", "--e", "1", "--n", "5")
    assert rc == 2


def test_construct_thm42_verify(capsys):
    rc, out, _ = run(
        capsys,
        "construct", "thm42", "--p", "3", "--e", "2", "--m", "5", "--a", "1",
        "--verify", "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["codes"]) == 2
    for item in doc["codes"]:
        assert item["verified"]["claims"]["isodual"] is True
        assert item["verified"]["weight"] == 4
        assert "certificate" in item["verified"]
    produced = {tuple(item["code"]["F"][0]["coeffs"]) for item in doc["codes"]}
    assert (8, 2, 7, 2, 7, 1) in produced
    assert (1, 2, 2, 2, 2, 1) in produced


def test_construct_duadic_verify(capsys):
    rc, out, _ = run(
        capsys,
        "construct", "duadic", "--p", "3", "--e", "2", "--m", "11", "--verify", "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    by_label = {item["label"]: item for item in doc["codes"]}
    assert by_label["E_1"]["verified"]["claims"]["self_dual"] is True
    assert by_label["E_2"]["verified"]["claims"]["self_dual"] is True


def test_construct_duadic_certificate_from_a_splitting_witness(capsys):
    # no negation-and-scaling map carries E_i onto its dual; the unit 3 does
    rc, out, _ = run(
        capsys,
        "construct", "duadic", "--p", "13", "--e", "2", "--m", "17",
        "--verify", "--budget", "0", "--json",
    )
    assert rc == 0
    certificates = {
        item["label"]: item["verified"].get("certificate") for item in json.loads(out)["codes"]
    }
    expected = {"a": 3, "lam": 1, "via": "multiplier_search"}
    assert certificates == {
        "C'_1": None, "C'_2": None, "D'_1": None, "D'_2": None,
        "E_1": expected, "E_2": expected,
    }


def test_construct_thm510_z25(capsys):
    rc, out, _ = run(
        capsys,
        "construct", "thm510", "--p", "5", "--e", "2", "--m", "11", "--a", "1", "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["codes"]) == 8
    for item in doc["codes"]:
        code = code_from_json(item["code"])
        assert code.n == 22


def test_construct_no_splitting(capsys):
    rc, _, err = run(capsys, "construct", "duadic", "--p", "3", "--e", "2", "--m", "5")
    assert rc == 2
    assert "no splitting" in err


def test_construct_thm44_explicit_generators(capsys):
    rc, out, _ = run(
        capsys,
        "construct", "thm44", "--p", "3", "--e", "2", "--m", "11", "--a", "1",
        "--g1", "x^5 + 3x^4 + 8x^3 + x^2 + 2x + 8",
        "--g2", "x^5 + 7x^4 + 8x^3 + x^2 + 6x + 8",
        "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["codes"]) == 4


def test_construct_out_file(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    rc, _, _ = run(
        capsys,
        "construct", "thm42", "--p", "3", "--e", "2", "--m", "5", "--out", str(out_file),
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "thm42"


def length10_code_file(tmp_path):
    code = CyclicCode.from_generator(RPoly(Z9, (8, 2, 7, 2, 7, 1)), 10)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_json(code)))
    return path


def test_weight_both_strategies(tmp_path, capsys):
    path = length10_code_file(tmp_path)
    rc, out, _ = run(capsys, "weight", str(path), "--strategy", "both", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["weight"] == 4
    assert doc["strategy"] == "both"


def test_weight_zero_code_rejected(tmp_path, capsys):
    code = CyclicCode.zero(Z9, 4)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(code_to_json(code)))
    rc, _, err = run(capsys, "weight", str(path))
    assert rc == 2


def test_weight_code_file_with_a_huge_exponent_is_bounded(tmp_path):
    # 3^(10^9) alone would take hours; the ring check never computes it
    doc = code_to_json(CyclicCode.zero(Z9, 4))
    doc["ring"]["e"] = 10**9
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc, elapsed = _run_bounded(10, "weight", str(path))
    assert proc.returncode == 2
    assert "64-bit range" in proc.stderr
    assert elapsed < 10


def test_weight_budget_exceeded(tmp_path, capsys):
    path = length10_code_file(tmp_path)
    rc, out, _ = run(capsys, "weight", str(path), "--budget", "100", "--strategy", "direct", "--json")
    assert rc == 4
    doc = json.loads(out)
    assert doc["status"] == "budget_exceeded"
    assert doc["weight"] is None
    assert doc["upper_bound"] >= 4


def test_weight_budget_exceeded_counts_whole_blocks(tmp_path, capsys):
    # direct enumeration checks its budget after each block of 65536 words,
    # so an overrun reports every word of the block it ends in
    result = build_construction("duadic", Z9, 11, 1)
    codes = {entry.label: entry.code for entry in result.codes}
    path = tmp_path / "code.json"
    for label in ("D'_1", "E_1"):
        path.write_text(json.dumps(code_to_json(codes[label])))
        for budget, enumerated in ((100, 65536), (70000, 131072)):
            rc, out, _ = run(
                capsys, "weight", str(path), "--strategy", "direct", "--budget", str(budget), "--json"
            )
            assert rc == 4
            assert json.loads(out) == {
                "enumerated": enumerated,
                "lower_bound": 1,  # direct enumeration proves no lower bound
                "status": "budget_exceeded",
                "upper_bound": 5,
                "weight": None,
            }, (label, budget)


def test_weight_rejects_a_family_that_does_not_multiply_to_x_n_minus_1(tmp_path, capsys):
    # (x + 1)(x + 1) has the degrees of x^2 - 1 but not its product; a code
    # read from a file always gets the full check
    doc = code_to_json(CyclicCode.from_generator(RPoly(Z9, (8, 1)), 2))
    doc["F"][0]["coeffs"] = [1, 1]
    with pytest.raises(ValueError, match=r"family product is not x\^n - 1"):
        code_from_json(doc)
    path = tmp_path / "bad_family.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "weight", str(path))
    assert rc == 2
    assert "family product is not x^n - 1" in err


@pytest.mark.parametrize("corrupt, message", [
    (lambda doc: doc.update(n=0), "length must be positive, got 0"),
    (lambda doc: doc.update(n=3), "p = 3 divides the length 3"),
    (lambda doc: doc["F"].pop(), "family must have 3 entries, got 2"),
    (lambda doc: doc["F"][2].update(ring={"p": 5, "e": 2}), "Z_25 vs Z_9"),
    (lambda doc: doc["F"][0].update(coeffs=[8, 2]), "family member 2x + 8 is not monic"),
], ids=["empty_length", "p_divides_length", "family_size", "foreign_ring", "non_monic"])
def test_weight_rejects_each_malformed_family(tmp_path, capsys, corrupt, message):
    # the checks every code passes before its product, on a code read from a file
    doc = code_to_json(CyclicCode.from_generator(RPoly(Z9, (8, 1)), 2))
    corrupt(doc)
    path = tmp_path / "bad_family.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "weight", str(path))
    assert rc == 2
    assert f"error: bad cyclic code payload: {message}" in err


def test_weight_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"ring\": {\"p\": 3}}")
    rc, _, err = run(capsys, "weight", str(path))
    assert rc == 2


def test_search_sweep_and_idempotence(tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    args = ["search", "--p", "3", "--e", "2", "--m-max", "5", "--a", "1",
            "--out", str(out_file)]
    rc, _, _ = run(capsys, *args)
    assert rc == 0
    first = out_file.read_bytes()
    rows = [json.loads(line) for line in first.decode().splitlines()]
    assert len(rows) == 6  # thm42 pair + remark46 for m in {1, 5}
    keys = [row["key"] for row in rows]
    assert keys == sorted(keys)
    weights = {row["key"]: row["verified"]["weight"] for row in rows}
    assert weights["p3e2|m5|a1|thm42|G_1"] == 4

    rc, _, _ = run(capsys, *args)
    assert rc == 0
    assert out_file.read_bytes() == first


def test_search_includes_reference_rows(tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    rc, _, _ = run(
        capsys,
        "search", "--p", "3", "--e", "2", "--m-max", "11", "--a", "1",
        "--budget", "1000000", "--out", str(out_file),
    )
    assert rc == 0
    rows = {row["key"]: row for line in out_file.read_text().splitlines()
            for row in [json.loads(line)]}
    # reference rows at length 10 and length 22
    assert rows["p3e2|m5|a1|thm42|G_1"]["verified"]["weight"] == 4
    assert rows["p3e2|m11|a1|thm44|C_12"]["verified"]["weight"] == 7
    assert rows["p3e2|m11|a-|duadic|E_1"]["verified"]["claims"]["self_dual"] is True


def test_construct_verify_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a claimed property that does not check out must exit 3
    import chaincodes.cli as cli_mod
    from chaincodes.constructions import ConstructedCode, ConstructionResult

    def tampered(kind, spec, m, a, splitting_index=0, g1_text=None, g2_text=None):
        code = CyclicCode.whole_space(Z9, 5)  # certainly not self-dual
        return ConstructionResult(
            kind=kind,
            params={"ring": {"p": 3, "e": 2}, "m": m, "a": a, "n": 5},
            codes=[ConstructedCode("G", code, ("self_dual",))],
        )

    monkeypatch.setattr(cli_mod, "build_construction", tampered)
    rc, _, err = run(capsys, "construct", "thm42", "--p", "3", "--e", "2",
                     "--m", "5", "--verify")
    assert rc == 3
    assert "verification failed" in err


@pytest.mark.parametrize("bad", [
    '{"label": "G_1"}', "[1]", '{"key": [1]}', '{"key": "k"}', '{"key": "k", "verified": {}}',
])
def test_search_rejects_an_out_file_line_that_is_not_a_record(tmp_path, capsys, bad):
    # a line that is not an object, or a record without a string "key" or
    # the verified claims the summary reads, is invalid input: exit 2 naming
    # the line, and the file is left as it was
    out_file = tmp_path / "records.jsonl"
    args = ["search", "--p", "3", "--e", "2", "--m-max", "3", "--out", str(out_file)]
    rc, _, _ = run(capsys, *args)
    assert rc == 0
    text = out_file.read_text() + bad + "\n"
    out_file.write_text(text)
    line = len(text.splitlines())
    rc, _, err = run(capsys, *args)
    assert rc == 2
    assert f"line {line} " in err
    assert out_file.read_text() == text


def test_search_lists_the_splittings_of_each_m_and_p_once(tmp_path, capsys, monkeypatch):
    # thm44, thm510 and duadic share one pick per (m, p) over every e, and a
    # pair with no splitting mod m keeps its error message for the next job
    import chaincodes.cli as cli_mod

    listed = []
    real = cli_mod.find_splittings
    monkeypatch.setattr(cli_mod, "find_splittings", lambda m, q: listed.append((m, q)) or real(m, q))
    cli_mod._pick_splitting.cache_clear()
    rc, _, err = run(capsys, "search", "--p", "13", "--e", "1,2,3", "--m-max", "17", "--a", "1",
                     "--budget", "0", "--out", str(tmp_path / "records.jsonl"))
    cli_mod._pick_splitting.cache_clear()
    assert rc == 0
    assert {(m, q) for m, q in listed if real(m, q)} == {(3, 13), (9, 13), (17, 13)}
    assert Counter(listed) == {(m, 13): 1 for m in (1, 3, 5, 7, 9, 11, 15, 17)}
    # each of the 3 kinds at each of the 3 e still reports the refusal
    assert err.count("no splitting exists mod 5 for q = 13\n") == 9


def test_search_empty_range(tmp_path, capsys):
    out_file = tmp_path / "empty.jsonl"
    rc, _, _ = run(capsys, "search", "--p", "3", "--e", "2", "--m-max", "0",
                   "--out", str(out_file))
    assert rc == 0
    assert out_file.read_text() == ""


@pytest.mark.parametrize("argv, message", [
    (["construct", "thm42", "--p", "3", "--e", "2", "--m", str(MAX_M + 1)], "cap MAX_M"),
    (["search", "--p", "3", "--e", "2", "--m-max", str(MAX_M + 1)], "cap MAX_M"),
    (["construct", "thm42", "--p", "2", "--e", "63", "--m", "5"], "cap MAX_RING_SIZE"),
    (["search", "--p", "3,2", "--e", "2,63", "--m-max", "5"], "cap MAX_RING_SIZE"),
    # p^e is never computed past the cap: 3^(10^9) alone would take seconds
    (["construct", "thm42", "--p", "3", "--e", str(10**9), "--m", "5"], "cap MAX_RING_SIZE"),
    # the length 2^a * m: 4 * 501 is the first length past MAX_N = 2000 with
    # a >= 2, and 2^a is never formed for a huge a
    (["construct", "thm42", "--p", "17", "--e", "2", "--m", "501", "--a", "2"], "cap MAX_N"),
    (["construct", "thm510", "--p", "17", "--e", "2", "--m", "5", "--a", str(10**9)], "cap MAX_N"),
    (["search", "--p", "17", "--e", "2", "--m-max", "501", "--a", "1,2"], "cap MAX_N"),
    (["search", "--p", "17", "--e", "2", "--m-max", "9", "--a", f"1,{10**9}"], "cap MAX_N"),
])
def test_sizes_past_a_cap_exit_2_before_any_work(tmp_path, capsys, argv, message):
    out_file = tmp_path / "never.jsonl"
    if argv[0] == "search":
        argv = [*argv, "--out", str(out_file)]
    start = time.monotonic()
    rc, _, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert rc == 2
    assert message in err
    assert not out_file.exists()


def test_length_cap_keeps_every_a_1_length():
    assert MAX_N == 2 * MAX_M
    _check_caps(MAX_M, [(17, 2)], 1)
    _check_caps(125, [(17, 2)], 4)  # 2^4 * 125 = MAX_N
    _check_caps(5, [(17, 2)], -(10**9))  # a < 1 is the construction's to reject
    with pytest.raises(ValueError, match="cap MAX_N"):
        _check_caps(127, [(17, 2)], 4)


def test_construct_thm510_rejects_a_below_1(capsys):
    rc, _, err = run(capsys, "construct", "thm510", "--p", "13", "--e", "2",
                     "--m", "17", "--a", "0")
    assert rc == 2
    assert "a must be >= 1" in err


def test_search_with_a_0_keeps_the_duadic_records(tmp_path, capsys):
    out_file = tmp_path / "a0.jsonl"
    rc, _, err = run(capsys, "search", "--p", "13", "--e", "2", "--m-max", "17",
                     "--a", "0", "--out", str(out_file))
    assert rc == 0
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert rows and {row["kind"] for row in rows} == {"duadic"}
    points = [m for m in range(1, 18, 2) if m != 13]
    for kind in ("thm42", "remark46", "thm44", "thm510"):
        skips = [line.split(":")[0] for line in err.splitlines()
                 if line.startswith(f"skip {kind} ")]
        assert skips == [f"skip {kind} p=13 e=2 m={m} a=0" for m in points]


@settings(max_examples=400)
@given(
    p=st.sampled_from([2, 3, 5, 13, 17]),
    e=st.integers(1, 3),
    m=st.integers(-1, 15),
    a=st.integers(-2, 3),
    index=st.integers(-1, 2),
)
def test_every_kind_builds_or_raises_an_input_error(p, e, m, a, index):
    # main turns ValueError and ArithmeticError into exit 2 and search skips
    # the job; anything else is a traceback.  400 examples of five kinds run
    # in about 1 s.
    for kind in CONSTRUCTION_KINDS:
        try:
            result = build_construction(kind, RingSpec(p, e), m, a, index)
        except (ValueError, ArithmeticError):
            continue
        assert isinstance(result, ConstructionResult)


def _run_bounded(seconds, *argv):
    """Run the CLI in a fresh interpreter (cold caches) within a wall-clock bound."""
    env = {**os.environ, "PYTHONPATH": str(Path(chaincodes.__file__).resolve().parents[1])}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "chaincodes", *argv],
        env=env, capture_output=True, text=True, timeout=seconds,
    )
    return proc, time.monotonic() - start


@pytest.mark.parametrize("p, n", [(2, 83), (3, 79)])
def test_factor_high_order_length_is_bounded(p, n):
    # ord_n(p) is 82 and 78.  Plain trial division of 2^82 - 1 runs past 20 s
    # (its two largest primes are near 1e8 and 1e10), and 3^78 - 1 has twelve
    # primes, once each one exponentiation in F_{3^78} per generator candidate.
    proc, elapsed = _run_bounded(10, "factor", "--p", str(p), "--e", "2", "--n", str(n), "--json")
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10
    doc = json.loads(proc.stdout)
    assert sum(len(f["lifted"]) - 1 for f in doc["factors"]) == n


@pytest.mark.parametrize("p, n", [(2, 4099), (3, 100003), (3, MAX_N + 1)])
def test_factor_refuses_a_length_above_max_n(p, n):
    # 4099 and 100003 ran past 20 s with no output
    proc, elapsed = _run_bounded(10, "factor", "--p", str(p), "--e", "1", "--n", str(n))
    assert proc.returncode == 2
    assert "cap MAX_N" in proc.stderr
    assert elapsed < 10


def test_factor_with_a_unit_group_prime_above_2_63_is_bounded():
    # ord_97(5) = 96 and Phi_96(5) = 97 x 240031591394168814433: is_prime
    # proves that prime at once, where trial division ran for 50 s
    proc, elapsed = _run_bounded(15, "factor", "--p", "5", "--e", "2", "--n", "97", "--json")
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 15
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "cfaa6840889af825862f81e5029dc32bab3ba11957c4313c26aaa7ec4a75d547"


def test_construct_large_ring_verify_is_bounded():
    # the certificates scale by the n-th roots of unity of Z_{1009^3}; a scan
    # of all 1.03e9 residues ran past 20 s
    proc, elapsed = _run_bounded(5, "construct", "thm42", "--p", "1009", "--e", "3", "--m", "5", "--verify")
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 5


def test_construct_with_a_large_prime_is_bounded():
    # -1 = p^2 - 1 is the only primitive square root of unity mod p^2; a scan
    # of 2..p - 1 for it, one Newton lift per candidate, ran past 60 s, and
    # so did a test of every lam in 1..p - 1 in the weight engine
    p = 1000000007
    proc, elapsed = _run_bounded(
        10, "construct", "thm42", "--p", str(p), "--e", "2", "--m", "3", "--a", "1",
        "--verify", "--json",
    )
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10
    doc = json.loads(proc.stdout)
    assert doc["params"]["alpha"] == p * p - 1 == 1000000014000000048
    for entry in doc["codes"]:
        assert entry["verified"]["certificate"] == {"a": 1, "lam": p * p - 1}
        assert entry["verified"]["weight"] == 4


def test_construct_thm44_rejects_high_degree_text():
    # g1 and g2 divide x^m - 1, so a term of degree m or more is invalid input;
    # the parser used to build a coefficient list as long as the degree
    proc, elapsed = _run_bounded(
        10, "construct", "thm44", "--p", "5", "--e", "2", "--m", "11",
        "--g1", "x^1000000000000", "--g2", "x+1",
    )
    assert proc.returncode == 2, proc.stderr
    assert "degree above 10" in proc.stderr
    assert elapsed < 10


def test_search_sweep_golden_digest(tmp_path):
    # the canonical 768-record sweep, in a fresh interpreter; its records
    # are pinned byte for byte, 104 of them with a weight the budget leaves open
    out = tmp_path / "sweep.jsonl"
    proc, _ = _run_bounded(
        120, "search", "--p", "3,5,13", "--e", "2,3", "--m-max", "25", "--a", "1,2",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    data = out.read_bytes()
    rows = [json.loads(line) for line in data.splitlines()]
    assert len(rows) == 768
    assert sum(row["verified"]["weight"] is None for row in rows) == 104
    digest = hashlib.sha256(data).hexdigest()
    assert digest == "bacf4bc7d8bef410469848ecd9ce877b005f337cd33fc3b3e6428b2b36b309e3"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("factor", "--p", "3", "--e", "2", "--n", "11"),
         "ae37a7aebb86b4eaadf14f5a7293d5de38e95d370d6ff4fd58109f4521296ad8"),
        (("construct", "duadic", "--p", "3", "--e", "2", "--m", "11", "--verify"),
         "effbc307197a5ff2ad0b0d5f4e5d426fb721a8af953e76b738861d7393c9af52"),
        (("construct", "thm510", "--p", "5", "--e", "2", "--m", "11", "--a", "1", "--verify"),
         "8360b7a6e7030a07a10c43a6941a498687c445a49556a3d49b64804b25dcb7c6"),
        (("weight", "CODE"), "506bdb02e9e2a4f152108c0ea527ef54aecb8f3f137981d06174f3a1adbbe687"),
        (("weight", "CODE", "--strategy", "both"),
         "8e96687a17c64f86e03c3a09d045b806833e076799ccfaf8d03b9220f3732948"),
    ],
)
def test_text_output_golden_digest(tmp_path, capsys, argv, digest):
    # the text (not --json) output byte for byte: factor's polynomials,
    # construct's generators, families, certificates and "dual is" lines,
    # and weight's summary line for the code <x^5 + 7x^4 + 8x^3 + x^2 + 6x + 8>
    path = tmp_path / "code.json"
    code = CyclicCode.from_generator(RPoly(Z9, (8, 6, 1, 8, 7, 1)), 11)
    path.write_text(json.dumps(code_to_json(code)))
    rc, out, _ = run(capsys, *(str(path) if arg == "CODE" else arg for arg in argv))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
