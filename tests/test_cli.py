import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ydweyl import cli, groupdata, nichols, weylgraph, ydcat
from ydweyl.cli import main
from ydweyl.errors import ValidationError, YDWeylError
from conftest import tower_session

SESSION = os.path.join(os.path.dirname(__file__), "..", "sessions", "z2cubed.json")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _assert_benchmark_output(golden_file, workload):
    """A gated benchmark workload's expected output is its golden file."""
    with open(os.path.join(GOLDEN, golden_file)) as fh:
        golden = fh.read()
    with open(os.path.join(os.path.dirname(SESSION), "..", "perfbench",
                           "expected", f"{workload}.txt")) as fh:
        assert fh.read() == golden


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:    # argparse rejects flags this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "--session", SESSION, "validate")
    assert code == 0
    assert "all checks passed" in out
    assert "pentagon over 4096 quadruples: pass" in out


def test_nichols_table(capsys):
    code, out, _ = run(capsys, "--session", SESSION, "nichols", "W1",
                       "--max-degree", "3")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:6]]
    assert [r[1] for r in rows] == ["1", "2", "1", "0"]


def test_nichols_json(capsys):
    code, out, _ = run(capsys, "--session", SESSION, "nichols", "W12",
                       "--max-degree", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1, 4, 8]
    assert payload["multidegree_dims"]["1 1"] == 6


def test_cartan_output(capsys):
    code, out, _ = run(capsys, "--session", SESSION, "cartan", "W")
    assert code == 0
    assert out.splitlines()[1:] == ["  [ 2, -1, -1]",
                                    "  [-1,  2, -1]",
                                    "  [-1, -1,  2]"]


def test_ad_output(capsys):
    code, out, _ = run(capsys, "--session", SESSION, "ad", "W", "1", "2")
    assert code == 0
    assert "level 0: dim 2" in out
    assert "level 1: dim 2" in out
    assert "m = 1" in out


def test_certify_w(capsys):
    code, out, _ = run(capsys, "--session", SESSION, "certify", "W")
    assert code == 0
    assert out.splitlines()[0] == "verdict: infinite-dimensional"
    assert "standard: yes" in out


def test_certify_pair_no_conclusion(capsys):
    code, out, _ = run(capsys, "--session", SESSION, "certify", "W12")
    assert code == 0
    assert "no conclusion" in out
    assert "Cartan type: A2" in out


def test_roots_pair(capsys):
    code, out, _ = run(capsys, "--session", SESSION, "roots", "W12")
    assert code == 0
    assert out.count("6 roots") == 6
    assert "finiteness: finite" in out


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "--session", SESSION, "graph", "W12")
    assert code == 0
    assert out.startswith("graph semicartan {")
    assert "// axioms: pass" in out


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "--session", SESSION, "certify", "W")
    _, out2, _ = run(capsys, "--session", SESSION, "certify", "W")
    assert out1 == out2
    _, dot1, _ = run(capsys, "--session", SESSION, "graph", "W")
    _, dot2, _ = run(capsys, "--session", SESSION, "graph", "W")
    assert dot1 == dot2


def test_reflect_emission_reingests(capsys, tmp_path):
    code, out, _ = run(capsys, "--session", SESSION, "reflect", "W", "1")
    assert code == 0
    stanzas = json.loads(out)["modules"]
    with open(SESSION) as fh:
        session_data = json.load(fh)
    session_data["modules"].update(stanzas)
    names = sorted(stanzas)
    session_data["tuples"]["RW"] = names
    path = tmp_path / "session.json"
    path.write_text(json.dumps(session_data))
    code, out, _ = run(capsys, "--session", str(path), "validate")
    assert code == 0
    code, out, _ = run(capsys, "--session", str(path), "cartan", "RW")
    assert code == 0
    assert "[ 2, -1, -1]" in out


def test_golden_match(capsys):
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "certify", "W")
    assert code == 0
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "cartan", "W")
    assert code == 0
    # The finite-type branch of certify: W12 has Cartan type A2.
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "certify", "W12")
    assert code == 0
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "nichols", "W1", "--max-degree", "3")
    assert code == 0
    # The three 192-word blocks of multidegree (2,1,1) and its permutations;
    # also the nichols-W4 benchmark workload.
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "nichols", "W", "--max-degree", "4")
    assert code == 0
    _assert_benchmark_output("nichols_W_4.txt", "nichols-W4")
    # The 5,760-word block (2, 2, 2) eliminates a 461 x 468 M over its
    # 468 candidate words.
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "nichols", "W", "--max-degree", "6")
    assert code == 0
    # Block (1, 3, 3) has 17,920 words and block (2, 2, 3) the most
    # candidates, 760.
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "nichols", "W", "--max-degree", "7")
    assert code == 0
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "roots", "W12")
    assert code == 0
    # The gated roots-W20 workload: graph closure and root closure over the
    # 24 vertices of W.
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "roots", "W", "--bound", "20")
    assert code == 0
    _assert_benchmark_output("roots_W_20.txt", "roots-W20")
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "graph", "W12")
    assert code == 0
    # Slot 2 acts on the lower slot 1: the pair is computed with slot 1
    # first, as in B(W12), so the reflected matrices keep their basis.
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "reflect", "W12", "2")
    assert code == 0
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "ad", "W", "1", "2")
    assert code == 0
    # reflect prints every action matrix of R_1(W), the ad levels' included:
    # the matrices the generators' actions are extended to.
    code, _, _ = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                     "reflect", "W", "1")
    assert code == 0
    # The other two shipped sessions: the twisted line L acts by zeta(9)
    # (exact conductor-9 arithmetic), and V closes a 96-vertex graph.
    sessions = os.path.dirname(SESSION)
    code, _, _ = run(capsys, "--session",
                     os.path.join(sessions, "z3twisted.json"),
                     "--golden", GOLDEN, "nichols", "L", "--max-degree", "10")
    assert code == 0
    v_session = os.path.join(sessions, "z2z2z4.json")
    code, _, _ = run(capsys, "--session", v_session,
                     "--golden", GOLDEN, "certify", "V")
    assert code == 0
    # The root closure over V's 96 vertices, which are one class.
    code, _, _ = run(capsys, "--session", v_session,
                     "--golden", GOLDEN, "roots", "V", "--bound", "50")
    assert code == 0
    # Over Z2 x Z2 x Z4 three generators act on each ad level and the other
    # matrices are derived.
    code, _, _ = run(capsys, "--session", v_session,
                     "--golden", GOLDEN, "reflect", "V", "1")
    assert code == 0
    code, _, _ = run(capsys, "--session", v_session,
                     "--golden", GOLDEN, "ad", "V", "1", "2")
    assert code == 0
    # certify V is also the certify-V benchmark workload.
    _assert_benchmark_output("certify_V.txt", "certify-V")


def test_json_golden_has_its_own_file(capsys, tmp_path):
    # The text and --json emissions of one command are two golden files.
    argv = ["nichols", "W1", "--max-degree", "3"]
    for extra in ([], ["--json"]):
        code, _, _ = run(capsys, "--session", SESSION, "--golden-write",
                         str(tmp_path), *argv, *extra)
        assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "nichols_W1_3.txt", "nichols_W1_3_json.txt"]
    for extra in ([], ["--json"]):
        code, _, err = run(capsys, "--session", SESSION, "--golden", GOLDEN,
                           *argv, *extra)
        assert (code, err) == (0, "")


def test_golden_mismatch_and_missing(capsys, tmp_path):
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "cartan_W.txt").write_text("corrupted\n")
    code, _, err = run(capsys, "--session", SESSION, "--golden", str(golden),
                       "cartan", "W")
    assert code == 1 and "mismatch" in err
    code, _, err = run(capsys, "--session", SESSION, "--golden", str(golden),
                       "certify", "W")
    assert code == 1 and "missing" in err


def test_cyclotomic_table_session(capsys):
    # A zeta-valued cocycle table and a zeta(9)-acting module stanza must
    # round-trip through the session format.
    session = os.path.join(os.path.dirname(__file__), "..", "sessions",
                           "z3twisted.json")
    code, out, _ = run(capsys, "--session", session, "validate")
    assert code == 0
    assert "pentagon over 81 quadruples: pass" in out
    code, out, _ = run(capsys, "--session", session, "nichols", "L",
                       "--max-degree", "10", "--json")
    assert code == 0
    assert json.loads(out)["dims"] == [1] * 9 + [0, 0]


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "--session", str(bad), "validate")
    assert code == 2 and "JSON" in err
    missing = tmp_path / "missing_tuple.json"
    with open(SESSION) as fh:
        data = json.load(fh)
    data["tuples"]["T"] = ["nope"]
    missing.write_text(json.dumps(data))
    code, _, err = run(capsys, "--session", str(missing), "validate")
    assert code == 2 and "unknown module" in err
    with open(SESSION) as fh:
        data = json.load(fh)
    data["modules"]["M"] = {"degrees": [1, 2], "action": {"0": [["1", "0"]]}}
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps(data))
    code, _, err = run(capsys, "--session", str(ragged), "validate")
    assert code == 2 and "malformed module stanza" in err


def test_exit_code_validation_failure(capsys, tmp_path):
    with open(SESSION) as fh:
        data = json.load(fh)
    # A table cocycle violating the pentagon: normalized but corrupted inside.
    n = 8
    table = [["1"] * n for _ in range(n * n)]
    flat = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                flat.append("-1" if (a, b, c) == (3, 5, 6) else "1")
    data["cocycle"] = {"table": flat}
    data["modules"] = {}
    data["tuples"] = {}
    path = tmp_path / "bad_cocycle.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "--session", str(path), "validate")
    assert code == 3 and "pentagon" in err


def test_preset_on_a_failing_cocycle_reports_the_pentagon(capsys, tmp_path):
    # Presets are validated as they are built, before the cocycle's line is
    # written: with Phi(g3, g3, g1) negated, W1's composition law fails too,
    # but the pentagon is what validate reports, as with no module at all.
    group = groupdata.make_abelian_group([2, 2, 2])
    flat = [str(v) for v in groupdata.sign_cocycle(group)._table]
    g1, g3 = group.element_index((1, 0, 0)), group.element_index((0, 0, 1))
    flat[(g3 * 8 + g3) * 8 + g1] = str(-int(flat[(g3 * 8 + g3) * 8 + g1]))
    results = []
    for modules in ({}, {"W1": {"preset": "W1"}}):
        path = tmp_path / f"session{len(modules)}.json"
        path.write_text(json.dumps(_edited(cocycle={"table": flat},
                                           modules=modules, tuples={})))
        results.append(run(capsys, "--session", str(path), "validate"))
    code, out, err = results[0]
    assert (code, out) == (3, "") and "pentagon fails at quadruple" in err
    assert results[1] == results[0]


def _z3_table(value):
    """A Z3 session with no modules and the cocycle table value(a, b, c)."""
    flat = [value(a, b, c) for a in range(3) for b in range(3)
            for c in range(3)]
    return _edited(group={"abelian": [3]}, cocycle={"table": flat},
                   modules={}, tuples={})


def _z3_coboundary(a, b, c):
    """(d psi)(a, b, c) on Z3 for the normalized 2-cochain psi(1, 1) = 2."""
    def psi(x, y):
        return Fraction(2) if (x, y) == (1, 1) else Fraction(1)
    return str(psi(b, c) * psi(a, (b + c) % 3)
               / (psi((a + b) % 3, c) * psi(a, b)))


@pytest.mark.parametrize("value, code, out, err", [
    # zeta(999)'s roots of unity are those of order 1998, above the
    # largest conductor: the pentagon is checked on scalars, and fails.
    (lambda a, b, c: "zeta(999)" if (a, b, c) == (2, 1, 1) else "1", 3, "",
     "group: order 3: pass\n"
     "cocycle: pentagon over 81 quadruples: FAIL: pentagon fails at "
     "quadruple (1,1,1,1): 1 != zeta(999)\n"),
    # A coboundary with values 2 and 1/2, no roots of unity: it passes.
    (_z3_coboundary, 0,
     "group: order 3: pass\ncocycle: pentagon over 81 quadruples: pass\n"
     "all checks passed\n", ""),
])
def test_cocycle_tables_off_the_exponent_path(capsys, tmp_path, value, code,
                                               out, err):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(_z3_table(value)))
    assert run(capsys, "--session", str(path), "validate") == (code, out, err)


def test_exit_code_undecided(capsys, tmp_path):
    with open(SESSION) as fh:
        data = json.load(fh)
    data["cutoffs"]["ad_cutoff"] = 0
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "--session", str(path), "ad", "W", "1", "2")
    assert code == 4 and "undecided" in err.lower()
    # A cutoff of 0 computes level 0 only.
    assert "level 0" in err and "undecided at cutoff 0" in err
    assert "level 1" not in err


def test_exit_code_resource_bound(capsys, tmp_path):
    with open(SESSION) as fh:
        data = json.load(fh)
    data["cutoffs"]["vertex_bound"] = 3
    path = tmp_path / "small.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "--session", str(path), "graph", "W")
    assert code == 5 and "vertex bound" in err


def _edited(**changes):
    with open(SESSION) as fh:
        data = json.load(fh)
    data.update(changes)
    return data


def _group(stanza):
    """A session over the given group stanza, with nothing else to check."""
    return _edited(group=stanza, cocycle={"trivial": True}, modules={},
                   tuples={})


def _module(degrees, matrix, extra=()):
    """z2cubed with one module M acting by `matrix` at every element."""
    action = {str(g): matrix for g in range(8)}
    action.update(extra)
    return _edited(modules={"M": {"degrees": degrees, "action": action}},
                   tuples={})


@pytest.mark.parametrize("data, argv, code, prefix", [
    (_edited(cutoffs={"ad_cutoff": "x"}), ["validate"], 2,
     "cutoff 'ad_cutoff' must be an integer"),
    (_edited(cutoffs={"root_bound": True}), ["validate"], 2,
     "cutoff 'root_bound' must be an integer"),
    (_edited(modules=[{"preset": "W1"}]), ["validate"], 2,
     "'modules' must be a JSON object"),
    (_edited(tuples=["W1"]), ["validate"], 2,
     "'tuples' must be a JSON object"),
    ([_edited()], ["validate"], 2, "session must be a JSON object"),
    (_edited(tuples={"T": "W1W2"}), ["validate"], 2,
     "tuple 'T' must be a list of module names"),
    (_edited(modules={"M": {"degrees": [8],
                            "action": {str(g): [["1"]] for g in range(8)}}}),
     ["validate"], 3,
     "module 'M': degree 8 is not an element of the group"),
    (_edited(), ["nichols", "W1", "--max-degree", "-1"], 2, "usage:"),
    (_edited(), ["roots", "W12", "--bound", "0"], 2, "usage:"),
    (_edited(cutoffs={"max_degre": 4}), ["validate"], 2,
     "unknown cutoff 'max_degre'"),
    (_edited(cutoffs={"root_bound": -5}), ["roots", "W12"], 2,
     "cutoff 'root_bound' must be >= 1, got -5"),
    (_edited(cutoffs={"vertex_bound": 0}), ["graph", "W12"], 2,
     "cutoff 'vertex_bound' must be >= 1, got 0"),
    (_edited(cutoffs={"max_degree": -1}), ["ad", "W12", "1", "2"], 2,
     "cutoff 'max_degree' must be >= 0, got -1"),
    (_edited(cutoffs={"ad_cutoff": -1}), ["cartan", "W12"], 2,
     "cutoff 'ad_cutoff' must be >= 0, got -1"),
    (_edited(modules={"M": {"degrees": [1], "action": [[["1"]]]}}),
     ["validate"], 2, "module 'M': 'action' must be a JSON object"),
    (_edited(modules={"M": {"degrees": [1],
                            "action": {str(g): [["1/0"]] for g in range(8)}}}),
     ["validate"], 2, "malformed module stanza 'M': malformed scalar term"),
    (_edited(cocycle={"table": ["1/0"] + ["1"] * 511}), ["validate"], 2,
     "bad cocycle stanza: malformed scalar term: '1/0'"),
    (_edited(modules={"M": {"degrees": [1], "action": {
        str(g): [["zeta(100000000)"]] for g in range(8)}}}), ["validate"], 5,
     "resource bound exceeded: conductor 100000000"),
    (_edited(group={"abelian": [1000000]}), ["validate"], 5,
     "resource bound exceeded: group order 1000000"),
    (_edited(group={"abelian": [2.5]}), ["validate"], 2,
     "bad group stanza: factor orders must be"),
    (_edited(cocycle={"trivial": True}, tuples={}, modules={"M": {
        "degrees": [1] * 33,
        "action": {str(g): [["1" if r == c else "0" for c in range(33)]
                            for r in range(33)] for g in range(8)}}}),
     ["validate"], 5, "resource bound exceeded: module dimension 33"),
    (_group({"cayley": [[0, 1], [1, True]]}), ["validate"], 2,
     "bad group stanza: Cayley entries must be integers, got True"),
    (_group({"cayley": [[0, 1], [1, 1.7]]}), ["validate"], 2,
     "bad group stanza: Cayley entries must be integers, got 1.7"),
    (_group({"cayley": []}), ["validate"], 3, "Cayley table must be nonempty"),
    (_group({"cayley": [[0, 5], [5, 0]]}), ["validate"], 3,
     "Cayley entry 5 is not an element index 0..1"),
    (_module("00", [["1", "0"], ["0", "1"]]), ["validate"], 2,
     "malformed module stanza 'M': 'degrees' must be a list of integers, "
     "got '00'"),
    (_module([0.5], [["1"]]), ["validate"], 2,
     "malformed module stanza 'M': 'degrees' must be a list of integers"),
    (_module([False], [["1"]]), ["validate"], 2,
     "malformed module stanza 'M': 'degrees' must be a list of integers"),
    (_module([0], "1"), ["validate"], 2,
     "malformed module stanza 'M': action of 0 must be a 1x1 matrix"),
    (_module([0], [["1", "0"], ["0", "1"]]), ["validate"], 2,
     "malformed module stanza 'M': action of 0 must be a 1x1 matrix"),
    (_module([0], [["1", "0"]]), ["validate"], 2,
     "malformed module stanza 'M': action of 0 must be a 1x1 matrix"),
    (_module([0], [["1"]], extra={"01": [["1"]]}), ["validate"], 2,
     "malformed module stanza 'M': action key '01' is not a plain integer"),
    (_module([0], [[True]]), ["validate"], 2,
     "malformed module stanza 'M': scalar literals are strings or integers, "
     "got True"),
    (_edited(cocycle={"table": [True] + ["1"] * 511}, modules={}, tuples={}),
     ["validate"], 2,
     "bad cocycle stanza: scalar literals are strings or integers, got True"),
    (_edited(cutofs={"max_degree": 2}), ["validate"], 2,
     "unknown session key 'cutofs'; expected one of group, cocycle, modules, "
     "tuples, cutoffs\n"),
    (_edited(modules={"W1": {"preset": "W1", "degrees": [5, 5]}}, tuples={}),
     ["validate"], 2,
     "module 'W1': unknown key 'degrees'; expected one of preset\n"),
    (_edited(modules={"W2": {"preset": "W2", "actoin": {}}}, tuples={}),
     ["validate"], 2,
     "module 'W2': unknown key 'actoin'; expected one of preset\n"),
    (_edited(modules={"M": {"degrees": [0], "name": "N", "action": {
        str(g): [["1"]] for g in range(8)}}}, tuples={}), ["validate"], 2,
     "module 'M': unknown key 'name'; expected one of degrees, action\n"),
    (_group({"abelian": [2], "cayley": [[0, 1], [1, 0]]}), ["validate"], 2,
     "group stanza names 2 forms (abelian, cayley); expected one\n"),
    (_group({"abelian": [2], "order": 2}), ["validate"], 2,
     "group stanza: unknown key 'order'; expected one of abelian, cayley\n"),
    (_edited(cocycle={"sign3": True, "trivial": True}), ["validate"], 2,
     "cocycle stanza names 2 forms (sign3, trivial); expected one\n"),
])
def test_malformed_input_exit_codes(capsys, tmp_path, data, argv, code, prefix):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    got, out, err = run(capsys, "--session", str(path), *argv)
    assert time.perf_counter() - start < 1.0
    assert (got, out) == (code, "")
    assert err.startswith(prefix)


@pytest.mark.parametrize("module, cap, argv, message", [
    (nichols, "MAX_BLOCK_CANDIDATES", ["nichols", "W", "--max-degree", "5"],
     "multidegree (1, 2, 2) has 164 candidate words, exceeding the largest "
     "supported block of 100 candidates"),
    (weylgraph, "MAX_ROOT_STATES", ["roots", "W", "--bound", "20"],
     "root closure exceeds 100 states below coordinate bound 20"),
])
def test_resource_caps_exit_5(capsys, monkeypatch, module, cap, argv, message):
    monkeypatch.setattr(module, cap, 100)
    code, out, err = run(capsys, "--session", SESSION, *argv)
    assert (code, out) == (5, "")
    assert err == f"resource bound exceeded: {message}\n"


def test_roots_cap_counts_class_states(capsys):
    # W's 24 vertices are one class, so the closure holds about 12 B states
    # and stays under MAX_ROOT_STATES at B = 1800 (it exited 5 when it
    # counted (vertex, root) states, about 288 B).
    code, out, err = run(capsys, "--session", SESSION, "roots", "W",
                         "--bound", "1800")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "real roots of W (coordinate bound 1800)"
    assert len(lines) == 26
    assert all(line.endswith("]: truncated at bound 1800")
               for line in lines[1:-1])
    assert lines[-1] == "finiteness: not-finite-within-bound"


def test_certify_many_slots_reads_the_diagram(tmp_path):
    # 24 copies of a line over Z2 with a_ij = 0: the Cartan type is 24 A1
    # components, named without enumerating the 2^24 principal minors.
    data = {"group": {"abelian": [2]}, "cocycle": {"trivial": True},
            "modules": {"M": {"degrees": [1],
                              "action": {"0": [["1"]], "1": [["-1"]]}}},
            "tuples": {"T": ["M"] * 24}}
    path = tmp_path / "session.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(SESSION), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ydweyl.cli", "--session", str(path),
         "certify", "T"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: no conclusion from this criterion" in proc.stdout
    assert "Cartan type: " + " + ".join(["A1"] * 24) + "\n" in proc.stdout


def _run_subprocess(session_path, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(SESSION), "..", "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ydweyl.cli", "--session", str(session_path),
         *argv], env=env, capture_output=True, text=True, timeout=60)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("degree", [nichols.MAX_TRUNCATION_DEGREE + 1, 100000])
def test_truncation_degree_cap_on_nichols_flag(degree):
    proc, elapsed = _run_subprocess(SESSION, "nichols", "W1",
                                    "--max-degree", str(degree))
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == (
        f"resource bound exceeded: truncation degree {degree} exceeds the "
        f"largest supported degree {nichols.MAX_TRUNCATION_DEGREE}\n")
    assert elapsed < 10


@pytest.mark.parametrize("degree", [nichols.MAX_TRUNCATION_DEGREE + 1, 100000])
def test_truncation_degree_cap_on_session_cutoff(tmp_path, degree):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(tower_session(degree)))
    proc, elapsed = _run_subprocess(path, "ad", "P", "1", "2")
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == (
        f"resource bound exceeded: truncation degree {degree} exceeds the "
        f"largest supported degree {nichols.MAX_TRUNCATION_DEGREE}\n")
    assert elapsed < 10


def test_tower_below_the_cap_is_undecided_at_the_truncation_degree(capsys,
                                                                    tmp_path):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(tower_session(8)))
    code, out, err = run(capsys, "--session", str(path), "ad", "P", "1", "2")
    assert (code, out) == (4, "")
    assert err.splitlines()[-2:] == ["level 7: dim 1 degrees [g1*g2]",
                                     "undecided at truncation degree 8"]


def _z9pair_session(tmp_path, z9_pair) -> str:
    """The session perfbench/sessions.py:z9pair_session writes: [L, L4]."""
    with open(os.path.join(os.path.dirname(SESSION), "z3twisted.json")) as fh:
        data = json.load(fh)
    line4 = z9_pair[1][1]
    data["modules"]["L4"] = {
        "degrees": list(line4.degrees),
        "action": {str(g): [[str(x) for x in row]
                            for row in line4.act_matrix(g)]
                   for g in line4.group.elements()}}
    data["tuples"] = {"P": ["L", "L4"]}
    path = tmp_path / "z9pair.json"
    path.write_text(json.dumps(data, sort_keys=True))
    return str(path)


def test_reflect_conductor9_golden(capsys, tmp_path, z9_pair):
    # [L, L4] over twisted Z3 is the shipped path that prints non-rational
    # scalars, so a change of stored conductor in Phi's derived scalars
    # (Cocycle3.inverse, omega, tensor_action) shows here.
    path = _z9pair_session(tmp_path, z9_pair)
    for i in ("1", "2"):
        code, _, err = run(capsys, "--session", path, "--golden", GOLDEN,
                           "reflect", "P", i)
        assert (code, err) == (0, "")


def test_nichols_conductor9_golden(capsys, tmp_path, z9_pair):
    # Nichols blocks of [L, L4] mix rational and conductor-9 entries, so
    # elimination over such rows shows here; it is also the
    # nichols-z9pair7 benchmark workload.
    path = _z9pair_session(tmp_path, z9_pair)
    code, _, err = run(capsys, "--session", path, "--golden", GOLDEN,
                       "nichols", "P", "--max-degree", "7")
    assert (code, err) == (0, "")
    _assert_benchmark_output("nichols_P_7.txt", "nichols-z9pair7")


@pytest.mark.parametrize("argv", [["cartan", "W"], ["reflect", "W", "1"],
                                  ["ad", "W", "1", "2"], ["certify", "W"]])
def test_session_truncation_degree_bounds_every_command(capsys, tmp_path,
                                                        argv):
    # W needs degree 3 to see ad(W1)^2(W2) vanish; every command that builds
    # ad towers stops at the session's truncation degree and names it.
    path = tmp_path / "session.json"
    path.write_text(json.dumps(_edited(cutoffs={"max_degree": 2})))
    code, out, err = run(capsys, "--session", str(path), *argv)
    assert (code, out) == (4, "")
    assert "undecided at truncation degree 2" in err


def test_preset_module_takes_its_session_name(capsys, tmp_path):
    data = _edited(cutoffs={"max_degree": 2})
    data["modules"].update({"A": {"preset": "W1"}, "B": {"preset": "W2"}})
    data["tuples"]["T"] = ["A", "B"]
    path = tmp_path / "session.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "--session", str(path), "cartan", "T")
    assert (code, out) == (4, "")
    assert err == ("undecided: ad-power of (A,B) undecided at truncation "
                   "degree 2\n")


def test_validate_runs_each_check_once(capsys, monkeypatch):
    # One walk per module: each preset is walked once as it is built, and
    # validate neither walks it again nor checks the cocycle twice.
    calls = []

    def counted(name, fn, label):
        def wrapper(*args, **kwargs):
            calls.append((name, label(*args, **kwargs)))
            return fn(*args, **kwargs)
        return wrapper

    def named(arg):
        return getattr(arg, "name", None)

    for module, name, label in (
            (groupdata, "check_3cocycle", named), (cli, "check_3cocycle", named),
            (ydcat, "yd_axiom_check", named), (cli, "yd_axiom_check", named),
            (ydcat, "module_from_generator_actions",
             lambda *args, name=None: name),
            (ydcat, "_yd_walk", lambda *args: None)):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, counted(name, fn, label))
    code, _, _ = run(capsys, "--session", SESSION, "validate")
    assert code == 0
    walked, building = [], None
    for name, label in calls:
        if name == "module_from_generator_actions":
            building = label
        elif name == "_yd_walk":
            walked.append(building)
    assert sorted(walked) == [f"W{k}" for k in range(1, 7)]
    assert [c for c in calls if c[0] not in ("module_from_generator_actions",
                                             "_yd_walk")] == [
        ("check_3cocycle", None)]


@pytest.mark.parametrize("exc, code", [
    (RuntimeError("boom"), 3),
    (KeyError("k"), 3),
    (MemoryError("no room"), 5),
    (RecursionError("too deep"), 5),
])
def test_unexpected_exception_exit_codes(capsys, monkeypatch, exc, code):
    def command(session, args):
        raise exc
    monkeypatch.setitem(cli.COMMANDS, "validate", command)
    got, out, err = run(capsys, "--session", SESSION, "validate")
    assert (got, out) == (code, "")
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"
    assert "Traceback" not in err


def test_golden_write_failure_exit_code(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "--session", SESSION, "--golden-write",
                         str(blocker / "sub"), "validate")
    assert code == 3
    assert err.startswith("internal error: NotADirectoryError:")
    assert err.count("\n") == 1


def test_cli_import_skips_dataclasses_and_inspect():
    # dataclasses imports inspect, ast, dis and tokenize: about 1 MB and
    # 10 ms on every command.  -S keeps site's own imports out of the check.
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(SESSION), "..", "src"))
    code = ("import sys, ydweyl.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("exc, code, line", [
    (ValidationError("not a YD module"), 3,
     "validation failure: not a YD module\n"),
    (YDWeylError("plain engine error"), 2, "plain engine error\n"),
])
def test_engine_error_exit_codes(capsys, monkeypatch, exc, code, line):
    def command(session, args):
        raise exc
    monkeypatch.setitem(cli.COMMANDS, "validate", command)
    assert run(capsys, "--session", SESSION, "validate") == (code, "", line)
