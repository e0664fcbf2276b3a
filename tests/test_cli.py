import contextlib
import copy
import hashlib
import io
import json
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvsr import matrix, projective
from mvsr.cli import main
from mvsr.jsonio import (canonical_dumps, mv_to_dict, semimodule_to_dict,
                         semiring_to_dict)
from mvsr.mv import lukasiewicz_chain
from mvsr.semimodule import free_semimodule, generate, module_over_self
from mvsr.semiring import boolean_semiring

import corpus


def write(path, payload):
    path.write_text(canonical_dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def chain3_file(tmp_path):
    return write(tmp_path / "chain3.json", mv_to_dict(lukasiewicz_chain(3)))


@pytest.fixture
def boolean_file(tmp_path):
    return write(tmp_path / "bool.json", semiring_to_dict(boolean_semiring()))


@pytest.fixture
def lawless_file(tmp_path):
    # breaks the semiring laws; no idempotent matrix over it presents the
    # trivial module
    return write(tmp_path / "lawless.json",
                 semiring_to_dict(corpus.lawless_semiring()))


@pytest.fixture
def self_file(tmp_path):
    return write(tmp_path / "self.json",
                 semimodule_to_dict(module_over_self(boolean_semiring())))


def test_chain_emits_canonical_json(capsys):
    assert main(["chain", "3"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    data = json.loads(out)
    assert data["kind"] == "mv"
    assert data["labels"] == ["0", "1/2", "1"]


def test_chain_then_verify_round_trip(tmp_path, capsys):
    target = tmp_path / "chain4.json"
    assert main(["chain", "4", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["verify", "--input", str(target)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True


def test_verify_rejects_broken_star(tmp_path, capsys):
    payload = mv_to_dict(lukasiewicz_chain(2))
    payload["star"] = [0, 1]
    bad = write(tmp_path / "bad.json", payload)
    assert main(["verify", "--input", bad]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False


def test_parse_error_reports_location(tmp_path, capsys):
    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"kind": "mv",\n  "size": oops}\n', encoding="utf-8")
    assert main(["verify", "--input", str(mangled)]) == 1
    err = capsys.readouterr().err
    assert "parse error at line 2" in err


def test_missing_file_is_a_parse_failure(tmp_path, capsys):
    assert main(["verify", "--input", str(tmp_path / "absent.json")]) == 1


def test_wrong_structure_for_subcommand(boolean_file, capsys):
    assert main(["reduct", "vee-odot", "--input", boolean_file]) == 1
    assert "malformed input" in capsys.readouterr().err


@pytest.mark.parametrize("labels", [[None, {"a": [1]}], [True, 1.5]])
def test_labels_that_are_not_strings_exit_1(labels, tmp_path, capsys):
    path = write(tmp_path / "c2.json",
                 dict(mv_to_dict(lukasiewicz_chain(2)), labels=labels))
    assert main(["reduct", "vee-odot", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("mvsr: malformed input: "
                            "'labels' must be a list of strings\n")


def test_reduct_swaps_neutrals(chain3_file, capsys):
    assert main(["reduct", "wedge-oplus", "--input", chain3_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "semiring"
    assert data["zero"] == 2 and data["one"] == 0


def test_idempotent_count(boolean_file, capsys):
    assert main(["idempotents", "--input", boolean_file, "--n", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 11
    assert len(data["matrices"]) == 11


def test_projective_self_module(self_file, capsys):
    assert main(["projective", "--input", self_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["projective"] is True
    assert data["witnesses"]["deciders_agree"] is True
    assert data["retraction"] is not None


@pytest.mark.parametrize("module,digest", [
    (lambda: module_over_self(boolean_semiring()),
     "41f210c39f22dba0947dd60782fa432e464b46ee"),
    (lambda: free_semimodule(boolean_semiring(), ["x", "y"]),
     "f365f264632c0653e59eef6d1f7a6a247181b8b4"),
    (lambda: module_over_self(corpus.chain(3)),
     "d60e5d713ca7ce26dc9d4a19915493cdb9fb8df5"),
    (lambda: free_semimodule(corpus.chain(3), ["x", "y"]),
     "04353a1cb9ae7f845858efc56c3b1e2563570ed6"),
    (lambda: generate(module_over_self(corpus.chain(3)), (1,)),
     "590a8c3ce8b9a64ba1d48078d50ea5f5db1e471c"),
], ids=["B-self", "B-squared", "C3-self", "C3-squared", "C3-half"])
def test_projective_report_bytes(tmp_path, capsys, module, digest):
    """The projective reports, pinned by digest; the C3 half (the submodule
    generated by the middle element) is not projective."""
    path = write(tmp_path / "module.json", semimodule_to_dict(module()))
    assert main(["projective", "--input", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode()).hexdigest() == digest


def _lattice_payload(below):
    """The lattice over B whose order has these strict lower covers, given
    bottom first, as a semimodule description."""
    return semimodule_to_dict(corpus.lattice_module(boolean_semiring(),
                                                    below))


def test_benchmark_k0_and_projective_reports_match_the_closure(
        tmp_path, capsys, monkeypatch):
    """Every k0 and projective input of the benchmark's cli workload gives
    the same exit code and bytes with spans from the sweep as with spans
    from the closure of each matrix."""
    chains = {k: write(tmp_path / f"c{k}.json",
                       mv_to_dict(lukasiewicz_chain(k))) for k in (2, 3, 4)}
    runs = [["k0", "--input", chains[k], "--nmax", str(n)]
            for k, n in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2))]
    c3 = corpus.chain(3)
    modules = {
        "Bself": semimodule_to_dict(module_over_self(boolean_semiring())),
        "Bfree2": semimodule_to_dict(free_semimodule(boolean_semiring(),
                                                     ["x", "y"])),
        "Lc3": _lattice_payload([[], [0], [1]]),
        "Ln5": _lattice_payload([[], [0], [1], [0], [2, 3]]),
        "C3self": semimodule_to_dict(module_over_self(c3)),
        "C3half": semimodule_to_dict(generate(module_over_self(c3), (1,))),
        "C3free2": semimodule_to_dict(free_semimodule(c3, ["x", "y"])),
    }
    runs += [["projective", "--input", write(tmp_path / f"{name}.json", m)]
             for name, m in modules.items()]

    def outcomes():
        return [(main(argv), capsys.readouterr().out) for argv in runs]

    sweep = outcomes()
    monkeypatch.setattr(projective, "_row_spans", corpus.spans_by_closure)
    assert outcomes() == sweep
    assert [code for code, _ in sweep] == [0] * len(runs)


def test_k0_runs_are_byte_identical(tmp_path, chain3_file):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["k0", "--input", chain3_file, "--nmax", "1",
                 "--out", str(first)]) == 0
    assert main(["k0", "--input", chain3_file, "--nmax", "1",
                 "--out", str(second)]) == 0
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b
    data = json.loads(a)
    assert data["group"]["rank"] == 1
    assert data["truncated"] is True


def test_tensor_verifies_universal_property(self_file, capsys):
    assert main(["tensor", "--left", self_file, "--right", self_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["universal_property"] == "verified"
    assert data["classes"] == 2


@pytest.mark.parametrize("side", ["left", "right"])
def test_tensor_refuses_a_factor_that_is_not_a_module(side, tmp_path, capsys):
    """The 3-chain with 1 + 1 = 2 breaks scalar-additive first, in
    check_semimodule's order, and add-idempotent after it: tensor names the
    factor and its first broken law and exits 2 with nothing on stdout."""
    broken = _lattice_payload([[], [0], [1]])
    broken["add"][1][1] = 2
    bad = write(tmp_path / "bad.json", broken)
    good = write(tmp_path / "c2.json", _lattice_payload([[], [0]]))
    assert main(["verify", "--input", bad]) == 2
    failed = [law["name"] for law in json.loads(capsys.readouterr().out)
              ["laws"] if not law["ok"]]
    assert failed == ["scalar-additive", "add-idempotent"]
    left, right = (bad, good) if side == "left" else (good, bad)
    assert main(["tensor", "--left", left, "--right", right]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"mvsr: the {side} factor is not a semimodule: it breaks "
                   "scalar-additive\n")


def test_gamma_certificate(capsys):
    code = main(["gamma", "--u", "1", "--samples", "300", "--seed", "11"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["sum_domain"] == "nonnegative"


def test_gamma_refuses_samples_past_max_enum(capsys):
    err = fails_cleanly(["gamma", "--samples", "11", "--max-enum", "10"], 3,
                        capsys)
    assert "truncation samples: 11 exceeds max_enum=10" in err


def test_gamma_rejects_unparseable_u(capsys):
    assert main(["gamma", "--u", "one-half"]) == 1
    assert "malformed input" in capsys.readouterr().err


def test_gamma_runs_are_deterministic(capsys):
    argv = ["gamma", "--u", "2/3", "--samples", "200", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_homset_counts(tmp_path, self_file, capsys):
    free2 = write(tmp_path / "free2.json",
                  semimodule_to_dict(free_semimodule(boolean_semiring(),
                                                     ["x", "y"])))
    assert main(["homset", "--left", free2, "--right", self_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 4
    assert [0, 0, 0, 0] in data["homs"]


@pytest.mark.parametrize("left,right,digest", [
    (lambda: free_semimodule(boolean_semiring(), ["x", "y"]),
     lambda: module_over_self(boolean_semiring()),
     "e592fa7938f7a7b38eb116b7eb66b714bb3adc22"),
    (lambda: module_over_self(boolean_semiring()),
     lambda: free_semimodule(boolean_semiring(), ["x", "y"]),
     "be81eb0a4bdb2ecfe3b3cfe1d0490025dffda112"),
    (lambda: module_over_self(corpus.chain(3)),
     lambda: free_semimodule(corpus.chain(3), ["x", "y"]),
     "e3e6be8154e5e1fd8181c436a321762b4b381f01"),
], ids=["B-squared-to-B", "B-to-B-squared", "C3-to-C3-squared"])
def test_homset_report_bytes(tmp_path, capsys, left, right, digest):
    """The homset reports, pinned by digest."""
    argv = ["homset", "--left", write(tmp_path / "left.json",
                                      semimodule_to_dict(left())),
            "--right", write(tmp_path / "right.json",
                             semimodule_to_dict(right()))]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode()).hexdigest() == digest


def test_enum_guard_exit_code(tmp_path, self_file, capsys):
    free2 = write(tmp_path / "free2.json",
                  semimodule_to_dict(free_semimodule(boolean_semiring(),
                                                     ["x", "y"])))
    code = main(["homset", "--left", free2, "--right", self_file,
                 "--max-enum", "1"])
    assert code == 3
    assert "guard breach" in capsys.readouterr().err


def test_env_config_sets_guards(tmp_path, self_file, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_enum": 1}), encoding="utf-8")
    monkeypatch.setenv("MVSR_CONFIG", str(cfg))
    free2 = write(tmp_path / "free2.json",
                  semimodule_to_dict(free_semimodule(boolean_semiring(),
                                                     ["x", "y"])))
    argv = ["homset", "--left", free2, "--right", self_file]
    assert main(argv) == 3
    capsys.readouterr()
    # an explicit flag wins over the environment
    assert main(argv + ["--max-enum", "1000"]) == 0


def test_unreadable_config(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MVSR_CONFIG", str(tmp_path / "nowhere.json"))
    assert main(["chain", "3"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def fails_cleanly(argv, code, capsys):
    """The command exits with code, writes nothing to stdout and reports
    on stderr without a traceback."""
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("mvsr: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("payload", [
    {"kind": "mv", "size": 2, "oplus": [[0, 1.5], [1, 1]], "star": [1, 0],
     "zero": 0},
    {"kind": "mv", "size": 2, "oplus": [[0, True], [True, True]],
     "star": [1, 0], "zero": 0},
    {"kind": "mv", "size": 2, "oplus": [[0, "1"], [1, 1]], "star": [1, 0],
     "zero": 0},
    {"kind": "mv", "size": 2, "oplus": [[0, 1], [1, 1]], "star": [[1], 0],
     "zero": 0},
    {"kind": "semimodule", "scalars": semiring_to_dict(boolean_semiring()),
     "size": 2, "add": [[0, 1], [1, 1]], "zero": 0,
     "action": [[0, 0], [0, 1.0]]},
    {"kind": "matrix", "scalars": semiring_to_dict(boolean_semiring()),
     "rows": 1, "cols": 1, "entries": [[False]]},
    {"kind": "matrix", "scalars": semiring_to_dict(boolean_semiring()),
     "rows": 1, "cols": 1, "entries": [[5]]},
    {"kind": "matrix", "scalars": semiring_to_dict(boolean_semiring()),
     "rows": 2, "cols": 2, "entries": [[0, 1]]},
    {"kind": [0], "size": 2},
    {"kind": {"mv": 1}, "size": 2},
], ids=["float", "bool", "string", "nested", "action-float", "matrix-bool",
        "matrix-out-of-range", "matrix-wrong-grid", "kind-list",
        "kind-object"])
def test_verify_rejects_inexact_entries(tmp_path, capsys, payload):
    bad = write(tmp_path / "bad.json", payload)
    fails_cleanly(["verify", "--input", bad], 1, capsys)


@pytest.mark.parametrize("text", [
    "5", "[]", '{"max_carrier": "big"}', '{"max_enum": true}',
    '{"seed": 1.5}', '{"n_max": null}', '{"out": ["report.json"]}',
], ids=["number", "array", "max_carrier-string", "max_enum-bool",
        "seed-float", "n_max-null", "out-list"])
def test_malformed_config(monkeypatch, tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    monkeypatch.setenv("MVSR_CONFIG", str(cfg))
    assert "cannot read config" in fails_cleanly(["chain", "3"], 1, capsys)


@pytest.mark.parametrize("where", ["missing-dir", "directory", "config"])
def test_unwritable_out(monkeypatch, tmp_path, capsys, where):
    target = {"missing-dir": str(tmp_path / "absent" / "c3.json"),
              "directory": str(tmp_path)}.get(where)
    argv = ["chain", "3"]
    if where == "config":
        cfg = write(tmp_path / "cfg.json",
                    {"out": str(tmp_path / "absent" / "c3.json")})
        monkeypatch.setenv("MVSR_CONFIG", cfg)
    else:
        argv += ["--out", target]
    assert "cannot write" in fails_cleanly(argv, 1, capsys)


def test_deeply_nested_input(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    assert "malformed input" in fails_cleanly(
        ["verify", "--input", str(deep)], 1, capsys)


def test_deeply_nested_config(monkeypatch, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    monkeypatch.setenv("MVSR_CONFIG", str(deep))
    assert "cannot read config" in fails_cleanly(["chain", "3"], 1, capsys)


@pytest.mark.parametrize("argv,code", [
    (["k0", "--input", "{chain3}", "--nmax", "0"], 1),
    (["k0", "--input", "{chain3}", "--nmax", "-1"], 1),
    (["idempotents", "--input", "{boolean}", "--n", "-1"], 1),
    (["chain", "3", "--max-carrier", "2"], 3),
    (["gamma", "--samples", "-5"], 1),
    (["gamma", "--samples", "0"], 1),
    (["k0", "--input", "{lawless}"], 2),
    (["k0", "--input", "{chain3}", "--nmax", "1000"], 3),
    (["idempotents", "--input", "{boolean}", "--n", "200"], 3),
    (["k0", "--input", "{chain3}", "--nmax", "100000"], 3),
    (["idempotents", "--input", "{boolean}", "--n", "100000"], 3),
    (["chain", "abc"], 1),
    (["chain"], 1),
    (["bogus"], 1),
    (["k0", "--input", "{chain3}", "--nmax", "x"], 1),
    (["chain", "1"], 1),
    (["chain", "-3"], 1),
    (["idempotents", "--input", "{boolean}", "--n", "8", "--max-enum",
      str(10 ** 20)], 3),
], ids=["k0-nmax-0", "k0-nmax-negative", "idempotents-n-negative",
        "chain-over-max-carrier", "gamma-samples-negative", "gamma-samples-0",
        "k0-no-trivial-class", "k0-nmax-1000", "idempotents-n-200",
        "k0-nmax-100000", "idempotents-n-100000", "chain-k-not-an-int",
        "chain-k-missing", "unknown-subcommand", "k0-nmax-not-an-int",
        "chain-k-1", "chain-k-negative", "idempotents-past-int64"])
def test_size_arguments(chain3_file, boolean_file, lawless_file, capsys,
                        argv, code):
    files = {"{chain3}": chain3_file, "{boolean}": boolean_file,
             "{lawless}": lawless_file}
    fails_cleanly([files.get(a, a) for a in argv], code, capsys)


def _atom_lattice(atoms):
    """Bottom, the atoms and top as a module over B; it needs every atom
    as a generator."""
    top = atoms + 1

    def join(a, b):
        return a if b in (0, a) else b if a == 0 else top
    return {"kind": "semimodule",
            "scalars": semiring_to_dict(boolean_semiring()),
            "size": top + 1, "zero": 0,
            "add": [[join(a, b) for b in range(top + 1)]
                    for a in range(top + 1)],
            "action": [[0] * (top + 1), list(range(top + 1))]}


@pytest.mark.parametrize("module,extra,stage", [
    ("lattice", [], "hom-set candidate assignments"),
    ("self", ["--n", "10000000"], "free module carrier"),
], ids=["twelve-atoms", "n-10000000"])
def test_projective_guards_fire_before_the_free_cover(
        tmp_path, self_file, monkeypatch, capsys, module, extra, stage):
    """The retract oracle's guards fire before its free cover is built:
    on twelve generators the cover has 4096 elements, and --n 10000000
    asks for 2^10000000."""
    def no_cover(*args, **kwargs):
        raise AssertionError("the free cover was built")
    monkeypatch.setattr(matrix, "free_semimodule", no_cover)
    monkeypatch.delenv("MVSR_CONFIG", raising=False)
    path = (write(tmp_path / "lattice.json", _atom_lattice(12))
            if module == "lattice" else self_file)
    start = time.perf_counter()
    err = fails_cleanly(["projective", "--input", path, *extra], 3, capsys)
    assert time.perf_counter() - start < 5
    assert stage in err


@pytest.mark.parametrize("argv", [["--help"], ["chain", "--help"]],
                         ids=["top", "subcommand"])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mvsr")


# ----- fuzzed descriptions ------------------------------------------------------

_DESCRIPTIONS = (
    mv_to_dict(lukasiewicz_chain(3)),
    mv_to_dict(corpus.c2xc2()),
    semiring_to_dict(corpus.chain(3)),
    semimodule_to_dict(module_over_self(boolean_semiring())),
    semimodule_to_dict(free_semimodule(boolean_semiring(), ["x", "y"])),
    semimodule_to_dict(module_over_self(corpus.chain(3))),
)
_BAD_ENTRIES = st.one_of(st.integers(-3, 9), st.booleans(), st.floats(),
                         st.text(max_size=3), st.none(), st.just(2 ** 70))


def _positions(value, path=()):
    """Every position below a JSON value, with the value found there."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield path + (key,), inner
        yield from _positions(inner, path + (key,))


def _at(desc, path):
    for key in path:
        desc = desc[key]
    return desc


@st.composite
def _mutated(draw):
    """A valid description with one to three mutations. In range, each
    replaces an int by 0 or 1, which every table here holds, so that the
    description may still parse and break a law. Otherwise each replaces
    an entry by an out-of-range int, bool, float, str, null or 2^70, drops
    an element from a list (a row from a table), or removes a key."""
    desc = copy.deepcopy(draw(st.sampled_from(_DESCRIPTIONS)))
    in_range = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        kind = ("value" if in_range
                else draw(st.sampled_from(("entry", "row", "key"))))
        if kind == "value":
            spots = [p for p, v in _positions(desc) if type(v) is int]
        elif kind == "entry":
            spots = [p for p, v in _positions(desc)
                     if not isinstance(v, (dict, list))]
        elif kind == "row":
            spots = [p + (i,) for p, v in _positions(desc)
                     if isinstance(v, list) for i in range(len(v))]
        else:
            spots = [(key,) for key in desc]
        if not spots:
            continue
        path = draw(st.sampled_from(spots))
        parent = _at(desc, path[:-1])
        if kind == "value":
            parent[path[-1]] = draw(st.integers(0, 1))
        elif kind == "entry":
            parent[path[-1]] = draw(_BAD_ENTRIES)
        else:
            del parent[path[-1]]
    return desc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(desc=_mutated())
def test_fuzzed_descriptions_keep_the_exit_contract(desc, tmp_path,
                                                    monkeypatch):
    """Every subcommand that reads JSON exits 0 to 3 on a mutated
    description without a traceback, and a second run prints the same
    bytes. tensor and homset take it on each side in turn, with B over
    itself on the other."""
    monkeypatch.delenv("MVSR_CONFIG", raising=False)
    fuzzed = tmp_path / "fuzzed.json"
    fuzzed.write_text(json.dumps(desc), encoding="utf-8")
    path = str(fuzzed)
    b_self = write(tmp_path / "self.json",
                   semimodule_to_dict(module_over_self(boolean_semiring())))
    commands = [[command, "--input", path]
                for command in ("k0", "verify", "projective")]
    commands += [["reduct", variant, "--input", path]
                 for variant in ("vee-odot", "wedge-oplus")]
    commands.append(["idempotents", "--input", path, "--n", "1"])
    commands += [[command, "--left", left, "--right", right]
                 for command in ("tensor", "homset")
                 for left, right in ((path, b_self), (b_self, path))]
    for argv in commands:
        code, out, err = _run(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert _run(argv) == (code, out, err)


@pytest.mark.parametrize("u", [
    "1e20000000", "-1e20000000", "1e-20000000", "0e99999999999",
    "1e4300", "1e-4300", "1" + "0" * 4300, "1/" + "3" * 4301,
    "1.5e1_000_000_000", "1e" + "9" * 5000,
], ids=["exponent", "negative", "negative-exponent", "zero-mantissa",
        "numerator-4301-digits", "denominator-4301-digits", "long-integer",
        "long-denominator", "underscores", "exponent-5000-digits"])
def test_gamma_refuses_a_unit_too_long_to_print(u, capsys):
    """Refused before any parse: Fraction would first raise 10 to the
    exponent, which at 10^20000000 takes longer than a test may."""
    start = time.perf_counter()
    assert main(["gamma", f"--u={u}", "--samples", "10"]) == 1
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("mvsr: malformed input: ")
    assert "more than 4300 digits" in err


@pytest.mark.parametrize("u", ["1e4299", "1e-4299", "1/" + "3" * 4300,
                               "3" * 4300 + "/7"],
                         ids=["numerator", "denominator", "fraction",
                              "integer"])
def test_gamma_takes_a_unit_of_4300_digits(u, capsys):
    assert main(["gamma", f"--u={u}", "--samples", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


# ----- fuzzed chain and gamma arguments ------------------------------------------

_UNITS = st.one_of(
    st.text(max_size=8),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-20, 10 ** 6),
              st.integers(-3, 10 ** 6)),
    st.builds(lambda m, e: f"{m}e{e}",
              st.sampled_from(["1", "0", "2.5", "-3", ".5", "7_0"]),
              st.one_of(st.integers(-60, 60), st.integers(-10 ** 30, 10 ** 30),
                        st.sampled_from([4299, 4300, -4300, 20000000]))))


@st.composite
def _chain_or_gamma(draw):
    """chain k, sometimes past a small --max-carrier, or gamma with a drawn
    --u, --samples and --seed."""
    if draw(st.booleans()):
        argv = ["chain", str(draw(st.integers(-5, 40)))]
        if draw(st.booleans()):
            argv += ["--max-carrier", str(draw(st.integers(1, 10)))]
        return argv
    return ["gamma", f"--u={draw(_UNITS)}",
            "--samples", str(draw(st.integers(-3, 50))),
            "--seed", str(draw(st.integers()))]


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_chain_or_gamma())
def test_fuzzed_chain_and_gamma_keep_the_exit_contract(argv, monkeypatch):
    """chain and gamma exit 0 to 3 without a traceback on drawn arguments,
    and a second run prints the same bytes."""
    monkeypatch.delenv("MVSR_CONFIG", raising=False)
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert _run(argv) == (code, out, err)


# ----- fuzzed JSON values ----------------------------------------------------------

_SCHEMA_WORDS = ("kind", "semiring", "mv", "semimodule", "matrix", "size",
                 "add", "mul", "zero", "one", "oplus", "star", "labels",
                 "scalars", "action", "rows", "cols", "entries")
_TEXT = st.one_of(st.text(max_size=4), st.sampled_from(_SCHEMA_WORDS))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    _TEXT)
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=24)
# Objects of a known kind holding every field with the right JSON type:
# small ints, and rows and grids of one to three entries, each a small int
# or any leaf. Most pass the schema and reach the table checks.
_SMALL = st.one_of(st.integers(0, 2), _LEAVES)
_ROWS = st.lists(_SMALL, min_size=1, max_size=3)
_GRIDS = st.lists(_ROWS, min_size=1, max_size=3)
_DRAWN_DESCRIPTIONS = st.fixed_dictionaries({
    "kind": st.sampled_from(("semiring", "mv", "semimodule", "matrix")),
    **{key: st.integers(-1, 3) for key in ("size", "zero", "one", "rows",
                                           "cols")},
    **{key: _GRIDS for key in ("add", "mul", "oplus", "action", "entries")},
    "star": _ROWS,
    "labels": st.one_of(st.none(), st.lists(_TEXT, max_size=3)),
    "scalars": st.one_of(st.just(semiring_to_dict(boolean_semiring())),
                         _JSON_VALUES)})


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=st.one_of(_JSON_VALUES, _DRAWN_DESCRIPTIONS))
def test_fuzzed_json_values_keep_the_exit_contract(value, tmp_path,
                                                   monkeypatch):
    """Any JSON value as the input of verify, k0, projective, tensor and
    homset (on each side in turn, with B over itself on the other) exits
    0 to 3 without a traceback, and a second run prints the same bytes.
    Half the values are objects of a known kind with drawn fields, so
    they reach the table checks."""
    monkeypatch.delenv("MVSR_CONFIG", raising=False)
    fuzzed = tmp_path / "value.json"
    fuzzed.write_text(json.dumps(value), encoding="utf-8")
    path = str(fuzzed)
    b_self = write(tmp_path / "self.json",
                   semimodule_to_dict(module_over_self(boolean_semiring())))
    commands = [[command, "--input", path]
                for command in ("verify", "k0", "projective")]
    commands += [[command, "--left", left, "--right", right]
                 for command in ("tensor", "homset")
                 for left, right in ((path, b_self), (b_self, path))]
    for argv in commands:
        code, out, err = _run(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert _run(argv) == (code, out, err)


# ----- fuzzed configuration files and size options -------------------------------

# Past 2, a size is drawn only where a guard must fire even under bounds of
# 10^25: every guarded count is at least 2^100 there, so no run enumerates.
_SIZES = st.one_of(st.integers(-5, 2), st.integers(100, 10 ** 25))
_BOUNDS = st.one_of(st.integers(-5, 100), st.integers(-5, 10 ** 25))


def _mostly(ints):
    """ints seven times in eight, else a bool or a float."""
    return st.integers(0, 7).flatmap(
        lambda k: st.one_of(st.booleans(), st.floats()) if k == 0 else ints)


_CONFIG_OBJECTS = st.fixed_dictionaries({}, optional={
    "max_enum": _mostly(_BOUNDS), "max_carrier": _mostly(_BOUNDS),
    "seed": _mostly(_BOUNDS), "n_max": _mostly(_SIZES)})
_SIZED_INPUTS = {
    "k0": ("boolean", "chain3", "three"), "idempotents": ("boolean", "three"),
    "projective": ("b_self", "b_free2", "c3_self")}
_HOMSET_SIDES = ("b_self", "b_free2", "c3_self", "c3_free2")


@st.composite
def _sized_command(draw):
    """k0, idempotents or projective on B or C3 with a drawn --nmax or
    --n, or homset between two modules over them; each with a drawn
    --max-enum and --max-carrier or none."""
    command = draw(st.sampled_from(("k0", "idempotents", "projective",
                                    "homset")))
    if command == "homset":
        argv = [command, "--left", draw(st.sampled_from(_HOMSET_SIDES)),
                "--right", draw(st.sampled_from(_HOMSET_SIDES))]
    else:
        argv = [command, "--input",
                draw(st.sampled_from(_SIZED_INPUTS[command]))]
        if draw(st.booleans()):
            flag = "--nmax" if command == "k0" else "--n"
            argv.append(f"{flag}={draw(_mostly(_SIZES))}")
    for flag in ("--max-enum", "--max-carrier"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_mostly(_BOUNDS))}")
    return argv


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.one_of(_JSON_VALUES, _CONFIG_OBJECTS),
       argv=_sized_command())
def test_fuzzed_config_and_sizes_keep_the_exit_contract(config, argv,
                                                        tmp_path,
                                                        monkeypatch):
    """Any JSON value as the MVSR_CONFIG file, half of them objects with
    drawn bounds, seed and n_max, under a sized command exits 0 to 3
    without a traceback, and a second run prints the same bytes. The run
    happens in a scratch directory, since a drawn config may name an out
    file."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setenv("MVSR_CONFIG", str(cfg))
    three = corpus.chain(3)
    files = {
        "boolean": semiring_to_dict(boolean_semiring()),
        "chain3": mv_to_dict(lukasiewicz_chain(3)),
        "three": semiring_to_dict(three),
        "b_self": semimodule_to_dict(module_over_self(boolean_semiring())),
        "b_free2": semimodule_to_dict(free_semimodule(boolean_semiring(),
                                                      ["x", "y"])),
        "c3_self": semimodule_to_dict(module_over_self(three)),
        "c3_free2": semimodule_to_dict(free_semimodule(three, ["x", "y"]))}
    argv = [write(tmp_path / f"{a}.json", files[a]) if a in files else a
            for a in argv]
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert _run(argv) == (code, out, err)


# ----- fuzzed tensor bounds --------------------------------------------------------

_TENSOR_FACTORS = {
    "Bself": semimodule_to_dict(module_over_self(boolean_semiring())),
    "Lc3": _lattice_payload([[], [0], [1]]),
    "Bfree2": semimodule_to_dict(free_semimodule(boolean_semiring(),
                                                 ["x", "y"]))}
# The guards tensor can trip, each named in its message.
_TENSOR_STAGES = ("generating pairs of the tensor congruence",
                  "closures run for the tensor congruence",
                  "candidate homs out of the quotient",
                  "bimorphism candidates")
# Small bounds trip the guards; huge ones let every pair through, Bfree2
# with itself the largest: 56 join and bottom pairs, and 16 classes of 16
# closures each.
_TENSOR_BOUNDS = st.one_of(st.integers(-3, 40), st.integers(10 ** 5, 10 ** 30))


@st.composite
def _tensor_factor(draw):
    """Bself, Lc3 or Bfree2, sometimes with one or two entries of its
    addition, zero or action replaced by another element, so that it
    still parses and may break a law."""
    desc = copy.deepcopy(_TENSOR_FACTORS[draw(st.sampled_from(
        list(_TENSOR_FACTORS)))])
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        key = draw(st.sampled_from(("add", "action", "zero")))
        if key == "zero":
            desc["zero"] = draw(st.integers(0, desc["size"] - 1))
        else:
            row = draw(st.sampled_from(desc[key]))
            row[draw(st.integers(0, len(row) - 1))] = \
                draw(st.integers(0, desc["size"] - 1))
    return desc


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(left=_tensor_factor(), right=_tensor_factor(),
       bounds=st.fixed_dictionaries({}, optional={
           "--max-enum": _TENSOR_BOUNDS, "--max-carrier": _TENSOR_BOUNDS}))
def test_fuzzed_tensor_bounds_keep_the_exit_contract(left, right, bounds,
                                                     tmp_path, monkeypatch):
    """tensor on Bself, Lc3 and Bfree2, some of them mutated, under drawn
    --max-enum and --max-carrier exits 0 to 3 without a traceback, and a
    second run prints the same bytes. A guard that trips names its stage,
    the estimate and the bound."""
    monkeypatch.delenv("MVSR_CONFIG", raising=False)
    argv = ["tensor", "--left", write(tmp_path / "left.json", left),
            "--right", write(tmp_path / "right.json", right)]
    argv += [f"{flag}={value}" for flag, value in bounds.items()]
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert _run(argv) == (code, out, err)
    if code == 3:
        stage, _, rest = err.removeprefix("mvsr: guard breach: ").partition(
            ": ")
        assert stage in _TENSOR_STAGES
        assert re.fullmatch(r"\d+ exceeds max_(enum|carrier)=-?\d+\n", rest)
