import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvsr.cli import main
from mvsr.jsonio import (canonical_dumps, mv_to_dict, semimodule_to_dict,
                         semiring_to_dict)
from mvsr.mv import lukasiewicz_chain, mv_product, reduct_vee_odot
from mvsr.semimodule import free_semimodule, module_over_self
from mvsr.semiring import boolean_semiring


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
    return write(tmp_path / "lawless.json", {
        "kind": "semiring", "size": 3,
        "add": [[0, 2, 2], [1, 1, 0], [0, 2, 0]],
        "mul": [[0, 0, 0], [2, 2, 2], [1, 2, 2]], "zero": 1, "one": 2})


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


def test_gamma_certificate(capsys):
    code = main(["gamma", "--u", "1", "--samples", "300", "--seed", "11"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["sum_domain"] == "nonnegative"


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
], ids=["k0-nmax-0", "k0-nmax-negative", "idempotents-n-negative",
        "chain-over-max-carrier", "gamma-samples-negative", "gamma-samples-0",
        "k0-no-trivial-class", "k0-nmax-1000", "idempotents-n-200",
        "k0-nmax-100000", "idempotents-n-100000", "chain-k-not-an-int",
        "chain-k-missing", "unknown-subcommand", "k0-nmax-not-an-int",
        "chain-k-1", "chain-k-negative"])
def test_size_arguments(chain3_file, boolean_file, lawless_file, capsys,
                        argv, code):
    files = {"{chain3}": chain3_file, "{boolean}": boolean_file,
             "{lawless}": lawless_file}
    fails_cleanly([files.get(a, a) for a in argv], code, capsys)


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
    mv_to_dict(mv_product(lukasiewicz_chain(2), lukasiewicz_chain(2))),
    semiring_to_dict(reduct_vee_odot(lukasiewicz_chain(3))),
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
    """A valid description with one to three mutations: an entry replaced
    by an out-of-range int, bool, float, str, null or 2^70, an element
    dropped from a list (a row from a table), or a key removed."""
    desc = copy.deepcopy(draw(st.sampled_from(_DESCRIPTIONS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("entry", "row", "key")))
        if kind == "entry":
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
        if kind == "entry":
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
    """k0 and verify on a mutated description exit 0 to 3 without a
    traceback, and a second run prints the same bytes."""
    monkeypatch.delenv("MVSR_CONFIG", raising=False)
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    for command in ("k0", "verify"):
        code, out, err = _run([command, "--input", str(path)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert _run([command, "--input", str(path)]) == (code, out, err)
