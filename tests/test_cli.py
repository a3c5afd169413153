import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnortc.certgen import GENERATORS, cert_case1, cert_proj
from milnortc.cli import (
    _COMMANDS,
    certificate_from_json,
    certificate_to_json,
    emit_report,
    emit_table,
    main,
)
from milnortc.bounds import BoundReport, RuleTrace, tc_bounds
from milnortc.cuplength import Certificate

ROOT = Path(__file__).resolve().parents[1]


# -- certificate files --------------------------------------------------------


def _certificate(space, n, factors, note, cat_witness):
    claimed = sum(mult for _, mult in factors)
    return Certificate(space, n, tuple(factors), claimed, note, cat_witness)


# every record the constructor accepts, whether or not it verifies
_CERTIFICATES = st.builds(
    _certificate,
    st.text(),
    st.integers(min_value=1),
    st.lists(st.tuples(st.text(), st.integers(min_value=1)), max_size=4),
    st.none() | st.text(),
    st.booleans(),
)


@settings(deadline=None)
@given(_CERTIFICATES)
@example(cert_proj(1, 3))
@example(cert_case1(1, 2, 2))
@example(cert_proj(1, 2).replace(note="written by hand"))
def test_certificate_round_trip_byte_identical(cert):
    text = certificate_to_json(cert)
    assert certificate_from_json(text) == cert
    assert certificate_to_json(certificate_from_json(text)) == text


def test_certificate_schema_rejections():
    doc = json.loads(certificate_to_json(cert_proj(1, 2)))
    doc["claimedTcLower"] = doc["claimedCup"] + 2
    with pytest.raises(ValueError, match="claimedTcLower must be claimedCup \\+ 1"):
        certificate_from_json(json.dumps(doc))
    doc = json.loads(certificate_to_json(cert_proj(1, 2)))
    doc["schemaVersion"] = 99
    with pytest.raises(ValueError, match="schema"):
        certificate_from_json(json.dumps(doc))
    with pytest.raises(ValueError):
        certificate_from_json("not json at all")
    with pytest.raises(ValueError):
        certificate_from_json('{"schemaVersion": 1}')


_RP2 = {"schemaVersion": 1, "space": "rp:2", "n": 2, "claimedCup": 3,
        "claimedTcLower": 4, "factors": [{"expr": "(x1+x2)", "multiplicity": 3}]}
_EMPTY = dict(_RP2, factors=[], claimedCup=0, claimedTcLower=1)


@pytest.mark.parametrize(
    "doc",
    [
        # x1 is no zero divisor, so only a genuine cat witness may carry it
        dict(_RP2, factors=[{"expr": "x1", "multiplicity": 2}], claimedCup=2,
             claimedTcLower=3, catWitness="no"),
        dict(_EMPTY, n=True),
        dict(_EMPTY, n=0),
        dict(_EMPTY, n=-1),
        dict(_RP2, factors=[{"expr": "(x1+x2)", "multiplicity": "3"}]),
        dict(_RP2, factors=[{"expr": "(x1+x2)", "multiplicity": 1.5},
                            {"expr": "(x1+x2)", "multiplicity": 2}]),
        dict(_RP2, claimedCup=3.0),
        dict(_RP2, claimedTcLower="4"),
        dict(_RP2, claimedTcLower=4.0),
        dict(_RP2, factors=[{"expr": 5, "multiplicity": 3}]),
        dict(_RP2, space=7),
        dict(_RP2, note=5),
        [_RP2],
        # a misspelt key is not left out: read as absent, this one would
        # turn a cat witness into a FactorNotZeroDivisor verdict
        dict(_RP2, factors=[{"expr": "x1", "multiplicity": 2}], claimedCup=2,
             claimedTcLower=3, catwitness=True),
        dict(_RP2, extra=1),
        dict(_RP2, factors=[{"expr": "(x1+x2)", "multiplicity": 3, "multiplicty": 9}]),
        dict(_RP2, note=None),
        dict(_RP2, schemaVersion=True),
        # factors that are no array: a string is not read as its characters,
        # and an empty object is no empty certificate
        dict(_RP2, factors="ab"),
        dict(_RP2, factors=3),
        dict(_EMPTY, factors={}),
    ],
    ids=["catWitness-str", "n-bool", "n-zero", "n-negative", "multiplicity-str",
         "multiplicity-float", "claimedCup-float", "claimedTcLower-str",
         "claimedTcLower-float", "expr-int",
         "space-int", "note-int", "not-an-object", "catWitness-misspelt",
         "unknown-key", "unknown-factor-key", "note-null", "schemaVersion-bool",
         "factors-str", "factors-int", "factors-object"],
)
def test_verify_refuses_mistyped_certificate_fields(doc, tmp_path, capsys):
    # nothing in a certificate file is coerced and no key is ignored: a
    # mistyped field or an unknown key is invalid input, never a verdict
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--cert", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if isinstance(doc, dict) and type(doc["factors"]) is not list:
        assert captured.err == f"error: factors must be a JSON array, got {doc['factors']!r}\n"


def test_verify_names_the_generators_of_the_ring(tmp_path, capsys):
    path = tmp_path / "cert.json"
    doc = dict(_RP2, space="rh:2,1", factors=[{"expr": "(c1+c2)", "multiplicity": 3}])
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--cert", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown generator 'c'; have ('a', 'b')\n"


# verify's output for the cat certificate at n = 2, whose factors are the
# generators of each slot: every complex generator is in degree 2
_CAT_FACTORS = {
    "ch:2,1": (("a1", 2), ("b1", 2), ("a2", 2), ("b2", 2)),
    "prod:rh2.1,cp1": (("a.1.1", 1), ("b.1.1", 1), ("x.2.1", 2),
                       ("a.1.2", 1), ("b.1.2", 1), ("x.2.2", 2)),
}
_CAT_MD = {
    "ch:2,1": """\
verdict: Verified
verifiedCup: 4
verifiedTcLower: 5
factor a1: degree 2, NOT a zero divisor
factor b1: degree 2, NOT a zero divisor
factor a2: degree 2, NOT a zero divisor
factor b2: degree 2, NOT a zero divisor
""",
    "prod:rh2.1,cp1": """\
verdict: Verified
verifiedCup: 6
verifiedTcLower: 7
factor a.1.1: degree 1, NOT a zero divisor
factor b.1.1: degree 1, NOT a zero divisor
factor x.2.1: degree 2, NOT a zero divisor
factor a.1.2: degree 1, NOT a zero divisor
factor b.1.2: degree 1, NOT a zero divisor
factor x.2.2: degree 2, NOT a zero divisor
""",
}


@pytest.mark.parametrize("space", list(_CAT_FACTORS))
def test_verify_prints_the_degrees_of_complex_generators(space, tmp_path, capsys):
    cert = tmp_path / "cat.json"
    assert main(["gen-cert", "--method", "cat", "--params", f"space={space}",
                 "--n", "2", "--out", str(cert)]) == 0
    assert main(["verify", "--cert", str(cert)]) == 0
    assert capsys.readouterr().out == _CAT_MD[space]
    assert main(["verify", "--cert", str(cert), "--format", "json"]) == 0
    cup = len(_CAT_FACTORS[space])
    doc = {"space": space, "n": 2, "verdict": "Verified", "productNonzero": True,
           "verifiedCup": cup, "verifiedTcLower": cup + 1,
           "perFactor": [{"expr": expr, "isZeroDivisor": False, "degree": degree}
                         for expr, degree in _CAT_FACTORS[space]]}
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


# -- report emission ----------------------------------------------------------


def test_emit_md_main_row():
    report = tc_bounds("rh:4,3", 2)
    text = emit_report(report, "md")
    assert "| rh:4,3 | 2 | TC | 11 | 13 |" in text


def test_emit_md_marks_an_inconsistent_report():
    lower = RuleTrace("l", "a source", "lower", 5, "claimed")
    upper = RuleTrace("u", "a source", "upper", 3, "claimed")
    text = emit_report(BoundReport("rp:2", "tc", 2, trace=(lower, upper)), "md")
    assert text.endswith("| 5 | 3 |\n\n| rule | bound | value | status |\n|---|---|---|---|\n"
                         "| l | lower | 5 | claimed |\n| u | upper | 3 | claimed |\n"
                         "\n**inconsistent: lower exceeds upper**\n")
    consistent = BoundReport("rp:2", "tc", 2, trace=(lower.replace(value=3), upper))
    assert "inconsistent" not in emit_report(consistent, "md")


def test_emit_json_stable_keys():
    report = tc_bounds("rp:2", 2)
    doc = json.loads(emit_report(report, "json"))
    assert list(doc) == [
        "space",
        "quantity",
        "n",
        "group",
        "lower",
        "upper",
        "verifiedLower",
        "inconsistent",
        "trace",
    ]
    assert doc["lower"] == 4 and doc["upper"] == 5


def test_emit_csv_header_and_rows():
    report = tc_bounds("rp:2", 2)
    lines = emit_report(report, "csv").splitlines()
    assert lines[0] == "space,n,quantity,group,lower,upper,rule,bound,value,status"
    assert len(lines) == 1 + len(report.trace)
    assert all(line.startswith("rp:2,2,TC,,4,5,") for line in lines[1:])


def test_csv_fields_survive_commas_in_space_names(capsys):
    # Milnor space strings hold a comma; every row must still read as the
    # header's ten fields
    assert main(["bounds", "--space", "rh:5,3", "--quantity", "eqtc", "--group",
                 "z2", "--n", "2", "--format", "csv"]) == 0
    assert main(["table", "--family", "rh", "--r", "2..3", "--s", "1..2",
                 "--n", "2..2", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    header = "space,n,quantity,group,lower,upper,rule,bound,value,status"
    assert text.count(header) == 2
    rows = [row for row in csv.reader(io.StringIO(text)) if row != header.split(",")]
    assert rows and all(len(row) == 10 for row in rows)
    assert {row[0] for row in rows} == {"rh:5,3", "rh:2,1", "rh:2,2", "rh:3,1", "rh:3,2"}


def test_emit_deterministic():
    report = tc_bounds("rh:4,3", 2)
    for fmt in ("md", "csv", "json"):
        assert emit_report(report, fmt) == emit_report(report, fmt)


def test_emit_empty_table_header_only():
    assert emit_table([], "md") == (
        "| space | n | quantity | lower | upper |\n|---|---|---|---|---|\n"
    )
    assert emit_table([], "csv").splitlines() == [
        "space,n,quantity,group,lower,upper,rule,bound,value,status"
    ]


def test_emit_table_sorted():
    reports = [tc_bounds("rp:2", 3), tc_bounds("rp:1", 2)]
    lines = emit_table(reports, "md").splitlines()
    assert lines[2].startswith("| rp:1 |")
    assert lines[3].startswith("| rp:2 |")


# -- command surface ----------------------------------------------------------


def test_lucas_command(capsys):
    assert main(["lucas", "--n", "7", "--k", "3"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["lucas", "--n", "4", "--k", "2"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_bounds_command_deterministic(capsys):
    argv = ["bounds", "--space", "rh:4,3", "--quantity", "tc", "--n", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "| rh:4,3 | 2 | TC | 11 | 13 |" in first


def test_bounds_eqtc_requires_group(capsys):
    argv = ["bounds", "--space", "rh:5,3", "--quantity", "eqtc", "--n", "2"]
    assert main(argv) == 2
    argv += ["--group", "z2"]
    assert main(argv) == 0
    assert "| rh:5,3 | 2 | TC_G | 11 | 15 |" in capsys.readouterr().out


def test_cup_command(capsys):
    assert main(["cup", "--space", "rp:2", "--n", "2"]) == 0
    assert capsys.readouterr().out == "3\n"


@pytest.mark.parametrize(
    "flag",
    ["--no-certs", "--no-monotonicity", "--use-oracle", "--max-slice=1", "--group=s1"],
)
def test_cat_refuses_the_tc_source_flags(flag, capsys):
    # cat has one lower-bound source and no oracle: these flags would be
    # silently ignored, so they are refused
    argv = ["bounds", "--space", "rp:2", "--quantity", "cat", "--n", "2", flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag.partition("=")[0] in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bounds", "--space", "rp:2", "--quantity", "tc", "--n", "2",
          "--group", "z2"], "--group"),
        (["table", "--family", "rp", "--r", "2..3", "--s", "1..3", "--n", "2"], "--s"),
        (["table", "--family", "rp", "--r", "2", "--n", "2", "--max-slice", "0"],
         "--max-slice"),
        (["bounds", "--space", "rp:2", "--quantity", "tc", "--n", "2",
          "--max-slice=5"], "--max-slice"),
        (["bounds", "--space", "rh:5,3", "--quantity", "eqtc", "--group", "z2",
          "--n", "2", "--max-slice", "5"], "--max-slice"),
    ],
)
def test_flags_the_mode_ignores_are_refused(argv, flag, capsys):
    # tc takes no group, the rp family no s range, and only the oracle
    # reads --max-slice; cat's refusals are checked above
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen-cert", "--method", "proj", "--params", "t=1,s=5,bogus=2", "--n", "2",
          "--out", "x.json"], "bogus"),
        (["gen-cert", "--method", "cat", "--params", "space=rp:2,depth=1", "--n", "2",
          "--out", "x.json"], "depth"),
        (["table", "--family", "rh", "--r", "5..2", "--s", "1", "--n", "2"], "--r"),
        (["table", "--family", "rp", "--r", "5..2", "--n", "2"], "--r"),
        (["table", "--family", "rh", "--r", "2..3", "--s", "3..1", "--n", "2"], "--s"),
        (["table", "--family", "rp", "--r", "2", "--n", "3..2"], "--n"),
        (["cup", "--space", "rp:2", "--n", "2", "--max-slice", "-5"], "--max-slice"),
        (["bounds", "--space", "rp:2", "--quantity", "tc", "--n", "2",
          "--max-slice=-1"], "--max-slice"),
        (["table", "--family", "rp", "--r", "2", "--n", "2", "--max-slice", "-1"],
         "--max-slice"),
        (["table", "--family", "rh", "--r", "2", "--s", "3", "--n", "2"], "--s"),
        (["gen-cert", "--method", "proj", "--params", "1,t=1", "--n", "2",
          "--out", "x.json"], "bad parameter '1'"),
        (["table", "--family", "rh", "--r", "2", "--n", "2"], "--r and --s"),
        (["table", "--family", "rp", "--n", "2"], "--r"),
        (["lucas", "--n", "-1", "--k", "2"], "non-negative"),
        (["gen-cert", "--method", "case2", "--params", "p1=2,p2=3,p1=1", "--n", "2",
          "--out", "x.json"], "--params key 'p1' is given more than once"),
        (["bounds", "--space", "rh:2,0", "--quantity", "eqtc", "--group", "s1",
          "--n", "2"],
         "no free circle action on rh:2,0: predicate returned out-of-hypothesis"),
    ],
)
def test_bad_keys_ranges_and_caps_are_refused(argv, flag, tmp_path, monkeypatch, capsys):
    # a key the method does not take, a parameter with no key, a key given
    # twice, an empty or missing range, an --r/--s pair with no cell s <= r,
    # a negative slice cap, a negative binomial argument and a group action
    # outside its predicate's hypotheses are invalid input: exit 2 naming
    # it, with no output and no file
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert list(tmp_path.iterdir()) == []


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every command of the README's CLI block, in order (verify reads the
    # file gen-cert wrote), exits 0
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("milnortc ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """A new interpreter run with args, importing milnortc from this tree."""
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_loads_no_numpy():
    # the package has no third-party runtime dependency, its value records
    # import neither dataclasses nor what that pulls in, and the command line
    # is parsed from the CLI's own option table, not by argparse.  The
    # benchmark's tracer looks each layer up in sys.modules after this import
    proc = _fresh_python(
        "-c",
        "import milnortc.cli, sys; "
        "loaded = {'numpy', 'dataclasses', 'inspect', 'argparse', 'gettext'} "
        "& set(sys.modules); "
        "assert not loaded, loaded; "
        "layers = ('gf2', 'f2algebra', 'tensorpower', 'spaces', 'exprs', "
        "'cuplength', 'certgen', 'bounds', 'cli'); "
        "missing = [m for m in layers if 'milnortc.' + m not in sys.modules]; "
        "assert not missing, missing",
    )
    assert proc.returncode == 0, proc.stderr


def test_cup_runs_neither_bounds_certgen_exprs_json_nor_csv():
    # every layer is registered when the CLI is imported, but runs only on
    # first use; the oracle command uses none of these, and without a
    # bytecode cache each module run is compiled first.  A module that has
    # run has its names in its namespace; reading the namespace through
    # object.__getattribute__ does not run it
    proc = _fresh_python(
        "-c",
        "import sys\n"
        "from milnortc.cli import main\n"
        "assert main(['cup', '--space', 'rh:4,2', '--n', '3']) == 0\n"
        "names = {'bounds': 'tc_bounds', 'certgen': 'GENERATORS', "
        "'exprs': 'evaluate_text', 'cuplength': 'cup_exact'}\n"
        "ran = {m: name in object.__getattribute__(sys.modules['milnortc.' + m], "
        "'__dict__') for m, name in names.items()}\n"
        "print(ran, sorted({'json', 'csv', 'argparse', 'gettext'} & set(sys.modules)))\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "15\n{'bounds': False, 'certgen': False, 'exprs': False, 'cuplength': True} []\n"
    )


def test_package_names_resolve_to_their_submodules():
    import importlib

    import milnortc

    assert milnortc.__all__ == sorted(milnortc._EXPORTS)
    for name in milnortc.__all__:
        module = importlib.import_module(f"milnortc.{milnortc._EXPORTS[name]}")
        assert getattr(milnortc, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="^module 'milnortc' has no attribute 'bogus'$"):
        milnortc.bogus


def test_cli_module_runs_without_a_warning():
    # a cli registered before it runs as __main__ would make runpy warn
    proc = _fresh_python("-W", "error", "-m", "milnortc.cli", "lucas", "--n", "5",
                         "--k", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


@pytest.mark.parametrize("module, frozen", [("milnortc.cli", True), ("milnortc", False)])
def test_importing_the_cli_freezes_the_heap_at_exit(module, frozen):
    # exit hooks run last in first out, so a hook registered before the
    # import runs after the CLI's own; only the CLI registers the freeze
    proc = _fresh_python(
        "-c",
        "import atexit, gc\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        f"import {module}\n",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{frozen}\n", "")


def test_a_cli_process_writes_what_main_writes_in_process(tmp_path, capsys):
    # the interpreter flushes stdio after the exit freeze, and --out files
    # are closed before main() returns, so a command run as its own process
    # exits, prints and writes as main() does in process
    def commands(cert):
        return [["gen-cert", "--method", "case2", "--params", "p1=1,p2=1", "--n", "3",
                 "--out", str(cert)], ["verify", "--cert", str(cert)]]

    spawned, direct = tmp_path / "process.json", tmp_path / "in-process.json"
    procs = [_fresh_python("-m", "milnortc.cli", *argv) for argv in commands(spawned)]
    in_process = []
    for argv in commands(direct):
        in_process.append((main(argv), capsys.readouterr().out))
    assert [(p.returncode, p.stdout) for p in procs] == in_process
    assert spawned.read_bytes() == direct.read_bytes()
    assert in_process[0] == (0, "") and in_process[1][0] == 0
    assert "verdict: Verified" in in_process[1][1]


def test_gen_cert_method_choices_are_the_generators_and_cat():
    # the CLI writes the methods out, so that its option table does not run
    # certgen
    kind, _, _ = _COMMANDS["gen-cert"][1]["--method"]
    assert kind == (*GENERATORS, "cat")


def test_benchmark_tracer_finds_the_layer_functions(tmp_path):
    # perfbench/tracer.py wraps these names from outside; renaming one
    # silently empties a per-layer metric of the traced benchmark run.
    # This checks names and counts only, not the oracle-cache key the
    # tracer also reads.
    mark, trace = tmp_path / "mark", tmp_path / "trace.json"
    proc = _fresh_python(str(ROOT / "perfbench" / "tracer.py"), str(mark), str(trace),
                         "cup", "--space", "rp:2", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3\n"
    doc = json.loads(trace.read_text(encoding="utf-8"))
    for name in ("cuplength.cup_exact", "gf2.image", "gf2.independent_rows",
                 "tensorpower.tensor_slice"):
        assert name in doc["functions"]
    assert doc["counts"]["f2algebra.mono_mul.calls"] > 0


def test_benchmark_tracer_traces_a_verify_run(tmp_path):
    # tensor products run in f2algebra.multiply; the traced certify run
    # relies on the tracer wrapping it and dumping the trace afterwards
    mark, trace, cert = tmp_path / "mark", tmp_path / "trace.json", tmp_path / "c.json"
    cert.write_text(certificate_to_json(cert_proj(1, 2)), encoding="utf-8")
    proc = _fresh_python(str(ROOT / "perfbench" / "tracer.py"), str(mark), str(trace),
                         "verify", "--cert", str(cert))
    assert proc.returncode == 0, proc.stderr
    assert "verdict: Verified" in proc.stdout
    doc = json.loads(trace.read_text(encoding="utf-8"))
    for name in ("f2algebra.multiply", "cuplength.verify_certificate"):
        assert name in doc["functions"]


def test_cup_resource_limit_exit_3():
    assert main(["cup", "--space", "rp:4", "--n", "3", "--max-slice", "4"]) == 3


def test_the_default_cap_refuses_rh_16_9_at_n_3_from_sizes_alone(monkeypatch, capsys):
    # its largest slice (168,256 monomials) is above the default 2^16, and
    # the degree-23 slice is the first one over it; the refusal reads the
    # slice dimensions only, so no slice is built
    from milnortc import cuplength

    calls = []
    monkeypatch.setattr(cuplength, "tensor_slice", lambda *a: calls.append(a))
    assert main(["cup", "--space", "rh:16,9", "--n", "3"]) == 3
    assert capsys.readouterr().err == (
        "resource limit: degree-23 slice has dimension 70368, above the cap 65536\n"
    )
    assert calls == []


def test_invalid_input_exit_2(capsys):
    assert main(["bounds", "--space", "nonsense", "--quantity", "tc", "--n", "2"]) == 2
    assert main(["cup", "--space", "rp:2"]) == 2  # missing --n
    assert main(["bogus-subcommand"]) == 2
    assert main(["bounds", "--space", "rh:4,3", "--quantity", "eqtc", "--n", "2",
                 "--group", "s1"]) == 2  # refusal: no free action
    capsys.readouterr()


_USAGE_ERRORS = [
    ([], "a command is required"),
    (["bogus"], "'bogus'"),
    (["cup", "--space", "rp:2", "--n", "2", "--bogus"], "--bogus"),
    (["cup", "--space", "rp:2", "--n"], "--n"),
    (["gen-cert", "--method", "proj", "--params", "t=1", "--out", "--n", "2"], "--out"),
    (["lucas", "--n", "x", "--k", "1"], "--n"),
    (["bounds", "--space", "rp:2", "--quantity", "xx", "--n", "2"], "--quantity"),
    (["verify", "--cert", "c.json", "--format=csv"], "--format"),
    (["cup", "--space", "rp:2"], "--n"),
    (["cup", "--space", "rp:2", "--n", "2", "--n", "3"], "--n"),
    (["table", "--family", "rp", "--r", "2", "--n", "2", "--use-oracle",
      "--use-oracle"], "--use-oracle"),
    (["bounds", "--space", "rp:2", "--quantity", "tc", "--n", "2", "--use"], "--use"),
    (["bounds", "--space", "rp:2", "--quantity", "tc", "--n", "2", "--use-oracle=1"],
     "--use-oracle"),
    (["cup", "rp:2", "--n", "2"], "'rp:2'"),
    (["table", "--family", "rp", "--r", "2", "--n", "x"], "--n"),
    (["table", "--family", "rh", "--r", "2..", "--s", "1", "--n", "2"], "--r"),
    (["table", "--family", "rh", "--r", "2", "--s", "a..1", "--n", "2"], "--s"),
    (["gen-cert", "--method", "proj", "--params", "t=x", "--n", "2", "--out", "f"],
     "--params key 't'"),
]


@pytest.mark.parametrize(
    "argv, named", _USAGE_ERRORS,
    ids=["no-command", "unknown-command", "unknown-option", "missing-value",
         "value-is-an-option", "non-int", "bad-choice", "bad-choice-after-equals",
         "missing-required", "repeated-option", "repeated-flag", "abbreviation",
         "flag-with-value", "stray-argument", "non-int-range", "open-range",
         "non-int-range-end", "non-int-param"],
)
def test_usage_errors_exit_2_naming_the_option(argv, named, tmp_path, monkeypatch,
                                               capsys):
    # every usage error is one error line on stderr, with no output and no file
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert list(tmp_path.iterdir()) == []


def test_help_lists_the_commands(capsys):
    for flag in ("--help", "-h"):
        assert main([flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        for command, (summary, _) in _COMMANDS.items():
            assert f"  {command}" in captured.out and summary in captured.out


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_command_help_lists_its_options(command, capsys):
    assert main([command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: milnortc {command} ")
    for option, (_, _, text) in _COMMANDS[command][1].items():
        assert f"  {option}" in captured.out and text in captured.out


def test_no_argv_reads_the_process_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["milnortc", "lucas", "--n", "7", "--k", "3"])
    assert main() == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize(
    "argv",
    [["cup", "--space", "rp:4", "--n", "3"],
     ["bounds", "--space", "rh:3,2", "--quantity", "tc", "--n", "3", "--use-oracle",
      "--format", "json"],
     ["table", "--family", "rp", "--r", "3..4", "--n", "3", "--use-oracle",
      "--format", "csv"]],
)
@pytest.mark.parametrize("cap", [5, 140])
def test_an_option_and_its_value_may_be_joined_by_equals(argv, cap, capsys):
    # --max-slice=5 is --max-slice 5: same exit code, output and error
    results = []
    for tail in (["--max-slice", str(cap)], [f"--max-slice={cap}"]):
        code = main(argv + tail)
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == (3 if argv[0] == "cup" and cap == 5 else 0)


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_bounds_shows_an_oracle_over_its_cap_as_a_skipped_row(fmt, capsys):
    # rh:3,2 at n = 3 has a largest slice of 141 monomials: under a cap of
    # 140 the report is the one without the oracle plus one skipped row
    argv = ["bounds", "--space", "rh:3,2", "--quantity", "tc", "--n", "3",
            "--format", fmt]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--use-oracle", "--max-slice", "140"]) == 0
    capped = capsys.readouterr().out
    if fmt == "json":
        doc = json.loads(capped)
        skipped = [t for t in doc["trace"] if t["status"] == "skipped"]
        assert skipped == [{
            "rule": "ideal-power-oracle",
            "source": "degree-6 slice has dimension 141, above the cap 140",
            "bound": "lower", "value": None, "status": "skipped"}]
        doc["trace"].remove(skipped[0])
        assert doc == json.loads(plain)
    else:
        row = {"md": "| ideal-power-oracle | lower | None | skipped |",
               "csv": '"rh:3,2",3,TC,,11,13,ideal-power-oracle,lower,,skipped'}[fmt]
        lines = capped.splitlines()
        lines.remove(row)
        assert lines == plain.splitlines()


def test_milnor_r_zero_exit_2(capsys):
    # r = 0 is the zero ring, not a manifold; refuse it before any rule runs
    assert main(["bounds", "--space", "rh:0,0", "--quantity", "cat", "--n", "2"]) == 2
    assert "requires r >= 1" in capsys.readouterr().err
    assert main(["table", "--family", "rh", "--r", "0..1", "--s", "0..1",
                 "--n", "2"]) == 2
    assert "requires r >= 1" in capsys.readouterr().err


def test_verify_command_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text(certificate_to_json(cert_proj(1, 2)), encoding="utf-8")
    assert main(["verify", "--cert", str(ok)]) == 0
    out = capsys.readouterr().out
    assert "verifiedCup: 3" in out

    bad = tmp_path / "bad.json"
    assert main(["gen-cert", "--method", "r2t", "--params", "s=1,t=1",
                 "--n", "2", "--out", str(bad)]) == 0
    assert main(["verify", "--cert", str(bad)]) == 1
    assert "ProductVanishes" in capsys.readouterr().out

    assert main(["verify", "--cert", str(tmp_path / "missing.json")]) == 2


def test_verify_json_format(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text(certificate_to_json(cert_proj(1, 2)), encoding="utf-8")
    assert main(["verify", "--cert", str(ok), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["space", "n", "verdict", "productNonzero", "verifiedCup",
                         "verifiedTcLower", "perFactor"]
    assert (doc["space"], doc["n"], doc["verdict"]) == ("rp:2", 2, "Verified")
    assert (doc["productNonzero"], doc["verifiedCup"], doc["verifiedTcLower"]) == (
        True, 3, 4)
    assert doc["perFactor"] == [
        {"expr": "(x1+x2)", "isZeroDivisor": True, "degree": 1}
    ]

    bad = tmp_path / "bad.json"
    assert main(["gen-cert", "--method", "r2t", "--params", "s=1,t=1",
                 "--n", "2", "--out", str(bad)]) == 0
    capsys.readouterr()
    assert main(["verify", "--cert", str(bad), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["space"], doc["verdict"], doc["productNonzero"]) == (
        "rh:2,1", "ProductVanishes", False)
    assert doc["verifiedCup"] is None and doc["verifiedTcLower"] is None
    assert all(f["isZeroDivisor"] for f in doc["perFactor"])


def test_gen_cert_round_trip(tmp_path):
    out = tmp_path / "c.json"
    assert main(["gen-cert", "--method", "case1", "--params", "t1=1,t2=2",
                 "--n", "2", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert certificate_from_json(text) == cert_case1(1, 2, 2)
    assert certificate_to_json(certificate_from_json(text)) == text


# one value for each parameter name of the table, inside every hypothesis;
# the builders are called by keyword, so a name or an order the table gets
# wrong writes a different file
GENERATOR_PARAMS = {"t1": 1, "t2": 2, "p1": 0, "p2": 1, "s": 3, "t": 2}


@pytest.mark.parametrize("method", list(GENERATORS))
def test_gen_cert_writes_each_table_generator(method, tmp_path):
    build, names = GENERATORS[method]
    kwargs = {name: GENERATOR_PARAMS[name] for name in names}
    params = ",".join(f"{name}={v}" for name, v in kwargs.items())
    out = tmp_path / "c.json"
    assert main(["gen-cert", "--method", method, "--params", params,
                 "--n", "3", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == certificate_to_json(build(**kwargs, n=3))


def test_gen_cert_cat_method(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["gen-cert", "--method", "cat", "--params", "space=rh:2,1",
                 "--n", "2", "--out", str(out)]) == 0
    cert = certificate_from_json(out.read_text(encoding="utf-8"))
    assert cert.cat_witness
    assert main(["verify", "--cert", str(out)]) == 0
    # any space, not only a Milnor manifold
    assert main(["gen-cert", "--method", "cat", "--params", "space=prod:rp3,cp1",
                 "--n", "2", "--out", str(out)]) == 0
    assert main(["verify", "--cert", str(out)]) == 0
    capsys.readouterr()


def test_gen_cert_skips_empty_params_pieces(tmp_path):
    # an empty piece, from a doubled, leading or trailing comma, is skipped
    plain, padded = tmp_path / "plain.json", tmp_path / "padded.json"
    assert main(["gen-cert", "--method", "case1", "--params", "t1=1,t2=2",
                 "--n", "2", "--out", str(plain)]) == 0
    assert main(["gen-cert", "--method", "case1", "--params", ",t1=1,,",
                 "--params", "t2=2,", "--n", "2", "--out", str(padded)]) == 0
    assert padded.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("emit", [emit_report, emit_table])
def test_emitters_refuse_an_unknown_format(emit):
    report = tc_bounds("rp:2", 2)
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        emit(report if emit is emit_report else [report], "xml")


def test_gen_cert_missing_params(capsys):
    assert main(["gen-cert", "--method", "case1", "--n", "2",
                 "--out", "/dev/null"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", [4, 8])
def test_gen_cert_failed_search_exits_1_with_no_file(tmp_path, capsys, n):
    out = tmp_path / "c.json"
    assert main(["gen-cert", "--method", "case2", "--params", "p1=2,p2=3",
                 "--n", str(n), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certificate search failed: no bridging classes gave"
                            " a nonzero product\n")
    assert not out.exists()


def test_table_command(capsys):
    assert main(["table", "--family", "rp", "--r", "1..2", "--n", "2..2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| space | n | quantity | lower | upper |"
    assert len(lines) == 4  # header, separator, two rows
    assert main(["table", "--family", "rh", "--r", "2..3", "--s", "1..1",
                 "--n", "2..2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("space,n,quantity,group,lower,upper")


def test_table_skips_invalid_rs(capsys):
    # s > r cells are skipped, not errors
    assert main(["table", "--family", "rh", "--r", "2..2", "--s", "1..3",
                 "--n", "2..2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 2  # (2,1) and (2,2) only
