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

from milnortc import certgen
from milnortc.certgen import cert_case1, cert_cat_topclass, cert_proj
from milnortc.certfile import certificate_from_json, certificate_to_json
from milnortc.cli import _COMMANDS, _METHODS, main
from milnortc.bounds import BoundReport, RuleTrace, emit_report, emit_table, tc_bounds
from milnortc.exprs import Certificate
from milnortc.spaces import (
    ComplexMilnor,
    ComplexProj,
    ProductSpace,
    RealMilnor,
    RealProj,
    parse_space,
)

ROOT = Path(__file__).resolve().parents[1]


# -- certificate files --------------------------------------------------------


def _certificate(space, n, factors, note, cat_witness):
    claimed = sum(mult for _, mult in factors)
    return Certificate(space, n, tuple(factors), claimed, note, cat_witness)


def _milnor(family):
    return st.integers(min_value=1).flatmap(
        lambda r: st.builds(family, st.just(r), st.integers(min_value=0, max_value=r)))


_FACTOR_SPACES = st.one_of(
    _milnor(RealMilnor),
    _milnor(ComplexMilnor),
    st.builds(RealProj, st.integers(min_value=0)),
    st.builds(ComplexProj, st.integers(min_value=0)),
)
# every space descriptor
_SPACES = _FACTOR_SPACES | st.builds(
    ProductSpace, st.lists(_FACTOR_SPACES, min_size=1, max_size=3).map(tuple))

# every record the constructor accepts, whether or not it verifies
_CERTIFICATES = st.builds(
    _certificate,
    _SPACES,
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


@pytest.mark.parametrize(
    "space, message",
    [
        (7, "space must be a JSON string, got 7"),
        (None, "space must be a JSON string, got None"),
        ("xx:1", "space 'xx:1': unknown space family 'xx'"),
        ("rh:2,3", "space 'rh:2,3': Milnor manifold requires r >= 1 and 0 <= s <= r, "
                   "got r=2, s=3"),
        ("RH:2,1", "space 'RH:2,1': unknown space family 'RH'"),
        (" rp:2", "space ' rp:2': unknown space family ' rp'"),
        ("rp:02", "space 'rp:02': numbers must be written with no leading zero and no -0, "
                  "got 'rp:02'"),
        ("prod:rp2,cp01", "space 'prod:rp2,cp01': cannot parse product factor 'cp01'"),
    ],
)
def test_verify_refuses_a_space_that_is_not_canonical_text(space, message, tmp_path,
                                                            capsys):
    # the reader parses the space, which must be the text the writer writes
    # for it, so every file it accepts is written back byte for byte
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(_RP2, space=space)), encoding="utf-8")
    assert main(["verify", "--cert", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("text, space", [("ch:3,2", ComplexMilnor(3, 2)),
                                         ("prod:rh2.1,cp1", ProductSpace((RealMilnor(2, 1),
                                                                         ComplexProj(1))))])
def test_gen_cert_writes_a_space_that_reads_back(text, space, tmp_path, capsys):
    path = tmp_path / "cat.json"
    assert main(["gen-cert", "--method", "cat", "--params", f"space={text}", "--n", "3",
                 "--out", str(path)]) == 0
    cert = certificate_from_json(path.read_text(encoding="utf-8"))
    assert cert == cert_cat_topclass(space, 3)
    assert cert.space == space
    assert json.loads(path.read_text(encoding="utf-8"))["space"] == text
    assert capsys.readouterr() == ("", "")


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
    report = tc_bounds(parse_space("rh:4,3"), 2)
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
    report = tc_bounds(parse_space("rp:2"), 2)
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
    report = tc_bounds(parse_space("rp:2"), 2)
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
    report = tc_bounds(parse_space("rh:4,3"), 2)
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
    reports = [tc_bounds(parse_space("rp:2"), 3), tc_bounds(parse_space("rp:1"), 2)]
    lines = emit_table(reports, "md").splitlines()
    assert lines[2].startswith("| rp:1 |")
    assert lines[3].startswith("| rp:2 |")


# -- command surface ----------------------------------------------------------


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
    # silently ignored, so they are refused; --max-slice, the option of the
    # slice cap that the oracle's row budget replaced, is refused by every
    # command
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
    # tc takes no group, the rp family no s range, and no command takes
    # --max-slice any more; cat's refusals are checked above
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
        (["gen-cert", "--method", "proj", "--params", "t=-1", "--n", "2",
          "--out", "x.json"], "non-negative"),
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
    # the removed --max-slice, a negative certificate parameter and a group
    # action outside its predicate's hypotheses are invalid input: exit 2
    # naming it, with no output and no file
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


def _fresh_python(*args, path=()) -> subprocess.CompletedProcess:
    """A new interpreter run with args, importing milnortc from this tree,
    and then from the directories path."""
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *map(str, path)])),
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


def _modules_run(commands) -> subprocess.CompletedProcess:
    """A new interpreter that imports the CLI and runs each (argv, exit
    code) of commands in process, printing their stdout, then which layers
    ran, in the package's order, and which of json, csv, argparse, gettext
    and __future__ it imported.  Every layer is registered when the CLI is
    imported, but runs only on first use, and a layer that has not run is
    still of its lazy module type, which type() reads without running it."""
    return _fresh_python(
        "-c",
        "import sys\n"
        "import milnortc\n"
        "from milnortc.cli import main\n"
        f"for argv, code in {commands!r}:\n"
        "    assert main(argv) == code, argv\n"
        "ran = [m for m in milnortc._LAYERS if type(sys.modules['milnortc.' + m]) "
        "is type(sys)]\n"
        "print(ran, sorted({'json', 'csv', 'argparse', 'gettext', '__future__'} "
        "& set(sys.modules)))\n",
    )


# importing the CLI runs only errors; a command that reads a space runs the
# rings, the oracle adds its cache and its program, and from n = 3 on, where
# it keeps a frontier of states, their GF(2) echelon forms; a certificate
# file adds the expressions and the element arithmetic and certfile, which
# holds the bodies of verify and gen-cert, and a certificate's check the
# module that holds it, cuplength, but neither the oracle's program nor any
# GF(2) linear algebra.  bounds, table and --help run the bodies of
# commands.  No command runs the empty tensorpower, and none imports
# __future__
_RINGS = {"record", "errors", "f2algebra", "spaces"}
_ORACLE = _RINGS | {"slotchain", "cuplength"}
_FILES = _RINGS | {"exprs", "certfile"}
_REPORTS = _RINGS | {"exprs", "cuplength", "certgen", "bounds", "commands"}


def _gen_cert(method, params, n="2"):
    """A census row of gen-cert writing {cert}, which runs the builder's
    module, and the check's too for case2, which verifies what it builds."""
    layers = _FILES | {"certgen"} | ({"cuplength"} if method == "case2" else set())
    argv = ["gen-cert", "--method", method, "--params", params, "--n", n, "--out", "{cert}"]
    return [(argv, 0)], "", "", layers, ["json"]


# (commands, their stdout or None where it is long, their stderr, the
# layers they run, the modules of json, csv, argparse, gettext and
# __future__ they import); {cert} is a certificate file of cert_proj(1, 2)
_CENSUS = [
    ([], "", "", {"errors"}, []),
    ([(["--help"], 0)], None, "", {"errors", "commands"}, []),
    # the oracle builds no certificate, multiplies no element and writes no
    # report or file, so it runs none of commands, exprs, certgen, bounds
    # and certfile; without a bytecode cache each module run is compiled
    # first
    ([(["cup", "--space", "rh:4,2", "--n", "3"], 0)], "15\n", "", _ORACLE | {"gf2"}, []),
    ([(["cup", "--space", "prod:rp2,rh2.1", "--n", "3"], 0)], "12\n", "",
     _ORACLE | {"gf2"}, []),
    ([(["verify", "--cert", "{cert}"], 0)], None, "", _FILES | {"cuplength"}, ["json"]),
    _gen_cert("proj", "t=1"),
    _gen_cert("case1", "t1=0,t2=1"),
    _gen_cert("r2t", "s=1,t=1"),
    _gen_cert("cat", "space=rh:2,1"),
    _gen_cert("case2", "p1=1,p2=1", n="3"),
    ([(["bounds", "--space", "rh:4,3", "--quantity", "tc", "--n", "2"], 0)], None, "",
     _REPORTS, []),
    ([(["bounds", "--space", "rh:4,3", "--quantity", "tc", "--n", "2", "--use-oracle"],
       0)], None, "", _REPORTS | _ORACLE, []),
    ([(["table", "--family", "rp", "--r", "2", "--n", "2"], 0)], None, "", _REPORTS, []),
    ([(["table", "--family", "rp", "--r", "2", "--n", "2", "--use-oracle"], 0)], None, "",
     _REPORTS | _ORACLE, []),
]


@pytest.mark.parametrize(
    "commands, out, err, layers, modules", _CENSUS,
    ids=["import-runs-only-errors", "help", "cup", "cup-product", "verify",
         "gen-cert", "gen-cert-case1", "gen-cert-r2t", "gen-cert-cat", "gen-cert-case2",
         "bounds", "bounds-oracle", "table", "table-oracle"],
)
def test_each_command_runs_only_the_layers_it_calls(commands, out, err, layers, modules,
                                                    tmp_path):
    import milnortc

    cert = tmp_path / "c.json"
    cert.write_text(certificate_to_json(cert_proj(1, 2)), encoding="utf-8")
    commands = [([a.format(cert=cert) for a in argv], code) for argv, code in commands]
    proc = _modules_run(commands)
    census = f"{[m for m in milnortc._LAYERS if m in layers]!r} {modules!r}\n"
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == err
    assert proc.stdout.endswith(census)
    if out is not None:
        assert proc.stdout == out + census


def test_certificate_records_and_tensor_power_elements_are_defined_in_exprs():
    # the oracle's modules hold only the oracle, and cli only what cup runs,
    # so cup, which runs neither exprs nor commands (see the census above),
    # compiles none of these
    from milnortc import cli, cuplength, exprs, f2algebra, tensorpower

    moved = {
        tensorpower: ("TensorPower", "tensor_power", "inject", "diagonal_eval"),
        cuplength: ("Certificate", "FactorCheck", "VerificationReport", "SearchFailure",
                    "is_zero_divisor", "_slots"),
        f2algebra: ("Element", "generator", "multiply", "power", "unit", "zero",
                    "_check_same"),
    }
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert getattr(exprs, name).__module__ == "milnortc.exprs", name
    assert "_POWER_CACHE" in vars(exprs) and not hasattr(tensorpower, "_POWER_CACHE")
    assert cuplength.verify_certificate.__module__ == "milnortc.cuplength"
    assert [name for name in vars(tensorpower) if not name.startswith("_")] == []
    for name in ("_cmd_bounds", "_cmd_table", "_cmd_verify", "_cmd_gen_cert", "_usage",
                 "_params", "_parse_range"):
        assert not hasattr(cli, name), name


def test_the_oracle_program_is_in_slotchain_and_the_certificate_bodies_in_certfile():
    # verify and gen-cert compile neither the oracle's program nor commands,
    # and cup compiles neither certificate body (see the census above)
    from milnortc import certfile, certgen, commands, cuplength, slotchain

    for name in ("BUDGET", "_over_budget", "_apply", "_choices", "_contract", "_within",
                 "_prune", "_oracle"):
        assert not hasattr(cuplength, name), name
        assert name in vars(slotchain), name
    for name in ("verify_certificate", "_CUP_CACHE", "_product_run", "_run", "cup_exact",
                 "cup_witness"):
        assert name in vars(cuplength), name
    assert not hasattr(certgen, "verify_certificate")
    for name in ("_cmd_verify", "_cmd_gen_cert", "_params"):
        assert getattr(certfile, name).__module__ == "milnortc.certfile", name
        assert not hasattr(commands, name), name
    for name in ("_cmd_bounds", "_cmd_table", "_usage"):
        assert getattr(commands, name).__module__ == "milnortc.commands", name
    # the program never runs the module that caches its runs
    proc = _fresh_python(
        "-c",
        "import sys\n"
        "from milnortc import slotchain, spaces\n"
        "P = spaces.cohomology_of(spaces.RealProj(4))\n"
        "value = slotchain._oracle(P, 3)[0]\n"
        "print(value, type(sys.modules['milnortc.cuplength']) is type(sys))\n",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "12 False\n", "")


def test_package_names_resolve_to_their_submodules():
    import importlib

    import milnortc

    assert milnortc.__all__ == sorted(milnortc._EXPORTS)
    for name in milnortc.__all__:
        module = importlib.import_module(f"milnortc.{milnortc._EXPORTS[name]}")
        assert getattr(milnortc, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="^module 'milnortc' has no attribute 'bogus'$"):
        milnortc.bogus


# a sitecustomize module, which the interpreter imports before it runs
# python -m milnortc.cli: it counts the exit freezes registered, and an exit
# hook registered before any other, so run after all of them, writes to
# stderr whether a module named milnortc.cli was imported, that count and
# whether the heap is frozen
_EXIT_CENSUS = """\
import atexit, gc, sys

_freezes = []
_register = atexit.register


def _counting(fn, *args, **kwargs):
    _freezes.append(fn is gc.freeze)
    return _register(fn, *args, **kwargs)


atexit.register = _counting
_register(lambda: sys.stderr.write(
    f"{'milnortc.cli' in sys.modules} {sum(_freezes)} {gc.get_freeze_count() > 0}\\n"))
"""


def test_cli_module_runs_without_a_warning(tmp_path, capsys, monkeypatch):
    # a cli registered before it runs as __main__ would make runpy warn, and
    # a cli imported by name, as by commands, would run a second time beside
    # __main__ and register a second exit freeze.  Each command, run so,
    # writes what main() writes in process
    (tmp_path / "sitecustomize.py").write_text(_EXIT_CENSUS, encoding="utf-8")
    cert = str(tmp_path / "c.json")
    monkeypatch.chdir(tmp_path)
    for argv in (["cup", "--space", "rp:1", "--n", "2"], ["--help"],
                 ["table", "--family", "rp", "--r", "2", "--n", "2"],
                 ["bounds", "--space", "rh:4,3", "--quantity", "tc", "--n", "2"],
                 ["gen-cert", "--method", "proj", "--params", "t=1", "--n", "2",
                  "--out", cert],
                 ["verify", "--cert", cert]):
        code = main(argv)
        out = capsys.readouterr().out
        proc = _fresh_python("-W", "error", "-m", "milnortc.cli", *argv, path=[tmp_path])
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out, "False 1 True\n"), argv
    assert code == 0 and "verdict: Verified" in out


@pytest.mark.parametrize("module, frozen", [("milnortc.cli", True), ("milnortc", False)])
def test_importing_the_cli_freezes_the_heap_at_exit(module, frozen, tmp_path):
    # exit hooks run last in first out, so a hook registered before the
    # import runs after the CLI's own; only the CLI registers the freeze,
    # and only once
    (tmp_path / "sitecustomize.py").write_text(_EXIT_CENSUS, encoding="utf-8")
    proc = _fresh_python("-c", f"import {module}\n", path=[tmp_path])
    census = f"{module == 'milnortc.cli'} {int(frozen)} {frozen}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", census)


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


def test_each_gen_cert_method_names_a_builder_of_its_keys_and_n():
    # the method table names each builder, so that the option table does not
    # run certgen; its --params keys are the builder's parameters before n
    import inspect

    for method, (name, keys) in _METHODS.items():
        params = inspect.signature(getattr(certgen, name)).parameters
        assert list(params) == [*keys, "n"], method


def test_benchmark_tracer_finds_the_layer_functions(tmp_path):
    # perfbench/tracer.py wraps these names from outside; renaming one
    # silently empties a per-layer metric of the traced benchmark run.
    # This checks names and counts only, not the oracle-cache key the
    # tracer also reads.
    mark, trace = tmp_path / "mark", tmp_path / "trace.json"
    proc = _fresh_python(str(ROOT / "perfbench" / "tracer.py"), str(mark), str(trace),
                         "cup", "--space", "rp:2", "--n", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "6\n"
    doc = json.loads(trace.read_text(encoding="utf-8"))
    for name in ("cuplength.cup_exact", "gf2.echelon"):
        assert name in doc["functions"]
    assert doc["counts"]["f2algebra.mono_mul.calls"] > 0


def test_benchmark_tracer_spans_the_report_text(tmp_path):
    # the report is written by the bounds layer, which the tracer wraps, so
    # its formatting time is the writer's span, not the CLI's self time
    mark, trace = tmp_path / "mark", tmp_path / "trace.json"
    proc = _fresh_python(str(ROOT / "perfbench" / "tracer.py"), str(mark), str(trace),
                         "bounds", "--space", "rh:4,3", "--quantity", "tc", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("| space | n | quantity | lower | upper |\n")
    doc = json.loads(trace.read_text(encoding="utf-8"))
    for name in ("bounds.tc_bounds", "bounds.emit_report"):
        assert doc["functions"][name]["calls"] == 1, name


def test_benchmark_tracer_spans_the_gen_cert_builder(tmp_path):
    # gen-cert calls its builder through the certgen module, where the
    # tracer binds its wrapper, so the builder has a span and the verified
    # case-2 certificate counts as one search attempt
    mark, trace, out = tmp_path / "mark", tmp_path / "trace.json", tmp_path / "c.json"
    proc = _fresh_python(str(ROOT / "perfbench" / "tracer.py"), str(mark), str(trace),
                         "gen-cert", "--method", "case2", "--params", "p1=1,p2=1",
                         "--n", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert certificate_from_json(out.read_text(encoding="utf-8")).n == 3
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert doc["functions"]["certgen.cert_case2"]["calls"] == 1
    assert doc["counts"]["certgen.search_attempts"] == 1


def test_benchmark_tracer_traces_a_verify_run(tmp_path):
    # tensor products run in exprs.multiply; the traced certify run
    # relies on the tracer wrapping it and dumping the trace afterwards
    mark, trace, cert = tmp_path / "mark", tmp_path / "trace.json", tmp_path / "c.json"
    cert.write_text(certificate_to_json(cert_proj(1, 2)), encoding="utf-8")
    proc = _fresh_python(str(ROOT / "perfbench" / "tracer.py"), str(mark), str(trace),
                         "verify", "--cert", str(cert))
    assert proc.returncode == 0, proc.stderr
    assert "verdict: Verified" in proc.stdout
    doc = json.loads(trace.read_text(encoding="utf-8"))
    for name in ("exprs.multiply", "cuplength.verify_certificate"):
        assert name in doc["functions"]


def test_cup_resource_limit_exit_3(monkeypatch, capsys):
    # counts, not times: rp:4 at n = 3 forms 58 rows, over a budget of 57
    from milnortc import cuplength, slotchain

    monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
    monkeypatch.setattr(slotchain, "BUDGET", 57)
    assert main(["cup", "--space", "rp:4", "--n", "3"]) == 3
    assert capsys.readouterr() == (
        "", "resource limit: the oracle needs more than its budget of 57 rows\n")


def test_cup_answers_rh_16_9_at_n_3_within_the_budget(capsys):
    # 629,768 rows; its largest degree slice, 168,256 monomials, was over
    # the 2^16 slice cap that the row budget replaced
    assert main(["cup", "--space", "rh:16,9", "--n", "3"]) == 0
    assert capsys.readouterr() == ("72\n", "")


def test_invalid_input_exit_2(capsys):
    assert main(["bounds", "--space", "nonsense", "--quantity", "tc", "--n", "2"]) == 2
    assert main(["cup", "--space", "rp:2"]) == 2  # missing --n
    assert main(["bogus-subcommand"]) == 2
    assert main(["bounds", "--space", "rh:4,3", "--quantity", "eqtc", "--n", "2",
                 "--group", "s1"]) == 2  # refusal: no free action
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, err",
    [
        (["cup", "--space", "rp:1,2", "--n", "2"],
         "error: --space: expected 'rp:m', got 'rp:1,2'\n"),
        (["cup", "--space", "rh:4,x", "--n", "2"],
         "error: --space: expected 'rh:r,s', got 'rh:4,x'\n"),
        # the text is read as written, as the certificate-file reader reads it
        (["bounds", "--space", " RH:5,3", "--quantity", "tc", "--n", "2"],
         "error: --space: unknown space family ' RH'\n"),
        (["gen-cert", "--method", "cat", "--params", "space=rp:x", "--n", "2",
          "--out", "c.json"],
         "error: --params key 'space': expected 'rp:m', got 'rp:x'\n"),
    ],
    ids=["rp-two-fields", "rh-not-a-number", "padded-capitals", "gen-cert-cat"],
)
def test_space_refusals_name_the_option_and_the_space(argv, err, tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


def test_cup_on_a_product_over_the_cap_runs_its_factors(monkeypatch, capsys):
    # the Klein bottle squared at n = 5: run on its own ring, the oracle
    # would form 42,374 rows, over a budget of 1,000, but it runs each
    # factor, which forms 322, and its value is that of each factor, 10,
    # twice
    from milnortc import cuplength, slotchain

    monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
    monkeypatch.setattr(slotchain, "BUDGET", 1000)
    assert main(["cup", "--space", "prod:rh2.1,rh2.1", "--n", "5"]) == 0
    assert capsys.readouterr() == ("20\n", "")


def test_bounds_verifies_a_products_oracle_witness_in_the_product_ring(capsys):
    # the factors' witnesses, renamed, verify in the product ring, and the
    # machine-verified row 21 = 5 * 4 + 1 meets the dimension upper bound
    argv = ["bounds", "--space", "prod:rh2.1,rh2.1", "--quantity", "tc", "--n", "5",
            "--use-oracle", "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    (row,) = [t for t in report["trace"] if t["rule"] == "ideal-power-oracle"]
    assert (row["value"], row["status"]) == (21, "machine-verified")
    assert report["verifiedLower"] == report["lower"] == report["upper"] == 21


_USAGE_ERRORS = [
    ([], "a command is required"),
    (["bogus"], "'bogus'"),
    (["cup", "--space", "rp:2", "--n", "2", "--bogus"], "--bogus"),
    (["cup", "--space", "rp:2", "--n"], "--n"),
    (["gen-cert", "--method", "proj", "--params", "t=1", "--out", "--n", "2"], "--out"),
    (["bounds", "--space", "rp:2", "--quantity", "tc", "--n", "x"], "--n"),
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
    # an integer is ASCII digits with an optional minus sign, as in a space
    (["cup", "--space", "rp:2", "--n", "\uff12"], "error: --n: '\uff12' is not an integer"),
    (["cup", "--space", "rp:2", "--n", "+2"], "error: --n: '+2' is not an integer"),
    (["cup", "--space", "rp:2", "--n", "1_000"], "error: --n: '1_000' is not an integer"),
    (["cup", "--space", "rp:2", "--n", " 3"], "error: --n: ' 3' is not an integer"),
    (["table", "--family", "rp", "--r", "1_0", "--n", "2"],
     "error: --r range '1_0': '1_0' is not an integer"),
    (["bounds", "--space", "rp:2", "--quantity", "tc", "--n", "-"],
     "error: --n: '-' is not an integer"),
    (["gen-cert", "--method", "proj", "--params", "t=+1", "--n", "2", "--out", "f"],
     "error: --params key 't': '+1' is not an integer"),
    # and is written as str() writes it: no leading zero and no -0
    (["cup", "--space", "rp:2", "--n", "02"], "error: --n: '02' is not an integer\n"),
    (["cup", "--space", "rp:2", "--n", "-0"], "error: --n: '-0' is not an integer\n"),
    (["table", "--family", "rp", "--r", "2..03", "--n", "2"],
     "error: --r range '2..03': '03' is not an integer\n"),
    (["gen-cert", "--method", "proj", "--params", "t=01", "--n", "2", "--out", "f"],
     "error: --params key 't': '01' is not an integer\n"),
    # --params keys and values are read as written, a space as --space reads it
    (["gen-cert", "--method", "proj", "--params", "t= 1", "--n", "2", "--out", "f"],
     "error: --params key 't': ' 1' is not an integer\n"),
    (["gen-cert", "--method", "proj", "--params", " t=1", "--n", "2", "--out", "f"],
     "error: missing --params keys: t\n"),
    (["gen-cert", "--method", "cat", "--params", "space= rp:2", "--n", "2",
      "--out", "f"], "error: --params key 'space': unknown space family ' rp'\n"),
    # a cell of a table that its space's descriptor refuses names the options
    (["table", "--family", "rh", "--r", "0", "--s", "0", "--n", "2"],
     "error: --r 0, --s 0: Milnor manifold requires r >= 1 and 0 <= s <= r, got r=0, s=0\n"),
    (["table", "--family", "rp", "--r", "-1", "--n", "2"],
     "error: --r -1: projective space dimension must be >= 0\n"),
    # a space's numbers are written as format_space writes them
    (["cup", "--space", "rp:02", "--n", "2"],
     "error: --space: numbers must be written with no leading zero and no -0, "
     "got 'rp:02'\n"),
]


@pytest.mark.parametrize(
    "argv, named", _USAGE_ERRORS,
    ids=["no-command", "unknown-command", "unknown-option", "missing-value",
         "value-is-an-option", "non-int", "bad-choice", "bad-choice-after-equals",
         "missing-required", "repeated-option", "repeated-flag", "abbreviation",
         "flag-with-value", "stray-argument", "non-int-range", "open-range",
         "non-int-range-end", "non-int-param", "fullwidth-n", "plus-n",
         "underscore-n", "space-n", "underscore-range",
         "bare-minus-n", "plus-param", "leading-zero-n", "minus-zero-n",
         "leading-zero-range-end", "leading-zero-param",
         "padded-param-value", "padded-param-key",
         "padded-space-param", "table-milnor-cell", "table-rp-cell",
         "leading-zero-space"],
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
        for command, (summary, _, _) in _COMMANDS.items():
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
    monkeypatch.setattr(sys, "argv", ["milnortc", "cup", "--space", "rp:2", "--n", "2"])
    assert main() == 0
    assert capsys.readouterr().out == "3\n"


@pytest.mark.parametrize(
    "argv",
    [["cup", "--space", "rp:4"],
     ["bounds", "--space", "rh:3,2", "--quantity", "tc", "--use-oracle", "--format", "json"],
     ["table", "--family", "rp", "--r", "3..4", "--use-oracle", "--format", "csv"]],
)
@pytest.mark.parametrize("budget", [5, 140])
def test_an_option_and_its_value_may_be_joined_by_equals(argv, budget, monkeypatch, capsys):
    # --n=3 is --n 3: same exit code, output and error, whether the oracle
    # runs or is refused by its row budget (rp:4 at n = 3 forms 58 rows)
    from milnortc import cuplength, slotchain

    monkeypatch.setattr(slotchain, "BUDGET", budget)
    results = []
    for tail in (["--n", "3"], ["--n=3"]):
        monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
        code = main(argv + tail)
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == (3 if argv[0] == "cup" and budget == 5 else 0)


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_bounds_shows_an_oracle_over_its_cap_as_a_skipped_row(fmt, monkeypatch, capsys):
    # rh:3,2 at n = 3 takes 160 rows: under a row budget of 159 the report
    # is the one without the oracle plus one skipped row
    from milnortc import cuplength, slotchain

    argv = ["bounds", "--space", "rh:3,2", "--quantity", "tc", "--n", "3",
            "--format", fmt]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(cuplength, "_CUP_CACHE", {})
    monkeypatch.setattr(slotchain, "BUDGET", 159)
    assert main(argv + ["--use-oracle"]) == 0
    capped = capsys.readouterr().out
    if fmt == "json":
        doc = json.loads(capped)
        skipped = [t for t in doc["trace"] if t["status"] == "skipped"]
        assert skipped == [{
            "rule": "ideal-power-oracle",
            "source": "the oracle needs more than its budget of 159 rows",
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


def test_verify_refuses_a_factor_that_does_not_parse(tmp_path, capsys):
    path = tmp_path / "c.json"
    cert = Certificate(RealProj(2), 2, (("(x1+x2", 1),), 1)
    path.write_text(certificate_to_json(cert), encoding="utf-8")
    assert main(["verify", "--cert", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected ')', found 'end' (at position 6)\n"


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


# one --params value for each key of the method table, inside every
# hypothesis; the builders are called by keyword, so a name or an order the
# table gets wrong writes a different file
GENERATOR_PARAMS = {"t1": "1", "t2": "2", "p1": "0", "p2": "1", "s": "3", "t": "2",
                    "space": "prod:rp3,cp1"}


@pytest.mark.parametrize("method", list(_METHODS))
def test_gen_cert_writes_each_table_generator(method, tmp_path):
    name, keys = _METHODS[method]
    texts = {key: GENERATOR_PARAMS[key] for key in keys}
    params = ",".join(f"{key}={text}" for key, text in texts.items())
    out = tmp_path / "c.json"
    assert main(["gen-cert", "--method", method, "--params", params,
                 "--n", "3", "--out", str(out)]) == 0
    kwargs = {key: parse_space(text) if key == "space" else int(text)
              for key, text in texts.items()}
    cert = getattr(certgen, name)(**kwargs, n=3)
    assert out.read_text(encoding="utf-8") == certificate_to_json(cert)


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
    report = tc_bounds(parse_space("rp:2"), 2)
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
