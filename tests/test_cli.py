import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from milnortc.certgen import GENERATORS, cert_case1, cert_proj
from milnortc.cli import (
    _build_parser,
    certificate_from_json,
    certificate_to_json,
    emit_report,
    emit_table,
    main,
)
from milnortc.bounds import BoundReport, tc_bounds

ROOT = Path(__file__).resolve().parents[1]


# -- certificate files --------------------------------------------------------


def test_certificate_round_trip_byte_identical():
    for cert in (cert_proj(1, 3), cert_case1(1, 2, 2)):
        text = certificate_to_json(cert)
        assert certificate_from_json(text) == cert
        assert certificate_to_json(certificate_from_json(text)) == text


def test_certificate_schema_rejections():
    doc = json.loads(certificate_to_json(cert_proj(1, 2)))
    doc["claimedTcLower"] = doc["claimedCup"] + 2
    with pytest.raises(ValueError):
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
        dict(_RP2, factors=[{"expr": 5, "multiplicity": 3}]),
        dict(_RP2, space=7),
        dict(_RP2, note=5),
        [_RP2],
    ],
    ids=["catWitness-str", "n-bool", "n-zero", "n-negative", "multiplicity-str",
         "multiplicity-float", "claimedCup-float", "claimedTcLower-str", "expr-int",
         "space-int", "note-int", "not-an-object"],
)
def test_verify_refuses_mistyped_certificate_fields(doc, tmp_path, capsys):
    # nothing in a certificate file is coerced: a mistyped field is invalid
    # input, never a verdict
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--cert", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# -- report emission ----------------------------------------------------------


def test_emit_md_main_row():
    report = tc_bounds("rh:4,3", 2)
    text = emit_report(report, "md")
    assert "| rh:4,3 | 2 | TC | 11 | 13 |" in text


def test_emit_md_marks_an_inconsistent_report():
    text = emit_report(BoundReport("rp:2", "tc", 2, 5, 3), "md")
    assert text.endswith("| 5 | 3 |\n\n| rule | bound | value | status |\n|---|---|---|---|\n"
                         "\n**inconsistent: lower exceeds upper**\n")
    assert "inconsistent" not in emit_report(BoundReport("rp:2", "tc", 2, 3, 3), "md")


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
    ],
)
def test_flags_the_mode_ignores_are_refused(argv, flag, capsys):
    # tc takes no group and the rp family no s range; cat's refusals are
    # checked above
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
    ],
)
def test_bad_keys_ranges_and_caps_are_refused(argv, flag, tmp_path, monkeypatch, capsys):
    # a key the method does not take, a parameter with no key, a key given
    # twice, an empty or missing range, an --r/--s pair with no cell s <= r,
    # a negative slice cap and a negative binomial argument are invalid
    # input: exit 2 naming it, with no output and no file
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert list(tmp_path.iterdir()) == []


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
    # the package has no third-party runtime dependency, and its value
    # records import neither dataclasses nor what that pulls in.  The
    # benchmark's tracer looks each layer up in sys.modules after this import
    proc = _fresh_python(
        "-c",
        "import milnortc.cli, sys; "
        "loaded = {'numpy', 'dataclasses', 'inspect'} & set(sys.modules); "
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
        "print(ran, sorted({'json', 'csv'} & set(sys.modules)))\n",
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


def test_gen_cert_method_choices_are_the_generators_and_cat():
    # the CLI writes the methods out, so that building its parser does not
    # run certgen
    parser = _build_parser()
    (sub,) = (a for a in parser._actions if a.dest == "command")
    (method,) = (a for a in sub.choices["gen-cert"]._actions if a.dest == "method")
    assert method.choices == (*GENERATORS, "cat")


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


def test_invalid_input_exit_2(capsys):
    assert main(["bounds", "--space", "nonsense", "--quantity", "tc", "--n", "2"]) == 2
    assert main(["cup", "--space", "rp:2"]) == 2  # missing --n
    assert main(["bogus-subcommand"]) == 2
    assert main(["bounds", "--space", "rh:4,3", "--quantity", "eqtc", "--n", "2",
                 "--group", "s1"]) == 2  # refusal: no free action
    capsys.readouterr()


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


def test_gen_cert_failed_search_exits_1_with_no_file(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["gen-cert", "--method", "case2", "--params", "p1=2,p2=3",
                 "--n", "4", "--out", str(out)]) == 1
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
