"""File formats, subcommands, exit codes, and report determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matroidcc as mc
from matroidcc import cli, construct


def write(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


U32_DOC = {
    "format": "circuits",
    "name": "u3_2",
    "ground": ["a", "b", "c"],
    "circuits": [["a", "b", "c"]],
}

FANO_DOC = {
    "format": "matrix",
    "name": "fano",
    "field": 2,
    "labels": [str(i) for i in range(1, 8)],
    "rows": [
        [0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1],
    ],
}

K4_DOC = {
    "format": "graph",
    "name": "k4",
    "vertices": 4,
    "edges": [
        [0, 1, "e12"], [0, 2, "e13"], [0, 3, "e14"],
        [1, 2, "e23"], [1, 3, "e24"], [2, 3, "e34"],
    ],
}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_circuits_file(tmp_path):
    m = cli.parse_matroid(write(tmp_path, "u3_2.json", U32_DOC))
    assert m.is_uniform(3, 2) and m.name == "u3_2"


def test_parse_matrix_file_builds_fano(tmp_path):
    m = cli.parse_matroid(write(tmp_path, "fano.json", FANO_DOC))
    assert (m.size, m.rank(), len(m.circuits)) == (7, 3, 14)


def test_parse_graph_file(tmp_path):
    m = cli.parse_matroid(write(tmp_path, "k4.json", K4_DOC))
    assert (m.size, m.rank(), len(m.circuits)) == (6, 3, 7)


def test_parse_rejects_axiom_violations(tmp_path):
    doc = {
        "format": "circuits",
        "ground": ["a", "b"],
        "circuits": [["a"], ["a", "b"]],
    }
    with pytest.raises(mc.AxiomError):
        cli.parse_matroid(write(tmp_path, "bad.json", doc))


def test_parse_rejects_malformed_and_degenerate(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(mc.ParseError):
        cli.parse_matroid(path)
    with pytest.raises(mc.ParseError):
        cli.parse_matroid(
            write(tmp_path, "empty.json",
                  {"format": "circuits", "ground": [], "circuits": []})
        )
    with pytest.raises(mc.ParseError):
        cli.parse_matroid(
            write(tmp_path, "unknown.json", {"format": "nope"})
        )
    loops = {
        "format": "circuits",
        "ground": ["a", "b"],
        "circuits": [["a"], ["b"]],
    }
    with pytest.raises(mc.ParseError):
        cli.parse_matroid(write(tmp_path, "rank0.json", loops))


def test_parse_caps_large_ground(tmp_path):
    doc = {
        "format": "circuits",
        "ground": [f"x{i}" for i in range(65)],
        "circuits": [],
    }
    with pytest.raises(mc.CapExceeded):
        cli.parse_matroid(write(tmp_path, "big.json", doc))


def test_round_trip_preserves_canonical_circuits(tmp_path):
    for m in (mc.named("fano"), mc.uniform(5, 2), mc.named("vamos")):
        path = tmp_path / "roundtrip.json"
        cli.write_matroid(m, path)
        back = cli.parse_matroid(path)
        assert back == m


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(json_values)
def test_dump_writes_what_the_indented_standard_encoder_writes(value):
    assert cli._indented(value, "\n") == json.dumps(value, indent=2, ensure_ascii=False)


def test_dump_matches_the_standard_encoder_on_catalog_documents(catalog_dir, tmp_path, capsys):
    def standard(doc):
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    for _, doc in cli.catalog_documents(seed=1):
        assert cli._dump(doc) == standard(doc)
    paths = sorted(str(p) for p in catalog_dir.glob("*.json"))
    out = tmp_path / "timed.json"
    assert cli.main(["verify", *paths, "--json", str(out), "--timings"]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    assert any(isinstance(e["ms"], float) for e in report["entries"])
    assert cli._dump(report) == standard(report)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_fano_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "fano.json", FANO_DOC)
    out = tmp_path / "report.json"
    rc = cli.main(["verify", path, "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "fano" in text and "k=4" in text
    doc = json.loads(out.read_text())
    assert doc["report_version"] == 1
    entry = doc["entries"][0]
    assert entry["name"] == "fano"
    assert entry["achieved_sizes"] == [2, 4]
    assert entry["conjecture"][0]["k"] == 4
    assert entry["conjecture"][0]["oracle_ok"] is True
    witness = entry["conjecture"][0]["witness"]
    assert len(witness["intersection"]) == 2
    assert entry["property_suites"] == {
        "ce_families": "pass",
        "circuit_pairs": "pass",
        "rank2_circuits": "pass",
    }
    assert "ms" not in entry  # timings stay out of the machine report


def test_verify_bad_axioms_exits_two(tmp_path, capsys):
    doc = {
        "format": "circuits",
        "ground": ["a", "b"],
        "circuits": [["a"], ["a", "b"]],
    }
    rc = cli.main(["verify", write(tmp_path, "bad.json", doc)])
    capsys.readouterr()
    assert rc == 2


def test_verify_cap_exits_three(tmp_path, capsys):
    path = write(tmp_path, "fano.json", FANO_DOC)
    rc = cli.main(["verify", path, "--cap", "1"])
    capsys.readouterr()
    assert rc == 3
    # u10_5 has 210 x 210 = 44,100 pairs.  The cap counts the input's pairs
    # only: at exactly that cap the k = 6 chain runs inside its minor.
    u105 = tmp_path / "u10_5.json"
    cli.write_matroid(mc.uniform(10, 5), u105)
    assert cli.main(["verify", str(u105), "--cap", "44100"]) == 0
    assert "   k=6: oracle ok; " in capsys.readouterr().out
    assert cli.main(["verify", str(u105), "--cap", "44099"]) == 3
    assert "44100 circuit-cocircuit pairs exceed the cap of 44099" in capsys.readouterr().err


def test_verify_refuses_large_circuits_file_before_building(tmp_path, capsys, monkeypatch):
    labels = [f"x{i}" for i in range(mc.MAX_SCAN + 1)]
    path = write(tmp_path, "big.json", {
        "format": "circuits", "ground": labels, "circuits": [labels],
    })

    def refuse(*args, **kwargs):
        raise AssertionError("circuits were built before the cap check")

    monkeypatch.setattr(cli.construct, "from_circuits", refuse)
    assert cli.main(["verify", path]) == 3
    err = capsys.readouterr().err
    assert "CapExceeded" in err and f"{mc.MAX_SCAN + 1} elements" in err
    monkeypatch.undo()
    assert cli.main(["inspect", path, "--circuits"]) == 3
    assert f"this command takes at most {mc.MAX_SCAN}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    [],
    ["--cocircuits"],
    ["--hyperplanes"],
    ["--dual"],
    ["--cc-sizes"],
    ["--oxley", "circuit=x0,x1;cocircuit=x0,x1"],
    ["--cc-sizes", "--cap", str(10**9)],  # a pair cap lifts no element bound
    ["--circuits"],
    ["--minor", "del=x2"],
])
def test_inspect_refuses_large_circuits_file_before_building(
    tmp_path, capsys, monkeypatch, flags
):
    labels = [f"x{i}" for i in range(mc.MAX_SCAN + 1)]
    path = write(tmp_path, "big.json", {
        "format": "circuits", "ground": labels, "circuits": [labels[:2]],
    })

    def refuse(*args, **kwargs):
        raise AssertionError("circuits were built before the cap check")

    monkeypatch.setattr(cli.construct, "from_circuits", refuse)
    assert cli.main(["inspect", path, *flags]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"this command takes at most {mc.MAX_SCAN}" in err[0]


@pytest.mark.parametrize("modes, later", [
    (["--minor", "del=x2", "--dual"], "--dual"),
    (["--circuits", "--cocircuits"], "--cocircuits"),
    (["--hyperplanes", "--cc-sizes"], "--cc-sizes"),
    (["--oxley", "circuit=a;cocircuit=a", "--circuits"], "--circuits"),
])
def test_inspect_takes_at_most_one_mode(tmp_path, capsys, modes, later):
    path = write(tmp_path, "fano.json", FANO_DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["inspect", path, *modes])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"matroidcc inspect: error: argument {later}: not allowed")


@pytest.mark.parametrize("command", [["verify"], ["inspect", "--cc-sizes"]])
def test_negative_cap_is_a_usage_error(tmp_path, capsys, command):
    path = write(tmp_path, "fano.json", FANO_DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, path, "--cap", "-1"])
    assert exc.value.code == 2
    assert "argument --cap: must be at least 0, got -1" in capsys.readouterr().err
    assert cli.main([*command, path, "--cap", "0"]) == 3  # 0 is a cap, if a tight one


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"format": "circuits", "ground": ["a", "b"], "circuits": ["ab"]},
         "circuits must be a list of label lists"),
        ({**FANO_DOC, "rows": [["x"] * 7] + FANO_DOC["rows"][1:]},
         "matrix entries must be integers, got 'x'"),
        ({**FANO_DOC, "rows": [[1.5] * 7] + FANO_DOC["rows"][1:]},
         "matrix entries must be integers, got 1.5"),
        ({**FANO_DOC, "rows": 7}, "rows must be a list of int lists"),
        ({**FANO_DOC, "field": "2"}, "got '2'"),
        ({**FANO_DOC, "field": 2.0}, "got 2.0"),
        ({**K4_DOC, "vertices": True}, "int vertex count"),
        ({**K4_DOC, "edges": [[False, True, "a"]] + K4_DOC["edges"]}, "[u, v, label] triples"),
        # No rows over two labels: two zero columns, two loops.
        ({**FANO_DOC, "labels": ["a", "b"], "rows": []}, "degenerate rank-0 matroid rejected"),
    ],
    ids=["string-circuit", "entry-x", "entry-1.5", "rows-int", "field-str", "field-float",
         "vertices-true", "endpoint-bool", "rows-empty"],
)
def test_verify_rejects_mistyped_fields_with_one_line(tmp_path, capsys, doc, message):
    rc = cli.main(["verify", write(tmp_path, "bad.json", doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "codec can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "JSON nested too deeply"),
        # Longer than the interpreter's 4,300-digit limit on int parsing,
        # which Python 3.10.0-3.10.6 do not have.
        pytest.param(
            b'{"format": "matrix", "field": ' + b"9" * 5000 + b"}", "unreadable JSON number",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
            ),
        ),
    ],
    ids=["not-utf8", "nested-200k", "int-5000-digits"],
)
def test_verify_rejects_unreadable_json_with_one_line(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc = cli.main(["verify", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


LONE = "\ud800"


@pytest.mark.parametrize(
    "command", [["verify"], ["inspect", "--circuits"]], ids=["verify", "inspect"]
)
@pytest.mark.parametrize(
    "doc, message",
    [
        ({**FANO_DOC, "labels": [LONE] + FANO_DOC["labels"][1:]}, "labels must be"),
        ({**FANO_DOC, "name": LONE}, "name must be"),
        ({**U32_DOC, "ground": [LONE, "b", "c"], "circuits": [[LONE, "b", "c"]]},
         "ground must be"),
        ({**K4_DOC, "edges": [[0, 1, LONE]] + K4_DOC["edges"][1:]}, "edges must be"),
    ],
    ids=["matrix-label", "name", "circuits-label", "graph-label"],
)
def test_lone_surrogates_are_refused_with_one_line(tmp_path, capsys, command, doc, message):
    # json.dumps writes the lone surrogate as the escape \ud800.
    path = write(tmp_path, "lone.json", doc)
    rc = cli.main([command[0], path, *command[1:]])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert message in captured.err and "without lone surrogates" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "command",
    [
        lambda src, out: ["verify", src, "--json", out],
        lambda src, out: ["inspect", src, "--dual", "--out", out],
        lambda src, out: ["catalog", "--out", out],
    ],
    ids=["verify-json", "inspect-out", "catalog-out"],
)
def test_unwritable_output_paths_exit_two_with_one_line(tmp_path, capsys, command):
    # A path below a regular file can be neither written nor created.
    plain = tmp_path / "plain"
    plain.write_text("", encoding="utf-8")
    src = write(tmp_path, "fano.json", FANO_DOC)
    rc = cli.main(command(src, str(plain / "out.json")))
    captured = capsys.readouterr()
    assert rc == 2
    # verify checks its report path before any input, so no text report.
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def unnamed_fano_with_a_non_utf8_file_name(tmp_path: Path) -> Path:
    """``bad\\xff.json`` holding the Fano plane without a "name" field."""
    path = Path(os.fsdecode(os.fsencode(tmp_path) + b"/bad\xff.json"))
    if "\udcff" not in str(path):
        pytest.skip("file names do not decode with surrogate escapes here")
    unnamed = {key: value for key, value in FANO_DOC.items() if key != "name"}
    try:
        path.write_text(json.dumps(unnamed), encoding="utf-8")
    except OSError:
        pytest.skip("the file system refuses a non-UTF-8 file name")
    return path


@pytest.mark.parametrize("command", ["verify", "inspect"])
def test_non_utf8_file_names_need_a_name_field(tmp_path, command):
    # Without a "name" field the report names the input after its file,
    # whose non-UTF-8 bytes decode to lone surrogates.
    path = unnamed_fano_with_a_non_utf8_file_name(tmp_path)
    report = tmp_path / "report.json"
    argv = [command, str(path)] + (["--json", str(report)] if command == "verify" else [])

    def run() -> tuple[int, str, str]:
        # sys.stderr escapes the surrogates the path holds; capsys would not.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    rc, out, err = run()
    assert rc == 2 and out == ""
    assert 'add a "name" field' in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    # An empty name counts as none.
    path.write_text(json.dumps({**FANO_DOC, "name": ""}), encoding="utf-8")
    assert run()[:2] == (2, "")
    # With the field, the same file is accepted.
    path.write_text(json.dumps(FANO_DOC), encoding="utf-8")
    assert run()[0] == 0


@pytest.mark.parametrize(
    "command, head",
    [("verify", "== plane (7 elements"), ("inspect", "plane: 7 elements")],
    ids=["verify", "inspect"],
)
def test_an_empty_name_falls_back_to_the_file_stem(tmp_path, capsys, command, head):
    path = write(tmp_path, "plane.json", {**FANO_DOC, "name": ""})
    assert cli.main([command, path]) == 0
    assert capsys.readouterr().out.startswith(head)


@pytest.mark.parametrize("command", ["verify", "inspect"])
def test_non_utf8_file_names_print_on_a_strict_stream(tmp_path, capsys, command):
    # capsys's stderr is strict UTF-8, so printing the lone surrogate the
    # path holds would raise; the line carries it as a backslash escape.
    path = unnamed_fano_with_a_non_utf8_file_name(tmp_path)
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("bad\\udcff.json") == (2 if command == "verify" else 1)
    assert 'add a "name" field' in captured.err and "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_catalog_into_a_non_utf8_directory_prints_on_a_strict_stream(tmp_path, capsys):
    # The closing line names the directory, whose non-UTF-8 byte decodes
    # to a lone surrogate; capsys's stdout is strict UTF-8.
    out = Path(os.fsdecode(os.fsencode(tmp_path) + b"/out\xff"))
    if "\udcff" not in str(out):
        pytest.skip("file names do not decode with surrogate escapes here")
    try:
        out.mkdir()
    except OSError:
        pytest.skip("the file system refuses a non-UTF-8 file name")
    assert cli.main(["catalog", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    count = len(cli.catalog_documents())
    assert captured.out == f"wrote {count} matroid files to {tmp_path}/out\\udcff\n"
    assert captured.err == ""
    assert len(list(out.glob("*.json"))) == count


def test_verify_closes_one_dependency_table_per_matroid(catalog_dir, capsys, monkeypatch):
    # Every matroid verify builds (inputs of both from_matrix branches, a
    # graph, circuit files, minors and duals) closes one dependency table
    # upwards, and its circuits are set as member bits at most twice (for
    # the table and for C3), never once per element.  from_matrix's row
    # branch closes two: the dual's, from the row space's supports, and M's
    # from it; verify then builds the dual from the first with no closure.
    counts = {"matroids": 0, "closures": 0, "member_passes": 0}

    def count(owner, attr, key):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(mc.Matroid, "__init__", "matroids")
    count(mc.core, "_close_up", "closures")
    count(mc.core, "_member_bits", "member_passes")
    names = ("fano", "k4", "k5", "vamos", "u6_3", "rand00")
    assert cli.main(["verify", *(str(catalog_dir / f"{n}.json") for n in names)]) == 0
    capsys.readouterr()
    assert counts["matroids"] >= 2 * len(names)
    assert counts["closures"] == counts["matroids"]
    assert counts["member_passes"] <= 2 * counts["matroids"]


def test_verify_text_report_for_fano_and_u10_5(catalog_dir, capsys):
    paths = [str(catalog_dir / "fano.json"), str(catalog_dir / "u10_5.json")]
    assert cli.main(["verify", *paths]) == 0
    text = re.sub(r"\(\d+\.\d ms\)", "(ms)", capsys.readouterr().out)
    assert text.splitlines() == [
        "== fano (7 elements, rank 3, 14 circuits, 7 cocircuits)",
        "   achieved sizes: 2,4",
        "   k=4: oracle ok; extract[|E|=6, del={3}, con={}] -> witness[{1,2}] -> lift; "
        "final circuit={1,2,5,6} cocircuit={1,2,4,7} intersection={1,2} (size 2)",
        "   suites: ce_families=pass circuit_pairs=pass rank2_circuits=pass",
        "   (ms)",
        "== u10_5 (10 elements, rank 5, 210 circuits, 210 cocircuits)",
        "   achieved sizes: 2,3,4,5,6",
        "   k=4: oracle ok; extract[|E|=6, del={9,10}, con={5,6}] -> witness[{1,2}] -> lift; "
        "final circuit={1,2,5,6,7,8} cocircuit={1,2,3,4,9,10} intersection={1,2} (size 2)",
        "   k=5: oracle ok; extract[|E|=8, del={8}, con={6}] -> witness[{1,2,3}] -> lift; "
        "final circuit={1,2,3,5,6,9} cocircuit={1,2,3,4,7,8} intersection={1,2,3} (size 3)",
        "   k=6: oracle ok; extract[|E|=10, del={}, con={}] -> oracle[{1,2,3,4}] -> lift; "
        "final circuit={1,2,3,4,5,6} cocircuit={1,2,3,4,7,8} intersection={1,2,3,4} (size 4)",
        "   suites: ce_families=pass circuit_pairs=pass rank2_circuits=pass",
        "   (ms)",
        "verified 2 matroid(s); all checks passed",
    ]


JSON_VALUES =st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def fuzzed_documents(draw):
    """A small well-formed document of one of the three formats, each of
    whose fields is then kept, dropped or replaced by arbitrary JSON."""
    fmt = draw(st.sampled_from(["circuits", "matrix", "graph"]))
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.text("abcdefg", min_size=1, max_size=2), min_size=n, max_size=n))
    if fmt == "circuits":
        circuit = st.lists(st.sampled_from(labels), min_size=1, max_size=n)
        fields = {"ground": labels, "circuits": draw(st.lists(circuit, max_size=4))}
    elif fmt == "matrix":
        row = st.lists(st.integers(-2, 6), min_size=n, max_size=n)
        fields = {"field": draw(st.sampled_from([2, 3, 5])), "labels": labels,
                  "rows": draw(st.lists(row, max_size=4))}
    else:
        v = draw(st.integers(1, 4))
        end = st.integers(0, v - 1)
        fields = {"vertices": v, "edges": [[draw(end), draw(end), lab] for lab in labels]}
    doc = {"format": fmt, "name": draw(st.text(max_size=3)), **fields}
    for key in list(doc):
        action = draw(st.sampled_from(["keep", "keep", "keep", "json", "drop"]))
        if action == "json":
            doc[key] = draw(JSON_VALUES)
        elif action == "drop":
            del doc[key]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=fuzzed_documents())
def test_verify_ends_with_exit_0_2_or_3_and_one_line_on_any_document(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", str(path)])
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()


def test_exit_code_mapping():
    assert cli._exit_code_for(mc.CapExceeded("x")) == 3
    assert cli._exit_code_for(mc.TheoremViolation("x")) == 1
    assert cli._exit_code_for(mc.ExtractionFailed("x")) == 1
    assert cli._exit_code_for(mc.LiftFailed("x")) == 1
    assert cli._exit_code_for(mc.ParseError("x")) == 2
    assert cli._exit_code_for(mc.AxiomError(mc.AxiomReport(False, "C1"))) == 2


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_contents_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "cat1"
    out2 = tmp_path / "cat2"
    assert cli.main(["catalog", "--out", str(out1)]) == 0
    assert cli.main(["catalog", "--out", str(out2)]) == 0
    capsys.readouterr()
    files1 = sorted(p.name for p in out1.glob("*.json"))
    files2 = sorted(p.name for p in out2.glob("*.json"))
    assert files1 == files2
    assert len(files1) >= 30
    assert "u10_5.json" in files1 and "fano.json" in files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # Every file parses and passes validation at ingestion.
    for name in files1:
        m = cli.parse_matroid(out1 / name)
        assert mc.validate_circuit_axioms(m.circuits).ok


def test_uniform_catalog_documents_match_the_built_matroids():
    # The catalog writes u{n}_{k} from its label subsets; the path it
    # replaces built and validated the matroid and wrote its circuits.
    docs = dict(cli.catalog_documents())
    for n in range(4, 11):
        for k in range(1, n):
            name = f"u{n}_{k}"
            assert docs[f"{name}.json"] == cli.matroid_doc(construct.uniform(n, k), name=name)
    assert sum(f.startswith("u") for f in docs) == 42


def test_catalog_u105_verifies_all_three(tmp_path, capsys):
    out = tmp_path / "cat"
    cli.main(["catalog", "--out", str(out)])
    report = mc.verify_conjecture(cli.parse_matroid(out / "u10_5.json"))
    capsys.readouterr()
    assert [c.k for c in report.entries] == [4, 5, 6]


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_cc_sizes(tmp_path, capsys):
    path = write(tmp_path, "fano.json", FANO_DOC)
    assert cli.main(["inspect", path, "--cc-sizes"]) == 0
    assert capsys.readouterr().out.strip() == "2,4"


def test_inspect_dual_of_u42_round_trips(tmp_path, capsys):
    m = mc.uniform(4, 2)
    src = tmp_path / "u4_2.json"
    cli.write_matroid(m, src)
    out = tmp_path / "dual.json"
    assert cli.main(["inspect", str(src), "--dual", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.parse_matroid(out) == m  # self-dual


def test_inspect_cocircuits_of_k4(tmp_path, capsys):
    path = write(tmp_path, "k4.json", K4_DOC)
    assert cli.main(["inspect", path, "--cocircuits"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    sizes = sorted(line.count(",") + 1 for line in lines)
    assert sizes == [3, 3, 3, 3, 4, 4, 4]


def test_inspect_minor_writes_file(tmp_path, capsys):
    path = write(tmp_path, "u3_2.json", U32_DOC)
    out = tmp_path / "minor.json"
    rc = cli.main(["inspect", path, "--minor", "del=a", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    m = cli.parse_matroid(out)
    assert m.ground.labels == ("b", "c") and len(m.circuits) == 0


def test_inspect_oxley_prints_x_and_y(tmp_path, capsys):
    path = write(tmp_path, "fano.json", FANO_DOC)
    cc = mc.find_intersection_of_size(cli.parse_matroid(path), 4)
    arg = "circuit=%s;cocircuit=%s" % (
        ",".join(cc.circuit.labels()),
        ",".join(cc.cocircuit.labels()),
    )
    assert cli.main(["inspect", path, "--oxley", arg]) == 0
    out = capsys.readouterr().out
    assert "X: " in out and "Y: " in out and "rank 3" in out


def test_inspect_summary_default(tmp_path, capsys):
    path = write(tmp_path, "u3_2.json", U32_DOC)
    assert cli.main(["inspect", path]) == 0
    assert "3 elements" in capsys.readouterr().out


def test_inspect_circuits(tmp_path, capsys):
    path = write(tmp_path, "u3_2.json", U32_DOC)
    assert cli.main(["inspect", path, "--circuits"]) == 0
    assert capsys.readouterr().out.strip() == "{a,b,c}"


def test_inspect_hyperplanes(tmp_path, capsys):
    doc = {
        "format": "circuits",
        "name": "u4_2",
        "ground": ["1", "2", "3", "4"],
        "circuits": [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"]],
    }
    path = write(tmp_path, "u4_2.json", doc)
    assert cli.main(["inspect", path, "--hyperplanes"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["{1}", "{2}", "{3}", "{4}"]


def test_verify_timings_flag_adds_ms(tmp_path, capsys):
    path = write(tmp_path, "fano.json", FANO_DOC)
    out = tmp_path / "timed.json"
    assert cli.main(["verify", path, "--json", str(out), "--timings"]) == 0
    capsys.readouterr()
    entry = json.loads(out.read_text())["entries"][0]
    assert "ms" in entry and entry["ms"] >= 0


# ---------------------------------------------------------------------------
# Reports pinned by the benchmark
# ---------------------------------------------------------------------------

def verify_json(paths, out) -> bytes:
    assert cli.main(["verify", *map(str, paths), "--json", str(out)]) == 0
    return out.read_bytes()


def test_catalog_report_matches_pinned_hash(catalog_dir, bench_inputs, tmp_path, capsys):
    # catalog_dir is the seed-1 catalog, pinned in slot 1.
    pinned = bench_inputs.load_pinned("catalog")["slots"][bench_inputs.slot_of(1)]
    report = verify_json(sorted(catalog_dir.glob("*.json")), tmp_path / "report.json")
    capsys.readouterr()
    assert hashlib.sha256(report).hexdigest() == pinned["report_sha256"]


def test_catalog_matches_its_pinned_inputs_on_every_slot(bench_inputs):
    pinned = bench_inputs.load_pinned("catalog")
    assert len(pinned["slots"]) == bench_inputs.POOL
    for slot in pinned["slots"]:
        written = {
            filename.removesuffix(".json"): hashlib.sha256(
                cli._dump(doc).encode("utf-8")
            ).hexdigest()[:16]
            for filename, doc in cli.catalog_documents(seed=slot["catalog_seed"])
        }
        want = {name: file["input"] for name, file in slot["files"].items()}
        assert written == want, slot["slot"]


def pinned_chains(bench_inputs, workload, seed, out_dir, capsys) -> dict[str, list[int]]:
    """Verify one pinned input set, check its report against the pinned
    sha256, and return the k of each chain per file."""
    pinned = bench_inputs.load_pinned(workload)["slots"][bench_inputs.slot_of(seed)]
    bench_inputs.write_documents(bench_inputs.documents(workload, pinned["instances"]), out_dir)
    report = verify_json(sorted(out_dir.glob("*.json")), out_dir / "report.json")
    capsys.readouterr()
    assert hashlib.sha256(report).hexdigest() == pinned["report_sha256"], (workload, seed)
    chains = {
        entry["name"]: [c["k"] for c in entry["conjecture"]]
        for entry in json.loads(report)["entries"]
    }
    # Every k = 4, 5, 6 that the oracle verdict achieves runs its chain.
    assert chains == {
        name: [k for k in (4, 5, 6) if k in file["verdict"]["achieved"]]
        for name, file in pinned["files"].items()
    }, (workload, seed)
    return chains


def test_scale_report_matches_pinned_hash(bench_inputs, tmp_path, capsys):
    for seed in (1, 2, 3):
        chains = pinned_chains(bench_inputs, "scale", seed, tmp_path / f"in{seed}", capsys)
        if seed == 1:
            assert chains == {"gf5_14_7": [4, 5, 6], "k6": [4, 6], "u11_5": [4, 5, 6]}


def test_linear_gf3_report_matches_pinned_hash(bench_inputs, tmp_path, capsys):
    # 15 GF(3) matrices with n = 12..14: 45 extractions, each file running
    # its k = 4, 5 and 6 chains.
    chains = pinned_chains(bench_inputs, "linear_gf3", 1, tmp_path, capsys)
    assert chains == {f"gf3_{i:02d}": [4, 5, 6] for i in range(15)}


def test_tracer_finds_every_planned_function(bench_tracer):
    tracer = bench_tracer.Tracer()
    original = construct.gf_rank
    with tracer.installed():
        assert tracer.missing == []
        assert construct.gf_rank is not original
    assert construct.gf_rank is original


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, ast, dis and tokenize, and each
    # decorated class would exec generated code at every start-up.
    src = Path(mc.__file__).resolve().parent.parent
    code = (
        "import sys, matroidcc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
