"""Input parsing, report determinism, exit codes."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from morsegraded import homology, morse
from morsegraded.chains import FacetOrderConfig
from morsegraded.cli import _cells_json, main, run_command
from morsegraded.errors import InvalidBasis, MorsegradedError, ParseError
from morsegraded.io import COMMANDS, RunConfig, canonical_json, parse_input
from morsegraded.morse import build_face_matching
from morsegraded.semigroup import SemigroupPresentation

FIXTURES = Path(__file__).parent / "fixtures"
BREACHES = FIXTURES / "breaches"  # valid inputs that end in an invariant breach


def read(name):
    return (FIXTURES / name).read_text()


def test_parse_squares_fixture():
    doc = parse_input(read("squares.json"))
    assert doc.presentation.n == 5
    assert doc.supplied_basis is not None
    assert doc.targets == ((2, 2, 1, 1),)


def test_parse_rejects_empty_generators():
    with pytest.raises(ParseError):
        parse_input('{"dimension": 2, "generators": []}')


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_input("{not json")


def test_parse_rejects_stale_basis():
    with pytest.raises(InvalidBasis):
        parse_input(read("stale_basis.json"))


@pytest.mark.parametrize("command", ["gb", "full"])
def test_supplied_basis_stale_at_window_cap_exits_1(command, capsys):
    # padded cyclic3 supplies only its quadric: complete up to degree 2, the
    # check at parse time, but missing the cubic z3z4z5 - z0z1z2
    assert parse_input(read("padded_cyclic3.json")).supplied_basis.degree == 2
    argv = ["--input", str(FIXTURES / "padded_cyclic3.json"), "--command", command]
    code = main(argv + ["--degree-window", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: relation (0, 0, 0, 1, 1, 1, 0, 0) - (1, 1, 1, 0, 0, 0, 0, 0) "
        "does not reduce to zero: basis is stale\n"
    )


# standard-graded, with coordinate sums 3 and 4: the window's region is the
# fibers of degree <= the window, however the coordinate sums differ
UNEQUAL_SUMS = json.dumps(
    {"dimension": 4, "generators": [[0, 4, 0, 0], [3, 1, 0, 0], [1, 1, 0, 1], [1, 2, 1, 0], [0, 2, 0, 1]]}
)


def unequal_sums_report(command, window):
    cfg = RunConfig(input_path="unequal_sums.json", command=command, degree_window=window)
    return run_command(cfg, UNEQUAL_SUMS)[0]


def test_window_cap_on_unequal_coordinate_sums():
    gb = unequal_sums_report("gb", 3)
    assert gb["degree"] == 0 and gb["elements"] == []
    assert unequal_sums_report("verify-bounds", 3)["vanishing"]["ok"] is True
    assert unequal_sums_report("full", 3)["ok"] is True
    gb = unequal_sums_report("gb", 4)
    assert gb["degree"] == 4
    assert gb["elements"] == [{"plus": [0, 1, 0, 0, 3], "minus": [1, 0, 3, 0, 0]}]


def test_window_basis_lists_only_certified_elements():
    # standard-graded: the window-3 region holds the fibers of degree <= 3,
    # and its basis has exactly two elements, both of degree 3; relations
    # of higher degree are neither listed nor read as the Groebner degree
    text = json.dumps({"dimension": 3, "generators": [[0, 0, 6], [1, 2, 1], [2, 2, 0], [6, 0, 0], [2, 0, 4]]})

    def report(command):
        return run_command(RunConfig(input_path="x.json", command=command, degree_window=3), text)[0]

    gb = report("gb")
    assert gb["elements"] == [
        {"plus": [0, 2, 0, 0, 1], "minus": [1, 0, 2, 0, 0]},
        {"plus": [0, 0, 0, 0, 3], "minus": [2, 0, 0, 1, 0]},
    ]
    assert gb["degree"] == 3
    assert report("verify-bounds")["vanishing"]["groebner_degree"] == 3


def test_parse_rejects_foreign_target():
    doc = json.loads(read("squares.json"))
    doc["targets"] = [[1, 0, 0, 0]]
    with pytest.raises(ParseError):
        parse_input(json.dumps(doc))


def test_run_config_validation():
    with pytest.raises(Exception):
        RunConfig(input_path="x", command="nope")
    with pytest.raises(Exception):
        RunConfig(input_path="x", command="gb", degree_window=0)
    cfg = RunConfig(input_path="x", command="gb")
    assert cfg.echo()["command"] == "gb"


def test_gb_command():
    cfg = RunConfig(input_path="squares.json", command="gb")
    payload, _ = run_command(cfg, read("squares.json"))
    assert payload["degree"] == 2
    assert payload["elements"] == [{"plus": [0, 1, 0, 0, 1], "minus": [2, 0, 0, 0, 0]}]


def test_cancel_command_survivors():
    cfg = RunConfig(input_path="squares.json", command="cancel")
    payload, _ = run_command(cfg, read("squares.json"))
    entry = payload["cancellation"][0]
    assert entry["multidegree"] == [2, 2, 1, 1]
    assert entry["morse_numbers"] == {"0": 1, "2": 2}


def test_morse_reports_the_matchings_critical_cells():
    # morse lists the facet-ordered matching's critical cells, before any
    # cancellation; cancel lists what survives it
    doc = parse_input(read("squares.json"))
    fm = build_face_matching(
        doc.presentation.interval((0, 0, 0, 0), (2, 2, 1, 1)),
        FacetOrderConfig(doc.order),
        doc.supplied_basis,
    )
    expected = _cells_json(fm.cells())
    assert [c["dimension"] for c in expected].count(0) == 2
    assert [c["dimension"] for c in expected].count(1) == 4
    assert [c["dimension"] for c in expected].count(2) == 5

    def report(command):
        cfg = RunConfig(input_path="squares.json", command=command)
        return run_command(cfg, read("squares.json"))[0]

    cells = report("morse")["morse"][0]["critical_cells"]
    survivors = report("cancel")["cancellation"][0]["survivors"]
    assert cells == expected and len(cells) == 11
    assert len(survivors) == 3 < len(cells)


def test_betti_tsv_projection():
    cfg = RunConfig(
        input_path="squares.json",
        command="betti",
        degree_window=2,
        characteristics=(0,),
        output_format="tsv",
    )
    _, tsv = run_command(cfg, read("squares.json"))
    assert tsv.startswith("multidegree\ti=0\ti=1\ti=2")
    relation_row = next(line for line in tsv.splitlines() if line.startswith("2,2,0,0"))
    assert relation_row.split("\t")[3] == "2"  # Tor_2 rank at the relation


def test_series_command():
    cfg = RunConfig(input_path="squares.json", command="series", degree_window=3)
    payload, _ = run_command(cfg, read("squares.json"))
    assert payload["expansion"][1:3] == [5, 11]


def test_verify_bounds_cyclic3():
    cfg = RunConfig(
        input_path="cyclic_split3.json",
        command="verify-bounds",
        degree_window=3,
        characteristics=(0, 2),
    )
    payload, _ = run_command(cfg, read("cyclic_split3.json"))
    assert payload["vanishing"]["ok"]
    assert payload["sharpness_witnesses"] == [
        {"multidegree": [1, 1, 1, 1, 1, 1], "reduced_b0": 1}
    ]


def test_reports_byte_identical(tmp_path):
    args = [
        "--input",
        str(FIXTURES / "squares.json"),
        "--command",
        "morse",
        "--degree-window",
        "2",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_timing_field_null_by_default(tmp_path):
    out = tmp_path / "r.json"
    assert (
        main(
            [
                "--input",
                str(FIXTURES / "squares.json"),
                "--command",
                "gb",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["timing_ms"] is None
    assert doc["version"]


@pytest.mark.parametrize(
    "command, stages",
    [
        ("gb", {"total"}),
        ("full", {"total", "oracle", "face_level", "characterization", "labels", "resolution"}),
    ],
)
def test_timing_map_per_stage(tmp_path, command, stages):
    args = ["--input", str(FIXTURES / "squares.json"), "--command", command]
    args += ["--degree-window", "3"]
    timed, plain = tmp_path / "timed.json", tmp_path / "plain.json"
    assert main(args + ["--timing", "--out", str(timed)]) == 0
    assert main(args + ["--out", str(plain)]) == 0
    timing = json.loads(timed.read_text())["timing_ms"]
    assert set(timing) == stages
    assert all(isinstance(ms, int) and ms >= 0 for ms in timing.values())
    assert sum(ms for stage, ms in timing.items() if stage != "total") <= timing["total"]
    assert json.loads(plain.read_text())["timing_ms"] is None
    # the timing is the only difference
    assert json.loads(timed.read_text())["report"] == json.loads(plain.read_text())["report"]


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "generators": []}')
    assert main(["--input", str(bad), "--command", "gb"]) == 1


@pytest.mark.parametrize("field", ["4", "9", "1", "-2"])
def test_exit_code_non_prime_field(field, capsys):
    code = main(["--input", str(FIXTURES / "minor.json"), "--command", "betti", "--field", field])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_exit_code_repeated_field(capsys):
    # a repeated field would count every check, and list every violation, twice
    argv = ["--input", str(FIXTURES / "minor.json"), "--command", "verify-bounds"]
    code = main(argv + ["--field", "2", "--field", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_exit_code_tsv_outside_betti(capsys):
    code = main(["--input", str(FIXTURES / "minor.json"), "--command", "gb", "--format", "tsv"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_config_echo_keys():
    cfg = RunConfig(input_path="x", command="gb")
    assert sorted(cfg.echo()) == [
        "command", "degree_window", "fields", "format", "input", "path_cap", "state_budget",
    ]


def test_deep_numerical_interval(tmp_path, capsys):
    # 1500 cover steps: factorizations must not recurse once per step
    doc = tmp_path / "deep.json"
    doc.write_text('{"dimension": 1, "generators": [[1]], "targets": [[1500]]}')
    assert main(["--input", str(doc), "--command", "interval"]) == 0
    entry = json.loads(capsys.readouterr().out)["report"]["intervals"][0]
    assert entry["degree"] == 1500
    assert entry["factorizations"] == [[0] * 1500]
    assert entry["elements"] == 1501


MALFORMED = {
    "dimension": '{"dimension": "x", "generators": [[1, 0]]}',
    "generator coordinate": '{"dimension": 2, "generators": [[1, "a"], [0, 1]]}',
    "fractional coordinate": '{"dimension": 2, "generators": [[1.5, 0], [0, 1]]}',
    "target coordinate": '{"dimension": 2, "generators": [[1, 0], [0, 1]], "targets": [[1, "b"]]}',
    "targets": '{"dimension": 2, "generators": [[1, 0], [0, 1]], "targets": 5}',
    "term_order": '{"dimension": 2, "generators": [[1, 0], [0, 1]], "term_order": [1]}',
    "priority": '{"dimension": 2, "generators": [[1, 0], [0, 1]], "term_order": {"priority": 5}}',
    "basis": '{"dimension": 2, "generators": [[1, 0], [0, 1]], "groebner_basis": 5}',
    "basis exponent": (
        '{"dimension": 2, "generators": [[1, 0], [0, 1]],'
        ' "groebner_basis": [{"plus": ["a", 0], "minus": [0, 1]}]}'
    ),
    "not an object": "[1, 2]",
    "missing generators": '{"dimension": 2}',
    "basis element": '{"dimension": 2, "generators": [[1, 0], [0, 1]], "groebner_basis": [5]}',
    "basis exponent length": (
        '{"dimension": 2, "generators": [[1, 0], [0, 1]],'
        ' "groebner_basis": [{"plus": [1], "minus": [0]}]}'
    ),
    "target dimension": '{"dimension": 2, "generators": [[1, 0], [0, 1]], "targets": [[1]]}',
    "zero dimension": '{"dimension": 0, "generators": [[1]]}',
    "generator dimension": '{"dimension": 2, "generators": [[1, 0], [1]]}',
    "negative coordinate": '{"dimension": 2, "generators": [[1, -1], [0, 1]]}',
    "term order kind": (
        '{"dimension": 2, "generators": [[1, 0], [0, 1]], "term_order": {"kind": "nope"}}'
    ),
    "weight rows missing": (
        '{"dimension": 2, "generators": [[1, 0], [0, 1]],'
        ' "term_order": {"kind": "weight-matrix"}}'
    ),
    "weight row length": (
        '{"dimension": 2, "generators": [[1, 0], [0, 1]],'
        ' "term_order": {"kind": "weight-matrix", "rows": [[1]]}}'
    ),
    "rows outside weight-matrix": (
        '{"dimension": 2, "generators": [[1, 0], [0, 1]],'
        ' "term_order": {"kind": "lex", "rows": [[1, 0], [0, 1]]}}'
    ),
    "weight rows not an array": (
        '{"dimension": 2, "generators": [[1, 0], [0, 1]],'
        ' "term_order": {"kind": "weight-matrix", "rows": 5}}'
    ),
}

# a full-rank weight matrix on three generators with one entry replaced;
# int() would coerce each of these to 1 and run a different order
WEIGHT_ROWS = '[[{}, 1, 1], [0, 0, 1], [0, 1, 0]]'
PRIORITY = '[{}, 0, 2]'
for _entry, _kind in (("1.5", "fractional"), ('"1"', "string"), ("true", "boolean")):
    MALFORMED[f"{_kind} weight-matrix entry"] = (
        '{"dimension": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
        ' "term_order": {"kind": "weight-matrix", "rows": %s}}' % WEIGHT_ROWS.format(_entry)
    )
    MALFORMED[f"{_kind} priority entry"] = (
        '{"dimension": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
        ' "term_order": {"kind": "lex", "priority": %s}}' % PRIORITY.format(_entry)
    )

# json.loads gives up on deep nesting with a RecursionError, not a decode error
DEEP = "[" * 100_000 + "]" * 100_000
MALFORMED["deeply nested document"] = DEEP
MALFORMED["deeply nested term_order"] = (
    '{"dimension": 2, "generators": [[1, 0], [0, 1]], "term_order": %s}' % DEEP
)


@pytest.mark.parametrize(
    "text, err",
    [
        (
            '{"dimension": 2, "generators": [[1, 0], [0, 1]], "term_oder": {"kind": "graded-lex"}}',
            "error: unknown field 'term_oder'\n",
        ),
        (
            '{"dimension": 2, "generators": [[1, 0], [0, 1]],'
            ' "term_order": {"kind": "lex", "prority": [0, 1]}}',
            "error: bad term_order: unknown field 'prority'\n",
        ),
    ],
)
def test_unknown_field_exits_1_naming_it(text, err, tmp_path, capsys):
    # a misspelt optional field would otherwise run the default silently
    doc = tmp_path / "typo.json"
    doc.write_text(text)
    code = main(["--input", str(doc), "--command", "gb"])
    assert code == 1 and capsys.readouterr() == ("", err)


def assert_one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_with_one_error_line(case, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(MALFORMED[case])
    for command in COMMANDS:
        assert main(["--input", str(bad), "--command", command]) == 1, command
        assert_one_error_line(capsys)


MINOR = str(FIXTURES / "minor.json")

BAD_FLAGS = {
    "degree window not an integer": ["--input", MINOR, "--command", "gb", "--degree-window", "x"],
    "unknown command": ["--input", MINOR, "--command", "nope"],
    "missing input": ["--command", "gb"],
    "unknown flag": ["--input", MINOR, "--command", "gb", "--bogus"],
    "zero path cap": ["--input", MINOR, "--command", "gb", "--path-cap", "0"],
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flags_exit_1_with_one_error_line(case, capsys):
    assert main(BAD_FLAGS[case]) == 1
    assert_one_error_line(capsys)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--degree-window" in capsys.readouterr().out


def test_exit_code_missing_file():
    assert main(["--input", "/nonexistent/x.json", "--command", "gb"]) == 1


def test_non_utf8_input_exits_1_with_one_error_line(tmp_path, capsys):
    doc = tmp_path / "latin1.json"
    doc.write_bytes('{"dimension": 1, "generators": [[1]]} \u00e9'.encode("latin-1"))
    assert main(["--input", str(doc), "--command", "gb"]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("where", ["directory", "missing parent", "parent is a file"])
def test_unwritable_out_exits_1_with_one_error_line(where, tmp_path, capsys):
    (tmp_path / "plain.txt").write_text("")
    out = {
        "directory": tmp_path,
        "missing parent": tmp_path / "absent" / "out.json",
        "parent is a file": tmp_path / "plain.txt" / "out.json",
    }[where]
    assert main(["--input", MINOR, "--command", "gb", "--out", str(out)]) == 1
    assert_one_error_line(capsys)


def test_console_entry_point(tmp_path):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "morsegraded.cli",
            "--input",
            str(FIXTURES / "minor.json"),
            "--command",
            "full",
            "--degree-window",
            "3",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["report"]["ok"] is True


def test_canonical_json_sorted_keys():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text.index('"a"') < text.index('"b"')


def test_parse_custom_term_order():
    doc = json.loads(read("squares.json"))
    doc["term_order"] = {"kind": "graded-revlex", "priority": [0, 1, 2, 3, 4]}
    del doc["groebner_basis"]  # leading terms depend on the order
    parsed = parse_input(json.dumps(doc))
    assert parsed.order.kind == "graded-revlex"
    assert parsed.order.priority == (0, 1, 2, 3, 4)


def test_parse_weight_matrix_order():
    doc = json.loads(read("minor.json"))
    doc["term_order"] = {
        "kind": "weight-matrix",
        "rows": [[1, 1, 1, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    }
    parsed = parse_input(json.dumps(doc))
    assert parsed.order.kind == "weight-matrix"


def test_full_report_embeds_target_survivors(tmp_path):
    out = tmp_path / "full.json"
    assert (
        main(
            [
                "--input",
                str(FIXTURES / "squares.json"),
                "--command",
                "full",
                "--degree-window",
                "4",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    entry = doc["report"]["targets"]["2,2,1,1"]
    assert entry["morse_numbers"] == {"0": 1, "2": 2}
    assert entry["survivors"] == [[1, 4, 3, 2], [4, 3, 2, 1]]


def test_full_cancels_each_target_once(tmp_path, monkeypatch):
    # the suite's targets block reuses the deep window's cancellations
    import morsegraded.cli as cli
    import morsegraded.pipeline as pipeline

    cancelled = []
    original = pipeline.cancel_interval

    def spy(pres, lam, *args):
        cancelled.append(tuple(lam))
        return original(pres, lam, *args)

    for module in (pipeline, cli):
        if getattr(module, "cancel_interval", None) is original:
            monkeypatch.setattr(module, "cancel_interval", spy)
    out = tmp_path / "full.json"
    argv = ["--input", str(FIXTURES / "squares.json"), "--command", "full"]
    assert main(argv + ["--degree-window", "4", "--out", str(out)]) == 0
    assert cancelled.count((2, 2, 1, 1)) == 1
    assert len(cancelled) == len(set(cancelled))
    assert "2,2,1,1" in json.loads(out.read_text())["report"]["targets"]


@pytest.mark.parametrize("command", ["betti", "verify-bounds"])
def test_oracle_commands_slice_no_interval(command, monkeypatch, capsys):
    # the oracle reads every order complex off the presentation's poset
    from morsegraded.semigroup import SemigroupPresentation

    sliced = []
    original = SemigroupPresentation.interval

    def spy(self, mu, lam):
        sliced.append(lam)
        return original(self, mu, lam)

    monkeypatch.setattr(SemigroupPresentation, "interval", spy)
    argv = ["--input", str(FIXTURES / "squares.json"), "--command", command]
    assert main(argv + ["--degree-window", "5"]) == 0
    assert sliced == []


def run_breach(name, window, capsys):
    """Run cancel on a tests/fixtures/breaches input: its exit code, stdout
    and the lines of stderr."""
    argv = ["--input", str(BREACHES / f"{name}.json"), "--command", "cancel"]
    code = main(argv + ["--degree-window", str(window)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()


def test_face_matching_breach_names_multidegree_and_facet(capsys):
    """An invariant breach exits 2 with one line naming stage, λ and facet.

    On the numerical semigroup <3,4,5> at window 6 the interval [0, 20] has
    facets of lengths 4 and 5, and the face matching breaks its invariant
    at facet (1, 1, 1, 1, 1).  Whether the facet-ordered matching applies
    to such an interval at all is open (ROADMAP, no exit 2 on a valid
    input); this test pins only how the breach is reported, not the breach.
    """
    code, out, lines = run_breach("three_four_five", 6, capsys)
    assert code == 2 and out == ""
    assert len(lines) == 1
    assert "face matching at (20,)" in lines[0]
    assert "facet (1, 1, 1, 1, 1)" in lines[0]


def test_cancellation_breach_names_multidegree_and_facets(capsys):
    """The pivot rule pairs two cells of equal dimension at (8, 1, 9) of a
    standard-graded ring; the breach line names the stage, λ and both
    facets.  This pins the report, not the breach."""
    code, out, lines = run_breach("graded_pivot", 4, capsys)
    assert code == 2 and out == ""
    assert len(lines) == 1
    assert "cancellation at (8, 1, 9): facets (" in lines[0]
    assert "matched cells must differ in dimension by exactly one" in lines[0]


def test_series_breach_exits_2(monkeypatch, capsys):
    """A miscounting count_words breaks the series' numerator bound: one
    breach line naming the series stage, exit 2, no report."""
    from morsegraded.automaton import MorseAutomaton

    original = MorseAutomaton.count_words

    def miscount(self, max_len):
        counts = original(self, max_len)
        counts[-1] += 1
        return counts

    monkeypatch.setattr(MorseAutomaton, "count_words", miscount)
    code = main(["--input", str(FIXTURES / "squares.json"), "--command", "series"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal invariant breach: series: ")


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="known defect: invariant breach (exit 2) on a valid input"
)
@pytest.mark.parametrize(
    "name, window", [("two_three", 4), ("three_four_five", 6), ("graded_pivot", 4)]
)
def test_valid_breach_inputs_exit_0_or_1(name, window, capsys):
    """<2,3> under graded-revlex, <3,4,5> and a standard-graded ring whose
    pivot rule pairs cells of equal dimension are valid inputs, so cancel
    must end in a report or in one error line, not in an invariant breach."""
    code, _, _ = run_breach(name, window, capsys)
    assert code in (0, 1)


@pytest.mark.parametrize("command", COMMANDS)
def test_groebner_basis_built_only_when_read(command, monkeypatch, capsys):
    # interval, chains and betti never read the basis, so none is computed
    import morsegraded.cli as cli

    calls = []
    original = cli.groebner_for

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "groebner_for", spy)
    argv = ["--input", str(FIXTURES / "minor.json"), "--command", command]
    assert main(argv + ["--degree-window", "3"]) == 0
    assert len(calls) == (0 if command in ("interval", "chains", "betti") else 1)


def test_automaton_state_budget_exits_1(capsys):
    argv = ["--input", str(FIXTURES / "squares.json"), "--command", "automaton"]
    code = main(argv + ["--state-budget", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: automaton construction exceeded 3 states\n"


def test_ambiguous_collections_exit_1(tmp_path, capsys):
    # two cubic leads open a collection on the same letter pair
    doc = tmp_path / "ambiguous.json"
    doc.write_text('{"dimension": 2, "generators": [[2, 2], [2, 1], [3, 0], [2, 0]]}')
    code = main(["--input", str(doc), "--command", "automaton", "--degree-window", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: ambiguous overlapping collection transitions; basis not supported\n"
    )


def _deep_chain(tmp_path):
    # the interval [0, 1500] of the free semigroup <1> is one chain of 1500 steps
    doc = tmp_path / "deep.json"
    doc.write_text('{"dimension": 1, "generators": [[1]], "targets": [[1500]]}')
    return doc


def test_deep_chain_lists_without_recursion(tmp_path, capsys):
    code = main(["--input", str(_deep_chain(tmp_path)), "--command", "chains"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    (entry,) = json.loads(captured.out)["report"]["chains"]
    assert entry["facets"] == [[0] * 1500]


def test_chains_past_the_face_budget_exits_1(tmp_path, capsys):
    # [0, 60] over <2, 3> has sum over 2a + 3b = 60 of binomial(a + b, a)
    # facets: they are counted off the interval's contents, and none is listed
    doc = tmp_path / "wide.json"
    doc.write_text('{"dimension": 1, "generators": [[2], [3]], "targets": [[60]]}')
    start = time.monotonic()
    code = main(["--input", str(doc), "--command", "chains"])
    assert time.monotonic() - start < 2
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: chains at (60,): 8745217 facets, more than 2097152\n"


@pytest.mark.parametrize("command", ["morse", "cancel"])
def test_deep_chain_exceeds_face_budget_exits_1(command, tmp_path, capsys):
    code = main(["--input", str(_deep_chain(tmp_path)), "--command", command])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: face matching at (1500,): more than 2097152 faces to enumerate\n"
    )


@pytest.mark.parametrize("command", ["morse", "cancel"])
def test_deep_target_refused_before_slicing(command, tmp_path, capsys, monkeypatch):
    # every factorization of 20000 over <2, 3> has at least 6,667 labels, so
    # one facet alone spans 2^6666 interior subsets; slicing [0, 4000]
    # already takes seconds, and the cost grows faster than quadratically
    doc = tmp_path / "deep.json"
    doc.write_text('{"dimension": 1, "generators": [[2], [3]], "targets": [[20000]]}')
    sliced = []
    honest = SemigroupPresentation.interval
    monkeypatch.setattr(
        SemigroupPresentation, "interval", lambda *a: sliced.append(a) or honest(*a)
    )
    start = time.monotonic()
    code = main(["--input", str(doc), "--command", command, "--degree-window", "2"])
    assert time.monotonic() - start < 2
    assert code == 1 and capsys.readouterr() == (
        "",
        "error: face matching at (20000,): more than 2097152 faces to enumerate\n",
    )
    assert sliced == []


def test_deep_target_refusal_bound():
    # 1 is not in <2, 3>: the interval's own refusal names it, as before
    pres = SemigroupPresentation(1, [(2,), (3,)])
    morse.refuse_deep_target(pres, (1,))
    with pytest.raises(MorsegradedError, match="more than 2097152 faces"):
        morse.refuse_deep_target(pres, (20000,))
    # 67 needs 23 labels, so 2^22 interior subsets; 66 needs 22, so 2^21,
    # which is the budget itself and left to the build's exact count
    with pytest.raises(MorsegradedError, match="more than 2097152 faces"):
        morse.refuse_deep_target(pres, (67,))
    morse.refuse_deep_target(pres, (66,))


@pytest.mark.parametrize("command", ["morse", "cancel"])
def test_deep_chain_refused_before_any_walk_or_window_lookup(
    command, tmp_path, capsys, monkeypatch
):
    # the budget is read off the interval's contents alone, so no facet is
    # walked and no syzygy window looked up before the refusal
    seen = []
    honest_tables, honest_walk = morse.syzygy_windows, morse.facet_walk
    honest_missing = morse.SyzygyWindows.__missing__
    monkeypatch.setattr(
        morse, "syzygy_windows", lambda *a: seen.append("table") or honest_tables(*a)
    )
    monkeypatch.setattr(morse, "facet_walk", lambda *a: seen.append("walk") or honest_walk(*a))
    monkeypatch.setattr(
        morse.SyzygyWindows, "__missing__", lambda t, w: seen.append(w) or honest_missing(t, w)
    )
    code = main(["--input", str(_deep_chain(tmp_path)), "--command", command])
    assert code == 1 and "more than 2097152 faces" in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("command, stage", [("betti", "tor_tables"), ("cancel", "cancel_interval")])
def test_out_of_memory_exits_1_with_one_error_line(command, stage, monkeypatch, capsys):
    import morsegraded.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, stage, exhausted)
    argv = ["--input", str(FIXTURES / "squares.json"), "--degree-window", "3"]
    code = main(argv + ["--command", command])
    assert code == 1 and capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.parametrize("command", ["betti", "verify-bounds", "full"])
def test_core_past_oracle_face_budget_exits_1(command, monkeypatch, capsys):
    """A core whose layers grow past the oracle's face budget ends the run
    in one error line naming the multidegree and the faces built."""
    monkeypatch.setattr(homology, "ORACLE_FACE_BUDGET", 20)
    argv = ["--input", str(FIXTURES / "squares.json"), "--degree-window", "4"]
    code = main(argv + ["--command", command])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: order complex at (1, 3, 1, 1): 50 faces built, more than the budget of 20\n"
    )


def test_plane_semigroup_gb_exits_0(tmp_path, capsys):
    # not standard-graded: its toric relations up to the coordinate-sum
    # region (879 binomials at 9 letters) keep Buchberger busy for minutes,
    # while the fiber-minimum pass reads the region's basis directly
    doc = tmp_path / "plane.json"
    gens = [[2, 2], [2, 3], [3, 3], [2, 0], [3, 1], [2, 1]]
    doc.write_text(json.dumps({"dimension": 2, "generators": gens}))
    code = main(["--input", str(doc), "--command", "gb", "--degree-window", "3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert len(json.loads(captured.out)["report"]["elements"]) == 10
