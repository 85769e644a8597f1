"""Input parsing, report determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from morsegraded.chains import FacetOrderConfig
from morsegraded.cli import _cells_json, main, run_command
from morsegraded.errors import InvalidBasis, ParseError
from morsegraded.io import COMMANDS, RunConfig, canonical_json, parse_input
from morsegraded.morse import build_face_matching

FIXTURES = Path(__file__).parent / "fixtures"


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
}


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


def test_face_matching_breach_names_multidegree_and_facet(tmp_path, capsys):
    """An invariant breach exits 2 with one line naming stage, λ and facet.

    On the numerical semigroup <3,4,5> at window 6 the interval [0, 20] has
    facets of lengths 4 and 5, and the face matching breaks its invariant
    at facet (1, 1, 1, 1, 1).  Whether the facet-ordered matching applies
    to such an interval at all is open (ROADMAP, certified toric ideal);
    this test pins only how the breach is reported, not the breach.
    """
    doc = tmp_path / "n345.json"
    doc.write_text(json.dumps({"dimension": 1, "generators": [[3], [4], [5]], "targets": [[20]]}))
    code = main(["--input", str(doc), "--command", "cancel", "--degree-window", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "face matching at (20,)" in lines[0]
    assert "facet (1, 1, 1, 1, 1)" in lines[0]


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


@pytest.mark.parametrize("command", ["morse", "cancel"])
def test_deep_chain_exceeds_face_budget_exits_1(command, tmp_path, capsys):
    code = main(["--input", str(_deep_chain(tmp_path)), "--command", command])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: face matching at (1500,): more than 2097152 faces to enumerate\n"
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
