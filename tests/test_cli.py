import argparse
import collections
import contextlib
import functools
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translation_lab import cli, gallery
from translation_lab.groups import BALL_CAP_ENV
from translation_lab.reports import dumps

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that read the command line before ``cli.parse_args``:
    the reference the parity test holds ``cli.parse_args`` to.  It accepts every
    flag of a command for each of its ``what``s, and abbreviations, and leaves
    out a flag not given."""
    parser = argparse.ArgumentParser(prog="translation-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli.COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        p.add_argument("what", choices=list(command.whats))
        for flag in dict.fromkeys(flag for row in command.whats.values() for flag in row.flags):
            spellings = ["--" + flag.replace("_", "-"), *(["-g"] if flag == "element" else [])]
            p.add_argument(*spellings, type=cli.FLAGS[flag].type, help=cli.FLAGS[flag].help)
        p.add_argument("--out", help=cli.FLAGS["out"].help)
        p.add_argument("--timings", action="store_true", help=cli.FLAGS["timings"].help)
    return parser


def argparse_reading(argv):
    """The oracle's attributes for ``argv``, each flag of the ``what``'s row that
    is not given at the row's default (None for a required one), or None when
    the oracle exits 2."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            given = vars(build_parser().parse_args(argv))
        except SystemExit as err:
            assert err.code == cli.EXIT_USAGE, argv
            return None
    row = cli.COMMANDS[given["command"]].whats[given["what"]]
    defaults = {flag: None if default is cli.REQUIRED else default for flag, default in row.flags.items()}
    return {**defaults, "out": None, "timings": False, **given}


def table_reading(argv):
    """``cli.parse_args``'s attributes for ``argv``, or None for a usage error."""
    try:
        return vars(cli.parse_args(argv))
    except cli.UsageError:
        return None


def test_gallery_toeplitz(capsys):
    code, out = run(capsys, "gallery", "toeplitz", "--R", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"][0]["name"] == "toeplitz"
    assert doc["suites"][0]["verdict"] == "verified-at-scale"


def test_check_deep_with_config(tmp_path, capsys):
    subset = tmp_path / "nat.json"
    subset.write_text('{"kind": "interval", "lo": 0}')
    code, out = run(capsys, "check", "deep", "--group", "z", "--subset", str(subset), "--r", "3", "--R", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"][0]["checks"][0]["witnesses"] == ["3"]


def test_op_eq_broken_relation(tmp_path, capsys):
    subset = tmp_path / "nat.json"
    subset.write_text('{"kind": "interval", "lo": 0}')
    code, out = run(
        capsys,
        "op", "eq",
        "--group", "z", "--subset", str(subset),
        "--lhs", "track:(0,{0,1})", "--rhs", "id", "--R", "8",
    )
    assert code == 1
    doc = json.loads(out)
    check = doc["suites"][0]["checks"][0]
    assert check["verdict"] == "falsified"
    assert check["witnesses"][0]["row"] == "0"
    # integer operator entries still emit as [numerator, denominator]
    assert (check["witnesses"][0]["lhs"], check["witnesses"][0]["rhs"]) == ([0, 1], [1, 1])


def test_op_kept_relation(tmp_path, capsys):
    subset = tmp_path / "nat.json"
    subset.write_text('{"kind": "interval", "lo": 0}')
    code, out = run(
        capsys,
        "op", "eq",
        "--group", "z", "--subset", str(subset),
        "--lhs", "track:(0,{0,-1})", "--rhs", "id", "--R", "8",
    )
    assert code == 0


def test_exit_code_one_only_with_a_falsified_verdict(tmp_path, capsys):
    subset = str(tmp_path / "nat.json")
    (tmp_path / "nat.json").write_text('{"kind": "interval", "lo": 0}')
    lo_one = str(tmp_path / "lo1.json")
    (tmp_path / "lo1.json").write_text('{"kind": "interval", "lo": 1}')
    union = str(tmp_path / "union.json")
    (tmp_path / "union.json").write_text(
        '{"kind": "coset-union", "base": {"kind": "interval", "lo": 5}, "translator": "1"}'
    )
    unknown_key = str(tmp_path / "unknown.json")
    (tmp_path / "unknown.json").write_text('{"kind": "interval", "lo": 0, "step": 2}')
    bad_subsets = {
        "coord5": '{"kind": "congruence", "modulus": 2, "coord": 5}',
        "evens": '{"kind": "congruence", "modulus": 2}',
        "bneg": '{"kind": "universal", "variant": "b-words", "max_radius": -1}',
        "b2": '{"kind": "universal", "variant": "b-words", "max_radius": 2}',
        "b1": '{"kind": "universal", "variant": "b-words", "max_radius": 1}',
        # an element named by a JSON value that is not a string
        "exclude_null": '{"kind": "custom-first-letter", "exclude": null}',
        "translator_int": '{"kind": "coset-union", "base": {"kind": "positive-cone"}, "translator": 1}',
    }
    bad_groups = {
        # an integer theta needs the base Z, not a finite or free base
        "hnn_finite": '{"kind": "hnn", "base": {"kind": "finite", "table": [[0, 1], [1, 0]]},'
        ' "theta": {"multiplier": 3}}',
        "hnn_free": '{"kind": "hnn", "base": {"kind": "free", "rank": 1}, "theta": {"multiplier": 2}}',
        "all": '{"kind": "universal-all"}',
        "half_b": '{"kind": "halfspace", "side": "B"}',
    }
    for stem, text in {**bad_subsets, **bad_groups}.items():
        (tmp_path / f"{stem}.json").write_text(text)
    bad = {stem: str(tmp_path / f"{stem}.json") for stem in {**bad_subsets, **bad_groups}}
    common = ["--group", "z", "--subset", subset]
    invocations = [
        ["op", "eq", *common, "--lhs", "track:(0,{0,1})", "--rhs", "id", "--R", "8"],
        ["op", "eq", *common, "--lhs", "track:(0,{0,-1})", "--rhs", "id", "--R", "8"],
        ["op", "eq", *common, "--lhs", "gen:zz", "--rhs", "id"],
        ["op", "eq", *common, "--lhs", "track:(x,{0})", "--rhs", "id"],
        # a track whose visited part is not closed, or is followed by more text
        ["op", "eq", *common, "--lhs", "track:0,{0,1", "--rhs", "id"],
        ["op", "eq", *common, "--lhs", "track:(0,{0,1}junk)", "--rhs", "id"],
        ["op", "build", *common, "--element", "q"],
        ["check", "deep", *common, "--r", "3", "--R", "-1"],
        ["check", "deep", *common, "--r", "5", "--R", "3"],
        ["check", "deep", *common, "--R", "abc"],
        ["check", "almost-invariant", *common],
        ["gallery", "pv", "--n", "-1"],
        ["universal", "independence", "--r", "-1"],
        ["check", "convexity", "--group", "z", "--subset", lo_one],
        ["universal", "verify", "--group", "f2"],
        ["check", "deep", "--group", "z", "--subset", union, "--r", "2", "--R", "6"],
        ["check", "deep", "--group", "z", "--subset", unknown_key],
        ["check", "deep", "--group", "z", "--subset", bad["coord5"]],
        ["check", "deep", "--group", "f2", "--subset", bad["evens"]],
        ["check", "deep", "--group", "z4*z6", "--subset", bad["evens"]],
        ["check", "deep", "--group", "f2", "--subset", bad["bneg"]],
        ["check", "deep", "--group", "f2", "--subset", bad["b2"], "--r", "1", "--R", "3"],
        ["check", "deep", "--group", "z2", "--subset", bad["b1"]],
        ["module", "inner", *common, "--lhs", "-1", "--rhs", "0"],
        ["module", "ideal", *common, "-g", "-1", "--R", "4"],
        ["check", "deep", "--group", bad["hnn_finite"], "--subset", bad["all"], "--r", "1", "--R", "3"],
        ["check", "deep", "--group", bad["hnn_free"], "--subset", bad["all"], "--r", "1", "--R", "3"],
        ["op", "rank", "--group", bad["hnn_free"], "--subset", bad["half_b"]],
        ["check", "deep", "--group", "f2", "--subset", bad["exclude_null"]],
        ["check", "stabilisers", "--group", "f2", "--subset", bad["translator_int"], "--r", "2"],
        # more generators than the default names
        ["gallery", "pv", "--n", "9"],
        ["gallery", "cuntz", "--n", "9"],
        # a distinguishing set with no point outside B to split it
        ["check", "isolation", "--group", "z", "--subset", bad["all"], "--r", "0", "--R", "0"],
        ["module", "ph", "--group", "z", "--subset", bad["all"], "--r", "0", "--R", "0"],
        # a report path that is a directory, or inside a missing directory
        ["gallery", "toeplitz", "--R", "3", "--out", str(tmp_path)],
        ["gallery", "toeplitz", "--R", "3", "--out", str(tmp_path / "missing" / "report.json")],
    ]
    codes = []
    for argv in invocations:
        code, out = run(capsys, *argv)
        codes.append(code)
        if code == cli.EXIT_FALSIFIED:
            verdicts = [c["verdict"] for s in json.loads(out)["suites"] for c in s["checks"]]
            assert "falsified" in verdicts, argv
    assert codes == [
        *[1, 0, 3, 3, 3, 3, 3, 2, 2, 2, 3, 2, 2, 3, 3, 3, 3, 3, 3],
        *[3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 0, 0, 3, 3],
    ]
    cli.dispatch(invocations[-1])
    assert capsys.readouterr().err.startswith(f"config error: cannot write report {invocations[-1][-1]}")


def table_contents():
    """What the command table holds, copied into plain values: each command's help,
    each row's flags with their defaults, runner and rule, and each flag's help and type."""
    return (
        {name: command.help for name, command in cli.COMMANDS.items()},
        {
            (name, what): (dict(row.flags), row.run, row.rule)
            for name, command in cli.COMMANDS.items()
            for what, row in command.whats.items()
        },
        {name: (flag.help, flag.type) for name, flag in cli.FLAGS.items()},
    )


def test_a_usage_error_leaves_the_parser_usable(tmp_path, capsys):
    """One command table serves the whole process; a usage error, or a caller
    that changes the namespace it got, must not spoil the next command."""
    subset = tmp_path / "nat.json"
    subset.write_text('{"kind": "interval", "lo": 0}')
    argv = ["op", "eq", "--group", "z", "--subset", str(subset), "--lhs", "track:(0,{0,1})", "--rhs", "id"]
    table = table_contents()
    parsed = cli.parse_args(argv)
    before = run(capsys, *argv)
    assert before[0] == cli.EXIT_FALSIFIED
    for usage_error in (["check", "deep", "--R", "-1"], ["check", "deep", "--r", "5", "--R", "3"], ["nope"]):
        assert run(capsys, *usage_error)[0] == cli.EXIT_USAGE
        assert run(capsys, *argv) == before
    parsed.R = 99
    assert cli.parse_args(argv) == cli.parse_args(argv) != parsed
    assert table_contents() == table


# The flags without which each (command, what) cannot run, written out here rather
# than read from the command table, each with a value that lets the line run
# ("nat.json" stands for the naturals in Z).
ON_NAT = {"--group": "z", "--subset": "nat.json"}
REQUIRED_FLAGS = {
    ("check", "deep"): ON_NAT,
    ("check", "rel-deep"): ON_NAT,
    ("check", "almost-invariant"): {**ON_NAT, "--element": "1"},
    ("check", "coseparable"): ON_NAT,
    ("check", "isolation"): ON_NAT,
    ("check", "boundary"): ON_NAT,
    ("check", "convexity"): ON_NAT,
    ("check", "stabilisers"): ON_NAT,
    ("op", "build"): {**ON_NAT, "--element": "1"},
    ("op", "mul"): {**ON_NAT, "--lhs": "gen:1", "--rhs": "id"},
    ("op", "adjoint"): {**ON_NAT, "--lhs": "gen:1"},
    ("op", "eq"): {**ON_NAT, "--lhs": "gen:1", "--rhs": "id"},
    ("op", "rank"): {**ON_NAT, "--lhs": "gen:1"},
    ("module", "inner"): {**ON_NAT, "--lhs": "1", "--rhs": "0"},
    ("module", "ph"): ON_NAT,
    ("module", "ideal"): {**ON_NAT, "--element": "1"},
    ("module", "coset-decomp"): {**ON_NAT, "--element": "1"},
    **{("gallery", what): {} for what in "toeplitz pv cuntz relations lance hnn quotient generation all".split()},
    **{("universal", what): {} for what in "build verify independence demo".split()},
}


def test_each_required_flag_is_a_config_error_when_absent(tmp_path, capsys):
    """The line with every required flag runs; without any one of them it exits 3
    and names that flag."""
    subset = tmp_path / "nat.json"
    subset.write_text('{"kind": "interval", "lo": 0}')
    rows = {(name, what): row for name, command in cli.COMMANDS.items() for what, row in command.whats.items()}
    assert list(rows) == list(REQUIRED_FLAGS)
    for (name, what), flags in REQUIRED_FLAGS.items():
        marked = {"--" + flag for flag, default in rows[name, what].flags.items() if default is cli.REQUIRED}
        assert marked == set(flags), (name, what)
        flags = {flag: str(subset) if value == "nat.json" else value for flag, value in flags.items()}
        if flags:
            assert cli.dispatch([name, what, *(token for item in flags.items() for token in item)]) in (0, 1), what
        for dropped in flags:
            argv = [name, what, *(token for item in flags.items() if item[0] != dropped for token in item)]
            capsys.readouterr()
            assert cli.dispatch(argv) == cli.EXIT_CONFIG, argv
            assert capsys.readouterr().err == f"config error: {dropped} is required for this command\n", argv
    # an empty --subset or --ambient is a path that cannot be read, not an absent flag
    on_nat = ["--group", "z", "--subset", str(subset)]
    for argv in (["universal", "build", "--subset", ""], ["check", "rel-deep", *on_nat, "--ambient", ""]):
        assert cli.dispatch(argv) == cli.EXIT_CONFIG, argv


def test_a_usage_error_wins_over_any_config_error(tmp_path, capsys, monkeypatch):
    subset = tmp_path / "nat.json"
    subset.write_text('{"kind": "interval", "lo": 0}')
    line = ["check", "deep", "--group", "nope", "--subset", str(subset), "--r", "5", "--R", "3"]
    assert cli.dispatch(line) == cli.EXIT_USAGE
    assert cli.dispatch(line[:-1] + ["5"]) == cli.EXIT_CONFIG  # with --r <= --R the unknown group shows
    capsys.readouterr()
    monkeypatch.setenv(BALL_CAP_ENV, "abc")
    assert cli.dispatch(line) == cli.EXIT_USAGE
    for argv in (
        ["check", "almost-invariant", "--group", "nope", "--L", "3"],  # a missing --subset and --element
        ["op", "eq", "--group", "z", "--subset", "missing.json", "--lhs", "track:0,{0", "--R", "-1"],
        ["module", "inner", "--group", "z", "--subset", "missing.json", "--lhs"],
        ["gallery", "pv", "--n", "0"],
        ["gallery", "lance", "--R", "0"],
    ):
        assert cli.dispatch(argv) == cli.EXIT_USAGE, argv
    assert "config error" not in capsys.readouterr().err


def test_gallery_honours_explicit_sizes(capsys):
    code, out = run(capsys, "gallery", "pv", "--n", "1", "--R", "0")
    assert code == 0
    assert json.loads(out)["suites"][0]["params"] == {"n": 1, "R": 0}
    code, out = run(capsys, "gallery", "toeplitz", "--R", "3")
    assert code == 0
    assert json.loads(out)["suites"][0]["params"] == {"R": 3}


@pytest.mark.parametrize(
    "argv",
    [
        ["gallery", "toeplitz", "--R", "0"],
        ["gallery", "toeplitz", "--R", "2"],
        ["gallery", "pv", "--n", "0"],
        ["gallery", "cuntz", "--n", "0"],
        ["gallery", "lance", "--R", "0"],
    ],
    ids=lambda argv: "-".join(argv[1:]),
)
def test_gallery_refuses_sizes_below_the_suite_minimum(capsys, argv):
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    assert "needs --" in capsys.readouterr().err


def test_bad_ball_cap_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv(BALL_CAP_ENV, "abc")
    assert cli.dispatch(["gallery", "toeplitz"]) == cli.EXIT_CONFIG


def test_timings_report_elapsed_time(tmp_path, capsys):
    subset = tmp_path / "nat.json"
    subset.write_text('{"kind": "interval", "lo": 0}')
    argv = ["check", "deep", "--group", "z", "--subset", str(subset), "--r", "3", "--R", "10"]
    cli.dispatch(argv)
    plain = capsys.readouterr()
    cli.dispatch(argv + ["--timings"])
    timed = capsys.readouterr()
    timed_doc = json.loads(timed.out)
    for suite in timed_doc["suites"]:
        check_seconds = [check.pop("elapsed_seconds") for check in suite["checks"]]
        assert all(s > 0 for s in check_seconds)
        assert suite.pop("elapsed_seconds") == pytest.approx(sum(check_seconds), abs=1e-5)
    # the JSON emission is timed on one stderr line after the report
    name, _, seconds = timed.err.rstrip("\n").partition("=")
    assert name == "emit_seconds" and float(seconds) >= 0
    # without the flag the bytes carry no timing, and are otherwise the same
    assert "elapsed" not in plain.out and plain.err == ""
    assert plain.out.rstrip("\n") == dumps(timed_doc)


def test_unknown_subcommand_usage_error(capsys):
    assert cli.dispatch(["frobnicate"]) == cli.EXIT_USAGE


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.dispatch(["check", "deep", "--group", str(bad), "--subset", str(bad)])
    assert code == cli.EXIT_CONFIG


def test_unknown_builtin_is_config_error(tmp_path, capsys):
    code = cli.dispatch(["check", "deep", "--group", "no-such-group", "--subset", "x.json"])
    assert code == cli.EXIT_CONFIG


def test_resource_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(BALL_CAP_ENV, "5")
    subset = tmp_path / "cone.json"
    subset.write_text('{"kind": "positive-cone"}')
    code = cli.dispatch(["check", "deep", "--group", "f2", "--subset", str(subset), "--r", "2", "--R", "6"])
    assert code == cli.EXIT_RESOURCE


def test_resource_cap_does_not_bound_a_finite_group(tmp_path, capsys, monkeypatch):
    """A finite group builds its whole depth table at construction, past the
    cap: z4*z6 loads and answers with a cap below its factors' orders."""
    monkeypatch.setenv(BALL_CAP_ENV, "5")
    subset = tmp_path / "half.json"
    subset.write_text('{"kind": "halfspace", "side": "G"}')
    code, out = run(capsys, "check", "deep", "--group", "z4*z6", "--subset", str(subset), "--r", "0", "--R", "0")
    assert code == 0
    assert json.loads(out)["suites"][0]["checks"][0]["verdict"] == "verified-at-scale"


def test_running_out_of_memory_is_the_resource_exit(capsys, monkeypatch):
    """A MemoryError while a ball grows exits 4 with a message naming the cap, not 1 with a traceback."""
    from translation_lab.groups import AmalgamContext

    def exhausted(self, room):
        raise MemoryError

    monkeypatch.setattr(AmalgamContext, "_next_layer", exhausted)
    monkeypatch.delenv(BALL_CAP_ENV, raising=False)
    half = str(Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "half.json")
    code = cli.dispatch(["check", "deep", "--group", "z4*z6", "--subset", half, "--r", "1", "--R", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_RESOURCE
    assert captured.out == ""
    assert captured.err == f"resource cap: out of memory at {BALL_CAP_ENV}=2000000 (set it lower to stop sooner)\n"


def test_a_long_twist_image_costs_the_convexity_check_nothing(tmp_path, capsys):
    """BS(1, 10^4): the twist relation t a t^-1 a^-10000 could never be
    applied by a search whose words stay within L + SLACK letters, so it is
    not spelled; the check answers at once, with the 12 base relations."""
    group = tmp_path / "bs-1-10000.json"
    group.write_text('{"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1}, "theta": {"multiplier": 10000}}')
    whole = str(Path(__file__).resolve().parent / "inputs" / "all.json")
    code, out = run(capsys, "check", "convexity", "--group", str(group), "--subset", whole, "--L", "2")
    assert code == 0
    assert json.loads(out)["suites"][0]["checks"][0] == {
        "compared_count": 14,
        "details": {"classes": 29, "word_count": 43},
        "name": "convexity",
        "params": {"B": "all", "L": 2, "letters": 6, "node_budget": 30000, "relations": 12, "slack": 3},
        "verdict": "verified-at-scale",
        "witnesses": [],
    }


def test_byte_reproducibility(tmp_path, capsys):
    subset = tmp_path / "nat.json"
    subset.write_text('{"kind": "interval", "lo": 0}')
    argv = ["check", "coseparable", "--group", "z", "--subset", str(subset), "--r", "1", "--R", "8"]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "gallery", "pv", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_module_inner(tmp_path, capsys):
    subset = tmp_path / "half.json"
    subset.write_text('{"kind": "halfspace", "side": "G"}')
    code, out = run(
        capsys,
        "module", "inner",
        "--group", "z4*z6", "--subset", str(subset),
        "--lhs", "G:1", "--rhs", "G:1",
    )
    assert code == 0
    doc = json.loads(out)
    value = doc["suites"][0]["checks"][0]["details"]["value"]
    assert value == {"e": [1, 1]}


def test_universal_demo(capsys):
    code, out = run(capsys, "universal", "demo")
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"][0]["name"] == "universal-contrast-demo"
    assert doc["suites"][0]["verdict"] == "verified-at-scale"


def test_empty_report_shape():
    from translation_lab.reports import dumps

    assert dumps({"suites": []}) == '{"suites":[]}'


def test_reports_independent_of_hash_seed():
    outputs = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "translation_lab.cli", "gallery", "pv"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        # a flag each subcommand never reads
        ["check", "deep", "--group", "z", "--lhs", "x"],
        ["op", "eq", "--L", "3"],
        ["module", "inner", "--n", "2"],
        ["gallery", "toeplitz", "--group", "f2"],
        ["universal", "demo", "--max-size", "2"],
        # a flag the command reads for another ``what``
        ["universal", "demo", "--group", "f2", "--R", "3", "--r", "1"],
        ["check", "deep", "--group", "z", "--subset", "nat.json", "-g", "5", "--L", "7", "--max-size", "9"],
        ["check", "convexity", "--group", "z", "--R", "4"],
        ["op", "build", "--lhs", "id"],
        ["module", "inner", "--ambient", "nat.json"],
        # a size flag the suite does not take
        ["gallery", "toeplitz", "--L", "3"],
        ["gallery", "quotient", "--n", "2"],
        ["gallery", "all", "--R", "5"],
    ],
    ids=lambda argv: "-".join(argv[:2] + [argv[-2]]),
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and argv[-2] in captured.err


def test_gallery_suite_without_flags_is_its_slice_of_run_all(capsys):
    everything = [suite.to_dict(False) for suite in gallery.run_all()]
    start = 0
    for name in gallery.SUITES:
        code, out = run(capsys, "gallery", name)
        assert code == cli.EXIT_OK
        count = len(json.loads(out)["suites"])
        assert out == dumps({"suites": everything[start : start + count]}) + "\n", name
        start += count
    assert start == len(everything)


def test_readme_command_lines_parse():
    """Every ``translation-lab`` line of the README's command block is accepted
    by the parser, and read as argparse read it."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("translation-lab ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)[1:]
        args = cli.parse_args(argv)
        assert args.command in cli.COMMANDS, line
        assert vars(args) == argparse_reading(argv), line


def test_readme_flag_table_matches_the_command_table():
    """One README row per (command, what), naming exactly the flags that ``what``
    reads, with the defaults (and, for a gallery suite, the least values) of the tables."""
    text = README.read_text().split("| command | what | flags (default) |", 1)[1]
    rows = re.findall(r"^\| `([\w-]+)` \| `([\w-]+)` \| (.*) \|$", text.split("\n\n", 1)[0], re.M)
    assert [(name, what) for name, what, _ in rows] == [
        (name, what) for name, command in cli.COMMANDS.items() for what in command.whats
    ]
    for name, what, cell in rows:
        flags = cli.COMMANDS[name].whats[what].flags
        spellings = re.findall(r"`(-[-\w]+)`", cell)
        assert {cli.SPELLINGS[s] for s in spellings} == set(flags), (name, what)
        for flag, default in flags.items():
            spelling = "--" + flag.replace("_", "-")
            if name == "gallery":
                suite_default, least = gallery.SUITES[what].sizes[flag]
                assert default == suite_default, (name, what, flag)
                assert f"`{spelling}` ({default}, least {least}" in cell, (name, what, flag)
            elif default in (None, cli.REQUIRED):
                assert f"`{spelling}` (" not in cell, (name, what, flag)
            else:
                assert f"`{spelling}` ({default})" in cell, (name, what, flag)
    # universal's --R is the window radius of build and the scan bound of verify and independence
    universal = cli.COMMANDS["universal"].whats
    assert [universal[what].flags["R"] for what in ("build", "verify", "independence")] == [12, 5000, 5000]


INT_VALUES = ["0", "3", "12"] * 3 + ["-1", "-12", "1.5", "x", ""]
TEXT_VALUES = ["z", "nat.json", "track:(0,{0,1})", "gen:1", "-1", "-2.5", "-.5", "a b", "-x y", "-", ""]
JUNK = ["junk", "-", "-5", "x y", "--bogus", "--bogus=1", "-q"]
WHATS = [(name, what) for name, command in cli.COMMANDS.items() for what in command.whats]


@st.composite
def command_lines(draw):
    """An argv for one (command, what): its own flags in both spellings, with good,
    negative, junk or missing values, junk tokens, and the ``what`` anywhere,
    missing, doubled or unknown.  No abbreviation, no -h, no flag the ``what`` does not read."""
    name, what = draw(st.sampled_from(WHATS))
    flags = [*cli.COMMANDS[name].whats[what].flags, *cli.COMMON]
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        if not flags or draw(st.integers(0, 9)) == 0:
            pieces.append([draw(st.sampled_from(JUNK))])
            continue
        flag = draw(st.sampled_from(flags))
        spelling = "-g" if flag == "element" and draw(st.booleans()) else "--" + flag.replace("_", "-")
        if cli.FLAGS[flag].type is None:
            pieces.append(draw(st.sampled_from([[spelling], [spelling], [spelling + "=1"], [spelling + "="]])))
            continue
        value = draw(st.sampled_from(TEXT_VALUES if cli.FLAGS[flag].type is str else INT_VALUES))
        form = draw(st.sampled_from(["space"] * 4 + ["equals"] * 2 + ["missing"]))
        pieces.append({"space": [spelling, value], "equals": [f"{spelling}={value}"], "missing": [spelling]}[form])
    placed = draw(st.sampled_from([[what]] * 4 + [[], [what, what], ["nope"], [what, "deep"]]))
    for token in placed:
        pieces.insert(draw(st.integers(0, len(pieces))), [token])
    head = draw(st.sampled_from([name] * 8 + ["nope", what]))
    return [head, *(token for piece in pieces for token in piece)]


def test_parse_args_reads_as_argparse_did():
    """Each generated argv is accepted by both parsers with the same attribute
    values, or refused by both, and then ``dispatch`` exits 2."""
    outcomes = collections.Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(command_lines())
    def check(argv):
        expected = argparse_reading(argv)
        assert table_reading(argv) == expected, argv
        if expected is None:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert cli.dispatch(argv) == cli.EXIT_USAGE, argv
            assert err.getvalue().startswith("usage: translation-lab"), argv
        outcomes[expected is not None] += 1

    check()
    assert outcomes[True] >= 80 and outcomes[False] >= 80, outcomes


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "deep", "--sub", "nat.json"],
        ["check", "deep", "--group", "z", "--max", "2"],
        ["gallery", "toeplitz", "--timi"],
        ["op", "eq", "--lh", "id", "--rhs", "id"],
    ],
    ids=lambda argv: argv[-2] if argv[-1] != "--timi" else argv[-1],
)
def test_an_abbreviated_flag_is_a_usage_error(capsys, argv):
    """argparse took a unique prefix of a flag; the table takes exact spellings only."""
    assert argparse_reading(argv) is not None
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized argument --" in captured.err


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["check", "-h"], ["gallery", "lance", "--R", "4", "--help"], ["universal", "-h"]]
)
def test_help_prints_usage_and_flags(capsys, argv):
    assert cli.dispatch(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: translation-lab ") and captured.err == ""
    assert "--timings" in captured.out
    if argv[0] == "check":
        assert "--max-size" in captured.out and "(default 8)" in captured.out
    if argv[0] == "universal":
        build, verify = (line for line in captured.out.splitlines() if line.lstrip().startswith(("build", "verify")))
        assert "--R (default 12)" in build and "--R (default 5000)" in verify


def test_dispatch_imports_no_argparse(tmp_path):
    """A fresh process runs commands without importing argparse, or gettext and
    locale, which argparse's first message lookup pulls in; nor dataclasses, or
    inspect, ast, dis and tokenize, which it pulls in.  (typing is left out:
    the interpreter's site may import it before any of the package.)"""
    src = str(Path(cli.__file__).resolve().parent.parent)
    subset = tmp_path / "nat.json"
    subset.write_text('{"kind": "interval", "lo": 0}')
    unwanted = {"argparse", "gettext", "locale", "dataclasses", "inspect", "ast", "dis", "tokenize"}
    code = (
        "import contextlib, io, sys\n"
        "from translation_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.dispatch(['gallery', 'toeplitz', '--R', '3']) == 0\n"
        f"    assert cli.dispatch(['check', 'deep', '--group', 'z', '--subset', {str(subset)!r},"
        " '--r', '3', '--R', '10']) == 0\n"
        f"print(sorted(set({sorted(unwanted)!r}) & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"


def _subset_files(tmp_path, **texts) -> dict[str, str]:
    """Each subset definition written to NAME.json under ``tmp_path``, by name."""
    paths = {}
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
        paths[name] = str(tmp_path / f"{name}.json")
    return paths


def test_operator_expressions(tmp_path, capsys):
    """``adj:X`` is the adjoint of X; an expression that is no operator, or a
    track without its visited part, is a config error."""
    common = ["--group", "z", "--subset", _subset_files(tmp_path, nat='{"kind": "interval", "lo": 0}')["nat"]]
    _, adjoint = run(capsys, "op", "adjoint", *common, "--lhs", "gen:1", "--R", "4")
    code, product = run(capsys, "op", "mul", *common, "--lhs", "adj:gen:1", "--rhs", "id", "--R", "4")
    assert code == 0
    details = [json.loads(out)["suites"][0]["checks"][0]["details"] for out in (adjoint, product)]
    assert details[0]["operator"] == details[1]["operator"]
    assert run(capsys, "op", "eq", *common, "--lhs", "adj:gen:1", "--rhs", "gen:-1")[0] == cli.EXIT_OK
    refusals = [("foo", "cannot parse operator expression 'foo'"), ("track:1", "track needs a {..} visited part")]
    for lhs, message in refusals:
        assert cli.dispatch(["op", "eq", *common, "--lhs", lhs, "--rhs", "id"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_universal_build_and_verify_on_a_b_words_subset(tmp_path, capsys):
    subset = _subset_files(tmp_path, u='{"kind": "universal", "variant": "b-words"}')["u"]
    code, out = run(capsys, "universal", "build", "--group", "f2", "--subset", subset, "--R", "12")
    assert code == cli.EXIT_OK
    check = json.loads(out)["suites"][0]["checks"][0]
    assert check["witnesses"] == ["baaaaaa"]  # the one point within radius 12: the pattern {e} at b a^6
    placements = check["details"]["placements"]
    assert len(placements) == 2 + 2**5  # every subset of the balls of radius 0 and 1
    assert placements[:2] == [
        {"center": "baa", "pattern": [], "radius": 0},
        {"center": "baaaaaa", "pattern": ["e"], "radius": 0},
    ]
    code, out = run(capsys, "universal", "verify", "--group", "f2", "--subset", subset, "--r", "1")
    assert code == cli.EXIT_OK
    check = json.loads(out)["suites"][0]["checks"][0]
    assert (check["verdict"], check["compared_count"]) == ("verified-at-scale", 32)


def test_a_check_refuses_an_input_it_cannot_take(tmp_path, capsys):
    """Each refusal exits 3 with the message of the check that makes it."""
    subsets = _subset_files(
        tmp_path,
        nat='{"kind": "interval", "lo": 0}',
        odd='{"kind": "congruence", "modulus": 2, "residue": 1}',
        even='{"kind": "congruence", "modulus": 2}',
    )
    on = {name: ["--group", "z", "--subset", path] for name, path in subsets.items()}
    refusals = [
        (["check", "convexity", *on["odd"]], "convexity needs the identity inside the subset"),
        (["module", "ideal", *on["nat"], "-g", "-1"], "g^-1 must lie in the ambient set but outside the subset"),
        (["universal", "build", "--group", "f2"], "the integer universal subset needs Z"),
        (["universal", "verify", "--group", "z2"], "the integer universal subset needs Z"),
        # the stabiliser of the even numbers is the infinite subgroup 2Z
        (["module", "inner", *on["even"], "--lhs", "0", "--rhs", "2"], "group-algebra elements need a finite subgroup"),
        (["module", "inner", *on["nat"], "--lhs", "-1", "--rhs", "0"], "sigma symbol outside the subset"),
        (
            ["module", "ph", *on["odd"]],
            "the claimed stabiliser must lie inside the subset for the projection construction",
        ),
    ]
    for argv, message in refusals:
        assert cli.dispatch(argv) == cli.EXIT_CONFIG, argv
        assert capsys.readouterr() == ("", f"config error: {message}\n"), argv
