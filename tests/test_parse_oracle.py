"""``main``'s one-pass parse against the top-level parse it shortcuts.

``main`` parses an argv that starts with a subcommand name with that
subcommand's own parser, and hands every other argv, and every one that
leaves strings over, to the top-level parser.  With ``_PARSER.subcommands``
patched empty every argv takes the top-level path, which is the oracle: on a
fixed corpus and on ``hypothesis`` lists of subcommand names, flags, values,
``--``, ``-h`` and junk, both paths must give the same exit code, stdout and
stderr, and an argv that parses must give the same namespace.
"""

from __future__ import annotations

from contextlib import redirect_stderr, redirect_stdout
import io
import json
import os
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st
import pytest

from handlenu import cli
from handlenu.catalog import lookup, solid_torus_trace
from handlenu.trace import canonical_dumps, dualize, trace_to_json

_GLUE = json.dumps({"pairs": [["h:2", "base:0"]]})
_GRAPH = json.dumps({"boundary_counts": [3, 3], "interfaces": [{"i": 0, "j": 1, "count": 1}],
                     "z": 4, "handle_costs": [2, 5]})
_BAD = json.dumps({"m": 3, "base": [], "handles": [{"index": 3, "attachment": {"type": "three",
                                                                                "anchor": "h:9"}}]})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding every input the corpus names, which ``rewrite``
    restores before each run (``compose --out`` may overwrite one)."""
    root = tmp_path_factory.mktemp("parse")
    texts = {
        "lens.json": canonical_dumps(trace_to_json(lookup("lens").traces[0][1])),
        "first.json": canonical_dumps(trace_to_json(solid_torus_trace())),
        "second.json": canonical_dumps(trace_to_json(dualize(solid_torus_trace()))),
        "glue.json": _GLUE,
        "graph.json": _GRAPH,
        "bad.json": _BAD,
    }

    def rewrite():
        for name, text in texts.items():
            (root / name).write_text(text)

    rewrite()
    before = Path.cwd()
    os.chdir(root)
    try:
        yield rewrite
    finally:
        os.chdir(before)


def run(argv: list[str], rewrite) -> tuple[int, str, str]:
    rewrite()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parsed(argv: list[str]):
    """``vars`` of what ``_parse`` returns, which is ``_PARSER.parse_args``'s
    namespace when the subcommand map is empty, or ``None`` where the argv
    does not parse."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parse(list(argv)))
        except SystemExit:
            return None


def check_both_paths(argv: list[str], rewrite) -> None:
    fast, fast_args = run(argv, rewrite), parsed(argv)
    with mock.patch.object(cli._PARSER, "subcommands", {}):
        slow, slow_args = run(argv, rewrite), parsed(argv)
    assert fast == slow, argv
    assert fast_args == slow_args, argv


REFUTE = ["--l", "1", "--z", "2", "--hmax", "5", "--hW", "11"]
COMPOSE = ["first.json", "second.json", "--glue", "glue.json"]

CORPUS = [
    # The argv of tests/test_cli.py, with their inputs under fixed names.
    ["compute", "lens.json"],
    ["compute", "--json", "lens.json"],
    ["compute", "lens.json", "--json"],
    ["compute", "bad.json"],
    ["compute", "/nonexistent/trace.json"],
    ["compute", "--no-such-flag", "lens.json"],
    ["search", "first.json", "--all-orderings"],
    ["search", "--json", "first.json"],
    ["search", "--json", "first.json", "--budget", "1"],
    ["search", "lens.json", "--json", "--all-orderings"],
    ["search", "--all-orderings", "--json", "lens.json"],
    *(["search", "x.json", "--budget", budget] for budget in ("abc", "1.5", "", "0", "-3")),
    ["validate", "lens.json"],
    ["validate", "bad.json"],
    ["compose", *COMPOSE],
    ["compose", *COMPOSE, "--check"],
    ["compose", *COMPOSE, "--json", "--check"],
    ["compose", *COMPOSE, "--check", "--out", "composite.json"],
    ["obstruct", "graph.json"],
    ["obstruct", "graph.json", "--json"],
    ["obstruct", "--json", "graph.json"],
    ["refute", *REFUTE],
    ["refute", "--l", "1", "--z", "2", "--hmax", "5", "--hW", "10"],
    ["refute", "--l", "1", "--z", "2", "--hmax", "5", "--hW", "-3", "--json"],
    ["refute", "--l", "-1", "--z", "2", "--hmax", "5", "--hW", "3"],
    ["catalog"],
    ["catalog", "--verify"],
    ["catalog", "--verify", "--json"],
    ["catalog", "--export", "s3"],
    ["catalog", "--export", "bottle"],
    ["catalog", "--export", "solid-torus", "--base", "torus"],
    ["catalog", "--verify", "--export", "lens"],
    ["catalog", "--export", "lens", "--verify"],
    ["catalog", "--base", "torus"],
    ["catalog", "--verify", "--json", "--base", "torus"],
    ["frobnicate"],
    [],
    # The one argv of COMMANDS in tests/test_startup.py not above.
    ["search", "lens.json", "--json"],
    # Help, usage errors and leftover strings.
    ["-h"],
    ["--help"],
    *([name, "-h"] for name in ("compute", "search", "compose", "obstruct", "refute", "catalog",
                                 "validate")),
    ["compose", "--help"],
    ["--json", "compute", "lens.json"],
    ["-h", "compute"],
    ["--", "compute", "lens.json"],
    ["comp", "lens.json"],
    ["compute"],
    ["compute", "lens.json", "--bogus"],
    ["compute", "x", "--bogus"],
    ["compute", "lens.json", "extra"],
    ["compute", "lens.json", "--", "--json"],
    ["compute", "--", "lens.json"],
    ["compute", "lens.json", "-h", "--bogus"],
    ["compute", "--bogus", "-h"],
    ["compute", "lens.json", "--json=1"],
    ["compute", "-"],
    ["compute", ""],
    ["search", "lens.json", "--budget=abc"],
    ["search", "lens.json", "--budget", "-1"],
    ["search", "lens.json", "--budget"],
    ["search", "lens.json", "--budget", "5", "--budget", "7", "--json"],
    ["search", "lens.json", "--all", "--json"],
    ["search", "lens.json", "--j"],
    ["catalog", "--exp", "lens"],
    ["catalog", "--e", "lens"],
    ["catalog", "--base"],
    ["compose", "first.json", "second.json"],
    ["compose", *COMPOSE, "--out"],
    ["refute"],
    ["refute", "--l", "x", "--z", "2", "--hmax", "5", "--hW", "11"],
    ["refute", "--l=1", "--z=2", "--hmax=5", "--hW=11"],
    ["refute", "--hw", "1", *REFUTE],
    ["validate", "lens.json", "lens.json"],
    ["-x"],
    ["--"],
]


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(argv) or "(empty)" for argv in CORPUS])
def test_each_corpus_argv_gives_the_top_level_outcome(workdir, argv):
    check_both_paths(argv, workdir)


NAMES = sorted(cli._PARSER.subcommands)
FLAGS = sorted({flag for parser in cli._PARSER.subcommands.values()
                for action in parser._actions for flag in action.option_strings})
VALUES = ["lens.json", "first.json", "second.json", "glue.json", "graph.json", "missing.json",
          "1", "0", "-3", "abc", "lens", "torus", "bottle"]
JUNK = ["--", "-h", "--help", "--bogus", "-x", "-", "", "--budget=2", "--json=1", "--all",
        "--exp", "frobnicate"]


def well_formed(name: str):
    """Argv built from ``name``'s own arguments, most of which parse: each
    positional and required option once, and each other option once or not,
    with a value where it takes one, in any order."""
    value = st.sampled_from(VALUES).map(lambda word: [word])
    groups = []
    for action in cli._PARSER.subcommands[name]._actions:
        if not action.option_strings:
            groups.append(value)
        elif action.dest != "help":
            flag = st.sampled_from(action.option_strings).map(lambda word: [word])
            word = flag if action.nargs == 0 else st.tuples(flag, value).map(lambda p: p[0] + p[1])
            groups.append(word if action.required else st.one_of(st.just([]), word))
    return st.tuples(*groups).flatmap(st.permutations).map(
        lambda parts: [name, *(word for part in parts for word in part)]
    )


TOKENS = st.one_of(st.sampled_from(NAMES + FLAGS + VALUES + JUNK), st.text(max_size=4))
ARGVS = st.one_of(
    st.lists(TOKENS, max_size=6),
    st.builds(lambda name, rest: [name, *rest], st.sampled_from(NAMES), st.lists(TOKENS, max_size=6)),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(argv=ARGVS)
def test_drawn_argv_give_the_top_level_outcome(workdir, argv):
    check_both_paths(argv, workdir)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argv=st.sampled_from(NAMES).flatmap(well_formed))
def test_drawn_well_formed_argv_give_the_top_level_outcome(workdir, argv):
    check_both_paths(argv, workdir)


def test_the_corpus_covers_every_flag_and_subcommand():
    words = {word for argv in CORPUS for word in argv}
    assert set(NAMES) <= words and set(FLAGS) <= words


@pytest.mark.parametrize("argv", [
    ["compute", "lens.json", "--json"],
    ["search", "lens.json", "--json", "--budget", "3"],
    ["compose", *COMPOSE, "--check", "--json"],
    ["refute", *REFUTE],
    ["catalog", "--export", "lens"],
])
def test_an_argv_that_parses_never_reaches_the_top_level_parser(workdir, argv):
    with mock.patch.object(cli._PARSER, "parse_args", side_effect=AssertionError(argv)):
        code, out, err = run(argv, workdir)
    assert (code, err) == (0, "") and out
