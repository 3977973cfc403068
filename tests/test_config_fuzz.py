"""Loader and CLI fuzz: every config the loader accepts runs without a traceback.

Group and subset definitions of every kind, composite groups nested one level
over the plain kinds, are drawn with parameters that are sometimes valid and
sometimes mutated: out of range, of the wrong type, or joined by a key the
kind does not take.  Each must either be refused with exit code 3 or run
`check deep --r 1 --R 3`, `check stabilisers --r 2` and `check isolation
--r 0 --R 0` to a documented exit code under a small ball cap, with exit
code 1 only beside a falsified verdict.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from translation_lab import cli
from translation_lab.configs import BUILTIN_GROUPS, load_group
from translation_lab.groups import BALL_CAP_ENV

FUZZ_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

WRONG_TYPES = st.sampled_from(["x", None, [], {}, 1.5])
NAMES = st.sampled_from(["0", "1", "2", "3", "a", "A", "b", "g1", "g2", "t", "G:1", "S:1", "zz"])
NAME_PAIRS = st.lists(st.tuples(NAMES, NAMES).map(list), max_size=2)


def sometimes(valid, mutated):
    """Mostly a draw from ``valid``, one time in five from ``mutated``."""
    return st.sampled_from([True, True, True, True, False]).flatmap(lambda ok: valid if ok else mutated)


def param(valid):
    """A valid value, or a small integer that may be out of range, or a value of the wrong type."""
    return sometimes(valid, st.one_of(st.integers(-2, 5), WRONG_TYPES))


def mutated(definitions):
    """The definitions, sometimes with a key their kind does not take, or without their kind."""
    return definitions.flatmap(
        lambda d: sometimes(
            st.just(d), st.sampled_from([{**d, "extra": 1}, {k: v for k, v in d.items() if k != "kind"}])
        )
    )


def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


TABLES = sometimes(
    st.one_of(st.integers(1, 6).map(_cyclic), st.just([[i ^ j for j in range(4)] for i in range(4)])),
    st.sampled_from([[[0, 1], [0, 1]], [[0, 1, 2], [1, 2, 0]]]),  # no inverses; not square
)

FREE = st.fixed_dictionaries({"kind": st.just("free"), "rank": param(st.integers(1, 3))})
FREE_ABELIAN = st.fixed_dictionaries({"kind": st.just("free-abelian"), "rank": param(st.integers(1, 2))})
FINITE = sometimes(
    st.fixed_dictionaries({"kind": st.just("finite"), "table": TABLES}),
    st.fixed_dictionaries(
        {"kind": st.just("finite"), "table": TABLES},
        optional={"names": st.lists(NAMES, max_size=6), "generators": st.lists(param(st.integers(0, 5)), max_size=2)},
    ),
)
PLAIN_GROUP = mutated(st.one_of(FREE, FREE_ABELIAN, FINITE))
THETA = st.one_of(
    st.fixed_dictionaries({"multiplier": param(st.integers(1, 3))}),
    st.fixed_dictionaries({"h_step": param(st.integers(1, 3)), "k_step": param(st.integers(1, 3))}),
    NAME_PAIRS,
)
AMALGAM = st.fixed_dictionaries(
    {"kind": st.just("amalgam"), "left": PLAIN_GROUP, "right": PLAIN_GROUP, "pairs": sometimes(st.just([]), NAME_PAIRS)}
)
HNN = st.fixed_dictionaries({"kind": st.just("hnn"), "base": PLAIN_GROUP, "theta": THETA})
GROUPS = st.one_of(st.sampled_from(sorted(BUILTIN_GROUPS)), PLAIN_GROUP, mutated(st.one_of(AMALGAM, HNN)))

INTERVAL = st.fixed_dictionaries(
    {"kind": st.just("interval")}, optional={"coord": param(st.integers(0, 1)), "lo": param(st.integers(-2, 2))}
)
CONGRUENCE = st.fixed_dictionaries(
    {"kind": st.just("congruence"), "modulus": param(st.integers(1, 3))},
    optional={"residue": param(st.integers(0, 2)), "coord": param(st.integers(0, 1))},
)
CONE = st.just({"kind": "positive-cone"})
FIRST_LETTER = st.fixed_dictionaries({"kind": st.just("custom-first-letter"), "exclude": sometimes(NAMES, WRONG_TYPES)})
HALFSPACE = st.fixed_dictionaries({"kind": st.just("halfspace"), "side": st.sampled_from(["G", "S", "B", "tB", "X"])})
UNIVERSAL = st.fixed_dictionaries(
    {"kind": st.just("universal")},
    optional={
        "variant": st.sampled_from(["z", "b-words", "q"]),
        "max_radius": param(st.integers(0, 1)),
        "start": param(st.integers(1, 3)),
        "min_step": param(st.integers(2, 5)),
    },
)
EVERYTHING = st.just({"kind": "universal-all"})
PLAIN_SUBSET = mutated(st.one_of(INTERVAL, CONGRUENCE, CONE, FIRST_LETTER, HALFSPACE, UNIVERSAL, EVERYTHING))
COSET_UNION = st.fixed_dictionaries(
    {"kind": st.just("coset-union"), "base": PLAIN_SUBSET, "translator": sometimes(NAMES, WRONG_TYPES)}
)
SUBSETS = st.one_of(PLAIN_SUBSET, mutated(COSET_UNION))
# the subset kinds that can describe a subset of each kind of group
SUITED = {
    "free": st.one_of(CONE, FIRST_LETTER, UNIVERSAL, EVERYTHING, COSET_UNION),
    "free-abelian": st.one_of(INTERVAL, CONGRUENCE, UNIVERSAL, EVERYTHING),
    "finite": st.one_of(FIRST_LETTER, EVERYTHING),
    "amalgam": st.one_of(HALFSPACE, EVERYTHING),
    "hnn": st.one_of(HALFSPACE, EVERYTHING),
}


def _with_subset(group):
    """The group with a subset, mostly of a kind that suits the group."""
    kind = load_group(group).kind if isinstance(group, str) else group.get("kind")
    subsets = sometimes(mutated(SUITED[kind]), SUBSETS) if kind in SUITED else SUBSETS
    return subsets.map(lambda subset: (group, subset))


CONFIGS = GROUPS.flatmap(_with_subset)


def test_every_config_is_refused_or_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(BALL_CAP_ENV, "300")
    group_file, subset_file = tmp_path / "group.json", tmp_path / "subset.json"

    @FUZZ_SETTINGS
    @given(CONFIGS)
    def refused_or_run(config):
        group, subset = config
        if isinstance(group, dict):
            group_file.write_text(json.dumps(group))
            group = str(group_file)
        subset_file.write_text(json.dumps(subset))
        common = ["--group", group, "--subset", str(subset_file)]
        for argv in (
            ["check", "deep", *common, "--r", "1", "--R", "3"],
            ["check", "stabilisers", *common, "--r", "2"],
            ["check", "isolation", *common, "--r", "0", "--R", "0"],
        ):
            code = cli.dispatch(argv)
            captured = capsys.readouterr()
            assert code in (0, 1, 3, 4), (argv, group, subset)
            if code in (0, 1):
                verdicts = {s["verdict"] for s in json.loads(captured.out)["suites"]}
                assert (code == 1) == ("falsified" in verdicts), (argv, group, subset)
            else:
                assert captured.err.startswith(("config error:", "resource cap:")), captured.err

    refused_or_run()
