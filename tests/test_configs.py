import json

import pytest

from test_predicate_oracles import LOADER_CONFIGS, Z4, Z6

from translation_lab import cli
from translation_lab.configs import ConfigError, load_group, load_subset


def test_builtin_names():
    for name in ("z", "z2", "f2", "z4*z6", "z*z", "bs12", "f2-hnn"):
        ctx = load_group(name)
        assert ctx.identity().word is not None


def test_finite_group_from_dict():
    ctx = load_group(
        {
            "kind": "finite",
            "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
            "names": ["0", "1", "2"],
        }
    )
    assert ctx.order == 3
    assert ctx.multiply(ctx.parse("1"), ctx.parse("2")).word == (0,)


def test_amalgam_from_dict():
    ctx = load_group(
        {
            "kind": "amalgam",
            "left": {"kind": "finite", "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
                     "names": ["0", "1", "2", "3"]},
            "right": {"kind": "finite", "table": [[(i + j) % 6 for j in range(6)] for i in range(6)],
                      "names": ["0", "1", "2", "3", "4", "5"]},
            "pairs": [["2", "3"]],
        }
    )
    assert ctx.subgroup_size() == 2
    b = load_subset(ctx, {"kind": "halfspace", "side": "G"})
    assert b.contains(ctx.identity())


def test_hnn_from_dict_with_multiplier():
    ctx = load_group(
        {
            "kind": "hnn",
            "base": {"kind": "free-abelian", "rank": 1, "generators": ["a"]},
            "theta": {"multiplier": 2},
        }
    )
    t = ctx.stable_letter(1)
    a = ctx.from_base(ctx.base.integer(1))
    assert ctx.multiply(ctx.multiply(t, a), ctx.stable_letter(-1)).word == ctx.from_base(
        ctx.base.integer(2)
    ).word


def test_hnn_from_dict_with_table():
    c4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    ctx = load_group(
        {
            "kind": "hnn",
            "base": {"kind": "finite", "table": c4, "names": ["0", "1", "2", "3"]},
            "theta": [["2", "2"]],
        }
    )
    # the order-2 subgroup is twisted identically, so t commutes with it
    h = ctx.from_base(ctx.base.parse("2"))
    t = ctx.stable_letter(1)
    assert ctx.multiply(t, h).word == ctx.multiply(h, t).word


def test_coset_union_subset():
    ctx = load_group("f2")
    x = load_subset(ctx, {"kind": "coset-union", "base": {"kind": "positive-cone"}, "translator": "A"})
    assert x.contains(ctx.parse("AA"))


def test_bad_group_kind():
    with pytest.raises(ConfigError):
        load_group({"kind": "nope"})


def test_bad_subset_kind():
    ctx = load_group("z")
    with pytest.raises(ConfigError):
        load_subset(ctx, {"kind": "nope"})


def test_missing_file():
    with pytest.raises(ConfigError):
        load_group("/nonexistent/path.json")


def test_interval_rejects_upper_bound():
    ctx = load_group("z")
    with pytest.raises(ConfigError):
        load_subset(ctx, {"kind": "interval", "lo": 0, "hi": 3})


@pytest.mark.parametrize(
    "group,subset",
    [
        ({"kind": "free", "rank": 2, "colour": "red"}, None),
        ({"kind": "free-abelian", "rank": 1, "hi": 3}, None),
        ({"kind": "finite", "table": [[0, 1], [1, 0]], "order": 2}, None),
        ({"kind": "amalgam", "left": {"kind": "free-abelian", "rank": 1},
          "right": {"kind": "free-abelian", "rank": 1}, "gluing": []}, None),
        ({"kind": "amalgam", "left": {"kind": "free-abelian", "rank": 1, "x": 0},
          "right": {"kind": "free-abelian", "rank": 1}}, None),
        ({"kind": "amalgam", "left": {"kind": "free-abelian", "rank": 1},
          "right": {"kind": "free", "rank": 1, "x": 0}}, None),
        ({"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1}, "theta": {"multiplier": 2},
          "stable": "s"}, None),
        ({"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1, "x": 0},
          "theta": {"multiplier": 2}}, None),
        ({"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1},
          "theta": {"multiplier": 2, "k_step": 3}}, None),
        ("z", {"kind": "interval", "lo": 0, "step": 2}),
        ("z", {"kind": "congruence", "modulus": 2, "offset": 1}),
        ("f2", {"kind": "positive-cone", "letters": "ab"}),
        ("f2", {"kind": "custom-first-letter", "exclude": "A", "require": "b"}),
        ("z4*z6", {"kind": "halfspace", "side": "G", "depth": 2}),
        ("f2", {"kind": "coset-union", "base": {"kind": "positive-cone"}, "translator": "A", "k": 3}),
        ("f2", {"kind": "coset-union", "base": {"kind": "positive-cone", "x": 0}, "translator": "A"}),
        ("z", {"kind": "universal", "variant": "z", "start": 3}),
        ("f2", {"kind": "universal", "variant": "b-words", "stop": 3}),
        ("z", {"kind": "universal-all", "name": "all"}),
    ],
)
def test_unknown_keys_are_rejected(group, subset):
    message = "unknown keys|theta keys|takes no parameters"
    if subset is None:
        with pytest.raises(ConfigError, match=message):
            load_group(group)
    else:
        ctx = load_group(group)
        with pytest.raises(ConfigError, match=message):
            load_subset(ctx, subset)


@pytest.mark.parametrize(
    "group,subset,message",
    [
        ("z", {"kind": "congruence", "modulus": 2, "coord": 5}, "coordinate out of range"),
        ("f2", {"kind": "congruence", "modulus": 2}, "free-abelian"),
        ("z4*z6", {"kind": "congruence", "modulus": 2}, "free-abelian"),
        ("f2", {"kind": "universal", "variant": "b-words", "max_radius": -1}, "nonnegative"),
        ("f2", {"kind": "universal", "variant": "b-words", "max_radius": 2}, "must be 0 or 1"),
        ("z2", {"kind": "universal", "variant": "b-words", "max_radius": 1}, "free group of rank 2"),
    ],
    ids=[
        "congruence-coord",
        "congruence-f2",
        "congruence-amalgam",
        "b-words-negative",
        "b-words-radius-2",
        "b-words-z2",
    ],
)
def test_subsets_the_group_cannot_carry_are_rejected(group, subset, message):
    ctx = load_group(group)
    with pytest.raises(ConfigError, match=message):
        load_subset(ctx, subset)


Z_HNN = {"kind": "free-abelian", "rank": 1}
B_WORDS = {"kind": "universal", "variant": "b-words"}


# One value per config that is not a JSON integer where the loader reads an integer.
# Read through int(), each was truncated or coerced and the line ran: lo 1.5 as lo 1
# (Z from 1.5 starts at 2), residue 0.5 as the even numbers (the set is empty),
# multiplier 2.5 as BS(1,2), rank 2.9 as F2, rank true as Z, generator 1.7 as 1.
# Then one name per config that is not a JSON string where the loader reads a name:
# each ended every command in a TypeError or AttributeError with exit 1.
WRONG_JSON_TYPES = [
    ("z", {"kind": "interval", "lo": 1.5}, "lo must be an integer"),
    ("z", {"kind": "interval", "coord": 0.0}, "coord must be an integer"),
    ("z", {"kind": "congruence", "modulus": 2, "residue": 0.5}, "residue must be an integer"),
    ("z", {"kind": "congruence", "modulus": "2"}, "modulus must be an integer"),
    ({"kind": "hnn", "base": Z_HNN, "theta": {"multiplier": 2.5}}, None, "multiplier must be an integer"),
    ({"kind": "hnn", "base": Z_HNN, "theta": {"h_step": 1.0, "k_step": 2}}, None, "h_step must be an integer"),
    ({"kind": "hnn", "base": Z_HNN, "theta": {"h_step": 1, "k_step": "2"}}, None, "k_step must be an integer"),
    ({"kind": "free", "rank": 2.9}, None, "rank must be an integer"),
    ({"kind": "free-abelian", "rank": True}, None, "rank must be an integer"),
    ({"kind": "finite", "table": [[0, 1], [1, 0]], "generators": [1.7]}, None, "generator must be an integer"),
    ({"kind": "finite", "table": [[0.0, 1], [1, 0]]}, None, "table entry must be an integer"),
    ("f2", {**B_WORDS, "max_radius": 1.0}, "max_radius must be an integer"),
    ("f2", {**B_WORDS, "start": 2.5}, "start must be an integer"),
    ("f2", {**B_WORDS, "min_step": True}, "min_step must be an integer"),
    ({"kind": "hnn", "base": Z_HNN, "theta": [], "stable_letter": 5}, None, "stable_letter must be a string"),
    ({"kind": "hnn", "base": Z_HNN, "theta": [], "stable_letter": ["t"]}, None, "stable_letter must be a string"),
    ({"kind": "finite", "table": [[0, 1], [1, 0]], "names": [0, 1]}, None, "element name must be a string"),
    ({"kind": "free-abelian", "rank": 1, "generators": [1]}, None, "generator name must be a string"),
]


@pytest.mark.parametrize(
    "group,subset,message", WRONG_JSON_TYPES, ids=[message.split(" must ")[0] for _, _, message in WRONG_JSON_TYPES]
)
def test_config_integers_must_be_json_integers(group, subset, message, tmp_path, capsys):
    if subset is None:
        with pytest.raises(ConfigError, match=message):
            load_group(group)
    else:
        with pytest.raises(ConfigError, match=message):
            load_subset(load_group(group), subset)
    # the command line refuses the same config with exit 3
    group_arg = group
    if not isinstance(group, str):
        group_arg = tmp_path / "group.json"
        group_arg.write_text(json.dumps(group))
    subset_file = tmp_path / "subset.json"
    subset_file.write_text(json.dumps(subset or {"kind": "universal-all"}))
    argv = ["check", "deep", "--group", str(group_arg), "--subset", str(subset_file), "--r", "1", "--R", "2"]
    assert cli.dispatch(argv) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


Z_NAMED = {"kind": "free-abelian", "rank": 1}

# Names the loader cannot tell apart; each of these loaded, and check deep exited 0 on it.
NAME_CLASHES = [
    ({"kind": "free", "rank": 2, "generators": ["a", "a"]}, "generator names \\['a', 'a'\\] must be distinct"),
    ({"kind": "finite", "table": [[0, 1], [1, 0]], "names": ["e", "e"]}, "element names \\['e', 'e'\\] must be distinct"),
    # the base's generator formats as the stable letter t
    ({"kind": "hnn", "base": {**Z_NAMED, "generators": ["t"]}, "theta": {"multiplier": 2}}, "generator 't' formats like"),
    # with empty tags the two factors' generators both format as a
    (
        {
            "kind": "amalgam",
            "left": {**Z_NAMED, "generators": ["a"]},
            "right": {"kind": "free", "rank": 1, "generators": ["a"]},
            "tags": ["", ""],
        },
        "generator 'a' formats like",
    ),
    # a generator named e formats as the identity
    ({"kind": "finite", "table": [[0, 1], [1, 0]], "names": ["x", "e"]}, "generator 'e' formats like"),
    # with empty tags the second factor's generator formats as a^2, which parses as the first factor's a^2
    (
        {
            "kind": "amalgam",
            "left": {**Z_NAMED, "generators": ["a"]},
            "right": {"kind": "finite", "table": [[0, 1], [1, 0]], "names": ["0", "a^2"]},
            "tags": ["", ""],
        },
        "generator 'a\\^2' does not parse back as itself",
    ),
    # Z^2 prints vectors, so its names were ignored: check deep printed (0,0) and exited 0
    ({"kind": "free-abelian", "rank": 2, "generators": ["x", "y"]}, "only Z takes a generator name"),
]


@pytest.mark.parametrize(
    "group,message",
    NAME_CLASHES,
    ids=["free", "finite", "hnn", "amalgam", "finite-e", "amalgam-power", "free-abelian-rank-2"],
)
def test_names_that_cannot_be_told_apart_are_refused(group, message, tmp_path, capsys):
    with pytest.raises(ConfigError, match=message):
        load_group(group)
    (tmp_path / "group.json").write_text(json.dumps(group))
    (tmp_path / "all.json").write_text('{"kind": "universal-all"}')
    argv = ["check", "deep", "--group", str(tmp_path / "group.json"), "--subset", str(tmp_path / "all.json")]
    assert cli.dispatch(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


# One amalgam as a factor of another: the left-factor element G:-1*S:a and the
# product of G:(G:-1) with S:a both printed as G:G:-1*S:a, and 44 elements of
# the radius-3 ball did not parse back as themselves.  With an HNN extension
# in between, 120 of 457 did not.
NESTED_AMALGAM = {
    "kind": "amalgam",
    "left": {
        "kind": "amalgam",
        "left": {"kind": "free-abelian", "rank": 1},
        "right": {"kind": "free", "rank": 1},
        "pairs": [],
    },
    "right": {"kind": "free", "rank": 1, "generators": ["a"]},
    "pairs": [],
}
INNER, FREE_A = NESTED_AMALGAM["left"], NESTED_AMALGAM["right"]
NESTED_AMALGAMS = {
    "left": NESTED_AMALGAM,
    "right": {**NESTED_AMALGAM, "left": FREE_A, "right": INNER},
    "hnn-between": {**NESTED_AMALGAM, "left": {"kind": "hnn", "base": INNER, "theta": []}},
}


@pytest.mark.parametrize("group", NESTED_AMALGAMS.values(), ids=NESTED_AMALGAMS)
def test_an_amalgam_below_an_amalgam_factor_is_refused(group, tmp_path, capsys):
    with pytest.raises(ConfigError, match="an amalgam factor cannot be an amalgam"):
        load_group(group)
    (tmp_path / "group.json").write_text(json.dumps(group))
    (tmp_path / "all.json").write_text('{"kind": "universal-all"}')
    argv = ["check", "deep", "--group", str(tmp_path / "group.json"), "--subset", str(tmp_path / "all.json")]
    assert cli.dispatch(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


# An empty tag beside an HNN factor: with tags ["", "S:"], Z/6 on the left and
# HNN(Z/4, 2 -> 2) on the right, S:t*1 is both the right syllable t*1 and S:t
# followed by the left factor's 1; 36 of the 178 elements of the radius-3 ball
# did not parse back as themselves, and the mirror config did the same.
EMPTY_TAG = "an empty amalgam tag cannot stand beside an HNN factor"
NOT_TWO_STRINGS = "amalgam tags must be a list of two strings"
REFUSED_TAGS = {
    "left-empty": ({**LOADER_CONFIGS["amalgam-hnn-right"], "tags": ["", "S:"]}, EMPTY_TAG),
    "right-empty": ({**LOADER_CONFIGS["amalgam-hnn-left"], "tags": ["G:", ""]}, EMPTY_TAG),
    # one tag ended every report in an IndexError traceback
    "one-tag": ({**LOADER_CONFIGS["amalgam"], "tags": ["G:"]}, NOT_TWO_STRINGS),
    "numbers": ({**LOADER_CONFIGS["amalgam"], "tags": [1, 2]}, NOT_TWO_STRINGS),
    "string": ({**LOADER_CONFIGS["amalgam"], "tags": "GS"}, NOT_TWO_STRINGS),
}


@pytest.mark.parametrize("group,message", REFUSED_TAGS.values(), ids=REFUSED_TAGS)
def test_tags_a_report_cannot_read_back_are_refused(group, message, tmp_path, capsys):
    with pytest.raises(ConfigError, match=message):
        load_group(group)
    (tmp_path / "group.json").write_text(json.dumps(group))
    (tmp_path / "all.json").write_text('{"kind": "universal-all"}')
    argv = ["check", "deep", "--group", str(tmp_path / "group.json"), "--subset", str(tmp_path / "all.json")]
    assert cli.dispatch(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


def test_an_empty_tag_beside_finite_factors_still_loads():
    for name in ("amalgam-empty-tag", "amalgam-empty-right-tag"):
        ctx = load_group(LOADER_CONFIGS[name])
        assert all(ctx.parse(ctx.format(x)) == x for x in ctx.ball(3))


def test_amalgams_and_hnn_extensions_still_nest_in_each_other():
    assert load_group({"kind": "hnn", "base": INNER, "theta": []}).kind == "hnn"
    z_hnn = {"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1}, "theta": {"multiplier": 2}}
    assert load_group({**NESTED_AMALGAM, "left": z_hnn}).kind == "amalgam"


# The trivial HNN subgroup has three spellings, which build one group.
A_NAMED = {"kind": "free-abelian", "rank": 1, "generators": ["a"]}
TRIVIAL_HNN = {
    "f2-hnn": "f2-hnn",
    "theta-empty": {"kind": "hnn", "base": A_NAMED, "theta": []},
    "zero-steps": {"kind": "hnn", "base": A_NAMED, "theta": {"h_step": 0, "k_step": 0}},
}


def test_the_trivial_hnn_subgroup_is_one_group_however_it_is_spelled(tmp_path, capsys):
    balls = [[ctx.format(x) for x in ctx.ball(6)] for ctx in map(load_group, TRIVIAL_HNN.values())]
    assert balls[0] == balls[1] == balls[2]
    (tmp_path / "all.json").write_text('{"kind": "universal-all"}')
    reports = []
    for name, group in TRIVIAL_HNN.items():
        if not isinstance(group, str):
            (tmp_path / f"{name}.json").write_text(json.dumps(group))
            group = str(tmp_path / f"{name}.json")
        common = ["--group", group, "--subset", str(tmp_path / "all.json")]
        assert cli.dispatch(["check", "deep", *common, "--r", "1", "--R", "3"]) == 0
        assert cli.dispatch(["check", "convexity", *common, "--L", "2"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]


def test_zero_steps_load_on_any_base_as_an_empty_twist_table():
    """Zero steps over Z^2 were refused (exit 3); they spell the trivial subgroup there too."""
    z2 = {"kind": "free-abelian", "rank": 2}
    steps = load_group({"kind": "hnn", "base": z2, "theta": {"h_step": 0, "k_step": 0}})
    table = load_group({"kind": "hnn", "base": z2, "theta": []})
    assert [steps.format(x) for x in steps.ball(4)] == [table.format(x) for x in table.ball(4)]


# Subgroup data that is no isomorphism of subgroups: the amalgam's gluing data
# and the HNN twist table go through the one pairing check, and one zero step
# would pair the trivial subgroup with an infinite one.
HNN_Z4 = {"kind": "hnn", "base": Z4}
Z4_Z6 = {"kind": "amalgam", "left": Z4, "right": Z6}
BAD_SUBGROUP_DATA = {
    "gluing-not-bijective": ({**Z4_Z6, "pairs": [["2", "3"], ["2", "0"]]}, "gluing data is not a bijection"),
    "gluing-not-closed": ({**Z4_Z6, "pairs": [["1", "3"]]}, "gluing data is not closed under products"),
    "gluing-not-multiplicative": ({**Z4_Z6, "pairs": [["2", "1"]]}, "gluing data is not multiplicative"),
    "twist-not-bijective": ({**HNN_Z4, "theta": [["1", "1"], ["2", "1"]]}, "twist table is not a bijection"),
    "twist-not-closed": ({**HNN_Z4, "theta": [["1", "1"]]}, "twist table is not closed under products"),
    "twist-not-multiplicative": ({**HNN_Z4, "theta": [["2", "1"]]}, "twist table is not multiplicative"),
    "one-zero-step": ({"kind": "hnn", "base": Z_HNN, "theta": {"h_step": 0, "k_step": 2}}, "steps must be nonzero"),
}


@pytest.mark.parametrize("group,message", BAD_SUBGROUP_DATA.values(), ids=BAD_SUBGROUP_DATA)
def test_subgroup_data_that_is_no_isomorphism_is_refused(group, message, tmp_path, capsys):
    with pytest.raises(ConfigError, match=message):
        load_group(group)
    (tmp_path / "group.json").write_text(json.dumps(group))
    (tmp_path / "all.json").write_text('{"kind": "universal-all"}')
    argv = ["check", "deep", "--group", str(tmp_path / "group.json"), "--subset", str(tmp_path / "all.json")]
    assert cli.dispatch(argv) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_universal_variants():
    """Variant z is the default and needs Z; any other name is refused."""
    z = load_group("z")
    given, default = load_subset(z, {"kind": "universal", "variant": "z"}), load_subset(z, {"kind": "universal"})
    assert given.name == default.name == "universal-z"
    assert [x.word for x in given.elements_in_ball(20)] == [x.word for x in default.elements_in_ball(20)]
    with pytest.raises(ConfigError, match="unknown universal variant 'q'"):
        load_subset(z, {"kind": "universal", "variant": "q"})
    with pytest.raises(ConfigError, match="the integer universal subset needs Z"):
        load_subset(load_group("f2"), {"kind": "universal", "variant": "z"})
