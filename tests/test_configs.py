import json

import pytest

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
NOT_INTEGERS = [
    ("z", {"kind": "interval", "lo": 1.5}, "lo"),
    ("z", {"kind": "interval", "coord": 0.0}, "coord"),
    ("z", {"kind": "congruence", "modulus": 2, "residue": 0.5}, "residue"),
    ("z", {"kind": "congruence", "modulus": "2"}, "modulus"),
    ({"kind": "hnn", "base": Z_HNN, "theta": {"multiplier": 2.5}}, None, "multiplier"),
    ({"kind": "hnn", "base": Z_HNN, "theta": {"h_step": 1.0, "k_step": 2}}, None, "h_step"),
    ({"kind": "hnn", "base": Z_HNN, "theta": {"h_step": 1, "k_step": "2"}}, None, "k_step"),
    ({"kind": "free", "rank": 2.9}, None, "rank"),
    ({"kind": "free-abelian", "rank": True}, None, "rank"),
    ({"kind": "finite", "table": [[0, 1], [1, 0]], "generators": [1.7]}, None, "generator"),
    ({"kind": "finite", "table": [[0.0, 1], [1, 0]]}, None, "table entry"),
    ("f2", {**B_WORDS, "max_radius": 1.0}, "max_radius"),
    ("f2", {**B_WORDS, "start": 2.5}, "start"),
    ("f2", {**B_WORDS, "min_step": True}, "min_step"),
]


@pytest.mark.parametrize("group,subset,key", NOT_INTEGERS, ids=[key for _, _, key in NOT_INTEGERS])
def test_config_integers_must_be_json_integers(group, subset, key, tmp_path, capsys):
    message = f"{key} must be an integer"
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
]


@pytest.mark.parametrize(
    "group,message", NAME_CLASHES, ids=["free", "finite", "hnn", "amalgam", "finite-e", "amalgam-power"]
)
def test_names_that_cannot_be_told_apart_are_refused(group, message, tmp_path, capsys):
    with pytest.raises(ConfigError, match=message):
        load_group(group)
    (tmp_path / "group.json").write_text(json.dumps(group))
    (tmp_path / "all.json").write_text('{"kind": "universal-all"}')
    argv = ["check", "deep", "--group", str(tmp_path / "group.json"), "--subset", str(tmp_path / "all.json")]
    assert cli.dispatch(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


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
