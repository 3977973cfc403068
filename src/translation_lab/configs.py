"""JSON definitions for groups and subsets, plus named built-ins."""

from __future__ import annotations

import json
from pathlib import Path

from .groups import (
    AmalgamContext,
    FiniteGroupContext,
    FiniteHnnSubgroup,
    FreeAbelianContext,
    FreeGroupContext,
    GroupContext,
    GroupElement,
    HnnContext,
    IntegerScaledSubgroup,
    amalgam_z4_z6,
    baumslag_solitar,
    free_group_as_hnn,
    free_product_of_two_integers,
)
from .reports import ConfigError
from .subsets import (
    COSET_UNION_DECIDABLE,
    SubsetSpec,
    congruence_class,
    coordinate_halfspace,
    cyclic_translates,
    make_tree_halfspace,
    positive_cone,
    whole_group,
    words_not_starting_with,
)
from .universal import universal_b_words_spec, universal_z_spec


BUILTIN_GROUPS = {
    "z": lambda: FreeAbelianContext(1),
    "z2": lambda: FreeAbelianContext(2),
    "f2": lambda: FreeGroupContext(2),
    "f3": lambda: FreeGroupContext(3),
    "z4*z6": amalgam_z4_z6,
    "z*z": free_product_of_two_integers,
    "bs12": lambda: baumslag_solitar(1, 2),
    "f2-hnn": free_group_as_hnn,
}


# Keys each kind accepts besides "kind"; any other key is a config error.
GROUP_KEYS = {
    "free": {"rank", "generators"},
    "free-abelian": {"rank", "generators"},
    "finite": {"table", "names", "generators"},
    "amalgam": {"left", "right", "pairs", "tags"},
    "hnn": {"base", "theta", "stable_letter"},
}
SUBSET_KEYS = {
    "interval": {"coord", "lo"},
    "congruence": {"modulus", "residue", "coord"},
    "positive-cone": set(),
    "custom-first-letter": {"exclude"},
    "halfspace": {"side"},
    "coset-union": {"base", "translator"},
    "universal": {"variant", "max_radius", "start", "min_step"},
    "universal-all": set(),
}
THETA_KEYS = ({"multiplier"}, {"h_step", "k_step"})


def _kind(what: str, data: dict, allowed: dict) -> str:
    """The definition's kind, after checking that it has no keys the kind ignores."""
    kind = data["kind"]
    if kind not in allowed:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    unknown = set(data) - allowed[kind] - {"kind"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {what} kind {kind!r}")
    return kind


def _integer(value, key: str) -> int:
    """``value`` itself if it is a JSON integer; a float, bool or string is refused, never rounded."""
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _string(value, key: str) -> str:
    """``value`` itself if it is a JSON string; a number, list or null is refused."""
    if type(value) is not str:
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _as_dict(source) -> dict:
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        return json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {source}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {source} is not valid JSON: {err}") from err


def load_group(source) -> GroupContext:
    """Instantiate a group from a builtin name, a JSON file path, or a dict."""
    if isinstance(source, str) and source in BUILTIN_GROUPS:
        return BUILTIN_GROUPS[source]()
    data = _as_dict(source)
    try:
        ctx = _group_from_dict(data)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad group definition: {err}") from err
    # a report names elements by their format, and parse reads "e" as the identity
    names = {}
    for g in ctx.generator_elements():
        name = ctx.format(g)
        if name in names or name == "e":
            raise ConfigError(f"generator {name!r} formats like another generator or the identity 'e'")
        names[name] = g
    for name, g in names.items():
        try:
            named = ctx.parse(name)
        except ValueError:
            named = None
        if named != g:
            raise ConfigError(f"generator {name!r} does not parse back as itself")
    return ctx


def _group_from_dict(data: dict) -> GroupContext:
    kind = _kind("group", data, GROUP_KEYS)
    if kind in ("free", "free-abelian"):
        names = [_string(name, "generator name") for name in data.get("generators") or ()]
        return (FreeGroupContext if kind == "free" else FreeAbelianContext)(_integer(data["rank"], "rank"), names)
    if kind == "finite":
        table = [[_integer(v, "table entry") for v in row] for row in data["table"]]
        generators = data.get("generators")
        if generators is not None:
            generators = [_integer(g, "generator") for g in generators]
        names = [_string(name, "element name") for name in data.get("names") or ()]
        return FiniteGroupContext(table, names, generators)
    if kind == "amalgam":
        left = _group_from_dict(data["left"])
        right = _group_from_dict(data["right"])
        if _holds_amalgam(left) or _holds_amalgam(right):
            # its syllables would print with the same "*" and tags as the outer ones
            raise ConfigError("an amalgam factor cannot be an amalgam or an HNN extension over one")
        tags = data.get("tags", ["G:", "S:"])
        if not (isinstance(tags, list) and len(tags) == 2 and all(isinstance(t, str) for t in tags)):
            raise ConfigError("amalgam tags must be a list of two strings")
        if any(not tags[side] and isinstance(factor, HnnContext) for side, factor in ((0, right), (1, left))):
            # an untagged token after an HNN syllable's "*" could also start a syllable of the other factor
            raise ConfigError("an empty amalgam tag cannot stand beside an HNN factor, whose syllables print with '*'")
        pairs = [
            (left.parse(str(a)), right.parse(str(b))) for a, b in data.get("pairs", [])
        ]
        return AmalgamContext(left, right, pairs, tuple(tags))
    # the remaining kind is "hnn"
    base = _group_from_dict(data["base"])
    theta = data["theta"]
    if isinstance(theta, dict) and set(theta) not in THETA_KEYS:
        raise ConfigError(f"hnn theta keys must be one of {[sorted(k) for k in THETA_KEYS]}")
    if isinstance(theta, dict) and "multiplier" in theta:
        sub = IntegerScaledSubgroup(base, 1, _integer(theta["multiplier"], "multiplier"))
    elif isinstance(theta, dict):
        steps = _integer(theta["h_step"], "h_step"), _integer(theta["k_step"], "k_step")
        sub = IntegerScaledSubgroup(base, *steps) if any(steps) else FiniteHnnSubgroup(base, [])  # zero steps: trivial
    else:
        pairs = [(base.parse(str(a)), base.parse(str(b))) for a, b in theta]
        sub = FiniteHnnSubgroup(base, pairs)
    return HnnContext(base, sub, _string(data.get("stable_letter", "t"), "stable_letter"))


def _holds_amalgam(ctx: GroupContext) -> bool:
    """Whether ``ctx`` is an amalgam, or an HNN extension over one at any depth."""
    while isinstance(ctx, HnnContext):
        ctx = ctx.base
    return isinstance(ctx, AmalgamContext)


def load_subset(ctx: GroupContext, source) -> SubsetSpec:
    data = _as_dict(source) if not isinstance(source, dict) else source
    try:
        return _subset_from_dict(ctx, data)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad subset definition: {err}") from err


def _element(ctx: GroupContext, text) -> GroupElement:
    """The element a subset definition names; the name must be a string."""
    if not isinstance(text, str):
        raise ConfigError(f"element {text!r} must be given as a string")
    return ctx.parse(text)


def _subset_from_dict(ctx: GroupContext, data: dict) -> SubsetSpec:
    kind = _kind("subset", data, SUBSET_KEYS)
    if kind == "interval":
        return coordinate_halfspace(ctx, _integer(data.get("coord", 0), "coord"), _integer(data.get("lo", 0), "lo"))
    if kind == "congruence":
        return congruence_class(
            ctx,
            _integer(data["modulus"], "modulus"),
            _integer(data.get("residue", 0), "residue"),
            _integer(data.get("coord", 0), "coord"),
        )
    if kind == "positive-cone":
        return positive_cone(ctx)
    if kind == "custom-first-letter":
        return words_not_starting_with(ctx, _element(ctx, data["exclude"]))
    if kind == "halfspace":
        return make_tree_halfspace(ctx, data["side"])
    if kind == "coset-union":
        base = _subset_from_dict(ctx, data["base"])
        translator = _element(ctx, data["translator"])
        if data["base"]["kind"] != "positive-cone":
            raise ValueError(COSET_UNION_DECIDABLE)
        return cyclic_translates(base, translator)
    if kind == "universal":
        variant = data.get("variant", "z")
        if variant == "z":
            if set(data) - {"kind", "variant"}:
                raise ConfigError("the universal variant 'z' takes no parameters")
            return universal_z_spec(ctx)
        if variant == "b-words":
            placement = {key: _integer(data[key], key) for key in ("max_radius", "start", "min_step") if key in data}
            return universal_b_words_spec(ctx, **placement)
        raise ConfigError(f"unknown universal variant {variant!r}")
    # the remaining kind is "universal-all"
    return whole_group(ctx)
