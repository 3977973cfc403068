import pytest
from conftest import rng

from translation_lab import (
    compose_tracks,
    congruence_class,
    identity_track,
    make_track,
    difference,
    make_tree_halfspace,
    natural_numbers,
    nonzero_witness,
    positive_cone,
    track_of_sequence,
    whole_group,
)
from translation_lab.tracks import support


def is_valid(ctx, track) -> bool:
    """The identity and the total are among the visited points."""
    words = {h.word for h in track.visited}
    return ctx.identity().word in words and track.total.word in words


def test_single_step(z):
    t = track_of_sequence(z, [z.integer(1)])
    assert t.total.word == (1,)
    assert [h.word[0] for h in t.visited] == [0, 1]


def test_two_step_cancellation_orders(z):
    up_down = track_of_sequence(z, [z.integer(-1), z.integer(1)])
    assert up_down.total.word == (0,)
    assert [h.word[0] for h in up_down.visited] == [0, 1]
    down_up = track_of_sequence(z, [z.integer(1), z.integer(-1)])
    assert [h.word[0] for h in down_up.visited] == [0, -1]


def test_identity_is_neutral(z):
    e = identity_track(z)
    t = track_of_sequence(z, [z.integer(2), z.integer(1)])
    assert compose_tracks(z, e, t) == t
    assert compose_tracks(z, t, e) == t


def test_compose_example(z):
    t1 = make_track(z, z.integer(0), [z.integer(1)])
    t2 = make_track(z, z.integer(0), [z.integer(-1)])
    composed = compose_tracks(z, t1, t2)
    assert composed.total.word == (0,)
    assert {h.word[0] for h in composed.visited} == {-1, 0, 1}
    assert [h.word[0] for h in composed.visited] == [0, -1, 1]  # shortlex storage


def test_concatenation_is_composition(f2):
    r = rng(23)
    gens = f2.generator_elements()
    for _ in range(300):
        seq1 = [gens[r.randrange(4)] for _ in range(r.randrange(4))]
        seq2 = [gens[r.randrange(4)] for _ in range(r.randrange(4))]
        whole = track_of_sequence(f2, seq1 + seq2)
        split = compose_tracks(f2, track_of_sequence(f2, seq1), track_of_sequence(f2, seq2))
        assert whole == split


def test_monoid_associativity_fuzz(f2):
    r = rng(29)
    gens = f2.generator_elements()
    tracks = []
    while len(tracks) < 60:
        seq = [gens[r.randrange(4)] for _ in range(r.randrange(4))]
        t = track_of_sequence(f2, seq)
        if len(t.visited) <= 4:
            tracks.append(t)
    for _ in range(1000):
        t1, t2, t3 = (tracks[r.randrange(len(tracks))] for _ in range(3))
        assert compose_tracks(f2, compose_tracks(f2, t1, t2), t3) == compose_tracks(
            f2, t1, compose_tracks(f2, t2, t3)
        )


def test_validity_invariants(f2):
    r = rng(31)
    gens = f2.generator_elements()
    for _ in range(200):
        seq = [gens[r.randrange(4)] for _ in range(r.randrange(5))]
        t = track_of_sequence(f2, seq)
        assert is_valid(f2, t)


def test_witness_on_naturals(z):
    nat = natural_numbers(z)
    t = make_track(z, z.integer(0), [z.integer(1)])
    witness = nonzero_witness(t, nat, 8)
    assert witness is not None and witness.word == (1,)


def test_no_witness_on_evens(z):
    evens = congruence_class(z, 2)
    t = make_track(z, z.integer(0), [z.integer(1)])
    for radius in (4, 8, 16):
        assert nonzero_witness(t, evens, radius) is None


def test_witness_on_cone(f2):
    cone = positive_cone(f2)
    t = track_of_sequence(f2, [f2.invert(f2.generator(1)), f2.generator(1)])
    witness = nonzero_witness(t, cone, 4)
    assert witness is not None and f2.format(witness) == "a"


SUBSETS = {
    "z": natural_numbers,
    "f2": positive_cone,
    "amalgam": lambda ctx: make_tree_halfspace(ctx, "G"),
    "bs12": lambda ctx: make_tree_halfspace(ctx, "B"),
}


@pytest.mark.parametrize("group", sorted(SUBSETS))
def test_support_is_the_translate_test(group, request):
    """support(spec, points)(x) says x h^-1 lies in the subset for every h of
    the points, for point sets that are no track's visited set too."""
    ctx = request.getfixturevalue(group)
    b = SUBSETS[group](ctx)
    ball = ctx.ball(4)
    gens = ctx.generator_elements()
    point_sets = [
        ctx.ball(1),
        gens,
        [ball[-1]],
        track_of_sequence(ctx, [gens[0], gens[-1], gens[0]]).visited,
    ]
    for spec in (b, difference(whole_group(ctx), b)):
        for points in point_sets:
            test = support(spec, points)
            for x in ball:
                assert test(x.word) == all(spec.contains(ctx.multiply(x, ctx.invert(h))) for h in points)
