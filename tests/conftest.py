import itertools
import random
from pathlib import Path

import pytest

from translation_lab import (
    FreeAbelianContext,
    FreeGroupContext,
    amalgam_z4_z6,
    baumslag_solitar,
    free_group_as_hnn,
    free_product_of_two_integers,
    integers,
)
from translation_lab.configs import load_group


@pytest.fixture(scope="session")
def z():
    return integers()


@pytest.fixture(scope="session")
def z2():
    return FreeAbelianContext(2)


@pytest.fixture(scope="session")
def f2():
    return FreeGroupContext(2)


@pytest.fixture(scope="session")
def amalgam():
    return amalgam_z4_z6()


@pytest.fixture(scope="session")
def s3_z4():
    """S3 glued to Z/4 over Z/2: a transposition of S3 is identified with 2 in Z/4."""
    perms = sorted(itertools.permutations(range(3)))
    s3_table = [
        [perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms
    ]
    return load_group(
        {
            "kind": "amalgam",
            "left": {"kind": "finite", "table": s3_table, "names": [f"p{i}" for i in range(6)]},
            "right": {"kind": "finite", "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
                      "names": ["0", "1", "2", "3"]},
            "pairs": [["p1", "2"]],
        }
    )


@pytest.fixture(scope="session")
def zz():
    return free_product_of_two_integers()


@pytest.fixture(scope="session")
def c2_c3():
    """PSL(2, Z) as the free product Z/2 * Z/3: trivial gluing of two finite factors."""
    return load_group(str(Path(__file__).parent / "inputs" / "c2-c3.json"))


@pytest.fixture(scope="session")
def bs12():
    return baumslag_solitar(1, 2)


@pytest.fixture(scope="session")
def f2_hnn():
    return free_group_as_hnn()


@pytest.fixture(scope="session")
def hnn_3z_5z():
    return load_group(
        {
            "kind": "hnn",
            "base": {"kind": "free-abelian", "rank": 1},
            "theta": {"h_step": 3, "k_step": 5},
        }
    )


@pytest.fixture(scope="session")
def hnn_klein():
    klein = [[i ^ j for j in range(4)] for i in range(4)]
    return load_group(
        {"kind": "hnn", "base": {"kind": "finite", "table": klein}, "theta": [["g1", "g2"]]}
    )


@pytest.fixture(scope="session")
def hnn_z4_negation():
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    return load_group(
        {
            "kind": "hnn",
            "base": {"kind": "finite", "table": z4, "names": ["0", "1", "2", "3"]},
            "theta": [["1", "3"], ["2", "2"], ["3", "1"]],
        }
    )


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def generator_sequences(ctx, max_len: int):
    """All sequences over the generating alphabet up to the given length."""
    gens = ctx.generator_elements()
    for n in range(max_len + 1):
        for combo in itertools.product(gens, repeat=n):
            yield list(combo)


def bfs_distances(ctx, radius: int):
    """Independent breadth-first word lengths, using only multiply and equality."""
    start = ctx.identity()
    dist = {start.word: 0}
    frontier = [start]
    for depth in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for g in ctx.generator_elements():
                y = ctx.multiply(x, g)
                if y.word not in dist:
                    dist[y.word] = depth
                    nxt.append(y)
        frontier = nxt
    return dist
