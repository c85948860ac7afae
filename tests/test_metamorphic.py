"""Metamorphic orbits: `certify_rank2` gives one verdict on every image of a
G300 family under a map that keeps the question, max_i x'A_i x >= 0 on the
cone, unchanged.

The maps are member permutations, a duplicated member, an appended convex
combination of two members, the zero-block embedding blockdiag(A_i, 0) with
the cone on the first n coordinates, a signed-permutation congruence S'A_iS with
the cone's generators mapped by S', and scaling the whole family by 2**k.
Each orbit draws from its own seeded generator.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import g300_families
from yuancert import FirstOrderCone, InputError, MatrixFamily, NumericalFailureError, certify_rank2

# Verdicts depend on scale below about 2**-16 (the threshold -tol*(1 + largest
# entry) has an absolute part): today's counts of G300 families whose verdict
# moves, all of them refuted at scale 1, pinned as upper bounds. At k = -32 all
# 173 refuted families move, so no bound there says anything.
DOWNSCALE_MOVES = {-20: 1, -24: 5, -28: 50}


def verdict(members, cone=None) -> str:
    family = MatrixFamily(members)
    try:
        return certify_rank2(family, cone or FirstOrderCone.full(family.order), 1e-9)["verdict"]
    except (InputError, NumericalFailureError) as exc:
        return type(exc).__name__


@pytest.fixture(scope="module")
def g300():
    families = g300_families()
    verdicts = [verdict(members) for members in families]
    assert Counter(verdicts) == {"refuted": 173, "certified": 127}
    return families, verdicts


def moved(g300, images, seed: int) -> list[int]:
    """Indices of the families with an image, a (members, cone) pair from
    images(members, rng), whose verdict differs from the family's own."""
    families, verdicts = g300
    rng = np.random.default_rng([2017, seed])
    return [i for i, (members, v) in enumerate(zip(families, verdicts))
            if any(verdict(*image) != v for image in images(members, rng))]


def test_member_permutations(g300):
    def images(members, rng):
        for _ in range(3):
            yield [members[j] for j in rng.permutation(len(members))], None
    assert moved(g300, images, 1) == []


def test_duplicated_member(g300):
    def images(members, rng):
        yield members + [members[int(rng.integers(len(members)))]], None
    assert moved(g300, images, 2) == []


def test_appended_convex_combination(g300):
    def images(members, rng):
        a, b = rng.choice(len(members), 2, replace=False)
        s = rng.uniform()
        yield members + [s * members[a] + (1.0 - s) * members[b]], None
    assert moved(g300, images, 3) == []


def test_zero_block_embedding(g300):
    def images(members, rng):
        n = len(members[0])
        yield ([np.pad(a, ((0, 2), (0, 2))) for a in members],
               FirstOrderCone(n + 2, np.eye(n + 2)[:n]))
    assert moved(g300, images, 4) == []


def test_signed_permutation_congruence(g300):
    # x'(S'AS)x = (Sx)'A(Sx), so the image's cone holds S'g for each generator g
    # (a row of I, taken to the row g'S); the set rank reads the entries in a new layout
    def images(members, rng):
        n = len(members[0])
        s = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
        yield [s.T @ a @ s for a in members], FirstOrderCone(n, np.eye(n) @ s)
    assert moved(g300, images, 6) == []


@pytest.mark.parametrize("k", [-16, -8, 8, 64, 510, 1010])
def test_power_of_two_scaling(g300, k):
    def images(members, rng):
        yield [np.ldexp(a, k) for a in members], None
    assert moved(g300, images, 5) == []


@pytest.mark.parametrize("k", sorted(DOWNSCALE_MOVES))
def test_downscaling_moves_at_most_todays_counts(g300, k):
    # below scale 1 the threshold only loosens relative to the entries, so the
    # refuted families are the ones that can move
    families, verdicts = g300
    shifted = [i for i, (members, v) in enumerate(zip(families, verdicts))
               if v == "refuted" and verdict([np.ldexp(a, k) for a in members]) != v]
    assert len(shifted) <= DOWNSCALE_MOVES[k], shifted
