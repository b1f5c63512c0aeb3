"""Seeded input generation: ladder manifolds and symmetric targets.

Everything here draws from a ``random.Random`` the caller seeds, so the
same seed gives the same inputs.  The package is used only to build and
validate values (``Word.of``, ``act_system``), never to decide what an
output should be.
"""

from __future__ import annotations

from mcgseq import systems
from mcgseq import words as w
from mcgseq.errors import NotLaminarAfterSlide
from mcgseq.model import standard_system

TYPE_A = "type A pi1=Z/2 mcg=table[1,tau;1,tau|tau,1] act=tau:g1\n"


def ladder_manifold(k: int, ell: int) -> str:
    """k copies of the reference summand type plus ell handles."""
    lines = [TYPE_A] if k else []
    lines += [f"summand {i} A\n" for i in range(1, k + 1)]
    lines.append(f"handles {ell}\n")
    return "".join(lines)


def bfs_moves(m) -> list:
    """Slides along one handle letter, spins and handle swaps."""
    paths = [(("x", j, s),) for j in range(1, m.ell + 1) for s in (1, -1)]
    moves = [w.SlideIrr(i, p) for i in range(1, m.k + 1) for p in paths]
    for j in range(1, m.ell + 1):
        allowed = [p for p in paths if p[0][1] != j]
        moves += [w.SlideEnd(j, s, p) for s in (1, -1) for p in allowed]
        moves += [w.SlideHandle(j, p) for p in allowed]
        moves.append(w.Spin(j))
    moves += [
        w.SwapHandles(a, b)
        for a in range(1, m.ell + 1)
        for b in range(a + 1, m.ell + 1)
    ]
    return moves


def symmetric_walk(m, rng, steps: int):
    """A word of normalization moves and the family it carries std onto.

    Moves that would break laminarity are skipped, so the family stays a
    symmetric system and ``trace_assignment`` is defined on the word.
    """
    moves = bfs_moves(m)
    family = standard_system(m)
    letters = []
    while len(letters) < steps:
        mv = rng.choice(moves)
        try:
            family = systems.act_system(m, w.Word(m, (mv,)), family)
        except NotLaminarAfterSlide:
            continue
        letters.append(mv)
    return w.Word.of(m, tuple(letters)), family


def laminar_image(m, word, family):
    """act_system(word, family), or None when a slide breaks laminarity."""
    try:
        return systems.act_system(m, word, family)
    except NotLaminarAfterSlide:
        return None
