"""Reference answers the benchmark checks outputs against.

They are computed here from the definitions, not by the package code
being timed: the eduction of a word is folded directly in the wreath
product of the summands' mapping class groups, reading each finite
oracle's multiplication table as data.  Counts of the full sweeps are the
values the calculus has on the reference manifold.
"""

from __future__ import annotations

# Reference manifold A # A # (S^2 x S^1)^2 (fixtures/mstar.txt).
MSTAR_COUNTS = {
    "mixed_words_len3": 99_499,
    "kernel_words_len3": 81_790,
    "rewritten_words_len3": 390,
    "laminar_candidates": 16_990,
    "symmetric_families": 324,
    "assignments": 5_184,
    "bfs_states": 2_592,
}
# fixtures/spotted.txt under `verify --suite spotted` (max length 3).
SPOTTED_SUITE = {"surjectivity_targets": 12, "words": 1_111, "kernel_words": 335}


class FiniteGroup:
    """A finite group read from a table oracle's names and table."""

    def __init__(self, names, table):
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.table = tuple(tuple(row) for row in table)
        n = len(self.names)
        self.identity = next(
            self.names[i]
            for i in range(n)
            if all(self.table[i][j] == j and self.table[j][i] == j for j in range(n))
        )

    def mul(self, a, b):
        return self.names[self.table[self.index[a]][self.index[b]]]


class CyclicGroup:
    def __init__(self, order: int):
        self.order = order
        self.identity = 0

    def mul(self, a, b):
        return (a + b) % self.order


def group_of(oracle):
    """Reference arithmetic for a finite mcg oracle (table or cyclic)."""
    if oracle.kind == "table":
        return FiniteGroup(oracle.names, oracle.table)
    if oracle.kind == "cyclic":
        return CyclicGroup(oracle.order)
    raise ValueError(f"no reference arithmetic for {oracle.kind} oracles")


class Eduction:
    """Eduction folded in the wreath product, letter kinds read by name.

    Slides, spins, twists and handle swaps educe to the identity; ``aut``
    multiplies the token of whichever source summand currently sits at
    its summand; ``swapIrr`` composes a transposition onto the permutation.
    """

    def __init__(self, mcg_oracles):
        self.groups = [group_of(o) for o in mcg_oracles]
        self.k = len(self.groups)
        self.identity = (
            tuple(range(1, self.k + 1)),
            tuple(g.identity for g in self.groups),
        )

    def of(self, letters):
        perm = list(range(1, self.k + 1))
        tokens = [g.identity for g in self.groups]
        for lt in letters:
            kind = type(lt).__name__
            if kind == "Aut":
                for i in range(self.k):
                    if perm[i] == lt.summand:
                        tokens[i] = self.groups[i].mul(tokens[i], lt.token)
            elif kind == "SwapIrr":
                perm = [lt.b if v == lt.a else lt.a if v == lt.b else v for v in perm]
        return tuple(perm), tuple(tokens)

    def is_identity(self, letters) -> bool:
        return self.of(letters) == self.identity


DISCREPANT_KINDS = frozenset(
    {"SlideIrr", "SlideEnd", "SlideHandle", "Spin", "Twist", "SwapHandles"}
)
SLIDE_KINDS = frozenset({"SlideIrr", "SlideEnd", "SlideHandle"})


def only_discrepant(letters) -> bool:
    return all(type(lt).__name__ in DISCREPANT_KINDS for lt in letters)
