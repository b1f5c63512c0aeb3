#!/usr/bin/env python3
"""End-to-end walk-through of the slide normalization.

Picks a symmetric system and an allowable assignment (by index, so runs
are reproducible), normalizes, replays the returned word move by move, and
checks the induced duplicate correspondence.
"""

import argparse
import itertools
import sys
from pathlib import Path

from mcgseq import act_system, normalize_system, standard_system, trace_assignment
from mcgseq import textio, words as w
from mcgseq.verify import allowable_assignments, enumerate_symmetric

DEFAULT_MANIFOLD = Path(__file__).resolve().parent.parent / "fixtures" / "mstar.txt"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifold", default=str(DEFAULT_MANIFOLD))
    parser.add_argument("--family-index", type=int, default=17)
    parser.add_argument("--assignment-index", type=int, default=5)
    args = parser.parse_args()

    manifold = textio.parse_manifold(Path(args.manifold).read_text())
    symmetric, _ = enumerate_symmetric(manifold)
    family, nonsep = symmetric[args.family_index % len(symmetric)]
    assignments = list(allowable_assignments(manifold, nonsep))
    assignment = assignments[args.assignment_index % len(assignments)]

    print("target family:")
    print(textio.family_text(family), end="")
    print("target assignment:")
    print(textio.assignment_text(assignment), end="")

    word = normalize_system(manifold, family, assignment)
    print(f"\nnormalizing word ({len(word)} letters): {textio.word_text(word)}\n")

    current = standard_system(manifold)
    print("replay from the standard system:")
    print(f"  start: {' '.join(textio.block_text(b) for b in current.blocks)}")
    for letter in word.letters:
        current = act_system(manifold, w.Word(manifold, (letter,)), current)
        blocks = " ".join(textio.block_text(b) for b in current.blocks)
        print(f"  after {textio.word_letter_text(manifold, letter)}: {blocks}")

    assert current == family, "replay must land on the target family"
    assert trace_assignment(manifold, word) == assignment
    print("\nreplay lands on the target family with the requested assignment")
    return 0


if __name__ == "__main__":
    sys.exit(main())
