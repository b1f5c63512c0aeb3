#!/usr/bin/env python3
"""Census of symmetric sphere systems and normalization reachability.

Counts the laminar families with k+l blocks over the manifold's label
universe, finds the symmetric ones by a search under the singleton blocks
{s(i)}, and reports how many there are, how many allowable assignments
they carry (read off each family's non-separating blocks), the BFS
state-space size, and the distribution of certificate lengths.  Each
assignment is generated once: it is counted and, with ``--lengths``,
normalized.  An assignment that the BFS cannot reach (with one handle the
mirror half is unreachable) is counted and reported after the histogram
instead of ending the run.
"""

import argparse
import collections
import sys
import time
from pathlib import Path

from mcgseq import textio
from mcgseq.errors import Unreachable
from mcgseq.systems import _reachability, normalize_system
from mcgseq.verify import allowable_assignments, enumerate_symmetric

DEFAULT_MANIFOLD = Path(__file__).resolve().parent.parent / "fixtures" / "mstar.txt"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--manifold", default=str(DEFAULT_MANIFOLD), help="manifold file"
    )
    parser.add_argument(
        "--lengths",
        action="store_true",
        help="also normalize every case and histogram the word lengths",
    )
    args = parser.parse_args(argv)

    manifold = textio.parse_manifold(Path(args.manifold).read_text())
    print(f"manifold: k={manifold.k}, l={manifold.ell}, |L|={len(manifold.labels())}")

    t0 = time.time()
    symmetric, candidates = enumerate_symmetric(manifold)
    print(
        f"laminar candidates with {manifold.k + manifold.ell} blocks: {candidates}"
    )
    print(f"symmetric systems: {len(symmetric)}  ({time.time() - t0:.1f}s)")

    t0 = time.time()
    index = _reachability(manifold)
    print(f"BFS states reachable from the standard system: {len(index)} "
          f"({time.time() - t0:.1f}s)")

    # one pass over the assignments: counted, and normalized with --lengths
    t0 = time.time()
    per_family = collections.Counter()
    lengths = collections.Counter()
    total = unreachable = 0
    for fam, nonsep in symmetric:
        n = 0
        for assignment in allowable_assignments(manifold, nonsep):
            n += 1
            if not args.lengths:
                continue
            try:
                word = normalize_system(manifold, fam, assignment)
            except Unreachable:
                unreachable += 1
                continue
            lengths[len(word)] += 1
        per_family[n] += 1
        total += n
    print(f"allowable assignments: {total} total "
          f"({dict(per_family)} per family)")

    if args.lengths:
        print(f"certificate lengths ({time.time() - t0:.1f}s):")
        for length in sorted(lengths):
            print(f"  {length:2d}: {lengths[length]}")
        print(f"unreachable: {unreachable}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
