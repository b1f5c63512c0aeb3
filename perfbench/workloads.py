"""The two workloads: seeded inputs, one closed loop of operations, checks.

Each workload builds its inputs in ``setup`` and then runs ``n_ops``
operations one after another (one client, no threads).  ``run_op``
returns the list of failed checks of that operation; ``finish`` adds the
checks that need the whole round (the known counts) and is folded into
the last operation.  Every call into the package goes through the
tracer, named ``<module>.<function>``.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from mcgseq import fpgroup, sequence, systems, textio, verify
from mcgseq import words as w
from mcgseq.errors import NotDiscrepant
from mcgseq.model import standard_system

import gen
import refs


def _outcome(m, word, family):
    image = gen.laminar_image(m, word, family)
    return "not-laminar" if image is None else image


class Workload:
    """Shared state: the manifold, counters and inputs captured for the layer pass."""

    def __init__(self, root: Path, seed: int, tracer):
        self.root = root
        self.seed = seed
        self.t = tracer
        self.rng = random.Random(seed)
        self.counts = {"kernel_words": 0, "rewritten_words": 0}
        self.setup_errors: list[str] = []

    def load(self, text: str):
        self.manifold_text = text
        self.m = self.t.call("textio.parse_manifold", textio.parse_manifold, text)
        self.std = self.t.call("model.standard_system", standard_system, self.m)
        return self.m

    def finish(self) -> list[str]:
        return []

    def first_input(self):
        """The first operation's input as text, for a cold start that sets
        up only that; None where a cold start sets up in full."""
        return None

    def capture(self) -> dict:
        """Words and families of this workload, for the layer pass."""
        raise NotImplementedError


class ExactSequence(Workload):
    """Eduction of discrepant words, kernel test and factorization of mixed words.

    An operation is a batch: an equal share of the shuffled mixed words up
    to length 3 (all 99,499 of them per round) plus an equal share of a
    seeded sample of discrepant words up to length 4.
    """

    name = "exact-sequence"
    OPS = 100
    DISCREPANT_SAMPLE = 60_000
    DISCREPANT_LEN = 4
    MIXED_LEN = 3

    def setup(self, first_input=None):
        m = self.load((self.root / "fixtures" / "mstar.txt").read_text(encoding="utf-8"))
        t, rng = self.t, self.rng
        alpha = t.call("verify.discrepant_alphabet", verify.discrepant_alphabet, m)
        extra = t.call(
            "verify.nondiscrepant_alphabet", verify.nondiscrepant_alphabet, m
        )
        mixed = [
            combo
            for length in range(self.MIXED_LEN + 1)
            for combo in itertools.product(alpha + extra, repeat=length)
        ]
        rng.shuffle(mixed)
        sizes = [len(alpha) ** n for n in range(self.DISCREPANT_LEN + 1)]
        disc = []
        for _ in range(self.DISCREPANT_SAMPLE):
            r = rng.randrange(sum(sizes))
            length = 0
            while r >= sizes[length]:
                r -= sizes[length]
                length += 1
            combo = []
            for _ in range(length):
                r, digit = divmod(r, len(alpha))
                combo.append(alpha[digit])
            disc.append(tuple(combo))
        self.ref = refs.Eduction([m.type_of(i).mcg for i in range(1, m.k + 1)])
        n = self.OPS
        self.batches = [
            (
                mixed[i * len(mixed) // n : (i + 1) * len(mixed) // n],
                disc[i * len(disc) // n : (i + 1) * len(disc) // n],
            )
            for i in range(n)
        ]
        self.n_mixed = len(mixed)
        self.kernel_samples: list = []
        self.rewritten_samples: list = []

    def n_ops(self):
        return len(self.batches)

    def run_op(self, i):
        m, t, ref = self.m, self.t, self.ref
        mixed, disc = self.batches[i]
        errors = []
        for combo in disc:
            word = t.call("words.Word", w.Word, m, combo)
            image = t.call("sequence.educe", sequence.educe, word)
            if (image.perm, image.tokens) != ref.identity:
                errors.append("discrepant word educes non-trivially: %r" % (combo,))
        for combo in mixed:
            word = t.call("words.Word", w.Word, m, combo)
            in_kernel = t.call("sequence.is_discrepant", sequence.is_discrepant, word)
            if in_kernel != ref.is_identity(combo):
                errors.append("kernel test disagrees with the reference: %r" % (combo,))
                continue
            if not in_kernel:
                try:
                    t.call("sequence.factor_discrepant", sequence.factor_discrepant, word)
                    errors.append("factor_discrepant accepted a non-kernel word")
                except NotDiscrepant:
                    pass
                continue
            self.counts["kernel_words"] += 1
            factored = t.call(
                "sequence.factor_discrepant", sequence.factor_discrepant, word
            )
            if not refs.only_discrepant(factored.letters):
                errors.append("factor_discrepant left non-discrepant letters")
                continue
            if len(self.kernel_samples) < 200:
                self.kernel_samples.append(word)
            if factored.letters == combo:
                continue
            self.counts["rewritten_words"] += 1
            if len(self.rewritten_samples) < 200:
                self.rewritten_samples.append((word, factored))
            before = t.call("fpgroup.aut_of_word", fpgroup.aut_of_word, m, word)
            after = t.call("fpgroup.aut_of_word", fpgroup.aut_of_word, m, factored)
            if before != after:
                errors.append("factoring changed the pi1 action")
            if t.call("systems.act_system", _outcome, m, word, self.std) != t.call(
                "systems.act_system", _outcome, m, factored, self.std
            ):
                errors.append("factoring changed the sphere-system action")
        return errors

    def finish(self):
        known = refs.MSTAR_COUNTS
        got = {
            "mixed_words_len3": self.n_mixed,
            "kernel_words_len3": self.counts["kernel_words"],
            "rewritten_words_len3": self.counts["rewritten_words"],
        }
        return [
            f"{key}: {val} != known {known[key]}"
            for key, val in got.items()
            if val != known[key]
        ]

    def capture(self):
        words = [wd for pair in self.rewritten_samples for wd in pair]
        families = [self.std] + [
            f for f in (gen.laminar_image(self.m, wd, self.std) for wd in words) if f
        ]
        return {"words": words, "kernel_words": self.kernel_samples, "families": families}


class NormalizeCensus(Workload):
    """Normalization of every symmetric family with every allowable assignment.

    An operation is one query: normalize, replay the certificate with
    act_system onto its family, check its assignment with trace_assignment
    and its slide/spin/swap part with the kernel test.
    """

    name = "normalize-census"
    LETTERS = refs.DISCREPANT_KINDS | {"SwapIrr"}

    def setup(self, first_input=None):
        m = self.load((self.root / "fixtures" / "mstar.txt").read_text(encoding="utf-8"))
        t = self.t
        if first_input is not None:
            # A cold start: only the round's first query, as text, so the
            # enumeration (which no query needs) does not take its time.
            fam = t.call("textio.parse_family", textio.parse_family, first_input["family"])
            a = t.call("textio.parse_assignment", textio.parse_assignment, m, first_input["assignment"])
            self.cases, self.families, self.certificates = [(fam, a)], [fam], []
            return
        symmetric, candidates = t.call(
            "verify.enumerate_symmetric", verify.enumerate_symmetric, m
        )
        cases = []
        for fam, cls in symmetric:
            cases += [
                (fam, a)
                for a in t.call(
                    "verify.allowable_assignments",
                    lambda c: list(verify.allowable_assignments(m, c)),
                    cls,
                )
            ]
        known = refs.MSTAR_COUNTS
        for key, val in (
            ("laminar_candidates", candidates),
            ("symmetric_families", len(symmetric)),
            ("assignments", len(cases)),
        ):
            if val != known[key]:
                self.setup_errors.append(f"{key}: {val} != known {known[key]}")
        self.rng.shuffle(cases)
        self.cases = cases
        self.families = [fam for fam, _ in symmetric]
        self.certificates: list = []

    def n_ops(self):
        return len(self.cases)

    def first_input(self):
        fam, a = self.cases[0]
        return {"family": textio.family_text(fam), "assignment": textio.assignment_text(a)}

    def run_op(self, i):
        m, t = self.m, self.t
        fam, assignment = self.cases[i]
        errors = []
        word = t.call("systems.normalize_system", systems.normalize_system, m, fam, assignment)
        if any(type(lt).__name__ not in self.LETTERS for lt in word.letters):
            errors.append("certificate uses a letter outside slides/spins/swaps")
        if t.call("systems.act_system", systems.act_system, m, word, self.std) != fam:
            errors.append("certificate misses its family")
        if t.call("systems.trace_assignment", systems.trace_assignment, m, word) != assignment:
            errors.append("certificate induces the wrong assignment")
        swapless = t.call(
            "words.Word",
            w.Word,
            m,
            tuple(lt for lt in word.letters if type(lt).__name__ != "SwapIrr"),
        )
        if t.call("sequence.is_discrepant", sequence.is_discrepant, swapless):
            self.counts["kernel_words"] += 1
        else:
            errors.append("slide/spin/swap part of a certificate is not in the kernel")
        if len(self.certificates) < 200:
            self.certificates.append(word)
        return errors

    def capture(self):
        return {
            "words": self.certificates,
            "kernel_words": [],
            "families": self.families,
        }


WORKLOADS = {
    cls.name: cls for cls in (ExactSequence, NormalizeCensus)
}
