"""The reference answers, and the workload checks that use them.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import random
import sys
import unittest
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refs  # noqa: E402


@dataclass(frozen=True)
class Aut:
    summand: int
    token: object


@dataclass(frozen=True)
class SwapIrr:
    a: int
    b: int


@dataclass(frozen=True)
class Spin:
    handle: int


Z2 = refs.FiniteGroup(["1", "tau"], [[0, 1], [1, 0]])


class ReferenceArithmetic(unittest.TestCase):
    def test_table_identity_and_product(self):
        self.assertEqual(Z2.identity, "1")
        self.assertEqual(Z2.mul("tau", "tau"), "1")
        z3 = refs.FiniteGroup(["a", "e", "b"], [[2, 0, 1], [0, 1, 2], [1, 2, 0]])
        self.assertEqual(z3.identity, "e")
        self.assertEqual(z3.mul("a", "a"), "b")

    def test_eduction_of_discrepant_letters_is_trivial(self):
        ref = refs.Eduction.__new__(refs.Eduction)
        ref.groups, ref.k = [Z2, Z2], 2
        ref.identity = ((1, 2), ("1", "1"))
        self.assertTrue(ref.is_identity([Spin(1), Spin(2)]))
        self.assertFalse(ref.is_identity([Aut(1, "tau")]))
        self.assertTrue(ref.is_identity([Aut(1, "tau"), Spin(1), Aut(1, "tau")]))
        self.assertFalse(ref.is_identity([SwapIrr(1, 2)]))
        self.assertTrue(ref.is_identity([SwapIrr(1, 2), SwapIrr(1, 2)]))

    def test_tokens_follow_the_permutation(self):
        ref = refs.Eduction.__new__(refs.Eduction)
        ref.groups, ref.k = [Z2, Z2], 2
        # swap, then act on summand 1: the token lands on source summand 2
        self.assertEqual(ref.of([SwapIrr(1, 2), Aut(1, "tau")]), ((2, 1), ("1", "tau")))
        # a token carried across a swap and back cancels against itself
        self.assertTrue(
            ref.of([Aut(1, "tau"), SwapIrr(1, 2), SwapIrr(1, 2), Aut(1, "tau")])
            == ((1, 2), ("1", "1"))
        )

    def test_only_discrepant(self):
        self.assertTrue(refs.only_discrepant([Spin(1)]))
        self.assertFalse(refs.only_discrepant([Spin(1), Aut(1, "tau")]))


class AgreesWithThePackage(unittest.TestCase):
    """The reference and the package agree on the reference manifold."""

    @classmethod
    def setUpClass(cls):
        from mcgseq import sequence, textio, verify
        from mcgseq import words as w

        cls.sequence, cls.w = sequence, w
        cls.m = textio.parse_manifold((HERE.parent / "fixtures" / "mstar.txt").read_text())
        cls.ref = refs.Eduction([cls.m.type_of(i).mcg for i in (1, 2)])
        cls.alphabet = verify.discrepant_alphabet(cls.m) + verify.nondiscrepant_alphabet(cls.m)

    def test_eduction_matches_on_random_words(self):
        rng = random.Random(5)
        for _ in range(500):
            letters = tuple(rng.choice(self.alphabet) for _ in range(rng.randint(0, 6)))
            image = self.sequence.educe(self.w.Word(self.m, letters))
            self.assertEqual(self.ref.of(letters), (image.perm, image.tokens))


class Substitute:
    """A tracer that replaces the answer of one named package call."""

    op = -1

    def __init__(self, name, answer):
        self.name, self.answer = name, answer

    def call(self, name, fn, *args):
        return self.answer(*args) if name == self.name else fn(*args)

    def begin(self, name):
        return None

    def end(self, token):
        pass


class WorkloadChecks(unittest.TestCase):
    """A wrong answer from the package is counted as a failure."""

    @classmethod
    def setUpClass(cls):
        import workloads
        from tracing import NullTracer

        cls.workloads, cls.null = workloads, NullTracer()

    def test_wrong_sweep_counts_fail(self):
        wl = self.workloads.ExactSequence(HERE.parent, 1, self.null)
        wl.n_mixed = refs.MSTAR_COUNTS["mixed_words_len3"]
        wl.counts = {"kernel_words": refs.MSTAR_COUNTS["kernel_words_len3"],
                     "rewritten_words": refs.MSTAR_COUNTS["rewritten_words_len3"]}
        self.assertEqual(wl.finish(), [])
        wl.counts["rewritten_words"] -= 1
        self.assertEqual(len(wl.finish()), 1)

    def test_exact_sequence_flags_a_wrong_kernel_test(self):
        wl = self.workloads.ExactSequence(HERE.parent, 2, self.null)
        wl.DISCREPANT_SAMPLE = 2000
        wl.setup()
        self.assertEqual(wl.run_op(0), [])
        wl.t = Substitute("sequence.is_discrepant", lambda word: True)
        self.assertTrue(any("kernel test" in e for e in wl.run_op(1)))

    def test_census_flags_a_certificate_that_misses(self):
        from mcgseq import textio
        from mcgseq import words as w

        fx = HERE.parent / "fixtures"
        wl = self.workloads.NormalizeCensus(HERE.parent, 1, self.null)
        wl.load((fx / "mstar.txt").read_text())
        family = textio.parse_family((fx / "family_slid.txt").read_text())
        assignment = textio.parse_assignment(wl.m, (fx / "assignment_slid.txt").read_text())
        wl.cases, wl.certificates = [(family, assignment)], []
        self.assertEqual(wl.run_op(0), [])
        wl.t = Substitute("systems.normalize_system", lambda m, f, a: w.Word(m, ()))
        errors = wl.run_op(0)
        self.assertIn("certificate misses its family", errors)
        self.assertIn("certificate induces the wrong assignment", errors)

    def test_census_cold_start_gets_the_rounds_first_query(self):
        from mcgseq import textio

        fx = HERE.parent / "fixtures"
        wl = self.workloads.NormalizeCensus(HERE.parent, 1, self.null)
        wl.load((fx / "mstar.txt").read_text())
        family = textio.parse_family((fx / "family_slid.txt").read_text())
        assignment = textio.parse_assignment(wl.m, (fx / "assignment_slid.txt").read_text())
        wl.cases = [(family, assignment)]
        cold = self.workloads.NormalizeCensus(HERE.parent, 1, self.null)
        cold.setup(json.loads(json.dumps(wl.first_input())))
        self.assertEqual(cold.cases, [(family, assignment)])


if __name__ == "__main__":
    unittest.main()
