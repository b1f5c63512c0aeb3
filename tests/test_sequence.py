import itertools
import logging
import random

import pytest

from mcgseq import fpgroup, sequence, systems, textio, words as w
from mcgseq.errors import InvalidWord, NotDiscrepant, OracleError, TypeMismatch
from mcgseq.model import standard_system
from mcgseq.oracles import wreath_elements
from mcgseq.sequence import (
    CapAut,
    EductionImage,
    SpotSlide,
    SpotSwap,
    SpotTwist,
    compose_images,
    educe,
    factor_discrepant,
    identity_image,
    is_discrepant,
    lift,
    perm_transpositions,
    spotted_educe,
    spotted_lift,
)
from mcgseq.textio import image_to_jsonable, parse_word
from mcgseq.verify import exactness_suite, random_word


def _brute_wreath_compose(manifold, first, second):
    """Independent wreath composition: follow each summand through both maps."""
    k = manifold.k
    perm = {}
    tokens = {}
    for i in range(1, k + 1):
        mid = first.perm_of(i)
        perm[i] = second.perm_of(mid)
        mcg = manifold.type_of(i).mcg
        tokens[i] = mcg.mul(first.token_of(i), second.token_of(mid))
    return EductionImage(
        tuple(perm[i] for i in range(1, k + 1)),
        tuple(tokens[i] for i in range(1, k + 1)),
    )


class TestEduce:
    def test_discrepant_letters_vanish(self, mstar):
        word = parse_word(mstar, "slideIrr(1; x1) spin(1) twist(sep2)")
        assert educe(word) == identity_image(mstar)

    def test_aut_projects(self, mstar):
        word = parse_word(mstar, "aut(1,tau)")
        image = educe(word)
        assert image.perm == (1, 2)
        assert image.token_of(1) == "tau"
        assert image.token_of(2) == "1"

    def test_swap_then_aut(self, mstar):
        # brute-force composition of the two letters' images under the
        # wreath formula: the token rides at the source that lands on
        # summand 1, which is source 2
        word = parse_word(mstar, "swapIrr(1,2) aut(1,tau)")
        expected = _brute_wreath_compose(
            mstar,
            EductionImage((2, 1), ("1", "1")),
            EductionImage((1, 2), ("tau", "1")),
        )
        image = educe(word)
        assert image == expected
        assert image.perm == (2, 1)
        assert image.token_of(2) == "tau"
        assert image.token_of(1) == "1"

    def test_homomorphism_random(self, mstar):
        rng = random.Random(67)
        for _ in range(300):
            w1 = random_word(mstar, rng, max_len=4)
            w2 = random_word(mstar, rng, max_len=4)
            assert educe(w.compose(w1, w2)) == compose_images(
                mstar, educe(w1), educe(w2)
            )

    def test_composition_rule_matches_bruteforce(self, mstar):
        oracles = [mstar.type_of(i).mcg for i in (1, 2)]
        elements = [
            EductionImage(
                tuple(perm[i] for i in (1, 2)), tuple(tokens[i] for i in (1, 2))
            )
            for perm, tokens in wreath_elements(oracles, mstar.type_classes)
        ]
        assert len(elements) == 8
        for a, b in itertools.product(elements, repeat=2):
            assert compose_images(mstar, a, b) == _brute_wreath_compose(
                mstar, a, b
            )

    def test_associativity_and_identity(self, mstar):
        oracles = [mstar.type_of(i).mcg for i in (1, 2)]
        elements = [
            EductionImage(
                tuple(perm[i] for i in (1, 2)), tuple(tokens[i] for i in (1, 2))
            )
            for perm, tokens in wreath_elements(oracles, mstar.type_classes)
        ]
        ident = identity_image(mstar)
        for a in elements:
            assert compose_images(mstar, a, ident) == a
            assert compose_images(mstar, ident, a) == a
        for a, b, c in itertools.islice(
            itertools.product(elements, repeat=3), 200
        ):
            assert compose_images(
                mstar, compose_images(mstar, a, b), c
            ) == compose_images(mstar, a, compose_images(mstar, b, c))


class TestLift:
    def test_identity(self, mstar):
        assert lift(mstar, identity_image(mstar)).letters == ()

    def test_single_token(self, mstar):
        image = EductionImage((1, 2), ("tau", "1"))
        assert lift(mstar, image).letters == (w.Aut(1, "tau"),)

    def test_pure_transposition(self, mstar):
        image = EductionImage((2, 1), ("1", "1"))
        assert lift(mstar, image).letters == (w.SwapIrr(1, 2),)

    def test_section_on_all_elements(self, mstar):
        oracles = [mstar.type_of(i).mcg for i in (1, 2)]
        count = 0
        for perm, tokens in wreath_elements(oracles, mstar.type_classes):
            image = EductionImage(
                tuple(perm[i] for i in (1, 2)), tuple(tokens[i] for i in (1, 2))
            )
            assert educe(lift(mstar, image)) == image
            count += 1
        assert count == 8

    def test_type_mismatch(self, mixed_types):
        image = EductionImage((3, 2, 1), ("1", "1", 0))
        with pytest.raises(TypeMismatch):
            lift(mixed_types, image)


class TestPermTranspositions:
    def test_three_cycle(self):
        perm = {1: 2, 2: 3, 3: 1}
        transpositions = perm_transpositions(perm)
        assert transpositions == [(1, 2), (1, 3)]
        state = {i: i for i in perm}
        for a, b in transpositions:
            state = {
                i: (b if v == a else a if v == b else v) for i, v in state.items()
            }
        assert state == perm

    def test_identity(self):
        assert perm_transpositions({1: 1, 2: 2}) == []


class TestDiscrepant:
    def test_slide_handle_in_kernel(self, mstar):
        assert is_discrepant(parse_word(mstar, "slideHandle(1; g1@1)"))

    def test_aut_not_in_kernel(self, mstar):
        assert not is_discrepant(parse_word(mstar, "aut(1,tau)"))

    def test_swap_squared_in_kernel(self, mstar):
        word = parse_word(mstar, "swapIrr(1,2) swapIrr(1,2)")
        # brute-force wreath composition gives the identity
        assert _brute_wreath_compose(
            mstar, educe(parse_word(mstar, "swapIrr(1,2)")),
            educe(parse_word(mstar, "swapIrr(1,2)")),
        ) == identity_image(mstar)
        assert is_discrepant(word)


class TestFactorDiscrepant:
    def test_aut_pair_vanishes(self, mstar):
        word = parse_word(mstar, "aut(1,tau) aut(1,tau)")
        assert factor_discrepant(word).letters == ()

    def test_conjugated_slides(self, mstar):
        word = parse_word(
            mstar, "slideIrr(2; x1) aut(1,tau) slideIrr(2; x1^-1 g1@1) aut(1,tau)"
        )
        factored = factor_discrepant(word)
        assert all(w.is_discrepant_letter(lt) for lt in factored.letters)
        # same pi1 action on every generator
        assert fpgroup.aut_of_word(mstar, word) == fpgroup.aut_of_word(
            mstar, factored
        )
        # same system action
        std = standard_system(mstar)
        assert systems.act_system(mstar, word, std) == systems.act_system(
            mstar, factored, std
        )

    def test_empty_word(self, mstar):
        assert factor_discrepant(w.empty_word(mstar)).letters == ()

    def test_rejects_non_kernel(self, mstar):
        with pytest.raises(NotDiscrepant):
            factor_discrepant(parse_word(mstar, "aut(1,tau)"))


def _count_segments(monkeypatch):
    """Spy on words._segments; the returned list grows by one per call."""
    calls = []
    segments = w._segments

    def spy(word):
        calls.append(word)
        return segments(word)

    monkeypatch.setattr(w, "_segments", spy)
    return calls


class TestFactorFastPath:
    def test_discrepant_only_word_is_its_own_factorization(self, mstar, monkeypatch):
        calls = _count_segments(monkeypatch)
        word = parse_word(
            mstar, "slideIrr(1; x1) spin(2) twist(sep1) swapHandles(1,2) spin(2)"
        )
        assert factor_discrepant(word) == word
        assert is_discrepant(word)
        assert calls == []

    @pytest.mark.parametrize(
        "name, text",
        [
            ("mstar", "slideIrr(2; x1) aut(1,tau) slideEnd(1,+; g1@1) aut(1,tau)"),
            ("mstar", "swapIrr(1,2) slideIrr(1; g1@2 x1) swapIrr(1,2) twist(sep1)"),
            ("s3_sign", "aut(1,r) slideIrr(2; g1@1) aut(1,s)"),
            ("s3_sign", "swapIrr(1,3) twist(sep3) swapIrr(1,3)"),
        ],
    )
    def test_cancelling_aut_and_swap_letters_take_the_rewrite(
        self, name, text, request, monkeypatch
    ):
        manifold = request.getfixturevalue(name)
        word = parse_word(manifold, text)
        calls = _count_segments(monkeypatch)
        factored = factor_discrepant(word)
        assert calls == [word]
        assert factored.letters
        assert all(w.is_discrepant_letter(lt) for lt in factored.letters)
        assert fpgroup.aut_of_word(manifold, word) == fpgroup.aut_of_word(
            manifold, factored
        )

    @pytest.mark.parametrize(
        "letters",
        [
            ("not a letter",),
            (w.Spin(1), "not a letter"),
            (w.Aut(1, "tau"), "not a letter", w.Aut(1, "tau")),
        ],
    )
    def test_unknown_letter_raises_invalid_word(self, mstar, letters):
        # a failed eduction leaves no image on the word: each call raises
        word = w.Word(mstar, letters)
        for test in (is_discrepant, factor_discrepant, is_discrepant):
            with pytest.raises(InvalidWord):
                test(word)
            assert word._image is None

    def test_non_trivial_trailing_segment_raises(self, mstar, monkeypatch):
        # a rewrite that leaves aut(1,tau) behind on a kernel word is caught
        # by the oracle check of the trailing segment
        monkeypatch.setattr(
            w, "_segments", lambda word: ([w.Spin(1)], [w.Aut(1, "tau")], [])
        )
        with pytest.raises(OracleError):
            factor_discrepant(parse_word(mstar, "aut(1,tau) aut(1,tau)"))


class TestExactnessSuite:
    def test_non_abelian_mcg(self, s3_sign, caplog):
        # S3 acting on Z/3 by the sign: eduction, lift and factoring must
        # get the order of every aut product and swap right to pass
        with caplog.at_level(logging.INFO, logger="mcgseq.verify"):
            report = exactness_suite(s3_sign, max_len=2, mixed_len=3)
        assert report["ok"], report["failures"][:5]
        assert report["mixed_words"] == 93_196
        assert report["kernel_words"] == 21_976
        assert report["wreath_elements"] == 6**3 * 6
        assert "20440 skipped as syntactically unchanged, 1536 compared" in (
            caplog.text
        )

    def test_educes_each_mixed_word_once(self, mstar, monkeypatch):
        # 1,893 discrepant words, 8 lifted images, 99,499 mixed words (each
        # folded once for both the kernel test and the factorization) and 130
        # trailing segments of rewritten kernel words
        calls = []
        fold = sequence.educe

        def spy(word):
            calls.append(None)
            return fold(word)

        monkeypatch.setattr(sequence, "educe", spy)
        report = exactness_suite(mstar, max_len=2, mixed_len=3)
        assert report["ok"]
        assert len(calls) == 101_530

    def test_reports_at_most_twenty_failures(self, s3_sign, monkeypatch):
        # a broken educe that sends every non-identity image to one fixed
        # image: the kernel is unchanged, so are the counts, but all but
        # two of the 1,296 lifted elements fail
        clean = exactness_suite(s3_sign, max_len=1, mixed_len=1)
        identity = identity_image(s3_sign)
        wrong = educe(parse_word(s3_sign, "swapIrr(1,2)"))

        def broken(word):
            image = educe(word)
            return image if image == identity else wrong

        formatted = []

        def spy(manifold, image):
            formatted.append(image)
            return image_to_jsonable(manifold, image)

        monkeypatch.setattr(sequence, "educe", broken)
        monkeypatch.setattr(textio, "image_to_jsonable", spy)
        report = exactness_suite(s3_sign, max_len=1, mixed_len=1)
        assert clean["ok"] and not report["ok"]
        assert len(report["failures"]) == 20
        assert len(formatted) <= 20  # only the reported failures are formatted
        assert all(f.startswith("educe(lift(h)) != h") for f in report["failures"])
        counts = {k: v for k, v in clean.items() if k not in ("failures", "ok")}
        assert {k: report[k] for k in counts} == counts

    def test_logs_skipped_and_compared_words(self, k2l1, caplog):
        with caplog.at_level(logging.INFO, logger="mcgseq.verify"):
            report = exactness_suite(k2l1, max_len=1, mixed_len=2)
        assert report["kernel_words"] == 310
        assert (
            "exactness: 310 kernel words, 307 skipped as syntactically unchanged, "
            "3 compared by action, 0 of them vacuous (both systems not laminar)"
        ) in caplog.text


class TestSpotted:
    def test_swap_is_transposition(self, spotted):
        cap, perm = spotted_educe(spotted, [SpotSwap(1, 2)])
        assert cap == spotted.cap_type.mcg.identity
        assert perm == (2, 1, 3)

    def test_twist_is_discrepant(self, spotted):
        cap, perm = spotted_educe(spotted, [SpotTwist(1)])
        assert cap == spotted.cap_type.mcg.identity
        assert perm == (1, 2, 3)

    def test_componentwise_fold(self, spotted):
        word = [CapAut("tau"), SpotSwap(1, 2), SpotSwap(1, 2)]
        cap, perm = spotted_educe(spotted, word)
        assert cap == "tau"
        assert perm == (1, 2, 3)

    def test_multiplicative(self, spotted):
        rng = random.Random(71)
        alphabet = [
            SpotSlide(1, 1),
            SpotSwap(1, 2),
            SpotSwap(2, 3),
            SpotTwist(2),
            CapAut("tau"),
        ]
        for _ in range(200):
            w1 = [rng.choice(alphabet) for _ in range(rng.randint(0, 4))]
            w2 = [rng.choice(alphabet) for _ in range(rng.randint(0, 4))]
            cap1, perm1 = spotted_educe(spotted, w1)
            cap2, perm2 = spotted_educe(spotted, w2)
            cap12, perm12 = spotted_educe(spotted, w1 + w2)
            assert cap12 == spotted.cap_type.mcg.mul(cap1, cap2)
            assert perm12 == tuple(perm2[perm1[i] - 1] for i in range(3))

    def test_lift_surjective(self, spotted):
        mcg = spotted.cap_type.mcg
        for cap in mcg.elements():
            for perm in itertools.permutations((1, 2, 3)):
                lifted = spotted_lift(spotted, cap, perm)
                assert spotted_educe(spotted, lifted) == (cap, perm)

    @pytest.mark.parametrize("perm", [(1, 1, 3), (1, 2), (1, 2, 3, 4), (0, 1, 2)])
    def test_lift_rejects_non_permutation(self, spotted, perm):
        # (1, 1, 3) sent perm_transpositions round a cycle that never closes
        with pytest.raises(TypeMismatch):
            spotted_lift(spotted, "tau", perm)
