import random

import pytest
from hypothesis import given, settings, strategies as st

from mcgseq import build_manifold, words as w
from mcgseq.errors import ParseError
from mcgseq.model import LaminarFamily, e_label, s_label
from mcgseq.textio import (
    assignment_text,
    family_text,
    fpword_text,
    image_from_jsonable,
    image_to_jsonable,
    manifold_text,
    parse_assignment,
    parse_family,
    parse_fpword,
    parse_label,
    parse_manifold,
    parse_spotted_marking,
    parse_spotted_word,
    parse_word,
    spotted_marking_text,
    spotted_word_text,
    word_text,
)
from mcgseq.sequence import EductionImage
from mcgseq.verify import enumerate_symmetric, random_fpword, random_word


class TestLabels:
    @pytest.mark.parametrize(
        "text,label",
        [("s1", s_label(1)), ("e3+", e_label(3, 1)), ("e2-", e_label(2, -1))],
    )
    def test_parse(self, text, label):
        assert parse_label(text) == label

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_label("q7")


class TestManifoldFormat:
    def test_roundtrip(self, mstar, k2l1, mixed_types):
        for manifold in (mstar, k2l1, mixed_types):
            assert parse_manifold(manifold_text(manifold)) == manifold

    def test_comments_and_blanks(self):
        text = """
        # a comment
        type A pi1=Z/2 mcg=Z/1

        summand 1 A
        summand 2 A   # trailing comment
        handles 0
        """
        manifold = parse_manifold(text)
        assert manifold.k == 2

    def test_free_oracle_types(self):
        text = (
            "type H pi1=F2 mcg=Z/1\n"
            "summand 1 H\nsummand 2 H\nhandles 1\n"
        )
        manifold = parse_manifold(text)
        assert manifold.type_of(1).pi1.kind == "free"
        assert parse_manifold(manifold_text(manifold)) == manifold

    def test_rejects_missing_act(self):
        with pytest.raises(ParseError):
            parse_manifold(
                "type A pi1=Z/2 mcg=Z/2\nsummand 1 A\nsummand 2 A\nhandles 0\n"
            )

    def test_rejects_gap_in_indices(self):
        with pytest.raises(ParseError):
            parse_manifold(
                "type A pi1=Z/2 mcg=Z/1\nsummand 1 A\nsummand 3 A\nhandles 0\n"
            )


class TestFamilyFormat:
    def test_roundtrip_symmetric(self, mstar):
        for family, _nonsep in enumerate_symmetric(mstar)[0]:
            assert parse_family(family_text(family)) == family

    def test_empty(self):
        assert parse_family("") == LaminarFamily.of([])

    def test_rejects_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_family("sphere {s1}")


class TestWordFormat:
    def test_empty_word(self, mstar):
        assert parse_word(mstar, "e").letters == ()
        assert word_text(w.empty_word(mstar)) == "e"

    def test_spec_shaped_letters(self, mstar):
        text = (
            "slideIrr(1; x1 g1@2 x1^-1) slideEnd(1,+; g2) slideHandle(1; g2) "
            "spin(1) twist(sep1) twist(nonsep1) twist(assoc1) swapIrr(1,2) "
            "swapHandles(1,2) aut(1,tau)"
        )
        word = parse_word(mstar, text)
        assert len(word) == 10
        assert parse_word(mstar, word_text(word)) == word

    def test_multiline_with_comments(self, mstar):
        text = "# header\nspin(1)\nspin(2)  # tail\n"
        assert len(parse_word(mstar, text)) == 2

    def test_random_roundtrip(self, mstar, mixed_types):
        rng = random.Random(73)
        for manifold in (mstar, mixed_types):
            for _ in range(120):
                word = random_word(manifold, rng, max_len=6)
                assert parse_word(manifold, word_text(word)) == word

    def test_fpword_roundtrip(self, mstar):
        rng = random.Random(79)
        for _ in range(200):
            u = random_fpword(mstar, rng, max_len=6)
            assert parse_fpword(mstar, fpword_text(mstar, u)) == u

    def test_unbalanced_parens(self, mstar):
        with pytest.raises(ParseError):
            parse_word(mstar, "slideIrr(1; x1")


class TestAssignmentFormat:
    def test_roundtrip(self, mstar):
        from mcgseq.verify import allowable_assignments
        import itertools

        count = 0
        for family, nonsep in enumerate_symmetric(mstar)[0][:8]:
            for assignment in itertools.islice(
                allowable_assignments(mstar, nonsep), 6
            ):
                text = assignment_text(assignment)
                assert parse_assignment(mstar, text) == assignment
                count += 1
        assert count == 48

    def test_label_shorthand(self, mstar):
        a = parse_assignment(
            mstar,
            "d1 -> s1\nd2 -> s2\nd1+ -> {e1+}:in\nd1- -> {e1+}:out\n"
            "d2+ -> {e2+}:in\nd2- -> {e2+}:out\n",
        )
        assert a.target_of(("d", 1)) == (frozenset({s_label(1)}), None)

    def test_pair_needs_side(self, mstar):
        with pytest.raises(ParseError):
            parse_assignment(mstar, "d1+ -> {e1+}\n")


class TestImageJson:
    def test_example_shape(self, mstar):
        image = EductionImage((1, 2), ("tau", "1"))
        data = image_to_jsonable(mstar, image)
        assert data == {"perm": [1, 2], "tokens": {"1": "tau", "2": "1"}}
        assert image_from_jsonable(mstar, data) == image

    def test_bad_json(self, mstar, free_mcg):
        tokens = {"1": "tau", "2": "1"}
        for data in [
            {"perm": [1, 2]},
            {"perm": [2.7, "1"], "tokens": tokens},
            {"perm": "21", "tokens": tokens},
            {"perm": [True, 2], "tokens": tokens},
            {"perm": [1, 2], "tokens": {**tokens, "3": "tau"}},
            {"perm": [1, 2], "tokens": {"1": "tau"}},
            {"perm": [1, 2], "tokens": {"1": 1, "2": "1"}},
            {"perm": [1, 2], "tokens": ["tau", "1"]},
            [[1, 2], tokens],
        ]:
            with pytest.raises(ParseError, match="bad eduction image JSON"):
                image_from_jsonable(mstar, data)
        # a free mcg reads element texts with str methods
        with pytest.raises(ParseError, match="bad eduction image JSON"):
            data = {"perm": [1, 2, 3], "tokens": {"1": 5, "2": "1", "3": "1"}}
            image_from_jsonable(free_mcg, data)


class TestSpottedFormat:
    def test_marking_roundtrip(self, spotted):
        assert parse_spotted_marking(spotted_marking_text(spotted)) == spotted

    def test_word_roundtrip(self, spotted):
        text = "spotSlide(1; g1) spotSwap(1,2) spotTwist(3) capAut(tau)"
        letters = parse_spotted_word(spotted, text)
        assert len(letters) == 4
        assert (
            parse_spotted_word(spotted, spotted_word_text(spotted, letters))
            == letters
        )


@st.composite
def small_manifold_text(draw):
    k = draw(st.integers(0, 3))
    ell = draw(st.integers(0 if k >= 2 else 1, 2))
    lines = ["type A pi1=Z/2 mcg=table[1,tau;1,tau|tau,1] act=tau:g1"]
    for i in range(1, k + 1):
        lines.append(f"summand {i} A")
    lines.append(f"handles {ell}")
    return "\n".join(lines)


class TestPropertyRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(small_manifold_text())
    def test_manifold_parse_serialize(self, text):
        manifold = build_manifold(text)
        assert parse_manifold(manifold_text(manifold)) == manifold
