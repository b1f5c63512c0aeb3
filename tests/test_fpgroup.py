import random

import pytest

from mcgseq import fpgroup, words as w
from mcgseq.errors import InvalidWord, OracleError, ParseError
from mcgseq.oracles import MAX_EXPONENT
from mcgseq.fpgroup import (
    AutTable,
    abelianize_table,
    abelianized_action,
    act_pi1,
    aut_of_word,
    fp_inv,
    fp_mul,
    fp_reduce,
    generator_words,
    identity_ab_action,
)
from mcgseq.textio import parse_fpword, parse_word
from mcgseq.verify import random_word


def g(i, e=1):
    return ("g", i, e)


def x(j, s=1):
    return ("x", j, s)


class TestReduce:
    def test_order_two_cancels(self, mstar):
        assert fp_reduce(mstar, [g(1), g(1)]) == ()

    def test_handle_cancellation(self, mstar):
        assert fp_reduce(mstar, [x(1), x(1, -1), g(1)]) == (g(1),)

    def test_alternating_already_reduced(self, mstar):
        word = (g(1), g(2), g(1))
        assert fp_reduce(mstar, word) == word

    def test_merge_cascades(self, mstar):
        # g1 x1 x1^-1 g1 collapses completely
        assert fp_reduce(mstar, [g(1), x(1), x(1, -1), g(1)]) == ()

    def test_rejects_bad_letters(self, mstar):
        with pytest.raises(OracleError):
            fp_reduce(mstar, [("g", 9, 1)])


class TestActPi1:
    def test_conjugation_formula(self, mstar):
        word = parse_word(mstar, "slideIrr(1; x1)")
        image = act_pi1(mstar, word, (g(1),))
        assert image == (x(1, -1), g(1), x(1))
        # abelianization oracle: conjugation must vanish in H1
        ab = abelianized_action(mstar, word)
        assert ab.images == identity_ab_action(mstar).images

    def test_spin_inverts_handle(self, mstar):
        word = parse_word(mstar, "spin(1)")
        assert act_pi1(mstar, word, (x(1),)) == (x(1, -1),)
        # abelianization oracle: -1 on the x1 coordinate only
        ab = abelianized_action(mstar, word)
        assert ab.image_of(("x", 1))[1] == (-1, 0)
        assert ab.image_of(("x", 2))[1] == (0, 1)

    def test_twist_is_identity(self, mstar):
        word = parse_word(mstar, "twist(nonsep1)")
        for u in [(g(1),), (x(1), g(2), x(2, -1)), ()]:
            assert act_pi1(mstar, word, u) == u

    # slideEnd(1, sign; gamma) with gamma = g1@2 x2, gamma^-1 = x2^-1 g1@2:
    # x1^s -> x1^s gamma when s is the sign, gamma^-1 x1^s otherwise
    @pytest.mark.parametrize(
        "sign, s, expected",
        [
            ("+", 1, (x(1), g(2), x(2))),
            ("+", -1, (x(2, -1), g(2), x(1, -1))),
            ("-", 1, (x(2, -1), g(2), x(1))),
            ("-", -1, (x(1, -1), g(2), x(2))),
        ],
        ids=["plus-x1", "plus-x1inv", "minus-x1", "minus-x1inv"],
    )
    def test_transvection_sidedness(self, mstar, sign, s, expected):
        word = parse_word(mstar, f"slideEnd(1,{sign}; g1@2 x2)")
        assert act_pi1(mstar, word, (x(1, s),)) == expected

    def test_slide_handle_conjugates(self, mstar):
        word = parse_word(mstar, "slideHandle(1; x2)")
        assert act_pi1(mstar, word, (x(1),)) == (x(2, -1), x(1), x(2))

    def test_slide_handle_conjugates_inverse(self, mstar):
        # x1^-1 -> gamma^-1 x1^-1 gamma with gamma = x2 g1@1, gamma^-1 = g1@1 x2^-1
        word = parse_word(mstar, "slideHandle(1; x2 g1@1)")
        u = (g(2), x(1, -1), x(2))
        expected = (g(2), g(1), x(2, -1), x(1, -1), x(2), g(1), x(2))
        assert act_pi1(mstar, word, u) == expected

    def test_swap_handles_exchanges_indices(self, mstar):
        word = parse_word(mstar, "swapHandles(1,2)")
        u = (x(1), g(1), x(2, -1), g(2), x(1, -1))
        assert act_pi1(mstar, word, u) == (x(2), g(1), x(1, -1), g(2), x(2, -1))

    def test_rejects_word_of_another_manifold(self, mstar, s3_sign):
        with pytest.raises(InvalidWord):
            act_pi1(s3_sign, parse_word(mstar, "spin(1)"), ())


# A summand with a table pi1, on which an element is found by hashing it.
TABLE_PI1_TEXT = """
type P pi1=table[1,t;1,t|t,1] mcg=Z/1
summand 1 P
summand 2 P
handles 1
"""

# Each bad pi1 letter on mstar (pi1 Z/2 factors, k = 2): the outcome, as
# ("ok",) or (error class, message), of fp_reduce on the letter, of a twist
# and of act_pi1 acting on it, and of a slide whose path is the letter, by
# act_letter_pi1 and act_pi1 on a word it does not meet, and by aut_of_word.
# The slide inverts its path first, so a path may fail as its inverse does.
BAD_LETTER_OUTCOMES = {
    "factor index 0": (
        g(0),
        ("OracleError", "factor index 0 out of range 1..2"),
        ("IndexError", "summand index 0 out of range 1..2"),
        ("IndexError", "summand index 0 out of range 1..2"),
    ),
    "factor index k+1": (
        g(3),
        ("OracleError", "factor index 3 out of range 1..2"),
        ("IndexError", "summand index 3 out of range 1..2"),
        ("IndexError", "summand index 3 out of range 1..2"),
    ),
    # the inverse of 5 in Z/2 is an element: only a word that meets the
    # slide takes the path itself
    "non-element": (
        g(1, 5),
        ("OracleError", "5 is not an element of Z/2"),
        ("ok",),
        ("OracleError", "5 is not an element of Z/2"),
    ),
    "float on a cyclic factor": (
        g(1, 1.0),
        ("OracleError", "1.0 is not an element of Z/2"),
        ("OracleError", "1.0 is not an element of Z/2"),
        ("OracleError", "1.0 is not an element of Z/2"),
    ),
    # True is an int: a cyclic factor accepts it
    "True on a cyclic factor": (g(1, True), ("ok",), ("ok",), ("ok",)),
    "sign 0": (
        x(1, 0),
        ("OracleError", "bad handle letter ('x', 1, 0)"),
        ("OracleError", "bad handle letter ('x', 1, 0)"),
        ("OracleError", "bad handle letter ('x', 1, 0)"),
    ),
    "sign 2": (
        x(1, 2),
        ("OracleError", "bad handle letter ('x', 1, 2)"),
        ("OracleError", "bad handle letter ('x', 1, -2)"),
        ("OracleError", "bad handle letter ('x', 1, -2)"),
    ),
    # the inverse of a letter that is not a g letter is an x letter
    "unknown tag": (
        ("y", 1, 1),
        ("OracleError", "bad pi1 letter ('y', 1, 1)"),
        ("ok",),
        ("OracleError", "bad pi1 letter ('y', 1, 1)"),
    ),
    "unhashable element": (
        g(1, [1]),
        ("OracleError", "[1] is not an element of Z/2"),
        ("TypeError", "bad operand type for unary -: 'list'"),
        ("TypeError", "bad operand type for unary -: 'list'"),
    ),
}

# The same on a table factor, where True, 1 and an unhashable list are no
# elements: fp_reduce, act_letter_pi1 and aut_of_word of the slide.
TABLE_LETTER_OUTCOMES = {
    "True": g(1, True),
    "int": g(1, 1),
    "unhashable": g(1, ["t"]),
}


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return ("ok",)


class TestLetterCheckErrors:
    """A bad pi1 letter, in the word acted on or in a slide's path, raises
    the same error class and message in each function that checks it."""

    @pytest.mark.parametrize("name", BAD_LETTER_OUTCOMES)
    def test_bad_letter_on_cyclic_factors(self, mstar, name):
        bad, in_word, in_path, in_table = BAD_LETTER_OUTCOMES[name]
        twist, slide = w.Twist(("sep", 1)), w.SlideHandle(1, (bad,))
        unmet = (g(2),)
        assert _outcome(fp_reduce, mstar, (bad,)) == in_word
        assert _outcome(fpgroup.act_letter_pi1, mstar, twist, (bad,)) == in_word
        assert _outcome(act_pi1, mstar, w.Word(mstar, (twist,)), (bad,)) == in_word
        assert _outcome(fpgroup.act_letter_pi1, mstar, slide, unmet) == in_path
        assert _outcome(act_pi1, mstar, w.Word(mstar, (slide,)), unmet) == in_path
        assert _outcome(aut_of_word, mstar, w.Word(mstar, (slide,))) == in_table

    @pytest.mark.parametrize("name", TABLE_LETTER_OUTCOMES)
    def test_bad_letter_on_a_table_factor(self, name):
        from mcgseq import build_manifold

        manifold = build_manifold(TABLE_PI1_TEXT)
        bad = TABLE_LETTER_OUTCOMES[name]
        error = ("OracleError", f"{bad[2]!r} is not an element of table[1,t;1,t|t,1]")
        slide = w.SlideHandle(1, (bad,))
        assert _outcome(fp_reduce, manifold, (bad,)) == error
        assert _outcome(fpgroup.act_letter_pi1, manifold, slide, (g(2, "t"),)) == error
        assert _outcome(aut_of_word, manifold, w.Word(manifold, (slide,))) == error


class TestAutTable:
    def test_identity_word(self, mstar):
        identity = AutTable(mstar, tuple(generator_words(mstar)))
        assert aut_of_word(mstar, w.empty_word(mstar)).images == identity.images

    def test_swap_handles(self, mstar):
        table = aut_of_word(mstar, parse_word(mstar, "swapHandles(1,2)"))
        assert table.image_of(("x", 1)) == (x(2),)
        assert table.image_of(("x", 2)) == (x(1),)
        assert table.image_of(("g", 1, "g1")) == (g(1),)

    def test_image_of_unknown_key(self, mstar):
        """Also on an ``AbAction``; a repeated key gives its first entry."""
        ab = identity_ab_action(mstar)
        for table in (AutTable(mstar, tuple(generator_words(mstar))), ab):
            for key in (("x", 3), ["x", 1]):
                with pytest.raises(KeyError):
                    table.image_of(key)
            (key, first), (_, second) = table.images[:2]
            repeated = type(table)(mstar, ((key, first), (key, second)))
            assert first != second and repeated.image_of(key) == first

    def test_transvection_table(self, mstar):
        table = aut_of_word(mstar, parse_word(mstar, "slideEnd(1,+; g1@1)"))
        assert table.image_of(("x", 1)) == (x(1), g(1))
        assert table.image_of(("x", 2)) == (x(2),)


class TestHomomorphism:
    def test_random_pairs(self, mstar):
        rng = random.Random(11)
        gens = generator_words(mstar)
        for _ in range(300):
            w1 = random_word(mstar, rng, max_len=3)
            w2 = random_word(mstar, rng, max_len=3)
            combined = w.compose(w1, w2)
            for _, gen_word in gens:
                assert act_pi1(mstar, combined, gen_word) == act_pi1(
                    mstar, w2, act_pi1(mstar, w1, gen_word)
                )

    def test_inverse_consistency(self, mstar):
        rng = random.Random(13)
        for _ in range(60)  :
            word = random_word(mstar, rng, max_len=4)
            table = aut_of_word(mstar, w.compose(word, w.invert(word)))
            assert table.images == tuple(generator_words(mstar))


def _strip_conjugator(manifold, image):
    """Syntactic conjugator extraction: image == c^-1 * (core) * c."""
    word = list(image)
    prefix = []
    while len(word) >= 2 and word[0] == _letter_inverse(manifold, word[-1]):
        prefix.append(word.pop())
        word.pop(0)
    return tuple(word), tuple(reversed(prefix))


def _letter_inverse(manifold, letter):
    if letter[0] == "g":
        return ("g", letter[1], manifold.type_of(letter[1]).pi1.inv(letter[2]))
    return ("x", letter[1], -letter[2])


class TestFactorPreservation:
    def test_single_letters_conjugate_factors(self, mstar):
        rng = random.Random(17)
        for _ in range(200):
            letter = random_word(mstar, rng, max_len=1)
            if not letter.letters:
                continue
            for i in (1, 2):
                conjugators = set()
                for name, _elem in mstar.type_of(i).pi1.generators():
                    image = act_pi1(
                        mstar, letter, (g(i, mstar.type_of(i).pi1.generator(name)),)
                    )
                    core, conj = _strip_conjugator(mstar, image)
                    # the core must be a single letter of some factor
                    assert len(core) == 1 and core[0][0] == "g"
                    conjugators.add(conj)
                assert len(conjugators) == 1  # a single conjugator per factor


class TestAbelianized:
    def test_spin_matrix(self, mstar):
        ab = abelianized_action(mstar, parse_word(mstar, "spin(1)"))
        assert [ab.image_of(("x", j))[1] for j in (1, 2)] == [(-1, 0), (0, 1)]

    def test_slide_irr_trivial(self, mstar):
        ab = abelianized_action(mstar, parse_word(mstar, "slideIrr(1; x2 g1@2)"))
        assert ab.images == identity_ab_action(mstar).images

    def test_transvection_gains_column(self, mstar):
        ab = abelianized_action(mstar, parse_word(mstar, "slideEnd(1,+; x2)"))
        assert [ab.image_of(("x", j))[1] for j in (1, 2)] == [(1, 1), (0, 1)]

    def test_factor_content_of_path(self, mstar):
        ab = abelianized_action(mstar, parse_word(mstar, "slideEnd(1,+; g1@2)"))
        img = ab.image_of(("x", 1))
        assert img[1] == (1, 0)
        assert img[0][1] == 1  # the Z/2 generator of factor 2 appears

    @pytest.mark.parametrize("text", ["spin(1)", "spin(2)"])
    def test_rejects_word_of_another_manifold(self, mstar, s3_sign, text):
        # s3_sign has one handle: spin(2) names a handle it lacks, and
        # spin(1) names another manifold's handle
        with pytest.raises(InvalidWord, match="different manifold"):
            abelianized_action(s3_sign, parse_word(mstar, text))

    def test_matches_table_route(self, mstar):
        rng = random.Random(19)
        for _ in range(80):
            word = random_word(mstar, rng, max_len=5)
            direct = abelianized_action(mstar, word)
            via_table = abelianize_table(aut_of_word(mstar, word))
            assert direct.images == via_table.images


class TestFpHelpers:
    def test_mul_inv(self, mstar):
        u = parse_fpword(mstar, "x1 g1@1 x2^-1")
        assert fp_mul(mstar, u, fp_inv(mstar, u)) == ()

    def test_parse_shorthand(self, mstar):
        assert parse_fpword(mstar, "g2") == (g(2),)
        assert parse_fpword(mstar, "g1^2") == ()

    def test_shorthand_exponent_bound(self, mstar):
        # gN^k multiplies k times; a power above MAX_EXPONENT is rejected
        assert parse_fpword(mstar, f"g1^{MAX_EXPONENT}") == ()
        with pytest.raises(ParseError, match="exceeds"):
            parse_fpword(mstar, f"g1^{MAX_EXPONENT + 1}")


FREE_FACTOR_TEXT = """
type H pi1=F2 mcg=Z/1
type K pi1=Z^2 mcg=F1 act=g1:g2,g1;g1^-1:g2,g1
summand 1 H
summand 2 K
handles 1
"""


@pytest.fixture(scope="module")
def exotic():
    from mcgseq import build_manifold

    return build_manifold(FREE_FACTOR_TEXT)


class TestExoticOracles:
    """Free and free-abelian factors exercise every oracle code path."""

    def test_free_factor_conjugation(self, exotic):
        word = parse_word(exotic, "slideIrr(1; x1)")
        u = parse_fpword(exotic, "g1*g2^-1@1")
        image = act_pi1(exotic, word, u)
        assert image == parse_fpword(exotic, "x1^-1 g1*g2^-1@1 x1")

    def test_free_factor_merge(self, exotic):
        u = fpgroup.fp_mul(
            exotic,
            parse_fpword(exotic, "g1@1"),
            parse_fpword(exotic, "g1^-1*g2@1"),
        )
        assert u == parse_fpword(exotic, "g2@1")

    def test_free_mcg_acts_on_abelian_pi1(self, exotic):
        # the declared F1 generator swaps the two Z^2 coordinates
        word = parse_word(exotic, "aut(2,g1)")
        u = parse_fpword(exotic, "g1@2")
        assert act_pi1(exotic, word, u) == parse_fpword(exotic, "g2@2")
        squared = w.compose(word, word)
        assert act_pi1(exotic, squared, u) == u

    # the exotic fixture's free factor has a trivial mcg and no homeomorphic
    # partner, so aut and swapIrr on a free factor use free_mcg: three F2
    # summands, token g2 sending (g1, g2) to (g1, g1*g2)
    def test_aut_on_free_factor(self, free_mcg):
        word = parse_word(free_mcg, "aut(2,g2)")
        u = parse_fpword(free_mcg, "g1*g2@2 x1 g2@1 g2^-1@2")
        expected = parse_fpword(free_mcg, "g1^2*g2@2 x1 g2@1 g2^-1*g1^-1@2")
        assert act_pi1(free_mcg, word, u) == expected

    def test_swap_irr_on_free_factor(self, free_mcg):
        word = parse_word(free_mcg, "swapIrr(1,3)")
        u = parse_fpword(free_mcg, "g1*g2^-1@1 x1 g2@3 g1@2 g1@3")
        expected = parse_fpword(free_mcg, "g1*g2^-1@3 x1 g2@1 g1@2 g1@1")
        assert act_pi1(free_mcg, word, u) == expected

    def test_ab_routes_agree(self, exotic):
        rng = random.Random(83)
        for _ in range(40):
            word = random_word(exotic, rng, max_len=4)
            direct = abelianized_action(exotic, word)
            via_table = abelianize_table(aut_of_word(exotic, word))
            assert direct.images == via_table.images

    def test_roundtrip_serialization(self, exotic):
        from mcgseq.textio import manifold_text, parse_manifold

        assert parse_manifold(manifold_text(exotic)) == exotic
