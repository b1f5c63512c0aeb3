import copy
import dataclasses
import hashlib
import itertools
import pickle
import random

import pytest

from mcgseq import build_manifold, fpgroup, sequence, systems, verify, words as w
from mcgseq.errors import InvalidWord, ManifoldMismatch, NotDiscrepant, OracleError
from mcgseq.fpgroup import act_pi1, generator_words
from mcgseq.textio import parse_fpword, parse_word, word_text
from mcgseq.verify import (
    discrepant_alphabet,
    enumerate_symmetric,
    nondiscrepant_alphabet,
    random_word,
)


# ---------------------------------------------------------------------------
# the generator alphabet

# per conftest manifold: (count, sha256 prefix of the letters' reprs, one
# per line) of the BFS moves and of the two alphabets, as ``verify`` and
# ``systems`` each built them before ``words`` owned the alphabet
ALPHABET_PINS = {
    "mstar": {
        "bfs_moves": (23, "ddb40a3d3a68c9dd"),
        "discrepant": (43, "cbfd3ff4f64a5b04"),
        "nondiscrepant": (3, "e370c1802e54d2c8"),
    },
    "k2l1": {
        "bfs_moves": (5, "e11f35520104b0ab"),
        "discrepant": (17, "6a6499db64585601"),
        "nondiscrepant": (3, "e370c1802e54d2c8"),
    },
    "mixed_types": {
        "bfs_moves": (7, "a4f41a4ea94fc1c7"),
        "discrepant": (27, "9cf9821d3ec70845"),
        "nondiscrepant": (3, "e370c1802e54d2c8"),
    },
    "s3_sign": {
        "bfs_moves": (7, "a4f41a4ea94fc1c7"),
        "discrepant": (27, "9cf9821d3ec70845"),
        "nondiscrepant": (18, "b1fa8a569a43291c"),
    },
    "free_mcg": {
        "bfs_moves": (7, "a4f41a4ea94fc1c7"),
        "discrepant": (42, "7432837a98b374da"),
        "nondiscrepant": (9, "31228f94d91bb929"),
    },
}

TYPE_PINS = {
    "mstar": (((1, 2),), ((1, 2),)),
    "k2l1": (((1, 2),), ((1, 2),)),
    "mixed_types": (((1, 2), (3,)), ((1, 2),)),
    "s3_sign": (((1, 2, 3),), ((1, 2), (1, 3), (2, 3))),
    "free_mcg": (((1, 2, 3),), ((1, 2), (1, 3), (2, 3))),
}

# two types interleaved, so the classes' pairs are not in sorted order
INTERLEAVED_TEXT = """
type A pi1=Z/2 mcg=Z/1
type B pi1=Z/3 mcg=Z/1
summand 1 A
summand 2 B
summand 3 A
summand 4 B
summand 5 A
handles 0
"""


def _digest(letters):
    text = "\n".join(map(repr, letters))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _reference_type_classes(manifold):
    """The pairwise scan that grouped the summands by type before the
    manifold derived its type classes."""
    classes = []
    for i in range(1, manifold.k + 1):
        t = manifold.type_of(i)
        for ct, members in classes:
            if ct == t:
                members.append(i)
                break
        else:
            classes.append((t, [i]))
    return tuple(tuple(members) for _, members in classes)


def _reference_swap_pairs(manifold):
    """The pairwise scan of the swapIrr pairs that ``verify`` ran before."""
    return tuple(
        (a, b)
        for a in range(1, manifold.k + 1)
        for b in range(a + 1, manifold.k + 1)
        if manifold.type_of(a) == manifold.type_of(b)
    )


@pytest.mark.parametrize("name", sorted(ALPHABET_PINS))
class TestGeneratorAlphabet:
    def test_lists_are_pinned(self, name, request):
        manifold = request.getfixturevalue(name)
        lists = {
            "bfs_moves": systems._bfs_moves(manifold),
            "discrepant": w.discrepant_alphabet(manifold),
            "nondiscrepant": w.nondiscrepant_alphabet(manifold),
        }
        got = {key: (len(v), _digest(v)) for key, v in lists.items()}
        assert got == ALPHABET_PINS[name]

    def test_type_classes_and_swap_pairs(self, name, request):
        manifold = request.getfixturevalue(name)
        pins = (manifold.type_classes, manifold.swap_pairs)
        assert pins == TYPE_PINS[name]
        assert pins == (
            _reference_type_classes(manifold),
            _reference_swap_pairs(manifold),
        )

    def test_index_swaps_are_the_alphabet_letters(self, name, request):
        manifold = request.getfixturevalue(name)
        swaps = systems._reachability(manifold).swaps
        assert tuple(swaps) == manifold.swap_pairs
        letters = [lt for lt in w.nondiscrepant_alphabet(manifold)
                   if isinstance(lt, w.SwapIrr)]
        assert list(swaps.values()) == letters


def test_interleaved_types_match_the_scan():
    manifold = build_manifold(INTERLEAVED_TEXT)
    assert manifold.type_classes == ((1, 3, 5), (2, 4))
    assert manifold.swap_pairs == ((1, 3), (1, 5), (2, 4), (3, 5))
    assert manifold.type_classes == _reference_type_classes(manifold)
    assert manifold.swap_pairs == _reference_swap_pairs(manifold)


def test_verify_reads_the_alphabet_of_words():
    for name in ("discrepant_alphabet", "nondiscrepant_alphabet",
                 "single_letter_paths", "twist_refs"):
        assert getattr(verify, name) is getattr(w, name)


class TestCompose:
    def test_identity(self, mstar):
        word = parse_word(mstar, "spin(1)")
        assert w.compose(w.empty_word(mstar), word) == word

    def test_concatenation(self, mstar):
        word = parse_word(mstar, "spin(1)")
        assert w.compose(word, word).letters == (w.Spin(1), w.Spin(1))

    def test_two_kinds(self, mstar):
        word = w.compose(
            parse_word(mstar, "slideIrr(1; x1)"), parse_word(mstar, "twist(sep2)")
        )
        assert len(word) == 2

    def test_manifold_mismatch(self, mstar, k2l1):
        with pytest.raises(ManifoldMismatch):
            w.compose(w.empty_word(mstar), w.empty_word(k2l1))


class TestWordValue:
    """A Word is the value (manifold, letters): the eduction kept in its
    ``_image`` slot shows in no comparison, repr or copy."""

    TEXT = "aut(1,tau) slideIrr(1; x1) swapIrr(1,2)"

    def _educed(self, manifold):
        word = parse_word(manifold, self.TEXT)
        sequence.is_discrepant(word)
        assert word._image is not None
        return word

    def test_equality_and_hash_ignore_the_eduction(self, mstar):
        educed, fresh = self._educed(mstar), parse_word(mstar, self.TEXT)
        assert fresh._image is None
        assert educed == fresh and not educed != fresh
        assert hash(educed) == hash(fresh) == hash((mstar, fresh.letters))
        assert {educed: 1}[fresh] == 1
        assert educed != parse_word(mstar, "aut(1,tau)")
        assert educed != (mstar, fresh.letters)

    def test_repr_is_the_dataclass_repr(self, mstar):
        reference = dataclasses.make_dataclass(
            "Word", ["manifold", "letters"], frozen=True
        )
        word = self._educed(mstar)
        assert repr(word) == repr(reference(mstar, word.letters))

    @pytest.mark.parametrize("name", ["manifold", "letters", "_image", "_fold", "other"])
    def test_assignment_raises(self, mstar, name):
        word = self._educed(mstar)
        image = word._image
        with pytest.raises(AttributeError):
            setattr(word, name, None)
        with pytest.raises(AttributeError):
            delattr(word, name)
        assert word == parse_word(mstar, self.TEXT) and word._image is image

    @pytest.mark.parametrize(
        "clone",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_are_equal_and_carry_no_eduction(self, mstar, clone):
        word = self._educed(mstar)
        twin = clone(word)
        assert twin == word and hash(twin) == hash(word)
        assert twin._image is None
        assert sequence.is_discrepant(twin) is sequence.is_discrepant(word)


class TestFoldMemo:
    """The standard-system fold kept in the ``_fold`` slot is unset on a new
    word and, like the eduction, shows in no comparison, repr or copy."""

    TEXT = TestWordValue.TEXT

    def _folded(self, manifold):
        word = parse_word(manifold, self.TEXT)
        assert not hasattr(word, "_fold")
        fold = systems._standard_fold(manifold, word)
        assert word._fold is fold
        return word

    def test_equality_hash_and_repr_ignore_the_fold(self, mstar):
        folded, fresh = self._folded(mstar), parse_word(mstar, self.TEXT)
        assert not hasattr(fresh, "_fold")
        assert folded == fresh and hash(folded) == hash(fresh)
        assert repr(folded) == repr(fresh)
        assert {folded: 1}[fresh] == 1

    @pytest.mark.parametrize(
        "clone",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_carry_no_fold(self, mstar, clone):
        word = self._folded(mstar)
        twin = clone(word)
        assert twin == word and hash(twin) == hash(word)
        assert not hasattr(twin, "_fold")
        assert systems._standard_fold(mstar, twin) == word._fold

    def test_new_words_start_without_a_memo(self, mstar):
        word = self._folded(mstar)
        sequence.is_discrepant(word)
        built = [
            w.compose(word, word),
            w.compose(w.empty_word(mstar), word),
            w.invert(word),
            w.Word.of(mstar, word.letters),
            w.Word(mstar, word.letters),
            w.free_reduce(word),
            w.normalize_word(word),
        ]
        for new in built:
            assert not hasattr(new, "_fold") and new._image is None


class TestInvert:
    def test_twist_self_inverse(self, mstar):
        word = parse_word(mstar, "twist(sep1)")
        assert w.invert(word) == word

    def test_slide_inverts_path(self, mstar):
        word = parse_word(mstar, "slideIrr(1; x1)")
        inv = w.invert(word)
        assert inv.letters == (w.SlideIrr(1, (("x", 1, -1),)),)
        # round-trip oracle: the composite acts as the identity on pi1
        combined = w.compose(word, inv)
        for _, gen_word in generator_words(mstar):
            assert act_pi1(mstar, combined, gen_word) == gen_word

    def test_swap_self_inverse(self, mstar):
        word = parse_word(mstar, "swapIrr(1,2)")
        assert w.invert(word) == word

    def test_spin_inverse_is_spin_twist(self, mstar):
        word = parse_word(mstar, "spin(1)")
        assert w.invert(word).letters == (w.Spin(1), w.Twist(("assoc", 1)))

    def test_aut_inverse_token(self, mstar):
        word = parse_word(mstar, "aut(1,tau)")
        assert w.invert(word) == word  # tau is an involution


class TestFreeReduce:
    def test_twist_squared(self, mstar):
        word = parse_word(mstar, "twist(nonsep1) twist(nonsep1)")
        assert w.free_reduce(word).letters == ()

    def test_spin_squared_is_assoc_twist(self, mstar):
        word = parse_word(mstar, "spin(1) spin(1)")
        reduced = w.free_reduce(word)
        assert reduced.letters == (w.Twist(("assoc", 1)),)
        # consistency oracle: both sides act identically on pi1 and systems
        for _, gen_word in generator_words(mstar):
            assert act_pi1(mstar, word, gen_word) == act_pi1(
                mstar, reduced, gen_word
            )
        for fam, _nonsep in enumerate_symmetric(mstar)[0][:40]:
            assert systems.act_system(mstar, word, fam) == systems.act_system(
                mstar, reduced, fam
            )

    def test_aut_relation(self, mstar):
        word = parse_word(mstar, "aut(1,tau) aut(1,tau)")
        assert w.free_reduce(word).letters == ()

    def test_slide_inverse_pair_cancels(self, mstar):
        word = parse_word(mstar, "slideIrr(1; x1 g1@2) slideIrr(1; g1@2 x1^-1)")
        assert w.free_reduce(word).letters == ()

    def test_idempotent_on_random_words(self, mstar):
        rng = random.Random(5)
        for _ in range(150):
            word = random_word(mstar, rng, max_len=12)
            once = w.free_reduce(word)
            assert w.free_reduce(once) == once

    def test_preserves_actions(self, mstar):
        rng = random.Random(23)
        families = [fam for fam, _ in enumerate_symmetric(mstar)[0]]
        gens = generator_words(mstar)
        for _ in range(150):
            word = random_word(mstar, rng, max_len=8)
            reduced = w.free_reduce(word)
            for _, gen_word in gens:
                assert act_pi1(mstar, word, gen_word) == act_pi1(
                    mstar, reduced, gen_word
                )
        for _ in range(200):
            word = random_word(mstar, rng, max_len=6)
            reduced = w.free_reduce(word)
            fam = rng.choice(families)
            assert _outcome(mstar, word, fam) == _outcome(mstar, reduced, fam)

    def test_assoc_twist_commutes_past_spin(self, mstar):
        word = parse_word(mstar, "twist(assoc1) spin(1) twist(assoc1)")
        assert w.free_reduce(word).letters == (w.Spin(1),)
        word = parse_word(mstar, "spin(1) twist(assoc1) spin(1)")
        assert w.free_reduce(word).letters == ()

    def test_invert_roundtrip(self, mstar):
        rng = random.Random(29)
        for _ in range(150):
            word = random_word(mstar, rng, max_len=8)
            assert (
                w.free_reduce(w.compose(word, w.invert(word))).letters == ()
            )


def _outcome(manifold, word, family):
    try:
        return systems.act_system(manifold, word, family)
    except Exception as exc:
        return type(exc).__name__


class TestNormalizeWord:
    def test_aut_pushes_past_slide(self, mstar):
        word = parse_word(mstar, "aut(1,tau) slideIrr(2; g1@1 x1)")
        normal = w.normalize_word(word)
        assert isinstance(normal.letters[0], w.SlideIrr)
        assert isinstance(normal.letters[1], w.Aut)
        # the path is rewritten through tau's pi1 table (extended by identity)
        rewritten = normal.letters[0].path
        assert rewritten == parse_fpword(mstar, "g1@1 x1")
        for _, gen_word in generator_words(mstar):
            assert act_pi1(mstar, word, gen_word) == act_pi1(
                mstar, normal, gen_word
            )

    def test_already_normal(self, mstar):
        word = parse_word(mstar, "twist(sep1)")
        assert w.normalize_word(word) == word

    def test_swap_pushes_past_aut(self, mstar):
        word = parse_word(mstar, "swapIrr(1,2) aut(1,tau)")
        normal = w.normalize_word(word)
        assert normal.letters == (w.Aut(2, "tau"), w.SwapIrr(1, 2))
        # eduction equality via the wreath composition
        assert sequence.educe(word) == sequence.educe(normal)

    def test_swap_relabels_slide(self, mstar):
        word = parse_word(mstar, "swapIrr(1,2) slideIrr(1; g1@2 x1)")
        normal = w.normalize_word(word)
        assert normal.letters[0] == w.SlideIrr(2, parse_fpword(mstar, "g1@1 x1"))
        assert normal.letters[1] == w.SwapIrr(1, 2)

    def test_swap_relabels_sep_twist(self, mstar):
        word = parse_word(mstar, "swapIrr(1,2) twist(sep1)")
        normal = w.normalize_word(word)
        assert normal.letters == (w.Twist(("sep", 2)), w.SwapIrr(1, 2))

    def test_shape_and_equivalence_random(self, mstar):
        rng = random.Random(31)
        gens = generator_words(mstar)
        for _ in range(120):
            word = random_word(mstar, rng, max_len=6)
            normal = w.normalize_word(word)
            phase = 0
            for lt in normal.letters:
                if w.is_discrepant_letter(lt):
                    assert phase == 0
                elif isinstance(lt, w.Aut):
                    assert phase <= 1
                    phase = 1
                else:
                    phase = 2
            assert sequence.educe(word) == sequence.educe(normal)
            for _, gen_word in gens:
                assert act_pi1(mstar, word, gen_word) == act_pi1(
                    mstar, normal, gen_word
                )


class TestValidation:
    def test_slide_irr_rejects_own_factor(self, mstar):
        with pytest.raises(InvalidWord):
            parse_word(mstar, "slideIrr(1; g1@1)")

    def test_slide_end_rejects_own_handle(self, mstar):
        with pytest.raises(InvalidWord):
            parse_word(mstar, "slideEnd(1,+; x1)")

    def test_swap_irr_needs_same_type(self, mixed_types):
        with pytest.raises(InvalidWord):
            w.Word.of(mixed_types, (w.SwapIrr(1, 3),))

    def test_text_roundtrip(self, mstar):
        rng = random.Random(37)
        for _ in range(100):
            word = random_word(mstar, rng, max_len=5)
            assert parse_word(mstar, word_text(word)) == word


# ---------------------------------------------------------------------------
# the restart-from-the-start rewriting loops, kept as the reference that the
# single-pass free_reduce, normalize_word and factor_discrepant must equal


def _ref_inverse_pair(manifold, a, b) -> bool:
    """R1: b is the letter inverse of a (slides and swaps only)."""
    if isinstance(a, w.SlideIrr) and isinstance(b, w.SlideIrr):
        return a.summand == b.summand and b.path == fpgroup.fp_inv(manifold, a.path)
    if isinstance(a, w.SlideEnd) and isinstance(b, w.SlideEnd):
        return (
            a.handle == b.handle
            and a.sign == b.sign
            and b.path == fpgroup.fp_inv(manifold, a.path)
        )
    if isinstance(a, w.SlideHandle) and isinstance(b, w.SlideHandle):
        return a.handle == b.handle and b.path == fpgroup.fp_inv(manifold, a.path)
    if isinstance(a, w.SwapHandles) and isinstance(b, w.SwapHandles):
        return a == b
    if isinstance(a, w.SwapIrr) and isinstance(b, w.SwapIrr):
        return a == b
    return False


def _ref_free_reduce(word: w.Word) -> w.Word:
    """Apply R1-R4 until fixpoint.

    R1 cancels adjacent letter/inverse pairs, R2 cancels twist^2, R3 turns
    spin^2 into the twist on the associated sphere, R4 merges adjacent aut
    letters through the mcg oracle and drops identity tokens.
    """
    m = word.manifold
    letters = list(word.letters)
    changed = True
    while changed:
        changed = False
        for idx, letter in enumerate(letters):
            if isinstance(letter, w.Aut) and m.type_of(letter.summand).mcg.is_identity(
                letter.token
            ):
                del letters[idx]
                changed = True
                break
        if changed:
            continue
        for idx in range(len(letters) - 1):
            a, b = letters[idx], letters[idx + 1]
            if _ref_inverse_pair(m, a, b):
                del letters[idx : idx + 2]
                changed = True
                break
            if isinstance(a, w.Twist) and isinstance(b, w.Twist) and a.ref == b.ref:
                del letters[idx : idx + 2]
                changed = True
                break
            if isinstance(a, w.Spin) and isinstance(b, w.Spin) and a.handle == b.handle:
                letters[idx : idx + 2] = [w.Twist(("assoc", a.handle))]
                changed = True
                break
            if (
                isinstance(a, w.Aut)
                and isinstance(b, w.Aut)
                and a.summand == b.summand
            ):
                mcg = m.type_of(a.summand).mcg
                merged = mcg.mul(a.token, b.token)
                if mcg.is_identity(merged):
                    del letters[idx : idx + 2]
                else:
                    letters[idx : idx + 2] = [w.Aut(a.summand, merged)]
                changed = True
                break
            if (
                isinstance(a, w.Twist)
                and isinstance(b, w.Spin)
                and a.ref == ("assoc", b.handle)
            ):
                # twist(assoc j) = spin(j)^2 commutes with spin(j); ordering
                # spins first lets alternating runs collapse through R2/R3
                letters[idx : idx + 2] = [b, a]
                changed = True
                break
    return w.Word(m, tuple(letters))


def _ref_relabel_path_letters(manifold, path, letter):
    return fpgroup.act_letter_pi1(manifold, letter, path)


def _ref_push_aut_right(manifold, aut: w.Aut, d):
    """Rewrite (aut, d) -> (d', aut) for a discrepant letter d."""
    if isinstance(d, (w.SlideIrr, w.SlideEnd, w.SlideHandle)):
        mcg = manifold.type_of(aut.summand).mcg
        inverse = w.Aut(aut.summand, mcg.inv(aut.token))
        new_path = _ref_relabel_path_letters(manifold, d.path, inverse)
        if isinstance(d, w.SlideIrr):
            return w.SlideIrr(d.summand, new_path)
        if isinstance(d, w.SlideEnd):
            return w.SlideEnd(d.handle, d.sign, new_path)
        return w.SlideHandle(d.handle, new_path)
    # spins, twists and handle swaps act away from every summand
    return d


def _ref_push_swapirr_right(manifold, swap: w.SwapIrr, d):
    """Rewrite (swapIrr, d) -> (d', swapIrr): relabel indices a<->b inside d."""
    a, b = swap.a, swap.b

    def sw(i):
        return b if i == a else a if i == b else i

    if isinstance(d, w.SlideIrr):
        return w.SlideIrr(sw(d.summand), _ref_relabel_path_letters(manifold, d.path, swap))
    if isinstance(d, w.SlideEnd):
        return w.SlideEnd(d.handle, d.sign, _ref_relabel_path_letters(manifold, d.path, swap))
    if isinstance(d, w.SlideHandle):
        return w.SlideHandle(d.handle, _ref_relabel_path_letters(manifold, d.path, swap))
    if isinstance(d, w.Twist) and d.ref[0] == "sep":
        return w.Twist(("sep", sw(d.ref[1])))
    return d


def _ref_normalize_word(word: w.Word) -> w.Word:
    """Equivalent word of shape (discrepant)(aut)(swapIrr).

    Equivalence means identical pi1 action and identical eduction; the
    commutation rules rewrite slide paths through the relevant relabeling
    or inverse mcg action.
    """
    m = word.manifold
    letters = list(word.letters)
    # phase 1: move aut/swapIrr letters right past discrepant letters
    moved = True
    while moved:
        moved = False
        for idx in range(len(letters) - 1):
            a, b = letters[idx], letters[idx + 1]
            if isinstance(a, w.Aut) and w.is_discrepant_letter(b):
                letters[idx : idx + 2] = [_ref_push_aut_right(m, a, b), a]
                moved = True
                break
            if isinstance(a, w.SwapIrr) and w.is_discrepant_letter(b):
                letters[idx : idx + 2] = [_ref_push_swapirr_right(m, a, b), a]
                moved = True
                break
    # phase 2: inside the trailing segment, aut letters precede swapIrr letters
    moved = True
    while moved:
        moved = False
        for idx in range(len(letters) - 1):
            a, b = letters[idx], letters[idx + 1]
            if isinstance(a, w.SwapIrr) and isinstance(b, w.Aut):
                def sw(i):
                    return a.b if i == a.a else a.a if i == a.b else i

                letters[idx : idx + 2] = [w.Aut(sw(b.summand), b.token), a]
                moved = True
                break
    # phase 3: merge and sort the aut segment (auts on distinct summands commute)
    split = next(
        (i for i, lt in enumerate(letters) if isinstance(lt, (w.Aut, w.SwapIrr))),
        len(letters),
    )
    head = letters[:split]
    auts = [lt for lt in letters[split:] if isinstance(lt, w.Aut)]
    swaps = [lt for lt in letters[split:] if isinstance(lt, w.SwapIrr)]
    merged: dict[int, object] = {}
    for lt in auts:
        mcg = m.type_of(lt.summand).mcg
        if lt.summand in merged:
            merged[lt.summand] = mcg.mul(merged[lt.summand], lt.token)
        else:
            merged[lt.summand] = lt.token
    aut_letters = [
        w.Aut(i, tok)
        for i, tok in sorted(merged.items())
        if not m.type_of(i).mcg.is_identity(tok)
    ]
    return w.Word(m, tuple(head + aut_letters + list(swaps)))


def _ref_factor_discrepant(word):
    if not sequence.is_discrepant(word):
        raise NotDiscrepant("word does not educe to the identity")
    normal = _ref_normalize_word(word)
    split = next(
        (
            i
            for i, lt in enumerate(normal.letters)
            if isinstance(lt, (w.Aut, w.SwapIrr))
        ),
        len(normal.letters),
    )
    tail = w.Word(word.manifold, normal.letters[split:])
    if not sequence.is_discrepant(tail):
        raise OracleError("non-trivial trailing segment")
    return w.Word(word.manifold, normal.letters[:split])


def _factor_outcome(factor, word):
    try:
        return factor(word)
    except (NotDiscrepant, OracleError) as exc:
        return type(exc)


def _assert_matches_reference(word):
    assert w.free_reduce(word) == _ref_free_reduce(word), word_text(word)
    assert w.normalize_word(word) == _ref_normalize_word(word), word_text(word)
    assert _factor_outcome(sequence.factor_discrepant, word) == _factor_outcome(
        _ref_factor_discrepant, word
    ), word_text(word)


class TestSinglePassMatchesReference:
    def test_every_mixed_word_up_to_length_3(self, mstar):
        alphabet = discrepant_alphabet(mstar) + nondiscrepant_alphabet(mstar)
        count = 0
        for length in range(4):
            for combo in itertools.product(alphabet, repeat=length):
                _assert_matches_reference(w.Word(mstar, combo))
                count += 1
        assert count == 99_499

    @pytest.mark.parametrize(
        "name, count", [("s3_sign", 93_196), ("free_mcg", 135_304)]
    )
    def test_kernel_on_every_mixed_word_up_to_length_3(self, name, count, request):
        # non-abelian mcgs: the kernel test against the reference eduction,
        # then the factorization of every kernel word and the error kind of
        # every other word
        manifold = request.getfixturevalue(name)
        identity = sequence.identity_image(manifold)
        alphabet = discrepant_alphabet(manifold) + nondiscrepant_alphabet(manifold)
        seen = 0
        for length in range(4):
            for combo in itertools.product(alphabet, repeat=length):
                word = w.Word(manifold, combo)
                in_kernel = _ref_educe(word) == identity
                assert sequence.is_discrepant(word) == in_kernel, word_text(word)
                # off the kernel, the reference's first step raises
                expected = (
                    _factor_outcome(_ref_factor_discrepant, word)
                    if in_kernel else NotDiscrepant
                )
                assert _factor_outcome(
                    sequence.factor_discrepant, word
                ) == expected, word_text(word)
                seen += 1
        assert seen == count

    @pytest.mark.parametrize(
        "name", ["mstar", "k2l1", "mixed_types", "free_mcg", "s3_sign"]
    )
    def test_random_words_up_to_length_14(self, name, request):
        manifold = request.getfixturevalue(name)
        rng = random.Random(41)
        for _ in range(2000):
            _assert_matches_reference(random_word(manifold, rng, max_len=14))


class TestEductionMemo:
    """The eduction kept on a word never changes a kernel test or a
    factorization, whichever runs first, on fresh or already-educed words."""

    @pytest.mark.parametrize("name", ["mstar", "s3_sign", "free_mcg"])
    def test_answers_do_not_depend_on_order(self, name, request):
        manifold = request.getfixturevalue(name)
        alphabet = discrepant_alphabet(manifold) + nondiscrepant_alphabet(manifold)
        rng = random.Random(13)
        combos = [
            combo for length in range(3)
            for combo in itertools.product(alphabet, repeat=length)
        ] + [random_word(manifold, rng, max_len=8).letters for _ in range(300)]
        identity = sequence.identity_image(manifold)
        for combo in combos:
            # the first call on a fresh word folds it: the answers without a memo
            in_kernel = sequence.is_discrepant(w.Word(manifold, combo))
            factored = _factor_outcome(
                sequence.factor_discrepant, w.Word(manifold, combo)
            )
            assert in_kernel == (sequence.educe(w.Word(manifold, combo)) == identity)
            kernel_first = w.Word(manifold, combo)
            assert sequence.is_discrepant(kernel_first) == in_kernel
            assert _factor_outcome(sequence.factor_discrepant, kernel_first) == factored
            factor_first = w.Word(manifold, combo)
            assert _factor_outcome(sequence.factor_discrepant, factor_first) == factored
            assert sequence.is_discrepant(factor_first) == in_kernel
            educed = w.Word(manifold, combo)
            sequence.is_discrepant(educed)
            for word in (kernel_first, factor_first, educed):  # all educed now
                assert sequence.is_discrepant(word) == in_kernel, word_text(word)
                assert _factor_outcome(sequence.factor_discrepant, word) == factored
                assert word._image == sequence.educe(word)


# ---------------------------------------------------------------------------
# the fold of one composed image per letter, kept as the reference that the
# in-place wreath fold of sequence.educe must equal


def _ref_letter_image(manifold, letter):
    """Eduction of a single non-discrepant letter."""
    if isinstance(letter, w.Aut):
        image = sequence.identity_image(manifold)
        tokens = list(image.tokens)
        tokens[letter.summand - 1] = letter.token
        return sequence.EductionImage(image.perm, tuple(tokens))
    if isinstance(letter, w.SwapIrr):
        image = sequence.identity_image(manifold)
        perm = list(image.perm)
        perm[letter.a - 1], perm[letter.b - 1] = perm[letter.b - 1], perm[letter.a - 1]
        return sequence.EductionImage(tuple(perm), image.tokens)
    raise InvalidWord(f"unknown generator letter {letter!r}")


def _ref_educe(word):
    manifold = word.manifold
    acc = sequence.identity_image(manifold)
    for letter in word.letters:
        if not w.is_discrepant_letter(letter):
            acc = sequence.compose_images(
                manifold, acc, _ref_letter_image(manifold, letter)
            )
    return acc


class TestEduceMatchesReference:
    def test_every_mixed_word_up_to_length_3_on_s3(self, s3_sign):
        # mcg = S3 does not commute, so a product taken in the wrong order
        # or a token collected at the wrong summand changes the image
        alphabet = discrepant_alphabet(s3_sign) + nondiscrepant_alphabet(s3_sign)
        count = 0
        for length in range(4):
            for combo in itertools.product(alphabet, repeat=length):
                word = w.Word(s3_sign, combo)
                assert sequence.educe(word) == _ref_educe(word), word_text(word)
                count += 1
        assert count == 93_196

    @pytest.mark.parametrize("name", ["mstar", "mixed_types", "free_mcg", "s3_sign"])
    def test_random_words_up_to_length_14(self, name, request):
        manifold = request.getfixturevalue(name)
        rng = random.Random(43)
        for _ in range(2000):
            word = random_word(manifold, rng, max_len=14)
            assert sequence.educe(word) == _ref_educe(word), word_text(word)

    def test_discrepant_word_returns_the_identity_itself(self, mstar):
        word = parse_word(mstar, "slideIrr(1; x1) spin(1) twist(sep2)")
        assert sequence.educe(word) is sequence.identity_image(mstar)

    @pytest.mark.parametrize(
        "letter", [w.Aut(0, "tau"), w.Aut(3, "tau"), w.SwapIrr(0, 1), w.SwapIrr(1, 3)]
    )
    def test_out_of_range_summand_raises(self, mstar, letter):
        with pytest.raises(LookupError):
            sequence.educe(w.Word(mstar, (letter,)))

    def test_unknown_letter_raises(self, mstar):
        with pytest.raises(InvalidWord):
            sequence.educe(w.Word(mstar, ("not a letter",)))
