"""Generator alphabet of H(W), word composition, inversion and rewriting.

Convention (used package-wide): words act left-to-right, so acting with
``compose(w1, w2)`` equals acting with w1 first, then w2.

The alphabet is written out here, once, each letter checked:
``discrepant_alphabet`` generates H_d(W) and ``nondiscrepant_alphabet``
adds the aut and swapIrr letters of H(W).  ``verify`` enumerates both,
and ``systems`` filters its BFS moves and swapIrr letters out of them.

A ``Word`` is an immutable value, the pair (manifold, letters), that
carries its eduction once ``sequence.is_discrepant`` or
``sequence.factor_discrepant`` has folded it, and its fold of the standard
sphere system once ``systems._standard_fold``, the memo's one writer, has
run it for ``act_system`` or ``trace_assignment``; every function here
builds a new word, which starts with neither.

A slide, spin or interchange letter carries its action on block masks in
a ``_compiled`` slot, the triple (manifold, map, steps), once
``systems._compile_letter``, the memo's one writer, has compiled it; it is
read back only on that same manifold object.  The map (``systems._Images``,
shared by equal actions) holds each mask's image next to the action
``(slid, parity, swaps)`` that fills it.  ``steps``, the letter's own dict,
starts empty and maps each slot tuple that ``systems._act_masks`` has
applied the letter to, on that manifold, to its image, checked for
laminarity once; a rejected image is never stored.  So the BFS moves and
swapIrr letters of ``systems._reachability`` arrive compiled in every
certificate built from them: a replay still folds the certificate's own
letters, but compiles none of them, and a step it took before is one
lookup.  Like a word's memos, it takes no part in equality, hash, repr,
pickling or copying.
"""

from __future__ import annotations

from .errors import InvalidWord, ManifoldMismatch
from .model import PrimeDecomposition
from . import fpgroup
from .values import Value

# ---------------------------------------------------------------------------
# letters


class SlideIrr(Value):
    """Slide of the one-holed summand i along a closed path."""

    # path: FPWord; must avoid factor G_i letters
    _fields = ("summand", "path")
    __slots__ = _fields + ("_compiled",)


class SlideEnd(Value):
    """Slide of one end e(j, sign) of a non-separating sphere."""

    # sign: +1 or -1; path: FPWord; must avoid x_j letters
    _fields = ("handle", "sign", "path")
    __slots__ = _fields + ("_compiled",)


class SlideHandle(Value):
    """Slide of the capped holed S^2 x S^1 summand cut off by C(S_j)."""

    # path: FPWord; must avoid x_j letters
    _fields = ("handle", "path")
    __slots__ = _fields + ("_compiled",)


class Spin(Value):
    """Half Dehn twist on the separating sphere associated to handle j."""

    _fields = ("handle",)
    __slots__ = _fields + ("_compiled",)


class Twist(Value):
    """Dehn twist on a standard sphere; ref is ('sep',i)/('nonsep',j)/('assoc',j)."""

    __slots__ = _fields = ("ref",)


class SwapHandles(Value):
    """Interchanging slide of two S^2 x S^1 summands (a < b)."""

    _fields = ("a", "b")
    __slots__ = _fields + ("_compiled",)


class SwapIrr(Value):
    """Interchanging slide of two homeomorphic irreducible summands (a < b)."""

    _fields = ("a", "b")
    __slots__ = _fields + ("_compiled",)


class Aut(Value):
    """A mapping-class token of HomeoType(i) applied to summand i."""

    __slots__ = _fields = ("summand", "token")  # token: mcg oracle element


_SLIDES = (SlideIrr, SlideEnd, SlideHandle)
# tested by exact type(letter): no letter class has a subclass
DISCREPANT_TYPES = frozenset(_SLIDES + (Spin, Twist, SwapHandles))


def is_discrepant_letter(letter) -> bool:
    return type(letter) in DISCREPANT_TYPES


def check_letter(manifold: PrimeDecomposition, letter) -> None:
    k, ell = manifold.k, manifold.ell
    if isinstance(letter, SlideIrr):
        if not 1 <= letter.summand <= k:
            raise InvalidWord(f"slideIrr summand {letter.summand} out of range")
        if fpgroup.fp_reduce(manifold, letter.path) != letter.path:
            raise InvalidWord("slide path is not reduced")
        if any(lt[0] == "g" and lt[1] == letter.summand for lt in letter.path):
            raise InvalidWord(
                f"slideIrr({letter.summand}) path may not use factor "
                f"G_{letter.summand} letters"
            )
    elif isinstance(letter, (SlideEnd, SlideHandle)):
        if not 1 <= letter.handle <= ell:
            raise InvalidWord(f"slide handle {letter.handle} out of range")
        if isinstance(letter, SlideEnd) and letter.sign not in (1, -1):
            raise InvalidWord("slideEnd sign must be + or -")
        if fpgroup.fp_reduce(manifold, letter.path) != letter.path:
            raise InvalidWord("slide path is not reduced")
        if any(lt[0] == "x" and lt[1] == letter.handle for lt in letter.path):
            raise InvalidWord(
                f"slide of handle {letter.handle} may not use x{letter.handle} letters"
            )
    elif isinstance(letter, Spin):
        if not 1 <= letter.handle <= ell:
            raise InvalidWord(f"spin handle {letter.handle} out of range")
    elif isinstance(letter, Twist):
        kind, idx = letter.ref
        if kind not in ("sep", "nonsep", "assoc"):
            raise InvalidWord(f"bad twist ref {letter.ref!r}")
        if not 1 <= idx <= (k if kind == "sep" else ell):
            raise InvalidWord(f"twist({kind}{idx}) out of range")
    elif isinstance(letter, SwapHandles):
        if not (1 <= letter.a < letter.b <= ell):
            raise InvalidWord(f"swapHandles({letter.a},{letter.b}) invalid")
    elif isinstance(letter, SwapIrr):
        if not (1 <= letter.a < letter.b <= k):
            raise InvalidWord(f"swapIrr({letter.a},{letter.b}) invalid")
        if manifold.type_of(letter.a) != manifold.type_of(letter.b):
            raise InvalidWord(
                f"swapIrr({letter.a},{letter.b}): summands are not homeomorphic"
            )
    elif isinstance(letter, Aut):
        if not 1 <= letter.summand <= k:
            raise InvalidWord(f"aut summand {letter.summand} out of range")
        manifold.type_of(letter.summand).mcg.check_element(letter.token)
    else:
        raise InvalidWord(f"unknown letter {letter!r}")


# ---------------------------------------------------------------------------
# the generator alphabet


def single_letter_paths(manifold: PrimeDecomposition, avoid_factor=None, avoid_handle=None):
    """All length-one pi1 words usable as slide paths under the restrictions."""
    paths = []
    for i in range(1, manifold.k + 1):
        if i == avoid_factor:
            continue
        for _, elem in manifold.type_of(i).pi1.generators():
            paths.append((("g", i, elem),))
    for j in range(1, manifold.ell + 1):
        if j == avoid_handle:
            continue
        paths.append((("x", j, 1),))
        paths.append((("x", j, -1),))
    return paths


def twist_refs(manifold: PrimeDecomposition) -> list:
    """The standard spheres: ('sep', i) for each summand, then ('nonsep', j)
    and ('assoc', j) for each handle."""
    refs = [("sep", i) for i in range(1, manifold.k + 1)]
    for j in range(1, manifold.ell + 1):
        refs += [("nonsep", j), ("assoc", j)]
    return refs


def discrepant_alphabet(manifold: PrimeDecomposition) -> list:
    """Slides with single-letter paths, spins, twists and handle swaps,
    each checked by ``check_letter``."""
    letters = []
    for i in range(1, manifold.k + 1):
        for p in single_letter_paths(manifold, avoid_factor=i):
            letters.append(SlideIrr(i, p))
    for j in range(1, manifold.ell + 1):
        paths = single_letter_paths(manifold, avoid_handle=j)
        for sign in (1, -1):
            for p in paths:
                letters.append(SlideEnd(j, sign, p))
        for p in paths:
            letters.append(SlideHandle(j, p))
    for j in range(1, manifold.ell + 1):
        letters.append(Spin(j))
    letters += [Twist(ref) for ref in twist_refs(manifold)]
    for a in range(1, manifold.ell + 1):
        for b in range(a + 1, manifold.ell + 1):
            letters.append(SwapHandles(a, b))
    for letter in letters:
        check_letter(manifold, letter)
    return letters


def _aut_tokens(mcg) -> list:
    """The tokens of aut letters: a finite mcg's elements, else its generators."""
    return list(mcg.elements()) if mcg.is_finite else [e for _, e in mcg.generators()]


def nondiscrepant_alphabet(manifold: PrimeDecomposition) -> list:
    """The aut letters of each summand's non-identity tokens (``_aut_tokens``),
    then a swapIrr letter per pair in ``swap_pairs``, each checked by
    ``check_letter``."""
    letters = []
    for i in range(1, manifold.k + 1):
        mcg = manifold.type_of(i).mcg
        letters += [Aut(i, e) for e in _aut_tokens(mcg) if not mcg.is_identity(e)]
    letters += [SwapIrr(a, b) for a, b in manifold.swap_pairs]
    for letter in letters:
        check_letter(manifold, letter)
    return letters


# ---------------------------------------------------------------------------
# words


class Word(Value):
    """An immutable word over the alphabet of H(W) on one manifold.

    A ``Value`` of the pair (manifold, letters).  The ``_image`` slot keeps
    the word's eduction once ``sequence.is_discrepant`` or
    ``sequence.factor_discrepant`` has folded it (None until then).  The
    ``_fold`` slot keeps the (slot masks, spin bits) of the standard
    system carried along the word once ``systems._standard_fold`` has
    folded it; it is left unset until then, so that building a word
    stores nothing more, and reading it raises AttributeError.  Neither
    memo takes part in equality, hash, repr, pickling or copying.
    """

    _fields = ("manifold", "letters")
    __slots__ = _fields + ("_image", "_fold")

    def __init__(self, manifold: PrimeDecomposition, letters: tuple):
        _set_manifold(self, manifold)
        _set_letters(self, letters)
        _set_image(self, None)

    @classmethod
    def of(cls, manifold: PrimeDecomposition, letters) -> "Word":
        letters = tuple(letters)
        for letter in letters:
            check_letter(manifold, letter)
        return cls(manifold, letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


_set_manifold = Word.manifold.__set__
_set_letters = Word.letters.__set__
_set_image = Word._image.__set__
_set_fold = Word._fold.__set__


def empty_word(manifold: PrimeDecomposition) -> Word:
    return Word(manifold, ())


def compose(w1: Word, w2: Word) -> Word:
    if w1.manifold != w2.manifold:
        raise ManifoldMismatch("cannot compose words over different manifolds")
    return Word(w1.manifold, w1.letters + w2.letters)


def _along(slide, path: tuple):
    """The slide letter with its path replaced."""
    kind = type(slide)
    if kind is SlideEnd:
        return SlideEnd(slide.handle, slide.sign, path)
    if kind is SlideHandle:
        return SlideHandle(slide.handle, path)
    return SlideIrr(slide.summand, path)


def _invert_letter(manifold: PrimeDecomposition, letter) -> tuple:
    if isinstance(letter, _SLIDES):
        return (_along(letter, fpgroup.fp_inv(manifold, letter.path)),)
    if isinstance(letter, Spin):
        # spin^-1 = spin * twist(assoc); the half twist undone overshoots by
        # a full twist
        return (letter, Twist(("assoc", letter.handle)))
    if isinstance(letter, (Twist, SwapHandles, SwapIrr)):
        return (letter,)
    if isinstance(letter, Aut):
        mcg = manifold.type_of(letter.summand).mcg
        return (Aut(letter.summand, mcg.inv(letter.token)),)
    raise InvalidWord(f"unknown letter {letter!r}")


def invert(w: Word) -> Word:
    letters: list = []
    for letter in reversed(w.letters):
        letters.extend(_invert_letter(w.manifold, letter))
    return Word(w.manifold, tuple(letters))


# ---------------------------------------------------------------------------
# free reduction (rules R1-R4)


def _push_reduced(manifold: PrimeDecomposition, out: list, b) -> None:
    """Append b to the reduced stack ``out`` and rewrite at the top."""
    if isinstance(b, Aut):
        mcg = manifold.type_of(b.summand).mcg
        if mcg.is_identity(b.token):
            return
        if out and isinstance(out[-1], Aut) and out[-1].summand == b.summand:
            merged = mcg.mul(out.pop().token, b.token)
            if not mcg.is_identity(merged):
                out.append(Aut(b.summand, merged))
            return
    elif out:
        a = out[-1]
        if type(a) is type(b):
            if _invert_letter(manifold, a) == (b,):
                out.pop()
                return
            if isinstance(b, Spin) and a.handle == b.handle:
                out.pop()
                _push_reduced(manifold, out, Twist(("assoc", b.handle)))
                return
        elif isinstance(b, Spin) and a == Twist(("assoc", b.handle)):
            # twist(assoc j) = spin(j)^2 commutes with spin(j); ordering
            # spins first lets alternating runs collapse through R2/R3
            out.pop()
            _push_reduced(manifold, out, b)
            _push_reduced(manifold, out, a)
            return
    out.append(b)


def free_reduce(w: Word) -> Word:
    """Apply R1-R4 in one left-to-right pass over a stack of reduced letters.

    R1 cancels adjacent letter/inverse pairs, R2 cancels twist^2, R3 turns
    spin^2 into the twist on the associated sphere, R4 merges adjacent aut
    letters through the mcg oracle and drops identity tokens; a
    twist(assoc j) followed by spin(j) is reordered spin first.  Each letter
    is pushed onto the stack and rewritten against its top only, since the
    stack below stays reduced; the result is the word left when no rule
    applies anywhere.
    """
    out: list = []
    for letter in w.letters:
        _push_reduced(w.manifold, out, letter)
    return Word(w.manifold, tuple(out))


# ---------------------------------------------------------------------------
# normal form: (discrepant letters) (aut letters) (swapIrr letters)


def _push_right(manifold: PrimeDecomposition, a, d):
    """Rewrite (a, d) -> (d', a) for an aut or swapIrr letter a and a
    discrepant letter d.

    Slide paths are rewritten through the inverse mcg action of an aut
    letter or through the a<->b relabeling of a swapIrr letter, which also
    relabels the summand of slideIrr and twist(sep); spins, the other
    twists and handle swaps act away from every summand.
    """
    if isinstance(a, SwapIrr):
        swap = {a.a: a.b, a.b: a.a}
        if isinstance(d, Twist) and d.ref[0] == "sep":
            return Twist(("sep", swap.get(d.ref[1], d.ref[1])))
        if isinstance(d, SlideIrr):
            path = fpgroup.act_letter_pi1(manifold, a, d.path)
            return SlideIrr(swap.get(d.summand, d.summand), path)
    elif isinstance(d, _SLIDES):
        a = Aut(a.summand, manifold.type_of(a.summand).mcg.inv(a.token))
    if isinstance(d, _SLIDES):
        return _along(d, fpgroup.act_letter_pi1(manifold, a, d.path))
    return d


def _segments(w: Word) -> tuple[list, list, list]:
    """One pass splitting w into (discrepant)(aut)(swapIrr) segments.

    Each discrepant letter moves left past every aut/swapIrr letter before
    it, nearest first, each rewriting it by ``_push_right``.  Each aut
    letter moves left past the swapIrr letters before it, which relabel its
    summand: ``where[i]``, built at the first swapIrr letter, is the summand
    that index i denotes once those swaps are passed.  The aut tokens are
    merged per summand in order, identity tokens dropped and the aut
    letters sorted by summand; a word with no aut letter skips all that.
    """
    m = w.manifold
    head: list = []
    passed: list = []  # the aut/swapIrr letters seen so far
    swaps: list = []
    where = None
    merged: dict[int, object] = {}
    for letter in w.letters:
        kind = type(letter)
        if kind is Aut:
            passed.append(letter)
            i = letter.summand if where is None else where[letter.summand]
            if i in merged:
                merged[i] = m.type_of(i).mcg.mul(merged[i], letter.token)
            else:
                merged[i] = letter.token
        elif kind is SwapIrr:
            passed.append(letter)
            swaps.append(letter)
            if where is None:
                where = list(range(m.k + 1))
            where[letter.a], where[letter.b] = where[letter.b], where[letter.a]
        else:
            for a in reversed(passed):
                letter = _push_right(m, a, letter)
            head.append(letter)
    auts = [
        Aut(i, token)
        for i, token in sorted(merged.items())
        if not m.type_of(i).mcg.is_identity(token)
    ] if merged else []
    return head, auts, swaps


def normalize_word(w: Word) -> Word:
    """Equivalent word of shape (discrepant)(aut)(swapIrr), built in one pass.

    Equivalence means identical pi1 action and identical eduction; the
    commutation rules rewrite slide paths through the relevant relabeling
    or inverse mcg action (see ``_segments``).
    """
    head, auts, swaps = _segments(w)
    return Word(w.manifold, tuple(head + auts + swaps))
