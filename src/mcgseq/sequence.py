"""The short exact sequence made executable.

Eduction projects a word to its effect on the disjoint union of the
irreducible summands: a type-preserving permutation plus one mapping-class
token per summand.  Slides, spins, twists and handle interchanges educe to
the identity; the kernel test and the discrepant factorization rest on
that.  A set-theoretic section (``lift``) realizes every element of the
image group, and a spotted variant handles manifolds with capped sphere
boundary.
"""

from __future__ import annotations

from .errors import InvalidWord, NotDiscrepant, OracleError, TypeMismatch
from .model import HomeoType, PrimeDecomposition
from . import words as w
from .values import Value


class EductionImage(Value):
    """An element of H(V): permutation of summands plus per-summand tokens.

    ``perm[i-1]`` is the image of summand i; ``tokens[i-1]`` is the mcg
    oracle element attached at source summand i.
    """

    __slots__ = _fields = ("perm", "tokens")

    def __init__(self, perm: tuple[int, ...], tokens: tuple):
        _set_perm(self, perm)
        _set_tokens(self, tokens)

    def perm_of(self, i: int) -> int:
        return self.perm[i - 1]

    def token_of(self, i: int):
        return self.tokens[i - 1]


_set_perm, _set_tokens = EductionImage.perm.__set__, EductionImage.tokens.__set__


def identity_image(manifold: PrimeDecomposition) -> EductionImage:
    """The identity of H(V), built once per manifold and kept on it."""
    image = manifold._identity_image
    if image is None:
        image = EductionImage(
            tuple(range(1, manifold.k + 1)),
            tuple(t.mcg.identity for t in manifold.summands),
        )
        object.__setattr__(manifold, "_identity_image", image)
    return image


def check_image(manifold: PrimeDecomposition, image: EductionImage) -> None:
    k = manifold.k
    if sorted(image.perm) != list(range(1, k + 1)) or len(image.tokens) != k:
        raise TypeMismatch(f"not a valid eduction image for k={k}")
    for i in range(1, k + 1):
        if manifold.type_of(i) != manifold.type_of(image.perm_of(i)):
            raise TypeMismatch(
                f"permutation sends summand {i} to a non-homeomorphic summand "
                f"{image.perm_of(i)}"
            )
        manifold.type_of(i).mcg.check_element(image.token_of(i))


def compose_images(
    manifold: PrimeDecomposition, first: EductionImage, second: EductionImage
) -> EductionImage:
    """The image of "first, then second".

    Permutations compose pointwise; the token at source i is the token of
    ``first`` at i followed by the token of ``second`` at first.perm(i)
    (the wreath-product rule, written in apply-order).
    """
    k = manifold.k
    perm = tuple(second.perm_of(first.perm_of(i)) for i in range(1, k + 1))
    tokens = []
    for i in range(1, k + 1):
        mcg = manifold.type_of(i).mcg
        tokens.append(
            mcg.mul(first.token_of(i), second.token_of(first.perm_of(i)))
        )
    return EductionImage(perm, tuple(tokens))


def educe(word: w.Word) -> EductionImage:
    """Project a word to H(V); slides, spins, twists and handle swaps vanish.

    One in-place fold by the wreath rule of ``compose_images``.  A word
    without aut or swapIrr letters returns the identity image itself.
    """
    manifold = word.manifold
    identity = identity_image(manifold)
    perm = None
    for letter in word.letters:
        kind = type(letter)
        if kind in w.DISCREPANT_TYPES:
            continue
        if perm is None:
            perm, tokens = list(identity.perm), list(identity.tokens)
            inv = {s: i for i, s in enumerate(perm)}  # inv[s]: source now at s
        if kind is w.Aut:
            i = inv[letter.summand]
            tokens[i] = manifold.summands[i].mcg.mul(tokens[i], letter.token)
        elif kind is w.SwapIrr:
            a, b = letter.a, letter.b
            perm[inv[a]], perm[inv[b]] = b, a
            inv[a], inv[b] = inv[b], inv[a]
        else:
            raise InvalidWord(f"unknown generator letter {letter!r}")
    return identity if perm is None else EductionImage(tuple(perm), tuple(tokens))


def perm_transpositions(perm: dict) -> list[tuple[int, int]]:
    """Write a permutation as transpositions, smallest cycle entry first.

    Applying the transpositions in the returned order (left to right)
    composes to the permutation.
    """
    seen = set()
    out = []
    for start in sorted(perm):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        cur = perm[start]
        while cur != start:
            cycle.append(cur)
            cur = perm[cur]
        seen.update(cycle)
        for nxt in cycle[1:]:
            out.append((min(start, nxt), max(start, nxt)))
    return out


def lift(manifold: PrimeDecomposition, image: EductionImage) -> w.Word:
    """A fixed set-theoretic section: educe(lift(h)) = h.

    Transpositions realizing the permutation come first (smallest cycle
    entry first), then one aut letter per non-trivial token; the aut letter
    for the token at source i is placed at summand perm(i), which is where
    the wreath composition collects it.
    """
    check_image(manifold, image)
    perm = {i: image.perm_of(i) for i in range(1, manifold.k + 1)}
    letters: list = [w.SwapIrr(a, b) for a, b in perm_transpositions(perm)]
    auts = []
    for i in range(1, manifold.k + 1):
        token = image.token_of(i)
        if not manifold.type_of(i).mcg.is_identity(token):
            auts.append(w.Aut(image.perm_of(i), token))
    auts.sort(key=lambda lt: lt.summand)
    return w.Word.of(manifold, tuple(letters + auts))


def _eduction(word: w.Word) -> EductionImage:
    """``educe(word)``, folded once per word and kept in its ``_image`` slot.

    Once it has run, the word's manifold holds its identity image, which
    ``educe`` builds.
    """
    image = word._image
    if image is None:
        image = educe(word)
        w._set_image(word, image)
    return image


def is_discrepant(word: w.Word) -> bool:
    """True iff the word educes to the identity of H(V).

    The word is folded at most once (``_eduction``), so a later
    ``factor_discrepant`` of it reads the same image.  ``educe`` hands back
    the manifold's identity image itself for a word without aut or swapIrr
    letters, so that case skips the field-by-field comparison.
    """
    image = _eduction(word)
    identity = word.manifold._identity_image
    return image is identity or image == identity


def factor_discrepant(word: w.Word) -> w.Word:
    """Rewrite a kernel word over the discrepant alphabet only.

    Normalizes to (discrepant)(aut)(swapIrr), checks via the oracles that
    the trailing segment evaluates to the identity, and deletes it.  A word
    without aut or swapIrr letters, the one case in which ``educe`` returns
    the identity image itself, is returned unchanged and skips the rewrite:
    its normal form is its own letters in order with an empty trailing
    segment, so the rewrite would rebuild an equal word.
    """
    manifold = word.manifold
    image = _eduction(word)
    identity = manifold._identity_image
    if image is identity:
        return word
    if image != identity:
        raise NotDiscrepant("word does not educe to the identity")
    head, auts, swaps = w._segments(word)
    tail = auts + swaps
    if tail and educe(w.Word(manifold, tuple(tail))) != identity:
        raise OracleError(
            "normalize_word produced a non-trivial trailing segment for a "
            "kernel word"
        )
    return w.Word(manifold, tuple(head))


# ---------------------------------------------------------------------------
# spotted manifolds


class SpottedMarking(Value):
    """A capped manifold V0 with p >= 1 removed balls (spots)."""

    __slots__ = _fields = ("cap_type", "spots")

    def __init__(self, cap_type: HomeoType, spots: int):
        if spots < 1:
            raise ValueError("a spotted manifold needs at least one spot")
        object.__setattr__(self, "cap_type", cap_type)
        object.__setattr__(self, "spots", spots)


class SpotSlide(Value):
    __slots__ = _fields = ("spot", "path")  # path: element of pi1(V0)


class SpotSwap(Value):
    __slots__ = _fields = ("a", "b")


class SpotTwist(Value):
    __slots__ = _fields = ("spot",)


class CapAut(Value):
    __slots__ = _fields = ("token",)  # element of mcg(V0)


def check_spotted_letter(marking: SpottedMarking, letter) -> None:
    p = marking.spots
    if isinstance(letter, (SpotSlide, SpotTwist)):
        if not 1 <= letter.spot <= p:
            raise InvalidWord(f"spot index {letter.spot} out of range 1..{p}")
        if isinstance(letter, SpotSlide):
            marking.cap_type.pi1.check_element(letter.path)
    elif isinstance(letter, SpotSwap):
        if not (1 <= letter.a < letter.b <= p):
            raise InvalidWord(f"spotSwap({letter.a},{letter.b}) invalid")
    elif isinstance(letter, CapAut):
        marking.cap_type.mcg.check_element(letter.token)
    else:
        raise InvalidWord(f"unknown spotted letter {letter!r}")


def spotted_educe(marking: SpottedMarking, letters) -> tuple[object, tuple[int, ...]]:
    """Fold a spotted word to (capped mcg element, spot permutation).

    spotSlide and spotTwist are discrepant; spotSwap contributes a
    transposition; capAut contributes its token.
    """
    letters = tuple(letters)
    for letter in letters:
        check_spotted_letter(marking, letter)
    mcg = marking.cap_type.mcg
    cap = mcg.identity
    perm = list(range(1, marking.spots + 1))
    for letter in letters:
        if isinstance(letter, CapAut):
            cap = mcg.mul(cap, letter.token)
        elif isinstance(letter, SpotSwap):
            swap = {letter.a: letter.b, letter.b: letter.a}
            perm = [swap.get(v, v) for v in perm]
    return cap, tuple(perm)


def spotted_lift(
    marking: SpottedMarking, cap, perm: tuple[int, ...]
) -> list:
    """Explicit spotted word with spotted_educe == (cap, perm).

    Raises TypeMismatch unless perm is a permutation of 1..spots.
    """
    if sorted(perm) != list(range(1, marking.spots + 1)):
        raise TypeMismatch(f"not a permutation of 1..{marking.spots}: {perm!r}")
    mapping = {i + 1: perm[i] for i in range(marking.spots)}
    letters: list = [SpotSwap(a, b) for a, b in perm_transpositions(mapping)]
    if not marking.cap_type.mcg.is_identity(cap):
        letters.append(CapAut(cap))
    for letter in letters:
        check_spotted_letter(marking, letter)
    return letters
