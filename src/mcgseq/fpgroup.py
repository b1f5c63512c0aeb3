"""pi1(W) as a free product of oracle factors and Z's, with the word action.

An FPWord is a reduced tuple of letters: ``('g', i, elem)`` for a
non-trivial element of factor G_i, or ``('x', j, sign)`` for a handle
generator.  Reduced means no adjacent letters share a factor, no adjacent
x_j / x_j^-1 pair, and no identity oracle elements.

Words act on pi1 on the left-to-right convention: acting with
``compose(w1, w2)`` equals acting with w1 first, then w2.  Each generator
letter acts by one of the five automorphism types that generate the
automorphisms of a free product (Fouxe-Rabinovitch): partial conjugations
(slideIrr, slideHandle), transvections (slideEnd), inversions (spin),
interchanges (swapIrr, swapHandles) and factor automorphisms (aut); twists
act trivially.  ``act_letter_pi1`` has one branch per type.
"""

from __future__ import annotations

from .errors import InvalidWord, OracleError
from .model import PrimeDecomposition
from .values import Value

FPWord = tuple  # of letters


def check_letters(manifold: PrimeDecomposition, letters) -> None:
    for letter in letters:
        if letter[0] == "g":
            _, i, elem = letter
            if not 1 <= i <= manifold.k:
                raise OracleError(f"factor index {i} out of range 1..{manifold.k}")
            manifold.type_of(i).pi1.check_element(elem)
        elif letter[0] == "x":
            _, j, sign = letter
            if not 1 <= j <= manifold.ell or sign not in (1, -1):
                raise OracleError(f"bad handle letter {letter!r}")
        else:
            raise OracleError(f"bad pi1 letter {letter!r}")


def fp_reduce(manifold: PrimeDecomposition, letters) -> FPWord:
    """Canonical reduced form; adjacent same-factor letters merge via oracle."""
    check_letters(manifold, letters)
    out: list = []
    for letter in letters:
        if letter[0] == "g":
            _, i, elem = letter
            oracle = manifold.type_of(i).pi1
            if oracle.is_identity(elem):
                continue
            if out and out[-1][0] == "g" and out[-1][1] == i:
                merged = oracle.mul(out[-1][2], elem)
                out.pop()
                if not oracle.is_identity(merged):
                    out.append(("g", i, merged))
            else:
                out.append(letter)
        else:
            _, j, sign = letter
            if out and out[-1] == ("x", j, -sign):
                out.pop()
            else:
                out.append(letter)
    return tuple(out)


def fp_mul(manifold: PrimeDecomposition, u: FPWord, v: FPWord) -> FPWord:
    return fp_reduce(manifold, list(u) + list(v))


def fp_inv(manifold: PrimeDecomposition, u: FPWord) -> FPWord:
    out = []
    for letter in reversed(u):
        if letter[0] == "g":
            _, i, elem = letter
            out.append(("g", i, manifold.type_of(i).pi1.inv(elem)))
        else:
            _, j, sign = letter
            out.append(("x", j, -sign))
    return fp_reduce(manifold, out)


def generator_words(manifold: PrimeDecomposition) -> list[tuple[tuple, FPWord]]:
    """The pi1 generating set as (table key, one-letter word) pairs.

    Keys are ('g', i, gen_name) and ('x', j).
    """
    out = []
    for i in range(1, manifold.k + 1):
        for name, elem in manifold.type_of(i).pi1.generators():
            out.append((("g", i, name), (("g", i, elem),)))
    for j in range(1, manifold.ell + 1):
        out.append((("x", j), (("x", j, 1),)))
    return out


# ---------------------------------------------------------------------------
# letter actions


def act_letter_pi1(manifold: PrimeDecomposition, letter, u: FPWord) -> FPWord:
    """Action of a single generator letter on a reduced word.

    Each letter acts by one of the five automorphism types of a free
    product (gamma is the slide path):

    * partial conjugation: ``slideIrr(i; gamma)`` and
      ``slideHandle(j; gamma)`` send each letter of G_i, or each x_j^s,
      to gamma^-1 * letter * gamma;
    * transvection: ``slideEnd(j, sign; gamma)`` sends x_j^s to
      x_j^s * gamma when s is the end's sign, to gamma^-1 * x_j^s otherwise;
    * inversion: ``spin(j)`` sends x_j to x_j^-1;
    * interchange: ``swapIrr(a, b)`` and ``swapHandles(a, b)`` exchange the
      indices a and b of the g or x letters;
    * factor automorphism: ``aut(i, t)`` applies t's pi1 table to G_i.

    A twist acts trivially.
    """
    from . import words as w  # local import; words depends on this module

    kind = type(letter)
    if kind is w.SlideIrr or kind is w.SlideHandle:
        tag, n = ("g", letter.summand) if kind is w.SlideIrr else ("x", letter.handle)
        gamma, gamma_inv = letter.path, fp_inv(manifold, letter.path)
        out: list = []
        for lt in u:
            if lt[0] == tag and lt[1] == n:
                out += gamma_inv
                out.append(lt)
                out += gamma
            else:
                out.append(lt)
    elif kind is w.SlideEnd:
        j, sign = letter.handle, letter.sign
        gamma, gamma_inv = letter.path, fp_inv(manifold, letter.path)
        out = []
        for lt in u:
            if lt[0] != "x" or lt[1] != j:
                out.append(lt)
            elif lt[2] == sign:
                out.append(lt)
                out += gamma
            else:
                out += gamma_inv
                out.append(lt)
    elif kind is w.Spin:
        j = letter.handle
        out = [("x", j, -lt[2]) if lt[0] == "x" and lt[1] == j else lt for lt in u]
    elif kind is w.SwapIrr or kind is w.SwapHandles:
        tag, a, b = "g" if kind is w.SwapIrr else "x", letter.a, letter.b
        out = [
            (tag, a + b - lt[1], lt[2]) if lt[0] == tag and lt[1] in (a, b) else lt
            for lt in u
        ]
    elif kind is w.Aut:
        i = letter.summand
        table = manifold.type_of(i).pi1_table(letter.token)
        out = [
            ("g", i, table.apply(lt[2])) if lt[0] == "g" and lt[1] == i else lt
            for lt in u
        ]
    elif kind is w.Twist:
        out = u
    else:
        raise InvalidWord(f"unknown generator letter {letter!r}")
    return fp_reduce(manifold, out)


def act_pi1(manifold: PrimeDecomposition, word, u: FPWord) -> FPWord:
    """Fold the word's letters left-to-right over u."""
    if word.manifold != manifold:
        raise InvalidWord("word belongs to a different manifold")
    out = fp_reduce(manifold, u)
    for letter in word.letters:
        out = act_letter_pi1(manifold, letter, out)
    return out


# ---------------------------------------------------------------------------
# tabulated automorphisms


def _image_of(images: tuple, key):
    """The image of ``key`` in a table of (key, image) pairs: a scan of
    the few generators, so the first entry of a repeated key wins."""
    for known, image in images:
        if known == key:
            return image
    raise KeyError(key)


class AutTable(Value):
    """Images of every pi1 generator and every x_j under a word."""

    __slots__ = _fields = ("manifold", "images")  # images: (key, image word)

    def image_of(self, key) -> FPWord:
        return _image_of(self.images, key)


def aut_of_word(manifold: PrimeDecomposition, word) -> AutTable:
    images = []
    for key, gen_word in generator_words(manifold):
        images.append((key, act_pi1(manifold, word, gen_word)))
    return AutTable(manifold, tuple(images))


# ---------------------------------------------------------------------------
# abelianized action (independent oracle for act_pi1)
#
# H1(W) = (+)_i ab(G_i) (+) Z^l.  An element is (factors, handles) with
# ``factors`` a tuple of ab-oracle elements and ``handles`` an integer
# tuple.  The action is tabulated on the ab basis: keys ('g', i, ab_gen)
# and ('x', j).


def _ab_oracle(manifold: PrimeDecomposition, i: int):
    oracle, _ = manifold.type_of(i).pi1.abelianized()
    return oracle


def h1_zero(manifold: PrimeDecomposition):
    factors = tuple(
        _ab_oracle(manifold, i).identity for i in range(1, manifold.k + 1)
    )
    return (factors, (0,) * manifold.ell)


def h1_add(manifold: PrimeDecomposition, a, b):
    factors = tuple(
        _ab_oracle(manifold, i + 1).mul(x, y)
        for i, (x, y) in enumerate(zip(a[0], b[0]))
    )
    handles = tuple(x + y for x, y in zip(a[1], b[1]))
    return (factors, handles)


def h1_scale(manifold: PrimeDecomposition, n: int, a):
    factors = tuple(
        _ab_oracle(manifold, i + 1).power(x, n) for i, x in enumerate(a[0])
    )
    handles = tuple(n * x for x in a[1])
    return (factors, handles)


def h1_of_fpword(manifold: PrimeDecomposition, u: FPWord):
    """Project a pi1 word to H1."""
    factors = list(h1_zero(manifold)[0])
    handles = [0] * manifold.ell
    for lt in u:
        if lt[0] == "g":
            _, i, elem = lt
            pi1 = manifold.type_of(i).pi1
            ab_oracle = _ab_oracle(manifold, i)
            factors[i - 1] = ab_oracle.mul(factors[i - 1], pi1.ab_project(elem))
        else:
            _, j, sign = lt
            handles[j - 1] += sign
    return (tuple(factors), tuple(handles))


def ab_basis(manifold: PrimeDecomposition) -> list[tuple[tuple, object]]:
    """H1 basis keys with lifting data.

    Returns (key, lift) pairs: for ('g', i, name) the lift is a pi1 element
    whose projection is the ab generator; for ('x', j) the lift is None.
    """
    out = []
    for i in range(1, manifold.k + 1):
        pi1 = manifold.type_of(i).pi1
        ab_oracle, _ = pi1.abelianized()
        for name, _elem in ab_oracle.generators():
            # ab generator names coincide with pi1 element/generator names
            lift = pi1.generator(name) if name in pi1.gen_names() else None
            if lift is None:
                raise OracleError(
                    f"cannot lift abelianization generator {name!r} of factor {i}"
                )
            out.append(((("g", i, name)), lift))
    for j in range(1, manifold.ell + 1):
        out.append(((("x", j)), None))
    return out


def h1_basis_vector(manifold: PrimeDecomposition, key):
    factors = list(h1_zero(manifold)[0])
    handles = [0] * manifold.ell
    if key[0] == "g":
        _, i, name = key
        ab_oracle = _ab_oracle(manifold, i)
        factors[i - 1] = ab_oracle.generator(name)
    else:
        handles[key[1] - 1] = 1
    return (tuple(factors), tuple(handles))


class AbAction(Value):
    """Induced endomorphism of H1, tabulated on the ab basis."""

    __slots__ = _fields = ("manifold", "images")  # images: (key, H1 element)

    def image_of(self, key):
        return _image_of(self.images, key)

    def apply(self, elem):
        m = self.manifold
        out = h1_zero(m)
        for i, x in enumerate(elem[0], start=1):
            ab_oracle = _ab_oracle(m, i)
            for gen_name, sign in ab_oracle.express(x):
                out = h1_add(
                    m, out, h1_scale(m, sign, self.image_of(("g", i, gen_name)))
                )
        for j, n in enumerate(elem[1], start=1):
            if n:
                out = h1_add(m, out, h1_scale(m, n, self.image_of(("x", j))))
        return out

    def then(self, other: "AbAction") -> "AbAction":
        return AbAction(
            self.manifold,
            tuple((k, other.apply(img)) for k, img in self.images),
        )


def identity_ab_action(manifold: PrimeDecomposition) -> AbAction:
    images = [
        (key, h1_basis_vector(manifold, key)) for key, _ in ab_basis(manifold)
    ]
    return AbAction(manifold, tuple(images))


def _ab_action_of_letter(manifold: PrimeDecomposition, letter) -> AbAction:
    from . import words as w

    m = manifold
    images = {key: h1_basis_vector(m, key) for key, _ in ab_basis(m)}
    if isinstance(letter, (w.SlideIrr, w.SlideHandle, w.Twist)):
        pass  # conjugations and twists are homologically trivial
    elif isinstance(letter, w.SlideEnd):
        # x_j -> x_j * gamma (sign +) or gamma^-1 * x_j (sign -)
        j = letter.handle
        delta = h1_scale(m, letter.sign, h1_of_fpword(m, letter.path))
        images[("x", j)] = h1_add(m, images[("x", j)], delta)
    elif isinstance(letter, w.Spin):
        j = letter.handle
        images[("x", j)] = h1_scale(m, -1, images[("x", j)])
    elif isinstance(letter, w.SwapHandles):
        images[("x", letter.a)], images[("x", letter.b)] = (
            images[("x", letter.b)],
            images[("x", letter.a)],
        )
    elif isinstance(letter, w.SwapIrr):
        a, b = letter.a, letter.b
        ab_oracle = _ab_oracle(m, a)
        for name, _ in ab_oracle.generators():
            va = h1_basis_vector(m, ("g", b, name))
            vb = h1_basis_vector(m, ("g", a, name))
            images[("g", a, name)] = va
            images[("g", b, name)] = vb
    elif isinstance(letter, w.Aut):
        i = letter.summand
        pi1 = m.type_of(i).pi1
        table = m.type_of(i).pi1_table(letter.token)
        for key, lift in ab_basis(m):
            if key[0] == "g" and key[1] == i:
                image_elem = table.apply(lift)
                vec = h1_zero(m)
                factors = list(vec[0])
                factors[i - 1] = pi1.ab_project(image_elem)
                images[key] = (tuple(factors), vec[1])
    else:
        raise InvalidWord(f"unknown generator letter {letter!r}")
    return AbAction(m, tuple(sorted(images.items())))


def abelianized_action(manifold: PrimeDecomposition, word) -> AbAction:
    """The induced map on H1, computed directly from the letter formulas.

    This route never consults act_pi1, so it doubles as an independent
    oracle for the pi1 action.
    """
    if word.manifold != manifold:
        raise InvalidWord("word belongs to a different manifold")
    out = identity_ab_action(manifold)
    for letter in word.letters:
        out = out.then(_ab_action_of_letter(manifold, letter))
    return out


def abelianize_table(table: AutTable) -> AbAction:
    """Project a full pi1 automorphism table to H1 (route B)."""
    m = table.manifold
    known = dict(reversed(table.images))  # the first entry of a repeated key wins
    images = [(key, h1_of_fpword(m, known[key])) for key, _ in ab_basis(m)]
    return AbAction(m, tuple(sorted(images)))
