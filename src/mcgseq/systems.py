"""Action of words on laminar families and the slide normalization algorithm.

A label is a bit and a block an ``int`` mask (see ``model``).  Slides act
through crossing parity: read the slide path as a closed walk through the
chambers of the laminar forest, with a teleport between the two ends of a
handle for each x_j letter; the slid labels toggle their membership in
exactly the blocks the walk crosses an odd number of times.  The walk is
closed, so it crosses block b an odd number of times iff its teleports
change sides of b an odd number of times: a ``g`` letter goes to a summand
chamber and back, and an x_j teleport changes sides of b iff b holds
exactly one end of handle j.  Hence b toggles iff ``popcount(b & P)`` is
odd, where P is the union of the end pairs {e(j,+), e(j,-)} of the handles
whose x_j letters occur an odd number of times in the path, with no forest
and no walk.  The other letters relabel: spins swap e(j,+) and e(j,-)
everywhere, handle and summand interchanges swap label pairs, twists do
nothing.  So a block's image depends on its mask alone: each action keeps a
map from mask to image (``_Images``), filled by this rule when a mask first
meets it.  Laminarity is decided once per slot tuple.  In a replay
(``_act_masks``) each compiled letter keeps, on one manifold object, a
steps dict from each slot tuple it has acted on to its checked image, so
a slide's image of a tuple is checked the first time only; an image that
breaks laminarity is never stored, so that slide raises on every
application.  The search checks only the slide images it meets for the
first time.

``normalize_system`` inverts this action: a breadth-first search over the
finite reachable state space produces the lexicographically least shortest
word carrying the standard system (with its duplicate tokens) onto a given
symmetric family with a given allowable assignment.  A state is the tuple
of slot masks plus one spin bit per handle.  No move reads the bits, so the
search index (``_Index``) interns each reachable tuple of handle-slot masks
as an integer id, tries each distinct move action on it once, and keys each
state by the integer ``id << l | bits``; the summand slots never move and
are left out.  A query decides symmetry on the family's masks, with no
classification.  The search moves and swapIrr letters come from the
generator alphabet of ``words``, which validated them, so a certificate
is assembled from them without checking each letter again.  A query
decodes its assignment once, with ``model``'s codec, which
``trace_assignment`` also uses to encode its result.
"""

from __future__ import annotations

import functools
import logging

from .errors import (
    InvalidWord,
    NotAllowable,
    NotLaminarAfterSlide,
    NotSymmetric,
    Unreachable,
)
from . import words as w
from .model import (
    Assignment,
    Forest,
    LaminarFamily,
    PrimeDecomposition,
    ROOT,
    _assignment,
    _assignment_state,
    _is_symmetric,
    _symmetric_nonsep_masks,
    block_text,
    e_label,
    family_masks,
    is_laminar,
    label_text,
    mask_key,
    s_label,
    validate_laminar,
)
from .sequence import perm_transpositions
from .textio import word_letter_text

log = logging.getLogger("mcgseq.systems")


# ---------------------------------------------------------------------------
# letters on block masks


class _Images(dict):
    """The image of each block mask met so far (at most 2^|L|) under the
    ``_mask_action`` kept in ``action``; an image depends on the action
    alone, so letters with equal actions, on any manifold, share one map."""

    __slots__ = ("action",)

    def __init__(self, action: tuple):
        self.action = action

    def __missing__(self, mask: int) -> int:
        slid, parity, swaps = self.action
        image = mask ^ slid if (mask & parity).bit_count() & 1 else mask
        for a, b in swaps:
            if bool(image & a) != bool(image & b):
                image ^= a | b
        self[mask] = image
        return image


_images = functools.lru_cache(maxsize=None)(_Images)  # one map per action
_IDENTITY = _images((0, 0, ()))


def _compile_letter(manifold: PrimeDecomposition, letter) -> _Images:
    """The map of a letter's ``_mask_action`` (twists and auts: ``_IDENTITY``).

    A slide, spin or interchange keeps ``(manifold, map, steps)`` in its
    ``_compiled`` slot (this is the slot's one writer), and a later call on
    that same manifold object reads the map back.  ``steps``, empty here,
    is ``_act_masks``'s dict from each slot tuple to its checked image.
    """
    try:
        memo = letter._compiled
        if memo[0] is manifold:
            return memo[1]
    except AttributeError:  # not compiled yet, or a twist or aut
        if isinstance(letter, (w.Twist, w.Aut)):
            return _IDENTITY
    images = _images(_mask_action(manifold, letter))
    object.__setattr__(letter, "_compiled", (manifold, images, {}))
    return images


def _mask_action(manifold: PrimeDecomposition, letter) -> tuple:
    """A slide, spin or interchange's action on block masks as ``(slid,
    parity, swaps)``, the key of its ``_Images`` map.

    A slide toggles ``slid`` in each block b with ``popcount(b & parity)``
    odd and has no swaps; spins and interchanges swap the bit pairs in
    ``swaps``.
    """
    bits, pairs = manifold.label_bits, manifold.handle_masks
    if isinstance(letter, (w.SlideIrr, w.SlideEnd, w.SlideHandle)):
        if isinstance(letter, w.SlideIrr):
            slid = bits[s_label(letter.summand)]
        elif isinstance(letter, w.SlideEnd):
            slid = bits[e_label(letter.handle, letter.sign)]
        else:
            slid = pairs[letter.handle - 1]
        parity = 0
        for lt in letter.path:
            if lt[0] == "x":
                parity ^= pairs[lt[1] - 1]
        return slid, parity, ()
    if isinstance(letter, w.Spin):
        j = letter.handle
        return 0, 0, ((bits[e_label(j, 1)], bits[e_label(j, -1)]),)
    if isinstance(letter, w.SwapHandles):
        return 0, 0, tuple(
            (bits[e_label(letter.a, s)], bits[e_label(letter.b, s)]) for s in (1, -1)
        )
    if isinstance(letter, w.SwapIrr):
        return 0, 0, ((bits[s_label(letter.a)], bits[s_label(letter.b)]),)
    raise InvalidWord(f"unknown generator letter {letter!r}")


def _act_masks(manifold: PrimeDecomposition, letter, masks: tuple) -> tuple:
    """Apply one letter to a tuple of block masks, in order.

    The image of a tuple the letter met before on this manifold object is
    one lookup in its steps dict; a new slide image is checked for
    laminarity first, and only an image that passes is stored.
    """
    try:  # read here, not through _compile_letter: a repeated step makes no call
        held, images, steps = letter._compiled
    except AttributeError:  # not compiled yet, or a twist or aut
        held = None
    if held is not manifold:
        images = _compile_letter(manifold, letter)
        if images is _IDENTITY:
            return masks
        steps = letter._compiled[2]
    out = steps.get(masks)
    if out is None:
        out = tuple(map(images.__getitem__, masks))
        if images.action[0] and not is_laminar(out, manifold.full_mask):
            report = validate_laminar(manifold, map(manifold.block_of, out))
            raise NotLaminarAfterSlide(
                f"slide {word_letter_text(manifold, letter)} breaks laminarity: "
                + report.violations[0].message
            )
        steps[masks] = out
    return out


def act_letter_blocks(
    manifold: PrimeDecomposition, letter, blocks: tuple[frozenset, ...]
) -> tuple[frozenset, ...]:
    """Apply one generator letter to an ordered block tuple."""
    if isinstance(letter, (w.Twist, w.Aut)):
        return blocks
    masks = _act_masks(manifold, letter, tuple(map(manifold.mask_of, blocks)))
    return tuple(map(manifold.block_of, masks))


def act_system(
    manifold: PrimeDecomposition, word: w.Word, family: LaminarFamily
) -> LaminarFamily:
    """Fold the word's letters left-to-right over the family.

    On the standard system, whose blocks are the manifold's
    ``standard_blocks`` and whose masks are its ``standard_slots``, this is
    the word's ``_standard_fold``, with no ``family_masks``.
    """
    if word.manifold != manifold:
        raise InvalidWord("word belongs to a different manifold")
    if family.blocks == manifold.standard_blocks:
        masks = _standard_fold(manifold, word)[0]
    else:
        masks = family_masks(manifold, family.blocks)
        for letter in word.letters:
            masks = _act_masks(manifold, letter, masks)
    # mask_key sorts masks as block_key sorts their blocks: no re-sort
    return LaminarFamily(tuple(map(manifold.block_of, sorted(masks, key=mask_key))))


# ---------------------------------------------------------------------------
# duplicate tracking
#
# The standard duplicates ride the standard spheres: slot i (1..k) carries
# d(i); slot k+j carries d(j,+) on its 'in' side and d(j,-) on its 'out'
# side until spins exchange them.  Slides carry tokens along (no change),
# spins swap the two sides of their handle, and interchanges move tokens
# only through the relabeling of slot contents.  A word keeps this fold of
# the standard system in its ``_fold`` slot: ``_standard_fold``, its only
# writer, runs ``_fold_state`` once per word, and both replay checks
# (``act_system`` on the standard system and ``trace_assignment``) read it.
# ``_normalize`` never seeds it from its search key, so a replay always
# folds the certificate's letters rather than reading the search's claim.
# Those letters are the index's own moves and swapIrr letters, which
# ``_reachability`` compiled, so the fold compiles none of them; it applies
# each letter to the whole slot tuple, by its steps dict or, the first time,
# its map, and reads nothing of the index.


def _fold_state(manifold: PrimeDecomposition, letters):
    """Fold letters over (slot masks, spin bits); bits[j-1] flips on spin(j)."""
    slots = manifold.standard_slots
    bits = [False] * manifold.ell
    for letter in letters:
        if isinstance(letter, w.Spin):
            bits[letter.handle - 1] = not bits[letter.handle - 1]
        slots = _act_masks(manifold, letter, slots)
    return slots, tuple(bits)


def _standard_fold(manifold: PrimeDecomposition, word: w.Word):
    """``_fold_state`` of the word's letters, folded once per word and kept
    in its ``_fold`` slot; a fold that raises keeps nothing."""
    try:
        return word._fold
    except AttributeError:  # not folded yet
        pass
    fold = _fold_state(manifold, word.letters)
    w._set_fold(word, fold)
    return fold


def trace_assignment(manifold: PrimeDecomposition, word: w.Word) -> Assignment:
    """The duplicate correspondence induced by a word on the standard system:
    the slot blocks and spin bits of the word's ``_standard_fold``, encoded
    by ``model._assignment``."""
    if word.manifold != manifold:
        raise InvalidWord("word belongs to a different manifold")
    masks, bits = _standard_fold(manifold, word)
    if not _is_symmetric(manifold, masks):
        raise NotSymmetric(
            "word does not carry the standard system to a symmetric system"
        )
    blocks = tuple(map(manifold.block_of, masks))
    return _assignment(blocks[: manifold.k], blocks[manifold.k :], bits)


# ---------------------------------------------------------------------------
# normalization (Lemma-style slide factorization) via BFS


def _bfs_moves(manifold: PrimeDecomposition) -> list:
    """The slides of ``words.discrepant_alphabet`` whose path is one x
    letter, its spins and its handle swaps, in canonical (text) order."""
    moves = [
        lt
        for lt in w.discrepant_alphabet(manifold)
        if isinstance(lt, (w.Spin, w.SwapHandles))
        or isinstance(lt, w._SLIDES) and lt.path[0][0] == "x"
    ]
    moves.sort(key=lambda mv: word_letter_text(manifold, mv))
    return moves


class _Index:
    """The normalization BFS index; ``len`` is the number of states.

    ``moves`` holds the BFS moves in canonical order, ``swaps`` maps each
    pair (a, b), a < b, of summands of one type to the swapIrr letter that
    certificate prefixes use, and ``ids`` maps each reachable tuple of
    handle-slot masks to its id, in discovery order.  A
    state is the key ``id << l | bits``, where bit j-1 of ``bits`` is set
    when the duplicates of handle j are spun.  ``parent`` maps each key, in
    discovery order, to ``parent key * len(moves) + move number``; the
    start key 0 maps to -1.  The search rows, not kept, hold each distinct
    discoverable target once, under the first move reaching it, with no -1
    entries for rejected slides.
    """

    __slots__ = ("moves", "swaps", "ids", "parent")

    def __init__(self, moves: tuple, swaps: dict, ids: dict, parent: dict):
        self.moves, self.swaps, self.ids, self.parent = moves, swaps, ids, parent

    def __len__(self) -> int:
        return len(self.parent)


@functools.lru_cache(maxsize=None)
def _reachability(manifold: PrimeDecomposition) -> _Index:
    """BFS the full (slot masks, spin bits) state space from the standard state.

    First the slot tuples: each reachable tuple of handle-slot masks gets
    an id, and each distinct move action (compiled letter, spin flip) is
    tried on it once.  Its flat row holds each distinct target (target id
    shifted left by l with the spin bit flipped) once, under the first move
    number reaching it; a slide that breaks laminarity adds its number of
    moves to the tuple's reject count instead.  A tuple already given an id
    is laminar, so only a slide image met for the first time is checked,
    and one that fails is kept in a set and never checked again; the search
    leaves the letters' steps dicts empty.  Then a FIFO BFS over the keys
    ``id << l | bits`` follows the rows, moves in canonical text order, so
    the implied word for every state is the lexicographically least among
    the shortest.  A later move to a target already reached from the same
    key, or back to the key itself, never sets a parent, so the rows leave
    them out.
    """
    full, k, ell = manifold.full_mask, manifold.k, manifold.ell
    # alphabet letters, validated there and compiled once, here, so
    # certificates built from them need no check and replays compile nothing
    moves = tuple(_bfs_moves(manifold))
    swaps = {
        (lt.a, lt.b): lt
        for lt in w.nondiscrepant_alphabet(manifold)
        if type(lt) is w.SwapIrr
    }
    for letter in swaps.values():
        _compile_letter(manifold, letter)
    # crossing parity reads only the parity of a path's x letters, so
    # slides along x_j and x_j^-1 share an action
    groups = {}  # (mask action, spin flip) -> its move numbers
    for n, mv in enumerate(moves):
        flip = 1 << (mv.handle - 1) if isinstance(mv, w.Spin) else 0
        groups.setdefault((_compile_letter(manifold, mv).action, flip), []).append(n)
    actions = [(_images(action).__getitem__, action[0], flip, ns[0], len(ns))
               for (action, flip), ns in groups.items()]
    start = manifold.standard_slots[k:]
    ids = {start: 0}
    tuples = [start]  # the keys of ids, by id
    rows = []  # by id: target, move number, target, move number, ...
    rejects = []  # by id: moves whose slide breaks laminarity
    broken = set()  # the slide images met so far that are not laminar
    for slots in tuples:
        own = len(rows) << ell  # a move back to the key itself sets no parent
        row = {own: -1}  # target -> first move number
        rejected = 0
        for image, slid, flip, n, count in actions:
            nslots = tuple(map(image, slots))
            tid = ids.get(nslots)
            if tid is None:  # met for the first time, or broken
                if nslots in broken or slid and not is_laminar(nslots, full):
                    broken.add(nslots)
                    rejected += count
                    continue
                tid = ids[nslots] = len(tuples)
                tuples.append(nslots)
            row.setdefault(tid << ell | flip, n)
        del row[own]
        rows.append([x for entry in row.items() for x in entry])
        rejects.append(rejected)
    width = len(moves)
    parent = {0: -1}
    queue = [0]
    low = (1 << ell) - 1
    for key in queue:
        bits, link = key & low, key * width
        entries = iter(rows[key >> ell])
        for target, n in zip(entries, entries):
            nkey = target ^ bits
            if nkey not in parent:
                parent[nkey] = link + n
                queue.append(nkey)
    rejected = sum(rejects[key >> ell] for key in queue)
    log.info(
        "reachability index: %d states (%d slot tuples), %d edges, %d slides "
        "rejected as not laminar, from the standard system",
        len(parent),
        len(ids),
        len(parent) * width - rejected,
        rejected,
    )
    return _Index(moves, swaps, ids, parent)


def _held_steps(manifold: PrimeDecomposition) -> int:
    """How many checked slot-tuple images the letters of the manifold's
    search index hold in their steps dicts on this manifold object."""
    index = _reachability(manifold)
    return sum(
        len(letter._compiled[2])
        for letter in (*index.moves, *index.swaps.values())
        if letter._compiled[0] is manifold
    )


def normalize_system(
    manifold: PrimeDecomposition, family: LaminarFamily, assignment: Assignment
) -> w.Word:
    """A word of slides/spins/handle swaps (plus a swapIrr prefix when the
    assignment permutes summands) carrying the standard system onto the
    family with the given duplicate correspondence.

    Symmetry and the non-separating blocks with their masks are read off
    the family's masks (``model._symmetric_nonsep_masks``), with no
    classification, once per family object and manifold.
    """
    nonsep_masks = _symmetric_nonsep_masks(manifold, family)
    if nonsep_masks is None:
        raise NotSymmetric("normalization target must be a symmetric system")
    return _normalize(manifold, nonsep_masks, assignment)


def _normalize(
    manifold: PrimeDecomposition, nonsep_masks: dict, assignment: Assignment
) -> w.Word:
    """``normalize_system`` onto a symmetric family whose non-separating
    blocks are the keys of ``nonsep_masks``, each mapped to its mask.

    The assignment is decoded once, by ``model._assignment_state``: the
    summand permutation gives the swapIrr prefix, and the handle-slot masks
    and spin bits give the search key (discrepant moves never change the
    summand slots, so the search leaves them out).
    """
    state = _assignment_state(manifold, nonsep_masks, assignment)
    if state is None:
        raise NotAllowable("assignment is not allowable onto the target family")
    perm, slots, bits = state
    # swapIrr letters do not touch handle labels or spin bits, so the search
    # index from the plain standard state answers every query; a perm maps
    # each summand into its type, so the index holds each transposition
    index = _reachability(manifold)
    prefix = tuple(map(index.swaps.__getitem__, perm_transpositions(perm)))
    tid = index.ids.get(slots)
    key = None if tid is None else tid << manifold.ell | bits
    if key not in index.parent:
        raise Unreachable(
            "no slide/spin/swap word realizes the target family and "
            "assignment; model violation"
        )
    path = []
    link = index.parent[key]
    while link >= 0:
        key, n = divmod(link, len(index.moves))
        path.append(index.moves[n])
        link = index.parent[key]
    path.reverse()
    # the moves and swaps are alphabet letters, validated there
    return w.Word(manifold, prefix + tuple(path))


# ---------------------------------------------------------------------------
# DOT rendering


def family_dot(manifold: PrimeDecomposition, family: LaminarFamily, name="family"):
    """Graphviz digraph of the laminar forest, labels as leaves."""
    forest = Forest(manifold, family.blocks)
    lines = [f"digraph {name} {{"]
    lines.append('  root [shape=point, xlabel="root"];')
    for i, b in enumerate(family.blocks):
        lines.append(f'  b{i} [shape=box, label="{block_text(b)}"];')
    for lab in manifold.labels():
        lines.append(
            f'  lab_{label_text(lab).replace("+", "p").replace("-", "m")} '
            f'[shape=ellipse, label="{label_text(lab)}"];'
        )
    for i in range(len(family.blocks)):
        parent = forest.parent[i]
        src = "root" if parent == ROOT else f"b{parent}"
        lines.append(f"  {src} -> b{i};")
    for lab in manifold.labels():
        c = forest.chamber_of_label(lab)
        src = "root" if c == ROOT else f"b{c}"
        node = f'lab_{label_text(lab).replace("+", "p").replace("-", "m")}'
        lines.append(f"  {src} -> {node} [style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"
