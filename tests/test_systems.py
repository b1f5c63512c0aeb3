import functools
import hashlib
import importlib.util
import itertools
import logging
import os
import random
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import pytest

from mcgseq import build_manifold, fpgroup, model, sequence, systems, words as w
from mcgseq.errors import (
    InvalidFamily,
    InvalidWord,
    McgseqError,
    NotAllowable,
    NotLaminarAfterSlide,
    NotSymmetric,
    Unreachable,
)
from mcgseq.model import (
    ROOT,
    Assignment,
    Forest,
    LaminarFamily,
    classify_system,
    e_label,
    identity_assignment,
    s_label,
    standard_system,
    validate_laminar,
)
from mcgseq.oracles import type_permutations
from mcgseq.systems import act_system, normalize_system, trace_assignment
from mcgseq.textio import (
    assignment_text,
    family_text,
    parse_family,
    parse_word,
    word_letter_text,
    word_text,
)
from mcgseq.verify import (
    allowable_assignments,
    discrepant_alphabet,
    enumerate_symmetric,
    random_word,
)


def fam(text):
    return parse_family(text)


class TestActSystem:
    def test_spin_swaps_labels(self, k2l1):
        std = standard_system(k2l1)
        image = act_system(k2l1, parse_word(k2l1, "spin(1)"), std)
        assert image == fam("block {s1}\nblock {s2}\nblock {e1-}")

    def test_slide_hand_trace(self, k2l1):
        # the worked 4-label instance: s1 leaves {s1,e1+} (crossed once after
        # the teleport) but stays in {s1} (crossed twice)
        family = fam("block {s1}\nblock {s1,e1+}\nblock {s2}")
        word = parse_word(k2l1, "slideIrr(1; x1)")
        image = act_system(k2l1, word, family)
        assert image == standard_system(k2l1)

    def test_twist_identity(self, mstar):
        word = parse_word(mstar, "twist(assoc1)")
        for family, _nonsep in enumerate_symmetric(mstar)[0][:50]:
            assert act_system(mstar, word, family) == family

    def test_not_laminar_after_slide(self, mstar):
        family = fam("block {e1+}\nblock {e1+,e1-}")
        word = parse_word(mstar, "slideIrr(1; x1)")
        with pytest.raises(NotLaminarAfterSlide):
            act_system(mstar, word, family)

    def test_invalid_family_rejected(self, mstar):
        family = LaminarFamily.of(
            [{s_label(1), e_label(1, 1)}, {s_label(2), e_label(1, 1)}]
        )
        with pytest.raises(InvalidFamily):
            act_system(mstar, parse_word(mstar, "spin(1)"), family)

    def test_output_always_validates(self, mstar):
        rng = random.Random(41)
        families = [f for f, _ in enumerate_symmetric(mstar)[0]]
        for _ in range(250):
            word = random_word(mstar, rng, max_len=5, mixed=False)
            family = rng.choice(families)
            try:
                image = act_system(mstar, word, family)
            except NotLaminarAfterSlide:
                continue
            assert validate_laminar(mstar, image.blocks).ok

    def test_functoriality(self, mstar):
        rng = random.Random(43)
        families = [f for f, _ in enumerate_symmetric(mstar)[0]]
        checked = 0
        for _ in range(300):
            w1 = random_word(mstar, rng, max_len=3, mixed=False)
            w2 = random_word(mstar, rng, max_len=3, mixed=False)
            family = rng.choice(families)
            try:
                combined = act_system(mstar, w.compose(w1, w2), family)
                stepwise = act_system(
                    mstar, w2, act_system(mstar, w1, family)
                )
            except NotLaminarAfterSlide:
                continue
            checked += 1
            assert combined == stepwise
        assert checked > 150

    def test_symmetric_preserved(self, mstar):
        rng = random.Random(47)
        families = [f for f, _ in enumerate_symmetric(mstar)[0]]
        for _ in range(200):
            word = random_word(mstar, rng, max_len=4, mixed=False)
            family = rng.choice(families)
            try:
                image = act_system(mstar, word, family)
            except NotLaminarAfterSlide:
                continue
            assert classify_system(mstar, image).is_symmetric


def _outcome_of(manifold, word, family):
    try:
        return act_system(manifold, word, family)
    except NotLaminarAfterSlide:
        return "not-laminar"


def _parity_formula(manifold, blocks, letter):
    """Independent oracle: a block toggles iff sum over handles j of
    (x_j letters in the path) * (block holds exactly one of e(j,+/-)) is odd."""
    counts = {}
    for lt in letter.path:
        if lt[0] == "x":
            counts[lt[1]] = counts.get(lt[1], 0) + 1
    odd = set()
    for idx, b in enumerate(blocks):
        parity = 0
        for j, n in counts.items():
            one_end = len(b & {e_label(j, 1), e_label(j, -1)}) == 1
            parity += n * one_end
        if parity % 2:
            odd.add(idx)
    return odd


# ---------------------------------------------------------------------------
# chamber walks: the geometric reading of a slide, the reference that the
# closed-form crossing parity of systems._compile_letter is checked against


class WalkForest(Forest):
    def path_between(self, a: int, b: int) -> list[int]:
        """Block indices crossed walking from chamber a to chamber b."""

        def to_root(c: int) -> list[int]:
            out = []
            while c != ROOT:
                out.append(c)
                c = self.parent[c]
            return out

        pa, pb = to_root(a), to_root(b)
        sa, sb = set(pa), set(pb)
        crossings = [c for c in pa if c not in sb] + [c for c in pb if c not in sa]
        return crossings


@dataclass(frozen=True)
class ChamberWalk:
    """The chambers visited by a slide path and the per-block crossing counts."""

    chambers: tuple
    crossings: tuple[tuple[int, int], ...]  # (block index, count)

    def odd_blocks(self) -> frozenset:
        return frozenset(i for i, n in self.crossings if n % 2 == 1)


def walk_of_slide(manifold, blocks: tuple[frozenset, ...], letter) -> ChamberWalk:
    """Trace the slide path of a slide letter through the chamber forest."""
    forest = WalkForest(manifold, blocks)
    if isinstance(letter, w.SlideIrr):
        start = forest.chamber_of_label(s_label(letter.summand))
    elif isinstance(letter, w.SlideEnd):
        start = forest.chamber_of_label(e_label(letter.handle, letter.sign))
    elif isinstance(letter, w.SlideHandle):
        start = forest.chamber_of_label(e_label(letter.handle, 1))
    else:
        raise InvalidWord(f"{letter!r} is not a slide letter")
    counts: dict[int, int] = {}
    visited = [start]
    cur = start

    def move_to(target: int):
        nonlocal cur
        for b in forest.path_between(cur, target):
            counts[b] = counts.get(b, 0) + 1
        cur = target
        visited.append(target)

    for lt in letter.path:
        if lt[0] == "g":
            # walk to the summand chamber and back: even crossings on the way
            there = forest.chamber_of_label(s_label(lt[1]))
            back = cur
            move_to(there)
            move_to(back)
        else:
            _, j, sign = lt
            move_to(forest.chamber_of_label(e_label(j, sign)))
            # teleport through the handle
            cur = forest.chamber_of_label(e_label(j, -sign))
            visited.append(cur)
    move_to(start)
    return ChamberWalk(tuple(visited), tuple(sorted(counts.items())))


class TestChamberWalk:
    def test_walk_matches_parity_formula(self, mstar):
        rng = random.Random(53)
        families = [f for f, _ in enumerate_symmetric(mstar)[0]]
        checked = 0
        for _ in range(300):
            word = random_word(mstar, rng, max_len=1, mixed=False)
            if not word.letters or not isinstance(
                word.letters[0], (w.SlideIrr, w.SlideEnd, w.SlideHandle)
            ):
                continue
            letter = word.letters[0]
            family = rng.choice(families)
            walk = walk_of_slide(mstar, family.blocks, letter)
            assert walk.odd_blocks() == _parity_formula(
                mstar, family.blocks, letter
            )
            checked += 1
        assert checked > 50

    def test_factor_letters_invisible(self, mstar):
        rng = random.Random(59)
        std = standard_system(mstar)
        base = parse_word(mstar, "slideIrr(1; x1)")
        padded = parse_word(mstar, "slideIrr(1; g1@2 x1 g1@2)")
        assert act_system(mstar, base, std) != std  # the slide is non-trivial
        assert act_system(mstar, base, std) == act_system(mstar, padded, std)
        for _ in range(100):
            family = rng.choice([f for f, _ in enumerate_symmetric(mstar)[0]])
            assert _outcome_of(mstar, base, family) == _outcome_of(
                mstar, padded, family
            )

    def test_walk_starts_and_ends_at_slid_chamber(self, mstar):
        family = fam("block {s1}\nblock {s1,e1+}\nblock {s2}\nblock {e2+}")
        letter = parse_word(mstar, "slideIrr(1; x1)").letters[0]
        walk = walk_of_slide(mstar, family.blocks, letter)
        assert walk.chambers[0] == walk.chambers[-1]


SLIDES = (w.SlideIrr, w.SlideEnd, w.SlideHandle)


def _ladder(k, ell):
    lines = ["type A pi1=Z/2 mcg=table[1,tau;1,tau|tau,1] act=tau:g1"]
    lines += [f"summand {i} A" for i in range(1, k + 1)]
    return build_manifold("\n".join(lines + [f"handles {ell}"]) + "\n")


def _reference_laminar(blocks):
    return all(blocks) and all(
        not (a & b) or a <= b or b <= a for a, b in itertools.combinations(blocks, 2)
    )


def _reference_act(manifold, letter, blocks):
    """One letter on a frozenset block tuple, slides by walk_of_slide
    parity; None when the slide breaks laminarity."""
    if isinstance(letter, SLIDES):
        if isinstance(letter, w.SlideIrr):
            slid = {s_label(letter.summand)}
        elif isinstance(letter, w.SlideEnd):
            slid = {e_label(letter.handle, letter.sign)}
        else:
            slid = {e_label(letter.handle, 1), e_label(letter.handle, -1)}
        odd = walk_of_slide(manifold, blocks, letter).odd_blocks()
        out = tuple(b ^ slid if i in odd else b for i, b in enumerate(blocks))
        return out if _reference_laminar(out) else None
    if isinstance(letter, w.Spin):
        pairs = [(e_label(letter.handle, 1), e_label(letter.handle, -1))]
    elif isinstance(letter, w.SwapHandles):
        pairs = [(e_label(letter.a, s), e_label(letter.b, s)) for s in (1, -1)]
    elif isinstance(letter, w.SwapIrr):
        pairs = [(s_label(letter.a), s_label(letter.b))]
    else:
        return blocks
    swap = {}
    for a, b in pairs:
        swap[a], swap[b] = b, a
    return tuple(frozenset(swap.get(lab, lab) for lab in b) for b in blocks)


def _reference_reachability(manifold):
    """Frozenset BFS over the same moves in the same order."""
    start = (
        tuple(frozenset({s_label(i)}) for i in range(1, manifold.k + 1))
        + tuple(frozenset({e_label(j, 1)}) for j in range(1, manifold.ell + 1)),
        (False,) * manifold.ell,
    )
    seen = {start: (None, None)}
    queue = deque([start])
    moves = systems._bfs_moves(manifold)
    while queue:
        state = queue.popleft()
        slots, bits = state
        for mv in moves:
            nslots = _reference_act(manifold, mv, slots)
            if nslots is None:
                continue
            nbits = list(bits)
            if isinstance(mv, w.Spin):
                nbits[mv.handle - 1] = not nbits[mv.handle - 1]
            nstate = (nslots, tuple(nbits))
            if nstate not in seen:
                seen[nstate] = (state, mv)
                queue.append(nstate)
    return seen


def _decode_index(manifold, index):
    """The interned index as state -> (parent state, move letter), states
    as (slot masks, spin bits) tuples, in discovery order."""
    summands = manifold.standard_slots[: manifold.k]
    tuples = list(index.ids)
    ell = manifold.ell

    def state(key):
        bits = tuple(bool(key >> j & 1) for j in range(ell))
        return (summands + tuples[key >> ell], bits)

    decoded = {}
    for key, link in index.parent.items():
        if link < 0:
            decoded[state(key)] = (None, None)
        else:
            parent, n = divmod(link, len(index.moves))
            decoded[state(key)] = (state(parent), index.moves[n])
    return decoded


def _random_laminar_blocks(manifold, rng):
    """A random laminar block tuple, in random order, often with parallel copies."""
    labels = manifold.labels()
    blocks = []
    for _ in range(rng.randint(1, 7)):
        if blocks and rng.random() < 0.25:
            blocks.append(rng.choice(blocks))
            continue
        b = frozenset(rng.sample(labels, rng.randint(1, len(labels) - 1)))
        if _reference_laminar(blocks + [b]):
            blocks.append(b)
    rng.shuffle(blocks)
    return tuple(blocks)


def _random_path(manifold, rng, avoid):
    letters = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.3 and manifold.k:
            i = rng.randint(1, manifold.k)
            _, elem = rng.choice(manifold.type_of(i).pi1.generators())
            letters.append(("g", i, elem))
        else:
            j = rng.randint(1, manifold.ell)
            letters.append(("x", j, rng.choice((1, -1))))
    letters = [lt for lt in letters if lt[:2] != avoid]
    return fpgroup.fp_reduce(manifold, tuple(letters))


def _random_move(manifold, rng):
    kind = rng.choice(["irr", "end", "handle", "spin", "swapHandles", "swapIrr"])
    i = rng.randint(1, manifold.k)
    j = rng.randint(1, manifold.ell)
    if kind == "irr":
        return w.SlideIrr(i, _random_path(manifold, rng, ("g", i)))
    if kind == "end":
        return w.SlideEnd(j, rng.choice((1, -1)), _random_path(manifold, rng, ("x", j)))
    if kind == "handle":
        return w.SlideHandle(j, _random_path(manifold, rng, ("x", j)))
    if kind == "spin":
        return w.Spin(j)
    if kind == "swapHandles":
        return w.SwapHandles(1, 2)
    return w.SwapIrr(1, 2)


class TestBitsetCore:
    """The mask action and BFS against frozenset references built on
    walk_of_slide."""

    def test_bfs_matches_reference(self):
        # the decoded index equals the frozenset BFS state for state, parent
        # for parent and move for move
        for k in range(4):
            manifold = _ladder(k, 2)
            index = _decode_index(manifold, systems._reachability(manifold))

            def blocks(state):
                if state is None:
                    return None
                masks, bits = state
                return (tuple(map(manifold.block_of, masks)), bits)

            converted = [(blocks(s), (blocks(p), mv)) for s, (p, mv) in index.items()]
            assert converted == list(_reference_reachability(manifold).items()), k

    @pytest.mark.parametrize("k, states", [(1, 864), (2, 2592), (3, 7776)])
    def test_state_counts(self, k, states):
        assert len(systems._reachability(_ladder(k, 2))) == states

    def test_slot_tuples_at_three_handles(self):
        index = systems._reachability(_ladder(0, 3))
        assert len(index) == 98_304
        assert len(index.ids) == 12_288

    def test_logs_counts(self, mstar, caplog):
        # the uncached search, so the line is logged whatever ran before
        with caplog.at_level(logging.INFO, logger="mcgseq.systems"):
            systems._reachability.__wrapped__(mstar)
        assert (
            "reachability index: 2592 states (648 slot tuples), 38112 edges, "
            "21504 slides rejected as not laminar, from the standard system"
        ) in caplog.text

    def test_checks_each_slide_image_once(self, mstar, monkeypatch):
        # a tuple with an id is laminar, and a broken one is remembered: the
        # search checks each distinct slide image at most once
        checked = []
        body = systems.is_laminar

        def counting(masks, full):
            checked.append(masks)
            return body(masks, full)

        monkeypatch.setattr(systems, "is_laminar", counting)
        index = systems._reachability.__wrapped__(mstar)
        assert len(checked) == len(set(checked)) == 1006
        slides = [systems._compile_letter(mstar, mv) for mv in index.moves if isinstance(mv, SLIDES)]
        images = {tuple(map(mp.__getitem__, slots)) for slots in index.ids for mp in slides}
        assert set(checked) <= images
        assert all(not letter._compiled[2] for letter in index.moves)

    def test_logs_counts_with_repeated_actions(self, caplog):
        # (3,2) has many slideIrr moves per action: the edge and reject
        # counts still count every move
        with caplog.at_level(logging.INFO, logger="mcgseq.systems"):
            systems._reachability.__wrapped__(_ladder(3, 2))
        assert (
            "reachability index: 7776 states (1944 slot tuples), 128928 edges, "
            "81024 slides rejected as not laminar, from the standard system"
        ) in caplog.text

    @pytest.mark.parametrize(
        "k, ell, digest",
        [(0, 3, "9820a0c9da97963f"), (2, 2, "753eee7150004b60"), (3, 2, "e9bb50dd47c4cff0")],
    )
    def test_index_digest(self, k, ell, digest):
        # moves, slot tuple ids and parent links, byte for byte
        manifold = _ladder(k, ell)
        index = systems._reachability(manifold)
        text = repr((
            [word_letter_text(manifold, mv) for mv in index.moves],
            list(index.ids),
            list(index.parent.items()),
        ))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_letter_fold_matches_walk_parity(self, mstar):
        rng = random.Random(67)
        agreed = rejected = slides = 0
        for _ in range(1500):
            blocks = _random_laminar_blocks(mstar, rng)
            word = [_random_move(mstar, rng) for _ in range(rng.randint(1, 4))]
            slides += sum(isinstance(lt, SLIDES) for lt in word)
            expected = blocks
            for letter in word:
                expected = _reference_act(mstar, letter, expected)
                if expected is None:
                    break
            got = blocks
            try:
                for letter in word:
                    got = systems.act_letter_blocks(mstar, letter, got)
            except NotLaminarAfterSlide:
                got = None
            assert got == expected, (blocks, word)
            if got is None:
                rejected += 1
            else:
                agreed += 1
        assert agreed > 500 and rejected > 100 and slides > 1500


def _reference_enumerate_symmetric(manifold):
    """Every (k+l)-combination of blocks, filtered pairwise on frozensets and
    classified in full: the exhaustive census the backtracking search must
    reproduce, order included."""
    labels = manifold.labels()
    blocks = [
        frozenset(combo)
        for r in range(1, len(labels))
        for combo in itertools.combinations(labels, r)
    ]

    def compat(a, b):
        return a <= b or b <= a or not (a & b)

    laminar_count = 0
    out = []
    for combo in itertools.combinations(blocks, manifold.k + manifold.ell):
        if all(compat(a, b) for a, b in itertools.combinations(combo, 2)):
            laminar_count += 1
            family = LaminarFamily.of(combo)
            cls = classify_system(manifold, family)
            if cls.is_symmetric:
                out.append((family, cls.nonsep_blocks))
    return tuple(out), laminar_count


def _reference_allowable_assignments(manifold, nonsep_blocks):
    """Each allowable assignment as a dict sorted by ``Assignment.of``: the
    enumerator's body before it joined shared parts, kept as its reference."""
    for perm in type_permutations(manifold.type_classes):
        summands = {("d", i): (frozenset({s_label(p)}), None) for i, p in perm.items()}
        for block_order in itertools.permutations(nonsep_blocks):
            for sides in itertools.product(("in", "out"), repeat=manifold.ell):
                mapping = dict(summands)
                for j, (block, side) in enumerate(zip(block_order, sides), 1):
                    mapping[("d", j, 1)] = (block, side)
                    mapping[("d", j, -1)] = (block, "out" if side == "in" else "in")
                yield Assignment.of(mapping)


# the census manifolds given by text: k = 0, and k = 1, at three handles
CENSUS_TEXTS = {
    "handles 3": "handles 3\n",
    "one summand, handles 3": "type A pi1=Z/2 mcg=Z/1\nsummand 1 A\nhandles 3\n",
}


def _census_digest(manifold, every=1):
    """SHA-256 (16 hex digits) of the laminar count and, per symmetric
    family in order, its text, its non-separating blocks and the text of each
    of its allowable assignments, in order; with ``every`` > 1 the
    assignments of only every ``every``-th family are hashed."""
    families, count = enumerate_symmetric(manifold)
    digest = hashlib.sha256(f"{count}\n".encode())
    for n, (family, nonsep) in enumerate(families):
        digest.update(family_text(family).encode())
        digest.update((" ".join(map(model.block_text, nonsep)) + "\n").encode())
        if n % every == 0:
            for assignment in allowable_assignments(manifold, nonsep):
                digest.update(assignment_text(assignment).encode())
    return digest.hexdigest()[:16]


ROOT_DIR = Path(__file__).resolve().parent.parent


class TestEnumerateSymmetric:
    @pytest.mark.parametrize(
        "name, laminar, symmetric",
        [
            ("mstar", 16990, 324),
            ("k2l1", 124, 8),
            ("mixed_types", 1830, 16),
            ("handles 3", 5060, 2048),
        ],
    )
    def test_matches_exhaustive_reference(self, request, name, laminar, symmetric):
        if name.startswith("handles"):
            manifold = build_manifold(name + "\n")
        else:
            manifold = request.getfixturevalue(name)
        families, count = enumerate_symmetric(manifold)
        assert (count, len(families)) == (laminar, symmetric)
        assert (families, count) == _reference_enumerate_symmetric(manifold)

    @pytest.mark.parametrize(
        "name, every, digest",
        [
            ("mstar", 1, "a5227266e0cf25ba"),
            ("k2l1", 1, "e76a00f9f26bc5f0"),
            ("mixed_types", 1, "7f6e3659ef8e60b2"),
            ("free_mcg", 1, "492e981c982a91f8"),
            ("handles 3", 1, "fe1c806c2d68e916"),
            # 393,216 assignment texts take seconds: one family in 16
            ("one summand, handles 3", 16, "c07fab21543433b7"),
        ],
    )
    def test_census_digest(self, request, name, every, digest):
        # families, non-separating blocks, assignments and the laminar count,
        # byte for byte and in order, as the search that visited every
        # laminar set gave them
        if name in CENSUS_TEXTS:
            manifold = build_manifold(CENSUS_TEXTS[name])
        else:
            manifold = request.getfixturevalue(name)
        assert _census_digest(manifold, every) == digest

    @pytest.mark.parametrize(
        "named_manifold",
        ["mstar", "k2l1", "mixed_types", "free_mcg", "handles 0"],
        indirect=True,
    )
    def test_assignments_match_reference(self, named_manifold):
        m = named_manifold
        for _family, nonsep in enumerate_symmetric(m)[0]:
            got = list(allowable_assignments(m, nonsep))
            assert got == list(_reference_allowable_assignments(m, nonsep))

    def test_mask_decision_ignores_block_order(self, mstar):
        """trace_assignment decides on its slot masks, unsorted and possibly
        parallel; the decision must be classify_system's."""
        rng = random.Random(71)
        cases = [family.blocks for family, _ in enumerate_symmetric(mstar)[0]]
        cases += [_random_laminar_blocks(mstar, rng) for _ in range(2000)]
        for blocks in cases:
            masks = [mstar.mask_of(b) for b in blocks]
            rng.shuffle(masks)
            expected = classify_system(mstar, LaminarFamily.of(blocks)).is_symmetric
            assert model._is_symmetric(mstar, tuple(masks)) == expected, blocks

    def test_logs_counts(self, k2l1, caplog):
        with caplog.at_level(logging.INFO, logger="mcgseq.verify"):
            enumerate_symmetric.__wrapped__(k2l1)
        assert "124 laminar candidates with 3 blocks, 8 symmetric families" in (
            caplog.text
        )

    def test_logs_sets_tested(self, mstar, caplog):
        # only the laminar pairs of non-separating blocks under the
        # singletons reach the symmetry test, not all 16,990 laminar sets
        with caplog.at_level(logging.INFO, logger="mcgseq.verify"):
            enumerate_symmetric.__wrapped__(mstar)
        assert (
            "16990 laminar candidates with 4 blocks, 324 symmetric families; "
            "492 block sets tested under the singletons"
        ) in caplog.text

    def test_census_script(self):
        mstar_file = str(ROOT_DIR / "fixtures" / "mstar.txt")
        proc = _run_script("enumerate_symmetric.py", "--manifold", mstar_file)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "laminar candidates with 4 blocks: 16990" in lines
        assert any(ln.startswith("symmetric systems: 324 ") for ln in lines)
        assert any(
            ln.startswith("BFS states reachable from the standard system: 2592 ")
            for ln in lines
        )
        assert any(ln.startswith("allowable assignments: 5184 total ") for ln in lines)

    def test_census_script_lengths_on_one_handle(self, tmp_path, capsys):
        # with l = 1 the mirror half of the assignments is unreachable: the
        # script counts those cases instead of stopping with a traceback
        from conftest import K2L1_TEXT

        spec = importlib.util.spec_from_file_location(
            "enumerate_symmetric", ROOT_DIR / "scripts" / "enumerate_symmetric.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        manifold_file = tmp_path / "k2l1.txt"
        manifold_file.write_text(K2L1_TEXT)
        assert script.main(["--manifold", str(manifold_file), "--lengths"]) == 0
        lines = capsys.readouterr().out.splitlines()

        def line_at(prefix):
            return next(i for i, ln in enumerate(lines) if ln.startswith(prefix))

        total = int(lines[line_at("allowable assignments: ")].split()[2])
        start, end = line_at("certificate lengths"), line_at("unreachable: ")
        reached = sum(int(ln.split(":")[1]) for ln in lines[start + 1 : end])
        missed = int(lines[end].split(": ")[1])
        assert end == len(lines) - 1
        assert 0 < missed < total
        assert reached + missed == total

    def test_suites_script_quick(self):
        proc = _run_script("run_suites.py", "--quick")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [ln.split()[:2] for ln in lines] == [
            ["PASS", name]
            for name in (
                "exactness",
                "normalization",
                "pi1",
                "relations",
                "spotted",
                "roundtrip",
            )
        ]

    def test_demo_script(self):
        proc = _run_script("demo_normalize.py")
        assert proc.returncode == 0, proc.stderr
        assert (
            "replay lands on the target family with the requested assignment"
            in proc.stdout.splitlines()
        )


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT_DIR / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT_DIR / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestTrace:
    def test_identity(self, mstar):
        assert trace_assignment(mstar, w.empty_word(mstar)) == identity_assignment(
            mstar
        )

    def test_spin_swaps_pair(self, mstar):
        trace = trace_assignment(mstar, parse_word(mstar, "spin(1)"))
        block = frozenset({e_label(1, -1)})
        assert trace.target_of(("d", 1, 1)) == (block, "out")
        assert trace.target_of(("d", 1, -1)) == (block, "in")
        assert trace.target_of(("d", 2, 1)) == (frozenset({e_label(2, 1)}), "in")

    def test_swap_handles_exchanges_tokens(self, mstar):
        trace = trace_assignment(mstar, parse_word(mstar, "swapHandles(1,2)"))
        ident = identity_assignment(mstar)
        # d(1,±) now sit where d(2,±) sat, and vice versa
        assert trace.target_of(("d", 1, 1)) == ident.target_of(("d", 2, 1))
        assert trace.target_of(("d", 2, -1)) == ident.target_of(("d", 1, -1))

    def test_swap_irr_exchanges_summands(self, mstar):
        trace = trace_assignment(mstar, parse_word(mstar, "swapIrr(1,2)"))
        assert trace.target_of(("d", 1)) == (frozenset({s_label(2)}), None)
        assert trace.target_of(("d", 2)) == (frozenset({s_label(1)}), None)


def _symmetric_walk(manifold, rng, steps):
    """A word of BFS moves, plus a swapIrr letter on summands 1 and 2 when
    they are homeomorphic, that keeps the standard system laminar."""
    moves = list(systems._bfs_moves(manifold))
    if manifold.k >= 2 and manifold.type_of(1) == manifold.type_of(2):
        moves.append(w.SwapIrr(1, 2))
    family, letters = standard_system(manifold), []
    while moves and len(letters) < steps:
        move = rng.choice(moves)
        try:
            family = act_system(manifold, w.Word(manifold, (move,)), family)
        except NotLaminarAfterSlide:
            continue
        letters.append(move)
    return w.Word.of(manifold, tuple(letters))


def _fold_outcome(function, *args):
    """A replay's result, or its error type and message."""
    try:
        return function(*args)
    except McgseqError as exc:
        return type(exc), str(exc)


# k = 0, and l = 0 with two summands
EXTRA_TEXTS = {
    "handles 2": "handles 2\n",
    "handles 0": "type A pi1=Z/2 mcg=Z/1\nsummand 1 A\nsummand 2 A\nhandles 0\n",
}


@pytest.fixture
def named_manifold(request):
    texts = {**EXTRA_TEXTS, **CENSUS_TEXTS}
    if request.param in texts:
        return build_manifold(texts[request.param])
    return request.getfixturevalue(request.param)


# every conftest manifold, k = 0 and l = 0
STANDARD_SHORTCUT_CASES = ["mstar", "k2l1", "mixed_types", "s3_sign", "free_mcg", *EXTRA_TEXTS]


class TestStandardFoldMemo:
    """A word keeps its fold of the standard system (``_standard_fold``),
    and both replay checks read it."""

    # acts on pi1 as "slideEnd(1,+; x2) slideHandle(2; x1)" does, yet breaks
    # laminarity on the standard system
    BREAKS = "slideHandle(2; x1) slideEnd(1,-; x2^-1)"

    def test_certificate_has_no_fold_until_replayed(self, mstar):
        family = fam("block {s1}\nblock {s2}\nblock {s1,e1+}\nblock {e2-}")
        target = trace_assignment(mstar, parse_word(mstar, "slideIrr(1; x1) spin(2)"))
        word = normalize_system(mstar, family, target)
        assert word.letters and not hasattr(word, "_fold")
        assert act_system(mstar, word, standard_system(mstar)) == family
        assert word._fold == systems._fold_state(mstar, word.letters)
        fold = word._fold
        assert trace_assignment(mstar, word) == target
        assert word._fold is fold
        again = normalize_system(mstar, family, target)
        assert again == word and not hasattr(again, "_fold")

    def test_a_fold_that_raises_stores_nothing(self, mstar):
        word = parse_word(mstar, self.BREAKS)
        std = standard_system(mstar)
        with pytest.raises(NotLaminarAfterSlide) as first:
            act_system(mstar, word, std)
        assert not hasattr(word, "_fold")
        for replay in (
            lambda: act_system(mstar, word, std),
            lambda: trace_assignment(mstar, word),
        ):
            with pytest.raises(NotLaminarAfterSlide) as again:
                replay()
            assert str(again.value) == str(first.value)
            assert not hasattr(word, "_fold")

    @pytest.mark.parametrize(
        "named_manifold",
        ["mstar", "k2l1", "mixed_types", "free_mcg", "handles 2"],
        indirect=True,
    )
    def test_warm_memo_matches_a_fresh_fold(self, named_manifold):
        m, rng = named_manifold, random.Random(16)
        std = standard_system(m)
        words = [_symmetric_walk(m, rng, rng.randint(0, 8)) for _ in range(25)]
        words += [random_word(m, rng, max_len=6) for _ in range(25)]
        laminar = 0
        for word in words:
            # fill the memo, then replay against a fresh word of the same letters
            _fold_outcome(trace_assignment, m, word)
            for check in (act_system, trace_assignment):
                args = (m, word, std) if check is act_system else (m, word)
                fresh = (m, w.Word(m, word.letters)) + args[2:]
                assert _fold_outcome(check, *args) == _fold_outcome(check, *fresh)
            # the shortcut equals the letter-by-letter fold on blocks
            blocks = std.blocks
            try:
                for letter in word.letters:
                    blocks = systems.act_letter_blocks(m, letter, blocks)
            except NotLaminarAfterSlide:
                assert not hasattr(word, "_fold")
                continue
            laminar += 1
            assert act_system(m, word, std) == LaminarFamily.of(blocks)
        assert laminar >= 25

    @pytest.mark.parametrize(
        "named_manifold",
        ["mstar", "k2l1", "mixed_types", "s3_sign", "free_mcg", *EXTRA_TEXTS],
        indirect=True,
    )
    def test_standard_family_masks_are_the_standard_slots(self, named_manifold):
        m = named_manifold
        masks = model.family_masks(m, standard_system(m).blocks)
        assert masks == m.standard_slots
        assert m.standard_slots is m.standard_slots

    @pytest.mark.parametrize("named_manifold", STANDARD_SHORTCUT_CASES, indirect=True)
    def test_standard_shortcut_matches_the_letter_fold(self, named_manifold, monkeypatch):
        """``act_system`` on the standard family reads the word's fold and
        never calls ``family_masks``; its result, or its error, is the
        letter-by-letter ``act_letter_blocks`` fold's."""
        m, rng = named_manifold, random.Random(19)
        std = standard_system(m)
        words = [_symmetric_walk(m, rng, rng.randint(0, 8)) for _ in range(40)]
        words += [random_word(m, rng, max_len=6) for _ in range(40)]
        expected = []
        for word in words:
            blocks = std.blocks
            try:
                for letter in word.letters:
                    blocks = systems.act_letter_blocks(m, letter, blocks)
                expected.append(LaminarFamily.of(blocks))
            except NotLaminarAfterSlide as exc:
                expected.append((NotLaminarAfterSlide, str(exc)))

        def refuse(*args):
            raise AssertionError("act_system took the other path")

        monkeypatch.setattr(systems, "family_masks", refuse)
        got = [_fold_outcome(act_system, m, w.Word(m, word.letters), std) for word in words]
        assert got == expected
        assert sum(isinstance(e, LaminarFamily) for e in expected) >= 40
        # the same blocks in another order are not the standard family
        if m.k and m.ell:
            monkeypatch.undo()
            shuffled = LaminarFamily(std.blocks[::-1])
            with monkeypatch.context() as patch:
                patch.setattr(systems, "_standard_fold", refuse)
                assert act_system(m, w.empty_word(m), shuffled) == std

    def test_standard_fold_is_the_only_writer(self):
        import inspect

        src = Path(systems.__file__).parent
        calls = {
            path.name: path.read_text(encoding="utf-8").count("_set_fold(")
            for path in src.glob("*.py")
        }
        assert {name: n for name, n in calls.items() if n} == {"systems.py": 1}
        assert "_set_fold(" in inspect.getsource(systems._standard_fold)
        for search in (systems._normalize, systems._reachability.__wrapped__):
            assert "_fold" not in inspect.getsource(search).replace("_fold_state", "")


class TestDerivedMemos:
    """A slide, spin or interchange keeps its mask action
    (``_compile_letter``), and a family its non-separating masks
    (``model._symmetric_nonsep_masks``), each with the manifold object it
    was derived on; a call on any other manifold object derives it again."""

    @staticmethod
    def _fresh(letter):
        return type(letter)(*[getattr(letter, name) for name in letter._fields])

    def test_letter_memo_follows_the_manifold(self, mstar):
        twin = build_manifold((ROOT_DIR / "fixtures" / "mstar.txt").read_text(encoding="utf-8"))
        three = build_manifold("handles 3\n")
        mixed = build_manifold(
            "type A pi1=Z/2 mcg=Z/1\nsummand 1 A\nsummand 2 A\nsummand 3 A\nhandles 2\n"
        )
        assert twin == mstar and twin is not mstar
        handle_letters = [
            w.SlideEnd(1, 1, (("x", 2, 1),)),
            w.SlideEnd(2, -1, (("x", 1, -1),)),
            w.SlideHandle(2, (("x", 1, 1),)),
            w.Spin(2),
            w.SwapHandles(1, 2),
        ]
        summand_letters = [w.SlideIrr(1, (("x", 2, -1),)), w.SwapIrr(1, 2)]
        differ = 0
        for letters, others in ((handle_letters, three), (summand_letters, mixed)):
            for letter in letters:
                actions = []
                for m in (mstar, others, twin, mstar):
                    images = systems._compile_letter(m, letter)
                    assert images is systems._compile_letter(m, self._fresh(letter))
                    assert letter._compiled[0] is m and letter._compiled[1] is images
                    actions.append(images.action)
                assert actions[0] == actions[2] == actions[3]
                differ += actions[0] != actions[1]
        # all but swapIrr(1,2): s1 and s2 are bits 0 and 1 on any manifold
        assert differ == 6
        for letter in (w.Twist(("assoc", 1)), w.Aut(1, "tau")):
            assert systems._compile_letter(mstar, letter) is systems._IDENTITY
            assert systems._IDENTITY.action == (0, 0, ())
            assert not hasattr(letter, "_compiled")

    def test_family_memo_on_two_parses(self, mstar):
        twin = build_manifold((ROOT_DIR / "fixtures" / "mstar.txt").read_text(encoding="utf-8"))
        assert twin == mstar and twin is not mstar
        families = enumerate_symmetric(mstar)[0]
        checked = 0
        for family, nonsep in families[::40]:
            family = LaminarFamily(family.blocks)  # a family object of this test only
            for assignment in list(allowable_assignments(mstar, nonsep))[::5]:
                words = [
                    normalize_system(m, family, assignment) for m in (mstar, twin, mstar, twin)
                ]
                assert family._nonsep[0] is twin
                expected = normalize_system(mstar, LaminarFamily(family.blocks), assignment)
                assert {(wd.letters, word_text(wd)) for wd in words} == {
                    (expected.letters, word_text(expected))
                }
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize(
        "text",
        [
            "block {s1,e1+}\nblock {s1,e2+}",
            "block {s1}\nblock {e3+}",
            "block {s1}\nblock {s1,s2,e1+,e1-,e2+,e2-}",
        ],
        ids=["overlap", "outside-L", "all-of-L"],
    )
    def test_a_family_that_is_not_laminar_raises_every_time(self, mstar, text):
        family = fam(text)
        messages = []
        for call in (normalize_system, model.allowable) * 2:
            with pytest.raises(InvalidFamily) as exc:
                call(mstar, family, identity_assignment(mstar))
            messages.append(str(exc.value))
            assert not hasattr(family, "_nonsep")
        assert len(set(messages)) == 1 and messages[0]

    def test_a_family_that_is_not_symmetric_raises_every_time(self, mstar):
        family = fam("block {s1}\nblock {s2}\nblock {e1+}")
        for call in (normalize_system, model.allowable) * 2:
            with pytest.raises(NotSymmetric):
                call(mstar, family, identity_assignment(mstar))
            assert family._nonsep == (mstar, None)

    def test_census_replay_compiles_nothing(self, mstar, monkeypatch):
        """Each certificate is built from the index's moves and swapIrr
        letters, which the search compiled, so the replay compiles none."""
        # a cache of this test only, so the index is built on this manifold object
        reachability = functools.lru_cache(maxsize=None)(systems._reachability.__wrapped__)
        monkeypatch.setattr(systems, "_reachability", reachability)
        index = reachability(mstar)
        assert all(move._compiled[0] is mstar for move in index.moves)
        assert all(swap._compiled[0] is mstar for swap in index.swaps.values())
        cases = [
            (family, assignment)
            for family, nonsep in enumerate_symmetric(mstar)[0]
            for assignment in allowable_assignments(mstar, nonsep)
        ]
        compiled = {"swapIrr": 0, "other": 0}
        body = systems._mask_action

        def counting(manifold, letter):
            compiled["swapIrr" if type(letter) is w.SwapIrr else "other"] += 1
            return body(manifold, letter)

        monkeypatch.setattr(systems, "_mask_action", counting)
        std = standard_system(mstar)
        prefixes = 0
        for family, assignment in cases:
            word = normalize_system(mstar, family, assignment)
            assert act_system(mstar, word, std) == family
            assert trace_assignment(mstar, word) == assignment
            prefixes += sum(type(letter) is w.SwapIrr for letter in word.letters)
        assert len(cases) == 5184
        assert compiled == {"swapIrr": 0, "other": 0}
        assert prefixes > 0


def _reference_swap_bits(mask, swaps):
    """The per-mask swap of ``systems`` before letters kept mask maps."""
    for a, b in swaps:
        if bool(mask & a) != bool(mask & b):
            mask ^= a | b
    return mask


def _reference_apply(compiled, masks):
    """Block masks after a compiled ``(slid, parity, swaps)`` action, as
    ``systems`` computed them before letters kept mask maps."""
    slid, parity, swaps = compiled
    if swaps:
        return tuple([_reference_swap_bits(m, swaps) for m in masks])
    return tuple([m ^ slid if (m & parity).bit_count() & 1 else m for m in masks])


class TestMaskMaps:
    """A compiled letter acts through a map from block mask to image
    (``systems._Images``), filled from its ``_mask_action``; it must give
    the image the per-mask rule gives, on every mask of L."""

    @pytest.mark.parametrize(
        "named_manifold", ["mstar", "k2l1", "mixed_types", "handles 3"], indirect=True
    )
    def test_every_image_follows_the_rule(self, named_manifold):
        m = named_manifold
        masks = tuple(range(m.full_mask + 1))
        letters = w.discrepant_alphabet(m) + w.nondiscrepant_alphabet(m)
        maps = {}  # action -> the one map of its letters
        for letter in letters:
            images = systems._compile_letter(m, letter)
            if isinstance(letter, (w.Twist, w.Aut)):
                assert images is systems._IDENTITY and not hasattr(letter, "_compiled")
                assert tuple(map(images.__getitem__, masks)) == masks
                continue
            action = systems._mask_action(m, letter)
            # (manifold, map, steps): a fresh letter holds no slot tuple yet
            assert images.action == action and letter._compiled == (m, images, {})
            assert maps.setdefault(action, images) is images
            assert tuple(map(images.__getitem__, masks)) == _reference_apply(action, masks)
            # a map may be shared with letters of other manifolds: every entry
            # follows the rule, whichever letter filled it
            filled = tuple(images)
            assert tuple(images.values()) == _reference_apply(action, filled)
        assert len({id(images) for images in maps.values()}) == len(maps)
        # slides along x_j and x_j^-1 share one map
        assert len(maps) < sum(not isinstance(lt, (w.Twist, w.Aut)) for lt in letters)

    def test_a_rejected_slide_raises_every_time(self, mstar):
        """The map keeps images, not verdicts: a slide that breaks
        laminarity raises on every application."""
        first, slide = parse_word(mstar, TestStandardFoldMemo.BREAKS).letters
        masks = systems._act_masks(mstar, first, mstar.standard_slots)
        messages = set()
        for _ in range(3):
            with pytest.raises(NotLaminarAfterSlide) as exc:
                systems._act_masks(mstar, slide, masks)
            messages.add(str(exc.value))
        assert len(messages) == 1
        assert messages.pop().startswith("slide slideEnd(1,-; x2^-1) breaks laminarity: ")


def _reference_fold(manifold, letters):
    """The slot masks after the letters, by ``_reference_apply`` on each
    mask and ``_reference_laminar`` at each step, with no memo."""
    masks = manifold.standard_slots
    for letter in letters:
        masks = _reference_apply(systems._mask_action(manifold, letter), masks)
        assert _reference_laminar(tuple(map(manifold.block_of, masks)))
    return masks


class TestSteps:
    """A compiled letter keeps, in its steps dict, the checked image of each
    slot tuple ``_act_masks`` has applied it to on one manifold object."""

    @pytest.mark.parametrize("named_manifold", ["mstar", "k2l1"], indirect=True)
    def test_census_folds_match_a_memo_free_fold(self, named_manifold, monkeypatch):
        m = named_manifold
        # a cache of this test only, so the index's letters start with no steps
        reachability = functools.lru_cache(maxsize=None)(systems._reachability.__wrapped__)
        monkeypatch.setattr(systems, "_reachability", reachability)
        index = reachability(m)
        letters = (*index.moves, *index.swaps.values())
        certificates = []
        for family, nonsep in enumerate_symmetric(m)[0]:
            for assignment in allowable_assignments(m, nonsep):
                try:
                    certificates.append(normalize_system(m, family, assignment).letters)
                except Unreachable:  # the mirror half of a single handle
                    pass
        # neither the search nor the queries fill a steps dict
        assert all(letter._compiled[0] is m and letter._compiled[2] == {} for letter in letters)
        expected = [_reference_fold(m, lts) for lts in certificates]
        for _ in range(2):  # with empty steps dicts, then with filled ones
            assert [systems._fold_state(m, lts)[0] for lts in certificates] == expected
        held = 0
        for letter in letters:
            steps = letter._compiled[2]
            action = systems._mask_action(m, letter)
            assert all(image == _reference_apply(action, masks) for masks, image in steps.items())
            held += len(steps)
        pairs = set()  # (letter, slot tuple) pairs the folds meet
        for lts in certificates:
            masks = m.standard_slots
            for letter in lts:
                pairs.add((id(letter), masks))
                masks = letter._compiled[2][masks]
        assert held == len(pairs) < sum(map(len, certificates))

    def test_a_rejected_slide_raises_with_other_steps_held(self, mstar):
        first, slide = parse_word(mstar, TestStandardFoldMemo.BREAKS).letters
        start = mstar.standard_slots
        kept = systems._act_masks(mstar, slide, start)
        masks = systems._act_masks(mstar, first, start)
        messages = set()
        for _ in range(3):
            with pytest.raises(NotLaminarAfterSlide) as exc:
                systems._act_masks(mstar, slide, masks)
            messages.add(str(exc.value))
            assert slide._compiled[2] == {start: kept}
        assert len(messages) == 1
        assert messages.pop().startswith("slide slideEnd(1,-; x2^-1) breaks laminarity: ")

    def test_a_second_manifold_object_starts_with_no_steps(self, mstar):
        twin = build_manifold((ROOT_DIR / "fixtures" / "mstar.txt").read_text(encoding="utf-8"))
        assert twin == mstar and twin is not mstar
        letter = w.SlideEnd(1, 1, (("x", 2, 1),))
        start = mstar.standard_slots
        image = systems._act_masks(mstar, letter, start)
        assert letter._compiled[0] is mstar and letter._compiled[2] == {start: image}
        for m in (twin, mstar):
            systems._compile_letter(m, letter)
            assert letter._compiled[0] is m and letter._compiled[2] == {}
            assert systems._act_masks(m, letter, start) == image
            assert letter._compiled[2] == {start: image}


class TestKnownDefects:
    """Counterexamples to the mask action of slides, which reads a slide's
    path only mod 2 (see ROADMAP, "The two actions are not actions of one
    group").  Each is a strict xfail: mending the action makes it pass."""

    @staticmethod
    def _classes(manifold, family):
        """The multiset of block classes phi_B(x_j) = [e(j,+) in B] -
        [e(j,-) in B], each up to sign."""
        classes = []
        for block in family.blocks:
            phi = tuple(
                (e_label(j, 1) in block) - (e_label(j, -1) in block)
                for j in range(1, manifold.ell + 1)
            )
            classes.append(max(phi, tuple(-x for x in phi)))
        return sorted(classes)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="mod-2 slide action")
    def test_partial_conjugation_keeps_block_classes(self, mstar):
        # slideHandle(1; x2) is a partial conjugation: trivial on H_1
        family = fam("block {s1}\nblock {s2}\nblock {e1+,e2+}")
        word = parse_word(mstar, "slideHandle(1; x2)")
        image = act_system(mstar, word, family)
        assert self._classes(mstar, image) == self._classes(mstar, family)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="mod-2 slide action")
    def test_slide_end_twice_leaves_the_model(self, mstar):
        # x1 -> x1 x2 x2 sends the class of S_2 to one with x1 entry +-2,
        # which no block of P carries
        word = parse_word(mstar, "slideEnd(1,+; x2) slideEnd(1,+; x2)")
        outcome = _fold_outcome(act_system, mstar, word, standard_system(mstar))
        assert isinstance(outcome, tuple) and outcome[0] is NotLaminarAfterSlide


class TestNormalize:
    def test_identity_case(self, mstar):
        word = normalize_system(
            mstar, standard_system(mstar), identity_assignment(mstar)
        )
        assert word.letters == ()

    def test_single_slide_case(self, mstar):
        family = fam("block {s1}\nblock {s2}\nblock {s1,e1+}\nblock {e2+}")
        mapping = identity_assignment(mstar).as_dict()
        block = frozenset({s_label(1), e_label(1, 1)})
        mapping[("d", 1, 1)] = (block, "in")
        mapping[("d", 1, -1)] = (block, "out")
        assignment = Assignment.of(mapping)
        word = normalize_system(mstar, family, assignment)
        # BFS oracle: some single-slide move must already realize the family
        singles = [
            w.Word(mstar, (letter,))
            for letter in discrepant_alphabet(mstar)
            if isinstance(letter, (w.SlideIrr, w.SlideEnd, w.SlideHandle))
        ]
        single_hits = [
            s
            for s in singles
            if act_system(mstar, s, standard_system(mstar)) == family
        ]
        assert single_hits
        assert len(word) == 1
        assert act_system(mstar, word, standard_system(mstar)) == family
        assert trace_assignment(mstar, word) == assignment

    def test_spin_case(self, mstar):
        family = fam("block {s1}\nblock {s2}\nblock {e1-}\nblock {e2+}")
        mapping = identity_assignment(mstar).as_dict()
        block = frozenset({e_label(1, -1)})
        mapping[("d", 1, 1)] = (block, "out")
        mapping[("d", 1, -1)] = (block, "in")
        assignment = Assignment.of(mapping)
        word = normalize_system(mstar, family, assignment)
        assert word.letters == (w.Spin(1),)

    def test_orientation_swap_rel_standard(self, mstar):
        mapping = identity_assignment(mstar).as_dict()
        block = frozenset({e_label(1, 1)})
        mapping[("d", 1, 1)] = (block, "out")
        mapping[("d", 1, -1)] = (block, "in")
        assignment = Assignment.of(mapping)
        word = normalize_system(mstar, standard_system(mstar), assignment)
        assert act_system(mstar, word, standard_system(mstar)) == standard_system(
            mstar
        )
        assert trace_assignment(mstar, word) == assignment

    def test_summand_permutation_prefix(self, mstar):
        mapping = identity_assignment(mstar).as_dict()
        mapping[("d", 1)] = (frozenset({s_label(2)}), None)
        mapping[("d", 2)] = (frozenset({s_label(1)}), None)
        assignment = Assignment.of(mapping)
        word = normalize_system(mstar, standard_system(mstar), assignment)
        assert word.letters == (w.SwapIrr(1, 2),)
        swapless = w.Word(
            mstar, tuple(lt for lt in word.letters if not isinstance(lt, w.SwapIrr))
        )
        assert sequence.is_discrepant(swapless)

    def test_rejects_non_symmetric_target(self, mstar):
        family = LaminarFamily.of([{s_label(1)}, {s_label(2)}])
        with pytest.raises(NotSymmetric):
            normalize_system(mstar, family, identity_assignment(mstar))

    def test_rejects_non_allowable(self, mstar):
        family = fam("block {s1}\nblock {s2}\nblock {e1-}\nblock {e2+}")
        # identity assignment targets {e1+}, which the family does not contain
        with pytest.raises(NotAllowable):
            normalize_system(mstar, family, identity_assignment(mstar))

    def test_sampled_soundness(self, mstar):
        rng = random.Random(61)
        std = standard_system(mstar)
        cases = []
        for family, nonsep in enumerate_symmetric(mstar)[0]:
            for assignment in allowable_assignments(mstar, nonsep):
                cases.append((family, assignment))
        for family, assignment in rng.sample(cases, 60):
            word = normalize_system(mstar, family, assignment)
            assert act_system(mstar, word, std) == family
            assert trace_assignment(mstar, word) == assignment

    def test_deterministic(self, mstar):
        family = fam("block {s1}\nblock {s2}\nblock {s1,e1+}\nblock {e2+}")
        mapping = identity_assignment(mstar).as_dict()
        block = frozenset({s_label(1), e_label(1, 1)})
        mapping[("d", 1, 1)] = (block, "in")
        mapping[("d", 1, -1)] = (block, "out")
        assignment = Assignment.of(mapping)
        first = normalize_system(mstar, family, assignment)
        second = normalize_system(mstar, family, assignment)
        assert word_text(first) == word_text(second)


def _reference_allowable(manifold, cls, assignment):
    """allowable() onto a family classified as ``cls``, token set built
    per call."""
    mapping = assignment.as_dict()
    expected_tokens = {("d", i) for i in range(1, manifold.k + 1)} | {
        ("d", j, s) for j in range(1, manifold.ell + 1) for s in (1, -1)
    }
    if set(mapping) != expected_tokens:
        return False
    summand_of_block = {b: i for i, b in cls.summand_blocks}
    nonsep = set(cls.nonsep_blocks)
    hit = set()
    for i in range(1, manifold.k + 1):
        block, side = mapping[("d", i)]
        if side is not None or block not in summand_of_block:
            return False
        if manifold.type_of(summand_of_block[block]) != manifold.type_of(i):
            return False
        if (block, None) in hit:
            return False
        hit.add((block, None))
    for j in range(1, manifold.ell + 1):
        bp, sp = mapping[("d", j, 1)]
        bm, sm = mapping[("d", j, -1)]
        if bp != bm or bp not in nonsep or {sp, sm} != {"in", "out"}:
            return False
        if (bp, sp) in hit or (bm, sm) in hit:
            return False
        hit.add((bp, sp))
        hit.add((bm, sm))
    return True


def _reference_normalize(manifold, family, assignment):
    """normalize_system through classify_system, every letter checked by
    Word.of: the reference for the mask-level query."""
    cls = classify_system(manifold, family)
    if not cls.is_symmetric:
        raise NotSymmetric("normalization target must be a symmetric system")
    if not _reference_allowable(manifold, cls, assignment):
        raise NotAllowable("assignment is not allowable onto the target family")
    summand_of_block = {b: i for i, b in cls.summand_blocks}
    perm = {
        i: summand_of_block[assignment.target_of(("d", i))[0]]
        for i in range(1, manifold.k + 1)
    }
    prefix = [w.SwapIrr(a, b) for a, b in sequence.perm_transpositions(perm)]
    index = systems._reachability(manifold)
    slots, bits = [], 0
    for j in range(1, manifold.ell + 1):
        block, side = assignment.target_of(("d", j, 1))
        slots.append(manifold.mask_of(block))
        if side == "out":
            bits |= 1 << (j - 1)
    tid = index.ids.get(tuple(slots))
    key = None if tid is None else tid << manifold.ell | bits
    if key not in index.parent:
        raise Unreachable("no slide/spin/swap word realizes the target")
    path = []
    link = index.parent[key]
    while link >= 0:
        key, n = divmod(link, len(index.moves))
        path.append(index.moves[n])
        link = index.parent[key]
    return w.Word.of(manifold, tuple(prefix) + tuple(reversed(path)))


def _outcome(function, *args):
    try:
        return function(*args)
    except McgseqError as exc:
        return type(exc)


class TestNormalizeOnMasks:
    def test_same_certificates_as_reference(self, mstar):
        pairs = 0
        for family, nonsep in enumerate_symmetric(mstar)[0]:
            for assignment in allowable_assignments(mstar, nonsep):
                pairs += 1
                word = normalize_system(mstar, family, assignment)
                assert word == _reference_normalize(mstar, family, assignment)
                assert w.Word.of(mstar, word.letters) == word
        assert pairs == 5184

    def test_same_error_kinds_as_reference(self, mstar, mixed_types):
        std = standard_system(mstar)
        ident = identity_assignment(mstar)
        stray = ident.as_dict()
        block = frozenset({e_label(3, 1)})  # a label outside L
        stray[("d", 1, 1)], stray[("d", 1, -1)] = (block, "in"), (block, "out")
        repeated = ident.as_dict()
        repeated[("d", 1, -1)] = (frozenset({e_label(1, 1)}), "in")
        on_summand = ident.as_dict()  # handle duplicates on a summand block
        block = frozenset({s_label(1)})
        on_summand[("d", 1, 1)], on_summand[("d", 1, -1)] = (block, "in"), (block, "out")
        mixed = identity_assignment(mixed_types).as_dict()
        mixed[("d", 1)] = (frozenset({s_label(3)}), None)
        mixed[("d", 3)] = (frozenset({s_label(1)}), None)
        cases = [
            (
                mstar,
                fam("block {s1,e1+}\nblock {s2,e1+}\nblock {e2+}\nblock {s1}"),
                ident,
                InvalidFamily,
            ),
            (mstar, fam("block {s1}\nblock {s2}\nblock {s1,s2}\nblock {e1+}"),
             ident, NotSymmetric),
            (mstar, std, Assignment.of(stray), NotAllowable),
            (mstar, std, Assignment.of(repeated), NotAllowable),
            (mstar, std, Assignment.of(on_summand), NotAllowable),
            (mixed_types, standard_system(mixed_types), Assignment.of(mixed),
             NotAllowable),
        ]
        for manifold, family, assignment, kind in cases:
            got = _outcome(normalize_system, manifold, family, assignment)
            assert got is kind
            assert _outcome(_reference_normalize, manifold, family, assignment) is kind


class TestAssignmentCodec:
    """``model.allowable`` (the codec's decoder) against the test-local
    ``_reference_allowable`` on mutated allowable assignments.

    Each entry's target is replaced by each {s(i)}, each non-separating
    block of the family on either side, and a block with a label outside L;
    besides those single-entry mutants, one token is dropped, each handle's
    pair is moved together onto each non-separating block, and each two
    summand targets are exchanged.  A single entry cannot break only an
    injectivity or type condition (the old target of the entry's new block
    still collides, or its handle's pair splits), hence the joint mutants.
    ``normalize_system`` runs only where the reference accepts: a decoder
    that let a non-bijective summand map through would send
    ``perm_transpositions`` into an endless loop.
    """

    @pytest.mark.parametrize("name", ["mstar", "mixed_types"])
    def test_mutants_match_reference(self, name, request):
        manifold = request.getfixturevalue(name)
        k, ell = manifold.k, manifold.ell
        cases = [
            (family, assignment)
            for family, nonsep in enumerate_symmetric(manifold)[0]
            for assignment in allowable_assignments(manifold, nonsep)
        ]
        stray = frozenset({e_label(ell + 1, 1)})  # a label outside L
        summands = [(frozenset({s_label(i)}), None) for i in range(1, k + 1)]
        verdicts = []
        for family, assignment in random.Random(12).sample(cases, 40):
            cls = classify_system(manifold, family)
            sided = [(b, side) for b in cls.nonsep_blocks for side in ("in", "out")]
            mapping = assignment.as_dict()
            mutants = [{t: v for t, v in mapping.items() if t != ("d", 1)}]
            for token, (_, side) in mapping.items():
                for target in summands + sided + [(stray, side)]:
                    mutants.append({**mapping, token: target})
            for j in range(1, ell + 1):
                for block, side in sided:
                    other = "out" if side == "in" else "in"
                    mutants.append(
                        {**mapping, ("d", j, 1): (block, side), ("d", j, -1): (block, other)}
                    )
            for a, b in itertools.combinations(range(1, k + 1), 2):
                mutants.append(
                    {**mapping, ("d", a): mapping[("d", b)], ("d", b): mapping[("d", a)]}
                )
            for mutant in map(Assignment.of, mutants):
                expected = _reference_allowable(manifold, cls, mutant)
                assert model.allowable(manifold, family, mutant) == expected
                verdicts.append(expected)
                if expected:
                    got = _outcome(normalize_system, manifold, family, mutant)
                    assert got == _outcome(_reference_normalize, manifold, family, mutant)
        assert any(verdicts) and not all(verdicts)


def _reference_assignment(summand_blocks, handle_blocks, spun):
    """``model._assignment`` as a dict sorted by ``Assignment.of``: the
    encoder's body before it emitted its entries in token order."""
    mapping = {("d", i): (block, None) for i, block in enumerate(summand_blocks, 1)}
    for j, (block, flip) in enumerate(zip(handle_blocks, spun), 1):
        mapping[("d", j, 1)] = (block, "out" if flip else "in")
        mapping[("d", j, -1)] = (block, "in" if flip else "out")
    return Assignment.of(mapping)


class TestAssignmentEncoder:
    @pytest.mark.parametrize(
        "named_manifold, count",
        [
            ("mstar", 5184),
            ("k2l1", 32),
            ("mixed_types", 64),
            ("free_mcg", 192),
            ("handles 3", 98_304),
        ],
        indirect=["named_manifold"],
    )
    def test_matches_reference_on_every_allowable_assignment(self, named_manifold, count):
        m = named_manifold
        checked = 0
        for family, nonsep in enumerate_symmetric(m)[0]:
            nonsep_masks = model._symmetric_nonsep_masks(m, family)
            assert tuple(nonsep_masks) == nonsep
            for assignment in allowable_assignments(m, nonsep):
                perm, slots, bits = model._assignment_state(m, nonsep_masks, assignment)
                summands = [m.block_of(1 << (perm[i] - 1)) for i in range(1, m.k + 1)]
                handles = [m.block_of(slot) for slot in slots]
                spun = [bool(bits >> j & 1) for j in range(m.ell)]
                got = model._assignment(summands, handles, spun)
                assert got == _reference_assignment(summands, handles, spun)
                assert got == assignment
                checked += 1
        assert checked == count

    @pytest.mark.parametrize("named_manifold", STANDARD_SHORTCUT_CASES, indirect=True)
    def test_identity_assignment(self, named_manifold):
        m = named_manifold
        std = [frozenset({s_label(i)}) for i in range(1, m.k + 1)]
        ends = [frozenset({e_label(j, 1)}) for j in range(1, m.ell + 1)]
        assert identity_assignment(m) == _reference_assignment(std, ends, [False] * m.ell)


class TestNormalizationCompleteness:
    """The spec-level soundness claim, at the model's actual boundary.

    Manifolds with no handle or at least two handles realize every
    allowable assignment.  On single-handle manifolds the move set fixes
    the parity (e(1,+) in pair block) xor (d(1,+) -> out), so exactly the
    matching half is reachable and the mirror half raises Unreachable;
    topologically the mirror cases are spin followed by the
    out-of-scope renormalization isotopy through the handle.
    """

    @pytest.mark.parametrize(
        "text",
        [
            "type A pi1=Z/2 mcg=Z/1\nsummand 1 A\nsummand 2 A\nhandles 0\n",
            "handles 2\n",
            "type A pi1=Z/2 mcg=Z/1\nsummand 1 A\nhandles 2\n",
        ],
    )
    def test_full_reachability_without_single_handle(self, text):
        from mcgseq import build_manifold
        from mcgseq.verify import normalization_suite

        report = normalization_suite(build_manifold(text))
        assert report["ok"] and report["unreachable"] == 0

    @pytest.mark.parametrize(
        "text",
        [
            "handles 1\n",
            "type A pi1=Z/2 mcg=Z/1\nsummand 1 A\nhandles 1\n",
        ],
    )
    def test_single_handle_parity_characterization(self, text):
        from mcgseq import build_manifold
        from mcgseq.errors import Unreachable
        from mcgseq.verify import allowable_assignments, enumerate_symmetric

        manifold = build_manifold(text)
        std = standard_system(manifold)
        for family, nonsep in enumerate_symmetric(manifold)[0]:
            for assignment in allowable_assignments(manifold, nonsep):
                block, side = assignment.target_of(("d", 1, 1))
                parity_ok = (e_label(1, 1) in block) == (side == "in")
                if parity_ok:
                    word = normalize_system(manifold, family, assignment)
                    assert act_system(manifold, word, std) == family
                    assert trace_assignment(manifold, word) == assignment
                else:
                    with pytest.raises(Unreachable):
                        normalize_system(manifold, family, assignment)


    @pytest.mark.parametrize("name", ["k2l1", "free_mcg"])
    def test_suite_expects_the_mirror_half_unreachable(self, request, name):
        from mcgseq.verify import normalization_suite

        report = normalization_suite(request.getfixturevalue(name))
        assert report["ok"] and not report["failures"]
        assert report["assignments"] and report["unreachable"] * 2 == report["assignments"]

    def test_suite_logs_the_replay(self, mstar, monkeypatch, caplog):
        from mcgseq.verify import normalization_suite

        # a cache of this test only, so the index's letters start with no steps
        reachability = functools.lru_cache(maxsize=None)(systems._reachability.__wrapped__)
        monkeypatch.setattr(systems, "_reachability", reachability)
        with caplog.at_level(logging.INFO, logger="mcgseq.verify"):
            report = normalization_suite(mstar)
        assert report["ok"] and report["assignments"] == 5184
        assert (
            "normalization replay: 29424 certificate letters folded; the search "
            "index's letters hold 4093 checked slot-tuple images"
        ) in caplog.text

    def test_suite_fails_on_an_unreachable_matching_case(self, k2l1, monkeypatch):
        from mcgseq.verify import _mirror_parity, normalization_suite

        normalize = systems._normalize

        def refuse_matching(manifold, nonsep, assignment):
            if not _mirror_parity(manifold, assignment):
                raise Unreachable("forced")
            return normalize(manifold, nonsep, assignment)

        monkeypatch.setattr(systems, "_normalize", refuse_matching)
        report = normalization_suite(k2l1)
        assert not report["ok"]
        assert report["unreachable"] == report["assignments"]
        assert len(report["failures"]) == min(20, report["assignments"] // 2)
        assert all(f.endswith(": forced") for f in report["failures"])

    def test_suite_fails_on_a_normalized_mirror_case(self, k2l1, monkeypatch):
        from mcgseq.verify import _mirror_parity, normalization_suite

        normalize = systems._normalize

        def realize_mirror(manifold, nonsep, assignment):
            if _mirror_parity(manifold, assignment):
                return w.empty_word(manifold)
            return normalize(manifold, nonsep, assignment)

        monkeypatch.setattr(systems, "_normalize", realize_mirror)
        report = normalization_suite(k2l1)
        assert not report["ok"] and report["unreachable"] == 0
        assert any(
            f.startswith("mirror-parity assignment normalized") for f in report["failures"]
        )


class TestDot:
    def test_renders_all_nodes(self, mstar):
        family = fam("block {s1}\nblock {s1,e1+}\nblock {s2}\nblock {e2+}")
        dot = systems.family_dot(mstar, family)
        assert dot.startswith("digraph")
        for tag in ("b0", "b3", "lab_s1", "lab_e2m", "root"):
            assert tag in dot
