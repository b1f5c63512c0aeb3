"""Bundled verification suites behind the `verify` CLI subcommand.

Each suite returns a JSON-serializable report with case counts and a list
of at most 20 failure descriptions, the first found (empty when the suite
passes); ``_fail`` keeps them.  All randomized suites are reproducible
from their seed.  The suites read the generator alphabet of ``words``,
whose public names they import.
"""

from __future__ import annotations

import functools
import itertools
import logging
import random

from . import fpgroup, sequence, systems, textio
from . import words as w
from .errors import NotDiscrepant, NotLaminarAfterSlide, Unreachable
from .model import (
    Assignment,
    LaminarFamily,
    PrimeDecomposition,
    _is_symmetric,
    _separates,
    e_label,
    s_label,
    standard_system,
)
from .oracles import type_permutations, wreath_elements
from .sequence import EductionImage, SpottedMarking
from .words import (
    discrepant_alphabet,
    nondiscrepant_alphabet,
    single_letter_paths,
    twist_refs,
)

log = logging.getLogger("mcgseq.verify")

REPORTED_FAILURES = 20  # failure messages a suite reports, the first found


def _fail(failures: list, message, *words) -> None:
    """Record a failure in ``failures``, which keeps the first
    ``REPORTED_FAILURES`` messages.  The message is ``message``, or what it
    returns if it is a function, followed by the text of each of ``words``
    joined by " | ".  It is built only while it is kept, so a broken suite
    formats the failures it reports, not every failure it finds.
    """
    if len(failures) < REPORTED_FAILURES:
        if not isinstance(message, str):
            message = message()
        failures.append(message + " | ".join(map(textio.word_text, words)))


# ---------------------------------------------------------------------------
# samplers


def random_fpword(manifold: PrimeDecomposition, rng: random.Random, max_len=3):
    letters = []
    choices = single_letter_paths(manifold)
    for _ in range(rng.randint(0, max_len)):
        letters.extend(rng.choice(choices))
    return fpgroup.fp_reduce(manifold, letters)


def random_letter(manifold: PrimeDecomposition, rng: random.Random, mixed=True):
    kinds = ["slideIrr", "slideEnd", "slideHandle", "spin", "twist", "swapHandles"]
    if mixed:
        kinds += ["aut", "swapIrr"]
    while True:
        kind = rng.choice(kinds)
        if kind == "slideIrr" and manifold.k:
            i = rng.randint(1, manifold.k)
            path = random_fpword(manifold, rng)
            path = tuple(lt for lt in path if not (lt[0] == "g" and lt[1] == i))
            return w.SlideIrr(i, fpgroup.fp_reduce(manifold, path))
        if kind in ("slideEnd", "slideHandle") and manifold.ell:
            j = rng.randint(1, manifold.ell)
            path = random_fpword(manifold, rng)
            path = tuple(lt for lt in path if not (lt[0] == "x" and lt[1] == j))
            path = fpgroup.fp_reduce(manifold, path)
            if kind == "slideEnd":
                return w.SlideEnd(j, rng.choice((1, -1)), path)
            return w.SlideHandle(j, path)
        if kind == "spin" and manifold.ell:
            return w.Spin(rng.randint(1, manifold.ell))
        if kind == "twist":  # every manifold has a standard sphere
            return w.Twist(rng.choice(twist_refs(manifold)))
        if kind == "swapHandles" and manifold.ell >= 2:
            a, b = sorted(rng.sample(range(1, manifold.ell + 1), 2))
            return w.SwapHandles(a, b)
        if kind == "aut" and manifold.k:
            i = rng.randint(1, manifold.k)
            return w.Aut(i, rng.choice(w._aut_tokens(manifold.type_of(i).mcg)))
        if kind == "swapIrr" and manifold.swap_pairs:
            return w.SwapIrr(*rng.choice(manifold.swap_pairs))


def random_word(manifold, rng, max_len=6, mixed=True) -> w.Word:
    letters = tuple(
        random_letter(manifold, rng, mixed) for _ in range(rng.randint(0, max_len))
    )
    return w.Word.of(manifold, letters)


# ---------------------------------------------------------------------------
# family enumeration


@functools.lru_cache(maxsize=None)
def enumerate_symmetric(manifold: PrimeDecomposition):
    """All symmetric laminar families over the manifold's labels.

    A symmetric system has exactly k+l blocks, so the candidates are the
    laminar (k+l)-sets of blocks.  Blocks are the 2^|L|-2 proper nonempty
    subsets of L as masks, in ``block_key`` order (``combinations`` of the
    labels by size).  Each block i carries the bitset of the later blocks
    nested with it or disjoint from it, so a depth-first search that extends
    index-increasing tuples by the blocks compatible with every block so far
    (the AND of their bitsets) reaches exactly the laminar sets, once each,
    in the order of ``combinations`` of the blocks.  The laminar (k+l)-sets
    are counted by that search, which adds the popcount of the candidates
    at the last level instead of visiting each leaf.

    The symmetric families are searched for under the singletons alone.
    Blocks 0..k-1 are the singletons {s(i)}, and a symmetric family's
    separating blocks are exactly those, so in index order it starts with
    them and goes on with l non-separating blocks compatible with them and
    with each other.  The search starts from the singletons with those
    blocks as candidates, and tests each (k+l)-set it reaches with the full
    ``_is_symmetric``.  The symmetric families are built already in
    ``block_key`` order; none is classified.  The search never consults the
    BFS of ``systems``, which the normalization suite audits against it.

    Returns (tuple of (family, nonsep_blocks) pairs, number of laminar
    candidates); ``nonsep_blocks`` are the family's blocks with a bit at or
    above k, in order, which are ``classify_system``'s ``nonsep_blocks``.
    """
    labels = manifold.labels()
    blocks = [
        manifold.mask_of(combo)
        for r in range(1, len(labels))
        for combo in itertools.combinations(labels, r)
    ]
    compatible = []
    for i, a in enumerate(blocks):
        later = 0
        for j in range(i + 1, len(blocks)):
            if a & blocks[j] in (0, a, blocks[j]):
                later |= 1 << j
        compatible.append(later)
    k = manifold.k
    size = k + manifold.ell

    def count(depth: int, candidates: int) -> int:
        if depth == size - 1:
            return candidates.bit_count()
        total = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            total += count(depth + 1, candidates & compatible[low.bit_length() - 1])
        return total

    tested = 0
    out = []

    def extend(chosen: tuple, candidates: int) -> None:
        nonlocal tested
        if len(chosen) == size:
            tested += 1
            if _is_symmetric(manifold, chosen):
                fam = tuple(map(manifold.block_of, chosen))  # memoized frozensets
                out.append((LaminarFamily(fam), fam[k:]))
            return
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            extend(chosen + (blocks[i],), candidates & compatible[i])

    laminar_count = count(0, (1 << len(blocks)) - 1)
    under_singletons = sum(
        1 << i for i, m in enumerate(blocks) if not _separates(manifold, m)
    )
    for i in range(k):
        under_singletons &= compatible[i]
    extend(tuple(blocks[:k]), under_singletons)
    log.info(
        "symmetric enumeration: %d laminar candidates with %d blocks, "
        "%d symmetric families; %d block sets tested under the singletons",
        laminar_count,
        size,
        len(out),
        tested,
    )
    return tuple(out), laminar_count


def allowable_assignments(manifold: PrimeDecomposition, nonsep_blocks):
    """All allowable assignments onto a symmetric family with these
    non-separating blocks (as ``enumerate_symmetric`` pairs them): per
    ``type_permutations`` summand permutation, per order of the blocks,
    per choice of sides.  The mapping is built here, not by
    ``model._assignment``, so that this enumerator stays independent of the
    assignment codec that the normalization suite checks against it.

    Each assignment is joined from runs of entries that many assignments
    share, already in token order, so none builds a dict or sorts: sorted,
    the tokens go index by index as d(n), d(n,-), d(n,+).  Per summand
    permutation, handle j, block and side there is one run, d(j) included
    when j <= k, and the d(i) with i > l follow the last handle's run."""
    k, ell = manifold.k, manifold.ell
    singles = [(frozenset({s_label(p)}), None) for p in range(1, k + 1)]
    targets = [((b, "in"), (b, "out")) for b in nonsep_blocks]
    for perm in type_permutations(manifold.type_classes):
        summands = tuple((("d", i), singles[perm[i] - 1]) for i in range(1, k + 1))
        # per handle j and block: the runs d(j), d(j,-), d(j,+) of both sides
        runs = [
            [
                [
                    summands[j - 1 : j] + ((("d", j, -1), minus), (("d", j, 1), plus))
                    for plus, minus in (sides, sides[::-1])
                ]
                for sides in targets
            ]
            for j in range(1, ell + 1)
        ]
        rest = (summands[ell:],)
        for block_order in itertools.permutations(range(ell)):
            choices = [runs[j][b] for j, b in enumerate(block_order)]
            for picked in itertools.product(*choices, rest):
                yield Assignment(sum(picked, ()))


# ---------------------------------------------------------------------------
# suites


def _wreath_images(manifold: PrimeDecomposition):
    """The elements of H(V) as eduction images, in ``wreath_elements`` order."""
    summands = range(1, manifold.k + 1)
    oracles = [t.mcg for t in manifold.summands]
    for perm, tokens in wreath_elements(oracles, manifold.type_classes):
        yield EductionImage(tuple(map(perm.get, summands)), tuple(tokens.values()))


def exactness_suite(manifold: PrimeDecomposition, max_len=4, mixed_len=3) -> dict:
    """Exact-sequence checks: kernel letters educe trivially, lift sections
    educe back, kernel membership matches discrepant factorization."""
    failures = []
    identity = sequence.identity_image(manifold)
    alphabet = discrepant_alphabet(manifold)
    words_checked = 0
    for length in range(0, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            words_checked += 1
            word = w.Word(manifold, combo)
            if sequence.educe(word) != identity:
                _fail(failures, "discrepant word educes non-trivially: ", word)
    elements = 0
    for image in _wreath_images(manifold):
        elements += 1
        lifted = sequence.lift(manifold, image)
        if sequence.educe(lifted) != image:
            _fail(
                failures,
                lambda: "educe(lift(h)) != h for "
                f"{textio.image_to_jsonable(manifold, image)}",
            )
    mixed = alphabet + nondiscrepant_alphabet(manifold)
    std = standard_system(manifold)
    mixed_words = kernel_words = unchanged = compared = vacuous = 0
    for length in range(0, mixed_len + 1):
        for combo in itertools.product(mixed, repeat=length):
            mixed_words += 1
            word = w.Word(manifold, combo)
            in_kernel = sequence.is_discrepant(word)
            if not in_kernel:
                try:
                    sequence.factor_discrepant(word)
                    _fail(
                        failures, "factor_discrepant accepted a non-kernel word: ", word
                    )
                except NotDiscrepant:
                    pass
                continue
            kernel_words += 1
            factored = sequence.factor_discrepant(word)
            if any(not w.is_discrepant_letter(lt) for lt in factored.letters):
                _fail(
                    failures, "factor_discrepant left non-discrepant letters in ", word
                )
                continue
            if factored.letters == word.letters:
                unchanged += 1
                continue  # syntactically unchanged: actions trivially equal
            compared += 1
            if fpgroup.aut_of_word(manifold, word) != fpgroup.aut_of_word(
                manifold, factored
            ):
                _fail(failures, "pi1 action changed by factoring: ", word)
                continue
            outcome = _system_outcome(manifold, word, std)
            if outcome != _system_outcome(manifold, factored, std):
                _fail(failures, "system action changed by factoring: ", word)
            elif outcome == "not-laminar":
                vacuous += 1
    log.info(
        "exactness: %d kernel words, %d skipped as syntactically unchanged, "
        "%d compared by action, %d of them vacuous (both systems not laminar)",
        kernel_words,
        unchanged,
        compared,
        vacuous,
    )
    return {
        "suite": "exactness",
        "discrepant_words": words_checked,
        "wreath_elements": elements,
        "mixed_words": mixed_words,
        "kernel_words": kernel_words,
        "failures": failures,
        "ok": not failures,
    }


def _system_outcome(manifold, word, family):
    try:
        return systems.act_system(manifold, word, family)
    except NotLaminarAfterSlide:
        return "not-laminar"


def _mirror_parity(manifold: PrimeDecomposition, assignment: Assignment) -> bool:
    """Whether the assignment lies in the mirror half of a single-handle
    manifold.

    With one handle, slides, spins and swaps keep the parity of
    (e(1,+) in the block of d(1,+)) xor (d(1,+) -> out), which the standard
    system has even.  The odd half is a spin followed by the renormalization
    isotopy through the handle, which the model leaves out.
    """
    if manifold.ell != 1:
        return False
    block, side = assignment.target_of(("d", 1, 1))
    return (e_label(1, 1) in block) != (side == "in")


def normalization_suite(manifold: PrimeDecomposition) -> dict:
    """Every symmetric family and allowable assignment is realized exactly,
    except the mirror half of a single-handle manifold (``_mirror_parity``),
    where each case must raise Unreachable.  ``unreachable`` counts every
    case that did not normalize; all but the expected mirror cases are
    failures too."""
    failures = []
    symmetric, laminar_count = enumerate_symmetric(manifold)
    std = standard_system(manifold)
    assignments = 0
    unreachable = 0
    folded = 0  # certificate letters that the replays fold
    for fam, nonsep in symmetric:
        for assignment in allowable_assignments(manifold, nonsep):
            assignments += 1
            mirror = _mirror_parity(manifold, assignment)
            try:
                word = systems.normalize_system(manifold, fam, assignment)
            except Exception as exc:  # Unreachable or any defect
                unreachable += 1
                if not (mirror and isinstance(exc, Unreachable)):
                    _fail(
                        failures,
                        lambda: "normalize failed on "
                        f"{[textio.block_text(b) for b in fam.blocks]}: {exc}",
                    )
                continue
            if mirror:
                _fail(failures, "mirror-parity assignment normalized: ", word)
            folded += len(word.letters)
            if systems.act_system(manifold, word, std) != fam:
                _fail(failures, "normalized word misses the family: ", word)
            if systems.trace_assignment(manifold, word) != assignment:
                _fail(failures, "normalized word induces the wrong assignment: ", word)
            swapless = w.Word(
                manifold,
                tuple(lt for lt in word.letters if not isinstance(lt, w.SwapIrr)),
            )
            if not sequence.is_discrepant(swapless):
                _fail(failures, "slide/spin/swap part is not discrepant: ", word)
    log.info(
        "normalization replay: %d certificate letters folded; the search "
        "index's letters hold %d checked slot-tuple images",
        folded,
        systems._held_steps(manifold),
    )
    return {
        "suite": "normalization",
        "laminar_candidates": laminar_count,
        "symmetric_families": len(symmetric),
        "assignments": assignments,
        "unreachable": unreachable,
        "failures": failures,
        "ok": not failures,
    }


def pi1_suite(manifold: PrimeDecomposition, seed=7, pairs=300, max_len=6) -> dict:
    """Homomorphism property plus the abelianization cross-check."""
    rng = random.Random(seed)
    failures = []
    gens = fpgroup.generator_words(manifold)
    for _ in range(pairs):
        w1 = random_word(manifold, rng, max_len=max_len // 2)
        w2 = random_word(manifold, rng, max_len=max_len - max_len // 2)
        combined = w.compose(w1, w2)
        for _, gen_word in gens:
            lhs = fpgroup.act_pi1(manifold, combined, gen_word)
            rhs = fpgroup.act_pi1(
                manifold, w2, fpgroup.act_pi1(manifold, w1, gen_word)
            )
            if lhs != rhs:
                _fail(failures, "homomorphism violated: ", w1, w2)
                break
    ab_checked = 0
    for _ in range(60):
        word = random_word(manifold, rng, max_len=max_len)
        ab_checked += 1
        direct = fpgroup.abelianized_action(manifold, word)
        via_table = fpgroup.abelianize_table(fpgroup.aut_of_word(manifold, word))
        if direct.images != via_table.images:
            _fail(failures, "abelianization mismatch: ", word)
    for j in range(1, manifold.ell + 1):
        spin_ab = fpgroup.abelianized_action(manifold, w.Word(manifold, (w.Spin(j),)))
        expected = [0] * manifold.ell
        expected[j - 1] = -1
        img = spin_ab.image_of(("x", j))
        if list(img[1]) != expected or any(
            not manifold.type_of(i).pi1.abelianized()[0].is_identity(img[0][i - 1])
            for i in range(1, manifold.k + 1)
        ):
            _fail(failures, f"spin({j}) does not abelianize to -1 on x{j}")
    for ref in twist_refs(manifold):
        word = w.Word(manifold, (w.Twist(ref),))
        if (
            fpgroup.abelianized_action(manifold, word).images
            != fpgroup.identity_ab_action(manifold).images
        ):
            _fail(failures, f"twist({ref[0]}{ref[1]}) is not homologically trivial")
    return {
        "suite": "pi1",
        "pairs": pairs,
        "ab_cross_checks": ab_checked,
        "failures": failures,
        "ok": not failures,
    }


def relations_suite(manifold: PrimeDecomposition) -> dict:
    """twist^2 = 1, spin^2 = twist(assoc) with trivial action, spin swaps labels."""
    failures = []
    refs = twist_refs(manifold)
    for ref in refs:
        word = w.Word.of(manifold, (w.Twist(ref), w.Twist(ref)))
        if w.free_reduce(word).letters != ():
            _fail(failures, f"twist({ref}) squared does not reduce to e")
    symmetric, _ = enumerate_symmetric(manifold)
    gens = fpgroup.generator_words(manifold)
    for j in range(1, manifold.ell + 1):
        spin2 = w.Word.of(manifold, (w.Spin(j), w.Spin(j)))
        reduced = w.free_reduce(spin2)
        if reduced.letters != (w.Twist(("assoc", j)),):
            _fail(failures, f"spin({j})^2 does not reduce to twist(assoc{j})")
        for _, gen_word in gens:
            if fpgroup.act_pi1(manifold, spin2, gen_word) != gen_word:
                _fail(failures, f"spin({j})^2 acts non-trivially on pi1")
                break
        spin_word = w.Word.of(manifold, (w.Spin(j),))
        swap = {e_label(j, 1): e_label(j, -1), e_label(j, -1): e_label(j, 1)}
        for fam, _nonsep in symmetric:
            if systems.act_system(manifold, spin2, fam) != fam:
                _fail(failures, f"spin({j})^2 moves a symmetric family")
                break
            image = systems.act_system(manifold, spin_word, fam)
            expected = LaminarFamily.of(
                frozenset(swap.get(lab, lab) for lab in b) for b in fam.blocks
            )
            if image != expected:
                _fail(failures, f"spin({j}) is not the e{j}+/e{j}- label swap")
                break
    return {
        "suite": "relations",
        "twist_refs": len(refs),
        "symmetric_families": len(symmetric),
        "failures": failures,
        "ok": not failures,
    }


def spotted_suite(marking: SpottedMarking, max_len=3) -> dict:
    """Surjectivity of spotted eduction via explicit lifts; kernel match."""
    failures = []
    mcg = marking.cap_type.mcg
    perms = list(itertools.permutations(range(1, marking.spots + 1)))
    targets = [(cap, perm) for cap in mcg.elements() for perm in perms]
    for cap, perm in targets:
        lifted = sequence.spotted_lift(marking, cap, perm)
        if sequence.spotted_educe(marking, lifted) != (cap, perm):
            _fail(
                failures,
                lambda: f"spotted lift misses ({mcg.elem_to_text(cap)}, {perm})",
            )
    alphabet = []
    for a in range(1, marking.spots + 1):
        for _, elem in marking.cap_type.pi1.generators():
            alphabet.append(sequence.SpotSlide(a, elem))
        alphabet.append(sequence.SpotTwist(a))
    for a in range(1, marking.spots + 1):
        for b in range(a + 1, marking.spots + 1):
            alphabet.append(sequence.SpotSwap(a, b))
    for elem in mcg.elements():
        if not mcg.is_identity(elem):
            alphabet.append(sequence.CapAut(elem))
    identity = (mcg.identity, tuple(range(1, marking.spots + 1)))
    words = 0
    kernel = 0
    for length in range(0, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            words += 1
            cap, perm = sequence.spotted_educe(marking, combo)
            trivial = (cap, perm) == identity
            expected_trivial = _spotted_expected_trivial(marking, combo)
            if trivial != expected_trivial:
                _fail(failures, lambda: f"kernel mismatch on {combo!r}")
            if trivial:
                kernel += 1
    return {
        "suite": "spotted",
        "surjectivity_targets": len(targets),
        "words": words,
        "kernel_words": kernel,
        "failures": failures,
        "ok": not failures,
    }


def _spotted_expected_trivial(marking, letters) -> bool:
    """Independent kernel oracle: multiply components symbolically."""
    mcg = marking.cap_type.mcg
    cap = mcg.identity
    perm = {i: i for i in range(1, marking.spots + 1)}
    for lt in letters:
        if isinstance(lt, sequence.CapAut):
            cap = mcg.mul(cap, lt.token)
        elif isinstance(lt, sequence.SpotSwap):
            perm = {
                i: (lt.b if v == lt.a else lt.a if v == lt.b else v)
                for i, v in perm.items()
            }
    return mcg.is_identity(cap) and all(perm[i] == i for i in perm)


def roundtrip_suite(manifold: PrimeDecomposition, seed=7, cases=200) -> dict:
    """parse(serialize(x)) == x for manifolds, families, words, assignments."""
    rng = random.Random(seed)
    failures = []
    if textio.parse_manifold(textio.manifold_text(manifold)) != manifold:
        _fail(failures, "manifold round-trip failed")
    symmetric, _ = enumerate_symmetric(manifold)
    for fam, _nonsep in symmetric[: cases // 4]:
        if textio.parse_family(textio.family_text(fam)) != fam:
            _fail(failures, lambda: f"family round-trip failed: {fam}")
    for _ in range(cases):
        word = random_word(manifold, rng, max_len=5)
        text = textio.word_text(word)
        if textio.parse_word(manifold, text) != word:
            _fail(failures, f"word round-trip failed: {text}")
        u = random_fpword(manifold, rng, max_len=4)
        if textio.parse_fpword(manifold, textio.fpword_text(manifold, u)) != u:
            _fail(failures, "pi1 word round-trip failed")
    for _fam, nonsep in symmetric[:10]:
        for assignment in itertools.islice(allowable_assignments(manifold, nonsep), 4):
            text = textio.assignment_text(assignment)
            if textio.parse_assignment(manifold, text) != assignment:
                _fail(failures, "assignment round-trip failed")
    for image in itertools.islice(_wreath_images(manifold), 50):
        data = textio.image_to_jsonable(manifold, image)
        if textio.image_from_jsonable(manifold, data) != image:
            _fail(failures, "eduction image round-trip failed")
    return {
        "suite": "roundtrip",
        "cases": cases,
        "failures": failures,
        "ok": not failures,
    }


SUITES = {
    "exactness": exactness_suite,
    "normalization": normalization_suite,
    "pi1": pi1_suite,
    "relations": relations_suite,
    "spotted": spotted_suite,
    "roundtrip": roundtrip_suite,
}
