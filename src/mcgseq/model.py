"""Manifold description, boundary labels, sphere-system encoding and classifier.

A reducible 3-manifold W is described by its prime decomposition: k
irreducible summands (each an opaque :class:`HomeoType` carrying group
oracles) plus l handles (S^2 x S^1 summands).  Cutting W along the standard
symmetric system leaves a holed 3-sphere whose boundary spheres are the
label universe L: one label s(i) per summand and a pair e(j,+), e(j,-) per
handle.  A sphere system normalized into that holed sphere is encoded by
what each sphere encloses: a laminar multiset of subsets of L.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InvalidFamily, NotReducible, NotSymmetric, OracleError
from .oracles import CyclicOracle, FreeAbelianOracle, GroupOracle, OracleAut
from .values import Value

# ---------------------------------------------------------------------------
# labels

Label = tuple  # ('s', i) or ('e', j, +1/-1)


def s_label(i: int) -> Label:
    return ("s", i)


def e_label(j: int, sign: int) -> Label:
    return ("e", j, sign)


def label_key(lab: Label):
    if lab[0] == "s":
        return (0, lab[1], 0)
    return (1, lab[1], 0 if lab[2] == 1 else 1)


def label_text(lab: Label) -> str:
    if lab[0] == "s":
        return f"s{lab[1]}"
    return f"e{lab[1]}{'+' if lab[2] == 1 else '-'}"


def block_key(block: frozenset):
    return (len(block), sorted(label_key(l) for l in block))


def block_text(block: frozenset) -> str:
    inner = ",".join(label_text(l) for l in sorted(block, key=label_key))
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# homeomorphism types and prime decompositions


class HomeoType(Value):
    """An irreducible summand type: pi1 and mcg oracles plus the mcg action.

    ``act`` maps mcg elements to automorphism tables on the pi1 oracle.
    Every mcg generator must have a table, tables must extend to a
    homomorphism (kind-specific relation checks), and each table must be
    invertible through a declared or derivable inverse token.
    """

    _fields = ("name", "pi1", "mcg", "act")
    __slots__ = _fields + ("_act_by_token",)

    def __init__(
        self,
        name: str,
        pi1: GroupOracle,
        mcg: GroupOracle,
        act: tuple[tuple[object, OracleAut], ...] = (),
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pi1", pi1)
        object.__setattr__(self, "mcg", mcg)
        object.__setattr__(self, "act", act)
        declared = dict(act)
        object.__setattr__(self, "_act_by_token", declared)
        for m, table in declared.items():
            self.mcg.check_element(m)
            if table.oracle != self.pi1:
                raise OracleError(
                    f"type {self.name}: action table of {self.mcg.elem_to_text(m)} "
                    "is not an automorphism of the pi1 oracle"
                )
        for gen_name, gen_elem in self.mcg.generators():
            if gen_elem not in declared:
                raise OracleError(
                    f"type {self.name}: mcg generator {gen_name} has no action table"
                )
        self._validate_relations(declared)
        for m in declared:
            table = self.pi1_table(m)
            inv_table = self.pi1_table(self.mcg.inv(m))
            if not table.then(inv_table).is_identity() or not inv_table.then(
                table
            ).is_identity():
                raise OracleError(
                    f"type {self.name}: action of {self.mcg.elem_to_text(m)} "
                    "is not invertible by its inverse token"
                )

    def _validate_relations(self, declared) -> None:
        mcg = self.mcg
        if isinstance(mcg, CyclicOracle):
            if mcg.order > 1:
                t = declared[mcg.generator("g1")]
                power = OracleAut.identity_aut(self.pi1)
                for _ in range(mcg.order):
                    power = power.then(t)
                if not power.is_identity():
                    raise OracleError(
                        f"type {self.name}: generator action does not have "
                        f"order dividing {mcg.order}"
                    )
        elif mcg.is_finite:  # table oracle: full homomorphism check
            for a, ta in declared.items():
                for b, tb in declared.items():
                    if self.pi1_table(mcg.mul(a, b)) != ta.then(tb):
                        raise OracleError(
                            f"type {self.name}: action tables are not a "
                            "homomorphism"
                        )
        elif isinstance(mcg, FreeAbelianOracle):
            tables = [declared[e] for _, e in mcg.generators()]
            for i, ti in enumerate(tables):
                for tj in tables[i + 1 :]:
                    if ti.then(tj) != tj.then(ti):
                        raise OracleError(
                            f"type {self.name}: abelian mcg actions do not commute"
                        )

    def pi1_table(self, m) -> OracleAut:
        """Automorphism table of an arbitrary mcg element."""
        declared = self._act_by_token
        if m in declared:
            return declared[m]
        out = OracleAut.identity_aut(self.pi1)
        for gen_name, sign in self.mcg.express(m):
            gen_elem = self.mcg.generator(gen_name)
            if sign > 0:
                step = declared[gen_elem]
            else:
                inv_elem = self.mcg.inv(gen_elem)
                step = declared.get(inv_elem)
                if step is None:
                    step = declared[gen_elem].inverse()
            out = out.then(step)
        return out


class PrimeDecomposition(Value):
    """W as an ordered list of irreducible summand types plus a handle count.

    A label is a bit in ``labels()`` order and a block is an ``int`` mask
    over those bits.  The label order, the masks of L, of each handle's two
    ends and of the e(j,+) ends, the standard system's slot masks and
    blocks, the summand targets (for each summand i, the singletons {s(p)}
    of its type, each with its p), the type classes (summand indices
    grouped by type, in index order), the swap pairs (the pairs a < b in
    one class, sorted), the duplicate tokens and the hash are derived
    once, here: hashing the fields would rehash every nested summand type
    on each call.  ``block_of`` memoizes its frozensets in a
    dict keyed by the mask's part inside L, so it holds at most one entry
    per subset of L; it starts with the standard blocks, so it returns
    those same objects.  The ``_identity_image`` slot keeps the identity of
    H(V) once ``sequence.identity_image`` has built it (None until then).
    """

    _fields = ("summands", "handles")
    __slots__ = _fields + (
        "_labels",
        "label_bits",
        "full_mask",
        "handle_masks",
        "plus_ends",
        "standard_slots",
        "standard_blocks",
        "summand_targets",
        "type_classes",
        "swap_pairs",
        "duplicate_tokens",
        "_blocks",
        "_hash",
        "_identity_image",
    )

    def __init__(self, summands: tuple[HomeoType, ...], handles: int):
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "handles", handles)
        if self.handles < 0:
            raise ValueError("handle count must be >= 0")
        if self.handles == 0 and len(self.summands) < 2:
            raise NotReducible(
                f"k={len(self.summands)}, l={self.handles}: W is not reducible"
            )
        k = len(self.summands)
        labels = [s_label(i) for i in range(1, k + 1)]
        for j in range(1, self.handles + 1):
            labels += [e_label(j, 1), e_label(j, -1)]
        # {s(1)}, ..., {s(k)}, {e(1,+)}, ..., {e(l,+)}: block_key order
        slots = [1 << n for n in range(k)]
        slots += [1 << (k + 2 * j) for j in range(self.handles)]
        standard = {m: frozenset({labels[m.bit_length() - 1]}) for m in slots}
        by_type = {}  # one dict per summand type, shared by its summands
        for n, t in enumerate(self.summands):
            by_type.setdefault(t, {})[standard[1 << n]] = n + 1
        classes = tuple(tuple(members.values()) for members in by_type.values())
        derived = {
            "_labels": tuple(labels),
            "label_bits": {lab: 1 << n for n, lab in enumerate(labels)},
            "full_mask": (1 << len(labels)) - 1,
            "handle_masks": tuple(3 << (k + 2 * j) for j in range(self.handles)),
            "plus_ends": sum(slots[k:]),
            "standard_slots": tuple(slots),
            "standard_blocks": tuple(standard.values()),
            "summand_targets": tuple(map(by_type.__getitem__, self.summands)),
            "type_classes": classes,
            "swap_pairs": tuple(sorted(
                (a, b) for c in classes for n, a in enumerate(c) for b in c[n + 1 :]
            )),
            # the duplicate tokens an assignment maps (see Assignment)
            "duplicate_tokens": frozenset(
                [("d", i) for i in range(1, k + 1)]
                + [("d", j, s) for j in range(1, self.handles + 1) for s in (1, -1)]
            ),
            "_blocks": standard,
            "_hash": hash((self.summands, self.handles)),
            "_identity_image": None,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __hash__(self):
        return self._hash

    @property
    def k(self) -> int:
        return len(self.summands)

    @property
    def ell(self) -> int:
        return self.handles

    def type_of(self, i: int) -> HomeoType:
        if not 1 <= i <= self.k:
            raise IndexError(f"summand index {i} out of range 1..{self.k}")
        return self.summands[i - 1]

    def labels(self) -> tuple[Label, ...]:
        return self._labels

    def mask_of(self, block) -> int:
        """The mask of a block of labels in L."""
        bits = self.label_bits
        try:
            return sum(map(bits.__getitem__, block))
        except KeyError:
            raise InvalidFamily(_unknown_label_message(self, frozenset(block)))

    def block_of(self, mask: int) -> frozenset:
        """The block of labels in L whose bits the mask sets."""
        mask &= self.full_mask
        block = self._blocks.get(mask)
        if block is None:
            block = self._blocks[mask] = frozenset(
                lab for lab, bit in self.label_bits.items() if mask & bit
            )
        return block


# ---------------------------------------------------------------------------
# laminar families
#
# Internally a family is a tuple of masks.  Sorting masks by mask_key is
# sorting their blocks by block_key, because bits follow label_key order:
# mask_key is the key that sorts the blocks of act_system's families and
# classify_system's non-separating blocks.


def mask_key(mask: int):
    """A key that orders masks as block_key orders their blocks: by size,
    then by the list of set-bit indices.

    Of two masks of one size, the one whose index list is smaller is the
    one holding the lowest bit where they differ.  So the second part is
    the binary digits read from bit 0 up, with 0 written as 2: its first
    difference decides, and with equal sizes neither string is a prefix of
    the other.  It costs O(|L|) and needs no table.
    """
    return mask.bit_count(), bin(mask)[:1:-1].replace("0", "2")


def is_laminar(masks, full: int) -> bool:
    """No block empty or all of L, and any two blocks nested or disjoint."""
    for n, a in enumerate(masks):
        if not a or a == full:
            return False
        for b in masks[n + 1 :]:
            both = a & b
            if both and both != a and both != b:
                return False
    return True


class LaminarFamily(Value):
    """A sphere system in the holed sphere: a canonical multiset of blocks.

    The ``_nonsep`` slot keeps the pair (manifold, result) once
    ``_symmetric_nonsep_masks``, its one writer, has read the family on
    that manifold; it is left unset until then and takes no part in
    equality, hash, repr, pickling or copying.
    """

    _fields = ("blocks",)
    __slots__ = _fields + ("_nonsep",)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[Label]]) -> "LaminarFamily":
        canon = tuple(sorted((frozenset(b) for b in blocks), key=block_key))
        return cls(canon)

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)


_set_nonsep = LaminarFamily._nonsep.__set__


class Violation(Value):
    # code: 'unknown-label' | 'empty-block' | 'full-block' | 'overlap'
    __slots__ = _fields = ("code", "blocks", "message")


class LaminarReport(Value):
    __slots__ = _fields = ("ok", "violations", "duplicates")


def _unknown_label_message(manifold: PrimeDecomposition, block: frozenset) -> str:
    stray = block - manifold.label_bits.keys()
    return f"block {block_text(block)} uses labels outside L: " + ",".join(
        sorted(label_text(l) for l in stray)
    )


def validate_laminar(manifold: PrimeDecomposition, blocks) -> LaminarReport:
    """Check the laminar family invariants; returns diagnostics, never raises."""
    blocks = [frozenset(b) for b in blocks]
    labels = manifold.label_bits.keys()
    violations: list[Violation] = []
    for b in blocks:
        if b - labels:
            violations.append(
                Violation("unknown-label", (b,), _unknown_label_message(manifold, b))
            )
        if not b:
            violations.append(Violation("empty-block", (b,), "empty block"))
        if b == labels:
            violations.append(
                Violation("full-block", (b,), f"block equals L: {block_text(b)}")
            )
    ordered = sorted(set(blocks), key=block_key)
    overlap = next(
        (
            (a, b)
            for n, a in enumerate(ordered)
            for b in ordered[n + 1 :]
            if a & b not in (frozenset(), a, b)
        ),
        None,
    )
    if overlap:
        a, b = overlap
        violations.append(
            Violation(
                "overlap",
                (a, b),
                f"blocks {block_text(a)} and {block_text(b)} overlap "
                "without nesting",
            )
        )
    duplicates = tuple(b for b in ordered if blocks.count(b) > 1)
    return LaminarReport(not violations, tuple(violations), duplicates)


def family_masks(manifold: PrimeDecomposition, blocks) -> tuple[int, ...]:
    """The masks of a laminar family's blocks, in order.

    Raises InvalidFamily with validate_laminar's first message when the
    blocks are not a laminar family over L.
    """
    try:
        masks = tuple(map(manifold.mask_of, blocks))
    except InvalidFamily:  # labels outside L; report the first violation
        masks = None
    if masks is None or not is_laminar(masks, manifold.full_mask):
        raise InvalidFamily(validate_laminar(manifold, blocks).violations[0].message)
    return masks


ROOT = -1  # chamber id of the root (basepoint) chamber


def _nesting_parents(masks) -> list[int]:
    """Each block's parent: its smallest superset, the latest among equals.

    Equal (parallel) blocks are chained by index: the later copy nests
    inside the earlier one.
    """
    sizes = [m.bit_count() for m in masks]
    parent = [ROOT] * len(masks)
    for i, b in enumerate(masks):
        candidates = [
            j
            for j, c in enumerate(masks)
            if j != i and b & c == b and (b != c or j < i)
        ]
        if candidates:
            parent[i] = min(candidates, key=lambda j: (sizes[j], -j))
    return parent


def _innermost(masks, bit: int) -> int:
    """The chamber holding a label: its smallest block, the latest among equals."""
    best, size = ROOT, 0
    for i, m in enumerate(masks):
        if m & bit:
            count = m.bit_count()
            if best == ROOT or count <= size:
                best, size = i, count
    return best


class Forest:
    """Nesting forest of a canonical block tuple.

    The blocks must be a laminar family over L: ``family_masks`` raises
    InvalidFamily otherwise.  Chambers are identified with block indices
    (the region between a block and its children) plus ``ROOT`` for the
    region outside all blocks.  Equal (parallel) blocks are chained by
    index: the later copy nests inside the earlier one.
    """

    def __init__(self, manifold: PrimeDecomposition, blocks: tuple[frozenset, ...]):
        self.manifold = manifold
        self.blocks = tuple(blocks)
        self._masks = family_masks(manifold, self.blocks)
        self.parent: list[int] = _nesting_parents(self._masks)

    def chamber_of_label(self, lab: Label) -> int:
        return _innermost(self._masks, self.manifold.label_bits.get(lab, 0))


def _separates(manifold: PrimeDecomposition, mask: int) -> bool:
    """True iff cutting W on the block's sphere disconnects W.

    A sphere separates iff no handle runs from inside to outside, i.e. the
    block contains both or neither end of every handle: shifted down one
    bit, each e(j,-) lands on its e(j,+).
    """
    return not (mask ^ mask >> 1) & manifold.plus_ends


class BlockInfo(Value):
    # census: labels of the chamber between the block and its children
    __slots__ = _fields = ("block", "separating", "census")


class SystemClass(Value):
    __slots__ = _fields = (
        "per_block",
        "is_symmetric",
        "summand_blocks",  # (i, block) when symmetric
        "nonsep_blocks",
    )


def _handles_connect(manifold: PrimeDecomposition, blocks) -> bool:
    """Cutting on every block and regluing e(j,+)~e(j,-) leaves the
    non-summand chambers connected, each handle joining two of them.

    ``blocks`` are the family's masks without its summand blocks: no
    handle end lies in those, the singletons {s(i)}, so only the other
    blocks are searched.  A handle end's chamber
    is its innermost block, the latest among equals, found with a plain
    loop: the blocks of a laminar family that hold a label are nested, so
    the smallest is the least mask.  A union-find over the chambers, the
    root chamber last, counts the pieces left.
    """
    root_chamber = len(blocks)
    root = list(range(root_chamber + 1))
    pieces = root_chamber + 1
    outside = manifold.full_mask + 1  # above every block: the root chamber
    for pair in manifold.handle_masks:
        plus = pair & -pair  # e(j,+); e(j,-) is the next bit
        minus = pair ^ plus
        a = b = root_chamber
        least_a = least_b = outside
        for i, m in enumerate(blocks):
            if m & plus and m <= least_a:
                a, least_a = i, m
            if m & minus and m <= least_b:
                b, least_b = i, m
        if a == b:
            return False
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a != b:
            root[a] = b
            pieces -= 1
    return pieces == 1


def _is_symmetric(manifold: PrimeDecomposition, masks) -> bool:
    """Whether the masks of a laminar family, in any order, are a symmetric
    system.

    Symmetric means: k+l blocks with no parallel pair; the separating blocks
    are exactly the singletons {s(i)}, one per summand (those cut off the
    one-holed summands); the other l blocks are non-separating; and cutting
    on all blocks then regluing e(j,+)~e(j,-) leaves a single connected
    holed-sphere piece.

    One loop over the masks checks all but the last: a mask within the
    summand labels separates, so it must be a singleton {s(i)} not seen
    before, and any other mask must not separate.  With k+l masks and all k
    singletons seen, the other l are the non-separating blocks, and
    ``_handles_connect`` decides the rest.  A parallel copy of one of them
    leaves an empty chamber, the earlier copy's, which no handle reaches.
    """
    k = manifold.k
    if len(masks) != k + manifold.ell:
        return False
    summands, plus = (1 << k) - 1, manifold.plus_ends
    seen = 0
    blocks = []
    for m in masks:
        if m <= summands:  # separating: a new singleton, or not symmetric
            if not m or m & (m - 1) or m & seen:
                return False
            seen |= m
        elif (m ^ m >> 1) & plus:  # non-separating (see _separates)
            blocks.append(m)
        else:
            return False
    return seen == summands and (not blocks or _handles_connect(manifold, blocks))


def _symmetric_nonsep_masks(manifold: PrimeDecomposition, family: LaminarFamily):
    """A symmetric family's non-separating blocks, in order, each mapped to
    its mask, or None when the laminar family is not symmetric
    (``family_masks`` raises on one that is not laminar).  Its other blocks
    are the singletons {s(i)}, so these are the blocks with a bit at or
    above k; no two are equal, since a symmetric family has no parallel
    blocks.

    The result is kept in the family's ``_nonsep`` slot with the manifold,
    and read back only on that same manifold object; a family that raises
    keeps nothing."""
    try:
        memo = family._nonsep
        if memo[0] is manifold:
            return memo[1]
    except AttributeError:  # not read yet
        pass
    blocks = family.blocks
    masks = family_masks(manifold, blocks)
    nonsep = None
    if _is_symmetric(manifold, masks):
        nonsep = {b: m for b, m in zip(blocks, masks) if m >> manifold.k}
    _set_nonsep(family, (manifold, nonsep))
    return nonsep


def classify_system(manifold: PrimeDecomposition, family: LaminarFamily) -> SystemClass:
    """Classify a family; decide whether it is a symmetric system
    (see ``_is_symmetric``)."""
    masks = family_masks(manifold, family.blocks)
    covered = [0] * len(masks)
    for i, p in enumerate(_nesting_parents(masks)):
        if p != ROOT:
            covered[p] |= masks[i]
    separating = [_separates(manifold, m) for m in masks]
    infos = tuple(
        BlockInfo(b, sep, manifold.block_of(m & ~cov))
        for b, m, sep, cov in zip(family.blocks, masks, separating, covered)
    )
    if not _is_symmetric(manifold, masks):
        return SystemClass(
            per_block=infos, is_symmetric=False, summand_blocks=(), nonsep_blocks=()
        )
    nonsep = sorted((m for m, s in zip(masks, separating) if not s), key=mask_key)
    return SystemClass(
        per_block=infos,
        is_symmetric=True,
        summand_blocks=tuple(enumerate(manifold.standard_blocks[: manifold.k], 1)),
        nonsep_blocks=tuple(map(manifold.block_of, nonsep)),
    )


def standard_system(manifold: PrimeDecomposition) -> LaminarFamily:
    """The canonical symmetric system: singletons {s(i)} and {e(j,+)}."""
    return LaminarFamily(manifold.standard_blocks)


def associated_separating(manifold: PrimeDecomposition, j: int) -> frozenset:
    """The separating sphere around both ends of handle j."""
    if not 1 <= j <= manifold.ell:
        raise IndexError(f"handle index {j} out of range 1..{manifold.ell}")
    return frozenset({e_label(j, 1), e_label(j, -1)})


# ---------------------------------------------------------------------------
# allowable assignments

# token: ('d', i) for summand duplicates, ('d', j, +1/-1) for handle duplicates
# target: (block, side) with side None for summand blocks, 'in'/'out' otherwise
# ``_assignment`` encodes and ``_assignment_state`` decodes it; besides them only
# textio and verify's independent enumerator build or read the mapping.


class Assignment(Value):
    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[tuple, tuple], ...]):
        _set_entries(self, entries)

    @classmethod
    def of(cls, mapping: dict) -> "Assignment":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict:
        return dict(self.entries)

    def target_of(self, token):
        # a scan of the k + 2l entries: a dict built with every assignment
        # costs more time and memory than the few lookups made on it
        for tok, target in self.entries:
            if tok == token:
                return target
        raise KeyError(token)


_set_entries = Assignment.entries.__set__


def _assignment(summand_blocks, handle_blocks, spun) -> Assignment:
    """The assignment sending d(i) to ``summand_blocks[i-1]`` and d(j,+),
    d(j,-) to the 'in' and 'out' sides of ``handle_blocks[j-1]``, the sides
    exchanged where ``spun[j-1]`` is true: the encoder of ``_assignment_state``.

    The entries are emitted in ``Assignment.of``'s sorted token order,
    index by index: d(n), d(n,-), d(n,+).  No dict is built and nothing is
    sorted.
    """
    k, ell = len(summand_blocks), len(handle_blocks)
    entries = []
    for n in range(1, max(k, ell) + 1):
        if n <= k:
            entries.append((("d", n), (summand_blocks[n - 1], None)))
        if n <= ell:
            block, flip = handle_blocks[n - 1], spun[n - 1]
            entries.append((("d", n, -1), (block, "in" if flip else "out")))
            entries.append((("d", n, 1), (block, "out" if flip else "in")))
    return Assignment(tuple(entries))


def identity_assignment(manifold: PrimeDecomposition) -> Assignment:
    std, k = manifold.standard_blocks, manifold.k
    return _assignment(std[:k], std[k:], [False] * manifold.ell)


def allowable(
    manifold: PrimeDecomposition, family: LaminarFamily, assignment: Assignment
) -> bool:
    """True iff the assignment is allowable onto the (symmetric) family,
    that is iff ``_assignment_state`` decodes it."""
    nonsep_masks = _symmetric_nonsep_masks(manifold, family)
    if nonsep_masks is None:
        raise NotSymmetric("allowable assignments target symmetric systems only")
    return _assignment_state(manifold, nonsep_masks, assignment) is not None


def _assignment_state(manifold: PrimeDecomposition, nonsep_masks, assignment):
    """Decode an assignment onto a symmetric family whose non-separating
    blocks are the keys of ``nonsep_masks``, each mapped to its mask (as
    ``_symmetric_nonsep_masks`` returns them), into ``(perm, slots,
    bits)``, or None when it is not allowable: when its tokens are not
    ``duplicate_tokens``, a d(i) has a side or misses the summand blocks
    {s(p)} of its type, two d(i) share a block, a handle's d(j,+) and
    d(j,-) are not the two sides of one non-separating block, or two
    handles share a block.

    ``perm[i]`` is d(i)'s p, ``slots[j-1]`` the mask of handle j's block,
    and bit j-1 of ``bits`` is set when d(j,+) is on the 'out' side.
    Blocks compare as frozensets, so one with a label outside L matches
    none.  The injectivity checks guard ``sequence.perm_transpositions``,
    which never returns on a ``perm`` that is not a bijection.
    """
    mapping = assignment.as_dict()
    if mapping.keys() != manifold.duplicate_tokens:
        return None
    targets = manifold.summand_targets
    perm = {}
    for i in range(1, manifold.k + 1):
        block, side = mapping[("d", i)]
        p = targets[i - 1].get(block)
        if side is not None or p is None:
            return None
        perm[i] = p
    slots, bits = [], 0
    for j in range(1, manifold.ell + 1):
        bp, sp = mapping[("d", j, 1)]
        bm, sm = mapping[("d", j, -1)]
        if bp != bm or bp not in nonsep_masks or {sp, sm} != {"in", "out"}:
            return None
        slots.append(nonsep_masks[bp])
        if sp == "out":
            bits |= 1 << (j - 1)
    if len(set(perm.values())) < manifold.k or len(set(slots)) < manifold.ell:
        return None
    return perm, tuple(slots), bits


def build_manifold(text: str) -> PrimeDecomposition:
    """Parse a manifold description (see docs/formats.md for the grammar)."""
    from . import textio

    return textio.parse_manifold(text)
