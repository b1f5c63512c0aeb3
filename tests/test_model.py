import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mcgseq import build_manifold, model
from mcgseq.errors import (
    InvalidFamily,
    NotReducible,
    NotSymmetric,
    OracleError,
    ParseError,
)
from mcgseq.model import (
    Assignment,
    Forest,
    HomeoType,
    LaminarFamily,
    PrimeDecomposition,
    ROOT,
    allowable,
    associated_separating,
    classify_system,
    e_label,
    identity_assignment,
    s_label,
    standard_system,
    validate_laminar,
)
from mcgseq.oracles import CyclicOracle, OracleAut, TableOracle

Z2 = TableOracle(("1", "tau"), ((0, 1), (1, 0)))


def make_type(name="A"):
    pi1 = CyclicOracle(2)
    return HomeoType(name, pi1, Z2, (("tau", OracleAut.from_map(pi1, {"g1": 1})),))


def generic_manifold(k, ell):
    return PrimeDecomposition(tuple(make_type() for _ in range(k)), ell)


class TestBuildManifold:
    def test_two_summands_one_handle(self, k2l1):
        assert k2l1.k == 2 and k2l1.ell == 1
        labels = k2l1.labels()
        assert set(labels) == {
            s_label(1),
            s_label(2),
            e_label(1, 1),
            e_label(1, -1),
        }

    def test_pure_handles(self):
        manifold = build_manifold("handles 2\n")
        assert manifold.k == 0 and manifold.ell == 2
        assert len(manifold.labels()) == 4

    def test_not_reducible(self):
        with pytest.raises(NotReducible):
            build_manifold(
                "type A pi1=Z/2 mcg=Z/1\nsummand 1 A\nhandles 0\n"
            )

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            build_manifold("frobnicate 3\n")

    def test_bad_act_table_rejected(self):
        # tau must act with order dividing 2; sending g1 -> g1^2 = 1 is not
        # an automorphism of Z/3 paired with an involution's inverse
        with pytest.raises(OracleError):
            build_manifold(
                "type A pi1=Z/3 mcg=table[1,tau;1,tau|tau,1] act=tau:g1^0\n"
                "summand 1 A\nsummand 2 A\nhandles 0\n"
            )


class TestHomeoType:
    def test_act_must_cover_generators(self):
        pi1 = CyclicOracle(2)
        with pytest.raises(OracleError):
            HomeoType("A", pi1, Z2, ())

    def test_table_of_element_composes(self):
        z3 = CyclicOracle(3)
        z4_mcg = CyclicOracle(4)
        # g1 of Z/4 acts by inversion on Z/3 (order 2 divides 4)
        t = HomeoType(
            "T", z3, z4_mcg, ((1, OracleAut.from_map(z3, {"g1": 2})),)
        )
        table = t.pi1_table(2)  # inversion twice = identity
        assert table.is_identity()

    def test_non_invertible_action_rejected(self):
        z4 = CyclicOracle(4)
        z2_mcg = CyclicOracle(2)
        with pytest.raises(OracleError):
            # g1 -> g1^2 is not injective on Z/4
            HomeoType("T", z4, z2_mcg, ((1, OracleAut.from_map(z4, {"g1": 2})),))


class TestStandardSystem:
    def test_examples(self, k2l1):
        std = standard_system(k2l1)
        assert set(std.blocks) == {
            frozenset({s_label(1)}),
            frozenset({s_label(2)}),
            frozenset({e_label(1, 1)}),
        }

    def test_pure_handles(self):
        std = standard_system(build_manifold("handles 2\n"))
        assert set(std.blocks) == {
            frozenset({e_label(1, 1)}),
            frozenset({e_label(2, 1)}),
        }

    def test_one_summand_one_handle(self):
        manifold = build_manifold(
            "type A pi1=Z/2 mcg=Z/1\nsummand 1 A\nhandles 1\n"
        )
        std = standard_system(manifold)
        assert set(std.blocks) == {
            frozenset({s_label(1)}),
            frozenset({e_label(1, 1)}),
        }

    @pytest.mark.parametrize(
        "k,ell",
        [(k, ell) for k in range(0, 5) for ell in range(0, 4) if k + ell >= 2 or ell >= 1],
    )
    def test_standard_is_symmetric_exhaustive(self, k, ell):
        if k + ell < 2 and ell == 0:
            return
        manifold = generic_manifold(k, ell)
        cls = classify_system(manifold, standard_system(manifold))
        assert cls.is_symmetric


class TestValidateLaminar:
    def test_nested_ok(self, k2l1):
        report = validate_laminar(
            k2l1, [{s_label(1)}, {s_label(1), e_label(1, 1)}]
        )
        assert report.ok and not report.duplicates

    def test_overlap_named(self, k2l1):
        report = validate_laminar(
            k2l1,
            [{s_label(1), e_label(1, 1)}, {s_label(2), e_label(1, 1)}],
        )
        assert not report.ok
        assert report.violations[0].code == "overlap"
        assert len(report.violations[0].blocks) == 2

    def test_full_block(self, k2l1):
        block = set(k2l1.labels())
        report = validate_laminar(k2l1, [block])
        assert not report.ok
        assert any(v.code == "full-block" for v in report.violations)

    def test_duplicates_flagged_not_fatal(self, k2l1):
        report = validate_laminar(k2l1, [{s_label(1)}, {s_label(1)}])
        assert report.ok
        assert report.duplicates == (frozenset({s_label(1)}),)

    def test_stray_label_orders_overlap_and_duplicates(self, mstar):
        # s3 lies outside L; in label_key order it sorts after s1 and s2 and
        # before every handle end, so {s1,s3} comes first among the blocks
        a = frozenset({s_label(1), e_label(1, 1)})
        b = frozenset({s_label(3), e_label(1, 1)})
        c = frozenset({s_label(1), s_label(3)})
        report = validate_laminar(mstar, [a, b, c, a, c])
        assert [v.code for v in report.violations] == ["unknown-label"] * 3 + ["overlap"]
        assert report.violations[-1].blocks == (c, a)
        assert report.violations[-1].message == (
            "blocks {s1,s3} and {s1,e1+} overlap without nesting"
        )
        assert report.duplicates == (c, a)


class TestClassify:
    def test_standard_symmetric(self, k2l1):
        cls = classify_system(k2l1, standard_system(k2l1))
        assert cls.is_symmetric
        assert dict(cls.summand_blocks) == {
            1: frozenset({s_label(1)}),
            2: frozenset({s_label(2)}),
        }

    def test_nested_example_symmetric(self, k2l1):
        # hand-run of the census algorithm on the 4-label instance:
        # {s1} cuts summand 1, {s2} cuts summand 2, {s1,e1+} is
        # non-separating, and regluing e1+~e1- joins the two chambers
        family = LaminarFamily.of(
            [
                {s_label(1)},
                {s_label(1), e_label(1, 1)},
                {s_label(2)},
            ]
        )
        cls = classify_system(k2l1, family)
        info = {i.block: i for i in cls.per_block}
        assert not info[frozenset({s_label(1), e_label(1, 1)})].separating
        assert info[frozenset({s_label(1)})].separating
        assert cls.is_symmetric

    def test_block_count_mismatch(self, k2l1):
        family = LaminarFamily.of([{s_label(1)}, {s_label(2)}])
        assert not classify_system(k2l1, family).is_symmetric

    def test_nested_summand_blocks_rejected(self):
        # census {s1} around block {s1,s2} looks one-holed but the piece is
        # a two-holed summand once {s2} is cut out; the classifier must say no
        manifold = generic_manifold(2, 1)
        family = LaminarFamily.of(
            [{s_label(2)}, {s_label(1), s_label(2)}, {e_label(1, 1)}]
        )
        assert not classify_system(manifold, family).is_symmetric

    def test_self_handle_loop_rejected(self):
        manifold = generic_manifold(1, 2)
        family = LaminarFamily.of(
            [
                {s_label(1), e_label(1, 1), e_label(1, -1)},
                {e_label(1, 1)},
                {e_label(1, -1)},
            ]
        )
        assert not classify_system(manifold, family).is_symmetric

    def test_order_stability(self, k2l1):
        blocks = [
            {s_label(1)},
            {s_label(1), e_label(1, 1)},
            {s_label(2)},
        ]
        results = set()
        for perm in itertools.permutations(blocks):
            fam = LaminarFamily.of(perm)
            results.add(classify_system(k2l1, fam).is_symmetric)
        assert results == {True}

    def test_invalid_family_raises(self, k2l1):
        family = LaminarFamily.of(
            [{s_label(1), e_label(1, 1)}, {s_label(2), e_label(1, 1)}]
        )
        with pytest.raises(InvalidFamily):
            classify_system(k2l1, family)


def _reference_innermost(masks, bit):
    containing = [i for i, m in enumerate(masks) if m & bit]
    if not containing:
        return ROOT
    return min(containing, key=lambda i: (masks[i].bit_count(), -i))


def _reference_handles_connect(manifold, masks, summand_masks):
    """Adjacency sets and a depth-first search over the non-summand
    chambers: the reference for the union-find in model._handles_connect."""
    bits = manifold.label_bits
    nodes = {ROOT} | {i for i, m in enumerate(masks) if m not in summand_masks}
    adj = {n: set() for n in nodes}
    for j in range(1, manifold.ell + 1):
        a = _reference_innermost(masks, bits[e_label(j, 1)])
        b = _reference_innermost(masks, bits[e_label(j, -1)])
        if a not in nodes or b not in nodes or a == b:
            return False
        adj[a].add(b)
        adj[b].add(a)
    seen = {ROOT}
    stack = [ROOT]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == nodes


def _reference_is_symmetric(manifold, masks):
    k, ell = manifold.k, manifold.ell
    distinct = set(masks)
    if not len(distinct) == len(masks) == k + ell:
        return False
    singles = {manifold.label_bits[s_label(i)] for i in range(1, k + 1)}
    if not singles <= distinct or any(
        model._separates(manifold, m) for m in distinct - singles
    ):
        return False
    return not ell or _reference_handles_connect(manifold, masks, singles)


def _laminar_mask_tuples(manifold, size):
    """Every laminar tuple of ``size`` distinct block masks, in the order of
    ``combinations`` of the blocks."""
    labels = manifold.labels()
    blocks = [
        manifold.mask_of(combo)
        for r in range(1, len(labels))
        for combo in itertools.combinations(labels, r)
    ]

    def extend(chosen, start):
        if len(chosen) == size:
            yield chosen
            return
        for i in range(start, len(blocks)):
            b = blocks[i]
            if all(a & b in (0, a, b) for a in chosen):
                yield from extend(chosen + (b,), i + 1)

    return extend((), 0)


class TestSymmetryOnMasks:
    SHAPES = [(2, 2), (0, 3), (3, 1), (2, 1), (0, 2), (1, 2)]

    def test_matches_reference_on_every_candidate(self):
        candidates = symmetric = 0
        for k, ell in self.SHAPES:
            manifold = generic_manifold(k, ell)
            singles = {1 << n for n in range(k)}
            for masks in _laminar_mask_tuples(manifold, k + ell):
                candidates += 1
                expected = _reference_is_symmetric(manifold, masks)
                symmetric += expected
                assert model._is_symmetric(manifold, masks) == expected, masks
                assert model._is_symmetric(manifold, masks[::-1]) == expected, masks
                blocks = tuple(m for m in masks if m not in singles)
                assert model._handles_connect(
                    manifold, blocks
                ) == _reference_handles_connect(manifold, masks, singles), masks
        assert (candidates, symmetric) == (24_955, 2_540)

    def test_parallel_copies_match_reference(self):
        # a copy of a summand block leaves fewer chambers than handles plus
        # one, so a handle with both ends in one chamber is decisive
        checked = connected = 0
        for k, ell in self.SHAPES:
            manifold = generic_manifold(k, ell)
            singles = {1 << n for n in range(k)}
            for masks in _laminar_mask_tuples(manifold, k + ell - 1):
                for copy in masks:
                    tup = masks + (copy,)
                    checked += 1
                    expected = _reference_handles_connect(manifold, tup, singles)
                    connected += expected
                    blocks = tuple(m for m in tup if m not in singles)
                    assert model._handles_connect(manifold, blocks) == expected
                    assert not model._is_symmetric(manifold, tup)
        assert checked == 20_148 and connected > 0


class TestAssociatedSeparating:
    def test_first(self, mstar):
        assert associated_separating(mstar, 1) == frozenset(
            {e_label(1, 1), e_label(1, -1)}
        )

    def test_second(self, mstar):
        assert associated_separating(mstar, 2) == frozenset(
            {e_label(2, 1), e_label(2, -1)}
        )

    def test_out_of_range(self, mstar):
        with pytest.raises(IndexError):
            associated_separating(mstar, 3)


class TestAllowable:
    def test_identity(self, mstar):
        assert allowable(mstar, standard_system(mstar), identity_assignment(mstar))

    def test_wrong_type_rejected(self, mixed_types):
        std = standard_system(mixed_types)
        mapping = identity_assignment(mixed_types).as_dict()
        # d(1) (type A) onto the block cutting summand 3 (type B)
        mapping[("d", 1)] = (frozenset({s_label(3)}), None)
        mapping[("d", 3)] = (frozenset({s_label(1)}), None)
        assert not allowable(mixed_types, std, Assignment.of(mapping))

    def test_broken_pairing_rejected(self, mstar):
        std = standard_system(mstar)
        mapping = identity_assignment(mstar).as_dict()
        mapping[("d", 1, 1)] = (frozenset({e_label(1, 1)}), "in")
        mapping[("d", 1, -1)] = (frozenset({e_label(2, 1)}), "out")
        mapping[("d", 2, 1)] = (frozenset({e_label(2, 1)}), "in")
        mapping[("d", 2, -1)] = (frozenset({e_label(1, 1)}), "out")
        assert not allowable(mstar, std, Assignment.of(mapping))

    def test_requires_symmetric(self, mstar):
        family = LaminarFamily.of([{s_label(1)}, {s_label(2)}])
        with pytest.raises(NotSymmetric):
            allowable(mstar, family, identity_assignment(mstar))


def _brute_force_separating(manifold, block):
    """Cut W on the single sphere: two sides, plus an edge per handle that
    crosses; the sphere separates iff the graph stays disconnected."""
    sides = {True: 0, False: 1}
    edges = set()
    for j in range(1, manifold.ell + 1):
        a = sides[e_label(j, 1) in block]
        b = sides[e_label(j, -1) in block]
        edges.add((min(a, b), max(a, b)))
    return (0, 1) not in edges


class TestSeparating:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_against_connectivity_oracle(self, data):
        manifold = generic_manifold(2, 2)
        labels = list(manifold.labels())
        block = frozenset(
            data.draw(
                st.sets(st.sampled_from(labels), min_size=1, max_size=len(labels) - 1)
            )
        )
        cls = classify_system(manifold, LaminarFamily.of([block]))
        assert cls.per_block[0].separating == _brute_force_separating(
            manifold, block
        )


def _all_laminar_families(labels, max_blocks):
    blocks = []
    for r in range(1, len(labels)):
        for combo in itertools.combinations(labels, r):
            blocks.append(frozenset(combo))

    def compat(a, b):
        return a <= b or b <= a or not (a & b)

    for size in range(0, max_blocks + 1):
        for combo in itertools.combinations(blocks, size):
            if all(compat(a, b) for a, b in itertools.combinations(combo, 2)):
                yield combo


class TestForest:
    def test_forest_matches_bruteforce_nesting(self):
        manifold = generic_manifold(2, 1)
        labels = manifold.labels()
        count = 0
        for combo in _all_laminar_families(labels, 3):
            fam = LaminarFamily.of(combo)
            forest = Forest(manifold, fam.blocks)
            count += 1
            for i, b in enumerate(fam.blocks):
                supersets = [
                    j
                    for j, other in enumerate(fam.blocks)
                    if j != i and b < other
                ]
                if not supersets:
                    assert forest.parent[i] == ROOT
                else:
                    smallest = min(supersets, key=lambda j: len(fam.blocks[j]))
                    assert forest.parent[i] != ROOT
                    assert len(fam.blocks[forest.parent[i]]) == len(
                        fam.blocks[smallest]
                    )
        assert count > 100

    def test_census_partitions_labels(self, mstar):
        family = LaminarFamily.of(
            [
                {s_label(1)},
                {s_label(1), e_label(1, 1)},
                {s_label(2)},
                {e_label(2, 1)},
            ]
        )
        cls = classify_system(mstar, family)
        censuses = [info.census for info in cls.per_block]
        censuses.append(frozenset(mstar.labels()).difference(*family.blocks))
        union = set()
        total = 0
        for c in censuses:
            union |= c
            total += len(c)
        assert union == set(mstar.labels())
        assert total == len(mstar.labels())

    def test_duplicate_blocks_chain(self, k2l1):
        fam = LaminarFamily.of([{s_label(1)}, {s_label(1)}])
        forest = Forest(k2l1, fam.blocks)
        parents = sorted(forest.parent)
        assert parents == [ROOT, 0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_forest_property_six_labels(self, mstar, data):
        # random laminar families over the 6-label universe: the derived
        # forest has a single parent per block, is acyclic, and every
        # parent is the smallest strict superset (brute-force pair check)
        labels = list(mstar.labels())
        blocks = []
        for _ in range(data.draw(st.integers(0, 5))):
            blocks.append(
                frozenset(
                    data.draw(
                        st.sets(
                            st.sampled_from(labels),
                            min_size=1,
                            max_size=len(labels) - 1,
                        )
                    )
                )
            )
        fam = LaminarFamily.of(blocks)
        if not validate_laminar(mstar, fam.blocks).ok:
            return
        forest = Forest(mstar, fam.blocks)
        for i in range(len(fam.blocks)):
            seen = set()
            node = i
            while node != ROOT:  # acyclicity: the parent chain terminates
                assert node not in seen
                seen.add(node)
                node = forest.parent[node]
            p = forest.parent[i]
            strict_supers = [
                len(fam.blocks[j])
                for j in range(len(fam.blocks))
                if j != i and fam.blocks[i] < fam.blocks[j]
            ]
            if p != ROOT and fam.blocks[p] != fam.blocks[i]:
                assert len(fam.blocks[p]) == min(strict_supers)


def _reference_mask_key(mask):
    """Size, then the list of set-bit indices: the list key ``mask_key``
    had before it was computed from the int."""
    return (mask.bit_count(), [n for n in range(mask.bit_length()) if mask >> n & 1])


class TestMaskKey:
    def test_orders_every_small_mask_as_the_list_key(self):
        masks = list(range(1 << 10))
        assert sorted(masks, key=model.mask_key) == sorted(masks, key=_reference_mask_key)

    @pytest.mark.parametrize("bits", [40, 200])
    def test_orders_random_wide_masks_as_the_list_key(self, bits):
        import random

        rng = random.Random(bits)
        masks = [rng.getrandbits(bits) for _ in range(400)]
        # equal sizes that first differ high up, and sparse masks
        for base in masks[:100]:
            top = base.bit_length() - 1
            for n in range(top - 1, -1, -1):
                if (base >> n & 1) != (base >> top & 1):
                    masks.append(base ^ (1 << n | 1 << top))
                    break
        masks += [sum(1 << rng.randrange(bits) for _ in range(3)) for _ in range(300)]
        masks += masks[:50]  # parallel copies
        rng.shuffle(masks)
        assert sorted(masks, key=model.mask_key) == sorted(masks, key=_reference_mask_key)
        for a, b in zip(masks, masks[1:]):
            new = model.mask_key(a) < model.mask_key(b)
            assert new == (_reference_mask_key(a) < _reference_mask_key(b)), (a, b)


class TestStandardBlocks:
    @pytest.mark.parametrize("k, ell", [(2, 2), (0, 3), (3, 0), (1, 1)])
    def test_standard_system_blocks(self, k, ell):
        m = generic_manifold(k, ell)
        blocks = [frozenset({s_label(i)}) for i in range(1, k + 1)]
        blocks += [frozenset({e_label(j, 1)}) for j in range(1, ell + 1)]
        assert standard_system(m) == LaminarFamily.of(blocks)
        assert standard_system(m).blocks is m.standard_blocks
        # block_of hands out the same objects
        assert all(m.block_of(m.mask_of(b)) is b for b in m.standard_blocks)

    def test_summand_targets_follow_the_types(self, mixed_types):
        m = mixed_types
        for i, targets in enumerate(m.summand_targets, 1):
            assert targets == {
                frozenset({s_label(p)}): p
                for p in range(1, m.k + 1)
                if m.type_of(p) == m.type_of(i)
            }
