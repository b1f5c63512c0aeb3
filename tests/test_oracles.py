import functools

import pytest
from hypothesis import given, strategies as st

from mcgseq.errors import OracleError, ParseError
from mcgseq.oracles import (
    MAX_EXPONENT,
    CyclicOracle,
    FreeAbelianOracle,
    FreeOracle,
    OracleAut,
    TableOracle,
    parse_group_spec,
)

Z2_TABLE = TableOracle(("1", "tau"), ((0, 1), (1, 0)))

# S3 as a table: r = (123), s = (12); row * col = "row, then col"
S3_NAMES = ("1", "r", "r2", "s", "sr", "sr2")


def _s3_perm(name):
    perms = {
        "1": (1, 2, 3),
        "r": (2, 3, 1),
        "r2": (3, 1, 2),
        "s": (2, 1, 3),
        "sr": (3, 2, 1),
        "sr2": (1, 3, 2),
    }
    return perms[name]


def _compose(p, q):
    # apply p, then q
    return tuple(q[p[i] - 1] for i in range(3))


def _s3_table():
    rows = []
    by_perm = {_s3_perm(n): n for n in S3_NAMES}
    for a in S3_NAMES:
        row = []
        for b in S3_NAMES:
            row.append(S3_NAMES.index(by_perm[_compose(_s3_perm(a), _s3_perm(b))]))
        rows.append(tuple(row))
    return TableOracle(S3_NAMES, tuple(rows))


S3 = _s3_table()


class TestCyclic:
    def test_arithmetic(self):
        z5 = CyclicOracle(5)
        assert z5.mul(3, 4) == 2
        assert z5.inv(2) == 3
        assert z5.is_identity(z5.mul(2, 3))

    def test_text(self):
        z5 = CyclicOracle(5)
        assert z5.elem_to_text(0) == "1"
        assert z5.elem_to_text(1) == "g1"
        assert z5.elem_from_text("g1^7") == 2
        with pytest.raises(ParseError):
            z5.elem_from_text("h2")

    def test_express(self):
        z3 = CyclicOracle(3)
        assert z3.express(2) == (("g1", 1), ("g1", 1))


class TestFree:
    def test_reduction(self):
        f2 = FreeOracle(2)
        a = f2.elem_from_text("g1*g2^-1")
        b = f2.elem_from_text("g2*g1")
        assert f2.elem_to_text(f2.mul(a, b)) == "g1*g1"
        assert f2.mul(a, f2.inv(a)) == f2.identity

    @given(st.lists(st.tuples(st.integers(1, 2), st.sampled_from([1, -1])), max_size=8))
    def test_inverse_cancels(self, letters):
        f2 = FreeOracle(2)
        elem = functools.reduce(f2.mul, [((g, e),) for g, e in letters], f2.identity)
        assert f2.mul(elem, f2.inv(elem)) == f2.identity


class TestFreeAbelian:
    def test_mul(self):
        z2 = FreeAbelianOracle(2)
        assert z2.mul((1, -2), (0, 5)) == (1, 3)
        assert z2.elem_from_text("g2^3*g1") == (1, 3)
        assert z2.elem_to_text((0, 0)) == "1"


class TestTable:
    def test_z2(self):
        assert Z2_TABLE.mul("tau", "tau") == "1"
        assert Z2_TABLE.inv("tau") == "tau"
        assert Z2_TABLE.identity == "1"

    def test_s3_is_a_group(self):
        assert S3.mul("r", "r2") == "1"
        assert S3.inv("r") == "r2"
        # r then s: apply r first
        assert _compose(_s3_perm("r"), _s3_perm("s")) == _s3_perm(S3.mul("r", "s"))

    def test_bad_tables_rejected(self):
        with pytest.raises(OracleError):
            TableOracle(("1", "a"), ((0, 1), (1, 1)))  # not a latin square
        with pytest.raises(OracleError):
            TableOracle(("a", "b"), ((1, 0), (1, 0)))  # no identity

    @pytest.mark.parametrize("token", ["q", 1, None, ["tau"], {"tau": 1}])
    def test_unknown_or_unhashable_token_rejected(self, token):
        with pytest.raises(OracleError, match="is not an element of"):
            Z2_TABLE.mul(token, "tau")
        with pytest.raises(OracleError, match="is not an element of"):
            Z2_TABLE.check_element(token)

    def test_abelianization_of_s3(self):
        ab, project = S3.abelianized()
        # independent check: |ab| = |G| / |commutator subgroup| = 6/3 = 2
        assert len(ab.names) == 2
        assert project["r"] == ab.identity
        assert project["s"] != ab.identity
        assert ab.mul(project["s"], project["sr"]) == project["r"] == ab.identity

    def test_abelianization_is_computed_once(self):
        s3 = _s3_table()
        assert s3.abelianized() is s3.abelianized()
        assert s3 == _s3_table() and hash(s3) == hash(_s3_table())

    def test_abelianization_of_abelian_is_identity(self):
        ab, project = Z2_TABLE.abelianized()
        assert len(ab.names) == 2
        assert project["tau"] != ab.identity


class TestParseSpec:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("Z/4", "cyclic"),
            ("F3", "free"),
            ("Z^2", "free-abelian"),
            ("table[1,t;1,t|t,1]", "table"),
        ],
    )
    def test_kinds(self, text, kind):
        assert parse_group_spec(text).kind == kind

    def test_roundtrip(self):
        for text in ["Z/4", "F3", "Z^2", "table[1,t;1,t|t,1]"]:
            oracle = parse_group_spec(text)
            assert parse_group_spec(oracle.spec_text()) == oracle

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_group_spec("Q/8")


class TestOracleAut:
    def test_apply_and_compose(self):
        f2 = FreeOracle(2)
        # g1 -> g1 g2, g2 -> g2
        aut = OracleAut.from_map(
            f2, {"g1": f2.elem_from_text("g1*g2"), "g2": f2.elem_from_text("g2")}
        )
        assert f2.elem_to_text(aut.apply(f2.elem_from_text("g1^2"))) == "g1*g2*g1*g2"
        inv = OracleAut.from_map(
            f2, {"g1": f2.elem_from_text("g1*g2^-1"), "g2": f2.elem_from_text("g2")}
        )
        assert aut.then(inv).is_identity()

    def test_finite_inverse_by_permutation(self):
        z5 = CyclicOracle(5)
        doubling = OracleAut.from_map(z5, {"g1": 2})
        inv = doubling.inverse()
        assert doubling.then(inv).is_identity()

    def test_abelian_matrix_inverse(self):
        z2 = FreeAbelianOracle(2)
        shear = OracleAut.from_map(z2, {"g1": (1, 1), "g2": (0, 1)})
        inv = shear.inverse()
        assert shear.then(inv).is_identity()
        singular = OracleAut.from_map(z2, {"g1": (1, 0), "g2": (1, 0)})
        with pytest.raises(OracleError):
            singular.inverse()

    def test_image_of_unknown_generator(self):
        f2 = FreeOracle(2)
        aut = OracleAut.identity_aut(f2)
        assert aut.image_of("g2") == ((2, 1),)
        for name in ("g3", ["g1"]):
            with pytest.raises(OracleError, match="no image for generator"):
                aut.image_of(name)

    def test_missing_generator_rejected(self):
        f2 = FreeOracle(2)
        with pytest.raises(OracleError):
            OracleAut.from_map(f2, {"g1": f2.elem_from_text("g1")})


class TestExponentBound:
    """Element text may not ask for a power above MAX_EXPONENT: a power of a
    free (or free-abelian) generator expands into that many letters."""

    @pytest.mark.parametrize(
        "oracle, top",
        [
            (CyclicOracle(5), MAX_EXPONENT % 5),
            (FreeOracle(2), ((1, 1),) * MAX_EXPONENT),
            (FreeAbelianOracle(2), (MAX_EXPONENT, 0)),
        ],
    )
    def test_bound(self, oracle, top):
        assert oracle.elem_from_text(f"g1^{MAX_EXPONENT}") == top
        assert oracle.elem_from_text(f"g1^-000{MAX_EXPONENT}") == oracle.inv(top)
        for exp in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1, 10**9, "9" * 5000):
            with pytest.raises(ParseError, match="exceeds"):
                oracle.elem_from_text(f"g1^{exp}")
