"""Pluggable group oracles with a decidable word problem.

Four kinds back the fundamental groups and mapping class groups of
irreducible summands: finite-by-multiplication-table, finite cyclic, free,
and free abelian.  Elements are plain hashable values (int, tuple, str) in
a canonical form owned by the oracle.

Convention: ``mul(a, b)`` means "apply a, then b".  This matches the
left-to-right action convention used for words everywhere in the package.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator

from .errors import OracleError, ParseError
from .values import Value

_NAME_RE = re.compile(r"^(?:1|[A-Za-z][A-Za-z0-9_']*)$")

# Largest |n| accepted in a power ``g<i>^<n>`` of element text: a power
# expands to |n| letters, steps or multiplications.
MAX_EXPONENT = 10_000

# Largest index or count accepted in text: summand, handle, generator,
# factor and spot indices, handle and spot counts, and the order or rank in
# a group spec.  Labels, generators and group elements are built one by one
# up to such a number.
MAX_INDEX = 10_000


def _exceeds(digits: str, bound: int) -> bool:
    """Whether a decimal string, optionally signed, is above bound in absolute
    value; the digit count is checked first, since ``int()`` refuses strings
    of more than 4,300 digits."""
    magnitude = digits.lstrip("-").lstrip("0")
    return len(magnitude) > len(str(bound)) or int(magnitude or 0) > bound


def parse_exponent(digits: str | None, term: str) -> int:
    """The exponent of a power term (1 when absent), at most MAX_EXPONENT."""
    if digits is None:
        return 1
    if _exceeds(digits, MAX_EXPONENT):
        raise ParseError(
            f"exponent in {term!r} exceeds {MAX_EXPONENT} in absolute value"
        )
    return int(digits)


def parse_index(digits: str, term: str) -> int:
    """An unsigned decimal index or count in ``term``, at most MAX_INDEX."""
    if not digits.isdecimal() or _exceeds(digits, MAX_INDEX):
        raise ParseError(f"expected a number from 0 to {MAX_INDEX} in {term!r}")
    return int(digits)


class GroupOracle(Value):
    """Shared behaviour; concrete kinds override the primitives."""

    __slots__ = ()
    kind: str = "?"

    # -- primitives ------------------------------------------------------
    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def generators(self) -> tuple[tuple[str, object], ...]:
        """Ordered (name, element) pairs generating the group."""
        raise NotImplementedError

    def check_element(self, a) -> None:
        raise NotImplementedError

    def express(self, a) -> tuple[tuple[str, int], ...]:
        """Write ``a`` as a product of generators, as (gen_name, ±1) steps."""
        raise NotImplementedError

    def elem_to_text(self, a) -> str:
        raise NotImplementedError

    def elem_from_text(self, text: str):
        raise NotImplementedError

    def spec_text(self) -> str:
        raise NotImplementedError

    # -- derived ---------------------------------------------------------
    def is_identity(self, a) -> bool:
        return a == self.identity

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> Iterator:
        raise OracleError(f"{self.kind} oracle is not finite; cannot enumerate")

    def gen_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators())

    def generator(self, name: str):
        for n, e in self.generators():
            if n == name:
                return e
        raise OracleError(f"unknown generator {name!r} of {self.spec_text()}")

    def power(self, a, n: int):
        if n < 0:
            return self.power(self.inv(a), -n)
        out = self.identity
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def abelianized(self) -> tuple["GroupOracle", dict | None]:
        """The abelianization and a projection.

        Returns ``(oracle, project)`` where ``project`` is either None
        (projection is the identity / canonical on elements) or a dict for
        table kinds.  Use :meth:`ab_project` rather than this directly.
        """
        raise NotImplementedError

    def ab_project(self, a):
        """Image of ``a`` in the abelianization oracle."""
        oracle, table = self.abelianized()
        if table is None:
            return a
        return table[a]


class CyclicOracle(GroupOracle):
    """Z/n; elements are ints 0..n-1, the generator is g1 = 1."""

    __slots__ = _fields = ("order",)
    kind = "cyclic"

    def __init__(self, order: int):
        if order < 1:
            raise OracleError("cyclic order must be >= 1")
        object.__setattr__(self, "order", order)

    @property
    def identity(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self.order

    def inv(self, a):
        return (-a) % self.order

    def generators(self):
        if self.order == 1:
            return ()
        return (("g1", 1),)

    def check_element(self, a):
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise OracleError(f"{a!r} is not an element of Z/{self.order}")

    def express(self, a):
        self.check_element(a)
        return tuple([("g1", 1)] * a)

    def elem_to_text(self, a):
        self.check_element(a)
        if a == 0:
            return "1"
        if a == 1:
            return "g1"
        return f"g1^{a}"

    def elem_from_text(self, text):
        if text == "1":
            return 0
        m = re.fullmatch(r"g1(?:\^(-?\d+))?", text)
        if not m or self.order == 1:
            raise ParseError(f"bad Z/{self.order} element {text!r}")
        return parse_exponent(m.group(1), text) % self.order

    def spec_text(self):
        return f"Z/{self.order}"

    @property
    def is_finite(self):
        return True

    def elements(self):
        return iter(range(self.order))

    def abelianized(self):
        return self, None


def _free_reduce_pairs(seq):
    out = []
    for g, e in seq:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


class FreeOracle(GroupOracle):
    """Free group of rank r; elements are reduced tuples of (index, ±1)."""

    __slots__ = _fields = ("rank",)
    kind = "free"

    def __init__(self, rank: int):
        if rank < 1:
            raise OracleError("free rank must be >= 1")
        object.__setattr__(self, "rank", rank)

    @property
    def identity(self):
        return ()

    def mul(self, a, b):
        return _free_reduce_pairs(list(a) + list(b))

    def inv(self, a):
        return tuple((g, -e) for g, e in reversed(a))

    def generators(self):
        return tuple((f"g{i}", ((i, 1),)) for i in range(1, self.rank + 1))

    def check_element(self, a):
        if not isinstance(a, tuple):
            raise OracleError(f"{a!r} is not a free-group element")
        for item in a:
            if (
                not isinstance(item, tuple)
                or len(item) != 2
                or not 1 <= item[0] <= self.rank
                or item[1] not in (1, -1)
            ):
                raise OracleError(f"bad free-group letter {item!r}")
        if _free_reduce_pairs(a) != a:
            raise OracleError(f"{a!r} is not reduced")

    def express(self, a):
        self.check_element(a)
        return tuple((f"g{g}", e) for g, e in a)

    def elem_to_text(self, a):
        self.check_element(a)
        if not a:
            return "1"
        return "*".join(f"g{g}" + ("" if e == 1 else "^-1") for g, e in a)

    def elem_from_text(self, text):
        if text == "1":
            return ()
        letters = []
        for part in text.split("*"):
            m = re.fullmatch(r"g(\d+)(?:\^(-?\d+))?", part)
            if not m:
                raise ParseError(f"bad free-group letter {part!r}")
            g, exp = parse_index(m.group(1), part), parse_exponent(m.group(2), part)
            if not 1 <= g <= self.rank:
                raise ParseError(f"generator g{g} out of range for F{self.rank}")
            sign = 1 if exp > 0 else -1
            letters.extend([(g, sign)] * abs(exp))
        return _free_reduce_pairs(letters)

    def spec_text(self):
        return f"F{self.rank}"

    def abelianized(self):
        return FreeAbelianOracle(self.rank), None

    def ab_project(self, a):
        vec = [0] * self.rank
        for g, e in a:
            vec[g - 1] += e
        return tuple(vec)


class FreeAbelianOracle(GroupOracle):
    """Z^r; elements are integer r-tuples."""

    __slots__ = _fields = ("rank",)
    kind = "free-abelian"

    def __init__(self, rank: int):
        if rank < 1:
            raise OracleError("free-abelian rank must be >= 1")
        object.__setattr__(self, "rank", rank)

    @property
    def identity(self):
        return (0,) * self.rank

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def generators(self):
        basis = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            basis.append((f"g{i + 1}", tuple(v)))
        return tuple(basis)

    def check_element(self, a):
        if (
            not isinstance(a, tuple)
            or len(a) != self.rank
            or not all(isinstance(x, int) for x in a)
        ):
            raise OracleError(f"{a!r} is not an element of Z^{self.rank}")

    def express(self, a):
        self.check_element(a)
        steps = []
        for i, x in enumerate(a):
            sign = 1 if x > 0 else -1
            steps.extend([(f"g{i + 1}", sign)] * abs(x))
        return tuple(steps)

    def elem_to_text(self, a):
        self.check_element(a)
        parts = [
            f"g{i + 1}" + ("" if x == 1 else f"^{x}")
            for i, x in enumerate(a)
            if x != 0
        ]
        return "*".join(parts) if parts else "1"

    def elem_from_text(self, text):
        vec = [0] * self.rank
        if text == "1":
            return tuple(vec)
        for part in text.split("*"):
            m = re.fullmatch(r"g(\d+)(?:\^(-?\d+))?", part)
            if not m:
                raise ParseError(f"bad Z^{self.rank} term {part!r}")
            g, exp = parse_index(m.group(1), part), parse_exponent(m.group(2), part)
            if not 1 <= g <= self.rank:
                raise ParseError(f"generator g{g} out of range for Z^{self.rank}")
            vec[g - 1] += exp
        return tuple(vec)

    def spec_text(self):
        return f"Z^{self.rank}"

    def abelianized(self):
        return self, None


class TableOracle(GroupOracle):
    """Finite group given by its full multiplication table.

    ``names`` lists the elements; ``table[i][j]`` is the index of
    names[i] * names[j] ("apply names[i], then names[j]").
    """

    _fields = ("names", "table")
    __slots__ = _fields + ("_identity_index", "_index_of", "_abelianization")
    kind = "table"

    def __init__(self, names: tuple[str, ...], table: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)
        # set on first use: the quotient is a TableOracle, so building it here
        # would recurse
        object.__setattr__(self, "_abelianization", None)
        n = len(self.names)
        if n == 0:
            raise OracleError("empty multiplication table")
        if len(set(self.names)) != n:
            raise OracleError("duplicate element names in table")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise OracleError(f"bad element name {name!r}")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise OracleError("multiplication table is not square")
        for row in self.table:
            if any(not 0 <= v < n for v in row):
                raise OracleError("table entry out of range")
        ident = None
        for i in range(n):
            if all(self.table[i][j] == j and self.table[j][i] == j for j in range(n)):
                ident = i
                break
        if ident is None:
            raise OracleError("table has no identity element")
        # Latin-square rows/columns give inverses; associativity is checked
        # exhaustively (tables are desk-scale).
        for i in range(n):
            if set(self.table[i]) != set(range(n)):
                raise OracleError(f"row {self.names[i]!r} is not a permutation")
            if {self.table[j][i] for j in range(n)} != set(range(n)):
                raise OracleError(f"column {self.names[i]!r} is not a permutation")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if (
                        self.table[self.table[i][j]][k]
                        != self.table[i][self.table[j][k]]
                    ):
                        raise OracleError("table is not associative")
        object.__setattr__(self, "_identity_index", ident)
        object.__setattr__(
            self, "_index_of", {name: i for i, name in enumerate(self.names)}
        )

    def _index(self, a) -> int:
        try:
            return self._index_of[a]
        except (KeyError, TypeError):  # TypeError: an unhashable token
            raise OracleError(
                f"{a!r} is not an element of {self.spec_text()}"
            ) from None

    @property
    def identity(self):
        return self.names[self._identity_index]

    def mul(self, a, b):
        return self.names[self.table[self._index(a)][self._index(b)]]

    def inv(self, a):
        i = self._index(a)
        for j in range(len(self.names)):
            if self.table[i][j] == self._identity_index:
                return self.names[j]
        raise OracleError(f"{a!r} has no inverse")  # unreachable after validation

    def generators(self):
        # Every non-identity element is treated as a generator, so action
        # tables must cover all of them and extension is trivial.
        return tuple(
            (name, name) for name in self.names if name != self.identity
        )

    def check_element(self, a):
        self._index(a)

    def express(self, a):
        if a == self.identity:
            return ()
        return ((a, 1),)

    def elem_to_text(self, a):
        self.check_element(a)
        return a

    def elem_from_text(self, text):
        if text not in self.names:
            raise ParseError(f"{text!r} is not an element of {self.spec_text()}")
        return text

    def spec_text(self):
        rows = "|".join(
            ",".join(self.names[v] for v in row) for row in self.table
        )
        return f"table[{','.join(self.names)};{rows}]"

    @property
    def is_finite(self):
        return True

    def elements(self):
        return iter(self.names)

    def abelianized(self):
        if self._abelianization is None:
            object.__setattr__(self, "_abelianization", self._abelianize())
        return self._abelianization

    def _abelianize(self):
        commutators = set()
        for a in self.names:
            for b in self.names:
                commutators.add(
                    self.mul(self.mul(a, b), self.inv(self.mul(b, a)))
                )
        subgroup = {self.identity}
        frontier = set(commutators)
        while frontier:
            new = set()
            for x in frontier:
                for y in commutators:
                    z = self.mul(x, y)
                    if z not in subgroup and z not in frontier:
                        new.add(z)
            subgroup |= frontier
            frontier = new
        cosets: dict[str, frozenset] = {}
        for a in self.names:
            coset = frozenset(self.mul(a, h) for h in subgroup)
            cosets[a] = coset
        reps = {}
        for a in sorted(self.names):
            if cosets[a] not in reps.values():
                reps[a] = cosets[a]
        rep_of = {
            a: next(r for r, c in reps.items() if cosets[a] == c)
            for a in self.names
        }
        names = tuple(sorted(reps, key=lambda r: (r != self.identity, r)))
        idx = {name: i for i, name in enumerate(names)}
        table = tuple(
            tuple(idx[rep_of[self.mul(x, y)]] for y in names) for x in names
        )
        return TableOracle(names, table), rep_of


def parse_group_spec(text: str) -> GroupOracle:
    """Parse a group spec: ``Z/5``, ``F2``, ``Z^3`` or ``table[...;...]``."""
    text = text.strip()
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        return CyclicOracle(parse_index(m.group(1), text))
    m = re.fullmatch(r"F(\d+)", text)
    if m:
        return FreeOracle(parse_index(m.group(1), text))
    m = re.fullmatch(r"Z\^(\d+)", text)
    if m:
        return FreeAbelianOracle(parse_index(m.group(1), text))
    m = re.fullmatch(r"table\[([^;\]]*);(.*)\]", text)
    if m:
        names = tuple(n.strip() for n in m.group(1).split(","))
        rows = m.group(2).split("|")
        if len(rows) != len(names):
            raise ParseError(f"table needs {len(names)} rows, got {len(rows)}")
        index = {n: i for i, n in enumerate(names)}
        table = []
        for row in rows:
            cells = [c.strip() for c in row.split(",")]
            if len(cells) != len(names):
                raise ParseError(f"table row {row!r} has wrong length")
            try:
                table.append(tuple(index[c] for c in cells))
            except KeyError as exc:
                raise ParseError(f"unknown element {exc.args[0]!r} in table row")
        try:
            return TableOracle(names, tuple(table))
        except OracleError as exc:
            raise ParseError(str(exc))
    raise ParseError(f"unrecognized group spec {text!r}")


class OracleAut(Value):
    """An automorphism of an oracle group, tabulated on its generators."""

    _fields = ("oracle", "images")
    __slots__ = _fields + ("_image_by_name",)

    def __init__(self, oracle: GroupOracle, images: tuple[tuple[str, object], ...]):
        object.__setattr__(self, "oracle", oracle)
        object.__setattr__(self, "images", images)  # (gen_name, image element)
        # reversed: the first entry of a repeated name wins, as in a scan
        object.__setattr__(self, "_image_by_name", dict(reversed(images)))
        declared = set(self._image_by_name)
        expected = set(self.oracle.gen_names())
        if declared != expected:
            raise OracleError(
                f"automorphism table covers {sorted(declared)}, "
                f"expected {sorted(expected)}"
            )
        for _, img in self.images:
            self.oracle.check_element(img)

    @classmethod
    def from_map(cls, oracle: GroupOracle, mapping: dict) -> "OracleAut":
        return cls(oracle, tuple(sorted(mapping.items())))

    @classmethod
    def identity_aut(cls, oracle: GroupOracle) -> "OracleAut":
        return cls(oracle, tuple((n, e) for n, e in oracle.generators()))

    def image_of(self, gen_name: str):
        try:
            return self._image_by_name[gen_name]
        except (KeyError, TypeError):
            raise OracleError(f"no image for generator {gen_name!r}") from None

    def apply(self, elem):
        out = self.oracle.identity
        for gen_name, sign in self.oracle.express(elem):
            img = self.image_of(gen_name)
            if sign < 0:
                img = self.oracle.inv(img)
            out = self.oracle.mul(out, img)
        return out

    def then(self, other: "OracleAut") -> "OracleAut":
        """The automorphism "self, then other"."""
        return OracleAut(
            self.oracle,
            tuple((name, other.apply(img)) for name, img in self.images),
        )

    def is_identity(self) -> bool:
        return all(
            img == self.oracle.generator(name) for name, img in self.images
        )

    def inverse(self) -> "OracleAut":
        """Invert; finite oracles by permutation, Z^r by matrix inversion."""
        if self.oracle.is_finite:
            perm = {e: self.apply(e) for e in self.oracle.elements()}
            if len(set(perm.values())) != len(perm):
                raise OracleError("table is not a bijection")
            gens = dict(self.oracle.generators())
            inv_images = {}
            back = {v: k for k, v in perm.items()}
            for name, gen_elem in gens.items():
                inv_images[name] = back[gen_elem]
            return OracleAut.from_map(self.oracle, inv_images)
        if isinstance(self.oracle, FreeAbelianOracle):
            r = self.oracle.rank
            cols = [self.image_of(f"g{i + 1}") for i in range(r)]
            mat = [[cols[j][i] for j in range(r)] for i in range(r)]
            inv = _integer_matrix_inverse(mat)
            images = {
                f"g{j + 1}": tuple(inv[i][j] for i in range(r)) for j in range(r)
            }
            return OracleAut.from_map(self.oracle, images)
        raise OracleError(
            f"cannot invert an automorphism of a {self.oracle.kind} oracle; "
            "declare the inverse table explicitly"
        )


def _integer_matrix_inverse(mat):
    """Exact inverse of a unimodular integer matrix (tiny sizes)."""
    n = len(mat)
    aug = [[mat[i][j] for j in range(n)] + [int(i == j) for j in range(n)]
           for i in range(n)]
    from fractions import Fraction

    aug = [[Fraction(x) for x in row] for row in aug]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise OracleError("automorphism matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    inv = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in inv for x in row):
        raise OracleError("automorphism matrix is not invertible over Z")
    return [[int(x) for x in row] for row in inv]


def type_permutations(type_classes: list[list[int]]):
    """Each permutation i -> pi(i) of the summands mapping every class of
    ``type_classes`` (1-based indices grouped by homeomorphism type) onto
    itself, in ``product`` order of the classes' ``permutations``."""
    for combo in itertools.product(*map(itertools.permutations, type_classes)):
        perm = {}
        for cls, images in zip(type_classes, combo):
            perm.update(zip(cls, images))
        yield perm


def wreath_elements(oracles: list[GroupOracle], type_classes: list[list[int]]):
    """Enumerate (perm, tokens) pairs of the type-preserving wreath product.

    ``oracles[i]`` is the mcg oracle of summand i+1.  Yields pairs
    ``(perm, tokens)`` with perm a dict i -> pi(i) from ``type_permutations``
    and tokens a dict i -> oracle element.
    """
    token_choices = [list(oracle.elements()) for oracle in oracles]
    for perm in type_permutations(type_classes):
        for tokens in itertools.product(*token_choices):
            yield dict(perm), dict(enumerate(tokens, 1))
