"""Parsers and serializers for every external format.

The exact grammars are documented in docs/formats.md; parsers reject
unknown directives, serializers emit canonical forms, and
parse(serialize(x)) == x for manifolds, families, words, assignments and
eduction images.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .model import (
    Assignment,
    HomeoType,
    LaminarFamily,
    PrimeDecomposition,
    block_text,
    e_label,
    label_text,
    s_label,
)
from .oracles import OracleAut, parse_exponent, parse_group_spec, parse_index
from .sequence import (
    CapAut,
    EductionImage,
    SpotSlide,
    SpotSwap,
    SpotTwist,
    SpottedMarking,
)
from . import fpgroup
from . import words as w


def _content_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


# ---------------------------------------------------------------------------
# manifold descriptions


def _parse_act(act_text: str, pi1, mcg):
    entries = []
    if act_text in ("", "-"):
        return entries
    for chunk in act_text.split(";"):
        if ":" not in chunk:
            raise ParseError(f"bad act entry {chunk!r} (expected token:images)")
        token_text, images_text = chunk.split(":", 1)
        token = mcg.elem_from_text(token_text.strip())
        gen_names = pi1.gen_names()
        images = [s.strip() for s in images_text.split(",")] if images_text else []
        if len(images) != len(gen_names):
            raise ParseError(
                f"act entry for {token_text!r} lists {len(images)} images, "
                f"pi1 has {len(gen_names)} generators"
            )
        mapping = {
            name: pi1.elem_from_text(img) for name, img in zip(gen_names, images)
        }
        entries.append((token, OracleAut.from_map(pi1, mapping)))
    return entries


def _parse_type_line(line: str) -> HomeoType:
    """A ``type <name> pi1=<gspec> mcg=<gspec> [act=<entries>]`` line."""
    m = re.fullmatch(r"type\s+(\w+)\s+pi1=(\S+)\s+mcg=(\S+)(?:\s+act=(\S+))?", line)
    if not m:
        raise ParseError(f"bad type line: {line!r}")
    name, pi1_spec, mcg_spec, act_text = m.groups()
    pi1 = parse_group_spec(pi1_spec)
    mcg = parse_group_spec(mcg_spec)
    if act_text is None:
        if pi1.generators() and mcg.generators():
            raise ParseError(f"type {name!r} needs an act= clause")
        act = tuple(
            (elem, OracleAut.from_map(pi1, {})) for _, elem in mcg.generators()
        )
    else:
        act = tuple(_parse_act(act_text, pi1, mcg))
    return HomeoType(name, pi1, mcg, act)


def parse_manifold(text: str) -> PrimeDecomposition:
    types: dict[str, HomeoType] = {}
    summand_lines: dict[int, str] = {}
    handles = 0
    for line in _content_lines(text):
        parts = line.split()
        if parts[0] == "type":
            t = _parse_type_line(line)
            if t.name in types:
                raise ParseError(f"duplicate type {t.name!r}")
            types[t.name] = t
        elif parts[0] == "summand":
            if len(parts) != 3:
                raise ParseError(f"bad summand line: {line!r}")
            idx = parse_index(parts[1], line)
            if idx in summand_lines:
                raise ParseError(f"duplicate summand index {idx}")
            summand_lines[idx] = parts[2]
        elif parts[0] == "handles":
            if len(parts) != 2:
                raise ParseError(f"bad handles line: {line!r}")
            handles = parse_index(parts[1], line)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}")
    k = len(summand_lines)
    if set(summand_lines) != set(range(1, k + 1)):
        raise ParseError(f"summand indices must be 1..{k} contiguous")
    summands = []
    for i in range(1, k + 1):
        tname = summand_lines[i]
        if tname not in types:
            raise ParseError(f"summand {i} uses undeclared type {tname!r}")
        summands.append(types[tname])
    return PrimeDecomposition(tuple(summands), handles)


def _act_text(t: HomeoType) -> str:
    entries = []
    for token, table in t.act:
        images = ",".join(
            t.pi1.elem_to_text(table.image_of(name)) for name in t.pi1.gen_names()
        )
        entries.append(f"{t.mcg.elem_to_text(token)}:{images}")
    return ";".join(entries)


def _type_line_text(t: HomeoType) -> str:
    """The ``type`` line read back by ``_parse_type_line``."""
    line = f"type {t.name} pi1={t.pi1.spec_text()} mcg={t.mcg.spec_text()}"
    act = _act_text(t)
    return f"{line} act={act}" if act else line


def manifold_text(manifold: PrimeDecomposition) -> str:
    lines = []
    seen = {}
    for t in manifold.summands:
        if t.name not in seen:
            seen[t.name] = t
        elif seen[t.name] != t:
            raise ParseError(f"two distinct types share the name {t.name!r}")
    for name in sorted(seen):
        lines.append(_type_line_text(seen[name]))
    for i in range(1, manifold.k + 1):
        lines.append(f"summand {i} {manifold.type_of(i).name}")
    lines.append(f"handles {manifold.ell}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# labels and families


def parse_label(text: str):
    m = re.fullmatch(r"s(\d+)", text)
    if m:
        return s_label(parse_index(m.group(1), text))
    m = re.fullmatch(r"e(\d+)([+-])", text)
    if m:
        return e_label(parse_index(m.group(1), text), 1 if m.group(2) == "+" else -1)
    raise ParseError(f"bad label {text!r}")


def parse_block(text: str) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"bad block {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(parse_label(p.strip()) for p in inner.split(","))


def parse_family(text: str) -> LaminarFamily:
    blocks = []
    for line in _content_lines(text):
        if not line.startswith("block"):
            raise ParseError(f"unknown directive in family file: {line!r}")
        blocks.append(parse_block(line[len("block") :].strip()))
    return LaminarFamily.of(blocks)


def family_text(family: LaminarFamily) -> str:
    lines = [f"block {block_text(b)}" for b in family.blocks]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# pi1 words


def fpword_text(manifold: PrimeDecomposition, u) -> str:
    if not u:
        return "e"
    parts = []
    for lt in u:
        if lt[0] == "x":
            parts.append(f"x{lt[1]}" + ("" if lt[2] == 1 else "^-1"))
        else:
            _, i, elem = lt
            parts.append(f"{manifold.type_of(i).pi1.elem_to_text(elem)}@{i}")
    return " ".join(parts)


def parse_fpword(manifold: PrimeDecomposition, text: str):
    tokens = text.split()
    if tokens == ["e"] or not tokens:
        return ()
    letters = []
    for tok in tokens:
        m = re.fullmatch(r"x(\d+)(\^-1)?", tok)
        if m:
            letters.append(("x", parse_index(m.group(1), tok), -1 if m.group(2) else 1))
            continue
        if "@" in tok:
            elem_text, _, factor_text = tok.rpartition("@")
            i = parse_index(factor_text, tok)
            if not 1 <= i <= manifold.k:
                raise ParseError(f"factor index {i} out of range in {tok!r}")
            elem = manifold.type_of(i).pi1.elem_from_text(elem_text)
            letters.append(("g", i, elem))
            continue
        m = re.fullmatch(r"g(\d+)(?:\^(-?\d+))?", tok)
        if m:
            # shorthand: gN is the generator g1 of factor N
            i = parse_index(m.group(1), tok)
            if not 1 <= i <= manifold.k:
                raise ParseError(f"factor index {i} out of range in {tok!r}")
            oracle = manifold.type_of(i).pi1
            if "g1" not in oracle.gen_names():
                raise ParseError(
                    f"factor {i} has no generator g1; use the <elem>@{i} form"
                )
            elem = oracle.power(oracle.generator("g1"), parse_exponent(m.group(2), tok))
            letters.append(("g", i, elem))
            continue
        raise ParseError(f"bad pi1 letter {tok!r}")
    return fpgroup.fp_reduce(manifold, letters)


# ---------------------------------------------------------------------------
# generator words


def word_letter_text(manifold: PrimeDecomposition, letter) -> str:
    if isinstance(letter, w.SlideIrr):
        return f"slideIrr({letter.summand}; {fpword_text(manifold, letter.path)})"
    if isinstance(letter, w.SlideEnd):
        sign = "+" if letter.sign == 1 else "-"
        return (
            f"slideEnd({letter.handle},{sign}; "
            f"{fpword_text(manifold, letter.path)})"
        )
    if isinstance(letter, w.SlideHandle):
        return (
            f"slideHandle({letter.handle}; {fpword_text(manifold, letter.path)})"
        )
    if isinstance(letter, w.Spin):
        return f"spin({letter.handle})"
    if isinstance(letter, w.Twist):
        return f"twist({letter.ref[0]}{letter.ref[1]})"
    if isinstance(letter, w.SwapHandles):
        return f"swapHandles({letter.a},{letter.b})"
    if isinstance(letter, w.SwapIrr):
        return f"swapIrr({letter.a},{letter.b})"
    if isinstance(letter, w.Aut):
        token = manifold.type_of(letter.summand).mcg.elem_to_text(letter.token)
        return f"aut({letter.summand},{token})"
    raise ParseError(f"unknown letter {letter!r}")


def word_text(word: w.Word) -> str:
    if not word.letters:
        return "e"
    return " ".join(word_letter_text(word.manifold, lt) for lt in word.letters)


def _tokenize_word(text: str) -> list[str]:
    tokens = []
    cur = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')' in word text")
        if ch.isspace() and depth == 0:
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced '(' in word text")
    if cur:
        tokens.append("".join(cur))
    return tokens


def parse_word(manifold: PrimeDecomposition, text: str) -> w.Word:
    body = " ".join(_content_lines(text)) if "\n" in text else text.strip()
    tokens = _tokenize_word(body)
    if tokens == ["e"] or not tokens:
        return w.Word.of(manifold, ())
    letters = []
    for tok in tokens:
        letters.append(_parse_letter(manifold, tok))
    return w.Word.of(manifold, tuple(letters))


def _parse_letter(manifold: PrimeDecomposition, tok: str):
    m = re.fullmatch(r"slideIrr\((\d+);(.*)\)", tok)
    if m:
        path = parse_fpword(manifold, m.group(2).strip())
        return w.SlideIrr(parse_index(m.group(1), tok), path)
    m = re.fullmatch(r"slideEnd\((\d+),([+-]);(.*)\)", tok)
    if m:
        path = parse_fpword(manifold, m.group(3).strip())
        return w.SlideEnd(
            parse_index(m.group(1), tok), 1 if m.group(2) == "+" else -1, path
        )
    m = re.fullmatch(r"slideHandle\((\d+);(.*)\)", tok)
    if m:
        path = parse_fpword(manifold, m.group(2).strip())
        return w.SlideHandle(parse_index(m.group(1), tok), path)
    m = re.fullmatch(r"spin\((\d+)\)", tok)
    if m:
        return w.Spin(parse_index(m.group(1), tok))
    m = re.fullmatch(r"twist\((sep|nonsep|assoc)(\d+)\)", tok)
    if m:
        return w.Twist((m.group(1), parse_index(m.group(2), tok)))
    m = re.fullmatch(r"swapHandles\((\d+),(\d+)\)", tok)
    if m:
        a, b = sorted(parse_index(d, tok) for d in m.groups())
        return w.SwapHandles(a, b)
    m = re.fullmatch(r"swapIrr\((\d+),(\d+)\)", tok)
    if m:
        a, b = sorted(parse_index(d, tok) for d in m.groups())
        return w.SwapIrr(a, b)
    m = re.fullmatch(r"aut\((\d+),([^)]*)\)", tok)
    if m:
        i = parse_index(m.group(1), tok)
        if not 1 <= i <= manifold.k:
            raise ParseError(f"aut summand {i} out of range")
        token = manifold.type_of(i).mcg.elem_from_text(m.group(2).strip())
        return w.Aut(i, token)
    raise ParseError(f"unknown word letter {tok!r}")


# ---------------------------------------------------------------------------
# assignments


def parse_assignment(manifold: PrimeDecomposition, text: str) -> Assignment:
    mapping = {}
    for line in _content_lines(text):
        if "->" not in line:
            raise ParseError(f"bad assignment line {line!r}")
        lhs, rhs = (part.strip() for part in line.split("->", 1))
        m = re.fullmatch(r"d(\d+)([+-]?)", lhs)
        if not m:
            raise ParseError(f"bad duplicate token {lhs!r}")
        idx = parse_index(m.group(1), lhs)
        if m.group(2):
            token = ("d", idx, 1 if m.group(2) == "+" else -1)
            if ":" not in rhs:
                raise ParseError(
                    f"handle duplicate target needs a side: {line!r}"
                )
            block_part, side = rhs.rsplit(":", 1)
            side = side.strip()
            if side not in ("in", "out"):
                raise ParseError(f"bad side {side!r} in {line!r}")
            target = (_parse_target_block(block_part.strip()), side)
        else:
            token = ("d", idx)
            target = (_parse_target_block(rhs), None)
        if token in mapping:
            raise ParseError(f"duplicate assignment for {lhs!r}")
        mapping[token] = target
    return Assignment.of(mapping)


def _parse_target_block(text: str) -> frozenset:
    if text.startswith("{"):
        return parse_block(text)
    return frozenset({parse_label(text)})


def assignment_text(assignment: Assignment) -> str:
    lines = []
    for token, (block, side) in assignment.entries:
        if len(token) == 2:
            lhs = f"d{token[1]}"
            rhs = block_text(block)
        else:
            lhs = f"d{token[1]}" + ("+" if token[2] == 1 else "-")
            rhs = f"{block_text(block)}:{side}"
        lines.append(f"{lhs} -> {rhs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# eduction images


def image_to_jsonable(manifold: PrimeDecomposition, image: EductionImage) -> dict:
    return {
        "perm": list(image.perm),
        "tokens": {
            str(i): manifold.type_of(i).mcg.elem_to_text(image.token_of(i))
            for i in range(1, manifold.k + 1)
        },
    }


def image_from_jsonable(manifold: PrimeDecomposition, data) -> EductionImage:
    """The image a JSON object describes, checked strictly.

    ``perm`` must be a list of integers (booleans excluded) and ``tokens``
    an object whose keys are exactly "1".."k", each mapped to an mcg element
    text.  Anything else is a ParseError.
    """
    keys = [str(i) for i in range(1, manifold.k + 1)]
    if not isinstance(data, dict):
        raise ParseError("bad eduction image JSON: expected an object")
    perm, tokens = data.get("perm"), data.get("tokens")
    if not isinstance(perm, list) or any(type(v) is not int for v in perm):
        raise ParseError("bad eduction image JSON: perm must be a list of integers")
    if (
        not isinstance(tokens, dict)
        or tokens.keys() != set(keys)
        or any(not isinstance(t, str) for t in tokens.values())
    ):
        raise ParseError(
            "bad eduction image JSON: tokens must map exactly the keys "
            f"1..{manifold.k} to element texts"
        )
    return EductionImage(
        tuple(perm),
        tuple(
            manifold.type_of(i).mcg.elem_from_text(tokens[key])
            for i, key in enumerate(keys, 1)
        ),
    )


# ---------------------------------------------------------------------------
# spotted markings and words


def parse_spotted_marking(text: str) -> SpottedMarking:
    types: dict[str, HomeoType] = {}
    cap_name = None
    spots = None
    for line in _content_lines(text):
        parts = line.split()
        if parts[0] == "type":
            t = _parse_type_line(line)
            types[t.name] = t
        elif parts[0] == "cap":
            if len(parts) != 2:
                raise ParseError(f"bad cap line: {line!r}")
            cap_name = parts[1]
        elif parts[0] == "spots":
            if len(parts) != 2:
                raise ParseError(f"bad spots line: {line!r}")
            spots = parse_index(parts[1], line)
            if spots < 1:
                raise ParseError(f"a spotted marking needs at least one spot: {line!r}")
        else:
            raise ParseError(f"unknown directive {parts[0]!r}")
    if cap_name is None or spots is None or cap_name not in types:
        raise ParseError("spotted marking needs type, cap and spots lines")
    return SpottedMarking(types[cap_name], spots)


def spotted_marking_text(marking: SpottedMarking) -> str:
    t = marking.cap_type
    return f"{_type_line_text(t)}\ncap {t.name}\nspots {marking.spots}\n"


def parse_spotted_word(marking: SpottedMarking, text: str) -> list:
    body = " ".join(_content_lines(text)) if "\n" in text else text.strip()
    tokens = _tokenize_word(body)
    if tokens == ["e"] or not tokens:
        return []
    letters = []
    for tok in tokens:
        m = re.fullmatch(r"spotSlide\((\d+);(.*)\)", tok)
        if m:
            path = marking.cap_type.pi1.elem_from_text(m.group(2).strip())
            letters.append(SpotSlide(parse_index(m.group(1), tok), path))
            continue
        m = re.fullmatch(r"spotSwap\((\d+),(\d+)\)", tok)
        if m:
            a, b = sorted(parse_index(d, tok) for d in m.groups())
            letters.append(SpotSwap(a, b))
            continue
        m = re.fullmatch(r"spotTwist\((\d+)\)", tok)
        if m:
            letters.append(SpotTwist(parse_index(m.group(1), tok)))
            continue
        m = re.fullmatch(r"capAut\(([^)]*)\)", tok)
        if m:
            letters.append(
                CapAut(marking.cap_type.mcg.elem_from_text(m.group(1).strip()))
            )
            continue
        raise ParseError(f"unknown spotted letter {tok!r}")
    return letters


def spotted_word_text(marking: SpottedMarking, letters) -> str:
    if not letters:
        return "e"
    parts = []
    for lt in letters:
        if isinstance(lt, SpotSlide):
            parts.append(
                f"spotSlide({lt.spot}; {marking.cap_type.pi1.elem_to_text(lt.path)})"
            )
        elif isinstance(lt, SpotSwap):
            parts.append(f"spotSwap({lt.a},{lt.b})")
        elif isinstance(lt, SpotTwist):
            parts.append(f"spotTwist({lt.spot})")
        elif isinstance(lt, CapAut):
            parts.append(
                f"capAut({marking.cap_type.mcg.elem_to_text(lt.token)})"
            )
        else:
            raise ParseError(f"unknown spotted letter {lt!r}")
    return " ".join(parts)
