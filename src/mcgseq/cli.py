"""Command-line front end: parsing, dispatch, JSON/DOT emission.

Each subcommand takes only the options it reads (``COMMANDS``).  Exit
codes: 0 success, 1 domain error, 2 parse/config error; every error, a
usage error too, is one JSON line on stdout.  Identical inputs and seed
produce byte-identical output.  Set MCGSEQ_LOG to a logging level name
for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import fpgroup, sequence, systems, textio, verify
from . import words as w
from .errors import McgseqError, ParseError
from .model import (
    classify_system,
    family_masks,
    standard_system,
    validate_laminar,
)

log = logging.getLogger("mcgseq")

MAX_LEN_GUARD = 6


class _Parser(argparse.ArgumentParser):
    """Raise usage errors as ParseError, which ``main`` prints as JSON."""

    def error(self, message):
        raise ParseError(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True))


def _load_manifold(args):
    return textio.parse_manifold(_read(args.manifold))


def _load_family(args):
    return textio.parse_family(_read(args.family))


def _load_word(args, manifold):
    return textio.parse_word(manifold, _read(args.word))


def _family_jsonable(family):
    return [sorted(textio.label_text(l) for l in b) for b in family.blocks]


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_validate(args):
    manifold = _load_manifold(args)
    family = _load_family(args)
    report = validate_laminar(manifold, family.blocks)
    _emit_json(
        args,
        {
            "ok": report.ok,
            "violations": [
                {
                    "code": v.code,
                    "message": v.message,
                    "blocks": [textio.block_text(b) for b in v.blocks],
                }
                for v in report.violations
            ],
            "duplicates": [textio.block_text(b) for b in report.duplicates],
        },
    )
    return 0


def cmd_classify(args):
    manifold = _load_manifold(args)
    family = _load_family(args)
    cls = classify_system(manifold, family)
    _emit_json(
        args,
        {
            "isSymmetric": cls.is_symmetric,
            "perBlock": [
                {
                    "block": textio.block_text(info.block),
                    "separating": info.separating,
                    "census": textio.block_text(info.census),
                }
                for info in cls.per_block
            ],
            "summandBlocks": {
                str(i): textio.block_text(b) for i, b in cls.summand_blocks
            },
            "nonsepBlocks": [textio.block_text(b) for b in cls.nonsep_blocks],
        },
    )
    return 0


def cmd_educe(args):
    manifold = _load_manifold(args)
    word = _load_word(args, manifold)
    image = sequence.educe(word)
    _emit_json(args, textio.image_to_jsonable(manifold, image))
    return 0


def cmd_lift(args):
    manifold = _load_manifold(args)
    if args.image is not None:
        try:
            data = json.loads(_read(args.image))
        except ValueError as exc:  # malformed JSON, or an integer of > 4,300 digits
            raise ParseError(f"bad eduction image JSON: {exc}")
        image = textio.image_from_jsonable(manifold, data)
    else:
        image = sequence.educe(_load_word(args, manifold))
    lifted = sequence.lift(manifold, image)
    if args.format == "text":
        _emit(args, textio.word_text(lifted))
    else:
        _emit_json(args, {"word": textio.word_text(lifted)})
    return 0


def cmd_kernel_test(args):
    manifold = _load_manifold(args)
    word = _load_word(args, manifold)
    image = sequence.educe(word)  # once: the kernel test is image == identity
    _emit_json(
        args,
        {
            "discrepant": image == sequence.identity_image(manifold),
            "eduction": textio.image_to_jsonable(manifold, image),
        },
    )
    return 0


def cmd_factor(args):
    manifold = _load_manifold(args)
    word = _load_word(args, manifold)
    factored = sequence.factor_discrepant(word)
    if args.format == "text":
        _emit(args, textio.word_text(factored))
    else:
        _emit_json(args, {"word": textio.word_text(factored)})
    return 0


def cmd_act_pi1(args):
    manifold = _load_manifold(args)
    word = _load_word(args, manifold)
    if args.element is not None:
        u = textio.parse_fpword(manifold, args.element)
        result = fpgroup.act_pi1(manifold, word, u)
        _emit_json(args, {"result": textio.fpword_text(manifold, result)})
    else:
        table = fpgroup.aut_of_word(manifold, word)
        images = {}
        for key, img in table.images:
            name = (
                f"g:{key[1]}:{key[2]}" if key[0] == "g" else f"x{key[1]}"
            )
            images[name] = textio.fpword_text(manifold, img)
        _emit_json(args, {"images": images})
    return 0


def cmd_act_system(args):
    manifold = _load_manifold(args)
    word = _load_word(args, manifold)
    family = _load_family(args)
    image = systems.act_system(manifold, word, family)
    if args.format == "dot":
        _emit(args, systems.family_dot(manifold, image, name="image"))
    elif args.format == "text":
        _emit(args, textio.family_text(image))
    else:
        _emit_json(args, {"family": _family_jsonable(image)})
    return 0


def cmd_normalize_system(args):
    manifold = _load_manifold(args)
    family = _load_family(args)
    assignment = textio.parse_assignment(manifold, _read(args.assignment))
    word = systems.normalize_system(manifold, family, assignment)
    std = standard_system(manifold)
    if args.format == "dot":
        before = systems.family_dot(manifold, std, name="before")
        after = systems.family_dot(manifold, family, name="after")
        _emit(args, before + "\n" + after)
        return 0
    trace = []
    current = std
    for letter in word.letters:
        current = systems.act_system(
            manifold, w.Word(manifold, (letter,)), current
        )
        trace.append(
            {
                "move": textio.word_letter_text(manifold, letter),
                "family": _family_jsonable(current),
            }
        )
    payload = {
        "word": textio.word_text(word),
        "trace": trace,
        "statesVisited": len(systems._reachability(manifold)),
    }
    if args.format == "text":
        _emit(args, textio.word_text(word))
    else:
        _emit_json(args, payload)
    return 0


def cmd_spotted_educe(args):
    marking = textio.parse_spotted_marking(_read(args.manifold))
    letters = textio.parse_spotted_word(marking, _read(args.word))
    cap, perm = sequence.spotted_educe(marking, letters)
    _emit_json(
        args,
        {
            "cap": marking.cap_type.mcg.elem_to_text(cap),
            "perm": list(perm),
        },
    )
    return 0


def cmd_verify(args):
    if args.max_len < 0:
        raise ParseError(f"--max-len must be >= 0, got {args.max_len}")
    if args.case_limit is not None and args.case_limit < 1:
        raise ParseError(f"--case-limit must be >= 1, got {args.case_limit}")
    if args.max_len > MAX_LEN_GUARD and not args.allow_long:
        raise ParseError(
            f"--max-len {args.max_len} exceeds the default guard "
            f"{MAX_LEN_GUARD}; pass --allow-long to override"
        )
    suite = verify.SUITES.get(args.suite)
    if suite is None:
        raise ParseError(
            f"unknown suite {args.suite!r}; choose from {sorted(verify.SUITES)}"
        )
    max_len = args.max_len
    if args.suite == "spotted":
        marking = textio.parse_spotted_marking(_read(args.manifold))
        report = suite(marking, max_len=max_len)
    else:
        manifold = _load_manifold(args)
        if args.suite == "exactness":
            report = suite(manifold, max_len=max_len, mixed_len=min(max_len, 3))
        elif args.suite == "pi1":
            pairs = 300 if args.case_limit is None else args.case_limit
            report = suite(manifold, seed=args.seed, pairs=pairs)
        elif args.suite == "roundtrip":
            cases = 200 if args.case_limit is None else args.case_limit
            report = suite(manifold, seed=args.seed, cases=cases)
        else:
            report = suite(manifold)
    _emit_json(args, report)
    return 0 if report["ok"] else 1


def cmd_render(args):
    manifold = _load_manifold(args)
    family = _load_family(args)
    family_masks(manifold, family.blocks)  # InvalidFamily unless laminar over L
    if args.format == "json":
        _emit_json(args, {"family": _family_jsonable(family)})
    else:
        _emit(args, systems.family_dot(manifold, family))
    return 0


# Input files, in the order main checks that they exist.  A command that
# declares one requires it; "image|word" requires exactly one of the two.
INPUTS = {
    "manifold": "manifold (or spotted marking) file",
    "family": "laminar family file",
    "word": "word file",
    "assignment": "assignment file",
    "image": "eduction image JSON file",
}
OPTIONS = {
    "element": dict(help="pi1 word to act on (default: every generator's image)"),
    "suite": dict(required=True, help=f"one of {', '.join(sorted(verify.SUITES))}"),
    "seed": dict(type=int, default=7),
    "max-len": dict(type=int, default=3),
    "case-limit": dict(type=int),
    "allow-long": dict(action="store_true", help="lift the max-len guard"),
}

# Each subcommand: its handler, the inputs and options it reads, and the
# --format values it emits (none: JSON only).  Every subcommand takes --out.
COMMANDS = {
    "validate": (cmd_validate, "manifold family", ""),
    "classify": (cmd_classify, "manifold family", ""),
    "educe": (cmd_educe, "manifold word", ""),
    "lift": (cmd_lift, "manifold image|word", "json text"),
    "kernel-test": (cmd_kernel_test, "manifold word", ""),
    "factor": (cmd_factor, "manifold word", "json text"),
    "act-pi1": (cmd_act_pi1, "manifold word element", ""),
    "act-system": (cmd_act_system, "manifold word family", "json text dot"),
    "normalize-system": (
        cmd_normalize_system, "manifold family assignment", "json text dot"
    ),
    "spotted-educe": (cmd_spotted_educe, "manifold word", ""),
    "verify": (cmd_verify, "suite manifold seed max-len case-limit allow-long", ""),
    "render": (cmd_render, "manifold family", "json dot"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcgseq",
        description="Mapping class group calculus for reducible 3-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, options, formats) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        for option in options.split():
            if "|" in option:
                group = p.add_mutually_exclusive_group(required=True)
                for one in option.split("|"):
                    group.add_argument(f"--{one}", help=INPUTS[one])
            elif option in INPUTS:
                p.add_argument(f"--{option}", required=True, help=INPUTS[option])
            else:
                p.add_argument(f"--{option}", **OPTIONS[option])
        if formats:
            p.add_argument("--format", choices=formats.split(), default="json")
        p.add_argument("--out", help="write output to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MCGSEQ_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        args = build_parser().parse_args(argv)
        for name in INPUTS:
            path = getattr(args, name, None)
            if path is not None and not os.path.exists(path):
                raise FileNotFoundError(f"input file not found: {path}")
        log.info("running %s", args.command)
        return args.handler(args)
    except ParseError as exc:
        json.dump({"error": {"kind": "parse", "message": str(exc)}}, sys.stdout)
        sys.stdout.write("\n")
        return 2
    except OSError as exc:
        json.dump({"error": {"kind": "io", "message": str(exc)}}, sys.stdout)
        sys.stdout.write("\n")
        return 2
    except McgseqError as exc:
        json.dump(
            {
                "error": {
                    "kind": type(exc).__name__,
                    "message": str(exc),
                }
            },
            sys.stdout,
        )
        sys.stdout.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
