"""Command-line front end: parsing, dispatch, JSON/DOT emission.

Each subcommand takes only the options it reads (``COMMANDS``).  ``main``
checks that the input files a subcommand declares exist, then reads and
parses them, each time in the declared order, and passes them to its
handler, which returns its output: a JSON payload (a dict), or text for
``--format text|dot``.  ``main`` prints it to stdout or ``--out`` and
returns the exit code.  Exit codes: 0 success, 1 domain error, 2
parse/config error; every error, a usage error too, is one JSON line on
stdout.  Identical inputs and seed produce byte-identical output.  Set
MCGSEQ_LOG to a logging level name for diagnostics on stderr.
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


def _family_jsonable(family):
    return [sorted(textio.label_text(l) for l in b) for b in family.blocks]


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed arguments and the inputs its
# COMMANDS entry declares, and returns a JSON payload (a dict) or text


def cmd_validate(args, manifold, family):
    report = validate_laminar(manifold, family.blocks)
    return {
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
    }


def cmd_classify(args, manifold, family):
    cls = classify_system(manifold, family)
    return {
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
    }


def cmd_educe(args, manifold, word):
    return textio.image_to_jsonable(manifold, sequence.educe(word))


def cmd_lift(args, manifold, given):
    image = given if args.image is not None else sequence.educe(given)
    lifted = textio.word_text(sequence.lift(manifold, image))
    return lifted if args.format == "text" else {"word": lifted}


def cmd_kernel_test(args, manifold, word):
    image = sequence.educe(word)  # once: the kernel test is image == identity
    return {
        "discrepant": image == sequence.identity_image(manifold),
        "eduction": textio.image_to_jsonable(manifold, image),
    }


def cmd_factor(args, manifold, word):
    factored = textio.word_text(sequence.factor_discrepant(word))
    return factored if args.format == "text" else {"word": factored}


def cmd_act_pi1(args, manifold, word):
    if args.element is not None:
        u = textio.parse_fpword(manifold, args.element)
        result = fpgroup.act_pi1(manifold, word, u)
        return {"result": textio.fpword_text(manifold, result)}
    table = fpgroup.aut_of_word(manifold, word)
    images = {}
    for key, img in table.images:
        name = f"g:{key[1]}:{key[2]}" if key[0] == "g" else f"x{key[1]}"
        images[name] = textio.fpword_text(manifold, img)
    return {"images": images}


def cmd_act_system(args, manifold, word, family):
    image = systems.act_system(manifold, word, family)
    if args.format == "dot":
        return systems.family_dot(manifold, image, name="image")
    if args.format == "text":
        return textio.family_text(image)
    return {"family": _family_jsonable(image)}


def cmd_normalize_system(args, manifold, family, assignment):
    word = systems.normalize_system(manifold, family, assignment)
    std = standard_system(manifold)
    if args.format == "dot":
        before = systems.family_dot(manifold, std, name="before")
        after = systems.family_dot(manifold, family, name="after")
        return before + "\n" + after
    if args.format == "text":
        return textio.word_text(word)
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
    return {
        "word": textio.word_text(word),
        "trace": trace,
        "statesVisited": len(systems._reachability(manifold)),
    }


def cmd_spotted_educe(args, marking, letters):
    cap, perm = sequence.spotted_educe(marking, letters)
    return {"cap": marking.cap_type.mcg.elem_to_text(cap), "perm": list(perm)}


def _check_verify(args):
    """Raise ParseError on a bad ``verify`` option, before any input is read."""
    if args.max_len < 0:
        raise ParseError(f"--max-len must be >= 0, got {args.max_len}")
    if args.case_limit is not None and args.case_limit < 1:
        raise ParseError(f"--case-limit must be >= 1, got {args.case_limit}")
    if args.max_len > MAX_LEN_GUARD and not args.allow_long:
        raise ParseError(
            f"--max-len {args.max_len} exceeds the default guard "
            f"{MAX_LEN_GUARD}; pass --allow-long to override"
        )
    if args.suite not in verify.SUITES:
        raise ParseError(
            f"unknown suite {args.suite!r}; choose from {sorted(verify.SUITES)}"
        )


def cmd_verify(args, manifold):
    suite = verify.SUITES[args.suite]
    if args.suite == "spotted":
        return suite(manifold, max_len=args.max_len)
    if args.suite == "exactness":
        return suite(manifold, max_len=args.max_len, mixed_len=min(args.max_len, 3))
    if args.suite == "pi1":
        pairs = 300 if args.case_limit is None else args.case_limit
        return suite(manifold, seed=args.seed, pairs=pairs)
    if args.suite == "roundtrip":
        cases = 200 if args.case_limit is None else args.case_limit
        return suite(manifold, seed=args.seed, cases=cases)
    return suite(manifold)


def cmd_render(args, manifold, family):
    family_masks(manifold, family.blocks)  # InvalidFamily unless laminar over L
    if args.format == "json":
        return {"family": _family_jsonable(family)}
    return systems.family_dot(manifold, family)


# Input files.  A command that declares one requires it; "image|word"
# requires exactly one of the two.  main checks that a command's input
# files exist, and then reads them, in the order its COMMANDS entry names
# them.
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


def _parse_image(manifold, text: str):
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer of > 4,300 digits
        raise ParseError(f"bad eduction image JSON: {exc}")
    return textio.image_from_jsonable(manifold, data)


# How each input but the manifold is parsed, given the manifold.
_PARSERS = {
    "family": lambda manifold, text: textio.parse_family(text),
    "word": textio.parse_word,
    "assignment": textio.parse_assignment,
    "image": _parse_image,
}


def _load(args, inputs: str) -> list:
    """The input files among ``inputs`` (a ``COMMANDS`` entry), read and
    parsed in that order; for "image|word", whichever was given.  The
    manifold is a spotted marking, and the word a spotted word, for
    ``spotted-educe`` and ``verify --suite spotted``."""
    spotted = args.command == "spotted-educe" or getattr(args, "suite", "") == "spotted"
    loaded = []
    for option in inputs.split():
        if option == "manifold":
            parse = textio.parse_spotted_marking if spotted else textio.parse_manifold
            manifold = parse(_read(args.manifold))
            loaded.append(manifold)
        elif option.split("|")[0] in INPUTS:
            name = next(n for n in option.split("|") if getattr(args, n) is not None)
            parse = textio.parse_spotted_word if spotted else _PARSERS[name]
            loaded.append(parse(manifold, _read(getattr(args, name))))
    return loaded


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcgseq",
        description="Mapping class group calculus for reducible 3-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, formats) in COMMANDS.items():
        p = sub.add_parser(name)
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
        handler, inputs, _ = COMMANDS[args.command]
        for name in inputs.replace("|", " ").split():
            path = getattr(args, name) if name in INPUTS else None
            if path is not None and not os.path.exists(path):
                raise FileNotFoundError(f"input file not found: {path}")
        if args.command == "verify":
            _check_verify(args)
        log.info("running %s", args.command)
        output = handler(args, *_load(args, inputs))
        text = output if isinstance(output, str) else json.dumps(
            output, indent=2, sort_keys=True
        )
        text += "" if text.endswith("\n") else "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return int(args.command == "verify" and not output["ok"])
    except (OSError, McgseqError) as exc:
        if isinstance(exc, ParseError):
            kind, code = "parse", 2
        elif isinstance(exc, OSError):
            kind, code = "io", 2
        else:
            kind, code = type(exc).__name__, 1
        json.dump({"error": {"kind": kind, "message": str(exc)}}, sys.stdout)
        sys.stdout.write("\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
