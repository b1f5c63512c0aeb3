import io
import itertools
import json
import re
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mcgseq.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def fx(name):
    return str(FIXTURES / name)


# Malformed numbers: more than int()'s 4,300 digits, a negative handle count,
# too few or non-numeric spots, an image that is not JSON or not finite.  Each case: the command, the text of each
# input file by option, and any further arguments.
BIG = "1" * 5000
MSTAR = (FIXTURES / "mstar.txt").read_text()
SPOTTED = (FIXTURES / "spotted.txt").read_text()
WORD = "spin(1)\n"
ONE_HANDLE = "type H pi1={} mcg=Z/1\nsummand 1 H\nhandles 1\n"
MALFORMED_NUMBERS = [
    pytest.param("classify", {"manifold": MSTAR, "family": f"block {{s{BIG}}}\n"},
                 (), id="label-s"),
    pytest.param("classify", {"manifold": MSTAR, "family": f"block {{e{BIG}+}}\n"},
                 (), id="label-e"),
    pytest.param("educe", {"manifold": MSTAR, "word": f"spin({BIG})\n"},
                 (), id="word-letter"),
    pytest.param("spotted-educe", {"manifold": SPOTTED, "word": f"spotSwap({BIG},1)\n"},
                 (), id="spotted-letter"),
    pytest.param(
        "normalize-system",
        {
            "manifold": MSTAR,
            "family": (FIXTURES / "family_standard.txt").read_text(),
            "assignment": f"d{BIG} -> {{s1}}\n",
        },
        (),
        id="assignment-token",
    ),
    pytest.param("act-pi1", {"manifold": MSTAR, "word": WORD},
                 ("--element", f"x{BIG}"), id="pi1-x"),
    pytest.param("act-pi1", {"manifold": MSTAR, "word": WORD},
                 ("--element", f"g{BIG}"), id="pi1-g-shorthand"),
    pytest.param("act-pi1", {"manifold": MSTAR, "word": WORD},
                 ("--element", f"g1@{BIG}"), id="pi1-factor"),
    pytest.param("act-pi1", {"manifold": ONE_HANDLE.format("F2"), "word": WORD},
                 ("--element", f"g{BIG}@1"), id="free-generator"),
    pytest.param("act-pi1", {"manifold": ONE_HANDLE.format("Z^2"), "word": WORD},
                 ("--element", f"g{BIG}@1"), id="free-abelian-generator"),
    pytest.param("educe", {"manifold": ONE_HANDLE.format(f"Z/{BIG}"), "word": WORD},
                 (), id="group-spec"),
    pytest.param(
        "educe",
        {"manifold": MSTAR.replace("summand 2", f"summand {BIG}"), "word": WORD},
        (),
        id="summand-index",
    ),
    pytest.param(
        "educe",
        {"manifold": MSTAR.replace("handles 2", "handles -1"), "word": WORD},
        (),
        id="handles-negative",
    ),
    pytest.param(
        "spotted-educe",
        {"manifold": SPOTTED.replace("spots 3", "spots 0"), "word": "e\n"},
        (),
        id="spots-zero",
    ),
    pytest.param(
        "spotted-educe",
        {"manifold": SPOTTED.replace("spots 3", "spots abc"), "word": "e\n"},
        (),
        id="spots-text",
    ),
    pytest.param("lift", {"manifold": MSTAR, "image": f'{{"perm": [{BIG}]}}'},
                 (), id="image-digits"),
    pytest.param("lift", {"manifold": MSTAR, "image": '{"perm": [1,'},
                 (), id="image-json"),
    pytest.param("lift", {"manifold": MSTAR, "image": '{"perm": [Infinity, 1]}'},
                 (), id="image-infinity"),
]


class TestEduce:
    def test_spec_example(self):
        code, out = run_cli(
            "educe", "--manifold", fx("mstar.txt"), "--word", fx("word_aut.txt")
        )
        assert code == 0
        assert json.loads(out) == {
            "perm": [1, 2],
            "tokens": {"1": "tau", "2": "1"},
        }


class TestValidate:
    def test_valid_family(self):
        code, out = run_cli(
            "validate",
            "--manifold",
            fx("mstar.txt"),
            "--family",
            fx("family_standard.txt"),
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_invalid_family_is_a_result_not_an_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("block {s1,e1+}\nblock {s2,e1+}\n")
        code, out = run_cli(
            "validate", "--manifold", fx("mstar.txt"), "--family", str(bad)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["violations"][0]["code"] == "overlap"


class TestClassify:
    def test_standard(self):
        code, out = run_cli(
            "classify",
            "--manifold",
            fx("mstar.txt"),
            "--family",
            fx("family_standard.txt"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["isSymmetric"] is True
        assert payload["summandBlocks"]["1"] == "{s1}"


class TestKernelAndFactor:
    def test_kernel_test(self, tmp_path):
        word = tmp_path / "w.txt"
        word.write_text("aut(1,tau) aut(1,tau)\n")
        code, out = run_cli(
            "kernel-test", "--manifold", fx("mstar.txt"), "--word", str(word)
        )
        assert code == 0
        assert json.loads(out)["discrepant"] is True

    @pytest.mark.parametrize(
        "name, discrepant", [("word_aut.txt", False), ("word_slide.txt", True)]
    )
    def test_kernel_test_educes_once(self, monkeypatch, name, discrepant):
        from mcgseq import sequence

        calls = []

        def spy(word):
            calls.append(word)
            return educe(word)

        educe = sequence.educe
        monkeypatch.setattr(sequence, "educe", spy)
        code, out = run_cli(
            "kernel-test", "--manifold", fx("mstar.txt"), "--word", fx(name)
        )
        assert code == 0
        assert json.loads(out)["discrepant"] is discrepant
        assert len(calls) == 1

    def test_factor_non_kernel_is_domain_error(self):
        code, out = run_cli(
            "factor", "--manifold", fx("mstar.txt"), "--word", fx("word_aut.txt")
        )
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "NotDiscrepant"


class TestLift:
    def test_lift_from_image(self, tmp_path):
        img = tmp_path / "img.json"
        img.write_text(
            json.dumps({"perm": [2, 1], "tokens": {"1": "tau", "2": "1"}})
        )
        code, out = run_cli(
            "lift",
            "--manifold",
            fx("mstar.txt"),
            "--image",
            str(img),
            "--format",
            "text",
        )
        assert code == 0
        assert out.strip() == "swapIrr(1,2) aut(2,tau)"

    def test_image_of_wrong_type_is_parse_error(self, tmp_path):
        img = tmp_path / "img.json"
        img.write_text(json.dumps({"perm": [2.7, "1"], "tokens": {"1": "tau", "2": "1"}}))
        code, out = run_cli("lift", "--manifold", fx("mstar.txt"), "--image", str(img))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "parse"
        assert error["message"].startswith("bad eduction image JSON: ")


class TestActs:
    def test_act_pi1_element(self):
        code, out = run_cli(
            "act-pi1",
            "--manifold",
            fx("mstar.txt"),
            "--word",
            fx("word_slide.txt"),
            "--element",
            "g1@1",
        )
        assert code == 0
        assert json.loads(out)["result"] == "x1^-1 g1@1 x1"

    @pytest.mark.parametrize("element", ["", "e"])
    def test_act_pi1_identity_element(self, element):
        code, out = run_cli(
            "act-pi1",
            "--manifold",
            fx("mstar.txt"),
            "--word",
            fx("word_slide.txt"),
            "--element",
            element,
        )
        assert code == 0
        assert json.loads(out) == {"result": "e"}

    def test_act_system(self):
        code, out = run_cli(
            "act-system",
            "--manifold",
            fx("mstar.txt"),
            "--word",
            fx("word_slide.txt"),
            "--family",
            fx("family_standard.txt"),
        )
        assert code == 0
        assert json.loads(out)["family"] == [
            ["s1"],
            ["s2"],
            ["e2-"],
            ["e1+", "s1"],
        ]


class TestNormalizeSystem:
    def test_single_slide(self):
        code, out = run_cli(
            "normalize-system",
            "--manifold",
            fx("mstar.txt"),
            "--family",
            fx("family_slid.txt"),
            "--assignment",
            fx("assignment_slid.txt"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == "slideIrr(1; x1)"
        assert payload["trace"][-1]["family"] == [
            ["s1"],
            ["s2"],
            ["e2+"],
            ["e1+", "s1"],
        ]


class TestSpotted:
    def test_spotted_educe(self):
        code, out = run_cli(
            "spotted-educe",
            "--manifold",
            fx("spotted.txt"),
            "--word",
            fx("word_spotted.txt"),
        )
        assert code == 0
        assert json.loads(out) == {"cap": "tau", "perm": [1, 2, 3]}


class TestRender:
    def test_dot(self):
        code, out = run_cli(
            "render",
            "--manifold",
            fx("mstar.txt"),
            "--family",
            fx("family_slid.txt"),
            "--format",
            "dot",
        )
        assert code == 0
        assert out.startswith("digraph")
        assert "lab_e1p" in out

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_invalid_family_is_domain_error(self, tmp_path, fmt):
        # a label outside L, then two blocks that overlap without nesting
        family = tmp_path / "family.txt"
        family.write_text("block {s3}\nblock {s1,e1+}\nblock {s1,e2+}\n")
        code, out = run_cli(
            "render", "--manifold", fx("mstar.txt"), "--family", str(family),
            "--format", fmt,
        )
        assert code == 1
        assert json.loads(out) == {
            "error": {
                "kind": "InvalidFamily",
                "message": "block {s3} uses labels outside L: s3",
            }
        }


class TestErrors:
    def test_missing_file_is_config_error(self):
        code, out = run_cli(
            "educe", "--manifold", "no-such-file.txt", "--word", fx("word_aut.txt")
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "io"

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("frobnicate\n")
        code, out = run_cli(
            "educe", "--manifold", str(bad), "--word", fx("word_aut.txt")
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "parse"

    def test_non_laminar_slide_names_the_letter(self, tmp_path):
        word = tmp_path / "word.txt"
        word.write_text("slideIrr(1; x2)\n")
        code, out = run_cli(
            "act-system",
            "--manifold",
            fx("mstar.txt"),
            "--family",
            fx("family_slid.txt"),
            "--word",
            str(word),
        )
        assert code == 1
        assert json.loads(out) == {
            "error": {
                "kind": "NotLaminarAfterSlide",
                "message": "slide slideIrr(1; x2) breaks laminarity: blocks "
                "{s1,e1+} and {s1,e2+} overlap without nesting",
            }
        }

    @pytest.mark.parametrize(
        "pi1, element",
        [
            ("F2", "g1^1000000000@1"),
            ("Z^2", "g2^-1000000000@1"),
            (None, "g1^1000000000"),
        ],
    )
    def test_huge_exponent_fails_fast(self, tmp_path, pi1, element):
        # a free power expands into |n| letters, a shorthand power into |n|
        # multiplications; both are refused before any work is done
        manifold = fx("mstar.txt")
        if pi1 is not None:
            manifold = tmp_path / "manifold.txt"
            manifold.write_text(f"type H pi1={pi1} mcg=Z/1\nsummand 1 H\nhandles 1\n")
        word = tmp_path / "word.txt"
        word.write_text("spin(1)\n")
        start = time.perf_counter()
        code, out = run_cli(
            "act-pi1",
            "--manifold",
            str(manifold),
            "--word",
            str(word),
            "--element",
            element,
        )
        assert time.perf_counter() - start < 5.0
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "parse"
        assert "exceeds 10000 in absolute value" in error["message"]

    @pytest.mark.parametrize("command, files, extra", MALFORMED_NUMBERS)
    def test_malformed_number_is_parse_error(self, tmp_path, command, files, extra):
        argv = [command, *extra]
        for option, text in files.items():
            path = tmp_path / f"{option}.txt"
            path.write_text(text)
            argv += [f"--{option}", str(path)]
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(*argv)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "parse"
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("option", ["manifold", "word"])
    def test_non_utf8_file_is_parse_error(self, tmp_path, option):
        files = {"manifold": fx("mstar.txt"), "word": fx("word_aut.txt")}
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        files[option] = str(bad)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(
                "educe", "--manifold", files["manifold"], "--word", files["word"]
            )
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "parse",
            "message": f"{bad} is not UTF-8 text: invalid start byte at byte 0",
        }
        assert "Traceback" not in err.getvalue()

    def test_max_len_guard(self):
        code, out = run_cli(
            "verify",
            "--suite",
            "exactness",
            "--manifold",
            fx("mstar.txt"),
            "--max-len",
            "9",
        )
        assert code == 2

    def test_negative_max_len_is_config_error(self):
        code, out = run_cli(
            "verify",
            "--suite",
            "spotted",
            "--manifold",
            fx("spotted.txt"),
            "--max-len",
            "-1",
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "parse"
        assert "--max-len" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("suite", ["pi1", "roundtrip"])
    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_case_limit_below_one_is_config_error(self, suite, limit):
        code, out = run_cli(
            "verify",
            "--suite",
            suite,
            "--manifold",
            fx("mstar.txt"),
            "--case-limit",
            limit,
        )
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "parse",
            "message": f"--case-limit must be >= 1, got {limit}",
        }

    def test_spotted_suite_needs_marking(self):
        code, out = run_cli("verify", "--suite", "spotted")
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "parse",
            "message": "the following arguments are required: --manifold",
        }


# The options of each subcommand, as its usage line prints them.
USAGE = {
    "validate": "--manifold MANIFOLD --family FAMILY [--out OUT]",
    "classify": "--manifold MANIFOLD --family FAMILY [--out OUT]",
    "educe": "--manifold MANIFOLD --word WORD [--out OUT]",
    "lift": "--manifold MANIFOLD (--image IMAGE | --word WORD) "
    "[--format {json,text}] [--out OUT]",
    "kernel-test": "--manifold MANIFOLD --word WORD [--out OUT]",
    "factor": "--manifold MANIFOLD --word WORD [--format {json,text}] [--out OUT]",
    "act-pi1": "--manifold MANIFOLD --word WORD [--element ELEMENT] [--out OUT]",
    "act-system": "--manifold MANIFOLD --word WORD --family FAMILY "
    "[--format {json,text,dot}] [--out OUT]",
    "normalize-system": "--manifold MANIFOLD --family FAMILY "
    "--assignment ASSIGNMENT [--format {json,text,dot}] [--out OUT]",
    "spotted-educe": "--manifold MANIFOLD --word WORD [--out OUT]",
    "verify": "--suite SUITE --manifold MANIFOLD [--seed SEED] [--max-len MAX_LEN] "
    "[--case-limit CASE_LIMIT] [--allow-long] [--out OUT]",
    "render": "--manifold MANIFOLD --family FAMILY [--format {json,dot}] [--out OUT]",
}
# Every subcommand took these options before each declared its own.
PARENT_OPTIONS = ("manifold", "family", "word", "assignment", "image", "element",
                  "format", "seed", "max-len", "case-limit", "allow-long", "out")
# A valid invocation of each subcommand.
VALID = {
    "validate": ("--family", "family_slid.txt"),
    "classify": ("--family", "family_slid.txt"),
    "educe": ("--word", "word_aut.txt"),
    "lift": ("--word", "word_aut.txt"),
    "kernel-test": ("--word", "word_aut.txt"),
    "factor": ("--word", "word_slide.txt"),
    "act-pi1": ("--word", "word_slide.txt"),
    "act-system": ("--word", "word_slide.txt", "--family", "family_standard.txt"),
    "normalize-system": ("--family", "family_slid.txt",
                         "--assignment", "assignment_slid.txt"),
    "spotted-educe": ("--manifold", "spotted.txt", "--word", "word_spotted.txt"),
    "verify": ("--suite", "spotted", "--manifold", "spotted.txt"),
    "render": ("--family", "family_slid.txt"),
}


def _valid_argv(command):
    argv = [command, "--manifold", fx("mstar.txt")]
    return argv + [fx(a) if a.endswith(".txt") else a for a in VALID[command]]


def _usage_error(*argv):
    """cli.main on argv, which must fail as a usage error: one JSON line on
    stdout, exit 2 and nothing on stderr; the error message."""
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv)
    assert (code, out.count("\n"), err.getvalue()) == (2, 1, "")
    error = json.loads(out)["error"]
    assert error["kind"] == "parse"
    return error["message"]


class TestInterface:
    def test_usage_of_each_subcommand(self):
        from mcgseq.cli import COMMANDS

        usage = {}
        for command in COMMANDS:
            buf = io.StringIO()
            with redirect_stdout(buf), pytest.raises(SystemExit) as exit:
                main([command, "--help"])
            assert exit.value.code == 0
            line = " ".join(buf.getvalue().split("\n\n")[0].split())
            usage[command] = line.removeprefix(f"usage: mcgseq {command} [-h] ")
        assert usage == USAGE
        assert sum(line.count("--") for line in USAGE.values()) == 49

    @pytest.mark.parametrize("command", sorted(VALID))
    def test_undeclared_option_is_usage_error(self, command):
        declared = set(re.findall(r"--([a-z-]+)", USAGE[command]))
        undeclared = [o for o in PARENT_OPTIONS if o not in declared]
        assert undeclared
        for option in undeclared:
            extra = [f"--{option}"] + ([] if option == "allow-long" else ["7"])
            assert _usage_error(*_valid_argv(command), *extra) == (
                f"unrecognized arguments: {' '.join(extra)}"
            )

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "the following arguments are required: command"),
            (("educe", "--bogus"),
             "the following arguments are required: --manifold, --word"),
            (("educe", "--manifold", fx("mstar.txt"), "--word", fx("word_aut.txt"),
              "--seed", "x"), "unrecognized arguments: --seed x"),
            (("render", "--manifold", fx("mstar.txt"), "--family",
              fx("family_slid.txt"), "--format", "text"),
             "argument --format: invalid choice: 'text'"),
            (("lift", "--manifold", fx("mstar.txt")),
             "one of the arguments --image --word is required"),
            (("nosuch",), "argument command: invalid choice: 'nosuch'"),
        ],
    )
    def test_usage_error_is_json(self, argv, message):
        # the list of choices after an invalid one is worded by the Python version
        assert _usage_error(*argv).startswith(message)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--suite", "relations", "--family", fx("family_slid.txt")),
             "unrecognized arguments: --family " + fx("family_slid.txt")),
            (("--suite", "relations", "--format", "text"),
             "unrecognized arguments: --format text"),
            (("--suite", "relations", "--max-len", "x"),
             "argument --max-len: invalid int value: 'x'"),
            ((), "the following arguments are required: --suite"),
        ],
    )
    def test_verify_usage_errors(self, extra, message):
        assert _usage_error("verify", "--manifold", fx("mstar.txt"), *extra) == message


class TestVerifyCommand:
    def test_relations_suite(self):
        code, out = run_cli(
            "verify", "--suite", "relations", "--manifold", fx("mstar.txt")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True

    def test_exactness_small(self):
        code, out = run_cli(
            "verify",
            "--suite",
            "exactness",
            "--manifold",
            fx("mstar.txt"),
            "--max-len",
            "2",
            "--seed",
            "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["wreath_elements"] == 8

    def test_spotted_suite(self):
        code, out = run_cli(
            "verify",
            "--suite",
            "spotted",
            "--manifold",
            fx("spotted.txt"),
            "--max-len",
            "2",
        )
        assert code == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("educe", "--manifold", "mstar.txt", "--word", "word_aut.txt"),
            (
                "act-system",
                "--manifold",
                "mstar.txt",
                "--word",
                "word_slide.txt",
                "--family",
                "family_standard.txt",
            ),
            (
                "normalize-system",
                "--manifold",
                "mstar.txt",
                "--family",
                "family_slid.txt",
                "--assignment",
                "assignment_slid.txt",
            ),
            ("render", "--manifold", "mstar.txt", "--family", "family_slid.txt",
             "--format", "dot"),
            (
                "verify",
                "--suite",
                "pi1",
                "--manifold",
                "mstar.txt",
                "--seed",
                "11",
            ),
        ],
    )
    def test_byte_identical_reruns(self, argv):
        argv = [a if not a.endswith(".txt") else fx(a) for a in argv]
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        assert code1 == code2 == 0
        assert out1 == out2


# Mutations of the fixture texts: drop, duplicate or swap lines, replace the
# n-th label of a line (labels outside L included), swap in and out.
LABEL = re.compile(r"(?<![a-z])[se]\d+[+-]?")
FUZZ_LABELS = ("s1", "s2", "s3", "e1+", "e1-", "e2+", "e2-", "e3+")
MUTATION = st.tuples(
    st.sampled_from(("drop", "duplicate", "swap", "label", "side")),
    st.integers(0, 15),
    st.integers(0, 15),
    st.sampled_from(FUZZ_LABELS),
)


def _mutate(text, mutations):
    lines = text.splitlines()
    for op, i, j, label in mutations:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "label":
            found = list(LABEL.finditer(lines[i]))
            if found:
                m = found[j % len(found)]
                lines[i] = lines[i][: m.start()] + label + lines[i][m.end() :]
        else:
            lines[i] = re.sub(
                r":(in|out)\b", lambda m: ":out" if m[1] == "in" else ":in", lines[i]
            )
    return "\n".join(lines) + "\n"


# Word texts are fuzzed one letter per line, so that the line mutations
# drop, repeat and reorder letters; each edit then cuts a line short or
# inserts an index, an inverse or a stray character into it.
WORD_LETTER = re.compile(r"\w+\([^)]*\)")
WORD_EDIT = st.tuples(
    st.integers(0, 15),
    st.integers(0, 40),
    st.sampled_from(("cut", "0", "3", "99", "^-1", "(", ")", ",", "x")),
)


def _edit(text, edits):
    lines = text.splitlines()
    for i, pos, insert in edits:
        if not lines:
            break
        i = i % len(lines)
        line = lines[i]
        pos = pos % (len(line) + 1)
        lines[i] = line[:pos] if insert == "cut" else line[:pos] + insert + line[pos:]
    return "\n".join(lines) + "\n"


# JSON values for the fields of an eduction image, NaN and infinities included.
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
    | st.sampled_from(("tau", "1", "2", "")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("1", "2", "3", "tau")), inner, max_size=3),
    max_leaves=6,
)


def _argument(command):
    """An option, half the time one the command declares, else any of the
    former common set, with a value: a fixture, a format name or a bad
    number.  An --out value is replaced by a temporary path."""
    declared = sorted(set(re.findall(r"--([a-z-]+)", USAGE[command])))
    return st.tuples(
        st.sampled_from(declared) | st.sampled_from(PARENT_OPTIONS),
        st.sampled_from(sorted(p.name for p in FIXTURES.iterdir())).map(fx)
        | st.sampled_from(("json", "text", "dot", "7", "-1", "x")),
    )


def _run_fuzzed(command, texts, *options):
    """cli.main in-process on files holding the texts, with any further
    options; exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--manifold", fx("mstar.txt"), *options]
        for option, text in texts.items():
            path = Path(tmp) / f"{option}.txt"
            path.write_text(text, encoding="utf-8")
            argv += [f"--{option}", str(path)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_structured(code, out, err):
    assert code in (0, 1, 2)
    json.loads(out)  # exactly one JSON document
    assert "Traceback" not in err


class TestFuzzedInputs:
    """Mutated family, assignment and word texts give structured JSON (or,
    for a DOT render, a digraph) with exit code 0, 1 or 2, never a
    traceback."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from((("family_slid.txt", "assignment_slid.txt"),
                         ("family_standard.txt", "assignment_identity.txt"))),
        st.lists(MUTATION, max_size=4),
        st.lists(MUTATION, max_size=4),
    )
    def test_normalize_system(self, names, family_mutations, assignment_mutations):
        family, assignment = ((FIXTURES / n).read_text() for n in names)
        _assert_structured(*_run_fuzzed("normalize-system", {
            "family": _mutate(family, family_mutations),
            "assignment": _mutate(assignment, assignment_mutations),
        }))

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(("family_slid.txt", "family_standard.txt")),
        st.lists(MUTATION, max_size=4),
    )
    def test_classify(self, name, mutations):
        family = (FIXTURES / name).read_text()
        _assert_structured(
            *_run_fuzzed("classify", {"family": _mutate(family, mutations)})
        )

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from((("word_aut.txt",), ("word_slide.txt",),
                         ("word_slide.txt", "word_aut.txt"))),
        st.lists(MUTATION, max_size=4),
        st.lists(WORD_EDIT, max_size=3),
    )
    @pytest.mark.parametrize(
        "command, options",
        [
            pytest.param(command, (), id=command)
            for command in ("educe", "kernel-test", "factor", "lift", "act-pi1")
        ]
        + [pytest.param(
            "act-pi1", ("--element", "x1 g1@2 x2^-1"), id="act-pi1-element"
        )],
    )
    def test_word_commands(self, command, options, names, mutations, edits):
        text = "\n".join(
            letter
            for name in names
            for letter in WORD_LETTER.findall((FIXTURES / name).read_text())
        )
        word = _edit(_mutate(text, mutations), edits)
        _assert_structured(*_run_fuzzed(command, {"word": word}, *options))

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(("family_slid.txt", "family_standard.txt")),
        st.lists(MUTATION, max_size=4),
    )
    @pytest.mark.parametrize(
        "command, options",
        [("validate", ()), ("render", ()), ("render", ("--format", "dot"))],
    )
    def test_family_commands(self, command, options, name, mutations):
        family = _mutate((FIXTURES / name).read_text(), mutations)
        code, out, err = _run_fuzzed(command, {"family": family}, *options)
        if options and code == 0:  # a DOT digraph, the one output that is not JSON
            assert out.startswith("digraph") and "Traceback" not in err
        else:
            _assert_structured(code, out, err)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(MUTATION, max_size=4),
        st.lists(WORD_EDIT, max_size=3),
    )
    def test_spotted_educe(self, mutations, edits):
        letters = "capAut(tau)\nspotSwap(1,2)\nspotSlide(2; g1)\nspotTwist(3)"
        word = _edit(_mutate(letters, mutations), edits)
        _assert_structured(*_run_fuzzed(
            "spotted-educe", {"manifold": SPOTTED, "word": word}
        ))

    @settings(max_examples=120, deadline=None)
    @given(
        st.fixed_dictionaries({}, optional={
            "perm": st.sampled_from(([1, 2], [2, 1])) | JSON_VALUE,
            "tokens": st.sampled_from(({"1": "tau", "2": "1"}, {"1": "1", "2": "1"}))
            | JSON_VALUE,
        }),
        st.lists(WORD_EDIT, max_size=3),
    )
    def test_lift_image(self, image, edits):
        text = _edit(json.dumps(image), edits)
        _assert_structured(*_run_fuzzed("lift", {"image": text}))

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(("family_slid.txt", "family_standard.txt")),
        st.sampled_from(("word_aut.txt", "word_slide.txt")),
        st.lists(MUTATION, max_size=4),
    )
    def test_act_system(self, family_name, word_name, mutations):
        family = _mutate((FIXTURES / family_name).read_text(), mutations)
        _assert_structured(*_run_fuzzed("act-system", {
            "family": family,
            "word": (FIXTURES / word_name).read_text(),
        }))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("command", sorted(set(VALID) - {"verify"}))
    def test_argv(self, command, data):
        """A valid invocation followed by further options, which may replace
        its inputs.  verify is left out: a suite's run has no work bound yet,
        so its usage errors are tested in TestInterface instead."""
        arguments = data.draw(st.lists(_argument(command), max_size=3))
        with tempfile.TemporaryDirectory() as tmp:
            written = Path(tmp) / "out.txt"
            argv = _valid_argv(command)[3:]
            for option, value in arguments:
                argv += [f"--{option}", str(written) if option == "out" else value]
            code, out, err = _run_fuzzed(command, {}, *argv)
            if code == 0 and written.exists():
                assert out == ""
                out = written.read_text(encoding="utf-8")
        formats = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--format"]
        if code == 0 and formats[-1:] in (["text"], ["dot"]):
            assert out and "Traceback" not in err
        else:
            _assert_structured(code, out, err)


# The malformed text of each input file, and the fixture of each valid one
# (the spotted fixtures for spotted-educe).  The valid image is never
# parsed: the only other input of lift is the manifold, read before it.
MALFORMED = {
    "manifold": "nonsense\n",
    "family": "block {\n",
    "word": "nope(\n",
    "assignment": "nope\n",
    "image": "{\n",
}
WELL_FORMED = {
    "manifold": "mstar.txt",
    "family": "family_standard.txt",
    "word": "word_slide.txt",
    "assignment": "assignment_slid.txt",
    "image": "word_aut.txt",
}
# Each subcommand with two or more input files, and its inputs in the order
# COMMANDS declares them; lift once with each of its two alternatives.
ORDERED_INPUTS = [
    ("validate", ("manifold", "family")),
    ("classify", ("manifold", "family")),
    ("educe", ("manifold", "word")),
    ("lift", ("manifold", "word")),
    ("lift", ("manifold", "image")),
    ("kernel-test", ("manifold", "word")),
    ("factor", ("manifold", "word")),
    ("act-pi1", ("manifold", "word")),
    ("act-system", ("manifold", "word", "family")),
    ("normalize-system", ("manifold", "family", "assignment")),
    ("spotted-educe", ("manifold", "word")),
    ("render", ("manifold", "family")),
]


def _run_inputs(tmp, command, inputs, malformed, *options):
    """cli.main on the inputs, those named in ``malformed`` as malformed
    texts (a missing file if the text is None), the rest as fixtures."""
    spotted = {"manifold": "spotted.txt", "word": "word_spotted.txt"}
    argv = [command, *options]
    for name in inputs:
        if name in malformed:
            path = Path(tmp) / f"bad-{name}.txt"
            if malformed[name] is None:
                path.unlink(missing_ok=True)
            else:
                path.write_text(malformed[name], encoding="utf-8")
        elif command == "spotted-educe":
            path = FIXTURES / spotted[name]
        else:
            path = FIXTURES / WELL_FORMED[name]
        argv += [f"--{name}", str(path)]
    return run_cli(*argv)


class TestInputOrder:
    """A run with several malformed inputs reports the first in the order
    the subcommand declares them; a missing file, and a bad verify option,
    is reported before any input is read."""

    def test_every_command_with_several_inputs_is_listed(self):
        from mcgseq.cli import COMMANDS, INPUTS

        several = {
            name for name, (_, options, _) in COMMANDS.items()
            if sum(o.split("|")[0] in INPUTS for o in options.split()) > 1
        }
        assert several == {command for command, _ in ORDERED_INPUTS}

    @pytest.mark.parametrize(
        "command, inputs", ORDERED_INPUTS, ids=[f"{c}-{i[-1]}" for c, i in ORDERED_INPUTS]
    )
    def test_first_malformed_input_is_reported(self, tmp_path, command, inputs):
        alone = {
            name: _run_inputs(tmp_path, command, inputs, {name: MALFORMED[name]})
            for name in inputs
        }
        for code, out in alone.values():
            assert code == 2 and json.loads(out)["error"]["kind"] == "parse"
        assert len(set(alone.values())) == len(inputs), "each error is its own"
        for size in range(2, len(inputs) + 1):
            for bad in itertools.combinations(inputs, size):
                got = _run_inputs(
                    tmp_path, command, inputs, {n: MALFORMED[n] for n in bad}
                )
                assert got == alone[bad[0]], bad
        # a missing last input is reported before the malformed ones
        missing = {n: MALFORMED[n] for n in inputs[:-1]} | {inputs[-1]: None}
        code, out = _run_inputs(tmp_path, command, inputs, missing)
        assert (code, json.loads(out)["error"]["kind"]) == (2, "io")
        assert f"bad-{inputs[-1]}.txt" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "options, message",
        [
            (("--max-len", "-1", "--case-limit", "0", "--suite", "nope"),
             "--max-len must be >= 0"),
            (("--case-limit", "0", "--max-len", "7", "--suite", "nope"),
             "--case-limit must be >= 1"),
            (("--max-len", "7", "--suite", "nope"), "exceeds the default guard"),
            (("--suite", "nope"), "unknown suite 'nope'"),
        ],
    )
    def test_verify_options_before_manifold(self, tmp_path, options, message):
        bad = {"manifold": MALFORMED["manifold"]}
        code, out = _run_inputs(tmp_path, "verify", ("manifold",), bad, *options)
        assert code == 2
        assert message in json.loads(out)["error"]["message"]
        for suite in ("roundtrip", "spotted"):  # the manifold alone is reported
            code, out = _run_inputs(
                tmp_path, "verify", ("manifold",), bad, "--suite", suite
            )
            assert code == 2 and message not in json.loads(out)["error"]["message"]

    def test_act_pi1_word_before_element(self, tmp_path):
        inputs = ("manifold", "word")
        bad_element = ("--element", "g1@")
        word_error = _run_inputs(
            tmp_path, "act-pi1", inputs, {"word": MALFORMED["word"]}
        )
        element_error = _run_inputs(tmp_path, "act-pi1", inputs, {}, *bad_element)
        assert word_error[0] == element_error[0] == 2
        assert word_error != element_error
        both = _run_inputs(
            tmp_path, "act-pi1", inputs, {"word": MALFORMED["word"]}, *bad_element
        )
        assert both == word_error
