"""Per-layer measurements: hot primitives, the (k,l) BFS ladder, enumeration.

``layer_pass`` times each hot primitive of the package on inputs captured
from the workload that just ran (words, families, pi1 words, oracle
elements).  Where a workload has no input of a kind, a seeded input of the
workload's own manifold is generated instead, so every primitive is
measured on every workload.  The one exception is ``FreeOracle.mul`` on a
manifold without a free-group summand: it is timed on random words of
length 3 to 8 in a standalone F2.

``ladder_case`` and ``enumeration`` run in a fresh interpreter each, so
the package's caches are cold.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path

from mcgseq import cli, fpgroup, sequence, systems, textio, verify
from mcgseq import words as w
from mcgseq.errors import NotLaminarAfterSlide
from mcgseq.model import Forest, classify_system, identity_assignment, standard_system, validate_laminar
from mcgseq.oracles import parse_group_spec

import gen
import refs
from stats import median

INPUTS = 120  # inputs per primitive
REPEATS = 3
MIN_SAMPLE_S = 0.02


def per_call(fn, inputs) -> float:
    """Seconds per call: median over REPEATS runs of the input list."""
    samples = []
    for _ in range(REPEATS):
        calls = 0
        start = time.perf_counter()
        while True:
            for args in inputs:
                fn(*args)
            calls += len(inputs)
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SAMPLE_S:
                break
        samples.append(elapsed / calls)
    return median(samples)


def _succeeds(fn, args) -> bool:
    try:
        fn(*args)
    except NotLaminarAfterSlide:
        return False
    return True


def _paths(words):
    return [lt.path for wd in words for lt in wd.letters if hasattr(lt, "path") and lt.path]


def layer_pass(wl) -> dict:
    """Time every hot primitive on the workload's captured inputs."""
    m, rng = wl.m, random.Random(wl.seed)
    cap = wl.capture()
    words = cap["words"][:INPUTS]
    kernel = cap["kernel_words"][:INPUTS] or [
        w.compose(wd, w.invert(wd)) for wd in words[: INPUTS // 4]
    ]
    families = cap["families"][:INPUTS]
    walks = [gen.symmetric_walk(m, rng, rng.randint(3, 8))[0] for _ in range(30)]
    letters = [lt for wd in words for lt in wd.letters][:INPUTS]
    gens = [g for _, g in fpgroup.generator_words(m)]
    paths = (_paths(words) + gens)[:INPUTS]

    table_pairs, free_elems, aut_inputs = [], [], []
    for i in range(1, m.k + 1):
        t = m.type_of(i)
        for oracle in (t.pi1, t.mcg):
            if oracle.kind == "table":
                elems = list(oracle.elements())
                table_pairs += [(oracle, a, b) for a in elems for b in elems]
        elems_i = [lt[2] for u in paths for lt in u if lt[0] == "g" and lt[1] == i]
        if t.pi1.kind == "free":
            free_elems += [(t.pi1, e) for e in elems_i]
        elems_i = elems_i or [g for _, g in t.pi1.generators()]
        aut_inputs += [(table, e) for _, table in t.act for e in elems_i[:20]]
    if len(free_elems) < 2:
        f2 = parse_group_spec("F2")
        letters2 = [(1, 1), (1, -1), (2, 1), (2, -1)]
        free_elems = [
            (f2, f2.mul((), tuple(rng.choice(letters2) for _ in range(rng.randint(3, 8)))))
            for _ in range(40)
        ]
    free_pairs = [
        (o, a, b) for (o, a), (_, b) in zip(free_elems, free_elems[1:])
    ][:INPUTS]

    blocks_inputs = [
        (m, lt, f.blocks)
        for lt in letters[:40]
        for f in families[:3]
        if _succeeds(systems.act_letter_blocks, (m, lt, f.blocks))
    ][:INPUTS]
    act_inputs = [
        (m, wd, f)
        for wd in words[:40]
        for f in families[:2]
        if _succeeds(systems.act_system, (m, wd, f))
    ][:INPUTS]
    texts = [textio.word_text(wd) for wd in words]

    plan = [
        ("sequence.educe.ns", 1e9, sequence.educe, [(wd,) for wd in words]),
        ("sequence.factor_discrepant.us", 1e6, sequence.factor_discrepant, [(wd,) for wd in kernel]),
        ("words.normalize_word.ns", 1e9, w.normalize_word, [(wd,) for wd in words]),
        ("words.free_reduce.ns", 1e9, w.free_reduce, [(wd,) for wd in words]),
        ("oracles.TableOracle.mul.ns", 1e9, lambda o, a, b: o.mul(a, b), table_pairs),
        ("oracles.FreeOracle.mul.ns", 1e9, lambda o, a, b: o.mul(a, b), free_pairs),
        ("oracles.OracleAut.apply.ns", 1e9, lambda a, e: a.apply(e), aut_inputs),
        ("model.validate_laminar.ns", 1e9, validate_laminar, [(m, f.blocks) for f in families]),
        ("model.Forest.ns", 1e9, Forest, [(m, f.blocks) for f in families]),
        ("model.classify_system.ns", 1e9, classify_system, [(m, f) for f in families]),
        ("systems.act_letter_blocks.ns", 1e9, systems.act_letter_blocks, blocks_inputs),
        ("systems.act_system.us", 1e6, systems.act_system, act_inputs),
        ("systems.trace_assignment.us", 1e6, systems.trace_assignment, [(m, wd) for wd in walks]),
        ("fpgroup.fp_reduce.ns", 1e9, fpgroup.fp_reduce,
         [(m, u + v) for u, v in zip(paths, reversed(paths))]),
        ("fpgroup.act_letter_pi1.ns", 1e9, fpgroup.act_letter_pi1,
         [(m, lt, g) for lt in letters[:30] for g in gens][:INPUTS]),
        ("fpgroup.aut_of_word.us", 1e6, fpgroup.aut_of_word, [(m, wd) for wd in words[:40]]),
        ("fpgroup.abelianized_action.us", 1e6, fpgroup.abelianized_action, [(m, wd) for wd in words[:40]]),
        ("textio.parse_manifold.us", 1e6, textio.parse_manifold, [(wl.manifold_text,)]),
        ("textio.parse_word.us", 1e6, textio.parse_word, [(m, s) for s in texts]),
        ("textio.word_text.us", 1e6, textio.word_text, [(wd,) for wd in words]),
    ]
    out = {}
    for name, scale, fn, inputs in plan:
        if not inputs:
            raise RuntimeError(f"layer pass has no inputs for {name}")
        out[name] = per_call(fn, inputs) * scale
    out.update(slide_rejects(m, families))
    return out


def slide_rejects(m, families) -> dict:
    """One-letter slides from each family, rejected as non-laminar / attempted."""
    slides = [
        lt
        for lt in verify.discrepant_alphabet(m)
        if type(lt).__name__ in refs.SLIDE_KINDS
    ]
    attempted = rejected = 0
    for fam in families:
        for lt in slides:
            attempted += 1
            if gen.laminar_image(m, w.Word(m, (lt,)), fam) is None:
                rejected += 1
    return {"systems.slide_reject_ratio": rejected / attempted}


def ladder_case(k: int, ell: int, seed: int, tmp: Path) -> dict:
    """Cold normalization at (k, l), its BFS size and warm query time."""
    m = textio.parse_manifold(gen.ladder_manifold(k, ell))
    std, ident = standard_system(m), identity_assignment(m)
    start = time.perf_counter()
    systems.normalize_system(m, std, ident)
    cold_s = time.perf_counter() - start

    files = {
        "manifold": gen.ladder_manifold(k, ell),
        "family": textio.family_text(std),
        "assignment": textio.assignment_text(ident),
    }
    argv = ["normalize-system"]
    for key, text in files.items():
        path = tmp / f"ladder-{k}-{ell}-{key}.txt"
        path.write_text(text, encoding="utf-8")
        argv += [f"--{key}", str(path)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    for key in files:
        (tmp / f"ladder-{k}-{ell}-{key}.txt").unlink()
    if code != 0:
        raise RuntimeError(f"normalize-system exited {code}: {buf.getvalue()[:200]}")
    states = json.loads(buf.getvalue())["statesVisited"]

    rng = random.Random(seed)
    targets = []
    for _ in range(100):
        word, fam = gen.symmetric_walk(m, rng, rng.randint(2, 8))
        targets.append((fam, systems.trace_assignment(m, word)))
    warm = []
    for fam, a in targets:
        t0 = time.perf_counter()
        systems.normalize_system(m, fam, a)
        warm.append(time.perf_counter() - t0)
    return {"cold_s": cold_s, "bfs_states": states, "warm_us": median(warm) * 1e6}


def enumeration(root: Path) -> dict:
    """Cold enumerate_symmetric on the reference manifold and its counts."""
    m = textio.parse_manifold((root / "fixtures" / "mstar.txt").read_text(encoding="utf-8"))
    start = time.perf_counter()
    symmetric, candidates = verify.enumerate_symmetric(m)
    seconds = time.perf_counter() - start
    assignments = sum(
        sum(1 for _ in verify.allowable_assignments(m, cls)) for _, cls in symmetric
    )
    return {
        "seconds": seconds,
        "laminar_candidates": candidates,
        "symmetric_families": len(symmetric),
        "assignments": assignments,
    }
