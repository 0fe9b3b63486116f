"""Seeded op lists for the four benchmark workloads.

Every op is one ``chabauty-lab`` CLI call: an argv, the JSON document it
reads (written at a seed-determined relative path, so the report's
``provenance.command`` is the same on every run of that seed) and an
``expect`` record holding what the construction fixes about the answer.

The parameters that set an op's cost (radius, word counts and lengths,
budgets, dimensions) follow fixed schedules. The seed picks the words,
vectors and permutations of the cheaper ops and the order of all ops; the
costliest ops and the blocks around the 50th and 90th percentiles come from
a seed-independent pool, relabelled by a seeded automorphism of the free
group. Two seeds therefore give different documents of nearly the same cost
profile, which keeps a run's medians comparable across seeds.
"""

from __future__ import annotations

import random

import naive

WORK_DIR = ".perfbench_work"
FREE2 = {"kind": "free", "rank": 2}


def free(rank: int) -> dict:
    return {"kind": "free", "rank": rank}


def op_dir(workload: str, seed: int) -> str:
    return f"{WORK_DIR}/{workload}/s{seed}"


class _Gen:
    """Shared helpers: a seeded RNG and the op list being built."""

    def __init__(self, workload: str, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.dir = op_dir(workload, seed)
        self.ops: list[dict] = []

    def word(self, rank: int, length: int, cyclic: bool = False) -> tuple:
        while True:
            w: list[int] = []
            while len(w) < length:
                x = self.rng.choice(naive.letters(rank))
                if not w or w[-1] != -x:
                    w.append(x)
            if not cyclic or length < 2 or w[0] != -w[-1]:
                return tuple(w)

    def add(self, kind: str, command: str, doc, extra_args=(), expect=None):
        op_id = f"{len(self.ops):04d}"
        argv = [command]
        path = None
        if doc is not None:
            path = f"{self.dir}/{op_id}-{kind}.json"
            argv.append(path)
        argv.extend(str(a) for a in extra_args)
        self.ops.append({"id": op_id, "kind": kind, "argv": argv, "path": path,
                         "doc": doc, "expect": dict(expect or {})})

    def finish(self) -> list[dict]:
        """Shuffle the op order (seeded) and renumber ids and paths."""
        self.rng.shuffle(self.ops)
        for i, op in enumerate(self.ops):
            new_id = f"{i:04d}"
            if op["path"] is not None:
                new_path = f"{self.dir}/{new_id}-{op['kind']}.json"
                op["argv"] = [new_path if a == op["path"] else a for a in op["argv"]]
                op["path"] = new_path
            op["id"] = new_id
        return self.ops

    def relabel(self, rank: int, *word_lists):
        """The word lists under one seeded signed permutation of the
        generators (an automorphism of F_r, so costs of full-ball work are
        unchanged)."""
        perm = self.rng.sample(range(1, rank + 1), rank)
        sign = [self.rng.choice((1, -1)) for _ in range(rank)]
        image = {i: sign[i - 1] * perm[i - 1] for i in range(1, rank + 1)}
        return [[tuple(image[x] if x > 0 else -image[-x] for x in w) for w in ws]
                for ws in word_lists]

    def infinite_index_gens(self, rank: int, count: int, lengths) -> list[tuple]:
        while True:
            gens = [self.word(rank, self.rng.choice(lengths), cyclic=True) for _ in range(count)]
            if all(gens) and naive.fold(rank, gens).index() is None:
                return gens


def _fmt_all(ws) -> list[str]:
    return [naive.fmt(w) for w in ws]


# ── trace-distance ───────────────────────────────────────────────────────────


def _nielsen(gen: _Gen, gens: list[tuple], moves: int) -> list[tuple]:
    """A different presentation of ⟨gens⟩: random Nielsen moves, then a shuffle."""
    out = list(gens)
    for _ in range(moves):
        i, j = gen.rng.sample(range(len(out)), 2)
        kind = gen.rng.randrange(4)
        if kind == 0:
            out[i] = naive.mul(out[i], out[j])
        elif kind == 1:
            out[i] = naive.mul(out[j], out[i])
        elif kind == 2:
            out[i] = naive.mul(out[i], naive.inv(out[j]))
        else:
            out[i] = naive.inv(out[i])
    gen.rng.shuffle(out)
    return out


def _unfolded_pair(g: _Gen, wlen: int) -> tuple[list[tuple], tuple]:
    """Infinite-index S and a cyclically reduced w of length wlen whose first
    letter and inverse last letter label no edge at the basepoint of <S>."""
    while True:
        S = g.infinite_index_gens(2, g.rng.choice([1, 2]), [2, 3, 4])
        H = naive.fold(2, S)
        unused = [x for x in naive.letters(2) if H.walk((x,)) is None]
        if len(unused) >= 2:
            break
    first, last_inv = g.rng.sample(unused, 2)
    while True:
        w = g.word(2, wlen)
        if w[0] == first and w[-1] == -last_inv:
            return S, w


# Schedules. A percentile of a mix of unlike ops moves a lot when a seed
# shifts a few ops across it, so each schedule places a block of ops of
# near-equal cost around the 50th and the 90th percentile of the op list
# (the ranks are noted beside the blocks).

# (radius, |w|) of the near pairs; the scan stops inside sphere min(|w|, radius + 1)
_TD_NEAR = ([(r, n) for r in (8, 9, 10, 11) for n in range(2, 8)] * 2   # cheap, ranks 0-48
            + [(9, 8), (10, 8), (11, 8)]
            + [(8, 9)] * 16                                             # B(8) scans, p50 block
            + [(9, 9), (10, 9), (11, 9)] * 2 + [(11, 10)] * 2
            + [(10, 11)] * 6                                            # B(10) scans, p90 block
            + [(11, 11)])
_TD_EQUAL = [8] * 12 + [9] * 4 + [10] * 6 + [11] * 2   # full scans: p50 and p90 blocks
_TD_SEQUENCE = [6] * 4 + [7] * 4 + [8] * 2
_TD_WITNESS = [5] * 2 + [6] * 4 + [7] * 2 + [8] * 2


def trace_distance(seed: int) -> list[dict]:
    g = _Gen("trace-distance", seed)
    # the ops that scan B(8) or more (the percentile blocks and the costliest
    # ops) come from a seed-independent pool, relabelled by the seed, so
    # their cost is nearly the same for every seed
    pool = _Gen("trace-distance", "pool")
    # equal pairs: the scan runs over the whole ball
    for radius in _TD_EQUAL:
        S = pool.infinite_index_gens(2, 2, [2, 3, 4])
        S, T = g.relabel(2, S, _nielsen(pool, S, 3))
        g.add("pair-equal", "chabauty",
              {"pair": [{"context": FREE2, "generators": _fmt_all(S)},
                        {"context": FREE2, "generators": _fmt_all(T)}]},
              ["--radius", radius], {"exit": 0, "radius": radius})
    # near pairs <S> vs <S, w>: w's loop meets the core of <S> only at the
    # basepoint, along letters no edge there carries, so nothing folds and
    # the scan stops exactly at depth |w| (or runs the whole ball if |w| > radius)
    for radius, wlen in _TD_NEAR:
        S, w = _unfolded_pair(pool if wlen >= 9 else g, wlen)
        S, (w,) = g.relabel(2, S, [w])
        pair = [{"context": FREE2, "generators": _fmt_all(S)},
                {"context": FREE2, "generators": _fmt_all(S + [w])}]
        if g.rng.random() < 0.5:
            pair.reverse()
        g.add("pair-near", "chabauty", {"pair": pair}, ["--radius", radius],
              {"exit": 0, "radius": radius})
    # sequence certifications <U, v^n> -> <U>
    for radius in _TD_SEQUENCE:
        src = pool if radius == 8 else g
        U = src.infinite_index_gens(2, src.rng.choice([1, 2]), [2, 3])
        v = src.word(2, src.rng.choice([1, 2, 3]), cyclic=True)
        U, (v,) = g.relabel(2, U, [v])
        terms = [U + [naive.power(v, n)] for n in range(1, radius + 4)]
        g.add("sequence", "chabauty",
              {"sequence": [{"context": FREE2, "generators": _fmt_all(t)} for t in terms],
               "limit": {"context": FREE2, "generators": _fmt_all(U)}},
              ["--radius", radius], {"radius": radius})
    # nonisolation witnesses for infinite-index subgroups
    for radius in _TD_WITNESS:
        src = pool if radius >= 7 else g
        S = g.relabel(2, src.infinite_index_gens(2, src.rng.choice([1, 2]), [2, 3, 4]))[0]
        g.add("witness-free", "witness", {"context": FREE2, "generators": _fmt_all(S)},
              ["--radius", radius], {"exit": 0, "radius": radius})
    return g.finish()


# ── fold-build ───────────────────────────────────────────────────────────────

# (word count, word length, completion radius) of the seeded random-generator
# documents. Counts and lengths both span 20-150, never both near 150 in one
# document (which alone would take a quarter of a pass). The completion
# radius sets much of a small document's cost, so the cheap ones get 3 and
# the middle ones 5 and 6, keeping both off the p50 block.
_FB_RANDOM = ([(20, 20, 3)] * 14 + [(20, 30, 3), (30, 20, 3)] * 6          # cheap
              + [(20, 40, 5), (40, 20, 6), (20, 50, 5), (50, 20, 6), (30, 40, 5),
                 (40, 30, 6)] * 3)
# pool documents, relabelled by the seed: the p50 block, the p90 block and
# the two largest
_FB_POOL = [(25, 25, 4)] * 26 + [(50, 50, 4)] * 12 + [(150, 20, 4), (20, 150, 4)]
# (rank, relators, ball radius, completion radius) of the normal-closure documents
_FB_CLOSURES = (
    [(2, ["abAB"], 4, 3), (2, ["abAb"], 4, 3), (2, ["abAB", "aaa"], 4, 3),
     (2, ["abAB", "bbbb"], 4, 3), (2, ["abAB", "aaaa", "bbb"], 4, 3),
     (2, ["abAB", "aa", "bbb"], 4, 3), (3, ["abAB", "acAC", "bcBC"], 3, 3)] * 2  # cheap
    + [(2, ["abAB"], 5, 5), (2, ["abAb"], 5, 6), (2, ["abAB", "aaa"], 5, 5)]
    + [(2, ["abAB"], 7, 6)])                                                  # top


def _fold_extras(g: _Gen, rank: int, gens: list[tuple], completion: int) -> dict:
    shared = g.rng.sample(gens, max(1, len(gens) // 2))
    fresh = [g.word(rank, g.rng.choice([3, 5, 8])) for _ in range(3)]
    return {
        "intersect_with": shared + fresh,
        "conjugate_by": g.word(rank, g.rng.choice([2, 4, 6, 8])),
        "completion_radius": completion,
        "queries": [g.word(rank, n) for n in (1, 2, 3, 5, 8)] + gens[:3],
    }


def _stallings_doc(rank: int, gens, extras: dict) -> dict:
    return {"context": free(rank), "generators": _fmt_all(gens),
            "intersect_with": {"context": free(rank),
                               "generators": _fmt_all(extras["intersect_with"])},
            "conjugate_by": naive.fmt(extras["conjugate_by"]),
            "completion_radius": extras["completion_radius"],
            "queries": _fmt_all(extras["queries"])}


def fold_build(seed: int) -> list[dict]:
    g = _Gen("fold-build", seed)
    pool = _Gen("fold-build", "pool")
    for count, length, completion in _FB_RANDOM:
        gens = [g.word(2, length) for _ in range(count)]
        doc = _stallings_doc(2, gens, _fold_extras(g, 2, gens, completion))
        g.add("fold-random", "stallings", doc, expect={"exit": 0})
    for count, length, completion in _FB_POOL:
        gens = [pool.word(2, length) for _ in range(count)]
        extras = _fold_extras(pool, 2, gens, completion)
        gens, inter, (conj,), queries = g.relabel(
            2, gens, extras["intersect_with"], [extras["conjugate_by"]], extras["queries"])
        extras.update(intersect_with=inter, conjugate_by=conj, queries=queries)
        g.add("fold-random", "stallings", _stallings_doc(2, gens, extras), expect={"exit": 0})
    for rank, relators, radius, completion in _FB_CLOSURES:
        # relabelled relators: each seed folds a different normal closure
        # with an isomorphic quotient
        rels = g.relabel(rank, [naive.parse(r) for r in relators])[0]
        gens = [naive.conj(w, r) for w in naive.ball(rank, radius) for r in rels]
        g.rng.shuffle(gens)
        doc = _stallings_doc(rank, gens, _fold_extras(g, rank, gens, completion))
        g.add("fold-closure", "stallings", doc, expect={"exit": 0})
    return g.finish()


# ── conjugator-search ────────────────────────────────────────────────────────


def _clopen_side(g: _Gen) -> tuple[dict, list[str]]:
    gens = g.infinite_index_gens(2, g.rng.choice([1, 1, 2]), [2, 3, 4])
    H = naive.fold(2, gens)
    outs: list[tuple] = []
    want = g.rng.choice([1, 2, 3])
    while len(outs) < want:
        o = g.word(2, g.rng.choice([1, 2, 3]))
        if not H.contains(o) and o not in outs:
            outs.append(o)
    return {"ins": _fmt_all(gens), "outs": _fmt_all(outs)}, _fmt_all(gens)


def _obstruction_doc(c: tuple, x: tuple, u_len_cap: int, exponent_cap: int) -> dict:
    """The obstructed two-pair pattern of ``dynamics.obstruction_task`` with
    the base word c (cyclically reduced, not a proper power) in place of ab,
    and c' = x·c·x⁻¹ for a letter x ∉ ⟨c⟩ in place of ba."""
    grid = naive.candidate_grid(2, u_len_cap, exponent_cap, 12)
    c2 = naive.conj(x, c)
    C = naive.fold(2, [c])
    shadow = sorted({naive.conj(w, c) for w in grid if not C.contains(naive.conj(w, c))},
                    key=lambda w: (len(w), [(abs(y), y < 0) for y in w]))
    fc, fc2 = naive.fmt(c), naive.fmt(c2)
    source = {"ins": [fc], "outs": _fmt_all(shadow)}
    return {
        "context": FREE2,
        "pairs": [
            {"source": source, "target": {"ins": [fc], "outs": [fc2]},
             "source_witness": [fc], "target_witness": [fc]},
            {"source": source, "target": {"ins": [fc2], "outs": [fc]},
             "source_witness": [fc], "target_witness": [fc2]},
        ],
        "budget": {"u_len_cap": u_len_cap, "exponent_cap": exponent_cap},
    }


# obstruction grids (u_len_cap, exponent_cap): the twelve smallest form the
# p90 block, and come from the pool (relabelling keeps the grid, so the cost)
_CS_OBSTRUCTION = [(3, 4)] * 12 + [(3, 5), (3, 6), (4, 4), (4, 5), (4, 6), (5, 4), (5, 5), (5, 6)]


def conjugator_search(seed: int) -> list[dict]:
    g = _Gen("conjugator-search", seed)
    pool = _Gen("conjugator-search", "pool")
    for npairs in [1] * 90 + [2] * 30:
        pairs = []
        for _ in range(npairs):
            (src, sw), (tgt, tw) = _clopen_side(g), _clopen_side(g)
            pairs.append({"source": src, "target": tgt,
                          "source_witness": sw, "target_witness": tw})
        g.add("transit-random", "transit", {"context": FREE2, "pairs": pairs},
              expect={"exit": 0})
    for u_len_cap, exponent_cap in _CS_OBSTRUCTION:
        while True:
            c = pool.word(2, pool.rng.choice([2, 3]), cyclic=True)
            if len(set(map(abs, c))) == 2 and not naive.is_proper_power(c):
                break
        (c, x), = g.relabel(2, [c, (pool.rng.choice(naive.letters(2)),)])
        grid = len(naive.candidate_grid(2, u_len_cap, exponent_cap, 12))
        g.add("transit-obstruction", "transit", _obstruction_doc(c, x, u_len_cap, exponent_cap),
              expect={"exit": 4, "candidates_tried": grid})
    return g.finish()


# ── coset-lattice ────────────────────────────────────────────────────────────


def _lattice_vec(g: _Gen, dim: int, bound: int) -> tuple:
    while True:
        v = tuple(g.rng.randint(-bound, bound) for _ in range(dim))
        if any(v):
            return v


def _lattice(dim: int) -> dict:
    return {"kind": "lattice", "rank": dim}


# zd --enumerate (dim, max index): catalogue costs are seed-independent;
# the three sizes of near-equal cost form the p90 block
_CL_ENUMERATE = ([(2, 60), (3, 12), (3, 20), (4, 6), (4, 8)]
                 + [(2, 100), (3, 24), (4, 10)] * 5
                 + [(2, 200), (3, 36)])
# Schreier radii of ker(F2 -> Z); the graph is the same for every seed, and
# the radius-30 balls form the p50 block
_CL_SCHREIER_Z = [8, 8, 16, 16] + [30] * 28


def coset_lattice(seed: int) -> list[dict]:
    g = _Gen("coset-lattice", seed)
    for dim, max_index in _CL_ENUMERATE:
        g.add("zd-enumerate", "zd", None, ["--enumerate", dim, max_index],
              {"exit": 0, "dim": dim, "max_index": max_index})
    # lattice documents with membership queries
    for dim in [2, 3, 4] * 10:
        rank = g.rng.randint(1, dim)
        gens = [_lattice_vec(g, dim, 9) for _ in range(rank + 1)]
        queries = [_lattice_vec(g, dim, 12) for _ in range(20)]
        rows = naive.hnf(dim, gens)
        queries += [tuple(sum(g.rng.randint(-2, 2) * r[j] for r in rows) for j in range(dim))
                    for _ in range(10)]
        g.add("zd-doc", "zd", {"context": _lattice(dim), "generators": [list(v) for v in gens],
                               "queries": [list(q) for q in queries]},
              expect={"exit": 0, "dim": dim})
    # witness sequences and distances for Z^d subgroups
    for dim, radius in [(2, 6), (2, 8), (3, 4), (3, 6), (4, 3)] * 3:
        rank = g.rng.randint(1, dim - 1)
        while True:
            gens = [_lattice_vec(g, dim, 3) for _ in range(rank)]
            if len(naive.hnf(dim, gens)) == rank:
                break
        g.add("witness-lattice", "witness",
              {"context": _lattice(dim), "generators": [list(v) for v in gens]},
              ["--radius", radius], {"exit": 0, "radius": radius})
    for dim, radius in [(2, 10), (2, 16), (3, 6), (3, 9), (4, 5)] * 3:
        gens = [_lattice_vec(g, dim, 4) for _ in range(g.rng.randint(1, dim))]
        extra = _lattice_vec(g, dim, 3)
        pair = [{"context": _lattice(dim), "generators": [list(v) for v in gens]},
                {"context": _lattice(dim), "generators": [list(v) for v in gens + [extra]]}]
        g.add("pair-lattice", "chabauty", {"pair": pair}, ["--radius", radius],
              {"exit": 0, "radius": radius})
    # Schreier balls of homomorphism kernels and Stallings subgroups
    for radius in _CL_SCHREIER_Z:
        # ker(F2 -> Z) with the generator images (±1, 0) in seeded order
        images = [[g.rng.choice([1, -1])], [0]]
        g.rng.shuffle(images)
        g.add("schreier-z", "schreier",
              {"context": FREE2, "hom": {"target": {"kind": "lattice", "param": 1},
                                         "images": images, "accepted": "zero"}},
              ["--radius", radius], {"exit": 0, "radius": radius, "target": "Z"})
    for radius in [8, 8, 16, 30]:
        e1, e2 = [g.rng.choice([1, -1]), 0], [0, g.rng.choice([1, -1])]
        images = [e1, e2] if g.rng.random() < 0.5 else [e2, e1]
        line = [0, 1] if g.rng.random() < 0.5 else [1, 0]
        g.add("schreier-z2", "schreier",
              {"subgroup": {"context": FREE2,
                            "hom": {"target": {"kind": "lattice", "param": 2},
                                    "images": images, "accepted": "zero"}},
               "over": {"context": FREE2,
                        "hom": {"target": {"kind": "lattice", "param": 2},
                                "images": images,
                                "accepted": {"generators": [line]}}}},
              ["--radius", radius],
              {"exit": 0, "radius": radius, "target": "Z2", "images": images, "line": line})
    for m, radius in [(5, 8), (12, 10), (30, 20), (101, 30)]:
        a = g.rng.choice([x for x in range(1, m) if _gcd(x, m) == 1])
        g.add("schreier-cyclic", "schreier",
              {"context": FREE2, "hom": {"target": {"kind": "cyclic", "param": m},
                                         "images": [a, 0], "accepted": [0]}},
              ["--radius", radius], {"exit": 0, "radius": radius, "target": "cyclic", "m": m})
    for n, radius in [(4, 8), (5, 12), (6, 16), (6, 24)]:
        perms = [tuple(g.rng.sample(range(n), n)) for _ in range(2)]
        g.add("schreier-sym", "schreier",
              {"context": FREE2, "hom": {"target": {"kind": "permutation", "param": n},
                                         "images": [list(p) for p in perms],
                                         "accepted": [list(range(n))]}},
              ["--radius", radius], {"exit": 0, "radius": radius, "target": "perm",
                                     "images": [list(p) for p in perms]})
    pool = _Gen("coset-lattice", "pool")
    for radius in [6, 6, 7, 7, 8]:
        src = pool if radius == 8 else g
        S = g.relabel(2, src.infinite_index_gens(2, src.rng.choice([1, 2]), [2, 3, 4]))[0]
        g.add("schreier-free", "schreier", {"context": FREE2, "generators": _fmt_all(S)},
              ["--radius", radius], {"exit": 0, "radius": radius, "target": "free"})
    # Folner ratios of interval sets in a kernel to Z
    for sizes in [[2, 3, 4, 5], [4, 8, 12], [6, 10, 16], [3, 7, 20]] * 2:
        letter = g.rng.choice([0, 1])
        images = [[0], [0]]
        images[letter] = [1]
        x = letter + 1
        sets = [[naive.fmt(naive.power((x,), j)) for j in range(-i, i + 1)] for i in sizes]
        g.rng.shuffle(sets)
        order = [len(s) // 2 for s in sets]
        elements = ["a", "A", "b", "B"]
        g.add("folner", "folner",
              {"subgroup": {"context": FREE2, "hom": {"target": {"kind": "lattice", "param": 1},
                                                      "images": images, "accepted": "zero"}},
               "sets": sets, "elements": elements,
               "tolerances": [f"1/{i}" for i in order]},
              expect={"exit": 0, "sizes": order, "letter": naive.fmt((x,))})
    return g.finish()


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


WORKLOADS = {
    "trace-distance": trace_distance,
    "fold-build": fold_build,
    "conjugator-search": conjugator_search,
    "coset-lattice": coset_lattice,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)
