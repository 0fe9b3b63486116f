"""Verdict checks: each report is re-derived from outside the program.

``check(op, exit_code, stdout, budget)`` returns the list of failed checks
for one op (empty when the report is accepted). Where the construction fixes
the answer (Nielsen-equivalent pairs, obstructed tasks, sublattice counts,
kernel sphere sizes, interval Følner ratios) it is checked directly;
everything else is recomputed with :mod:`naive`. No check compares against
output recorded from the program.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import naive


def _free_graph(sub: dict) -> naive.Graph:
    return naive.fold(sub["context"]["rank"], [naive.parse(w) for w in sub["generators"]])


def _distance_json(w, exponent: int, radius: int, is_free: bool) -> dict:
    if w is None:
        return {"kind": "at_most", "exponent": radius + 1,
                "value": naive.frac(Fraction(1, 2 ** (radius + 1))), "witness": None}
    return {"kind": "exact", "exponent": exponent, "value": naive.frac(Fraction(1, 2 ** exponent)),
            "witness": naive.fmt(w) if is_free else list(w)}


def _membership(sub: dict):
    """(predicate, ball(radius) enumerator, norm, is_free) for a subgroup document."""
    ctx = sub["context"]
    if ctx["kind"] == "free":
        G = _free_graph(sub)
        return G.contains, (lambda r: naive.ball(ctx["rank"], r)), len, True
    rows = naive.hnf(ctx["rank"], sub["generators"])
    return ((lambda v: naive.lattice_contains(rows, v)),
            (lambda r: naive.lattice_ball(ctx["rank"], r)),
            (lambda v: sum(map(abs, v))), False)


def _expect_equal(fails: list, what: str, got, want) -> None:
    if got != want:
        fails.append(f"{what}: got {str(got)[:120]}, want {str(want)[:120]}")


# ── per-kind checks ──────────────────────────────────────────────────────────


def _pair(op, result, fails):
    radius = op["expect"]["radius"]
    h_doc, k_doc = op["doc"]["pair"]
    if op["kind"] == "pair-equal":
        _expect_equal(fails, "distance", result["distance"],
                      _distance_json(None, 0, radius, True))
        return
    h, ball, norm, is_free = _membership(h_doc)
    k = _membership(k_doc)[0]
    w = naive.least_difference(h, k, ball(radius))
    _expect_equal(fails, "distance", result["distance"],
                  _distance_json(w, norm(w) if w is not None else 0, radius, is_free))


def _certification(term_preds, limit_pred, ball, radius, is_free):
    """Expected (certification, per-term distance exponents) from traces."""
    first_diff = [None] * len(term_preds)
    for w in ball:
        inside = limit_pred(w)
        for i, p in enumerate(term_preds):
            if first_diff[i] is None and p(w) != inside:
                first_diff[i] = w
    agree = [d is None for d in first_diff]
    cert = {"kind": "certified", "radius": radius, "n0": None, "index": None, "witness": None}
    if agree[-1]:
        n0 = len(agree)
        while n0 > 1 and agree[n0 - 2]:
            n0 -= 1
        cert["n0"] = n0
    else:
        start = len(agree)
        while start > 1 and not agree[start - 2]:
            start -= 1
        w = first_diff[start - 1]
        cert.update(kind="fails", index=start, witness=naive.fmt(w) if is_free else list(w))
    return cert, first_diff


def _sequence(op, result, fails, exit_code):
    radius = op["expect"]["radius"]
    limit = _free_graph(op["doc"]["limit"])
    terms = [_free_graph(t) for t in op["doc"]["sequence"]]
    cert, first = _certification([t.contains for t in terms], limit.contains,
                                 naive.ball(limit.rank, radius), radius, True)
    _expect_equal(fails, "exit", exit_code, 0 if cert["kind"] == "certified" else 4)
    _expect_equal(fails, "certification", result["certification"], cert)
    rows = [{"n": n, "distance_exponent": radius + 1 if w is None else len(w),
             "nontrivial": t != limit} for n, (t, w) in enumerate(zip(terms, first), start=1)]
    _expect_equal(fails, "terms", result["terms"], rows)


def _witness_free(op, result, fails):
    radius = op["expect"]["radius"]
    gens = [naive.parse(w) for w in op["doc"]["generators"]]
    H = naive.fold(2, gens)
    wit = result["witness"]["terms"]
    _expect_equal(fails, "term count", len(wit), radius)
    terms = []
    for n, t in enumerate(wit, start=1):
        k = naive.parse(t["adjoined"])
        T = naive.fold(2, gens + [k])
        terms.append(T)
        if t["n"] != n or H.contains(k):
            fails.append(f"term {n}: adjoined {t['adjoined']} lies in H")
        _expect_equal(fails, f"term {n} rank", t["term_rank"], T.rank_of_subgroup())
        _expect_equal(fails, f"term {n} index", t["term_index"], T.index())
    cert, first = _certification([t.contains for t in terms], H.contains,
                                 naive.ball(2, radius), radius, True)
    _expect_equal(fails, "certification", result["certification"], cert)
    for n, w in enumerate(first, start=1):
        if w is not None and len(w) <= n:
            fails.append(f"term {n} disagrees with H at radius {len(w)} <= n")
    rows = [{"n": n, "distance_exponent": radius + 1 if w is None else len(w),
             "nontrivial": True} for n, w in enumerate(first, start=1)]
    _expect_equal(fails, "terms", result["terms"], rows)


def _witness_lattice(op, result, fails):
    radius = op["expect"]["radius"]
    dim = op["doc"]["context"]["rank"]
    rows = naive.hnf(dim, op["doc"]["generators"])
    direction = next(e for e in ([int(i == c) for i in range(dim)] for c in range(dim))
                     if len(naive.hnf(dim, list(rows) + [e])) > len(rows))
    ball = naive.lattice_ball(dim, radius)
    base = {v for v in ball if naive.lattice_contains(rows, v)}
    # the documented stopping rule: first m >= 2L+2 ending three agreeing terms
    terms, streak, m = [], 0, 0
    while not (m >= 2 * radius + 2 and streak >= 3):
        m += 1
        t = naive.hnf(dim, list(rows) + [[m * x for x in direction]])
        terms.append(t)
        agrees = {v for v in ball if naive.lattice_contains(t, v)} == base
        streak = streak + 1 if agrees else 0
    want = {"subgroup": [list(r) for r in rows], "direction": direction,
            "terms": [[list(r) for r in t] for t in terms]}
    _expect_equal(fails, "witness", result["witness"], want)
    preds = [(lambda v, t=t: naive.lattice_contains(t, v)) for t in terms]
    cert, first = _certification(preds, lambda v: naive.lattice_contains(rows, v), ball,
                                 radius, False)
    _expect_equal(fails, "certification", result["certification"], cert)
    want_rows = [{"n": n, "distance_exponent": radius + 1 if w is None else sum(map(abs, w)),
                  "nontrivial": True} for n, w in enumerate(first, start=1)]
    _expect_equal(fails, "terms", result["terms"], want_rows)


def _zd_enumerate(op, result, fails):
    d, top = op["expect"]["dim"], op["expect"]["max_index"]
    counts = {str(n): naive.sublattice_count(d, n) for n in range(1, top + 1)}
    _expect_equal(fails, "counts", result["counts"], counts)
    _expect_equal(fails, "total", result["total"], sum(counts.values()))


def _zd_doc(op, result, fails):
    dim = op["expect"]["dim"]
    rows = naive.hnf(dim, op["doc"]["generators"])
    index = None
    if len(rows) == dim:
        index = 1
        for i, r in enumerate(rows):
            index *= r[i]
    want = {"rows": [list(r) for r in rows], "rank": len(rows), "index": index,
            "erasing_rank": dim - len(rows) + 1,
            "membership": {str(q): naive.lattice_contains(rows, q) for q in op["doc"]["queries"]}}
    _expect_equal(fails, "lattice", result, want)


def _coset_key(op):
    """A canonical label of the coset H·w for the op's subgroup H."""
    exp = op["expect"]
    if exp["target"] == "free":
        G = _free_graph(op["doc"])

        def key(w):
            v = 0
            for i, x in enumerate(w):
                nxt = G.walk((x,), v)
                if nxt is None:
                    return (v, w[i:])
                v = nxt
            return (v, ())
        return key
    hom = op["doc"]["subgroup" if exp["target"] == "Z2" else "hom"]
    hom = hom.get("hom", hom)
    images = hom["images"]
    if exp["target"] == "perm":
        perms = [tuple(p) for p in images]
        inverses = [tuple(sorted(range(len(p)), key=p.__getitem__)) for p in perms]

        def key(w):
            p = tuple(range(len(perms[0])))
            for x in w:
                g = perms[x - 1] if x > 0 else inverses[-x - 1]
                p = tuple(g[i] for i in p)
            return p
        return key
    modulus = exp.get("m")

    def key(w):
        v = [0] * len(images[0]) if modulus is None else [0]
        for x in w:
            img = images[abs(x) - 1]
            img = img if isinstance(img, list) else [img]
            v = [a + (b if x > 0 else -b) for a, b in zip(v, img)]
        return tuple(v) if modulus is None else v[0] % modulus
    return key


def _schreier_ball(key, rank: int, radius: int):
    """BFS of the coset graph to the radius: (distance per coset, edges)."""
    ids = {key(()): 0}
    reps, dist, edges = [()], [0], []
    i = 0
    while i < len(reps):
        for x in naive.letters(rank):
            u = naive.mul(reps[i], (x,))
            k = key(u)
            j = ids.get(k)
            if j is None:
                if dist[i] >= radius:
                    continue
                j = ids[k] = len(reps)
                reps.append(u)
                dist.append(dist[i] + 1)
            edges.append((i, j))
        i += 1
    return dist, edges


def _ends(dist, edges, radius: int, r: int) -> int:
    """Components outside the closed r-ball that reach the radius-R sphere."""
    parent = {v: v for v, d in enumerate(dist) if d > r}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    return len({find(v) for v in parent if dist[v] == radius})


def _schreier(op, result, fails):
    exp = op["expect"]
    R = exp["radius"]
    target = exp["target"]
    dist, edges = _schreier_ball(_coset_key(op), 2, R)
    spheres = [dist.count(d) for d in range(max(dist) + 1)]
    # closed forms where the kernel fixes them
    if target == "Z":
        _expect_equal(fails, "sphere sizes (closed form)", spheres, [1] + [2] * R)
        _expect_equal(fails, "line probe", result["line_probe"]["verdict"], "Z")
    elif target == "Z2":
        _expect_equal(fails, "sphere sizes (closed form)", spheres,
                      [1] + [4 * r for r in range(1, R + 1)])
        want = sorted((2 * (R - abs(c)) + 1, 2 * (R - abs(c))) for c in range(-R, R + 1))
        got = sorted((f["size"], f["diameter"]) for f in result.get("fibers", []))
        _expect_equal(fails, "fiber sizes and diameters", got, want)
    elif target == "cyclic":
        m = exp["m"]
        _expect_equal(fails, "sphere sizes (closed form)", spheres,
                      [1] + [2 if 2 * r < m else 1 for r in range(1, min(R, m // 2) + 1)])
    _expect_equal(fails, "sphere sizes", result["graph"]["sphere_sizes"], spheres)
    _expect_equal(fails, "vertices", result["graph"]["vertices"], len(dist))
    _expect_equal(fails, "ends", result["ends"],
                  [[r, _ends(dist, edges, R, r)] for r in range(1, min(6, R - 1) + 1)])


def _folner(op, result, fails):
    doc = op["doc"]
    letter = op["expect"]["letter"]
    sets = []
    for words, i in zip(doc["sets"], op["expect"]["sizes"]):
        ratio = naive.frac(Fraction(2, 2 * i + 1))
        sets.append({
            "size": 2 * i + 1, "distinct": True, "collision": None,
            "tolerance": doc["tolerances"][len(sets)],
            "ratios": [{"element": g, "ratio": ratio if g.lower() == letter else "0"}
                       for g in doc["elements"]],
            "ok": True,
        })
    _expect_equal(fails, "folner", result["folner"], {"ok": True, "sets": sets})


def _transit_random(op, result, fails):
    cert = result["certificate"]
    w = naive.parse(cert["candidate"])
    g = naive.parse(cert["conjugator"])
    _expect_equal(fails, "conjugator", g, naive.inv(w))
    grid = naive.candidate_grid(2, 5, 6, 12)
    if w not in grid:
        fails.append(f"candidate {cert['candidate']} is outside the search grid")
    else:
        _expect_equal(fails, "candidates_tried", cert["candidates_tried"], grid.index(w) + 1)
    for i, (pair, pc) in enumerate(zip(op["doc"]["pairs"], cert["pairs"]), start=1):
        lam_s = [naive.parse(x) for x in pair["source_witness"]]
        lam_t = [naive.conj(w, naive.parse(x)) for x in pair["target_witness"]]
        delta = naive.fold(2, lam_s + lam_t)
        basis = [naive.parse(x) for x in pc["delta_basis"]]
        if naive.fold(2, basis) != delta:
            fails.append(f"pair {i}: delta_basis does not generate Δ")
        moved = naive.fold(2, [naive.conj(g, b) for b in basis])
        for name, G, V in (("source", delta, pair["source"]), ("target", moved, pair["target"])):
            if not all(G.contains(naive.parse(x)) for x in V["ins"]) or any(
                    G.contains(naive.parse(x)) for x in V["outs"]):
                fails.append(f"pair {i}: moved point outside the {name} set")
        S, T = naive.fold(2, lam_s), naive.fold(2, lam_t)
        if pc["freeness"] == "absorbed":
            ok = delta in (S, T)
        else:
            ok = (naive.intersect(S, T).nedges() == 0 and delta.rank_of_subgroup()
                  == S.rank_of_subgroup() + T.rank_of_subgroup())
        if not ok:
            fails.append(f"pair {i}: freeness claim {pc['freeness']!r} does not hold")


def _transit_obstruction(op, result, fails):
    progress = result["failure"]["progress"]
    _expect_equal(fails, "candidates_tried", progress["candidates_tried"],
                  op["expect"]["candidates_tried"])
    _expect_equal(fails, "checks_per_candidate", progress["checks_per_candidate"], 6)
    # the identity already passes pair one and pair two's freeness check,
    # and nothing passes more (see dynamics.obstruction_task)
    _expect_equal(fails, "best candidate",
                  (progress["best_checks_passed"], progress["best_candidate"],
                   progress["best_failure"]),
                  (4, "", "pair 2: Δ outside the source set"))
    budget = op["doc"]["budget"]
    _expect_equal(fails, "grid", (progress["u_len_cap"], progress["exponent_cap"]),
                  (budget["u_len_cap"], budget["exponent_cap"]))


def _stallings(op, result, fails):
    doc = op["doc"]
    rank = doc["context"]["rank"]
    gens = [naive.parse(w) for w in doc["generators"]]
    H = naive.fold(rank, gens)
    _graph(fails, "subgroup", result["subgroup"], H)
    _expect_equal(fails, "membership", result["membership"],
                  {q: H.contains(naive.parse(q)) for q in doc["queries"]})
    K = _free_graph(doc["intersect_with"])
    _graph(fails, "intersection", result["intersection"], naive.intersect(H, K))
    g = naive.parse(doc["conjugate_by"])
    _graph(fails, "conjugate", result["conjugate"], naive.conjugate(H, g))
    # completions are not unique: check the defining properties instead
    comp = result["completion"]
    n = doc["completion_radius"]
    C = naive.graph_from_tables(rank, comp["vertices"], comp["edges"])
    if not C.covering():
        fails.append("completion is not a covering")
    _expect_equal(fails, "completion index", comp["index"], C.nverts)
    _expect_equal(fails, "completion radius", comp["agreement_radius"], n)
    if not all(C.contains(w) for w in gens):
        fails.append("completion does not contain H")
    w = naive.least_difference(H.contains, C.contains, naive.ball(rank, n))
    if w is not None:
        fails.append(f"completion disagrees with H at {naive.fmt(w)}")
    _basis(fails, "completion", comp, C)


def _graph(fails, what, got: dict, G: naive.Graph) -> None:
    _expect_equal(fails, f"{what} vertices", got["vertices"], G.nverts)
    _expect_equal(fails, f"{what} rank", got["rank"], G.rank_of_subgroup())
    _expect_equal(fails, f"{what} index", got["index"], G.index())
    if got["edges"] != G.edge_tables():
        fails.append(f"{what}: edge tables differ from the reference fold")
    _basis(fails, what, got, G)


def _basis(fails, what, got: dict, G: naive.Graph) -> None:
    basis = [naive.parse(w) for w in got["basis"]]
    if len(basis) != G.rank_of_subgroup() or not all(G.contains(w) for w in basis):
        fails.append(f"{what}: basis words are not {G.rank_of_subgroup()} members")
    elif G.nverts < 300 and naive.fold(G.rank, basis) != G:
        fails.append(f"{what}: basis does not generate the subgroup")


_CHECKS = {
    "pair-equal": _pair, "pair-near": _pair, "pair-lattice": _pair,
    "witness-free": _witness_free, "witness-lattice": _witness_lattice,
    "zd-enumerate": _zd_enumerate, "zd-doc": _zd_doc,
    "schreier-z": _schreier, "schreier-z2": _schreier, "schreier-cyclic": _schreier,
    "schreier-sym": _schreier, "schreier-free": _schreier,
    "folner": _folner,
    "transit-random": _transit_random, "transit-obstruction": _transit_obstruction,
    "fold-random": _stallings, "fold-closure": _stallings,
}


def check(op: dict, exit_code: int, stdout: str, budget: dict) -> list[str]:
    """Failed checks for one op's report (an empty list accepts it)."""
    fails: list[str] = []
    want_exit = op["expect"].get("exit")
    if want_exit is not None and exit_code != want_exit:
        return [f"exit code {exit_code}, want {want_exit}"]
    if exit_code not in (0, 4):
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON report: {exc}"]
    prov = report.get("provenance", {})
    _expect_equal(fails, "command", report.get("command"), op["argv"][0])
    _expect_equal(fails, "provenance.command", prov.get("command"), ["chabauty-lab"] + op["argv"])
    doc_sha = None
    if op["doc"] is not None:
        doc_sha = hashlib.sha256(doc_text(op["doc"]).encode("utf-8")).hexdigest()
    _expect_equal(fails, "provenance.input_sha256", prov.get("input_sha256"), doc_sha)
    _expect_equal(fails, "provenance.budget", prov.get("budget"), budget)
    try:
        if op["kind"] == "sequence":
            _sequence(op, report["result"], fails, exit_code)
        else:
            _CHECKS[op["kind"]](op, report["result"], fails)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        fails.append(f"report shape: {type(exc).__name__}: {exc}")
    return fails


def doc_text(doc) -> str:
    """The exact bytes written for a document (so its digest is known)."""
    return json.dumps(doc, sort_keys=True) + "\n"
