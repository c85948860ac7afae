"""Seeded corpus generator with planted answers.

Every workload is a fixed grid of size slots; the seed only draws the
random entries inside each slot, so the mix of sizes, cones and planted
verdicts (and therefore the share of failed commands) is the same for
every seed. Instances are built in closed form so that the planted
verdict holds with a margin of order one, independently of `yuancert`.

Workload make-up (see README.md for the reasoning):

* pencil -- `certify` / `yuan2` on rank-2 families whose coefficient
  directions lie in an open quadrant, so every family ends in the
  golden-section pencil search on its two extreme members.
* kkt    -- `soc` on degenerate KKT points (gradients in a 3- or 4-dim
  subspace). Certified / refuted points have a product multiplier
  polytope whose curved block has exactly three vertices, so the vertex
  Hessians take three well-separated values in a 2-dim span; rank-3
  points stop after vertex enumeration.
* quad   -- `quad` on collinear families (full triple loop, sampled rank
  check, then certify_rank2) and on planar non-collinear families that
  stop at the first triple.
* verify -- `verify-report` on reports produced by the CLI during set-up,
  plus two forged reports and two genuine `quad` hypothesis reports on
  seed-independent inputs (known faults, counted as failed).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("pencil", "kkt", "quad", "verify")

# Seed-independent inputs of the commands kept as failed in `verify`.
FIXED_SEED = 20170405
EXAMPLE1 = [
    [[1.0, -1.0], [-1.0, 1.0]],
    [[-2.0, 1.0], [1.0, 1.0]],
    [[4.0, -3.0], [-3.0, 1.0]],
]
FORGED_WEIGHTS = ([0.0, 1.0, 0.0], [5.0, -4.0, 0.0])


@dataclass
class Expect:
    """What the independent checker needs to judge one command."""

    kind: str  # family | quad | kkt | verify
    verdict: str  # planted: certified | refuted | hypothesis_violated
    mats: list = field(default_factory=list)  # symmetric members (np arrays)
    span: np.ndarray | None = None  # orthonormal basis of the cone span
    sub: np.ndarray | None = None  # orthonormal basis of the cone subspace
    ray: np.ndarray | None = None  # unit ray orthogonal to `sub`, or None
    kkt: dict | None = None  # grad_f, grad_g, hess_f, hess_g for soc checks
    accept: bool = True  # verify-report: should the stored report verify
    report: str | None = None  # verify-report: stored report path
    source: "Command | None" = None  # verify-report: command that made the report
    forged: int | None = None  # verify-report: index into FORGED_WEIGHTS
    known_fault: str | None = None  # fault that makes this command fail today


@dataclass
class Command:
    cid: int
    size_class: str  # small | medium | large
    argv: list
    expect: Expect


def _rng(seed: int, workload: str, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), slot])


def _sym(rng, k: int) -> np.ndarray:
    g = rng.standard_normal((k, k))
    return (g + g.T) / 2.0


def _indefinite(rng, k: int) -> np.ndarray:
    """Random symmetric form with eigenvalues of both signs, |lambda| in [0.5, 1.5].

    A bounded spectrum keeps P +- sQ below (see _extreme_pair) well away from
    each other's line: a nearly semidefinite Q would need a huge s and make
    the pair nearly parallel, which is fault (a) of the README.
    """
    signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    lam = signs * rng.uniform(0.5, 1.5, k)
    v = _orth(rng.standard_normal((k, k)))
    return (v * lam) @ v.T


def _orth(cols: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(cols)
    return q


def _complement(basis: np.ndarray) -> np.ndarray:
    n, k = basis.shape
    if k == n:
        return np.zeros((n, 0))
    u, _, _ = np.linalg.svd(basis, full_matrices=True)
    return u[:, k:]


def _lift(rng, restricted: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Full symmetric matrix with the given restriction to span(basis)."""
    perp = _complement(basis)
    full = basis @ restricted @ basis.T
    if perp.shape[1]:
        full = full + perp @ _sym(rng, perp.shape[1]) @ perp.T
        cross = basis @ rng.standard_normal((basis.shape[1], perp.shape[1])) @ perp.T
        full = full + 0.5 * (cross + cross.T)
    return (full + full.T) / 2.0


def _extreme_pair(rng, k: int, verdict: str) -> tuple[np.ndarray, np.ndarray]:
    """Two k x k forms whose pencil max is >= 1 (certified) or <= -1 (refuted).

    Certified: A = P + sQ, B = P - sQ with P >= I and s large enough that
    both A and B are indefinite, so the certificate needs a mixture.
    Refuted: both forms equal -1 at a common unit vector z0.
    """
    if verdict == "certified":
        r = rng.standard_normal((k, k))
        p = np.eye(k) + 0.5 * (r @ r.T) / k
        q = _indefinite(rng, k)
        ev = np.linalg.eigvalsh(q)
        s = 2.0 * np.linalg.eigvalsh(p)[-1] / min(-ev[0], ev[-1])
        return p + s * q, p - s * q
    z0 = rng.standard_normal(k)
    z0 /= np.linalg.norm(z0)
    pair = []
    for _ in range(2):
        g = _sym(rng, k)
        pair.append(g - (z0 @ g @ z0 + 1.0) * np.outer(z0, z0))
    return pair[0], pair[1]


def _cone(rng, n: int, cone: str, sub_dim: int):
    """Cone document plus its own orthonormal span/subspace/ray bases."""
    if cone == "full":
        return None, np.eye(n), np.eye(n), None
    gens = rng.standard_normal((sub_dim, n))
    sub = _orth(gens.T)
    ray = None
    doc = {"schema_version": "1", "kind": "cone", "ambient_dim": n,
           "subspace": gens.tolist()}
    if cone == "subray":
        raw = rng.standard_normal(n)
        doc["ray"] = raw.tolist()
        r = raw - sub @ (sub.T @ raw)
        ray = r / np.linalg.norm(r)
        span = np.column_stack([sub, ray])
    else:
        span = sub
    return doc, span, sub, ray


def _write(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _family_doc(mats) -> dict:
    return {"schema_version": "1", "kind": "family",
            "matrices": [m.tolist() for m in mats]}


def _quad_doc(mats) -> dict:
    return {"schema_version": "1", "kind": "quadprob",
            "matrices": [m.tolist() for m in mats], "ray_constant": -1.0}


def _rank2_family(rng, n, m, cone, sub_dim, verdict):
    """Members alpha_i*A + beta_i*B with (alpha, beta) in the open quadrant.

    A and B themselves are members, so the family's two extreme
    directions are exactly the planted pair.
    """
    cone_doc, span, sub, ray = _cone(rng, n, cone, sub_dim)
    ar, br = _extreme_pair(rng, span.shape[1], verdict)
    a, b = _lift(rng, ar, span), _lift(rng, br, span)
    coeffs = [(1.0, 0.0), (0.0, 1.0)]
    # interior directions spread over (10, 80) degrees, so no two members
    # are nearly parallel (fault (a) of the README)
    angles = np.radians(10.0 + 70.0 * (np.arange(m - 2) + rng.uniform(0.3, 0.7, m - 2)) / max(m - 2, 1))
    radii = rng.uniform(0.5, 1.5, m - 2)
    coeffs += [(r * np.cos(a), r * np.sin(a)) for r, a in zip(radii, angles)]
    order = rng.permutation(m)
    mats = [coeffs[i][0] * a + coeffs[i][1] * b for i in order]
    mats = [(x + x.T) / 2.0 for x in mats]
    return mats, cone_doc, span, sub, ray


# (command, n, m, cone, subspace dim, planted); restricted dim k = sub + ray.
PENCIL_SLOTS = {
    "small": [  # k = 2
        ("yuan2", 4, 2, "sub", 2, "certified"),
        ("yuan2", 6, 2, "subray", 1, "refuted"),
        ("certify", 4, 3, "sub", 2, "refuted"),
        ("certify", 8, 4, "subray", 1, "certified"),
        ("certify", 12, 5, "sub", 2, "certified"),
        ("yuan2", 16, 2, "subray", 1, "refuted"),
    ],
    "medium": [  # k = 4
        ("yuan2", 4, 2, "full", 4, "certified"),
        ("yuan2", 4, 2, "full", 4, "refuted"),
        ("certify", 4, 3, "full", 4, "certified"),
        ("certify", 4, 6, "full", 4, "refuted"),
        ("yuan2", 8, 2, "sub", 4, "certified"),
        ("certify", 8, 4, "sub", 4, "refuted"),
        ("certify", 12, 6, "subray", 3, "certified"),
        ("yuan2", 10, 2, "subray", 3, "refuted"),
        ("certify", 16, 6, "sub", 4, "refuted"),
        ("yuan2", 16, 2, "subray", 3, "certified"),
        ("certify", 12, 2, "sub", 4, "certified"),
        ("certify", 12, 4, "subray", 3, "refuted"),
    ],
    "large": [  # k = 6 .. 8
        ("yuan2", 6, 2, "full", 6, "certified"),
        ("certify", 6, 5, "full", 6, "refuted"),
        ("certify", 12, 3, "sub", 7, "certified"),
        ("yuan2", 14, 2, "subray", 5, "refuted"),
        ("certify", 16, 6, "subray", 7, "certified"),
        ("yuan2", 8, 2, "full", 8, "refuted"),
    ],
}


def _pencil(seed, directory):
    commands = []
    for size_class, slots in PENCIL_SLOTS.items():
        for command, n, m, cone, sub_dim, verdict in slots:
            cid = len(commands)
            rng = _rng(seed, "pencil", cid)
            mats, cone_doc, span, sub, ray = _rank2_family(rng, n, m, cone, sub_dim, verdict)
            path = _write(directory, f"p{cid}.json", _family_doc(mats))
            argv = [command, path, "--json"]
            if cone_doc is not None:
                argv += ["--cone", _write(directory, f"p{cid}.cone.json", cone_doc)]
            expect = Expect("family", verdict, mats, span, sub, ray)
            commands.append(Command(cid, size_class, argv, expect))
    return commands


def _kkt_point(rng, n, d, n_lin, verdict):
    """Degenerate KKT point: p1 = 0, every inequality active.

    Gradients live in S = S1 + S2 (dim d = 2 + d2). The four curved
    constraints span S1 with coordinates (1,0),(0,1),(1,1),(2,1) against
    the right-hand side (1,1), so their multiplier block has exactly the
    vertices (1,1,0,0), (0,0,1,0), (0,1/2,0,1/2). The linear constraints
    (zero Hessian) span S2 and multiply the vertex count. The Lagrangian
    Hessian therefore takes three values A, B, C = 0.7A + 0.4B on the
    polytope; their restriction to the lineality space S^perp carries the
    planted verdict. Rank-3 points give every constraint a random Hessian
    in a 3-dim span instead, so the vertex Hessians have rank 3.
    """
    d2 = d - 2
    s = _orth(rng.standard_normal((n, d)))
    s1, s2 = s[:, :2], s[:, 2:]
    lin = _complement(s)
    t = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    scales = rng.uniform(0.5, 2.0, 4)
    c = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    grads = [s1 @ (t @ c[i]) / scales[i] for i in range(4)]
    rhs = s1 @ (t @ np.array([1.0, 1.0]))
    if d2 == 1:
        e = rng.uniform(0.5, 2.0, n_lin)[:, None]
        rhs2 = rng.uniform(0.5, 2.0, 1)
    else:
        # half of the generators on each side of the right-hand side, so
        # the linear block has exactly (n_lin // 2) * (n_lin - n_lin // 2)
        # vertices for every seed
        left = n_lin // 2
        ang = np.concatenate([rng.uniform(0.15, 0.65, left),
                              rng.uniform(0.9, 1.4, n_lin - left)])
        e = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.5, 2.0, n_lin)[:, None]
        rhs2 = rng.uniform(0.5, 2.0) * np.array([np.cos(0.775), np.sin(0.775)])
    grads += [s2 @ e[j] for j in range(n_lin)]
    rhs = rhs + s2 @ rhs2
    grad_f = -rhs
    k = lin.shape[1]
    if verdict == "hypothesis_violated":
        basis = [_lift(rng, _sym(rng, k), lin) for _ in range(3)]
        hess_f = np.zeros((n, n))
        hess_g = []
        for _ in range(4 + n_lin):
            w = rng.standard_normal(3)
            hess_g.append(sum(wi * bi for wi, bi in zip(w, basis)))
    else:
        ar, br = _extreme_pair(rng, k, verdict)
        a, b = _lift(rng, ar, lin), _lift(rng, br, lin)
        cm = 0.7 * a + 0.4 * b
        # H(v) = hess_f + sum_i mu_i H_i at the three curved vertices
        curved = [0.5 * a, 0.5 * a, b, 2.0 * cm - 0.5 * a]
        hess_f = np.zeros((n, n))
        hess_g = [curved[i] / scales[i] for i in range(4)]
        hess_g += [np.zeros((n, n)) for _ in range(n_lin)]
    hess_g = [(h + h.T) / 2.0 for h in hess_g]
    order = rng.permutation(len(grads))
    grads = [grads[i] for i in order]
    hess_g = [hess_g[i] for i in order]
    doc = {
        "schema_version": "1", "kind": "kkt",
        "grad_f": grad_f.tolist(), "hess_f": hess_f.tolist(),
        "grad_g": [g.tolist() for g in grads],
        "hess_g": [h.tolist() for h in hess_g],
        "active": list(range(len(grads))),
    }
    kkt = {"grad_f": grad_f, "grad_g": np.array(grads), "hess_f": hess_f,
           "hess_g": hess_g}
    return doc, kkt


# (n, subspace dim d, linear constraints, planted); the lineality space
# has dimension n - d <= 3, so eigen work stays small next to vertex
# enumeration and the certify_rank2 recursion over the vertex Hessians.
# Vertex count: 3 * n_lin (d = 3) or 3 * (n_lin // 2) * (n_lin - n_lin // 2).
KKT_SLOTS = {
    "small": [  # 12 - 15 vertices
        (5, 3, 4, "certified"), (6, 3, 4, "refuted"),
        (6, 3, 5, "certified"), (5, 3, 5, "refuted"),
    ],
    "medium": [  # 48 vertices
        (6, 4, 8, "certified"), (6, 4, 8, "refuted"),
        (7, 4, 8, "certified"), (7, 4, 8, "refuted"),
        (6, 4, 8, "refuted"), (6, 4, 8, "certified"),
        (7, 4, 8, "refuted"), (7, 4, 8, "certified"),
    ],
    "large": [  # 90 vertices, or rank-3 Hessians with 16 - 18 active constraints
        (7, 4, 11, "certified"), (6, 4, 11, "refuted"),
        (7, 4, 14, "hypothesis_violated"), (8, 4, 12, "hypothesis_violated"),
    ],
}


def _kkt(seed, directory):
    commands = []
    for size_class, slots in KKT_SLOTS.items():
        for n, d, n_lin, verdict in slots:
            cid = len(commands)
            rng = _rng(seed, "kkt", cid)
            doc, kkt = _kkt_point(rng, n, d, n_lin, verdict)
            path = _write(directory, f"k{cid}.json", doc)
            expect = Expect("kkt", verdict, kkt=kkt)
            commands.append(Command(cid, size_class, ["soc", path, "--json"], expect))
    return commands


def _quad_family(rng, n, m, shape, verdict):
    """Collinear C + s_i D (s in [-1, 1], extremes included) or planar
    non-collinear alpha_i C + beta_i D whose first triple is independent."""
    if shape == "planar":
        c, d = _sym(rng, n), _sym(rng, n)
        pts = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        pts += [tuple(rng.uniform(0.2, 1.5, 2)) for _ in range(m - 3)]
        return [al * c + be * d for al, be in pts]
    if verdict == "certified":
        r = rng.standard_normal((n, n))
        c = np.eye(n) + 0.5 * (r @ r.T) / n
        d = _indefinite(rng, n)
        ev = np.linalg.eigvalsh(d)
        d = d * 2.0 * np.linalg.eigvalsh(c)[-1] / min(-ev[0], ev[-1])
    else:
        z0 = rng.standard_normal(n)
        z0 /= np.linalg.norm(z0)
        c = _sym(rng, n)
        c = c - (z0 @ c @ z0 + 1.0) * np.outer(z0, z0)
        d = _sym(rng, n)
        d = d - (z0 @ d @ z0) * np.outer(z0, z0)
    # evenly spread positions on the line (jittered), ends -1 and 1 included
    s = np.linspace(-1.0, 1.0, m)
    s[1:-1] += rng.uniform(-0.25, 0.25, m - 2) * (s[1] - s[0])
    mats = [c + si * d for si in rng.permutation(s)]
    return [(x + x.T) / 2.0 for x in mats]


# (n, m, shape, planted)
QUAD_SLOTS = {
    "small": [  # stop at the first triple
        (4, 6, "planar", "hypothesis_violated"), (8, 6, "planar", "hypothesis_violated"),
        (12, 6, "planar", "hypothesis_violated"),
    ],
    "medium": [  # 56 triples at n = 6
        (6, 8, "collinear", "certified"), (6, 8, "collinear", "refuted"),
        (6, 8, "collinear", "refuted"), (6, 8, "collinear", "certified"),
        (6, 8, "collinear", "certified"), (6, 8, "collinear", "refuted"),
    ],
    "large": [
        (8, 8, "collinear", "certified"), (10, 6, "collinear", "refuted"),
        (6, 12, "collinear", "certified"),
    ],
}


def _quad(seed, directory):
    commands = []
    for size_class, slots in QUAD_SLOTS.items():
        for n, m, shape, verdict in slots:
            cid = len(commands)
            mats = _quad_family(_rng(seed, "quad", cid), n, m, shape, verdict)
            path = _write(directory, f"q{cid}.json", _quad_doc(mats))
            expect = Expect("quad", verdict, mats, np.eye(n), np.eye(n), None)
            commands.append(Command(cid, size_class, ["quad", path, "--json"], expect))
    return commands


# Sources of the stored reports: (command, n, m, cone, sub dim, planted).
# Verification cost follows the instance size (parsing n x n x m numbers),
# so the classes are set by n; the restricted dimension stays <= 4 so that
# report generation in set-up is cheap. The four seed-independent
# known-fault commands are added to the small class.
VERIFY_SLOTS = {
    "small": [
        ("yuan2", 3, 2, "full", 3, "certified"), ("certify", 3, 3, "full", 3, "refuted"),
        ("certify", 4, 4, "sub", 2, "certified"), ("certify", 3, 4, "rank3", 0, "hypothesis_violated"),
        ("quad", 4, 6, "collinear", 0, "certified"), ("quad", 4, 6, "collinear", 0, "refuted"),
    ],
    "medium": [
        ("certify", 12, 6, "sub", 2, "certified"), ("certify", 12, 6, "sub", 2, "refuted"),
        ("certify", 12, 6, "subray", 1, "certified"), ("certify", 12, 6, "subray", 1, "refuted"),
        ("certify", 12, 6, "sub", 4, "certified"), ("certify", 12, 6, "sub", 4, "refuted"),
        ("certify", 12, 6, "subray", 3, "certified"), ("certify", 12, 6, "subray", 3, "refuted"),
        ("certify", 12, 6, "rank3", 0, "hypothesis_violated"),
        ("certify", 12, 6, "rank3", 0, "hypothesis_violated"),
        ("certify", 12, 6, "sub", 3, "certified"), ("certify", 12, 6, "sub", 3, "refuted"),
        ("certify", 12, 6, "sub", 2, "certified"), ("certify", 12, 6, "sub", 2, "refuted"),
        ("certify", 12, 6, "subray", 1, "certified"), ("certify", 12, 6, "subray", 1, "refuted"),
    ],
    "large": [
        ("certify", 20, 6, "sub", 2, "certified"), ("certify", 20, 6, "sub", 2, "refuted"),
        ("certify", 20, 6, "subray", 1, "certified"), ("certify", 20, 6, "subray", 1, "refuted"),
        ("certify", 20, 6, "sub", 4, "certified"), ("certify", 20, 6, "sub", 4, "refuted"),
        ("certify", 20, 6, "rank3", 0, "hypothesis_violated"),
        ("certify", 20, 6, "rank3", 0, "hypothesis_violated"),
    ],
}


def _verify_sources(seed, directory):
    """Commands whose JSON reports the verify workload re-checks.

    Returns (source command, size class, accept, known fault) tuples; the
    forged reports and the quad hypothesis reports come last and do not
    depend on the seed.
    """
    sources = []
    for size_class, slots in VERIFY_SLOTS.items():
        for command, n, m, cone, sub_dim, verdict in slots:
            cid = len(sources)
            rng = _rng(seed, "verify", cid)
            if command == "quad":
                mats = _quad_family(rng, n, m, cone, verdict)
                path = _write(directory, f"v{cid}.json", _quad_doc(mats))
                src = Command(cid, size_class, ["quad", path, "--json"],
                              Expect("quad", verdict, mats, np.eye(n), np.eye(n), None))
            elif cone == "rank3":
                mats = [_sym(rng, n) for _ in range(m)]
                path = _write(directory, f"v{cid}.json", _family_doc(mats))
                src = Command(cid, size_class, ["certify", path, "--json"],
                              Expect("family", verdict, mats))
            else:
                mats, cone_doc, span, sub, ray = _rank2_family(rng, n, m, cone, sub_dim, verdict)
                path = _write(directory, f"v{cid}.json", _family_doc(mats))
                argv = [command, path, "--json"]
                if cone_doc is not None:
                    argv += ["--cone", _write(directory, f"v{cid}.cone.json", cone_doc)]
                src = Command(cid, size_class, argv, Expect("family", verdict, mats, span, sub, ray))
            sources.append((src, True, None))
    fixed = np.random.default_rng(FIXED_SEED)
    ex1 = [np.array(x) for x in EXAMPLE1]
    path = _write(directory, "example1.json", _family_doc(ex1))
    for _ in FORGED_WEIGHTS:
        src = Command(len(sources), "small", ["certify", path, "--json"],
                      Expect("family", "certified", ex1, np.eye(2), np.eye(2), None))
        sources.append((src, False, "forged certified report accepted"))
    for j in range(2):
        mats = _quad_family(fixed, 4, 6, "planar", "hypothesis_violated")
        qpath = _write(directory, f"vq{j}.json", _quad_doc(mats))
        src = Command(len(sources), "small", ["quad", qpath, "--json"],
                      Expect("quad", "hypothesis_violated", mats, np.eye(4), np.eye(4), None))
        sources.append((src, True, "quad hypothesis report rank compared with set rank"))
    return sources


def forge(report: dict, index: int, mats) -> dict:
    """Certified report with off-certificate weights and their own lambda_min."""
    weights = FORGED_WEIGHTS[index]
    combined = sum(w * m for w, m in zip(weights, mats))
    out = dict(report)
    out["weights"] = list(weights)
    out["lambda_min"] = float(np.linalg.eigvalsh(combined)[0])
    return out


def build(workload: str, seed: int, directory: str):
    """Write the workload's instance files; return its commands.

    For `verify` the commands still lack their stored reports: the
    caller runs each `expect.source` command through the CLI and writes
    the report to `expect.report` (see run.py).
    """
    os.makedirs(directory, exist_ok=True)
    if workload == "pencil":
        return _pencil(seed, directory)
    if workload == "kkt":
        return _kkt(seed, directory)
    if workload == "quad":
        return _quad(seed, directory)
    commands = []
    forged = 0
    for src, accept, fault in _verify_sources(seed, directory):
        report = os.path.join(directory, f"r{src.cid}.json")
        argv = ["verify-report", report, src.argv[1], "--json"] + src.argv[3:]
        expect = Expect("verify", src.expect.verdict, accept=accept, report=report,
                        source=src, known_fault=fault)
        if not accept:
            expect.forged = forged
            forged += 1
        commands.append(Command(src.cid, src.size_class, argv, expect))
    return commands
