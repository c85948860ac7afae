"""Independent verdict checker: numpy and scipy only, no `yuancert` code.

`check(command, exit_code, stdout)` returns None when the command's
output is right and a one-line reason otherwise. Every verdict is judged
against the planted answer and against its own evidence:

* certified  -- weights on the simplex, and numpy's `eigvalsh` of the
  combination restricted to the cone span >= -TOL * scale;
* refuted    -- the witness lies in the cone and every form is below
  -TOL * scale there;
* hypothesis -- SVD rank >= 3 of the flattened members (family), the
  Jacobian rank 3 at the witness (quad), or the rank of the Lagrangian
  Hessians over the multiplier polytope (soc);
* soc        -- stationarity residual, mu >= 0 and a PSD Hessian on the
  SVD null space for certificates; for refutations the maximum of
  x' H(mu) x over the multiplier polytope, by `scipy.optimize.linprog`,
  is below 0.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-9
RANK_TOL = 1e-8
EXIT = {"certified": 0, "refuted": 1, "hypothesis_violated": 2}


def _svd_rank(rows: np.ndarray) -> int:
    norms = np.linalg.norm(rows, axis=1)
    rows = rows[norms > 0.0] / norms[norms > 0.0, None]
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    return int((s > RANK_TOL * s[0]).sum())


def _restricted(mats, span) -> list:
    return [span.T @ m @ span for m in mats]


def _scale(restricted) -> float:
    return 1.0 + max(np.linalg.norm(r, 2) for r in restricted)


def _in_cone(x, sub, ray) -> bool:
    size = np.linalg.norm(x)
    rem = x - sub @ (sub.T @ x)
    if ray is not None:
        r = float(ray @ rem)
        if r < -1e-8 * size:
            return False
        rem = rem - r * ray
    return np.linalg.norm(rem) <= 1e-8 * size


def _check_forms(e, report) -> str | None:
    """certify / yuan2 / quad reports: the certificate or the witness."""
    if e.verdict == "certified":
        w = np.asarray(report["weights"], dtype=float)
        if w.size != len(e.mats) or w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
            return f"weights off the simplex: {w.tolist()}"
        restricted = _restricted(e.mats, e.span)
        lam = np.linalg.eigvalsh(sum(wi * r for wi, r in zip(w, restricted)))[0]
        if lam < -TOL * _scale(restricted):
            return f"combination not PSD on the cone (lambda_min {lam:.3e})"
        return None
    if e.verdict == "refuted":
        x = np.asarray(report["witness"], dtype=float)
        if not _in_cone(x, e.sub, e.ray):
            return "witness outside the cone"
        values = np.array([x @ m @ x for m in e.mats]) / float(x @ x)
        if values.max() >= -TOL * _scale(_restricted(e.mats, e.span)):
            return f"witness leaves a form nonnegative ({values.max():.3e})"
        return None
    if e.kind == "quad":
        x = np.asarray(report["witness"], dtype=float)
        jac = np.column_stack([np.append(m @ x, -1.0) for m in e.mats])
        rank = _svd_rank(jac.T)
    else:
        rank = _svd_rank(np.stack([m.reshape(-1) for m in e.mats]))
    if rank < 3 or (e.kind == "quad" and rank != 3) or report.get("rank") != rank:
        return f"rank {report.get('rank')} reported, {rank} measured"
    return None


def _null_space(rows: np.ndarray) -> np.ndarray:
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    keep = int((s > 1e-10 * s[0]).sum())
    return vt[keep:].T


def _hessian(kkt, mu) -> np.ndarray:
    return kkt["hess_f"] + sum(m * h for m, h in zip(mu, kkt["hess_g"]))


def _polytope_max(kkt, x) -> float:
    """max over {mu >= 0, grad_f + G' mu = 0} of x' H(mu) x, by linprog."""
    from scipy.optimize import linprog

    q = np.array([x @ h @ x for h in kkt["hess_g"]])
    res = linprog(-q, A_eq=kkt["grad_g"].T, b_eq=-kkt["grad_f"],
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"multiplier LP failed: {res.message}")
    return float(x @ kkt["hess_f"] @ x - res.fun)


def _interior_multiplier(kkt) -> np.ndarray:
    """A multiplier with every component positive (max-min LP)."""
    from scipy.optimize import linprog

    g = kkt["grad_g"]
    p = g.shape[0]
    c = np.zeros(p + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-np.eye(p), np.ones((p, 1))])  # t - mu_i <= 0
    a_eq = np.hstack([g.T, np.zeros((g.shape[1], 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(p), A_eq=a_eq, b_eq=-kkt["grad_f"],
                  bounds=[(0, None)] * p + [(0, 1)], method="highs")
    if res.status != 0 or res.x[-1] <= 1e-9:
        raise ValueError("multiplier polytope has no positive point")
    return res.x[:p]


def _check_soc(e, report) -> str | None:
    kkt = e.kkt
    lin = _null_space(np.vstack([kkt["grad_g"], kkt["grad_f"][None, :]]))
    if e.verdict == "certified":
        mu = np.asarray(report["multiplier"]["mu"], dtype=float)
        if mu.min() < 0.0:
            return "negative multiplier"
        resid = np.abs(kkt["grad_f"] + kkt["grad_g"].T @ mu).max()
        if resid > 1e-8 * (1.0 + np.abs(kkt["grad_f"]).max()):
            return f"stationarity residual {resid:.3e}"
        hr = lin.T @ _hessian(kkt, mu) @ lin
        bound = 1.0 + np.linalg.norm(hr, 2) + sum(
            m * np.linalg.norm(lin.T @ h @ lin, 2) for m, h in zip(mu, kkt["hess_g"]))
        lam = np.linalg.eigvalsh(hr)[0]
        if lam < -TOL * bound:
            return f"Hessian not PSD on the lineality space ({lam:.3e})"
        return None
    if e.verdict == "refuted":
        x = np.asarray(report["witness"], dtype=float)
        x = x / np.linalg.norm(x)
        if np.linalg.norm(x - lin @ (lin.T @ x)) > 1e-8:
            return "witness outside the lineality space"
        top = _polytope_max(kkt, x)
        if top >= -TOL:
            return f"some multiplier makes the witness form nonnegative ({top:.3e})"
        return None
    mu = _interior_multiplier(kkt)
    g = kkt["grad_g"]
    directions = _null_space(g.T).T  # combinations with sum n_i grad_g_i = 0
    span = [_hessian(kkt, mu)] + [sum(n * h for n, h in zip(d, kkt["hess_g"]))
                                  for d in directions]
    rank = _svd_rank(np.stack([h.reshape(-1) for h in span]))
    if rank < 3 or report.get("rank") != rank:
        return f"rank {report.get('rank')} reported, {rank} measured"
    return None


def check_report(e, report: dict) -> str | None:
    """Judge a report (dict) against the planted answer and its evidence."""
    if report.get("verdict") != e.verdict:
        return f"verdict {report.get('verdict')!r}, planted {e.verdict!r}"
    if e.kind == "kkt":
        return _check_soc(e, report)
    return _check_forms(e, report)


def _check_verify(e, code, text) -> str | None:
    if not e.accept:
        return None if code != 0 else "forged report accepted (exit 0)"
    if code != 0:
        return f"genuine report rejected (exit {code})"
    with open(e.report, encoding="utf-8") as handle:
        stored = json.load(handle)
    reason = check_report(e.source.expect, stored)
    if reason is not None:
        return f"stored report: {reason}"
    out = json.loads(text)
    if out.get("verdict") != e.verdict or out.get("checked_verdict") != e.verdict:
        return f"verify verdict {out.get('verdict')!r} for a {e.verdict!r} report"
    src = e.source.expect
    if e.verdict == "certified":
        restricted = _restricted(src.mats, src.span)
        w = np.asarray(stored["weights"], dtype=float)
        lam = np.linalg.eigvalsh(sum(wi * r for wi, r in zip(w, restricted)))[0]
        if abs(out["lambda_min"] - lam) > 1e-7 * _scale(restricted):
            return f"recomputed lambda_min {out['lambda_min']:.6e}, expected {lam:.6e}"
    elif e.verdict == "refuted":
        x = np.asarray(stored["witness"], dtype=float)
        values = np.array([x @ m @ x for m in src.mats])
        if np.abs(np.asarray(out["form_values"]) - values).max() > 1e-7 * (1.0 + np.abs(values).max()):
            return "recomputed form values disagree"
    elif out.get("rank") != stored.get("rank"):
        return f"recomputed rank {out.get('rank')}, stored {stored.get('rank')}"
    return None


def check(command, code, text: str) -> str | None:
    e = command.expect
    if e.kind == "verify":
        return _check_verify(e, code, text)
    if code != EXIT[e.verdict]:
        return f"exit {code}, planted {e.verdict}"
    return check_report(e, json.loads(text))
