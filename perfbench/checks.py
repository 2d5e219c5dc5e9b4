"""Output checks: each checked item is one operation of the run.

Every check returns a list of (label, status) with status
  "ok"      the item was delivered and matches its reference;
  "failed"  the item was not delivered in a usable form: output missing,
            a branch point left unclassified (order < 2), or a Monte Carlo
            estimate outside its 3-sigma band (a statistical miss that also
            happens by chance, about once in 8000 checks);
  "wrong"   a delivered deterministic value contradicts its reference.
A run is correct when no item is "wrong"; "failed" items are counted
against the number attempted.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json")) as _f:
    REFERENCE = json.load(_f)


def _status(ok: bool, bad: str = "wrong") -> str:
    return "ok" if ok else bad


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def check_sphere_sweep(out_dir: str, ref: dict) -> list:
    """Every expected branch point found within tol with its order; no extras."""
    doc = _load_json(os.path.join(out_dir, "branchpoints.json"))
    expected = ref["points"]
    if doc is None:
        return [(f"g*={g}", "failed") for g, _ in expected]
    reported = [(p["g_star"], p["order"]) for p in doc["branch_points"]]
    items, used = [], set()
    for g, order in expected:
        hit = [i for i, (gs, _) in enumerate(reported)
               if abs(gs - g) <= ref["tol"] and i not in used]
        if not hit:
            items.append((f"g*={g}", "failed"))
            continue
        used.add(hit[0])
        got = reported[hit[0]][1]
        items.append((f"g*={g} order {got}",
                      "ok" if got == order else "failed" if got < 2 else "wrong"))
    items += [(f"unexpected g*={gs}", "wrong")
              for i, (gs, _) in enumerate(reported) if i not in used]
    return items


def check_cylinder_sweep(out_dir: str, ref: dict) -> list:
    """Criterion-4 rule: every point within rel_tol of g_rule, order >= 2."""
    doc = _load_json(os.path.join(out_dir, "branchpoints.json"))
    if doc is None or not doc["branch_points"]:
        return [("branch points", "failed")]
    items = []
    for p in doc["branch_points"]:
        near = abs(p["g_star"] - ref["g_rule"]) <= ref["rel_tol"] * ref["g_rule"]
        status = "wrong" if not near else "failed" if p["order"] < 2 else "ok"
        items.append((f"g*={p['g_star']:.6f} order {p['order']}", status))
    return items


def check_signal(out_dir: str, ref: dict) -> list:
    """Per pulse duration: spectral == matrix, MC within 3 stderr, matrix pinned."""
    path = os.path.join(out_dir, "signal.csv")
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError:
        rows = []
    items = []
    for k, s_ref in enumerate(ref["S_matrix"]):
        if k >= len(rows):
            items += [(f"delta #{k} {name}", "failed")
                      for name in ("spectral", "mc", "pinned")]
            continue
        r = {key: float(v) for key, v in rows[k].items() if v != ""}
        sm = complex(r["S_matrix_re"], r["S_matrix_im"])
        ss = complex(r["S_spectral_re"], r["S_spectral_im"])
        smc = complex(r["S_mc_re"], r["S_mc_im"])
        label = f"delta={r['delta']}"
        items.append((label + " spectral",
                      _status(abs(ss - sm) <= ref["spectral_rtol"] * abs(sm))))
        items.append((label + " mc", _status(
            abs(smc - sm) <= ref["mc_sigmas"] * r["mc_stderr"], bad="failed")))
        items.append((label + " pinned", _status(
            abs(sm - complex(*s_ref)) <= ref["pinned_rtol"] * abs(complex(*s_ref)))))
    return items


def check_fieldmap(out_dir: str, ref: dict) -> list:
    """Flag, eigenvalue and every inside value against the pinned field."""
    stem = os.path.join(out_dir, ref["stem"])
    side = _load_json(stem + ".json")
    try:
        grid = np.loadtxt(stem + ".csv", delimiter=",", skiprows=1)
    except (OSError, ValueError):
        grid = None
    if side is None or grid is None:
        return [(name, "failed") for name in ("flag", "lambda", "values")]
    lam = complex(side["lambda_re"], side["lambda_im"])
    items = [("near_branch_point false", _status(side["near_branch_point"] is False)),
             ("lambda", _status(abs(lam - complex(*ref["lambda"])) <= ref["lambda_tol"]))]
    with np.load(os.path.join(HERE, ref["values_file"])) as z:
        v_ref = z["re"].astype(float) + 1j * z["im"].astype(float)
        inside_ref = z["inside"]
    inside = grid[:, 4].astype(bool)
    v = grid[:, 2] + 1j * grid[:, 3]
    same_mask = inside.shape == inside_ref.shape and bool(np.all(inside == inside_ref))
    if same_mask:
        err = float(np.max(np.abs(v[inside] - v_ref[inside])))
        scale = float(np.max(np.abs(v_ref[inside])))
        same_mask = math.isfinite(err) and err <= ref["values_rtol"] * scale
    items.append(("inside values", _status(same_mask)))
    return items
