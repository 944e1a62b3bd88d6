"""Frozen reference for the recurrent timestamp generator: the per-gate,
per-step loop with a dict cache and ``np.outer`` weight-gradient adds that the
library's stacked-gate recurrence replaced.

``tests/test_recurrent_reference.py`` holds the library to this copy (table
to 1e-13 relative, gradients to 1e-12 of each tensor's largest entry, and
``_sigmoid`` bitwise).  Only ``RecurrentParams`` (the tensor names and their
shapes) is taken from ``tkgc``.
"""

from __future__ import annotations

import numpy as np

from tkgc.regularizers import RecurrentParams


def _base_variant(variant: str) -> tuple[str, bool]:
    linear = variant.startswith("linear_")
    return (variant.removeprefix("linear_"), linear)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _recurrent_forward(
    params: RecurrentParams, count: int
) -> tuple[np.ndarray, dict]:
    base, linear = _base_variant(params.variant)
    t = params.tensors
    act = (lambda x: x) if linear else np.tanh
    gate = (lambda x: x) if linear else _sigmoid
    h = t["h0"]
    cache: dict = {"hs": [h], "steps": []}
    if base == "lstm":
        cache["cs"] = [t["c0"]]
    for _ in range(count):
        if base == "rnn":
            pre = t["W"] @ h + t["b"]
            h = act(pre)
            cache["steps"].append({"h": h})
        elif base == "lstm":
            c_prev = cache["cs"][-1]
            i = gate(t["Wi"] @ h + t["bi"])
            f = gate(t["Wf"] @ h + t["bf"])
            g = act(t["Wg"] @ h + t["bg"])
            o = gate(t["Wo"] @ h + t["bo"])
            c = f * c_prev + i * g
            ct = act(c)
            h = o * ct
            cache["steps"].append({"i": i, "f": f, "g": g, "o": o, "ct": ct})
            cache["cs"].append(c)
        else:
            z = gate(t["Wz"] @ h + t["bz"])
            r = gate(t["Wr"] @ h + t["br"])
            rh = r * h
            n = act(t["Wn"] @ rh + t["bn"])
            h = (1.0 - z) * n + z * h
            cache["steps"].append({"z": z, "r": r, "n": n, "rh": rh})
        cache["hs"].append(h)
    hs = np.stack(cache["hs"][1:], axis=0) if count else np.zeros(
        (0, params.hidden_size), dtype=t["h0"].dtype
    )
    table = hs @ t["W_out"].T + t["b_out"]
    cache["out_hs"] = hs
    return table, cache


def recurrent_generate_backward(
    params: RecurrentParams, cache: dict, grad_table: np.ndarray
) -> dict[str, np.ndarray]:
    """Backpropagate a gradient on the generated table through the unrolled
    recurrence; returns gradients keyed like ``tensor_names()``."""
    base, linear = _base_variant(params.variant)
    t = params.tensors
    count = grad_table.shape[0]
    grads = {name: np.zeros_like(t[name]) for name in params.tensor_names()}
    grads["W_out"] += grad_table.T @ cache["out_hs"]
    grads["b_out"] += grad_table.sum(axis=0)
    g_hs = grad_table @ t["W_out"]

    def gate_grad(value: np.ndarray) -> np.ndarray:
        return np.ones_like(value) if linear else value * (1.0 - value)

    def act_grad_from_out(out: np.ndarray) -> np.ndarray:
        return np.ones_like(out) if linear else 1.0 - out ** 2

    gh = np.zeros(params.hidden_size, dtype=grad_table.dtype)
    gc = np.zeros(params.hidden_size, dtype=grad_table.dtype)
    for step in range(count - 1, -1, -1):
        gh = gh + g_hs[step]
        h_prev = cache["hs"][step]
        info = cache["steps"][step]
        if base == "rnn":
            gz = gh * act_grad_from_out(info["h"])
            grads["W"] += np.outer(gz, h_prev)
            grads["b"] += gz
            gh = t["W"].T @ gz
        elif base == "lstm":
            c_prev = cache["cs"][step]
            i, f, g, o, ct = (info[k] for k in ("i", "f", "g", "o", "ct"))
            go = gh * ct
            gc = gc + gh * o * act_grad_from_out(ct)
            gi = gc * g
            gf = gc * c_prev
            gg = gc * i
            gc_prev = gc * f
            gh_new = np.zeros_like(gh)
            for name, gval, out in (
                ("Wi", gi, i), ("Wf", gf, f), ("Wo", go, o),
            ):
                gpre = gval * gate_grad(out)
                grads[name] += np.outer(gpre, h_prev)
                grads["b" + name[1:]] += gpre
                gh_new += t[name].T @ gpre
            gpre = gg * act_grad_from_out(g)
            grads["Wg"] += np.outer(gpre, h_prev)
            grads["bg"] += gpre
            gh_new += t["Wg"].T @ gpre
            gh = gh_new
            gc = gc_prev
        else:
            z, r, n, rh = (info[k] for k in ("z", "r", "n", "rh"))
            gz = gh * (h_prev - n)
            gn = gh * (1.0 - z)
            gh_prev = gh * z
            gn_pre = gn * act_grad_from_out(n)
            grads["Wn"] += np.outer(gn_pre, rh)
            grads["bn"] += gn_pre
            g_rh = t["Wn"].T @ gn_pre
            gr = g_rh * h_prev
            gh_prev = gh_prev + g_rh * r
            gz_pre = gz * gate_grad(z)
            grads["Wz"] += np.outer(gz_pre, h_prev)
            grads["bz"] += gz_pre
            gh_prev = gh_prev + t["Wz"].T @ gz_pre
            gr_pre = gr * gate_grad(r)
            grads["Wr"] += np.outer(gr_pre, h_prev)
            grads["br"] += gr_pre
            gh_prev = gh_prev + t["Wr"].T @ gr_pre
            gh = gh_prev
    grads["h0"] += gh
    if base == "lstm":
        grads["c0"] += gc
    return grads
