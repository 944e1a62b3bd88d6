"""Frozen reference for one training step: the straightforward numpy maths of
``batch_loss`` and ``adam_step`` before they were made lean (zero-filled
gradient tables, ``np.add.at`` scatters, two softmax exponentials, full-table
Adam temporaries).

The library's step must agree with this copy to rounding in float64 (and its
Adam update bitwise).  Only the temporal penalties and the recurrent
generator, which the lean step does not touch, are imported from ``tkgc``.
"""

from __future__ import annotations

import numpy as np

from tkgc.models import CHRONOR, TCOMPLEX, TNTCOMPLEX
from tkgc.regularizers import (
    _recurrent_forward,
    recurrent_generate_backward,
    temporal_penalty_grad,
)


def cmul(a, b):
    d = a.shape[-1] // 2
    ar, ai, br, bi = a[..., :d], a[..., d:], b[..., :d], b[..., d:]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    out[..., :d] = ar * br - ai * bi
    out[..., d:] = ar * bi + ai * br
    return out


def cmul_conj(g, b):
    d = g.shape[-1] // 2
    gr, gi, br, bi = g[..., :d], g[..., d:], b[..., :d], b[..., d:]
    out = np.empty_like(g)
    out[..., :d] = gr * br + gi * bi
    out[..., d:] = gi * br - gr * bi
    return out


def concat_complex(a, b):
    da, db = a.shape[-1] // 2, b.shape[-1] // 2
    return np.concatenate(
        [a[..., :da], b[..., :db], a[..., da:], b[..., db:]], axis=-1)


def relation_factor(params, relations, timestamps, time_table):
    spec = params.spec
    t = time_table[timestamps]
    cache = {"relations": relations, "timestamps": timestamps, "t": t}
    if spec.model == TCOMPLEX:
        j = params.relation[relations]
        cache["j"] = j
        return cmul(j, t), cache
    if spec.model == TNTCOMPLEX:
        jt = params.relation_temporal[relations]
        cache["jt"] = jt
        return cmul(jt, t) + params.relation[relations], cache
    assert spec.model == CHRONOR
    base = concat_complex(params.relation[relations], t)
    rot = params.rotation[relations]
    cache["rot"], cache["base"] = rot, base
    return cmul(base, rot), cache


def relation_factor_backward(params, cache, grad_v, grads, grad_time):
    spec = params.spec
    relations, timestamps, t = cache["relations"], cache["timestamps"], cache["t"]
    if spec.model == TCOMPLEX:
        np.add.at(grads["relation"], relations, cmul_conj(grad_v, t))
        np.add.at(grad_time, timestamps, cmul_conj(grad_v, cache["j"]))
    elif spec.model == TNTCOMPLEX:
        np.add.at(grads["relation"], relations, grad_v)
        np.add.at(grads["relation_temporal"], relations, cmul_conj(grad_v, t))
        np.add.at(grad_time, timestamps, cmul_conj(grad_v, cache["jt"]))
    else:
        d_j, d = spec.rank_relation, spec.rank
        np.add.at(grads["rotation"], relations, cmul_conj(grad_v, cache["base"]))
        g_base = cmul_conj(grad_v, cache["rot"])
        g_rel = np.concatenate([g_base[..., :d_j], g_base[..., d:d + d_j]], -1)
        g_time = np.concatenate([g_base[..., d_j:d], g_base[..., d + d_j:]], -1)
        np.add.at(grads["relation"], relations, g_rel)
        np.add.at(grad_time, timestamps, g_time)


def tail_matrix(params):
    if params.spec.tail_conjugation:
        return params.entity
    d = params.spec.rank
    out = params.entity.copy()
    out[:, d:] = -out[:, d:]
    return out


def moduli(factors):
    half = factors.shape[-1] // 2
    return np.sqrt(factors[..., :half] ** 2 + factors[..., half:] ** 2)


def n3_terms(factors):
    return np.sum(moduli(factors) ** 3, axis=-1) / 3.0


def n3_terms_grad(factors):
    m = moduli(factors)
    return np.concatenate([m, m], axis=-1) * factors


def batch_loss(params, batch, config, time_offset=0):
    """(loss, gradient tensors, touched rows) exactly as the original step
    computed them."""
    batch = np.asarray(batch)
    subjects, objects = batch[:, 0], batch[:, 2]
    n = batch.shape[0]
    reg = config.reg
    recurrent = reg.family == "recurrent"

    gen_cache = None
    if recurrent:
        generated, gen_cache = _recurrent_forward(
            params.recurrent, params.n_timestamps - time_offset)
        time_table = params.timestamp.copy()
        time_table[time_offset:] = generated
    else:
        time_table = params.timestamp

    v, vcache = relation_factor(params, batch[:, 1], batch[:, 3], time_table)
    heads = params.entity[subjects]
    q = cmul(heads, v)
    tails = tail_matrix(params)
    scores = q @ tails.T
    row = np.arange(n)
    peak = scores.max(axis=1, keepdims=True)
    logsum = peak[:, 0] + np.log(np.sum(np.exp(scores - peak), axis=1))
    loss_fit = float(np.mean(logsum - scores[row, objects]))

    loss_emb = 0.0
    true_tails = params.entity[objects]
    if config.lambda1 != 0.0:
        loss_emb = config.lambda1 * float(
            np.mean(n3_terms(heads) + n3_terms(v) + n3_terms(true_tails)))

    additive = reg.family in ("N", "L", "linear3") and config.lambda2 != 0.0
    penalty, g_chrono, g_bias = 0.0, None, None
    if additive:
        penalty, g_chrono, g_bias = temporal_penalty_grad(
            time_table[time_offset:], reg, bias=params.linear3_bias,
            complex_pairs=True)
    loss = loss_fit + loss_emb + config.lambda2 * penalty

    g_scores = np.exp(scores - logsum[:, None])
    g_scores[row, objects] -= 1.0
    g_scores /= n

    grads = {k: np.zeros_like(a) for k, a in params.named_tensors().items()}
    g_entity = grads["entity"]
    g_entity += g_scores.T @ q
    if not params.spec.tail_conjugation:
        g_entity[:, params.spec.rank:] *= -1.0
    g_q = g_scores @ tails
    g_heads = cmul_conj(g_q, v)
    g_v = cmul_conj(g_q, heads)
    if config.lambda1 != 0.0:
        coef = config.lambda1 / n
        g_heads += coef * n3_terms_grad(heads)
        g_v += coef * n3_terms_grad(v)
        np.add.at(g_entity, objects, coef * n3_terms_grad(true_tails))
    np.add.at(g_entity, subjects, g_heads)

    g_time = np.zeros_like(time_table)
    relation_factor_backward(params, vcache, g_v, grads, g_time)
    if additive:
        g_time[time_offset:] += config.lambda2 * g_chrono
        if g_bias is not None:
            grads["linear3_bias"] += config.lambda2 * g_bias

    if recurrent:
        rnn_grads = recurrent_generate_backward(
            params.recurrent, gen_cache, g_time[time_offset:])
        for name, arr in rnn_grads.items():
            grads[f"rnn.{name}"] += arr
        grads["timestamp"][:time_offset] = g_time[:time_offset]
    else:
        grads["timestamp"] += g_time

    touched = {name: None for name in grads}
    relation_rows = np.unique(batch[:, 1])
    for name in ("relation", "relation_temporal", "rotation"):
        if name in grads:
            touched[name] = relation_rows
    if recurrent:
        touched["timestamp"] = np.arange(time_offset)
    elif not additive:
        touched["timestamp"] = np.unique(batch[:, 3])
    return loss, grads, touched


def adam_step(params, m_all, v_all, step, grads, touched, config):
    """One Adam update of ``params`` and the moment dicts, in place, with the
    original full-table temporaries.  ``step`` is the new step count."""
    bc1 = 1.0 - config.beta1 ** step
    bc2 = 1.0 - config.beta2 ** step
    for name, param in params.named_tensors().items():
        g = grads[name]
        rows = touched.get(name)
        m, v = m_all[name], v_all[name]
        if rows is None:
            m *= config.beta1
            m += (1.0 - config.beta1) * g
            v *= config.beta2
            v += (1.0 - config.beta2) * (g * g)
            denom = np.sqrt(v / bc2) + config.epsilon
            param -= config.learning_rate * (m / bc1) / denom
        elif rows.size:
            g_rows = g[rows]
            m[rows] = config.beta1 * m[rows] + (1.0 - config.beta1) * g_rows
            v[rows] = config.beta2 * v[rows] + (1.0 - config.beta2) * (
                g_rows * g_rows)
            denom = np.sqrt(v[rows] / bc2) + config.epsilon
            param[rows] -= config.learning_rate * (m[rows] / bc1) / denom
