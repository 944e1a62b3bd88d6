"""Embedding and temporal regularization penalties.

The embedding penalty is the nuclear 3-norm over the three factors entering
the trilinear score.  Temporal penalties act on adjacent rows of the
timestamp table:

    Np       mean over adjacent pairs of sum_z |t[l+1,z] - t[l,z]|^p
    Lp       same inner sum, but a single global 1/p root over all pairs
             (a per-pair-root mode is available behind ``per_pair``)
    Linear3  Np-style penalty on (t[l+1] - t[l] - bias) with a learnable bias
    recurrent  the timestamp rows are generated from a learned initial state
             by an RNN/LSTM/GRU (or their linear counterparts), replacing the
             free timestamp parameters; there is no additive penalty term

Tables may be read as plain real components (default, one component per
column) or as split-half complex storage (``complex_pairs=True``), in which
case each component's residual is measured by its complex modulus.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import complex_moduli

FAMILIES = ("none", "N", "L", "linear3", "recurrent")
RECURRENT_VARIANTS = (
    "rnn", "lstm", "gru", "linear_rnn", "linear_lstm", "linear_gru"
)
MAX_EXPONENT = 5


@dataclass(frozen=True)
class TemporalRegSpec:
    """Which temporal penalty to apply and how strongly it bends.

    ``p`` is the exponent for the N/L/linear3 families (grid range 1..5);
    ``variant`` and ``hidden_size`` configure the recurrent generator.
    """

    family: str = "none"
    p: int = 3
    variant: str = "rnn"
    hidden_size: int = 8

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown temporal regularizer family {self.family!r}")
        if self.family in ("N", "L", "linear3"):
            if not 1 <= self.p <= MAX_EXPONENT:
                raise ValueError(f"exponent p must be in 1..{MAX_EXPONENT}")
        if self.family == "recurrent":
            if self.variant not in RECURRENT_VARIANTS:
                raise ValueError(f"unknown recurrent variant {self.variant!r}")
            if self.hidden_size < 1:
                raise ValueError("hidden_size must be >= 1")

    @property
    def label(self) -> str:
        if self.family in ("N", "L"):
            return f"{self.family}{self.p}"
        if self.family == "recurrent":
            return self.variant
        return self.family


def parse_reg_spec(name: str, p: int = 3, hidden_size: int = 8) -> TemporalRegSpec:
    """Build a spec from a CLI-style tag: none, N, L, N4, L2, linear3, rnn..."""
    tag = name.strip().lower()
    if tag in ("none", ""):
        return TemporalRegSpec(family="none")
    if tag in RECURRENT_VARIANTS:
        return TemporalRegSpec(family="recurrent", variant=tag,
                               hidden_size=hidden_size)
    if tag == "linear3":
        return TemporalRegSpec(family="linear3", p=p)
    family = tag[0].upper()
    if family in ("N", "L"):
        rest = tag[1:]
        if rest:
            p = int(rest)
        return TemporalRegSpec(family=family, p=p)
    raise ValueError(f"unknown temporal regularizer {name!r}")


# ---------------------------------------------------------------------------
# Embedding regularizer (nuclear 3-norm).
# ---------------------------------------------------------------------------


def _component_moduli(arr: np.ndarray, complex_pairs: bool) -> np.ndarray:
    return complex_moduli(arr) if complex_pairs else np.abs(arr)


def emb_reg_n3(
    factor_head: np.ndarray,
    factor_rel_effective: np.ndarray,
    factor_tail: np.ndarray,
) -> float:
    """Nuclear 3-norm of the three trilinear factors (split-half storage):
    one third of the summed cubes of the component moduli."""
    shapes = {f.shape for f in (factor_head, factor_rel_effective, factor_tail)}
    if len(shapes) != 1:
        raise ValueError(f"factor rank mismatch: {sorted(shapes)}")
    total = 0.0
    for f in (factor_head, factor_rel_effective, factor_tail):
        total += float(np.sum(_component_moduli(f, complex_pairs=True) ** 3))
    return total / 3.0


def n3_terms(moduli: np.ndarray) -> np.ndarray:
    """Per-row (1/3) sum of modulus cubes for a batch of split-half factors,
    given their ``complex_moduli``."""
    return np.sum(moduli * moduli * moduli, axis=-1) / 3.0


def n3_terms_grad(factors: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Gradient of ``n3_terms`` w.r.t. the storage entries of ``factors``:
    modulus times the entry, per complex component.

    Linear in ``moduli``: passing them pre-scaled scales the gradient.
    """
    half = moduli.shape[-1]
    grad = np.empty_like(factors)
    np.multiply(moduli, factors[..., :half], out=grad[..., :half])
    np.multiply(moduli, factors[..., half:], out=grad[..., half:])
    return grad


# ---------------------------------------------------------------------------
# Temporal smoothing penalties.
# ---------------------------------------------------------------------------


def _too_short(table: np.ndarray) -> bool:
    if table.shape[0] < 2 or table.shape[1] == 0:
        warnings.warn(
            "temporal regularizer needs at least two timestamp rows; "
            "returning 0",
            stacklevel=3,
        )
        return True
    return False


def _expand(weights: np.ndarray, complex_pairs: bool) -> np.ndarray:
    return np.concatenate([weights, weights], axis=-1) if complex_pairs else weights


def _power_weights(m: np.ndarray, exponent: float) -> np.ndarray:
    """m ** exponent with the m == 0 entries forced to zero (subgradient)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(m > 0.0, m ** exponent, 0.0)
    return out


def temporal_np(table: np.ndarray, p: int, complex_pairs: bool = False) -> float:
    """Mean over adjacent row pairs of the summed p-th powers of component
    residual magnitudes."""
    if _too_short(table):
        return 0.0
    m = _component_moduli(np.diff(table, axis=0), complex_pairs)
    return float(np.sum(m ** p)) / (table.shape[0] - 1)


def temporal_np_grad(
    table: np.ndarray, p: int, complex_pairs: bool = False
) -> tuple[float, np.ndarray]:
    grad = np.zeros_like(table)
    if _too_short(table):
        return 0.0, grad
    diffs = np.diff(table, axis=0)
    m = _component_moduli(diffs, complex_pairs)
    scale = 1.0 / (table.shape[0] - 1)
    value = float(np.sum(m ** p)) * scale
    g_diffs = _expand(scale * p * _power_weights(m, p - 2), complex_pairs) * diffs
    grad[1:] += g_diffs
    grad[:-1] -= g_diffs
    return value, grad


def temporal_lp(
    table: np.ndarray, p: int, complex_pairs: bool = False, per_pair: bool = False
) -> float:
    """Lp reading of the smoothing penalty: a single global 1/p root over the
    summed residual powers (``per_pair=True`` roots each adjacent pair
    separately instead)."""
    if _too_short(table):
        return 0.0
    m = _component_moduli(np.diff(table, axis=0), complex_pairs)
    scale = 1.0 / (table.shape[0] - 1)
    if per_pair:
        return float(np.sum(np.sum(m ** p, axis=-1) ** (1.0 / p))) * scale
    return float(np.sum(m ** p) ** (1.0 / p)) * scale


def temporal_lp_grad(
    table: np.ndarray, p: int, complex_pairs: bool = False, per_pair: bool = False
) -> tuple[float, np.ndarray]:
    grad = np.zeros_like(table)
    if _too_short(table):
        return 0.0, grad
    diffs = np.diff(table, axis=0)
    m = _component_moduli(diffs, complex_pairs)
    scale = 1.0 / (table.shape[0] - 1)
    powers = m ** p
    if per_pair:
        sums = np.sum(powers, axis=-1, keepdims=True)
        value = float(np.sum(sums ** (1.0 / p))) * scale
        outer = _power_weights(sums, 1.0 / p - 1.0)
        weights = scale * outer * _power_weights(m, p - 2)
    else:
        total = float(np.sum(powers))
        value = total ** (1.0 / p) * scale
        outer = total ** (1.0 / p - 1.0) if total > 0.0 else 0.0
        weights = scale * outer * _power_weights(m, p - 2)
    g_diffs = _expand(weights, complex_pairs) * diffs
    grad[1:] += g_diffs
    grad[:-1] -= g_diffs
    return value, grad


def linear3(
    table: np.ndarray, bias: np.ndarray, p: int = 3, complex_pairs: bool = False
) -> float:
    """Np-style penalty on adjacent differences after subtracting a learned
    drift bias (one vector shared by every pair)."""
    if _too_short(table):
        return 0.0
    residual = np.diff(table, axis=0) - bias
    m = _component_moduli(residual, complex_pairs)
    return float(np.sum(m ** p)) / (table.shape[0] - 1)


def linear3_grad(
    table: np.ndarray, bias: np.ndarray, p: int = 3, complex_pairs: bool = False
) -> tuple[float, np.ndarray, np.ndarray]:
    grad = np.zeros_like(table)
    if _too_short(table):
        return 0.0, grad, np.zeros_like(bias)
    residual = np.diff(table, axis=0) - bias
    m = _component_moduli(residual, complex_pairs)
    scale = 1.0 / (table.shape[0] - 1)
    value = float(np.sum(m ** p)) * scale
    g_res = _expand(scale * p * _power_weights(m, p - 2), complex_pairs) * residual
    grad[1:] += g_res
    grad[:-1] -= g_res
    return value, grad, -np.sum(g_res, axis=0)


def temporal_penalty_grad(
    table: np.ndarray,
    reg: TemporalRegSpec,
    bias: Optional[np.ndarray] = None,
    complex_pairs: bool = True,
) -> tuple[float, np.ndarray, Optional[np.ndarray]]:
    """Dispatch on the additive penalty families; recurrent and none
    contribute nothing here."""
    if reg.family == "N":
        value, grad = temporal_np_grad(table, reg.p, complex_pairs)
        return value, grad, None
    if reg.family == "L":
        value, grad = temporal_lp_grad(table, reg.p, complex_pairs)
        return value, grad, None
    if reg.family == "linear3":
        if bias is None:
            raise ValueError("linear3 needs its bias parameter")
        return linear3_grad(table, bias, reg.p, complex_pairs)
    return 0.0, np.zeros_like(table), None


# ---------------------------------------------------------------------------
# Recurrent timestamp generation.
# ---------------------------------------------------------------------------

_VARIANT_GATES = {
    "rnn": ("W", "b"),
    "lstm": ("Wi", "Wf", "Wg", "Wo", "bi", "bf", "bg", "bo"),
    "gru": ("Wz", "Wr", "Wn", "bz", "br", "bn"),
}


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


@dataclass
class RecurrentParams:
    """Learnable state of the sequential timestamp generator.

    The recurrence consumes a zero input at every step, so only
    hidden-to-hidden weights and biases exist; ``h0`` (and ``c0`` for LSTMs)
    is the learnable initial state and ``W_out``/``b_out`` project each hidden
    state to one 2d-wide timestamp row.
    """

    variant: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.variant not in RECURRENT_VARIANTS:
            raise ValueError(f"unknown recurrent variant {self.variant!r}")

    @property
    def hidden_size(self) -> int:
        return self.tensors["h0"].shape[0]

    @property
    def out_dim(self) -> int:
        return self.tensors["W_out"].shape[0]

    def tensor_names(self) -> list[str]:
        base, _ = _base_variant(self.variant)
        names = ["h0"]
        if base == "lstm":
            names.append("c0")
        names.extend(_VARIANT_GATES[base])
        names.extend(["W_out", "b_out"])
        return names

    def named_tensors(self) -> dict[str, np.ndarray]:
        return {f"rnn.{name}": self.tensors[name] for name in self.tensor_names()}

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        self.tensors[name.removeprefix("rnn.")] = value

    def copy(self) -> "RecurrentParams":
        return RecurrentParams(
            variant=self.variant,
            tensors={k: v.copy() for k, v in self.tensors.items()},
        )

    @classmethod
    def from_tensors(
        cls, variant: str, prefixed: dict[str, np.ndarray]
    ) -> "RecurrentParams":
        tensors = {}
        for key, arr in prefixed.items():
            name = key.removeprefix("rnn.")
            # Vectors are serialized as single-row tables.
            if name in ("h0", "c0") or name.startswith("b"):
                arr = arr.reshape(-1)
            tensors[name] = arr
        return cls(variant=variant, tensors=tensors)


def init_recurrent(
    variant: str,
    hidden_size: int,
    out_dim: int,
    rng: np.random.Generator,
    scale: float = 0.1,
    dtype=np.float64,
) -> RecurrentParams:
    base, _ = _base_variant(variant)
    tensors = {"h0": (scale * rng.standard_normal(hidden_size)).astype(dtype)}
    if base == "lstm":
        tensors["c0"] = (scale * rng.standard_normal(hidden_size)).astype(dtype)
    for name in _VARIANT_GATES[base]:
        shape = (hidden_size, hidden_size) if name.startswith("W") else (hidden_size,)
        tensors[name] = (scale * rng.standard_normal(shape)).astype(dtype)
    tensors["W_out"] = (scale * rng.standard_normal((out_dim, hidden_size))).astype(
        dtype
    )
    tensors["b_out"] = (scale * rng.standard_normal(out_dim)).astype(dtype)
    return RecurrentParams(variant=variant, tensors=tensors)


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


def recurrent_generate(params: RecurrentParams, count: int) -> np.ndarray:
    """Timestamp table of ``count`` rows generated from the initial state.

    Deterministic: identical parameters give a bitwise-identical table.
    """
    table, _ = _recurrent_forward(params, count)
    return table


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


# ---------------------------------------------------------------------------
# Norm curves (penalty of a scalar residual, for plotting).
# ---------------------------------------------------------------------------


def norm_curve(
    family: str,
    p: int,
    interval: tuple[float, float] = (-2.0, 2.0),
    samples: int = 401,
) -> list[tuple[float, float]]:
    """Sample the scalar penalty |x|^p (Np) or |x| (Lp, root cancels the
    power) over an interval."""
    family = family.upper()
    if family not in ("N", "L"):
        raise ValueError(f"norm curves exist for N and L families, not {family!r}")
    if samples < 2:
        raise ValueError("need at least two samples")
    xs = np.linspace(interval[0], interval[1], samples)
    ys = np.abs(xs) ** p if family == "N" else np.abs(xs)
    return list(zip(xs.tolist(), ys.tolist()))


def write_norm_curves_csv(path, labels: list[str],
                          interval: tuple[float, float] = (-2.0, 2.0),
                          samples: int = 401) -> None:
    """One column per requested family label ("N5", "L1", ...), 6-decimal
    fixed formatting."""
    curves = []
    for label in labels:
        family, p = label[0].upper(), int(label[1:])
        curves.append([y for _, y in norm_curve(family, p, interval, samples)])
    xs = np.linspace(interval[0], interval[1], samples)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x," + ",".join(labels) + "\n")
        for row, x in enumerate(xs):
            values = ",".join(f"{curve[row]:.6f}" for curve in curves)
            fh.write(f"{x:.6f},{values}\n")
