"""Embedding and temporal regularization penalties.

The embedding penalty is the nuclear 3-norm over the three factors entering
the trilinear score.  Temporal penalties act on adjacent rows of the
timestamp table:

    Np       mean over adjacent pairs of sum_z |t[l+1,z] - t[l,z]|^p
    Lp       same inner sum, but a single global 1/p root over all pairs
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

from .core import row_blocks

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
    family, rest = tag[0].upper(), tag[1:]
    if family in ("N", "L") and (rest == "" or rest.isdigit()):
        return TemporalRegSpec(family=family, p=int(rest) if rest else p)
    raise ValueError(f"unknown temporal regularizer {name!r}")


# ---------------------------------------------------------------------------
# Embedding regularizer (nuclear 3-norm).
# ---------------------------------------------------------------------------


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


def _residual_penalty(
    table: np.ndarray,
    p: int,
    complex_pairs: bool,
    bias: Optional[np.ndarray] = None,
    root: bool = False,
) -> tuple[float, np.ndarray, Optional[np.ndarray]]:
    """Value, table gradient and bias gradient (None without a bias) of

        S / (T - 1),  S = sum_l sum_z |t[l+1, z] - t[l, z] - bias[z]|^p

    over the T rows of ``table``, or of S^(1/p) / (T - 1) with ``root``.
    The residual's components are its entries, or the complex moduli of its
    split-half pairs with ``complex_pairs``.  Runs over cache-sized blocks of
    adjacent pairs and writes the table gradient once.
    """
    grad_bias = None if bias is None else np.zeros_like(bias)
    if table.shape[0] < 2 or table.shape[1] == 0:
        warnings.warn(
            "temporal regularizer needs at least two timestamp rows; "
            "returning 0",
            stacklevel=3,
        )
        return 0.0, np.zeros_like(table), grad_bias
    pairs = table.shape[0] - 1
    coef = (1.0 if root else p) / pairs
    grad = np.empty_like(table)
    grad[0] = 0.0
    total = 0.0
    for block in row_blocks((pairs,) + table.shape[1:]):
        lo, hi = block.start, min(block.stop, pairs)
        residual = table[lo + 1:hi + 1] - table[lo:hi]
        if bias is not None:
            residual -= bias
        parts = np.split(residual, 2, axis=1) if complex_pairs else [residual]
        sq = parts[0] * parts[0]
        if complex_pairs:
            sq += parts[1] * parts[1]
        # weight = m ** (p - 2) from sq = m ** 2 by multiplication; the
        # subgradient 0 where m == 0 for p = 1.
        if p % 2:
            weight = np.sqrt(sq)
            if p == 1:
                np.divide(1.0, weight, out=weight, where=weight > 0.0)
        else:
            weight = np.ones_like(sq)
        for _ in range((p - 2) // 2):
            weight *= sq
        total += float(np.vdot(weight, sq))
        # Residual -> d penalty / d residual (before any root), in place.
        weight *= coef
        for part in parts:
            part *= weight
        grad[lo + 1:hi + 1] = residual
        grad[lo:hi] -= residual
        if grad_bias is not None:
            grad_bias -= residual.sum(axis=0)
    if not root:
        return total / pairs, grad, grad_bias
    outer = total ** (1.0 / p - 1.0) if total > 0.0 else 0.0
    grad *= outer
    if grad_bias is not None:
        grad_bias *= outer
    return total ** (1.0 / p) / pairs, grad, grad_bias


def temporal_np(table: np.ndarray, p: int, complex_pairs: bool = False) -> float:
    """Mean over adjacent row pairs of the summed p-th powers of component
    residual magnitudes."""
    return _residual_penalty(table, p, complex_pairs)[0]


def temporal_lp(table: np.ndarray, p: int, complex_pairs: bool = False) -> float:
    """Lp reading of the smoothing penalty: a single global 1/p root over the
    summed residual powers."""
    return _residual_penalty(table, p, complex_pairs, root=True)[0]


def linear3(
    table: np.ndarray, bias: np.ndarray, p: int = 3, complex_pairs: bool = False
) -> float:
    """Np-style penalty on adjacent differences after subtracting a learned
    drift bias (one vector shared by every pair)."""
    return _residual_penalty(table, p, complex_pairs, bias=bias)[0]


def temporal_penalty_grad(
    table: np.ndarray,
    reg: TemporalRegSpec,
    bias: Optional[np.ndarray] = None,
    complex_pairs: bool = True,
) -> tuple[float, np.ndarray, Optional[np.ndarray]]:
    """Value and gradients of the additive penalty families; recurrent and
    none contribute nothing here."""
    if reg.family not in ("N", "L", "linear3"):
        return 0.0, np.zeros_like(table), None
    if reg.family == "linear3" and bias is None:
        raise ValueError("linear3 needs its bias parameter")
    return _residual_penalty(
        table, reg.p, complex_pairs,
        bias=bias if reg.family == "linear3" else None,
        root=reg.family == "L",
    )


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
    params = RecurrentParams(variant=variant)
    for name in params.tensor_names():
        rows = out_dim if name.endswith("_out") else hidden_size
        shape = (rows, hidden_size) if name.startswith("W") else (rows,)
        params.tensors[name] = (scale * rng.standard_normal(shape)).astype(dtype)
    return params


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
    """One column per requested family label ("N5", "L1", ...; a bare "N" or
    "L" takes the default exponent), 6-decimal fixed formatting."""
    specs = [parse_reg_spec(label) for label in labels]
    curves = [[y for _, y in norm_curve(spec.family, spec.p, interval, samples)]
              for spec in specs]
    xs = np.linspace(interval[0], interval[1], samples)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x," + ",".join(spec.label for spec in specs) + "\n")
        for row, x in enumerate(xs):
            values = ",".join(f"{curve[row]:.6f}" for curve in curves)
            fh.write(f"{x:.6f},{values}\n")
