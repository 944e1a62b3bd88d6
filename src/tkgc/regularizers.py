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

# Gate names in checkpoint order; each has a weight W<gate> and a bias
# b<gate>.  At call time the weights are stacked into one matrix in the
# ``_STACKED`` row order: the sigmoid gates first so one call covers them,
# and GRU's candidate n apart because it reads r * h.
_GATES = {"rnn": ("",), "lstm": ("i", "f", "g", "o"), "gru": ("z", "r", "n")}
_STACKED = {"rnn": ("",), "lstm": ("i", "f", "o", "g"), "gru": ("z", "r")}
_SIGMOID_BLOCKS = {"rnn": 0, "lstm": 3, "gru": 2}


def _base_variant(variant: str) -> tuple[str, bool]:
    linear = variant.startswith("linear_")
    return (variant.removeprefix("linear_"), linear)


def _keep(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return x  # the linear variants' in-place activation


def _sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function, branch-free and overflow-free: exp(min(x, 0)) over
    1 + e, e = exp(-|x|), is 1 / (1 + e) where x >= 0 and e / (1 + e)
    elsewhere, bit for bit (no np.where, which is slow on short rows)."""
    den = np.exp(-np.abs(x))
    den += 1.0
    return np.divide(np.exp(np.minimum(x, 0.0)), den, out=out)


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
        gates = _GATES[base]
        return (["h0", "c0"] if base == "lstm" else ["h0"]) + [
            p + g for p in "Wb" for g in gates] + ["W_out", "b_out"]

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
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Generated table plus what backward reads: the states ``hs`` (h0
    first), the activated ``gates`` (LSTM i, f, o, g; GRU z, r, n; RNN
    ``hs[1:]``), LSTM cells ``cs`` (c0 first) and their tanh ``cts``, and
    GRU's ``rh`` = r * h.  Each step is one matvec of the stacked gate
    weights into a preallocated row, activated in place unless linear."""
    base, linear = _base_variant(params.variant)
    sigmoid, tanh = (_keep, _keep) if linear else (_sigmoid, np.tanh)
    t, hid = params.tensors, params.hidden_size
    W = np.concatenate([t["W" + k] for k in _STACKED[base]])
    b = np.concatenate([t["b" + k] for k in _STACKED[base]])
    sig = _SIGMOID_BLOCKS[base] * hid
    hs = np.empty((count + 1, hid), dtype=W.dtype)
    hs[0] = t["h0"]
    cache, buf = {"hs": hs, "gates": hs[1:]}, np.empty(hid, dtype=W.dtype)
    if base == "rnn":
        for h_prev, h in zip(hs[:-1], hs[1:]):
            np.dot(W, h_prev, out=h)
            h += b
            tanh(h, out=h)
    elif base == "lstm":
        gates = cache["gates"] = np.empty((count, 4 * hid), dtype=W.dtype)
        cs = cache["cs"] = np.empty_like(hs)
        cs[0] = t["c0"]
        cts = cache["cts"] = cs[1:] if linear else np.empty_like(hs[1:])
        for h_prev, a, i, f, o, g, c_prev, c, ct, h in zip(
            hs[:-1], gates, *np.split(gates, 4, axis=1), cs[:-1], cs[1:],
            cts, hs[1:],
        ):
            np.dot(W, h_prev, out=a)
            a += b
            sigmoid(a[:sig], out=a[:sig])
            tanh(g, out=g)
            np.multiply(f, c_prev, out=c)
            np.multiply(i, g, out=buf)
            c += buf
            tanh(c, out=ct)
            np.multiply(o, ct, out=h)
    else:
        gates = cache["gates"] = np.empty((count, 3 * hid), dtype=W.dtype)
        rhs = cache["rh"] = np.empty_like(hs[1:])
        for h_prev, zr, z, r, n, rh, h in zip(
            hs[:-1], gates[:, :sig], *np.split(gates, 3, axis=1), rhs, hs[1:]
        ):
            np.dot(W, h_prev, out=zr)
            zr += b
            sigmoid(zr, out=zr)
            np.multiply(r, h_prev, out=rh)
            np.dot(t["Wn"], rh, out=n)
            n += t["bn"]
            tanh(n, out=n)
            np.subtract(1.0, z, out=h)
            h *= n
            np.multiply(z, h_prev, out=buf)
            h += buf
    return hs[1:] @ t["W_out"].T + t["b_out"], cache


def recurrent_generate(params: RecurrentParams, count: int) -> np.ndarray:
    """Timestamp table of ``count`` rows generated from the initial state.

    Deterministic: identical parameters give a bitwise-identical table.
    """
    table, _ = _recurrent_forward(params, count)
    return table


def recurrent_generate_backward(
    params: RecurrentParams, cache: dict[str, np.ndarray],
    grad_table: np.ndarray,
) -> dict[str, np.ndarray]:
    """Backpropagate a gradient on the generated table through the unrolled
    recurrence; returns gradients keyed like ``tensor_names()``.

    The coefficients ``K`` (activation slopes times forward values) of all
    steps come first; the reverse loop then fills the pre-activation
    gradients ``G`` (laid out like ``gates``) by a few length-h products and
    one ``W.T @ g`` matvec per step.  Weights then take one GEMM."""
    base, linear = _base_variant(params.variant)
    t, hid = params.tensors, params.hidden_size
    hs, gates = cache["hs"], cache["gates"]
    sig = _SIGMOID_BLOCKS[base] * hid
    g_hs = grad_table @ t["W_out"]
    WT = np.concatenate([t["W" + k].T for k in _STACKED[base]], axis=1,
                        dtype=g_hs.dtype)
    gh, gc, g_rh, buf = np.zeros((4, hid), dtype=g_hs.dtype)
    K = np.ones_like(gates) if linear else np.concatenate(
        [gates[:, :sig] * (1.0 - gates[:, :sig]), 1.0 - gates[:, sig:] ** 2],
        axis=1)
    G = np.empty_like(K, dtype=g_hs.dtype)
    # gh and gc only change in place, so they end as the h0 and c0 gradients.
    grads = {"W_out": grad_table.T @ hs[1:], "b_out": grad_table.sum(axis=0),
             "h0": gh, "c0": gc}
    if base == "rnn":
        for g_out, k, g in zip(g_hs[::-1], K[::-1], G[::-1]):
            gh += g_out
            np.multiply(k, gh, out=g)
            np.dot(WT, g, out=gh)
    elif base == "lstm":
        # G[s] = K[s] * (gc, gc, gh, gc); gc gains gh * kc and decays by f.
        i, f, o, g = np.split(gates, 4, axis=1)
        K *= np.concatenate([g, cache["cs"][:-1], cache["cts"], i], axis=1)
        kc = o if linear else o * (1.0 - cache["cts"] ** 2)
        for g_out, k, k_c, f_s, g in zip(
            g_hs[::-1], K[::-1], kc[::-1], f[::-1], G[::-1]
        ):
            gh += g_out
            np.multiply(gh, k_c, out=buf)
            gc += buf
            np.multiply(k.reshape(4, hid), gc, out=g.reshape(4, hid))
            np.multiply(k[2 * hid:sig], gh, out=g[2 * hid:sig])
            np.dot(WT, g, out=gh)
            gc *= f_s
    else:
        # G[s] = K[s] * (gh, Wn.T @ gn, gh) with gn = G[s]'s n block.
        z, r, n = np.split(gates, 3, axis=1)
        K *= np.concatenate([hs[:-1] - n, hs[:-1], 1.0 - z], axis=1)
        WnT = np.ascontiguousarray(t["Wn"].T, dtype=g_hs.dtype)
        for g_out, k, z_s, r_s, g in zip(
            g_hs[::-1], K[::-1], z[::-1], r[::-1], G[::-1]
        ):
            gh += g_out
            np.multiply(gh, k[sig:], out=g[sig:])
            np.dot(WnT, g[sig:], out=g_rh)
            np.multiply(gh, k[:hid], out=g[:hid])
            np.multiply(g_rh, k[hid:sig], out=g[hid:sig])
            np.multiply(gh, z_s, out=buf)
            np.dot(WT, g[:sig], out=gh)
            gh += buf
            np.multiply(g_rh, r_s, out=buf)
            gh += buf
        grads["Wn"], grads["bn"] = G[:, sig:].T @ cache["rh"], G[:, sig:].sum(0)
    g_W, g_b = G[:, :WT.shape[1]].T @ hs[:-1], G[:, :WT.shape[1]].sum(0)
    for k, key in enumerate(_STACKED[base]):
        grads["W" + key] = g_W[k * hid:(k + 1) * hid]
        grads["b" + key] = g_b[k * hid:(k + 1) * hid]
    return {name: grads[name] for name in params.tensor_names()}


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
