"""Multi-head causal self-attention (Eqs. 13-14).

Each output position i is a learned linear map W of a softmax-weighted sum
of value vectors at positions j <= i, with weights given by the Boltzmann
form ``c_ij = softmax_j(u_i . B . u_j)``.  The bilinear form B is factored
into "key" and "query" matrices (the paper's footnote 32), and H heads of
dimension q = p / H run in parallel and are concatenated.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, fused_attention, softmax, split3
from ..autograd.functional import dropout as dropout_fn
from ..dtypes import f64_sum
from ..nn import Linear, Module

_MASK_VALUE = -1e9

# Mask arrays keyed by (seq_len, window, dtype).  Every layer of every
# forward used to rebuild the same (T, T) triangle; masks are small and
# few distinct keys occur in a run, so cache them as read-only arrays.
# The dtype is part of the key so a float32 model gets a float32 mask —
# adding a float64 mask to float32 scores would upcast the whole score
# tensor.  Bounded so pathological callers can't grow it forever.
_MASK_CACHE: dict[tuple[int, int | None, str], np.ndarray] = {}
_MASK_CACHE_MAX = 64


def causal_mask(seq_len: int, window: int | None = None,
                dtype=np.float64) -> np.ndarray:
    """Additive (1, 1, T, T) mask: 0 on allowed pairs, -1e9 elsewhere.

    Implements the j <= i restriction of Eq. 13 that makes the model
    autoregressive (footnote 33).  With ``window`` set, position i may
    additionally only attend to the last ``window`` positions — the
    local/sparse-attention variant §6 cites (Child et al.) as the standard
    fix for the O(L^2) cost; compute here stays dense (NumPy), but the
    *connectivity* matches.

    ``dtype`` should match the scores the mask is added to (-1e9 is
    exactly representable in float32, so masking semantics are identical
    at either precision).  Results are cached per
    ``(seq_len, window, dtype)`` and returned as shared **read-only**
    arrays — do not mutate; copy first if you must.
    """
    if window is not None and window < 1:
        raise ValueError("attention window must be >= 1")
    dtype = np.dtype(dtype)
    key = (seq_len, window, dtype.str)
    cached = _MASK_CACHE.get(key)
    if cached is not None:
        return cached
    mask = np.triu(np.full((seq_len, seq_len), _MASK_VALUE, dtype=dtype), k=1)
    if window is not None:
        mask += np.tril(np.full((seq_len, seq_len), _MASK_VALUE, dtype=dtype),
                        k=-window)
    mask = mask[None, None, :, :]
    mask.setflags(write=False)
    if len(_MASK_CACHE) >= _MASK_CACHE_MAX:
        _MASK_CACHE.clear()
    _MASK_CACHE[key] = mask
    return mask


class MultiHeadSelfAttention(Module):
    """H parallel attention heads followed by an output projection."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
        causal: bool = True,
        window: int | None = None,
        fused: bool = True,
        block_size: int | None = None,
    ):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.causal = causal
        self.window = window
        self.dropout_p = dropout
        self.fused = fused
        self.block_size = block_size
        self._rng = rng
        # Fused query/key/value projection (the factored B of Eq. 14) and
        # the output map W of Eq. 13.
        self.qkv = Linear(d_model, 3 * d_model, rng)
        self.proj = Linear(d_model, d_model, rng)

    def forward(self, x: Tensor, cache: dict | None = None,
                cache_key: str = "attn") -> Tensor:
        """Eqs. 13-14 over a (B, T, d_model) batch.

        Two numerically equivalent execution paths: the default **fused**
        kernel (:func:`repro.autograd.fused_attention` fed by
        :func:`~repro.autograd.split3`, one graph node for the whole
        softmax-attention) and the **composed** reference built from
        primitive ops.  The composed path is kept for attention-weights
        capture (``cache=`` needs the intermediate softmax, which the
        fused node never materialises as a Tensor) and for attention
        dropout during training (the fused node has no hook between the
        softmax and the weighted sum).
        """
        batch, seq_len, _ = x.shape
        qkv = self.qkv(x)  # (B, T, 3C)
        use_fused = (
            self.fused
            and cache is None
            and not (self.training and self.dropout_p > 0.0)
        )
        mask = (
            causal_mask(seq_len, window=self.window, dtype=qkv.data.dtype)
            if self.causal else None
        )
        if use_fused:
            q, k, v = split3(qkv, axis=-1)
            out = fused_attention(
                q, k, v, self.num_heads,
                mask=mask,
                scale=1.0 / np.sqrt(self.head_dim),
                block_size=self.block_size,
            )
            return self.proj(out)

        q = qkv[:, :, : self.d_model]
        k = qkv[:, :, self.d_model : 2 * self.d_model]
        v = qkv[:, :, 2 * self.d_model :]

        def split_heads(t: Tensor) -> Tensor:
            return t.reshape(batch, seq_len, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        q, k, v = split_heads(q), split_heads(k), split_heads(v)  # (B, H, T, q)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if self.causal:
            scores = scores + Tensor(mask)
        weights = softmax(scores, axis=-1)  # the c_ij of Eq. 14
        if cache is not None:
            cache[f"{cache_key}.weights"] = weights.data.copy()
        weights = dropout_fn(weights, self.dropout_p, self._rng, training=self.training)
        out = weights @ v  # (B, H, T, q): the weighted sums of Eq. 13
        out = out.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.d_model)
        return self.proj(out)

    def step(self, x_last: np.ndarray, state) -> np.ndarray:
        """Incremental decoding: one new position against cached keys/values.

        ``x_last`` is the (B, 1, d_model) input for the newest position;
        ``state`` is this layer's view of a KV cache (a layer of
        :class:`repro.infer.PagedKVCache` or :class:`repro.infer.KVCache`):
        ``state.append(k, v)`` stores the new keys/values and returns
        ``(keys, values, mask)`` over every position the rows attend to,
        with an additive key-position mask for ragged batches (``None``
        when every row sees the same positions).

        Inference-only plain-NumPy math — per-token cost O(T) instead of
        the O(T^2) of re-running the full forward.
        """
        batch = x_last.shape[0]
        qkv = x_last.reshape(batch, -1) @ self.qkv.weight.data + self.qkv.bias.data
        q, k, v = np.split(qkv, 3, axis=-1)

        def heads(t: np.ndarray) -> np.ndarray:
            return t.reshape(batch, self.num_heads, self.head_dim)

        q, k, v = heads(q), heads(k), heads(v)  # (B, H, hd)
        keys, values, mask = state.append(k, v)  # (B, H, t, hd)
        # float(): a np.float64 divisor would upcast float32 scores (NEP 50
        # keeps numpy scalars strong); a Python float follows the array.
        scores = np.einsum("bhd,bhtd->bht", q, keys) / float(np.sqrt(self.head_dim))
        if mask is not None:
            scores = scores + mask[:, None, :]
        scores -= scores.max(axis=-1, keepdims=True)
        exp = np.exp(scores)
        attn = exp / f64_sum(exp, axis=-1, keepdims=True)
        out = np.einsum("bht,bhtd->bhd", attn, values)
        out = out.reshape(batch, self.d_model)
        out = out @ self.proj.weight.data + self.proj.bias.data
        return out[:, None, :]
