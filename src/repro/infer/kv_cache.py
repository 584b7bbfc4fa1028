"""Preallocated KV cache for batched incremental decoding.

The naive KV cache in :meth:`MultiHeadSelfAttention.step` grows its state
with ``np.concatenate`` every step — an O(t) allocation + memcpy per token,
O(T^2) per generation.  :class:`KVCache` instead allocates one
``(layers, B, H, L, head_dim)`` pair of buffers up front and appends
in place, so a decode step costs one row-write per layer and attention
reads are zero-copy views whenever every slot is active.

Slots are independent sequences: the engine resets a slot's length to 0
when a finished sequence is retired and a queued prompt takes its place
(continuous batching), overwriting the stale keys in place.  Rows may sit
at different sequence lengths; the per-layer :meth:`LayerKV.append`
returns an additive ``(B, t)`` mask (0 on valid key positions, -inf
elsewhere) whenever lengths are ragged, and ``None`` — the exact
single-sequence code path — when they agree.

With a local-attention ``window`` the buffer stays linear (bounded by the
model window L, which every admitted sequence must fit) and reads slice
the last ``window`` positions, matching the banded mask of
:func:`repro.core.attention.causal_mask`.

This dense cache allocates ``slots x max_len`` positions up front whether
or not they are ever written.  It backs the batch-1 ``generate_fast``
loop; the :class:`~repro.infer.GenerationEngine` runs on its paged
sibling :class:`repro.infer.PagedKVCache`, which allocates fixed-size
pages on demand from a shared pool (and shares identical prompt prefixes
between slots).  Both hand out layer states with the same
``append(k, v)`` contract, so the attention step path cannot tell them
apart — and greedy/seeded engine output is bit-identical to
``generate_fast``.
"""

from __future__ import annotations

import numpy as np

from ..dtypes import resolve_dtype


def kv_value_dtype(model=None, dtype=None) -> np.dtype:
    """The single policy point for KV pool *value* dtype (both backends).

    Resolution order: an explicit ``dtype`` argument wins; otherwise the
    ``model``'s parameter dtype (so a float32 model gets a float32 pool —
    half the KV bytes per page/slot); otherwise the process policy
    default.  Dense :class:`KVCache` and :class:`~repro.infer.PagedKVCache`
    both route through here so the two backends cannot drift.  Index and
    bookkeeping arrays (lengths, block tables, free lists, refcounts)
    stay int64 regardless — they hold positions, not activations.
    """
    if dtype is not None:
        return resolve_dtype(dtype)
    if model is not None and hasattr(model, "param_dtype"):
        return model.param_dtype()
    return resolve_dtype(None)


def ragged_key_mask(new_lens: np.ndarray, lo: int, t_max: int,
                    window: int | None, dtype=np.float64) -> np.ndarray | None:
    """Additive ``(n, t_max - lo)`` key mask for rows at mixed lengths.

    Returns ``None`` when every row sits at ``t_max`` (uniform lengths
    need no masking — the exact single-sequence code path).  Shared by
    the dense and paged cache backends so their masks are bit-identical
    by construction: 0 on positions a row may attend to, ``-inf`` on
    unwritten tails and (with a local-attention ``window``) positions
    that have slid out of the row's band.  ``dtype`` should match the
    attention scores the mask is added to, so a float32 decode step is
    not upcast by its mask.
    """
    if int(new_lens.min()) == t_max:
        return None
    positions = lo + np.arange(t_max - lo)
    valid = positions[None, :] < new_lens[:, None]
    if window is not None:
        valid &= positions[None, :] >= new_lens[:, None] - window
    return np.where(valid, 0.0, -np.inf).astype(dtype, copy=False)


class LayerKV:
    """One layer's view of the shared cache; the ``state`` handed to
    :meth:`MultiHeadSelfAttention.step`."""

    __slots__ = ("_cache", "_layer")

    def __init__(self, cache: "KVCache", layer: int):
        self._cache = cache
        self._layer = layer

    def append(self, k: np.ndarray, v: np.ndarray):
        """Write this step's (n, H, head_dim) keys/values in place.

        Returns ``(keys, values, mask, None)`` where keys/values cover
        every cached position the active rows may attend to — including
        the entries just written — and ``mask`` is an additive ``(n, t)``
        array (or ``None`` when all rows share one length and need no
        masking).  The trailing ``None`` is the span grouping of the
        paged layer's ``append``: here every row is its own span.
        """
        cache = self._cache
        kb = cache._k[self._layer]
        vb = cache._v[self._layer]
        active = cache._active
        lens = cache.lengths[active]
        kb[active, :, lens, :] = k
        vb[active, :, lens, :] = v

        new_lens = lens + 1
        t_max = int(new_lens.max())
        window = cache.window
        if window is None:
            lo = 0
        else:
            lo = max(0, int(new_lens.min()) - window)
        if cache._all_active:
            keys = kb[:, :, lo:t_max]
            values = vb[:, :, lo:t_max]
        else:
            keys = kb[:, :, lo:t_max][active]
            values = vb[:, :, lo:t_max][active]
        return keys, values, ragged_key_mask(new_lens, lo, t_max, window,
                                             dtype=kb.dtype), None


class KVCache:
    """Preallocated per-layer K/V buffers plus per-slot length bookkeeping."""

    def __init__(
        self,
        num_layers: int,
        batch_size: int,
        num_heads: int,
        max_seq_len: int,
        head_dim: int,
        window: int | None = None,
        dtype=None,
    ):
        if min(num_layers, batch_size, num_heads, max_seq_len, head_dim) < 1:
            raise ValueError("all KVCache dimensions must be >= 1")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 when set")
        dtype = kv_value_dtype(dtype=dtype)
        shape = (num_layers, batch_size, num_heads, max_seq_len, head_dim)
        self._k = np.zeros(shape, dtype=dtype)
        self._v = np.zeros(shape, dtype=dtype)
        self.batch_size = batch_size
        self.max_seq_len = max_seq_len
        self.window = window
        self.lengths = np.zeros(batch_size, dtype=np.int64)
        self.layers = [LayerKV(self, i) for i in range(num_layers)]
        self.set_active(np.arange(batch_size))

    @classmethod
    def for_model(cls, model, batch_size: int, max_seq_len: int | None = None,
                  dtype=None) -> "KVCache":
        """Size a cache from a :class:`TransformerLM`-style ``model.config``.

        The pool dtype follows the model's parameter dtype via
        :func:`kv_value_dtype` (explicit ``dtype`` overrides), so a
        float32 model gets a float32 cache — half the KV bytes.
        """
        cfg = model.config
        return cls(
            num_layers=cfg.num_layers,
            batch_size=batch_size,
            num_heads=cfg.num_heads,
            max_seq_len=max_seq_len or cfg.max_seq_len,
            head_dim=cfg.head_dim,
            window=cfg.attention_window,
            dtype=kv_value_dtype(model, dtype),
        )

    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the K/V pools (index arrays are always int64)."""
        return self._k.dtype

    @property
    def nbytes(self) -> int:
        return self._k.nbytes + self._v.nbytes

    def set_active(self, slots: np.ndarray) -> None:
        """Select which slots the next append/advance operates on."""
        slots = np.asarray(slots, dtype=np.int64)
        self._active = slots
        self._all_active = slots.size == self.batch_size and bool(
            np.array_equal(slots, np.arange(self.batch_size))
        )

    def advance(self) -> None:
        """Commit one decode step: every active slot grew by one position.

        Called once per model step, after all layers have appended, so the
        layers of a block stack all write at the same position.  A slot
        already at ``max_seq_len`` raises before any buffer is corrupted
        (the append itself would also fail its bounds check).
        """
        if self._active.size and int(self.lengths[self._active].max()) >= self.max_seq_len:
            raise ValueError(f"KVCache overflow: sequence exceeds {self.max_seq_len}")
        self.lengths[self._active] += 1

    def reset_slot(self, slot: int) -> None:
        """Free a slot for reuse; stale keys are overwritten in place."""
        self.lengths[slot] = 0
