"""Paged KV cache: a vLLM-style block-pool allocator with prefix sharing.

The dense :class:`~repro.infer.KVCache` preallocates ``slots x max_len``
positions per layer, so memory scales with the *worst case* even when
every live request is short, and identical prompt prefixes (a shared
system prompt, few-shot headers) are recomputed and stored once per
slot.  This module replaces that buffer with the serving-literature
answer (paged attention + KV reuse, per the training-to-inference
survey in PAPERS.md):

- **Page pool** — K/V storage is carved into fixed-size *pages* of
  ``page_size`` token positions, held in one
  ``(layers, num_pages, H, page_size, head_dim)`` buffer pair.  A page
  id is valid across every layer, so allocation granularity is "one
  page of positions for the whole model".
- **Free list + refcounts** — pages are handed out from a free list and
  reference-counted; a page returns to the pool when its last holder
  (a slot's block table or the prefix cache) releases it.
- **Block tables** — each slot maps logical positions to pages through
  a per-slot table: position ``p`` lives in ``table[p // page_size]``
  at row ``p % page_size``.  Short sequences hold few pages; nothing
  scales with ``max_len`` until a sequence actually grows.
- **Copy-on-write** — :meth:`PagedKVCache.fork_slot` shares every page
  between parent and child; the first write to a shared page copies it
  (all layers) so divergent continuations never corrupt each other.
- **Prefix cache** — full pages of finished prompt prefills are
  published under their token-prefix key; a later prompt with the same
  prefix re-uses those pages outright and skips the covered positions
  at prefill.  Under memory pressure, unreferenced cached pages are
  evicted LRU back into the free list.

One write path: a model step is a *span plan* — ``(slot, start, m)``
triples, each putting ``m`` consecutive positions of a slot on the
batch axis.  :meth:`PagedKVCache.begin_spans` resolves it once per step
(fresh pages, copy-on-write, the gather page table and the ragged key
mask) into a :class:`SpanBatch`, and every layer's
:class:`PagedLayerKV` in ``cache.layers`` writes and gathers against
it.  Reads gather the referenced pages into the contiguous
``(B, H, t, hd)`` view the attention step expects.  Gathered values are
bit-for-bit the same floats the dense buffer would hold and
ragged-length masks come from the shared
:func:`~repro.infer.kv_cache.ragged_key_mask`, so paged decoding is
**bit-identical** to the dense ``generate_fast`` path whenever no
sharing is in play — and still token-identical on cache hits, because
shared pages hold exactly the keys/values an identical prefill would
have produced.
"""

from __future__ import annotations

import numpy as np

from .kv_cache import kv_value_dtype, ragged_key_mask


class PagePoolExhausted(RuntimeError):
    """No free page and nothing evictable: every page is actively held.

    The engine avoids this by checking availability before admitting or
    stepping (queueing / preempting instead); seeing it raised means the
    caller wrote past what :meth:`PagedKVCache.span_page_need` reported,
    or sized the pool below one maximum-length sequence.
    """


class PrefixCache:
    """Token-prefix -> page index for sharing prompt prefills across slots.

    One entry per *full* page of a registered prompt, keyed by the
    tuple of every token up to and including that page — chained
    keying, so a lookup hit guarantees the whole covered prefix
    matches, not just the page's own slice.  Entries hold a pool
    reference (refcount +1) to keep their page alive after the
    registering slot retires; :meth:`evict_one` drops the least
    recently used entry whose page no live slot shares.

    Hit/miss/eviction totals are plain ints so the cache stays free of
    telemetry dependencies; the engine mirrors them into ``repro.obs``
    counters.
    """

    def __init__(self, cache: "PagedKVCache"):
        self._cache = cache
        self._pages: dict[tuple, int] = {}    # prefix key -> page id
        self._stamp: dict[tuple, int] = {}    # prefix key -> LRU tick
        self._tick = 0                        # logical clock, RNG-free
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.hit_tokens = 0

    def __len__(self) -> int:
        return len(self._pages)

    def _touch(self, key: tuple) -> None:
        self._tick += 1
        self._stamp[key] = self._tick

    def match(self, tokens, record: bool = True) -> list[int]:
        """Longest chain of cached pages covering a prefix of ``tokens``.

        Capped at ``len(tokens) - 1`` positions so at least one token is
        always left to feed (the model must produce logits for the last
        prompt position before anything can be sampled).  ``record``
        updates hit/miss counters and LRU stamps; peek with
        ``record=False`` when only sizing an admission decision.
        """
        size = self._cache.page_size
        pages: list[int] = []
        for n_pages in range(1, (len(tokens) - 1) // size + 1):
            key = tuple(tokens[: n_pages * size])
            page = self._pages.get(key)
            if page is None:
                break
            pages.append(page)
            if record:
                self._touch(key)
        if record:
            if pages:
                self.hits += 1
                self.hit_tokens += len(pages) * size
            else:
                self.misses += 1
        return pages

    def insert(self, tokens, block_table: list[int]) -> int:
        """Publish every full page of ``tokens`` held in ``block_table``.

        Idempotent: prefixes already cached (including pages this very
        slot borrowed on its own admission) are left untouched, so two
        slots registering the same prompt share one chain.  Returns the
        number of newly published pages.
        """
        size = self._cache.page_size
        published = 0
        for n_pages in range(1, len(tokens) // size + 1):
            key = tuple(tokens[: n_pages * size])
            if key in self._pages:
                self._touch(key)
                continue
            page = block_table[n_pages - 1]
            self._pages[key] = page
            self._cache.refcounts[page] += 1
            self._touch(key)
            published += 1
        return published

    @property
    def evictable_pages(self) -> int:
        """Cached pages no live slot shares (refcount held by us alone)."""
        refs = self._cache.refcounts
        return sum(refs[page] == 1 for page in self._pages.values())

    def evict_one(self) -> int:
        """Drop the LRU unshared entry, freeing its page; returns the page.

        Raises :class:`PagePoolExhausted` when every cached page is
        still shared by a live slot (nothing can be reclaimed).
        """
        refs = self._cache.refcounts
        victim = None
        for key in sorted(self._pages, key=self._stamp.__getitem__):
            if refs[self._pages[key]] == 1:
                victim = key
                break
        if victim is None:
            raise PagePoolExhausted(
                "prefix cache holds no evictable page: every page is "
                "shared by a live slot")
        page = self._pages.pop(victim)
        del self._stamp[victim]
        self._cache._release(page)
        self.evictions += 1
        return page

    def stats(self) -> dict:
        """JSON-ready counters for ``engine.stats()`` / ``/v1/stats``."""
        return {
            "entries": len(self._pages),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_tokens": self.hit_tokens,
        }


class PagedLayerKV:
    """One layer's view of the page pool; the ``state`` handed to
    :meth:`MultiHeadSelfAttention.step`.

    Every batch row is one *position* of a span in the step plan that
    :meth:`PagedKVCache.begin_spans` installed: plain decoding is one
    row per sequence, a speculative verify is k+1 rows of one forked
    slot at consecutive positions.  Row ``j`` attends to earlier rows of
    its own span because ``append`` writes every row's K/V into the pool
    *before* gathering, and the ragged mask (``new_lens[j] = pos_j + 1``)
    hides later positions — time laid out along the batch axis.
    """

    __slots__ = ("_cache", "_layer")

    def __init__(self, cache: "PagedKVCache", layer: int):
        self._cache = cache
        self._layer = layer

    def append(self, k: np.ndarray, v: np.ndarray):
        """Write this step's (rows, H, head_dim) keys/values into the pool.

        Returns ``(keys, values, mask)`` gathered over every cached
        position the rows may attend to.
        """
        plan = self._cache._plan
        if plan is None:
            raise RuntimeError("PagedKVCache.begin_spans must install a "
                               "step plan before a layer appends")
        kb = self._cache._k[self._layer]
        vb = self._cache._v[self._layer]
        kb[plan.pages, :, plan.offsets, :] = k
        vb[plan.pages, :, plan.offsets, :] = v
        return plan.gather(kb), plan.gather(vb), plan.mask


class SpanBatch:
    """Resolved write-and-gather plan for one batched model step.

    Built by :meth:`PagedKVCache.begin_spans` from ``(slot, start, m)``
    triples: positions ``start .. start+m-1`` of each slot become ``m``
    consecutive batch rows.  Construction resolves every written page
    once (allocating at page boundaries, copying shared pages on write —
    the cache's only copy-on-write site), the gather page table and the
    ragged key mask; every layer's :class:`PagedLayerKV` then writes and
    gathers vectorized.  Slot lengths are NOT advanced: the caller
    commits explicitly (``commit_span`` / ``promote_fork``) after
    deciding how much of each span survives.
    """

    __slots__ = ("pages", "offsets", "new_lens", "mask", "_table",
                 "_page_size", "_skip", "_width")

    def __init__(self, cache: "PagedKVCache", spans):
        size = cache.page_size
        pages: list[int] = []
        positions: list[int] = []
        for slot, start, m in spans:
            if m < 1:
                raise ValueError("span length must be >= 1")
            end = start + m
            if end > cache.max_seq_len:
                raise ValueError(
                    f"PagedKVCache overflow: span reaches {end} > "
                    f"{cache.max_seq_len}")
            table = cache.block_tables[slot]
            for idx in range(start // size, (end - 1) // size + 1):
                if idx == len(table):
                    table.append(cache._allocate())
                elif cache.refcounts[table[idx]] > 1:
                    # Copy-on-write before the span lands: the page is
                    # shared with a fork parent or the prefix cache, so
                    # divergence gets a private copy of every layer.
                    fresh = cache._allocate()
                    cache._k[:, fresh] = cache._k[:, table[idx]]
                    cache._v[:, fresh] = cache._v[:, table[idx]]
                    cache._release(table[idx])
                    table[idx] = fresh
            for pos in range(start, end):
                pages.append(table[pos // size])
                positions.append(pos)
        self.pages = np.asarray(pages, dtype=np.int64)
        pos_arr = np.asarray(positions, dtype=np.int64)
        self.offsets = pos_arr % size
        self.new_lens = pos_arr + 1
        t_max = int(self.new_lens.max())
        window = cache.window
        lo = 0 if window is None else max(0, int(self.new_lens.min()) - window)
        self.mask = ragged_key_mask(self.new_lens, lo, t_max, window,
                                    dtype=cache.dtype)
        # Gather table, one row per span repeated over its m rows.  Rows
        # shorter than t_max read the defaulted page 0 beyond their block
        # table — exactly the positions the mask sends to -inf, so their
        # values never reach an attention weight (exp(-inf) == 0.0).
        page_lo, page_hi = lo // size, -(-t_max // size)
        table = np.zeros((len(spans), page_hi - page_lo), dtype=np.int64)
        for row, (slot, _, _) in enumerate(spans):
            held = cache.block_tables[slot][page_lo:page_hi]
            table[row, :len(held)] = held
        self._table = np.repeat(table, [m for _, _, m in spans], axis=0)
        self._page_size = size
        self._skip = lo - page_lo * size
        self._width = t_max - lo

    def gather(self, buf: np.ndarray) -> np.ndarray:
        """Contiguous (rows, H, t, hd) history of one layer's pool."""
        size = self._page_size
        n, cols = self._table.shape
        _, heads, _, head_dim = buf.shape
        # One column at a time lands each (n, H, page, hd) page block
        # directly in its target position — a single copy into the
        # contiguous layout, instead of fancy-index + transpose/reshape
        # (two full copies).  cols is small (t / page_size).
        out = np.empty((n, heads, cols * size, head_dim), dtype=buf.dtype)
        for col in range(cols):
            out[:, :, col * size:(col + 1) * size] = buf[self._table[:, col]]
        return out[:, :, self._skip:self._skip + self._width]


class PagedKVCache:
    """Fixed-size-page KV pool with refcounted sharing and copy-on-write.

    The engine's KV backend.  One model step is one span plan:
    :meth:`begin_spans` resolves it, the per-layer views in ``layers``
    write and gather against it, and :meth:`commit_span` /
    :meth:`promote_fork` commit what survives.  Admission and preemption
    use :meth:`try_admit`, :meth:`span_page_need`,
    :meth:`register_prefix` and :meth:`fork_slot`.

    ``num_pages`` defaults to dense-equivalent capacity
    (``batch_size * ceil(max_seq_len / page_size)``) so a default
    engine can never run out of pages; size it smaller to oversubscribe
    slots against real memory, with admission/preemption absorbing the
    pressure.
    """

    def __init__(
        self,
        num_layers: int,
        batch_size: int,
        num_heads: int,
        max_seq_len: int,
        head_dim: int,
        page_size: int = 16,
        num_pages: int | None = None,
        window: int | None = None,
        dtype=None,
        prefix_sharing: bool = True,
    ):
        if min(num_layers, batch_size, num_heads, max_seq_len, head_dim,
               page_size) < 1:
            raise ValueError("all PagedKVCache dimensions must be >= 1")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 when set")
        if num_pages is None:
            # Dense-equivalent capacity: every slot can reach max_seq_len,
            # so a default engine can never exhaust the pool.  Sizing
            # num_pages smaller opts into oversubscription — the engine
            # then bounds each request by pool capacity at submit and
            # preempts under mid-decode pressure.
            num_pages = batch_size * -(-max_seq_len // page_size)
        if num_pages < 1:
            raise ValueError("num_pages must be >= 1")
        dtype = kv_value_dtype(dtype=dtype)
        shape = (num_layers, num_pages, num_heads, page_size, head_dim)
        self._k = np.zeros(shape, dtype=dtype)
        self._v = np.zeros(shape, dtype=dtype)
        self.batch_size = batch_size
        self.max_seq_len = max_seq_len
        self.page_size = page_size
        self.num_pages = num_pages
        self.window = window
        self.lengths = np.zeros(batch_size, dtype=np.int64)
        self.block_tables: list[list[int]] = [[] for _ in range(batch_size)]
        self.refcounts = np.zeros(num_pages, dtype=np.int64)
        # Popping yields ascending page ids: deterministic allocation
        # order, which keeps paged runs reproducible byte for byte.
        self._free = list(range(num_pages - 1, -1, -1))
        self.peak_pages_used = 0
        self.prefix: PrefixCache | None = \
            PrefixCache(self) if prefix_sharing else None
        self.layers = [PagedLayerKV(self, i) for i in range(num_layers)]
        self._plan: SpanBatch | None = None

    @classmethod
    def for_model(cls, model, batch_size: int,
                  max_seq_len: int | None = None, page_size: int = 16,
                  num_pages: int | None = None,
                  prefix_sharing: bool = True,
                  dtype=None) -> "PagedKVCache":
        """Size a cache from a :class:`TransformerLM`-style ``model.config``.

        The page-pool dtype follows the model's parameter dtype via
        :func:`~repro.infer.kv_cache.kv_value_dtype` (explicit ``dtype``
        overrides), halving KV bytes per page for a float32 model.
        """
        cfg = model.config
        return cls(
            num_layers=cfg.num_layers,
            batch_size=batch_size,
            num_heads=cfg.num_heads,
            max_seq_len=max_seq_len or cfg.max_seq_len,
            head_dim=cfg.head_dim,
            page_size=page_size,
            num_pages=num_pages,
            window=cfg.attention_window,
            prefix_sharing=prefix_sharing,
            dtype=kv_value_dtype(model, dtype),
        )

    # ------------------------------------------------------------------
    # Pool accounting
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the page pool (index arrays are always int64)."""
        return self._k.dtype

    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def used_pages(self) -> int:
        return self.num_pages - len(self._free)

    @property
    def shared_pages(self) -> int:
        """Pages with more than one holder (slots and/or the prefix cache)."""
        return int((self.refcounts > 1).sum())

    @property
    def available_pages(self) -> int:
        """Pages obtainable right now: free plus LRU-evictable cached."""
        evictable = self.prefix.evictable_pages if self.prefix else 0
        return len(self._free) + evictable

    @property
    def page_bytes(self) -> int:
        """K+V bytes of one page across every layer."""
        return int(self._k[:, 0].nbytes + self._v[:, 0].nbytes)

    @property
    def nbytes(self) -> int:
        """Bytes of the whole pool allocation (used or not)."""
        return self._k.nbytes + self._v.nbytes

    @property
    def bytes_in_use(self) -> int:
        """Bytes of pages currently held by slots or the prefix cache."""
        return self.used_pages * self.page_bytes

    def pages_for(self, n_tokens: int) -> int:
        """Pages needed to hold ``n_tokens`` positions."""
        return -(-n_tokens // self.page_size)

    def stats(self) -> dict:
        """JSON-ready pool + prefix-cache snapshot for ``engine.stats()``."""
        snapshot = {
            "backend": "paged",
            "dtype": self.dtype.name,
            "page_size": self.page_size,
            "num_pages": self.num_pages,
            "pages_free": self.free_pages,
            "pages_used": self.used_pages,
            "pages_shared": self.shared_pages,
            "peak_pages_used": self.peak_pages_used,
            "page_bytes": self.page_bytes,
            "kv_bytes_pool": self.nbytes,
            "kv_bytes_in_use": self.bytes_in_use,
        }
        if self.prefix is not None:
            snapshot["prefix_cache"] = self.prefix.stats()
        return snapshot

    # ------------------------------------------------------------------
    # Allocation / release
    # ------------------------------------------------------------------
    def _allocate(self) -> int:
        if not self._free:
            if self.prefix is None:
                raise PagePoolExhausted(
                    f"all {self.num_pages} pages are in use")
            self.prefix.evict_one()
        page = self._free.pop()
        self.refcounts[page] = 1
        self.peak_pages_used = max(self.peak_pages_used, self.used_pages)
        return page

    def _release(self, page: int) -> None:
        self.refcounts[page] -= 1
        if self.refcounts[page] == 0:
            self._free.append(page)
        elif self.refcounts[page] < 0:
            raise AssertionError(f"page {page} refcount went negative")

    # ------------------------------------------------------------------
    # Step protocol: begin_spans -> decode_step -> commit
    # ------------------------------------------------------------------
    def begin_spans(self, spans) -> SpanBatch:
        """Install one model step's plan: ``spans`` is a list of
        ``(slot, start, m)`` triples, each contributing ``m`` batch rows
        at consecutive positions.  ``layers`` write and gather against
        it; the returned :class:`SpanBatch` gives the rows' positions
        (``new_lens - 1``).  Commit survivors with :meth:`commit_span` /
        :meth:`promote_fork` afterwards."""
        self._plan = SpanBatch(self, spans)
        return self._plan

    def commit_span(self, slot: int, length: int) -> None:
        """Set a slot's valid length after a span write landed on it."""
        if length > self.max_seq_len:
            raise ValueError(
                f"PagedKVCache overflow: sequence exceeds {self.max_seq_len}")
        self.lengths[slot] = length
        self._plan = None

    def reset_slot(self, slot: int) -> None:
        """Release the slot's pages back to the pool (or to the prefix
        cache, for pages it also holds) and zero its length."""
        for page in self.block_tables[slot]:
            self._release(page)
        self.block_tables[slot] = []
        self.lengths[slot] = 0
        self._plan = None

    # ------------------------------------------------------------------
    # Paging-specific API (admission, sharing, forking)
    # ------------------------------------------------------------------
    def try_admit(self, slot: int, tokens) -> int | None:
        """Attach prefix-cached pages and reserve the slot for ``tokens``.

        Returns the number of positions covered by reused pages (0 on a
        miss) — the engine starts prefill *after* them — or ``None``
        when the pool cannot currently supply the prompt's fresh pages
        (the caller should keep the request queued).
        """
        pages = self.prefix.match(tokens, record=False) if self.prefix else []
        needed = self.pages_for(len(tokens)) - len(pages)
        self.reset_slot(slot)
        for page in pages:
            self.refcounts[page] += 1
        # Matched pages are pinned (refcount >= 2) before availability is
        # measured, so the eviction headroom below cannot count them.
        if needed > self.available_pages:
            for page in pages:
                self._release(page)
            return None
        if self.prefix is not None:
            # Re-record as a real admission (match() above only peeked).
            if pages:
                self.prefix.hits += 1
                self.prefix.hit_tokens += len(pages) * self.page_size
                for n_pages in range(1, len(pages) + 1):
                    self.prefix._touch(tuple(tokens[: n_pages * self.page_size]))
            else:
                self.prefix.misses += 1
        self.block_tables[slot] = list(pages)
        self.lengths[slot] = len(pages) * self.page_size
        return len(pages) * self.page_size

    def span_page_need(self, slot: int, start: int, m: int,
                       fork: bool = False) -> int:
        """Pages a span of ``m`` positions from ``start`` on ``slot``
        takes from the pool: one per page index it writes past the block
        table, plus one copy-on-write per shared page it writes into.
        ``fork=True`` sizes the span for a fork of ``slot`` (the engine's
        speculative verify), where every already-held page the span
        touches — the fork boundary page — is shared by construction.
        The engine preempts until a step's spans fit the pool.
        """
        size = self.page_size
        table = self.block_tables[slot]
        return sum(idx >= len(table) or fork or self.refcounts[table[idx]] > 1
                   for idx in range(start // size, (start + m - 1) // size + 1))

    def register_prefix(self, slot: int, tokens) -> int:
        """Publish the slot's full prompt pages into the prefix cache."""
        if self.prefix is None:
            return 0
        return self.prefix.insert(tokens, self.block_tables[slot])

    def promote_fork(self, src: int, dst: int, length: int) -> None:
        """Adopt ``src``'s pages as ``dst``'s state, truncated to ``length``.

        The speculative commit-or-rollback primitive: the draft branch
        decoded on fork ``src``; ``dst`` (the canonical slot) takes over
        ``src``'s block table up to ``length`` accepted positions, pages
        beyond that are released (the rollback of rejected drafts), and
        ``dst``'s previous references are dropped — pages shared by both
        tables just lose the fork's double-count, pages ``src`` COW-ed
        replace their stale originals, and ``src`` is left empty.
        """
        keep = self.pages_for(length)
        table = self.block_tables[src]
        if keep > len(table):
            raise ValueError(
                f"promote_fork: {length} positions need {keep} pages but "
                f"slot {src} holds {len(table)}")
        for page in table[keep:]:
            self._release(page)
        kept = table[:keep]
        self.block_tables[src] = []
        self.lengths[src] = 0
        for page in self.block_tables[dst]:
            self._release(page)
        self.block_tables[dst] = kept
        self.lengths[dst] = length
        self._plan = None

    def fork_slot(self, src: int, dst: int) -> None:
        """Clone ``src`` into ``dst`` by sharing every page (O(1) copies).

        Both slots keep decoding from the same history; the first write
        either side makes to a shared page triggers copy-on-write, so
        continuations diverge safely — the building block for parallel
        sampling and beam-style search.
        """
        if src == dst:
            raise ValueError("cannot fork a slot onto itself")
        self.reset_slot(dst)
        for page in self.block_tables[src]:
            self.refcounts[page] += 1
        self.block_tables[dst] = list(self.block_tables[src])
        self.lengths[dst] = self.lengths[src]
