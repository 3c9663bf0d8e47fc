"""Minimal decoder-only transformer with a per-step head-masking hook.

Architecture: pre-norm residual blocks, RMSNorm, rotary position embedding
on q/k, GELU (tanh approximation) FFN, no biases. Everything runs in
float32 so runs are reproducible bit-for-bit.

`prefill` (the prompt rows a cache lacks, one stream) and `step_many` (one
token in each of B streams of several requests) share one forward, with
one multiply per weight (`_plan`): a lone part's 2-D product, or consecutive
parts of one row count stacked. Consecutive requests on consecutive slots of
one pool (`KvCache.slot`) with one key count, stream count, layout and equal
policies form a group, decided once per forward: per layer one assignment
writes its new key and value rows into the pool, one attention reads them and
one mask-policy call scores them. Either way each request gets the bits of
stepping alone. `step` is `step_many` of one request. Every request is
checked before any row is written, and each cache's one `length` moves
after the last layer, so a forward that raises moves none.
A cache that already holds a prompt's first rows (an earlier request's prompt,
`truncate`d back to its end) is reused: prefill processes only the rest.

Small forwards are bound by numpy call overhead, so a layer makes few
calls and keeps every output bit of the plain formulas: one matmul with a
(3, d, d) q/k/v view of the checkpoint buffer, rope on q and k in place,
rmsnorm without `np.mean`'s wrapper, GELU and softmax in place.

The forward has one hook, an optional *mask policy*: a callable invoked
once per layer per group (see `_forward`) with the post-rotation
query vectors, the layer's cached keys, its raw q.K^T attention logits, the
query positions and the prompt layout. It returns one multiplier per head
and query row (or None for all-ones); the multipliers scale each head's
attention output before the output projection. Anything else that reads
attention (the profiler) is a policy too.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ContextOverflowError, DataError
from .model import Checkpoint
from .prng import SplitMix64

# policy(layer_index, q_rot (B*T,H,dk), keys (B,H,S,dk), logits (B,H,T,S), positions (T,), layout)
#   -> (B*T,H) or None; query rows are stream-major: row b*T + t is stream b at positions[t].
# logits is q.K^T before the 1/sqrt(dk) scale and the causal mask; the softmax
# then overwrites it in place, so a policy must neither write it nor keep it.
# Equal policies of one group (see `_forward`) that are not one object give the first a 7th argument: them all.
MaskPolicy = Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, "PromptLayout"], Optional[np.ndarray]]

_GELU_C = np.float32(0.7978845608028654)  # sqrt(2/pi)
_GELU_A = np.float32(0.044715)
_HALF, _ONE = np.float32(0.5), np.float32(1.0)
_EPS = np.float32(1e-5)  # rmsnorm
ROPE_BASE = 10000.0
# Past M*N*K = _SMALL_MNK, OpenBLAS 0.3.31's AVX-512 sgemm packs the whole weight each call, in K chunks of
# _GEMM_Q, the last two balanced to a multiple of _GEMM_UNROLL. Criterion-6 step, B rows, plain -> planned ms
# (1 BLAS thread, 2-core VM): 4 8.98->5.69, 5 11.9->8.84, 8 10.8->7.86, 16 14.0->11.3, 32 21.1->19.5, 48 27.6->26.8.
_SMALL_MNK, _GEMM_Q, _GEMM_UNROLL, _PLAN_MAX_ROWS = 1_000_000, 448, 16, 32


def rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """x / sqrt(mean(x^2) + eps) * gain over the last axis, in a new array.
    The mean is np.mean's own reduction and division, without its wrapper."""
    ms = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    ms /= x.shape[-1]
    ms += _EPS
    np.sqrt(ms, out=ms)
    out = x / ms
    out *= gain
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU (tanh approximation) computed in place: overwrites its argument
    and returns it. Same float32 ufuncs in the same order as the allocating
    0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))), so the result is
    bitwise the same."""
    t = _GELU_A * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    t += _ONE
    x *= _HALF
    x *= t
    return x


@functools.lru_cache(maxsize=16)
def _rope_channels(dk: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per channel of a head: rope frequency, sign of its sin term, and the
    partner channel it pairs with. Channel j < dk // 2 pairs with
    j + dk // 2; an odd trailing channel has frequency 0 and sign 0."""
    half = dk // 2
    inv_freq = (ROPE_BASE ** (-2.0 * np.arange(half, dtype=np.float64) / dk)).astype(np.float32)
    freq = np.concatenate([inv_freq, inv_freq, np.zeros(dk % 2, np.float32)])
    sign = np.repeat(np.float32([-1.0, 1.0, 0.0]), [half, half, dk % 2])
    perm = np.arange(dk)
    perm[: 2 * half] = np.roll(perm[: 2 * half], half)
    for a in (freq, sign, perm):
        a.setflags(write=False)  # shared by every engine with this d_head
    return freq, sign, perm


def _rope(x: np.ndarray, cs: np.ndarray, sn: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Rotate x (..., T, H, dk) in place by the factors of `Engine._rope_tables`:
    x * C + x[..., perm] * S. Each pair (x1, x2) becomes x1 cos - x2 sin and
    x2 cos + x1 sin bitwise, since a + b * (-s) == a - b * s exactly; an odd
    trailing dim gets C = 1 and S = 0 and passes through."""
    rot = x.take(perm, axis=-1)
    x *= cs
    rot *= sn
    x += rot
    return x


def _plan(m: int, w: np.ndarray) -> Callable | None:
    """A multiply of (m, k) rows by w past the small-matrix limit in small-kernel pieces: the driver's
    K chunks, summed in order, per column block with edges on multiples of 64 (others change the bits).
    None for a plain matmul, or if it misses a @ w bitwise on a seeded probe (one BLAS build's rule)."""
    k, n = w.shape[-2:]
    if m * n * k <= _SMALL_MNK or not 1 < m <= _PLAN_MAX_ROWS:  # one row is a gemv: no packing
        return None
    edges = [0]
    while (left := k - edges[-1]) > 0:
        half = -(-left // 2 // _GEMM_UNROLL) * _GEMM_UNROLL
        edges.append(edges[-1] + (_GEMM_Q if left >= 2 * _GEMM_Q else left if left <= _GEMM_Q else half))
    width = _SMALL_MNK // (m * max(np.diff(edges))) // 64 * 64
    ks, cols = [*map(slice, edges, edges[1:])], [slice(c, c + width) for c in range(0, n, width)]
    def planned(a: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.concatenate([functools.reduce(np.add, (a[..., kc] @ w[..., kc, c] for kc in ks)) for c in cols], axis=-1)
    probe = (SplitMix64(m).uniforms(m * k) - 0.5).astype(np.float32).reshape(m, k)  # not np.random: +6.7 MB RSS
    return planned if np.array_equal(planned(probe, w), probe @ w) else None


@dataclass(frozen=True)
class PromptLayout:
    """Static facts about one generation stream's token layout."""

    i_start: int
    i_end: int
    prompt_len: int


class MultimodalPrompt:
    """Token sequence with a single vision span: [prefix ids][vision][suffix ids].

    Vision positions carry pre-projected embeddings, text positions carry
    token ids. The span is half-open [i_start, i_end) and must be non-empty.
    """

    def __init__(self, prefix_ids, vision: np.ndarray, suffix_ids):
        vision = np.asarray(vision, dtype=np.float32)
        if vision.ndim != 2 or vision.shape[0] < 1:
            raise DataError(f"vision span must be a non-empty 2-D array, got shape {vision.shape}")
        if not np.isfinite(vision).all():
            raise DataError("vision embeddings must be finite (found NaN or inf)")
        self.prefix_ids = [int(t) for t in prefix_ids]
        self.vision = vision
        self.suffix_ids = [int(t) for t in suffix_ids]
        if any(t < 0 for t in self.prefix_ids + self.suffix_ids):
            raise DataError("token ids must be non-negative")

    @property
    def i_start(self) -> int:
        return len(self.prefix_ids)

    @property
    def i_end(self) -> int:
        return self.i_start + self.vision.shape[0]

    def __len__(self) -> int:
        return len(self.prefix_ids) + self.vision.shape[0] + len(self.suffix_ids)

    def layout(self) -> PromptLayout:
        return PromptLayout(self.i_start, self.i_end, len(self))

    def extended(self, extra_ids) -> "MultimodalPrompt":
        """New prompt with text appended after the suffix (multi-turn contexts)."""
        return MultimodalPrompt(self.prefix_ids, self.vision, self.suffix_ids + list(extra_ids))


class KvCache:
    """Key/value rows of one request's generation streams: streams [offset,
    offset + n_streams) of `pool` (2, n_layers, streams, n_heads, max_len,
    d_head), preallocated to max_len, which `kv` views (`k`, `v` its halves);
    a `slot` shares the pool of the cache it came from. All streams and
    layers share one `length`, the rows a forward appends after.
    `select` is the one way to branch; rows below `shared` are the same in
    every stream and are never copied. `truncate` drops rows from the end,
    so one cache can serve several requests whose prompts share a prefix.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int, max_len: int, n_streams: int = 1):
        self.max_len, self.n_streams = max_len, n_streams
        self.pool = np.zeros((2, n_layers, n_streams, n_heads, max_len, d_head), dtype=np.float32)
        self.length = self.shared = self.offset = 0

    kv = property(lambda self: self.pool[:, :, self.offset : self.offset + self.n_streams])
    k = property(lambda self: self.kv[0])
    v = property(lambda self: self.kv[1])

    def slot(self, first: int, n_streams: int) -> KvCache:
        """An empty cache of streams [first, first + n_streams) of this one's rows, with a length of its own."""
        view = copy.copy(self)
        view.offset, view.n_streams, view.length, view.shared = self.offset + first, n_streams, 0, 0
        return view

    def truncate(self, n: int) -> None:
        """Keep rows [0, n) only. The next select that gives every stream
        one parent broadcasts the rows written after them."""
        self.length = min(self.length, n)
        self.shared = min(self.shared, n)

    def select(self, parents: list[int]) -> None:
        """Stream s takes stream parents[s]'s rows from `shared` on. When all
        parents are one stream, every stream becomes a copy of it and all rows
        are shared, so the first select after prefill broadcasts the prompt
        once and later ones copy generated rows only."""
        lo, hi = self.shared, self.length
        if len(set(parents)) == 1:
            parents = parents[:1] * self.n_streams
            self.shared = hi
        moved = [s for s, p in enumerate(parents) if p != s]
        if moved:
            for a in self.kv:  # k, then v: one op over both would double the temporary the fancy index copies
                a[:, moved, :, lo:hi] = a[:, [parents[s] for s in moved], :, lo:hi]


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis computed in place: overwrites its argument
    and returns it. Same float32 ufuncs in the same order as the allocating
    form exp(z - max) / sum, so the result is bitwise the same."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


class Engine:
    """Inference over one immutable checkpoint; every request owns its cache."""

    def __init__(self, checkpoint: Checkpoint):
        self.checkpoint = ck = checkpoint
        self.config = c = checkpoint.config
        # per layer: (attn_norm, wqkv (3, d, d), wo, ffn_norm, w1, w2), all views of the checkpoint
        self._layers = [
            (ck.layer(i, "attn_norm"), ck.qkv(i), ck.layer(i, "wo"), ck.layer(i, "ffn_norm"), ck.layer(i, "w1"), ck.layer(i, "w2"))
            for i in range(c.n_layers)
        ]
        dk = c.d_head
        self._rope_freq, self._rope_sign, self._rope_perm = _rope_channels(dk)
        self._inv_sqrt_dk = np.float32(1.0 / math.sqrt(dk))
        self._matmuls: dict[int, Callable] = {}  # rows -> np.matmul or a planned multiply

    def _matmul(self, rows: int) -> Callable:
        """np.matmul, or a multiply by plan for each weight shape whose product at `rows` rows has one."""
        if (mm := self._matmuls.get(rows)) is None:
            weights = (*self._layers[0][1:3], *self._layers[0][4:], self.checkpoint["output"])
            plans = {w.shape: plan for w in weights if (plan := _plan(rows, w))}
            mm = self._matmuls[rows] = (lambda a, w: plans.get(w.shape, np.matmul)(a, w)) if plans else np.matmul
        return mm

    def new_cache(self, n_streams: int = 1, max_len: int | None = None) -> KvCache:
        c = self.config
        return KvCache(c.n_layers, c.n_heads, c.d_head, min(max_len or c.max_seq_len, c.max_seq_len), n_streams)

    def _rope_tables(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """rope factors C = [cos, cos] and S = [-sin, sin] (..., 1, dk) for rows at `positions` (...),
        a table row per stream and row in the forward; 1 and 0 on an odd trailing dim, whose angle is 0."""
        ang = positions.astype(np.float32)[..., None] * self._rope_freq
        sn = np.sin(ang)
        sn *= self._rope_sign
        return np.cos(ang)[..., None, :], sn[..., None, :]

    def _embed_id(self, token_id: int) -> np.ndarray:
        if not 0 <= token_id < self.config.vocab_size:
            raise DataError(f"token id {token_id} out of range for vocab {self.config.vocab_size}")
        return self.checkpoint["embedding"][token_id]

    def embed_prompt(self, prompt: MultimodalPrompt, start: int = 0) -> np.ndarray:
        """Input rows [start, len(prompt)) of `prompt`."""
        if prompt.vision.shape[1] != self.config.d_model:
            raise DataError(f"vision embedding dim {prompt.vision.shape[1]} != d_model {self.config.d_model}")
        rows = [self._embed_id(t) for t in prompt.prefix_ids[start:]]
        rows.extend(prompt.vision[max(start - prompt.i_start, 0) :])
        rows.extend(self._embed_id(t) for t in prompt.suffix_ids[max(start - prompt.i_end, 0) :])
        return np.stack(rows).astype(np.float32)

    def _check_room(self, cache: KvCache, n: int) -> None:
        """Check that `cache` can hold n rows: within the context and the cache's room."""
        if n > self.config.max_seq_len:
            raise ContextOverflowError(f"sequence length {n} exceeds max_seq_len {self.config.max_seq_len}")
        if n > cache.max_len:
            raise ContextOverflowError(f"kv cache overflow: {cache.length}+{n - cache.length} > {cache.max_len}")

    def step(self, tokens: list[int], cache: KvCache, layout: PromptLayout,
             policy: MaskPolicy | None = None) -> np.ndarray:
        """Process one token id in each of cache streams [0, B), appending one
        row to every layer's cache; returns next-token logits (B, vocab)."""
        return self.step_many([(tokens, cache, layout, policy)])[0]

    def step_many(self, requests: list[tuple]) -> list[np.ndarray]:
        """`step(*r)` for every request r = (tokens, cache, layout, policy) in one
        forward, bitwise equal to stepping each alone."""
        for tokens, cache, *_ in requests:  # every request checked before any row is written
            self._check_room(cache, cache.length + 1)
            if not 0 <= min(tokens) <= max(tokens) < self.config.vocab_size:
                raise DataError(f"token ids {tokens} out of range for vocab {self.config.vocab_size}")
        parts = [(cache, len(tokens), np.array([cache.length]), layout, policy) for tokens, cache, layout, policy in requests]
        logits = self._forward(self.checkpoint["embedding"].take([t for r in requests for t in r[0]], axis=0), parts)
        ends = itertools.accumulate(len(tokens) for tokens, *_ in requests)
        return [logits[end - len(tokens) : end] for (tokens, *_), end in zip(requests, ends)]

    def prefill(
        self,
        prompt: MultimodalPrompt,
        cache: KvCache,
        policy: MaskPolicy | None = None,
        return_all_logits: bool = False,
    ) -> np.ndarray:
        """Process the prompt rows cache stream 0 lacks in one batched pass.

        The cache holds rows [0, cache.length) of `prompt` (none for a new
        cache); rows [cache.length, len(prompt)) are processed at their
        absolute positions. Returns logits for the last position, or for
        every processed position when `return_all_logits` is set.
        """
        base, n = cache.length, len(prompt)
        self._check_room(cache, n)
        if base >= n:
            raise ConfigError(f"cache already holds {base} rows of a {n}-row prompt; nothing to prefill")
        out = self._forward(self.embed_prompt(prompt, base), [(cache, 1, np.arange(base, n), prompt.layout(), policy)])
        return out if return_all_logits else out[-1]

    def _forward(self, x: np.ndarray, parts: list) -> np.ndarray:
        """Run input rows x (N, d_model) through every block; returns logits (N, vocab). Each part
        (cache, B, positions (T,), layout, policy) owns the next B*T rows, stream-major, appended to its
        cache's streams [0, B) (the caller checks they fit). A part of T > 1 rows comes alone. A lone part
        multiplies its rows as one 2-D product; consecutive parts of m rows each share one (R, m, k) @ w,
        which makes each part's own BLAS call. Consecutive parts of one key (pool, adjacent slots, key
        count, B, layout, equal policies) form a group, built once per forward, that per layer writes its
        new rows in one assignment, attends with one q.K^T, softmax and w.V, and makes one policy call."""
        c = self.config
        H, dk = c.n_heads, c.d_head
        T = len(parts[0][2])
        cs, sn = self._rope_tables(np.array([p for _, B, p, *_ in parts for _ in range(B)]))  # (streams, T, 1, dk)
        if len(parts) == 1:
            mm = self._matmul(len(x))
        else:  # steps (T = 1)
            runs = [(m, len(list(g))) for m, g in itertools.groupby(B for _, B, *_ in parts)]

            def mm(a: np.ndarray, w: np.ndarray) -> np.ndarray:
                outs, lo = [], 0
                for m, r in runs:
                    out = self._matmul(m)(a[lo : lo + r * m].reshape(r, m, -1), w if w.ndim == 2 else w[:, None])
                    outs.append(out.reshape(*out.shape[:-3], r * m, -1))
                    lo += r * m
                return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=-2)

        starts = itertools.accumulate((B for _, B, *_ in parts), initial=0)  # each part's first stream
        keyed = [((id(cache.pool), cache.offset - lo, cache.length + T, B, layout, policy), cache, lo, positions)
                 for (cache, B, positions, layout, policy), lo in zip(parts, starts)]
        groups = []  # (keys and values (2, layers, n, H, S, dk), streams, causal mask, policy, its last arguments)
        for _, run in itertools.groupby(keyed, lambda part: part[0]):
            run = list(run)
            (_, _, S, B, layout, policy), cache, lo, positions = run[0]
            n, policies = B * len(run), [key[5] for key, *_ in run]
            future = np.arange(S)[None, :] > positions[:, None] if T > 1 else None  # (T, S)
            peers = (policies,) if any(p is not policy for p in policies) else ()  # equal policies make equal masks
            groups.append((cache.pool[:, :, cache.offset : cache.offset + n, :, :S], slice(lo, lo + n), future, policy,
                           (positions, layout, *peers)))

        for layer, (attn_norm, wqkv, wo, ffn_norm, w1, w2) in enumerate(self._layers):
            # q, k, v from one dispatch of three matmuls; rope rotates q and k in place
            qkv = mm(rmsnorm(x, attn_norm), wqkv).reshape(3, -1, T, H, dk)
            qs, _ = _rope(qkv[:2], cs, sn, self._rope_perm)
            ctxs = []
            for kv, rows, future, policy, args in groups:
                kv = kv[:, layer]  # (2, n, H, S, dk), a view of the pool
                kv[:, :, :, -T:] = qkv[1:, rows].transpose(0, 1, 3, 2, 4)  # the new k (rotated) and v
                K, V = kv
                q = qs[rows]
                # the scores become the weights in their own buffer: no (n, H, T, S) temporaries
                logits = np.matmul(q.transpose(0, 2, 1, 3), K.transpose(0, 1, 3, 2))
                mask = None if policy is None else policy(layer, q.reshape(-1, H, dk), K, logits, *args)
                logits *= self._inv_sqrt_dk
                if future is not None:
                    np.copyto(logits, np.float32(-np.inf), where=future)
                ctx = np.matmul(_softmax(logits), V).transpose(0, 2, 1, 3).reshape(-1, H, dk)
                if mask is not None:
                    ctx *= mask[:, :, None]
                ctxs.append(ctx)
            ctx = ctxs[0] if len(ctxs) == 1 else np.concatenate(ctxs)
            x = x + mm(ctx.reshape(-1, c.d_model), wo)
            x = x + mm(gelu(mm(rmsnorm(x, ffn_norm), w1)), w2)
        for cache, *_ in parts:
            cache.length += T
        ck = self.checkpoint
        return mm(rmsnorm(x, ck["final_norm"]), ck["output"])
