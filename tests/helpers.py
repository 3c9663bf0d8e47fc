"""Shared builders for tiny engines, rigged checkpoints and stub engines,
plus the plain reference implementations that tests compare the engine and
the SPIN policy against."""

from __future__ import annotations

import copy
import io
import tracemalloc
from dataclasses import replace

import numpy as np

from spin_infer import __version__
from spin_infer.decoding import DecodeConfig, _log_softmax64, apply_repetition_penalty, generate
from spin_infer.engine import ROPE_BASE, Engine, KvCache, MultimodalPrompt
from spin_infer.errors import ConfigError, ContextOverflowError, DataError, SpinInferError
from spin_infer.metrics import CaptionRecord, chair_scores, pope_eval
from spin_infer.model import Checkpoint, ModelConfig, init_checkpoint
from spin_infer.prng import SplitMix64, derive_seed
from spin_infer.runner import REPORT_NOTES
from spin_infer.spin import MaskTraceWriter, SpinConfig, SpinPolicy, kept_count


def tiny_config(**kw) -> ModelConfig:
    base = dict(n_layers=2, n_heads=4, d_model=32, d_ffn=48, vocab_size=64, max_seq_len=96)
    base.update(kw)
    return ModelConfig(**base)


def tiny_engine(seed: int = 0, **kw) -> Engine:
    return Engine(init_checkpoint(tiny_config(**kw), seed))


def random_prompt(seed: int, config: ModelConfig, n_prefix=2, n_vision=4, n_suffix=3) -> MultimodalPrompt:
    rng = SplitMix64(seed)
    prefix = [rng.choice(config.vocab_size) for _ in range(n_prefix)]
    suffix = [rng.choice(config.vocab_size) for _ in range(n_suffix)]
    vision = (2.0 * rng.uniforms(n_vision * config.d_model) - 1.0).reshape(n_vision, config.d_model)
    return MultimodalPrompt(prefix, vision.astype(np.float32), suffix)


def mutated(ck: Checkpoint, edits: dict[str, np.ndarray]) -> Checkpoint:
    """Copy of a checkpoint with some tensors replaced (rigged test models),
    built in one buffer in table order like a loaded one."""
    parts = []
    for name, t in ck.tensors.items():
        new = np.asarray(edits.get(name, t), dtype=np.float32)
        assert new.shape == t.shape, f"edit of {name} has shape {new.shape}, expected {t.shape}"
        parts.append(new.ravel())
    return Checkpoint(ck.config, np.concatenate(parts))


def traced_peak(fn) -> int:
    """Peak bytes `tracemalloc` traces above the starting level while fn() runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def layer_lengths(cache: KvCache) -> tuple[int, ...]:
    """Rows cached per layer: the cache's one length, for each layer."""
    return (cache.length,) * cache.kv.shape[1]


def copy_cache(cache: KvCache) -> KvCache:
    """Independent copy of a cache, for plain-path references that branch by copying."""
    return copy.deepcopy(cache)


# Plain formulas the engine's fast paths must match bit for bit: allocating,
# one op per expression, and q, k, v from three separate matmuls.


def ref_rmsnorm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return (x / np.sqrt(ms + np.float32(eps))) * gain


def ref_gelu(x: np.ndarray) -> np.ndarray:
    c = np.float32(0.7978845608028654)  # sqrt(2/pi)
    return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x)))


def ref_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_rope_tables(d_head: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables (T, 1, d_head // 2) for rows at `positions`."""
    j = np.arange(d_head // 2, dtype=np.float64)
    inv_freq = (ROPE_BASE ** (-2.0 * j / d_head)).astype(np.float32)
    ang = positions.astype(np.float32)[:, None] * inv_freq[None, :]
    return np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]


def ref_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate (T, H, dk) by the tables' positions; odd trailing dim passes through."""
    half = cos.shape[-1]
    if half == 0:
        return x
    x1 = x[..., :half]
    x2 = x[..., half : 2 * half]
    out = x.copy()
    out[..., :half] = x1 * cos - x2 * sin
    out[..., half : 2 * half] = x2 * cos + x1 * sin
    return out


def ref_qkv(engine: Engine, layer: int, h: np.ndarray, cos, sin):
    """Rotated q, k and plain v (T, H, dk) of normed rows h (T, d_model)."""
    c, ck = engine.config, engine.checkpoint
    shape = (len(h), c.n_heads, c.d_head)
    q = ref_rope((h @ ck.layer(layer, "wq")).reshape(shape), cos, sin)
    k = ref_rope((h @ ck.layer(layer, "wk")).reshape(shape), cos, sin)
    return q, k, (h @ ck.layer(layer, "wv")).reshape(shape)


def ref_block_out(engine: Engine, layer: int, x: np.ndarray, ctx: np.ndarray) -> np.ndarray:
    """Residual stream after layer's output projection of ctx and its FFN."""
    ck = engine.checkpoint
    x = x + ctx @ ck.layer(layer, "wo")
    return x + ref_gelu(ref_rmsnorm(x, ck.layer(layer, "ffn_norm")) @ ck.layer(layer, "w1")) @ ck.layer(layer, "w2")


def ref_logits(engine: Engine, x: np.ndarray) -> np.ndarray:
    ck = engine.checkpoint
    return ref_rmsnorm(x, ck["final_norm"]) @ ck["output"]


def ref_append(cache: KvCache, layer: int, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Write rows k, v (T, H, dk) of stream 0 after the cache's `length`; returns the layer's keys and values (2, 1, H, S, dk)."""
    S = cache.length + len(k)
    cache.kv[:, layer, 0, :, cache.length : S] = np.stack([k, v]).transpose(0, 2, 1, 3)
    return cache.kv[:, layer, :1, :, :S]


def build_mask(scores: np.ndarray, config: SpinConfig, layer: int) -> np.ndarray:
    """Per-head multipliers for one layer from scores (..., H), one mask
    row per score row. `layer` is 1-indexed. Outside the configured layer
    range the mask is all ones; inside it the K highest-scoring heads of
    each row (ties to the lower head index) get exactly 1 and the rest
    exactly alpha."""
    scores = np.asarray(scores)
    if not config.layer_lo <= layer <= config.layer_hi:
        return np.ones(scores.shape, dtype=np.float32)
    ranks = (-scores).argsort(axis=-1, kind="stable").argsort(axis=-1)
    return np.where(ranks < kept_count(config.r, scores.shape[-1]), np.float32(1.0), np.float32(config.alpha))


def reference_step(engine: Engine, x, cache: KvCache, position: int):
    """One decode step of plain multi-head attention with no masking code
    path, written out for a single input row x (d_model,) with the plain
    formulas above; the logits (vocab,) must agree with the engine's bit
    for bit."""
    c = engine.config
    ck = engine.checkpoint
    cos, sin = ref_rope_tables(c.d_head, np.array([position]))
    for layer in range(c.n_layers):
        q, k, v = ref_qkv(engine, layer, ref_rmsnorm(x, ck.layer(layer, "attn_norm"))[None], cos, sin)
        K, V = ref_append(cache, layer, k, v)
        w = ref_softmax(np.matmul(q.transpose(1, 0, 2), K[0].transpose(0, 2, 1)) * engine._inv_sqrt_dk)
        ctx = np.matmul(w, V[0])  # (H, 1, dk)
        x = ref_block_out(engine, layer, x, ctx.reshape(c.d_model))
    cache.length += 1
    return ref_logits(engine, x)


def reference_prefill(engine: Engine, prompt: MultimodalPrompt, cache: KvCache, policy=None):
    """Prefill of the prompt rows a one-stream cache lacks, with the plain
    formulas above and the allocating score formula: scale by
    multiplication, mask future keys by boolean indexing, then
    exp(z - max) / sum in fresh arrays. The logits (T, vocab) must agree
    with the engine's bit for bit."""
    c = engine.config
    ck = engine.checkpoint
    H, dk = c.n_heads, c.d_head
    base, n = cache.length, len(prompt)
    T = n - base
    positions = np.arange(base, n)
    future = np.arange(n)[None, :] > positions[:, None]
    cos, sin = ref_rope_tables(dk, positions)
    x = engine.embed_prompt(prompt, base)
    for layer in range(c.n_layers):
        q, k, v = ref_qkv(engine, layer, ref_rmsnorm(x, ck.layer(layer, "attn_norm")), cos, sin)
        K, V = ref_append(cache, layer, k, v)
        raw = np.matmul(q[None].transpose(0, 2, 1, 3), K.transpose(0, 1, 3, 2))
        masks = None if policy is None else policy(layer, q, K, raw, positions, prompt.layout())
        z = raw * engine._inv_sqrt_dk
        z[:, :, future] = -np.inf
        w = ref_softmax(z)
        ctx = np.matmul(w, V).transpose(0, 2, 1, 3).reshape(T, H, dk)
        if masks is not None:
            ctx = ctx * masks[:, :, None]
        x = ref_block_out(engine, layer, x, ctx.reshape(T, c.d_model))
    cache.length = n
    return ref_logits(engine, x)


def hook_args(q: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (keys, logits) a mask policy gets for query rows q (B*T, H, dk)
    over keys (B, H, S, dk): the keys and their unscaled q.K^T (B, H, T, S)."""
    B, (_, H, dk) = len(keys), q.shape
    return keys, np.matmul(q.reshape(B, -1, H, dk).transpose(0, 2, 1, 3), keys.transpose(0, 1, 3, 2))


def reference_beam(engine: Engine, prompt: MultimodalPrompt, config: DecodeConfig, policy=None):
    """Beam search on the plain path: every hypothesis owns a one-stream
    cache, copied from its parent's, and steps it alone (B = 1). Returns
    (token_ids, step scores, ended_at_eos, truncated)."""
    width = config.beam_width
    layout = prompt.layout()
    cache = engine.new_cache()
    live = [([], 0.0, cache, engine.prefill(prompt, cache, policy))]  # (tokens, score, cache, logits)
    finished, step_scores, truncated = [], [], False
    for step in range(1, config.max_new_tokens + 1):
        children = []
        for i, (tokens, score, _, z) in enumerate(live):
            logp = _log_softmax64(apply_repetition_penalty(z, tokens, config.repetition_penalty))
            children += [(score + float(logp[t]), i, int(t)) for t in np.argsort(-logp, kind="stable")[:width]]
        children.sort(key=lambda c: (-c[0], c[1], c[2]))
        kept = []
        for score, i, tok in children:
            seq = live[i][0] + [tok]
            if tok == config.eos_id:
                finished.append((score / len(seq), len(finished), seq, True))
            elif len(kept) < width:
                kept.append((score, i, seq))
        step_scores.append([score for score, _, _ in kept])
        new_live = []
        for score, i, seq in kept:
            if step < config.max_new_tokens:
                child = copy_cache(live[i][2])
                try:
                    new_live.append((seq, score, child, engine.step([seq[-1]], child, layout, policy)[0]))
                    continue
                except ContextOverflowError:
                    truncated = True
            finished.append((score / len(seq), len(finished), seq, False))
        live = new_live
        if not live:
            break
    _, _, best, at_eos = min(finished, key=lambda f: (-f[0], f[1]))
    return best, step_scores, at_eos, truncated


def build_multiturn_context(base_prompt: MultimodalPrompt, prior_turns: list[tuple[list[int], list[int]]],
                            next_question: list[int]) -> MultimodalPrompt:
    """Prompt for the next POPE turn, rebuilt from scratch: base context, then
    every prior (question, answer) pair in order, then the next question."""
    extra: list[int] = []
    for q_ids, a_ids in prior_turns:
        extra.extend(q_ids)
        extra.extend(a_ids)
    extra.extend(next_question)
    return base_prompt.extended(extra)


def reference_eval_record(engine: Engine, record, cfg, table, policy=None):
    """One record's caption and POPE turns on the plain path: every request
    gets a new cache and prefills its whole prompt. Returns (prompts,
    token id lists, skipped POPE items), caption first."""
    ev = cfg.eval
    base = MultimodalPrompt([], record.vision, record.prompt_ids)
    dcfg = replace(cfg.decode, seed=derive_seed(cfg.decode.seed, record.record_id))
    prompts, outs = [base], [generate(engine, base, dcfg, policy).token_ids]
    turns = []
    for j, item in enumerate(record.pope if ev.pope else []):
        q_ids = table.encode_text(item.question())
        prompt = build_multiturn_context(base, turns if ev.pope_mode == "multi_turn" else [], q_ids)
        pcfg = replace(cfg.decode, seed=derive_seed(cfg.decode.seed, record.record_id, "pope", j),
                       max_new_tokens=ev.pope_max_new_tokens)
        try:
            ids = generate(engine, prompt, pcfg, policy).token_ids
        except ContextOverflowError:
            return prompts, outs, len(record.pope) - j
        prompts.append(prompt)
        outs.append(ids)
        turns.append((q_ids, [t for t in ids if t != table.eos_id]))
    return prompts, outs, 0


def reference_eval(cfg, inputs) -> tuple[dict, str]:
    """The eval one record at a time, one `generate` per request, each
    record's requests sharing one full-length cache. Returns the report less
    timing, throughput and config, and the mask trace text."""
    engine, records, vocab, table = inputs
    ev, mc = cfg.eval, engine.config
    fh = io.StringIO()
    policy = None
    if cfg.spin:
        policy = SpinPolicy(cfg.spin, mc.n_layers, mc.n_heads, MaskTraceWriter(fh, mc.n_layers, mc.n_heads, cfg.spin))
    generations, failures, captions, answered = {}, {}, [], []
    skipped = caption_length = 0
    for rec in records:
        try:
            base = MultimodalPrompt([], rec.vision, rec.prompt_ids)
            cache = engine.new_cache(cfg.decode.n_streams)
            dcfg = replace(cfg.decode, seed=derive_seed(cfg.decode.seed, rec.record_id))
            caption = generate(engine, base, dcfg, policy, table, cache)
            answers, items, turns, rec_skipped = [], [], [], 0
            for j, item in enumerate(rec.pope if ev.pope else []):
                q_ids = table.encode_text(item.question())
                prior = turns if ev.pope_mode == "multi_turn" else []
                if not prior:
                    cache.truncate(len(base))
                pcfg = replace(cfg.decode, seed=derive_seed(cfg.decode.seed, rec.record_id, "pope", j),
                               max_new_tokens=ev.pope_max_new_tokens)
                try:
                    res = generate(engine, build_multiturn_context(base, prior, q_ids), pcfg, policy, table, cache)
                except ContextOverflowError:
                    rec_skipped = len(rec.pope) - j
                    break
                answers.append(res.token_ids)
                items.append(replace(item, answer=res.text))
                turns.append((q_ids, [t for t in res.token_ids if t != table.eos_id]))
        except SpinInferError as e:
            failures[rec.record_id] = f"{type(e).__name__}: {e}"
            continue
        generations[rec.record_id] = {"caption": caption.token_ids, "pope": answers}
        captions.append(CaptionRecord(rec.record_id, caption.text, frozenset(rec.gt_objects)))
        caption_length += len(caption.token_ids) - caption.ended_at_eos
        answered += items
        skipped += rec_skipped
    report = {
        "version": __version__,
        "metrics": {
            "chair": chair_scores(captions, vocab).to_dict() if ev.chair else None,
            "pope": pope_eval(answered).to_dict() if ev.pope and answered else None,
            "mean_caption_length": caption_length / len(generations) if ev.chair else None,
            "n_records": len(generations),
            "n_failed_records": len(failures),
            "notes": list(REPORT_NOTES),
        },
        "generations": generations,
        "failures": failures,
        "pope_skipped": skipped,
    }
    return report, fh.getvalue()


def reference_tune(eval_fn, n_layers, r_grid, alpha_grid, layer_grids, f1_drop_limit, tradeoff_lambda) -> dict:
    """`tune_three_stage(...).to_dict()`, written stage by stage from its
    docstring with one plain loop per selection: a later entry wins only
    when it is strictly lower, so ties go to the earliest."""

    def metrics(cfg):
        m = eval_fn(cfg)
        return {"c_s": float(m["c_s"]), "f1": float(m["f1"])}

    def earliest_lowest(indices, value):
        best = indices[0]
        for i in indices[1:]:
            if value(i) < value(best):
                best = i
        return best

    def entry(cfg, m, objective=None, satisfies_constraint=None):
        return {"config": cfg.to_dict(), "metrics": m, "objective": objective,
                "satisfies_constraint": satisfies_constraint}

    baseline = metrics(None)

    # stage 1: r with alpha 0 over all layers; the lowest C_s within the F1 drop limit, else the smallest drop
    entries1 = []
    for r in r_grid:
        cfg = SpinConfig(r=r, alpha=0.0, layer_lo=1, layer_hi=n_layers)
        m = metrics(cfg)
        drop = baseline["f1"] - m["f1"]
        entries1.append(entry(cfg, {**m, "f1_drop": drop}, satisfies_constraint=drop <= f1_drop_limit))
    within = [i for i, e in enumerate(entries1) if e["satisfies_constraint"]]
    if within:
        sel1 = earliest_lowest(within, lambda i: entries1[i]["metrics"]["c_s"])
    else:
        sel1 = earliest_lowest(list(range(len(entries1))), lambda i: entries1[i]["metrics"]["f1_drop"])
    r_sel = r_grid[sel1]

    # stage 2: layer ranges at that r, for minimal C_s
    entries2 = []
    for lo, hi in layer_grids:
        cfg = SpinConfig(r=r_sel, alpha=0.0, layer_lo=lo, layer_hi=hi)
        entries2.append(entry(cfg, metrics(cfg)))
    sel2 = earliest_lowest(list(range(len(entries2))), lambda i: entries2[i]["metrics"]["c_s"])
    lo_sel, hi_sel = layer_grids[sel2]

    # stage 3: alpha at that r and range, minimizing C_s + lambda * (baseline F1 - F1)
    entries3 = []
    for alpha in alpha_grid:
        cfg = SpinConfig(r=r_sel, alpha=alpha, layer_lo=lo_sel, layer_hi=hi_sel)
        m = metrics(cfg)
        entries3.append(entry(cfg, m, objective=m["c_s"] + tradeoff_lambda * (baseline["f1"] - m["f1"])))
    sel3 = earliest_lowest(list(range(len(entries3))), lambda i: entries3[i]["objective"])

    stages = [
        {"name": "suppression_ratio", "entries": entries1, "selected_index": sel1},
        {"name": "layer_range", "entries": entries2, "selected_index": sel2},
        {"name": "suppression_factor", "entries": entries3, "selected_index": sel3},
    ]
    return {"baseline": baseline, "stages": stages, "selected": entries3[sel3]["config"],
            "f1_drop_limit": f1_drop_limit, "tradeoff_lambda": tradeoff_lambda}


def top_k_heads(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores; ties keep the lower head index."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return np.sort(order[:k])


def score_heads_image_attention(
    q: np.ndarray, keys: np.ndarray, i_start: int, i_end: int
) -> np.ndarray:
    """Per-head cumulated query-to-vision-key logit mass.

    q is (H, d_head) for one query token, keys is (H, S, d_head) covering
    the cached context; the score of head i is sum_j q_i . k_ij over the
    vision span only, with no softmax and no 1/sqrt(d_k) scaling.
    """
    if keys.shape[1] < i_end:
        raise DataError(f"vision span end {i_end} outside cached context of {keys.shape[1]} rows")
    if not 0 <= i_start < i_end:
        raise DataError(f"bad vision span [{i_start}, {i_end})")
    kv = keys[:, i_start:i_end]  # (H, Nv, dk)
    return np.einsum("hd,hsd->h", q, kv.astype(np.float32))


def score_heads_alternative(strategy: str, q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Norm- and total-attention alternatives to image-attention ranking."""
    if strategy == "query_norm":
        return np.sqrt(np.sum(np.square(q), axis=-1))
    if strategy == "key_norm":
        norms = np.sqrt(np.sum(np.square(keys), axis=-1))  # (H, S)
        return norms.mean(axis=1)
    if strategy == "total_attention":
        return np.einsum("hd,hsd->h", q, keys)
    raise ConfigError(f"unknown head scoring strategy {strategy!r}")


def uniform_attention_checkpoint(config: ModelConfig, seed: int = 0) -> Checkpoint:
    """Zero query projections everywhere: every attention row is uniform."""
    ck = init_checkpoint(config, seed)
    edits = {f"layers.{i}.wq": np.zeros((config.d_model, config.d_model), np.float32)
             for i in range(config.n_layers)}
    return mutated(ck, edits)


def planted_checkpoint(
    seed: int = 0,
    n_heads: int = 8,
    d_head: int = 8,
    n_layers: int = 2,
    vocab: int = 48,
    max_seq_len: int = 192,
    planted_heads: tuple[int, ...] = (5, 6),
    bait_head: int = 7,
):
    """Checkpoint where `planted_heads` of layer 1 always carry the largest
    query-to-vision-key dot products (for e1-aligned vision embeddings),
    while `bait_head` dominates the query-norm and key-norm rankings.

    Construction: vision embeddings proportional to e1 normalize to a pure
    e1 direction, so zeroing row 0 of wk for a head makes its vision keys
    exactly zero. The planted heads read a forced-positive embedding
    component through the slowest-rotating rope pair, which keeps their
    scores strictly positive at every position.
    """
    d = n_heads * d_head
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads, d_model=d, d_ffn=2 * d,
                         vocab_size=vocab, max_seq_len=max_seq_len)
    ck = init_checkpoint(config, seed)
    emb = ck["embedding"].copy()
    emb[:, 2] = np.abs(emb[:, 2]) + 0.5
    wq = ck.layer(0, "wq").copy()
    wk = ck.layer(0, "wk").copy()
    half = d_head // 2
    for h in planted_heads:
        a = h * d_head + half - 1  # slowest-rotating rope pair: dims (half-1, d_head-1)
        b = h * d_head + d_head - 1
        wq[:, h * d_head : (h + 1) * d_head] = 0.0
        wk[:, h * d_head : (h + 1) * d_head] = 0.0
        wq[2, a] = wq[2, b] = 1.0
        wk[0, a] = wk[0, b] = 1.0
    for h in range(n_heads):
        if h not in planted_heads:
            wk[0, h * d_head : (h + 1) * d_head] = 0.0
    sl = slice(bait_head * d_head, (bait_head + 1) * d_head)
    wq[:, sl] *= 50.0
    wk[1:, sl] *= 50.0
    rigged = mutated(ck, {"embedding": emb, "layers.0.wq": wq, "layers.0.wk": wk})
    return rigged, config


def e1_vision(n_vision: int, d_model: int, scale: float = 0.5) -> np.ndarray:
    v = np.zeros((n_vision, d_model), dtype=np.float32)
    v[:, 0] = scale + 0.01 * np.arange(n_vision)  # rmsnorm maps every row to the same direction
    return v


class StubCache:
    def __init__(self, length: int = 0):
        self.length = length

    def select(self, parents):
        pass

    def truncate(self, n):
        self.length = min(self.length, n)


class StubConfig:
    def __init__(self, vocab_size: int, max_seq_len: int = 10_000):
        self.vocab_size = vocab_size
        self.max_seq_len = max_seq_len


class StubEngine:
    """Duck-typed engine with scripted logits for decode tests.

    `first` is the prefill logits row; `after` maps a fed token id to the
    next logits row (missing ids fall back to `first`).
    """

    def __init__(self, first, after: dict[int, np.ndarray] | None = None):
        self.first = np.asarray(first, dtype=np.float32)
        self.after = {k: np.asarray(v, dtype=np.float32) for k, v in (after or {}).items()}
        self.config = StubConfig(vocab_size=len(self.first))

    def new_cache(self, n_streams: int = 1):
        return StubCache()

    def prefill(self, prompt, cache, policy=None, return_all_logits=False):
        cache.length = len(prompt)
        return self.first

    def step(self, tokens, cache, layout, policy=None):
        cache.length += 1
        return np.stack([self.after.get(int(t), self.first) for t in tokens])


def stub_prompt(d_model: int = 4) -> MultimodalPrompt:
    return MultimodalPrompt([], np.zeros((1, d_model), np.float32), [])
