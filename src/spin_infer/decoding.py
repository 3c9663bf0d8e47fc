"""Token selection strategies and stopping logic on top of the engine.

Greedy, nucleus and beam search share one loop over live hypotheses. Each
step expands every live hypothesis into children, best first, as
(score, parent index, token): greedy takes the argmax, nucleus draws one
token from the seeded splitmix64 stream (so sequences are reproducible),
and beam takes each hypothesis' top `beam_width` tokens by log-probability.
Every eos child finishes; at most `width` other children stay live (width
is 1 for greedy and nucleus). At max_new_tokens the live children finish
without a step. Live hypotheses all have the same length, so a step that
would overflow the context finishes all of them and sets `truncated`. The
result is the finished sequence with the best length-normalized score,
earliest first on ties.

Live hypothesis i is stream i of one KV cache of `width` streams: each
step `KvCache.select`s the kept children's parents, then runs one batched
`Engine.step` over all live hypotheses; `decode` yields that step, so
requests can share one `Engine.step_many`. A caller may pass a cache that
already holds the prompt's first rows; prefill then processes only the
rest, and on return the cache is truncated back to the prompt's end, so
it holds exactly this prompt's rows for the caller's next request.

The repetition penalty applies to generated tokens only (never to prompt
tokens) with the sign-dependent divide/multiply convention. Non-finite
logits from prefill or a step raise DataError.
"""

from __future__ import annotations

import time
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .engine import Engine, KvCache, MaskPolicy, MultimodalPrompt
from .errors import ConfigError, DataError
from .prng import SplitMix64

DECODE_STRATEGIES = ("greedy", "beam", "nucleus")


@dataclass(frozen=True)
class DecodeConfig:
    strategy: str = "greedy"
    beam_width: int = 5
    nucleus_p: float = 0.9
    repetition_penalty: float = 1.0
    max_new_tokens: int = 32
    eos_id: int | None = 0
    seed: int = 0

    @property
    def n_streams(self) -> int:
        """KV cache streams a request needs: one per live hypothesis."""
        return self.beam_width if self.strategy == "beam" else 1

    def __post_init__(self):
        if self.strategy not in DECODE_STRATEGIES:
            raise ConfigError(f"decode.strategy must be one of {DECODE_STRATEGIES}, got {self.strategy!r}")
        if self.beam_width < 1:
            raise ConfigError(f"decode.beam_width must be >= 1, got {self.beam_width}")
        if not 0.0 < self.nucleus_p <= 1.0:
            raise ConfigError(f"decode.nucleus_p must be in (0, 1], got {self.nucleus_p}")
        if self.repetition_penalty < 1.0:
            raise ConfigError(f"decode.repetition_penalty must be >= 1, got {self.repetition_penalty}")
        if self.max_new_tokens < 1:
            raise ConfigError(f"decode.max_new_tokens must be >= 1, got {self.max_new_tokens}")


@dataclass
class GenerationResult:
    token_ids: list[int]
    text: str = ""
    prefill_latency: float = 0.0
    decode_latency: float = 0.0
    truncated: bool = False
    ended_at_eos: bool = False
    beam_step_scores: list[list[float]] | None = None

    @property
    def n_new_tokens(self) -> int:
        return len(self.token_ids)


def apply_repetition_penalty(logits: np.ndarray, context_ids, penalty: float) -> np.ndarray:
    """Penalize tokens already present in the generated context.

    For each context id: z -> z/penalty if z > 0 else z*penalty. Other
    logits are untouched; penalty 1.0 is an exact no-op.
    """
    if penalty == 1.0 or not len(context_ids):
        return logits
    out = logits.copy()
    idx = np.unique(np.asarray(list(context_ids), dtype=np.int64))
    z = out[idx]
    out[idx] = np.where(z > 0, z / np.float32(penalty), z * np.float32(penalty))
    return out


def _log_softmax64(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.float64)
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def _nucleus_pick(logits: np.ndarray, p: float, rng: SplitMix64) -> int:
    """Sample from the smallest top-probability set with cumulative mass >= p."""
    z = logits.astype(np.float64)
    z -= z.max()
    e = np.exp(z)
    probs = e / e.sum()
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    m = int(np.searchsorted(csum, p, side="left")) + 1
    m = min(m, len(order))
    sel = order[:m]
    q = probs[sel]
    q = q / q.sum()
    u = rng.uniform()
    j = int(np.searchsorted(np.cumsum(q), u, side="right"))
    return int(sel[min(j, m - 1)])


def _finite(logits: np.ndarray, position: int) -> np.ndarray:
    if not np.isfinite(logits).all():
        raise DataError(f"non-finite logits (NaN or inf) at position {position}")
    return logits


def generate(
    engine: Engine,
    prompt: MultimodalPrompt,
    config: DecodeConfig,
    policy: MaskPolicy | None = None,
    token_table=None,
    cache: KvCache | None = None,
) -> GenerationResult:
    """Decode one prompt with `config.strategy`; fills `text` when a token
    table is supplied. `cache`, if given, holds rows [0, cache.length) of
    `prompt` and is left holding rows [0, len(prompt)); `prefill_latency`
    counts only the rows it lacked."""
    steps, logits = decode(engine, prompt, config, policy, token_table, cache), None
    try:
        while True:
            logits = engine.step(*steps.send(logits))
    except StopIteration as done:
        return done.value


def decode(engine: Engine, prompt: MultimodalPrompt, config: DecodeConfig, policy: MaskPolicy | None = None,
           token_table=None, cache: KvCache | None = None) -> Generator[tuple, np.ndarray, GenerationResult]:
    """`generate` yielding each step's `Engine.step` arguments and taking its logits by `send`. A step that
    would overflow the context sets `truncated` instead. `decode_latency` includes all of each shared step."""
    beam = config.strategy == "beam"
    width = config.n_streams
    if cache is None:
        cache = engine.new_cache(width)
    elif cache.n_streams < width:
        raise ConfigError(f"cache has {cache.n_streams} stream(s), fewer than beam_width {width}")
    rng = SplitMix64(config.seed)
    layout = prompt.layout()
    t0 = time.perf_counter()
    logits = _finite(engine.prefill(prompt, cache, policy), len(prompt) - 1)[None]
    prefill_s = time.perf_counter() - t0

    live: list[tuple[float, int, list[int]]] = [(0.0, 0, [])]  # (score, parent, tokens) of stream i
    finished: list[tuple[float, int, list[int], bool]] = []  # (norm_score, order, tokens, at_eos)
    step_scores: list[list[float]] = []
    truncated = False
    loop_start = time.perf_counter()

    for step in range(1, config.max_new_tokens + 1):
        children: list[tuple[float, int, int]] = []  # (score, parent index, token)
        for i, (score, _, tokens) in enumerate(live):
            z = apply_repetition_penalty(logits[i], tokens, config.repetition_penalty)
            if beam:
                logp = _log_softmax64(z)
                top = np.argsort(-logp, kind="stable")[:width]
                children += [(score + float(logp[t]), i, int(t)) for t in top]
            elif config.strategy == "greedy":
                children.append((score, i, int(z.argmax())))  # ties go to the lowest token id
            else:
                children.append((score, i, _nucleus_pick(z, config.nucleus_p, rng)))
        children.sort(key=lambda c: (-c[0], c[1], c[2]))

        kept: list[tuple[float, int, list[int]]] = []
        for score, i, tok in children:
            seq = live[i][2] + [tok]
            if tok == config.eos_id:
                finished.append((score / len(seq), len(finished), seq, True))
            elif len(kept) < width:
                kept.append((score, i, seq))
        if beam:
            step_scores.append([score for score, _, _ in kept])

        live = kept
        if live and step < config.max_new_tokens:
            cache.select([i for _, i, _ in live])
            if cache.length < engine.config.max_seq_len:
                z = yield [seq[-1] for _, _, seq in live], cache, layout, policy
                logits = _finite(z, layout.prompt_len + step - 1)
            else:
                truncated = True
        if truncated or step == config.max_new_tokens:
            for score, _, seq in live:
                finished.append((score / len(seq), len(finished), seq, False))
            live = []
        if not live:
            break

    decode_s = time.perf_counter() - loop_start
    cache.truncate(len(prompt))
    _, _, best, at_eos = min(finished, key=lambda f: (-f[0], f[1]))
    result = GenerationResult(
        token_ids=best,
        prefill_latency=prefill_s,
        decode_latency=decode_s,
        truncated=truncated,
        ended_at_eos=at_eos,
        beam_step_scores=step_scores if beam else None,
    )
    if token_table is not None:
        result.text = token_table.decode(best)
    return result
