"""End-to-end evaluation: generate over a corpus, score, and write reports.

IN_FLIGHT records decode together, one `Engine.step_many` per token, bitwise
as if each ran alone; every record derives its own seed from (run seed,
record id), so batching and record order never change its outputs. A record
holds a slot of one KV pool (`KvCache.slot`) from its start to its end or
failure, and a step lists its requests in slot order, so records at one
point attend as one group. Reports embed the exact resolved RunConfig plus
all generated token ids, which makes every report re-runnable.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import replace
from typing import Generator, NamedTuple

from . import __version__
from .config import RunConfig
from .corpus import CorpusRecord, TokenTable, load_corpus
from .decoding import GenerationResult, decode
from .engine import Engine, KvCache, MultimodalPrompt
from .errors import ConfigError, ContextOverflowError, DataError, SpinInferError
from .metrics import (
    CaptionRecord,
    ObjectVocabulary,
    PopeItem,
    caption_words,
    chair_scores,
    pope_eval,
)
from .model import init_checkpoint, load_checkpoint
from .prng import derive_seed
from .spin import MaskTraceWriter, SpinConfig, SpinPolicy

log = logging.getLogger("spin_infer")

# Records decoded together: more run faster in groups, but each slot adds 0.29 MB multi-turn, 0.18 MB single-turn (README)
IN_FLIGHT = 5

REPORT_NOTES = [
    "chair.c_s counts captions containing at least one hallucinated object (per-caption, "
    "not per-sentence).",
    "chair.f1 is micro-averaged set precision/recall over records.",
]


def build_engine(cfg: RunConfig) -> Engine:
    if cfg.model.checkpoint is not None:
        return Engine(load_checkpoint(cfg.model.checkpoint))
    return Engine(init_checkpoint(cfg.model.init.config, cfg.model.init.seed))


class EvalInputs(NamedTuple):
    engine: Engine
    records: list[CorpusRecord]
    vocab: ObjectVocabulary
    table: TokenTable


def load_eval_inputs(cfg: RunConfig, command: str) -> EvalInputs:
    """What `eval`, `profile`, `tune` and `generate` read before their first
    record: the engine, the first `eval.max_records` corpus records, the
    object vocabulary and the token table, checked against the model."""
    if cfg.eval is None:
        raise ConfigError(f"eval: section missing (required by {command})")
    engine = build_engine(cfg)
    mc = engine.config
    records = load_corpus(cfg.eval.corpus)[: cfg.eval.max_records]
    vocab = ObjectVocabulary.from_tsv(cfg.eval.vocab)
    table = TokenTable.load(cfg.eval.tokens)
    if len(table) != mc.vocab_size:
        raise ConfigError(
            f"eval.tokens: table size {len(table)} != model vocab_size {mc.vocab_size}"
        )
    for rec in records:
        if rec.vision.shape[1] != mc.d_model:
            raise DataError(
                f"record {rec.record_id}: vision dim {rec.vision.shape[1]} != d_model {mc.d_model}"
            )
    return EvalInputs(engine, records, vocab, table)


def build_policy(cfg: RunConfig, engine: Engine, write_trace: bool = True) -> SpinPolicy | None:
    """The run's SPIN policy, None without a `spin` section. With
    `write_trace` and `output.trace_masks` set, it traces to that file."""
    if cfg.spin is None:
        return None
    mc = engine.config
    # the policy validates the layer range before the trace file is created
    policy = SpinPolicy(cfg.spin, mc.n_layers, mc.n_heads)
    if write_trace and cfg.output.trace_masks:
        fh = open(cfg.output.trace_masks, "w", encoding="utf-8")
        policy.trace = MaskTraceWriter(fh, mc.n_layers, mc.n_heads, cfg.spin)
    return policy


def _eval_record(engine: Engine, record: CorpusRecord, cfg: RunConfig, table: TokenTable, policy: SpinPolicy | None,
                 cache: KvCache
                 ) -> Generator[tuple, object, tuple[list[GenerationResult], CaptionRecord | None, list[PopeItem], int]]:
    """Caption, then one POPE answer per item, yielding `decode`'s steps.
    Returns every result (caption first), the caption's CaptionRecord (None
    without CHAIR), the answered POPE items and how many items a context
    overflow skipped.

    The record's requests share `cache`. Each request leaves it holding
    its prompt's rows, and every POPE prompt extends the base prompt (and,
    multi-turn, the last turn's prompt and answer), so a turn prefills only
    the rows its prompt adds."""
    ev = cfg.eval
    base_prompt = MultimodalPrompt([], record.vision, record.prompt_ids)
    items = record.pope if ev.pope else []

    # the caption is always generated: it feeds throughput even without CHAIR
    dcfg = replace(cfg.decode, seed=derive_seed(cfg.decode.seed, record.record_id))
    caption = yield from decode(engine, base_prompt, dcfg, policy, token_table=table, cache=cache)
    results = [caption]
    caption_record = (
        CaptionRecord(record.record_id, caption.text, frozenset(record.gt_objects)) if ev.chair else None
    )

    answered: list[PopeItem] = []
    skipped = 0
    extra: list[int] = []  # multi-turn: every earlier question and its answer, eos removed
    for j, item in enumerate(items):
        q_ids = table.encode_text(item.question())
        cache.truncate(len(base_prompt) + len(extra))  # single-turn: back to the base prompt; multi-turn: a no-op
        pcfg = replace(
            cfg.decode,
            seed=derive_seed(cfg.decode.seed, record.record_id, "pope", j),
            max_new_tokens=ev.pope_max_new_tokens,
        )
        try:
            res = yield from decode(engine, base_prompt.extended(extra + q_ids), pcfg, policy, token_table=table,
                                    cache=cache)
        except ContextOverflowError:
            skipped = len(record.pope) - j
            log.warning(
                "record %s: context overflow at pope turn %d; skipping %d items",
                record.record_id, j + 1, skipped,
            )
            break
        results.append(res)
        answered.append(replace(item, answer=res.text))
        if ev.pope_mode == "multi_turn":
            extra += q_ids + [t for t in res.token_ids if t != table.eos_id]
    return results, caption_record, answered, skipped


def run_eval(cfg: RunConfig, write_outputs: bool = True, inputs: EvalInputs | None = None) -> dict:
    """Execute the configured evaluation and return the report dict.

    `inputs` from `load_eval_inputs(cfg, ...)` saves reading them again.
    """
    engine, records, vocab, table = load_eval_inputs(cfg, "eval") if inputs is None else inputs
    mc = engine.config
    ev = cfg.eval

    policy = build_policy(cfg, engine, write_outputs)
    trace = policy and policy.trace  # when set, each record traces through its own policy into a buffer

    t_start = time.perf_counter()
    outcome: list = [None] * len(records)  # per record: what _eval_record returned, or its error
    inflight: dict[int, tuple] = {}  # record index -> (its _eval_record generator, its slot, its start, its step request)
    buffers: dict[int, MaskTraceWriter] = {}  # record index -> its trace lines until committed
    n = cfg.decode.n_streams  # per slot of the KV pool: one slot a record in flight, as long as the longest reach
    turns = sum if ev.pope_mode == "multi_turn" else max  # a single turn truncates the slot back to the prompt
    reach = [len(r.prompt_ids) + len(r.vision) + max(cfg.decode.max_new_tokens, turns([0] + [  # prompt, caption or turns
        len(caption_words(item.question())) + ev.pope_max_new_tokens for item in r.pope if ev.pope])) for r in records]
    pool = engine.new_cache(IN_FLIGHT * n, max(reach))

    def resume(i: int, logits=None) -> None:
        """Run record i to its next step request, or to its end."""
        gen, slot, t0, _ = inflight.pop(i)
        try:
            inflight[i] = gen, slot, t0, gen.send(logits)
        except StopIteration as done:
            outcome[i] = done.value
            log.debug("record %s: %d requests, %d new tokens, %.3f s in flight", records[i].record_id,
                      len(done.value[0]), sum(r.n_new_tokens for r in done.value[0]), time.perf_counter() - t0)
        except SpinInferError as e:
            outcome[i] = err = f"{type(e).__name__}: {e}"
            log.error("record %s failed: %s", records[i].record_id, err)

    try:
        for i, record in enumerate(records):
            if trace is not None:
                buffers[i] = trace.buffer()
            rec_policy = SpinPolicy(cfg.spin, mc.n_layers, mc.n_heads, buffers[i]) if i in buffers else policy
            held = {inflight[j][1].offset for j in inflight}  # a record holds its slot until it ends or fails
            slot = pool.slot(next(s for s in range(0, IN_FLIGHT * n, n) if s not in held), n)
            inflight[i] = _eval_record(engine, record, cfg, table, rec_policy, slot), slot, time.perf_counter(), None
            resume(i)
            while len(inflight) == IN_FLIGHT or inflight and i == len(records) - 1:  # until a record makes room
                batch = sorted(inflight, key=lambda j: inflight[j][1].offset)
                for j, logits in zip(batch, engine.step_many([inflight[j][3] for j in batch])):
                    resume(j, logits)
            while buffers and outcome[first := min(buffers)] is not None:  # traces go out in corpus order
                trace.commit(buffers.pop(first))
    finally:
        if trace is not None:
            trace.close()
    done = {r.record_id: out for r, out in zip(records, outcome) if isinstance(out, tuple)}
    failures = {r.record_id: out for r, out in zip(records, outcome) if isinstance(out, str)}
    if not done:
        raise DataError(f"all {len(records)} records failed; first error: {next(iter(failures.values()))}")

    res_lists, caption_records, answered, skipped = zip(*done.values())
    results = [r for rs in res_lists for r in rs]
    items = [it for its in answered for it in its]
    prefill_s = sum(r.prefill_latency for r in results)
    decode_s = time.perf_counter() - t_start - prefill_s  # decode wall time: a shared step counts once
    tokens = sum(r.n_new_tokens for r in results)
    caption_length = sum(len(rs[0].token_ids) - rs[0].ended_at_eos for rs in res_lists)
    metrics = {
        "chair": chair_scores(list(caption_records), vocab).to_dict() if ev.chair else None,
        "pope": pope_eval(items).to_dict() if ev.pope and items else None,
        "mean_caption_length": caption_length / len(done) if ev.chair else None,
        "throughput_tps": tokens / decode_s,
        "n_records": len(done),
        "n_failed_records": len(failures),
        "notes": list(REPORT_NOTES),
    }
    report = {
        "version": __version__,
        "config": cfg.to_dict(),
        "metrics": metrics,
        "generations": {
            rid: {"caption": rs[0].token_ids, "pope": [r.token_ids for r in rs[1:]]}
            for rid, rs in zip(done, res_lists)
        },
        "failures": failures,
        "pope_skipped": sum(skipped),
        "timing": {
            "wall_s": time.perf_counter() - t_start,
            "decode_s": decode_s,
            "prefill_s": prefill_s,
            "generated_tokens": tokens,
        },
    }
    if write_outputs:
        if cfg.output.report_json:
            write_report_json(report, cfg.output.report_json)
        if cfg.output.report_csv:
            write_report_csv(report, cfg.output.report_csv)
    return report


def write_report_json(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _flatten(prefix: str, node, rows: list[tuple[str, object]]) -> None:
    if isinstance(node, dict):
        for k in sorted(node):
            _flatten(f"{prefix}.{k}" if prefix else str(k), node[k], rows)
    elif isinstance(node, (list, tuple)):
        rows.append((prefix, json.dumps(node)))
    else:
        rows.append((prefix, node))


def write_report_csv(report: dict, path: str) -> None:
    rows: list[tuple[str, object]] = []
    _flatten("metrics", report["metrics"], rows)
    _flatten("timing", report["timing"], rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value"])
        w.writerows(rows)


def spin_eval_fn(cfg: RunConfig, inputs: EvalInputs):
    """eval_fn for the tuner: evaluate one SPIN candidate over `inputs`, the
    corpus `load_eval_inputs(cfg, ...)` read once."""

    def eval_fn(spin: SpinConfig | None):
        candidate = replace(cfg, spin=spin, output=type(cfg.output)())
        report = run_eval(candidate, write_outputs=False, inputs=inputs)
        chair = report["metrics"]["chair"]
        if chair is None:
            raise ConfigError("tune requires eval.chair metrics to be enabled")
        return {"c_s": chair["c_s"], "f1": chair["f1"]}

    return eval_fn
