"""End-to-end evaluation: generate over a corpus, score, and write reports.

Records can be processed by a bounded worker pool; every record derives its
own seed from (run seed, record id), so worker count and completion order
never change any output. Reports embed the exact resolved RunConfig plus
all generated token ids, which makes every report re-runnable.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from . import __version__
from .config import RunConfig
from .corpus import CorpusRecord, TokenTable, load_corpus
from .decoding import DecodeConfig, generate
from .engine import Engine, MultimodalPrompt
from .errors import ConfigError, ContextOverflowError, DataError, SpinInferError
from .metrics import (
    CaptionRecord,
    EvalReport,
    ObjectVocabulary,
    PopeItem,
    build_multiturn_context,
    chair_scores,
    pope_eval,
    throughput,
)
from .model import init_checkpoint, load_checkpoint
from .prng import derive_seed
from .spin import MaskTraceWriter, SpinConfig, SpinPolicy

log = logging.getLogger("spin_infer")

REPORT_NOTES = [
    "chair.c_s counts captions containing at least one hallucinated object (per-caption, "
    "not per-sentence).",
    "chair.f1 is micro-averaged set precision/recall over records.",
]


def build_engine(cfg: RunConfig) -> Engine:
    if cfg.model.checkpoint is not None:
        return Engine(load_checkpoint(cfg.model.checkpoint))
    return Engine(init_checkpoint(cfg.model.init_config, cfg.model.init_seed))


@dataclass
class RecordOutcome:
    record_id: str
    caption_record: CaptionRecord | None = None
    caption_ids: list[int] = field(default_factory=list)
    caption_length: int = 0
    pope_items: list[PopeItem] = field(default_factory=list)
    pope_ids: list[list[int]] = field(default_factory=list)
    token_counts: list[int] = field(default_factory=list)
    decode_latencies: list[float] = field(default_factory=list)
    prefill_latencies: list[float] = field(default_factory=list)
    pope_skipped: int = 0


def _derive_decode(base: DecodeConfig, seed: int, max_new: int | None = None) -> DecodeConfig:
    kw = {"seed": seed}
    if max_new is not None:
        kw["max_new_tokens"] = max_new
    return replace(base, **kw)


def _eval_record(
    engine: Engine,
    record: CorpusRecord,
    cfg: RunConfig,
    table: TokenTable,
    policy: SpinPolicy | None,
) -> RecordOutcome:
    ev = cfg.eval
    out = RecordOutcome(record_id=record.record_id)
    base_prompt = MultimodalPrompt([], record.vision, record.prompt_ids)

    # the caption is always generated: it feeds throughput even without CHAIR
    dcfg = _derive_decode(cfg.decode, derive_seed(cfg.decode.seed, record.record_id))
    res = generate(engine, base_prompt, dcfg, policy, token_table=table)
    out.caption_ids = res.token_ids
    out.caption_length = len(res.token_ids) - (1 if res.ended_at_eos else 0)
    out.token_counts.append(res.n_new_tokens)
    out.decode_latencies.append(res.decode_latency)
    out.prefill_latencies.append(res.prefill_latency)
    if ev.chair:
        out.caption_record = CaptionRecord(record.record_id, res.text, frozenset(record.gt_objects))

    if ev.pope and record.pope:
        turns: list[tuple[list[int], list[int]]] = []
        for j, item in enumerate(record.pope):
            q_ids = table.encode_text(item.question())
            prior = turns if ev.pope_mode == "multi_turn" else []
            prompt_j = build_multiturn_context(base_prompt, prior, q_ids)
            pcfg = _derive_decode(
                cfg.decode,
                derive_seed(cfg.decode.seed, record.record_id, "pope", j),
                max_new=ev.pope_max_new_tokens,
            )
            try:
                res = generate(engine, prompt_j, pcfg, policy, token_table=table)
            except ContextOverflowError:
                out.pope_skipped = len(record.pope) - j
                log.warning(
                    "record %s: context overflow at pope turn %d; skipping %d items",
                    record.record_id, j + 1, out.pope_skipped,
                )
                break
            out.pope_items.append(replace(item, answer=res.text))
            out.pope_ids.append(res.token_ids)
            out.token_counts.append(res.n_new_tokens)
            out.decode_latencies.append(res.decode_latency)
            out.prefill_latencies.append(res.prefill_latency)
            answer_ids = [t for t in res.token_ids if t != table.eos_id]
            turns.append((q_ids, answer_ids))
    return out


def run_eval(cfg: RunConfig, write_outputs: bool = True) -> dict:
    """Execute the configured evaluation and return the report dict."""
    if cfg.eval is None:
        raise ConfigError("eval: section missing (required by run_eval)")
    engine = build_engine(cfg)
    mc = engine.config
    records = load_corpus(cfg.eval.corpus)
    if cfg.eval.max_records is not None:
        records = records[: cfg.eval.max_records]
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

    # the policy validates the layer range before the trace file is created
    policy = SpinPolicy(cfg.spin, mc.n_layers, mc.n_heads) if cfg.spin else None
    trace = None
    if write_outputs and cfg.output.trace_masks and policy is not None:
        trace = policy.trace = MaskTraceWriter(
            open(cfg.output.trace_masks, "w", encoding="utf-8"), mc.n_layers, mc.n_heads, cfg.spin
        )

    t_start = time.perf_counter()
    outcomes: dict[str, RecordOutcome] = {}
    failures: dict[str, str] = {}

    def task(record: CorpusRecord):
        try:
            return record.record_id, _eval_record(engine, record, cfg, table, policy), None
        except SpinInferError as e:
            return record.record_id, None, f"{type(e).__name__}: {e}"

    try:
        if cfg.eval.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.eval.workers) as pool:
                results = list(pool.map(task, records))
        else:
            results = [task(r) for r in records]
    finally:
        if trace is not None:
            trace.close()
    for rid, outcome, err in results:
        if err is None:
            outcomes[rid] = outcome
        else:
            failures[rid] = err
            log.error("record %s failed: %s", rid, err)
    if not outcomes:
        raise DataError(f"all {len(records)} records failed; first error: {next(iter(failures.values()))}")

    ordered = [outcomes[r.record_id] for r in records if r.record_id in outcomes]
    report_metrics = EvalReport(n_records=len(ordered), n_failed_records=len(failures))
    report_metrics.notes = list(REPORT_NOTES)

    if cfg.eval.chair:
        report_metrics.chair = chair_scores([o.caption_record for o in ordered], vocab)
        report_metrics.mean_caption_length = sum(o.caption_length for o in ordered) / len(ordered)
    if cfg.eval.pope:
        items = [it for o in ordered for it in o.pope_items]
        if items:
            report_metrics.pope = pope_eval(items)
    tokens_total = sum(sum(o.token_counts) for o in ordered)
    report_metrics.throughput_tps = throughput(
        [sum(o.token_counts) for o in ordered], [sum(o.decode_latencies) for o in ordered]
    )

    report = {
        "version": __version__,
        "config": cfg.to_dict(),
        "metrics": report_metrics.to_dict(),
        "generations": {
            o.record_id: {"caption": o.caption_ids, "pope": o.pope_ids} for o in ordered
        },
        "failures": failures,
        "pope_skipped": sum(o.pope_skipped for o in ordered),
        "timing": {
            "wall_s": time.perf_counter() - t_start,
            "decode_s": sum(sum(o.decode_latencies) for o in ordered),
            "prefill_s": sum(sum(o.prefill_latencies) for o in ordered),
            "generated_tokens": tokens_total,
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


def spin_eval_fn(cfg: RunConfig):
    """eval_fn for the tuner: evaluate one SPIN candidate over cfg's corpus."""

    def eval_fn(spin: SpinConfig | None):
        candidate = replace(cfg, spin=spin, output=type(cfg.output)())
        report = run_eval(candidate, write_outputs=False)
        chair = report["metrics"]["chair"]
        if chair is None:
            raise ConfigError("tune requires eval.chair metrics to be enabled")
        return {"c_s": chair["c_s"], "f1": chair["f1"]}

    return eval_fn
