"""The three benchmark workloads: how their inputs are built from a seed, how
one unit of work runs through the package's public entry points, and how the
outputs are checked.

Every workload is closed loop with one client and one stream at a time. A
unit is one request (`decode-long`, `beam-plain`) or one `eval` command
(`pope-eval`); a record is one prompt, or one image's caption plus its POPE
turns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from spin_infer import cli, decoding
from spin_infer.config import load_run_config
from spin_infer.corpus import SyntheticCorpusSpec, TokenTable, generate_synthetic_corpus, load_corpus
from spin_infer.decoding import DecodeConfig
from spin_infer.engine import Engine, MultimodalPrompt
from spin_infer.metrics import ObjectVocabulary
from spin_infer.model import ModelConfig, init_checkpoint, load_checkpoint, save_checkpoint
from spin_infer.prng import SplitMix64, derive_seed
from spin_infer.spin import SpinConfig, SpinPolicy

# Seed 0 reproduces the acceptance shapes: criterion 6 (checkpoint seed 123,
# prompt seed 55) and the README quick-start (corpus seed 7, checkpoint seed 1).
# Another seed shifts every one of them by the same offset.
LONG_MODEL = ModelConfig(n_layers=8, n_heads=8, d_model=256, d_ffn=1024, vocab_size=512, max_seq_len=704)
LONG_CKPT_SEED, LONG_PROMPT_SEED = 123, 55
N_VISION, N_TEXT = 400, 112
QUICK_CORPUS_SEED, QUICK_CKPT_SEED = 7, 1

# Near-tie tolerance of the greedy re-prefill oracle (the one
# test_prefill_matches_stepwise_tokens uses for prefill vs step logits).
ORACLE_ATOL = 1e-4


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def greedy_oracle(engine: Engine, prompt: MultimodalPrompt, tokens: list[int], policy) -> bool:
    """Re-prefill prompt + tokens[:-1] in one pass; every greedy token must be
    the argmax of its position's logits, up to a near-tie of ORACLE_ATOL."""
    logits = engine.prefill(prompt.extended(tokens[:-1]), engine.new_cache(), policy, return_all_logits=True)
    rows = logits[len(prompt) - 1 :]
    if rows.shape[0] != len(tokens):
        return False
    picked = rows[np.arange(len(tokens)), tokens]
    return bool(np.all(picked >= rows.max(axis=1) - ORACLE_ATOL))


class PromptStream:
    """Criterion-6 prompts: 400 vision rows in [-1, 1) then 112 text ids,
    drawn from one sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._rng = SplitMix64(seed)

    def next(self) -> MultimodalPrompt:
        d, v = LONG_MODEL.d_model, LONG_MODEL.vocab_size
        vision = (2.0 * self._rng.uniforms(N_VISION * d) - 1.0).reshape(N_VISION, d).astype(np.float32)
        suffix = [self._rng.choice(v) for _ in range(N_TEXT)]
        return MultimodalPrompt([], vision, suffix)


class Unit:
    """Outcome of one unit of work."""

    def __init__(self, kind: str, records: int, ids: list[list[int]] | None = None, error: str | None = None):
        self.kind = kind
        self.records = records
        self.ids = ids or []  # every generated id sequence, eos included
        self.error = error
        self.truncated = False
        self.report = None

    @property
    def tokens(self) -> int:
        return sum(len(x) for x in self.ids)


class _RequestWorkload:
    """Shared driver for workloads that call `decoding.generate` per prompt.

    Methods called per unit: `prepare` (untimed), `run` (timed), `collect`
    and `check` (untimed, cheap); `verify` runs after timing on the units the
    digest covers.
    """

    warmup_units = 1
    digest_units = 2  # the digest covers the first units timed; every run does them

    def __init__(self, spec: dict):
        self.spec = spec
        self.engine = None
        self.policy = None

    def setup(self) -> None:
        self.engine = None
        self.engine = Engine(load_checkpoint(self.spec["checkpoint"]))

    def decode_config(self, i: int) -> DecodeConfig:
        raise NotImplementedError

    def prepare(self, i: int, stream: PromptStream):
        return stream.next(), self.decode_config(i)

    def run(self, i: int, prepared) -> Unit:
        prompt, cfg = prepared
        res = decoding.generate(self.engine, prompt, cfg, self.policy)
        unit = Unit(cfg.strategy, 1, [res.token_ids])
        unit.truncated = res.truncated
        return unit

    def collect(self, unit: Unit) -> int:
        return 0

    def check(self, i: int, prepared, unit: Unit) -> list[str]:
        _, cfg = prepared
        ids = unit.ids[0]
        errors = []
        if len(ids) != cfg.max_new_tokens:
            errors.append(f"unit {i}: {len(ids)} tokens, want {cfg.max_new_tokens}")
        if any(not 0 <= t < LONG_MODEL.vocab_size for t in ids):
            errors.append(f"unit {i}: token id out of range")
        if unit.truncated:
            errors.append(f"unit {i}: truncated")
        return errors

    def verify(self, i: int, prepared, unit: Unit) -> list[str]:
        return []


class DecodeLong(_RequestWorkload):
    """Criterion-6 shape: 512-token prompts, 128 new tokens, eos off, SPIN on
    every layer; requests alternate greedy and nucleus."""

    warmup_units = 2
    digest_units = 6
    kept_fraction = 0.75  # K/H for SPIN r 0.25 over 8 heads: 6 of 8 kept
    spin = SpinConfig(strategy="image_attention", r=0.25, alpha=0.0, layer_lo=1, layer_hi=8,
                      apply_to="all_text_queries")

    @staticmethod
    def build(seed: int, work: Path) -> dict:
        ckpt = work / "model.spnm"
        save_checkpoint(init_checkpoint(LONG_MODEL, LONG_CKPT_SEED + seed), ckpt)
        prompt_seed = LONG_PROMPT_SEED + seed
        return {"checkpoint": str(ckpt), "prompt_seed": prompt_seed,
                "warmup_seed": derive_seed(prompt_seed, "warm-up")}

    def setup(self) -> None:
        super().setup()
        c = self.engine.config
        self.policy = SpinPolicy(self.spin, c.n_layers, c.n_heads)

    def decode_config(self, i: int) -> DecodeConfig:
        if i % 2 == 0:
            return DecodeConfig(strategy="greedy", max_new_tokens=128, eos_id=None, seed=i)
        return DecodeConfig(strategy="nucleus", nucleus_p=0.9, repetition_penalty=1.2,
                            max_new_tokens=128, eos_id=None, seed=i)

    def verify(self, i: int, prepared, unit: Unit) -> list[str]:
        prompt, cfg = prepared
        if cfg.strategy == "greedy" and not greedy_oracle(self.engine, prompt, unit.ids[0], self.policy):
            return [f"unit {i}: greedy tokens are not the re-prefill argmax"]
        return []


class BeamPlain(_RequestWorkload):
    """Beam width 5 over fresh 512-token prompts on decode-long's model,
    32 new tokens, eos off, SPIN off."""

    digest_units = 2

    @staticmethod
    def build(seed: int, work: Path) -> dict:
        spec = DecodeLong.build(seed, work)
        spec["prompt_seed"] = derive_seed(LONG_PROMPT_SEED + seed, "beam-plain")
        spec["warmup_seed"] = derive_seed(spec["prompt_seed"], "warm-up")
        return spec

    def decode_config(self, i: int) -> DecodeConfig:
        return DecodeConfig(strategy="beam", beam_width=5, max_new_tokens=32, eos_id=None, seed=i)


class PopeEval:
    """The README quick-start eval: CHAIR + multi-turn POPE over 20 images,
    run with `spin-infer eval --config run.json`, writing every output."""

    warmup_units = 1
    digest_units = 1
    n_records = 20
    kept_fraction = 0.75  # K/H for SPIN r 0.25 over 8 heads: 6 of 8 kept

    def __init__(self, spec: dict):
        self.spec = spec
        self.first = None  # generations of the first eval in this process

    @staticmethod
    def build(seed: int, work: Path) -> dict:
        paths = generate_synthetic_corpus(
            SyntheticCorpusSpec(n_images=PopeEval.n_records, span_len=48, embed_dim=64, n_objects=24,
                                objects_per_image=3, seed=QUICK_CORPUS_SEED + seed),
            work,
        )
        vocab_size = len(TokenTable.load(paths.tokens))
        model = ModelConfig(n_layers=4, n_heads=8, d_model=64, d_ffn=256, vocab_size=vocab_size, max_seq_len=512)
        save_checkpoint(init_checkpoint(model, QUICK_CKPT_SEED + seed), work / "model.spnm")
        config = {
            "model": {"checkpoint": "model.spnm"},
            "spin": {"strategy": "image_attention", "r": 0.25, "alpha": 0.0, "layer_range": [1, 4],
                     "apply_to": "all_text_queries"},
            "decode": {"strategy": "greedy", "max_new_tokens": 32, "eos_id": 0, "seed": 7},
            "eval": {"corpus": "corpus.jsonl", "vocab": "vocab.tsv", "tokens": "tokens.json",
                     "chair": True, "pope": True, "pope_mode": "multi_turn", "workers": 1},
            "output": {"report_json": "report.json", "report_csv": "report.csv", "trace_masks": "masks.jsonl"},
        }
        (work / "run.json").write_text(json.dumps(config, indent=2))
        return {"config": str(work / "run.json"), "report": str(work / "report.json"),
                "trace": str(work / "masks.jsonl")}

    def setup(self) -> None:
        """What `eval` pays before its first record."""
        cfg = load_run_config(self.spec["config"])
        engine = Engine(load_checkpoint(cfg.model.checkpoint))
        load_corpus(cfg.eval.corpus)
        ObjectVocabulary.from_tsv(cfg.eval.vocab)
        TokenTable.load(cfg.eval.tokens)
        SpinPolicy(cfg.spin, engine.config.n_layers, engine.config.n_heads)

    def prepare(self, i: int, stream):
        for path in (self.spec["report"], self.spec["trace"]):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def run(self, i: int, prepared) -> Unit:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--config", self.spec["config"]])
        return Unit("eval", self.n_records, error=f"eval exited with code {code}" if code else None)

    def collect(self, unit: Unit) -> int:
        """Reads the unit's report into it; returns the mask trace's size."""
        report = json.loads(Path(self.spec["report"]).read_text())
        gens = report["generations"]
        unit.ids = [gens[r]["caption"] for r in sorted(gens)] + [ids for r in sorted(gens) for ids in gens[r]["pope"]]
        unit.report = report
        return os.path.getsize(self.spec["trace"])

    def check(self, i: int, prepared, unit: Unit) -> list[str]:
        """Every eval in one process must generate what the first one did."""
        gens = unit.report["generations"]
        if self.first is None:
            self.first = gens
        return [f"unit {i}: record {r}: generations differ from the first eval in this process"
                for r in sorted(set(gens) | set(self.first)) if gens.get(r) != self.first.get(r)]

    def verify(self, i: int, prepared, unit: Unit) -> list[str]:
        """Report invariants and the greedy oracle on every caption."""
        report = unit.report
        m = report["metrics"]
        n = self.n_records
        errors = [f"record {r}: {err}" for r, err in sorted(report["failures"].items())]
        if m["n_records"] != n:
            errors.append(f"report has {m['n_records']} records, want {n}")
        if report["pope_skipped"]:
            errors.append(f"report skipped {report['pope_skipped']} POPE items")
        if not m["chair"] or m["chair"]["n_captions"] != n:
            errors.append("CHAIR did not score every caption")
        splits = (m["pope"] or {}).get("splits", {})
        for name in ("random", "popular", "adversarial"):
            s = splits.get(name)
            total = s["tp"] + s["fp"] + s["fn"] + s["tn"] if s else 0
            if total != 2 * n:
                errors.append(f"POPE split {name} has {total} items, want {2 * n}")
        cfg = load_run_config(self.spec["config"])
        engine = Engine(load_checkpoint(cfg.model.checkpoint))
        policy = SpinPolicy(cfg.spin, engine.config.n_layers, engine.config.n_heads)
        for rec in load_corpus(cfg.eval.corpus):
            gen = report["generations"].get(rec.record_id)
            if gen is None:
                continue  # listed in failures above
            if len(gen["pope"]) != len(rec.pope):
                errors.append(f"record {rec.record_id}: {len(gen['pope'])} POPE answers, want {len(rec.pope)}")
            prompt = MultimodalPrompt([], rec.vision, rec.prompt_ids)
            if not greedy_oracle(engine, prompt, gen["caption"], policy):
                errors.append(f"record {rec.record_id}: caption is not the re-prefill argmax")
        return errors


WORKLOADS = {"decode-long": DecodeLong, "pope-eval": PopeEval, "beam-plain": BeamPlain}
