"""Command-line surface: spin-infer <subcommand>.

Every command that decodes (generate, eval, profile, tune) reads its run
settings from one run config, --config, and takes only output paths (and
generate's --record-id) as flags; tune's sweep is the config's `tune` section.
A one-off setting is a SPIN__SECTION__KEY environment override. Exit codes: 0
success, 2 config error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, fields

from . import __version__
from .analytics import AttentionProfile, MaskHeatmap, aggregate_masks, profile_attention, tune_three_stage
from .config import load_run_config
from .corpus import SyntheticCorpusSpec, TokenTable, generate_synthetic_corpus
from .decoding import generate
from .engine import MultimodalPrompt
from .errors import ConfigError, DataError, SpinInferError
from .model import ModelConfig, init_checkpoint, save_checkpoint
from .runner import build_policy, load_eval_inputs, run_eval, spin_eval_fn


def _from_flags(cls, args):
    """`cls` built from the flags whose dest is one of its fields; a flag the
    parser did not set leaves its field at the dataclass default."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


def cmd_init_ckpt(args) -> int:
    ckpt = init_checkpoint(_from_flags(ModelConfig, args), args.seed)
    save_checkpoint(ckpt, args.out)
    print(f"wrote {args.out} ({len(ckpt.tensors)} tensors)")
    return 0


def cmd_make_corpus(args) -> int:
    paths = generate_synthetic_corpus(_from_flags(SyntheticCorpusSpec, args), args.out_dir)
    table = TokenTable.load(paths.tokens)
    print(f"wrote {paths.corpus}")
    print(f"wrote {paths.vocab}")
    print(f"wrote {paths.tokens} (vocab_size needed: {len(table)})")
    return 0


def cmd_generate(args) -> int:
    cfg = load_run_config(args.config)
    engine, records, _, table = load_eval_inputs(cfg, "generate")
    rec = next((r for r in records if args.record_id in (None, r.record_id)), None)
    if rec is None:
        raise DataError(f"{cfg.eval.corpus}: no record with id {args.record_id!r} in the first {len(records)} records")
    prompt = MultimodalPrompt([], rec.vision, rec.prompt_ids)
    policy = build_policy(cfg, engine)
    try:
        result = generate(engine, prompt, cfg.decode, policy, token_table=table)
    finally:
        if policy is not None and policy.trace is not None:
            policy.trace.close()
    print(json.dumps({
        "token_ids": result.token_ids,
        "text": result.text,
        "n_new_tokens": result.n_new_tokens,
        "ended_at_eos": result.ended_at_eos,
        "truncated": result.truncated,
        "prefill_s": result.prefill_latency,
        "decode_s": result.decode_latency,
    }))
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    report = run_eval(cfg)
    print(json.dumps(report["metrics"], indent=2, sort_keys=True))
    return 0


def _write_csv_and_json(prefix: str, result: AttentionProfile | MaskHeatmap) -> int:
    """Write `result` to <prefix>.csv and <prefix>.json."""
    result.write_csv(prefix + ".csv")
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2)
    print(f"wrote {prefix}.csv and {prefix}.json")
    return 0


def cmd_profile(args) -> int:
    cfg = load_run_config(args.config)
    engine, records, _, _ = load_eval_inputs(cfg, "profile")
    prompts = [MultimodalPrompt([], r.vision, r.prompt_ids) for r in records]
    profile = profile_attention(engine, prompts, cfg.decode, build_policy(cfg, engine, write_trace=False))
    return _write_csv_and_json(args.out_prefix, profile)


def cmd_heatmap(args) -> int:
    for path in args.traces:  # a missing file or a directory
        if not os.path.isfile(path):
            raise ConfigError(f"--traces: file not found: {path}")
    return _write_csv_and_json(args.out_prefix, aggregate_masks(args.traces))


def cmd_tune(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.tune is None:
        raise ConfigError("tune: section missing (required by tune)")
    inputs = load_eval_inputs(cfg, "tune")
    result = tune_three_stage(spin_eval_fn(cfg, inputs), inputs.engine.config.n_layers, **asdict(cfg.tune))
    out = result.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    print(json.dumps({"selected": out["selected"], "baseline": out["baseline"]}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spin-infer", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spin-infer {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-ckpt", help="create a deterministic random checkpoint")
    p.add_argument("--layers", dest="n_layers", type=int, required=True)
    p.add_argument("--heads", dest="n_heads", type=int, required=True)
    p.add_argument("--d-model", type=int, required=True)
    p.add_argument("--d-ffn", type=int, required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--max-seq-len", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_init_ckpt)

    p = sub.add_parser("make-corpus", help="generate a synthetic evaluation corpus",
                       argument_default=argparse.SUPPRESS)  # an unset flag keeps SyntheticCorpusSpec's default
    p.add_argument("--images", dest="n_images", type=int, required=True)
    p.add_argument("--span-len", type=int, required=True)
    p.add_argument("--embed-dim", type=int, required=True)
    p.add_argument("--objects", dest="n_objects", type=int)
    p.add_argument("--objects-per-image", type=int)
    p.add_argument("--pope-pairs", dest="pope_pairs_per_split", type=int)
    p.add_argument("--zipf-s", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_make_corpus)

    p = sub.add_parser("generate", help="generate from one corpus record of the configured eval")
    p.add_argument("--config", required=True)
    p.add_argument("--record-id", default=None, help="default: the first record")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("eval", help="run the configured evaluation")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("profile", help="per-layer vision/text attention profile")
    p.add_argument("--config", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("heatmap", help="aggregate mask traces into a layer x head heatmap")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("tune", help="three-stage r / layer-range / alpha selection")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="write the full sweep as JSON")
    p.set_defaults(fn=cmd_tune)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the flush at interpreter exit must not raise again
        os.close(devnull)
        print("runtime error: output pipe closed", file=sys.stderr)
        return 4
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except SpinInferError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
