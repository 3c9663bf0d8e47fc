"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` reports the same outcomes through test names.
"""

import json
import math
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from spin_infer.analytics import profile_attention, tune_three_stage
from spin_infer.config import load_run_config
from spin_infer.decoding import (
    DecodeConfig,
    apply_repetition_penalty,
    generate,
    _nucleus_pick,
)
from spin_infer.engine import Engine, MultimodalPrompt, PromptLayout
from spin_infer.metrics import (
    CaptionRecord,
    ObjectVocabulary,
    PopeItem,
    chair_scores,
    extract_objects,
    f1_score,
    pope_eval,
)
from spin_infer.model import ModelConfig, init_checkpoint
from spin_infer.prng import SplitMix64
from spin_infer.runner import run_eval
from spin_infer.spin import SpinConfig, SpinPolicy, kept_count

from helpers import (
    build_mask,
    e1_vision,
    hook_args,
    planted_checkpoint,
    random_prompt,
    score_heads_alternative,
    score_heads_image_attention,
    tiny_engine,
    top_k_heads,
    uniform_attention_checkpoint,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def spin_policy(engine, **kw):
    cfg = SpinConfig(**kw)
    return SpinPolicy(cfg, engine.config.n_layers, engine.config.n_heads)


def test_criterion_01_baseline_equivalence():
    """SPIN with r=0 and with alpha=1 matches the no-SPIN engine exactly
    over 50 random (checkpoint, prompt) pairs, greedy and beam."""
    with criterion(1, "baseline equivalence (r=0, alpha=1)"):
        t0 = time.perf_counter()
        rng = SplitMix64(2024)
        for i in range(50):
            heads = (2, 4)[rng.choice(2)]
            layers = 1 + rng.choice(2)
            engine = tiny_engine(
                seed=i, n_layers=layers, n_heads=heads, d_model=16, d_ffn=24,
                vocab_size=32, max_seq_len=48,
            )
            prompt = random_prompt(i, engine.config,
                                   n_prefix=rng.choice(3), n_vision=1 + rng.choice(4),
                                   n_suffix=1 + rng.choice(4))
            r0 = spin_policy(engine, r=0.0, alpha=0.0, layer_lo=1, layer_hi=layers)
            a1 = spin_policy(engine, r=0.5, alpha=1.0, layer_lo=1, layer_hi=layers)
            greedy_cfg = DecodeConfig(max_new_tokens=6, eos_id=0, seed=i)
            beam_cfg = DecodeConfig(strategy="beam", beam_width=3, max_new_tokens=6,
                                    eos_id=0, seed=i)
            base_g = generate(engine, prompt, greedy_cfg).token_ids
            base_b = generate(engine, prompt, beam_cfg).token_ids
            for policy in (r0, a1):
                assert generate(engine, prompt, greedy_cfg, policy).token_ids == base_g, i
                assert generate(engine, prompt, beam_cfg, policy).token_ids == base_b, i
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (limit 60s)"


def test_criterion_02_mask_semantics():
    """Kept-set size, monotone nesting over r, index tie-break, and scale
    invariance on >= 1000 random score vectors with H in {4, 8, 32}."""
    with criterion(2, "mask semantics property test"):
        rng = SplitMix64(7)
        checked = 0
        for h in (4, 8, 32):
            for _ in range(350):
                scores = (2.0 * rng.uniforms(h) - 1.0).astype(np.float32)
                if rng.uniform() < 0.3:
                    scores = np.round(scores, 1)  # force ties
                r1 = rng.uniform() * 0.999
                r2 = r1 + (0.999 - r1) * rng.uniform()
                k1, k2 = kept_count(r1, h), kept_count(r2, h)

                # independent oracle: half-up rounding and (-score, index) order
                suppressed = math.floor(r1 * h + 0.5)
                assert k1 == min(h, max(1, h - suppressed))
                oracle = sorted(range(h), key=lambda i: (-float(scores[i]), i))
                kept1 = top_k_heads(scores, k1).tolist()
                assert sorted(oracle[:k1]) == kept1  # tie-break: lower index wins
                mask = build_mask(scores, SpinConfig(r=r1, alpha=0.0), layer=1)
                assert np.flatnonzero(mask == 1.0).tolist() == kept1

                kept2 = top_k_heads(scores, k2).tolist()
                assert set(kept2) <= set(kept1)  # r2 >= r1 nests

                c = 1e-3 + rng.uniform() * 1e3
                # float64 product preserves the order of float32 scores exactly
                scaled = top_k_heads(scores.astype(np.float64) * c, k1).tolist()
                assert scaled == kept1  # positive scaling never changes the set
                checked += 1
        assert checked >= 1000


def test_criterion_03_scoring_oracle():
    """Head scores match a naive double-loop implementation within 1e-5 on
    random small tensors (d_k <= 8, N <= 16)."""
    with criterion(3, "span scoring vs naive double loop"):
        rng = SplitMix64(31)
        for trial in range(200):
            h = 1 + rng.choice(8)
            dk = 1 + rng.choice(8)
            n = 1 + rng.choice(16)
            i_start = rng.choice(n)
            i_end = i_start + 1 + rng.choice(n - i_start)
            q = (rng.uniforms(h * dk) - 0.5).reshape(h, dk).astype(np.float32)
            keys = (rng.uniforms(h * n * dk) - 0.5).reshape(h, n, dk).astype(np.float32)

            def naive_span(lo, hi):
                out = []
                for head in range(h):
                    s = 0.0
                    for j in range(lo, hi):
                        for d in range(dk):
                            s += float(q[head, d]) * float(keys[head, j, d])
                    out.append(s)
                return np.array(out)

            got = score_heads_image_attention(q, keys, i_start, i_end)
            assert np.abs(got - naive_span(i_start, i_end)).max() < 1e-5, trial

            got_tot = score_heads_alternative("total_attention", q, keys)
            assert np.abs(got_tot - naive_span(0, n)).max() < 1e-5, trial

            got_qn = score_heads_alternative("query_norm", q, keys)
            naive_qn = [math.sqrt(sum(float(x) ** 2 for x in q[head])) for head in range(h)]
            assert np.abs(got_qn - np.array(naive_qn)).max() < 1e-5, trial

            got_kn = score_heads_alternative("key_norm", q, keys)
            naive_kn = [
                sum(math.sqrt(sum(float(x) ** 2 for x in keys[head, j])) for j in range(n)) / n
                for head in range(h)
            ]
            assert np.abs(got_kn - np.array(naive_kn)).max() < 1e-5, trial

            # the policy's own scoring of the last query row over the keys
            naive = {
                "image_attention": naive_span(i_start, i_end),
                "total_attention": naive_span(0, n),
                "query_norm": naive_qn,
                "key_norm": naive_kn,
            }
            for strategy, want in naive.items():
                policy = SpinPolicy(SpinConfig(strategy=strategy), 1, h)
                got = policy._scores(q[None], *hook_args(q[None], keys[None]), np.array([n - 1]),
                                     PromptLayout(i_start, i_end, n))
                assert np.abs(got[0] - np.array(want)).max() < 1e-5, (trial, strategy)


HAND_VOCAB = {
    "dog": "dog", "puppy": "dog", "cat": "cat", "chair": "chair",
    "hot dog": "hot dog", "car": "car", "tree": "tree", "bench": "bench",
}

# 20 hand-built caption records: (caption, ground-truth set)
HAND_CAPTIONS = [
    ("a dog and a cat", {"dog", "cat"}),          # worked example, record 1
    ("a dog near a chair", {"dog"}),              # worked example, record 2
    ("a cat on a bench", {"cat", "bench"}),
    ("two dogs and a puppy", {"dog"}),
    ("a hot dog on a table", {"hot dog"}),
    ("a hot dog and a dog", {"dog"}),
    ("nothing to report", {"tree"}),
    ("a car a car a car", {"car"}),
    ("the tree shades a bench", {"tree"}),
    ("a chair", {"chair", "cat"}),
    ("dog cat car", {"tree"}),
    ("a puppy sleeping", {"dog"}),
    ("cat and chair and tree", {"cat", "chair", "tree"}),
    ("a bench beside a car", {"bench"}),
    ("hot dog hot dog", {"hot dog", "dog"}),
    ("the quick brown fox", {"dog"}),
    ("a tree a dog a cat", {"tree", "dog", "cat"}),
    ("chair chair chair", {"bench"}),
    ("one car and one tree", {"car", "tree"}),
    ("a cat watching a dog", {"cat"}),
]


def test_criterion_04_chair_pope_oracles():
    """CHAIR and POPE equal brute-force recounts exactly (integer-ratio
    equality), including the worked example C_s = 1/2, C_i = 0.25."""
    with criterion(4, "CHAIR/POPE oracle equivalence"):
        vocab = ObjectVocabulary(HAND_VOCAB)

        # worked example on its own
        worked = [CaptionRecord(str(i), c, frozenset(g)) for i, (c, g) in enumerate(HAND_CAPTIONS[:2])]
        res2 = chair_scores(worked, vocab)
        assert Fraction(res2.n_hallucinated_captions, res2.n_captions) == Fraction(1, 2)
        assert Fraction(res2.n_hallucinated_instances, res2.n_instances) == Fraction(1, 4)

        # full 20-record corpus vs independent Fraction recount
        records = [CaptionRecord(str(i), c, frozenset(g)) for i, (c, g) in enumerate(HAND_CAPTIONS)]
        res = chair_scores(records, vocab)
        inst = halluc_inst = halluc_cap = tp = mentioned = gt_n = 0
        for cap, gt in HAND_CAPTIONS:
            m = extract_objects(cap, vocab)
            bad = [x for x in m.instances if x not in gt]
            inst += len(m.instances)
            halluc_inst += len(bad)
            halluc_cap += bool(bad)
            tp += len(m.objects & gt)
            mentioned += len(m.objects)
            gt_n += len(gt)
        # exact integer-ratio equality: the backing counts match the recount,
        # and every reported rate is the division of those same integers
        assert Fraction(res.n_hallucinated_captions, res.n_captions) == Fraction(halluc_cap, 20)
        assert Fraction(res.n_hallucinated_instances, res.n_instances) == Fraction(halluc_inst, inst)
        assert (res.n_matched, res.n_mentioned, res.n_gt) == (tp, mentioned, gt_n)
        assert res.c_s == halluc_cap / 20
        assert res.c_i == halluc_inst / inst
        assert res.precision == tp / mentioned
        assert res.recall == tp / gt_n
        assert res.f1 == f1_score(res.precision, res.recall)

        # 60 POPE items with scripted answers vs a hand confusion matrix
        rng = SplitMix64(99)
        answers = ["yes", "No.", "I think yes", "there is no dog", "hmm", "Yes indeed"]
        items = []
        for i in range(60):
            split = ("random", "popular", "adversarial")[i % 3]
            gold = ("yes", "no")[i % 2]
            items.append(PopeItem(f"img{i}", "dog", split, gold, answers[rng.choice(6)]))
        rep = pope_eval(items)
        for split in ("random", "popular", "adversarial"):
            tp = fp = fn = tn = unparsed = 0
            for it in (x for x in items if x.split == split):
                first = next((w for w in it.answer.lower().replace(".", " ").split()
                              if w in ("yes", "no")), None)
                if first is None:
                    unparsed += 1
                    first = "no" if it.gold == "yes" else "yes"
                if it.gold == "yes" and first == "yes":
                    tp += 1
                elif it.gold == "yes":
                    fn += 1
                elif first == "yes":
                    fp += 1
                else:
                    tn += 1
            sc = rep.splits[split]
            assert (sc.tp, sc.fp, sc.fn, sc.tn, sc.unparsed) == (tp, fp, fn, tn, unparsed)
            total = tp + fp + fn + tn
            assert Fraction(sc.tp + sc.tn, sc.total) == Fraction(tp + tn, total)
            assert sc.f1 == pytest.approx(f1_score(sc.precision, sc.recall), abs=1e-15)
        for fld in ("tp", "fp", "fn", "tn"):
            assert getattr(rep.overall, fld) == sum(getattr(s, fld) for s in rep.splits.values())


def test_criterion_05_planted_bias_suppression():
    """Designated heads with maximal vision-key alignment stay in the kept
    set >= 95% of decode steps under image_attention, and the query_norm /
    key_norm strategies pick a different kept set on >= 1 step."""
    with criterion(5, "planted-bias suppression + strategy distinction"):
        t0 = time.perf_counter()
        ckpt, config = planted_checkpoint()
        engine = Engine(ckpt)

        def kept_sets_for(strategy):
            cfg = SpinConfig(strategy=strategy, r=0.25, alpha=0.0, layer_lo=1, layer_hi=1)
            policy = SpinPolicy(cfg, config.n_layers, config.n_heads)
            sets = []

            def spy(layer, q, keys, logits, positions, layout):
                masks = policy(layer, q, keys, logits, positions, layout)
                if layer == 0 and masks is not None:
                    for row, pos in zip(masks, positions):
                        if pos >= layout.prompt_len:  # decode steps only
                            sets.append(frozenset(np.flatnonzero(row == 1.0).tolist()))
                return masks

            for pseed in range(3):
                rng = SplitMix64(pseed)
                suffix = [1 + rng.choice(config.vocab_size - 1) for _ in range(4)]
                prompt = MultimodalPrompt([], e1_vision(16, config.d_model), suffix)
                generate(engine, prompt, DecodeConfig(max_new_tokens=30, eos_id=None, seed=pseed), spy)
            return sets

        image_sets = kept_sets_for("image_attention")
        assert len(image_sets) >= 60
        kept_frac = sum(1 for s in image_sets if {5, 6} <= s) / len(image_sets)
        assert kept_frac >= 0.95, f"planted heads kept only {kept_frac:.2%} of steps"

        for alt in ("query_norm", "key_norm"):
            alt_sets = kept_sets_for(alt)
            # head 7 has huge norms but exactly zero vision attention, so the
            # strategies must disagree somewhere
            differing = any(7 in s for s in alt_sets) and all(7 not in s for s in image_sets)
            assert differing or any(a != b for a, b in zip(alt_sets, image_sets)), alt
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s (limit 120s)"


@pytest.mark.slow
def test_criterion_06_throughput_parity():
    """SPIN decode throughput >= 0.90x baseline and >= 1.5x a simulated
    two-pass contrastive baseline (median over 3 repetitions)."""
    with criterion(6, "throughput parity"):
        config = ModelConfig(n_layers=8, n_heads=8, d_model=256, d_ffn=1024,
                             vocab_size=512, max_seq_len=704)
        engine = Engine(init_checkpoint(config, 123))
        rng = SplitMix64(55)
        prompts = []
        for _ in range(20):
            vision = (2.0 * rng.uniforms(400 * 256) - 1.0).reshape(400, 256).astype(np.float32)
            suffix = [rng.choice(512) for _ in range(112)]
            prompts.append(MultimodalPrompt([], vision, suffix))
        assert all(len(p) == 512 for p in prompts)
        dcfg = DecodeConfig(max_new_tokens=128, eos_id=None, seed=0)
        spin = spin_policy(engine, r=0.25, alpha=0.0, layer_lo=1, layer_hi=8)

        def run_plain(prompt, policy):
            res = generate(engine, prompt, dcfg, policy)
            return res.n_new_tokens, res.decode_latency

        def run_two_pass(prompt):
            # contrastive-style baseline: the same engine runs twice per step
            cache_a = engine.new_cache()
            cache_b = engine.new_cache()
            layout = prompt.layout()
            logits = engine.prefill(prompt, cache_a)
            engine.prefill(prompt, cache_b)
            t0 = time.perf_counter()
            out = []
            for _ in range(dcfg.max_new_tokens):
                nxt = int(np.argmax(logits))
                out.append(nxt)
                if len(out) >= dcfg.max_new_tokens:
                    break
                logits = engine.step([nxt], cache_a, layout)[0]
                engine.step([nxt], cache_b, layout)  # second pass per step
            return len(out), time.perf_counter() - t0

        for warm in (lambda: run_plain(prompts[0], None),
                     lambda: run_plain(prompts[0], spin),
                     lambda: run_two_pass(prompts[0])):
            warm()
        vs_base, vs_two_pass = [], []
        for _ in range(3):
            # interleave variants per prompt, counterbalancing their order,
            # so machine drift and position-in-pair bias cancel out
            totals = {"base": [0, 0.0], "spin": [0, 0.0], "two": [0, 0.0]}
            for j, p in enumerate(prompts):
                plan = [("base", lambda: run_plain(p, None)),
                        ("spin", lambda: run_plain(p, spin)),
                        ("two", lambda: run_two_pass(p))]
                for name, runner in plan if j % 2 == 0 else reversed(plan):
                    n, dt = runner()
                    totals[name][0] += n
                    totals[name][1] += dt
            tps = {k: n / dt for k, (n, dt) in totals.items()}
            vs_base.append(tps["spin"] / tps["base"])
            vs_two_pass.append(tps["spin"] / tps["two"])
        m_base = statistics.median(vs_base)
        m_two = statistics.median(vs_two_pass)
        print(f"\n  spin/baseline median ratio: {m_base:.3f} (need >= 0.90)")
        print(f"  spin/two-pass median ratio: {m_two:.3f} (need >= 1.50)")
        assert m_base >= 0.90
        assert m_two >= 1.50


def test_criterion_07_analytic_attention_profile():
    """Uniform-attention checkpoint with a 76%-of-context vision span gives
    per-layer vision fraction 0.76 +/- 0.01; fractions sum to 1 +/- 1e-6."""
    with criterion(7, "analytic attention profile"):
        config = ModelConfig(n_layers=3, n_heads=4, d_model=32, d_ffn=48,
                             vocab_size=64, max_seq_len=128)
        engine = Engine(uniform_attention_checkpoint(config, seed=2))
        vision = np.linspace(-1.0, 1.0, 76 * 32, dtype=np.float32).reshape(76, 32)
        prompt = MultimodalPrompt([1] * 10, vision, [2] * 13)  # 99 tokens, span 76
        profile = profile_attention(engine, [prompt],
                                    DecodeConfig(max_new_tokens=2, eos_id=None, seed=0))
        # single profiled decode step attends uniformly over 100 rows
        assert np.abs(profile.vision - 0.76).max() <= 0.01
        assert np.abs(profile.vision + profile.text - 1.0).max() <= 1e-6


def test_criterion_08_decoding_contracts():
    """beam_width=1 == greedy on 50 prompts; tiny-p nucleus == greedy; a
    rigged 3-token distribution matches target frequencies within 2%; the
    repetition-penalty contract examples hold exactly."""
    with criterion(8, "decoding contracts"):
        engine = tiny_engine(seed=77)
        for i in range(50):
            prompt = random_prompt(i, engine.config,
                                   n_prefix=i % 3, n_vision=1 + i % 4, n_suffix=1 + i % 3)
            g = generate(engine, prompt, DecodeConfig(max_new_tokens=8, eos_id=0, seed=i))
            b = generate(engine, prompt,
                         DecodeConfig(strategy="beam", beam_width=1, max_new_tokens=8,
                                      eos_id=0, seed=i))
            assert b.token_ids == g.token_ids, i
            n = generate(engine, prompt,
                         DecodeConfig(strategy="nucleus", nucleus_p=1e-9,
                                      max_new_tokens=8, eos_id=0, seed=i))
            assert n.token_ids == g.token_ids, i

        target = np.array([0.5, 0.3, 0.2])
        rng = SplitMix64(4096)
        counts = np.zeros(3)
        logits = np.log(target).astype(np.float32)
        for _ in range(10_000):
            counts[_nucleus_pick(logits, 1.0, rng)] += 1
        assert np.abs(counts / 10_000 - target).max() < 0.02

        z = np.array([2.0, -2.0, 0.7], np.float32)
        assert np.array_equal(apply_repetition_penalty(z, [0, 1], 1.0), z)
        out = apply_repetition_penalty(z, [0, 1], 2.0)
        assert out[0] == 1.0 and out[1] == -4.0 and out[2] == np.float32(0.7)


def test_criterion_09_three_stage_tuner():
    """Stage selections match hand-derived answers for the F1-drop and
    lambda-scalarization rules on stubbed eval results."""
    with criterion(9, "three-stage tuner on stubbed evals"):
        table = {
            None: {"c_s": 0.40, "f1": 0.80},
            (0.10, 1, 4, 0.0): {"c_s": 0.18, "f1": 0.765},  # drop 0.035 > 0.03: rejected
            (0.20, 1, 4, 0.0): {"c_s": 0.26, "f1": 0.775},  # drop 0.025: kept
            (0.30, 1, 4, 0.0): {"c_s": 0.24, "f1": 0.760},  # drop 0.040: rejected
            (0.20, 1, 2, 0.0): {"c_s": 0.22, "f1": 0.780},
            (0.20, 3, 4, 0.0): {"c_s": 0.30, "f1": 0.790},
            (0.20, 1, 2, 0.05): {"c_s": 0.30, "f1": 0.795},
            (0.20, 1, 2, 0.10): {"c_s": 0.33, "f1": 0.800},
        }

        def eval_fn(cfg):
            if cfg is None:
                return table[None]
            return table[(cfg.r, cfg.layer_lo, cfg.layer_hi, cfg.alpha)]

        res = tune_three_stage(eval_fn, n_layers=4, r_grid=[0.10, 0.20, 0.30],
                               alpha_grid=[0.0, 0.05, 0.10], layer_grids=[(1, 2), (3, 4)])
        # stage 1: only r=0.20 satisfies the <=3-point F1 drop
        assert res.stages[0].selected.config.r == 0.20
        assert res.stages[0].entries[0].satisfies_constraint is False
        assert res.stages[0].entries[2].satisfies_constraint is False
        # stage 2: layers (1,2) give the lower C_s
        sel2 = res.stages[1].selected.config
        assert (sel2.layer_lo, sel2.layer_hi) == (1, 2)
        # stage 3 objectives at lambda=1:
        #   a=0.00 -> 0.22 + (0.80-0.780) = 0.240
        #   a=0.05 -> 0.30 + (0.80-0.795) = 0.305
        #   a=0.10 -> 0.33 + 0.0          = 0.330
        assert res.stages[2].selected.config.alpha == 0.0
        objectives = [e.objective for e in res.stages[2].entries]
        assert objectives == pytest.approx([0.240, 0.305, 0.330])

        # exact objective tie (0.5 == 0.25 + 0.25 in binary): earliest wins
        tie_table = {
            None: {"c_s": 0.50, "f1": 0.75},
            (0.20, 1, 2, 0.0): {"c_s": 0.50, "f1": 0.75},   # objective 0.5 exactly
            (0.20, 1, 2, 0.05): {"c_s": 0.25, "f1": 0.50},  # 0.25 + 0.25 = 0.5 exactly
        }
        res_tie = tune_three_stage(
            lambda c: tie_table[None if c is None else (c.r, c.layer_lo, c.layer_hi, c.alpha)],
            n_layers=2, r_grid=[0.20], alpha_grid=[0.0, 0.05], layer_grids=[(1, 2)],
        )
        assert res_tie.stages[2].entries[0].objective == res_tie.stages[2].entries[1].objective
        assert res_tie.selected.alpha == 0.0

        # lambda=0 degenerates to min C_s
        res0 = tune_three_stage(eval_fn, n_layers=4, r_grid=[0.20], alpha_grid=[0.0, 0.05, 0.10],
                                layer_grids=[(1, 2)], tradeoff_lambda=0.0)
        assert res0.selected.alpha == 0.0

        # repeated invocation selects identically
        res_again = tune_three_stage(eval_fn, n_layers=4, r_grid=[0.10, 0.20, 0.30],
                                     alpha_grid=[0.0, 0.05, 0.10], layer_grids=[(1, 2), (3, 4)])
        assert res_again.selected == res.selected


def test_criterion_10_reproducibility_closure(workspace, tmp_path):
    """Re-running any emitted report's embedded config reproduces
    token-identical generations (10 random configs)."""
    with criterion(10, "reproducibility closure"):
        rng = SplitMix64(1234)
        for i in range(10):
            strategy = ("greedy", "beam", "nucleus")[rng.choice(3)]
            decode = {
                "strategy": strategy,
                "beam_width": 2,
                "nucleus_p": 0.85,
                "max_new_tokens": 5,
                "eos_id": 0,
                "seed": int(rng.next_u64() % 10_000),
            }
            overrides = {
                "decode": decode,
                "eval": {"max_records": 3, "pope_max_new_tokens": 3},
                "output": {"report_json": str(tmp_path / f"report{i}.json")},
            }
            if rng.uniform() < 0.7:
                overrides["spin"] = {
                    "strategy": ("image_attention", "query_norm")[rng.choice(2)],
                    "r": (0.25, 0.5)[rng.choice(2)],
                    "alpha": (0.0, 0.1)[rng.choice(2)],
                    "layer_range": [1, 1 + rng.choice(2)],
                }
            cfg_path = workspace.run_config(tmp_path / f"run{i}.json", **overrides)
            first = run_eval(load_run_config(cfg_path, environ={}))

            embedded = json.loads((tmp_path / f"report{i}.json").read_text())["config"]
            embedded["output"] = {}
            replay_path = tmp_path / f"replay{i}.json"
            replay_path.write_text(json.dumps(embedded))
            second = run_eval(load_run_config(replay_path, environ={}), write_outputs=False)
            assert first["generations"] == second["generations"], i
