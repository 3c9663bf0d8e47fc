from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_infer.engine import MultimodalPrompt
from spin_infer.errors import DataError
from spin_infer.metrics import (
    CaptionRecord,
    ObjectVocabulary,
    PopeItem,
    chair_scores,
    extract_objects,
    f1_score,
    parse_pope_answer,
    pope_eval,
)
from spin_infer.prng import SplitMix64

from helpers import build_multiturn_context


@pytest.fixture
def vocab():
    return ObjectVocabulary({
        "dog": "dog", "puppy": "dog",
        "cat": "cat", "kitten": "cat",
        "chair": "chair",
        "hot dog": "hot dog",
        "car": "car", "automobile": "car",
        "tree": "tree",
    })


class TestVocabulary:
    def test_canonical_must_map_to_itself(self):
        # 'cat' never appears as a canonical value, so cat->dog is a synonym
        ObjectVocabulary({"dog": "dog", "cat": "dog"})
        # but a name that IS canonical may not map to a different canonical
        with pytest.raises(DataError):
            ObjectVocabulary({"dog": "cat", "cat": "cat", "dog2": "dog"})
        with pytest.raises(DataError, match="empty vocabulary surface form for 'dog'"):
            ObjectVocabulary({"dog": "dog", "?!": "dog"})  # punctuation only: no words

    def test_tsv_roundtrip(self, vocab, tmp_path):
        p = tmp_path / "vocab.tsv"
        vocab.to_tsv(p)
        loaded = ObjectVocabulary.from_tsv(p)
        assert loaded.surface_map == vocab.surface_map

    def test_tsv_bad_line_reports_lineno(self, tmp_path):
        p = tmp_path / "vocab.tsv"
        p.write_text("dog\tdog\n\nbroken line\n")  # a blank line is skipped, and counted
        with pytest.raises(DataError, match=":3:"):
            ObjectVocabulary.from_tsv(p)
        p.write_text("\n \n")
        with pytest.raises(DataError, match="empty vocabulary$"):
            ObjectVocabulary.from_tsv(p)


class TestExtractObjects:
    def test_synonym_mapping_with_instances(self, vocab):
        m = extract_objects("a dog and a puppy", vocab)
        assert m.objects == {"dog"}
        assert m.instances == ["dog", "dog"]

    def test_empty_caption(self, vocab):
        m = extract_objects("", vocab)
        assert m.objects == set()
        assert m.instances == []

    def test_longest_match_wins(self, vocab):
        m = extract_objects("a hot dog on a plate", vocab)
        assert m.objects == {"hot dog"}
        assert m.instances == ["hot dog"]

    def test_punctuation_and_case(self, vocab):
        m = extract_objects("The Cat, a DOG; and one (chair)!", vocab)
        assert m.objects == {"cat", "dog", "chair"}

    def test_unmatched_words_skipped(self, vocab):
        m = extract_objects("nothing to see here", vocab)
        assert m.instances == []


def brute_force_chair(captions_and_gt, vocab):
    """Independent recount with Fractions; returns exact ratios."""
    inst_total = inst_halluc = cap_halluc = 0
    tp = mentioned = gt_total = 0
    for caption, gt in captions_and_gt:
        mentions = extract_objects(caption, vocab)
        bad = [m for m in mentions.instances if m not in gt]
        inst_total += len(mentions.instances)
        inst_halluc += len(bad)
        cap_halluc += bool(bad)
        tp += len(mentions.objects & set(gt))
        mentioned += len(mentions.objects)
        gt_total += len(gt)
    c_s = Fraction(cap_halluc, len(captions_and_gt))
    c_i = Fraction(inst_halluc, inst_total) if inst_total else Fraction(0)
    p = Fraction(tp, mentioned) if mentioned else Fraction(0)
    r = Fraction(tp, gt_total) if gt_total else Fraction(0)
    f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
    return c_s, c_i, p, r, f1


class TestChair:
    def test_worked_example(self, vocab):
        records = [
            CaptionRecord("a", "a dog and a cat", frozenset({"dog", "cat"})),
            CaptionRecord("b", "a dog near a chair", frozenset({"dog"})),
        ]
        res = chair_scores(records, vocab)
        assert Fraction(res.n_hallucinated_captions, res.n_captions) == Fraction(1, 2)
        assert res.n_instances == 4
        assert res.n_hallucinated_instances == 1
        assert res.c_s == 0.5
        assert res.c_i == 0.25

    def test_perfect_alignment(self, vocab):
        records = [
            CaptionRecord("a", "a dog and a cat", frozenset({"dog", "cat"})),
            CaptionRecord("b", "one chair", frozenset({"chair"})),
        ]
        res = chair_scores(records, vocab)
        assert (res.c_s, res.c_i, res.f1) == (0.0, 0.0, 1.0)

    def test_total_hallucination(self, vocab):
        records = [CaptionRecord("a", "a dog", frozenset({"cat"}))]
        res = chair_scores(records, vocab)
        assert res.c_i == 1.0
        assert res.c_s == 1.0

    def test_empty_mention_contributes_zero(self, vocab):
        records = [
            CaptionRecord("a", "nothing here", frozenset({"dog"})),
            CaptionRecord("b", "a cat", frozenset({"cat"})),
        ]
        res = chair_scores(records, vocab)
        assert res.n_instances == 1
        assert res.c_i == 0.0
        assert res.c_s == 0.0

    def test_non_canonical_gt_rejected(self, vocab):
        with pytest.raises(DataError):
            chair_scores([CaptionRecord("a", "x", frozenset({"puppy"}))], vocab)
        with pytest.raises(DataError, match="caption record 'a' has an empty ground-truth set"):
            CaptionRecord("a", "x", frozenset())
        with pytest.raises(DataError, match="chair_scores needs at least one record"):
            chair_scores([], vocab)

    def test_matches_brute_force_on_random_corpora(self, vocab):
        words = ["dog", "puppy", "cat", "chair", "hot", "tree", "sky", "the", "a"]
        canon = ["dog", "cat", "chair", "hot dog", "car", "tree"]
        rng = SplitMix64(17)
        for _ in range(30):
            n = 1 + rng.choice(20)
            records = []
            raw = []
            for i in range(n):
                caption = " ".join(words[rng.choice(len(words))] for _ in range(rng.choice(12)))
                gt = frozenset({canon[rng.choice(len(canon))] for _ in range(1 + rng.choice(3))})
                records.append(CaptionRecord(str(i), caption, gt))
                raw.append((caption, gt))
            res = chair_scores(records, vocab)
            c_s, c_i, p, r, f1 = brute_force_chair(raw, vocab)
            assert Fraction(res.n_hallucinated_captions, res.n_captions) == c_s
            if res.n_instances:
                assert Fraction(res.n_hallucinated_instances, res.n_instances) == c_i
            assert res.f1 == pytest.approx(float(f1), abs=1e-12)

    def test_f1_identity(self, vocab):
        records = [
            CaptionRecord("a", "a dog and a chair", frozenset({"dog", "cat"})),
            CaptionRecord("b", "a cat", frozenset({"cat", "tree"})),
        ]
        res = chair_scores(records, vocab)
        assert res.f1 == pytest.approx(f1_score(res.precision, res.recall))


class TestPope:
    def test_answer_parsing(self):
        assert parse_pope_answer("Yes, there is.") == "yes"
        assert parse_pope_answer("No") == "no"
        assert parse_pope_answer("I see no dog") == "no"
        assert parse_pope_answer("nothing matches") is None
        assert parse_pope_answer("") is None

    def test_hand_confusion_matrix(self):
        items = [
            PopeItem("i", "dog", "random", "yes", "Yes"),
            PopeItem("i", "cat", "random", "no", "No"),
            PopeItem("i", "car", "random", "yes", "No"),
        ]
        rep = pope_eval(items)
        sc = rep.splits["random"]
        assert (sc.tp, sc.fp, sc.fn, sc.tn) == (1, 0, 1, 1)
        assert sc.accuracy == pytest.approx(2 / 3)
        assert sc.precision == 1.0
        assert sc.recall == 0.5
        assert sc.f1 == pytest.approx(2 / 3)

    def test_all_correct(self):
        items = [
            PopeItem("i", "dog", "popular", "yes", "yes"),
            PopeItem("i", "cat", "popular", "no", "no it is not"),
        ]
        rep = pope_eval(items)
        assert rep.overall.accuracy == 1.0
        assert rep.overall.f1 == 1.0

    def test_unparsed_counted_wrong(self):
        items = [
            PopeItem("i", "dog", "random", "yes", "???"),
            PopeItem("i", "cat", "random", "no", "???"),
        ]
        rep = pope_eval(items)
        assert rep.overall.unparsed == 2
        assert rep.overall.accuracy == 0.0
        assert rep.splits["random"].fn == 1
        assert rep.splits["random"].fp == 1

    def test_overall_is_sum_of_splits(self):
        rng = SplitMix64(23)
        items = []
        for i in range(60):
            split = ("random", "popular", "adversarial")[rng.choice(3)]
            gold = ("yes", "no")[rng.choice(2)]
            ans = ("yes", "no", "maybe")[rng.choice(3)]
            items.append(PopeItem(f"i{i}", "dog", split, gold, ans))
        rep = pope_eval(items)
        for fld in ("tp", "fp", "fn", "tn", "unparsed"):
            assert getattr(rep.overall, fld) == sum(getattr(s, fld) for s in rep.splits.values())

    def test_bad_gold_or_split_rejected(self):
        with pytest.raises(DataError):
            PopeItem("i", "dog", "random", "maybe")
        with pytest.raises(DataError):
            PopeItem("i", "dog", "weird", "yes")
        with pytest.raises(DataError, match="pope_eval needs at least one item"):
            pope_eval([])

    def test_question_template(self):
        item = PopeItem("i", "hot dog", "random", "yes")
        assert item.question() == "Is there a hot dog in the image?"


class TestMultiturn:
    def base(self):
        return MultimodalPrompt([1], np.zeros((3, 8), np.float32), [2, 3])

    def test_first_turn_has_no_pairs(self):
        ctx = build_multiturn_context(self.base(), [], [7, 8])
        assert ctx.suffix_ids == [2, 3, 7, 8]

    def test_fourth_turn_has_three_pairs_in_order(self):
        turns = [([10], [11]), ([12], [13, 14]), ([15], [16])]
        ctx = build_multiturn_context(self.base(), turns, [17])
        assert ctx.suffix_ids == [2, 3, 10, 11, 12, 13, 14, 15, 16, 17]

    @given(st.lists(st.tuples(st.lists(st.integers(0, 9), min_size=1, max_size=4),
                              st.lists(st.integers(0, 9), min_size=0, max_size=4)),
                    max_size=6),
           st.lists(st.integers(0, 9), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_length_accounting(self, turns, next_q):
        base = self.base()
        ctx = build_multiturn_context(base, turns, next_q)
        expect = len(base) + sum(len(q) + len(a) for q, a in turns) + len(next_q)
        assert len(ctx) == expect

    def test_contexts_strictly_increase(self):
        base = self.base()
        turns = []
        prev_len = 0
        for t in range(5):
            ctx = build_multiturn_context(base, turns, [5])
            assert len(ctx) > prev_len
            prev_len = len(ctx)
            turns.append(([5], [6, 7]))

