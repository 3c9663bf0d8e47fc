import json
import re

import numpy as np
import pytest

from spin_infer.corpus import (
    SyntheticCorpusSpec,
    TokenTable,
    _unit,
    build_token_table,
    generate_synthetic_corpus,
    load_corpus,
)
from spin_infer.errors import ConfigError, DataError
from spin_infer.metrics import ObjectVocabulary, extract_objects


def spec(**kw):
    base = dict(n_images=10, span_len=4, embed_dim=16, n_objects=12,
                objects_per_image=3, seed=5)
    base.update(kw)
    return SyntheticCorpusSpec(**base)


class TestSpec:
    @pytest.mark.parametrize("kw", [
        {"n_images": 0}, {"span_len": 0}, {"embed_dim": 0},
        {"objects_per_image": 0}, {"n_objects": 3, "objects_per_image": 3},
        {"n_objects": 500}, {"pope_pairs_per_split": 0},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            spec(**kw)


class TestTokenTable:
    def test_encode_decode_roundtrip(self):
        t = TokenTable(["</s>", "yes", "no", "dog"])
        ids = t.encode_text("Dog, yes!")
        assert ids == [3, 1]
        assert t.decode(ids) == "dog yes"

    def test_eos_skipped_in_decode(self):
        t = TokenTable(["</s>", "a"])
        assert t.decode([1, 0]) == "a"

    def test_unknown_word(self):
        t = TokenTable(["</s>", "a"])
        with pytest.raises(DataError):
            t.encode_words(["zzz"])

    def test_out_of_range_id(self):
        t = TokenTable(["</s>", "a"])
        with pytest.raises(DataError):
            t.decode([5])

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            TokenTable(["a", "a"])
        for eos_id in (-1, 2):
            with pytest.raises(DataError, match=f"eos_id {eos_id} outside token table of size 2"):
                TokenTable(["a", "b"], eos_id=eos_id)

    def test_save_load(self, tmp_path):
        t = build_token_table(["dog", "hot dog"], {"puppy": "dog"})
        p = tmp_path / "tokens.json"
        t.save(p)
        loaded = TokenTable.load(p)
        assert loaded.tokens == t.tokens
        assert loaded.eos_id == t.eos_id

    @pytest.mark.parametrize("tokens", ["abc", [1, 2.5, None], {"a": 1}, None],
                             ids=["string", "non_strings", "object", "null"])
    def test_tokens_not_a_list_of_strings_rejected(self, tmp_path, tokens):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"tokens": tokens, "eos_id": 0}))
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: tokens(\[0\])?: expected "):
            TokenTable.load(p)

    @pytest.mark.parametrize("eos_id", [1.9, "2", True, None], ids=["float", "string", "bool", "null"])
    def test_non_integer_eos_id_rejected(self, tmp_path, eos_id):
        p = tmp_path / "tokens.json"
        p.write_text(json.dumps({"tokens": ["</s>", "a", "b"], "eos_id": eos_id}))
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: eos_id: expected int, got "):
            TokenTable.load(p)


class TestGeneration:
    def test_deterministic_bytes(self, tmp_path):
        a = generate_synthetic_corpus(spec(), tmp_path / "a")
        b = generate_synthetic_corpus(spec(), tmp_path / "b")
        assert a.corpus.read_bytes() == b.corpus.read_bytes()
        assert a.vocab.read_bytes() == b.vocab.read_bytes()
        assert a.tokens.read_bytes() == b.tokens.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = generate_synthetic_corpus(spec(), tmp_path / "a")
        b = generate_synthetic_corpus(spec(seed=6), tmp_path / "b")
        assert a.corpus.read_bytes() != b.corpus.read_bytes()

    def test_counts_and_balance(self, tmp_path):
        paths = generate_synthetic_corpus(spec(), tmp_path / "c")
        records = load_corpus(paths.corpus)
        assert len(records) == 10
        items = [it for r in records for it in r.pope]
        assert len(items) == 60  # 6 per image
        for split in ("random", "popular", "adversarial"):
            split_items = [it for it in items if it.split == split]
            assert len(split_items) == 20
            assert sum(it.gold == "yes" for it in split_items) == 10

    def test_yes_items_planted_no_items_not(self, tmp_path):
        paths = generate_synthetic_corpus(spec(), tmp_path / "c")
        for rec in load_corpus(paths.corpus):
            planted = set(rec.gt_objects)
            for it in rec.pope:
                if it.gold == "yes":
                    assert it.object_name in planted
                else:
                    assert it.object_name not in planted

    def test_adversarial_never_planted(self, tmp_path):
        paths = generate_synthetic_corpus(spec(n_images=30), tmp_path / "c")
        for rec in load_corpus(paths.corpus):
            for it in rec.pope:
                if it.split == "adversarial":
                    if it.gold == "no":
                        assert it.object_name not in set(rec.gt_objects)

    def test_unit_redraws_a_vanishing_vector(self):
        class Stream:  # its first draw is all 0.5, which maps to the zero vector
            draws = [np.full(3, 0.5), np.array([1.0, 0.5, 0.5])]

            def uniforms(self, n):
                return self.draws.pop(0)

        assert np.array_equal(_unit(Stream(), 3), [1.0, 0.0, 0.0])

    def test_vision_shape_and_dtype(self, tmp_path):
        paths = generate_synthetic_corpus(spec(span_len=7, embed_dim=24), tmp_path / "c")
        for rec in load_corpus(paths.corpus):
            assert rec.vision.shape == (7, 24)
            assert rec.vision.dtype == np.float32

    def test_gt_objects_are_canonical(self, tmp_path):
        paths = generate_synthetic_corpus(spec(), tmp_path / "c")
        vocab = ObjectVocabulary.from_tsv(paths.vocab)
        canon = set(vocab.canonical)
        for rec in load_corpus(paths.corpus):
            assert set(rec.gt_objects) <= canon

    def test_question_words_encodable(self, tmp_path):
        paths = generate_synthetic_corpus(spec(), tmp_path / "c")
        table = TokenTable.load(paths.tokens)
        for rec in load_corpus(paths.corpus):
            for it in rec.pope:
                ids = table.encode_text(it.question())
                assert ids  # every question tokenizes

    def test_captions_containing_objects_extract(self, tmp_path):
        # the token table and object vocab agree: any generated word sequence
        # mentioning an object name is extractable
        paths = generate_synthetic_corpus(spec(), tmp_path / "c")
        table = TokenTable.load(paths.tokens)
        vocab = ObjectVocabulary.from_tsv(paths.vocab)
        rec = load_corpus(paths.corpus)[0]
        name = rec.gt_objects[0]
        caption = table.decode(table.encode_text(f"there is a {name} in the image"))
        assert name in extract_objects(caption, vocab).objects


class TestLoader:
    def test_bad_json_line_reports_lineno(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        record = {"id": "a", "vision_embeddings": [[0.0]], "prompt_ids": [1], "gt_objects": ["dog"]}
        p.write_text(json.dumps(record) + "\ngarbage\n")
        with pytest.raises(DataError, match=":2:"):
            load_corpus(p)

    def test_missing_key_reports_lineno(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps({"id": "a"}) + "\n")
        with pytest.raises(DataError, match=":1:"):
            load_corpus(p)

    def test_empty_corpus_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text("\n")
        with pytest.raises(DataError):
            load_corpus(p)

    @pytest.mark.parametrize("bad", [1.9, 2.0, "3", True, None, [1]],
                             ids=["float", "integral_float", "string", "bool", "null", "list"])
    def test_non_integer_prompt_id_rejected(self, tmp_path, bad):
        p = tmp_path / "corpus.jsonl"
        good = {"id": "a", "vision_embeddings": [[0.0]], "prompt_ids": [1], "gt_objects": ["dog"]}
        p.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", "prompt_ids": [1, bad]}) + "\n")
        with pytest.raises(DataError, match=r":2: prompt_ids\[1\]: expected int, got "):
            load_corpus(p)

    def test_prompt_ids_not_a_list_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        record = {"id": "a", "vision_embeddings": [[0.0]], "prompt_ids": "12", "gt_objects": ["dog"]}
        p.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataError, match=":1: prompt_ids"):
            load_corpus(p)

    def test_duplicate_record_id_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        record = {"id": "a", "vision_embeddings": [[0.0]], "prompt_ids": [1], "gt_objects": ["dog"]}
        p.write_text("\n".join(json.dumps({**record, "id": i}) for i in ("a", "b", "a")) + "\n")
        with pytest.raises(DataError, match=":3: duplicate record id 'a'"):
            load_corpus(p)
