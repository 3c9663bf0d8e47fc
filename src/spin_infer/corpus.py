"""Synthetic evaluation corpus with a controllable hallucination ground truth.

Each image is a planted subset of object names; its vision embeddings are
the mean of the planted objects' (fixed, seeded) unit directions plus
seeded noise, so the corpus is a pure function of its spec. POPE probes are
drawn per split: random picks any non-planted object, popular picks the
globally most-planted one, adversarial picks the non-planted object that
co-occurs most with the planted set.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import schema
from .errors import ConfigError, DataError
from .metrics import ObjectVocabulary, PopeItem, caption_words
from .prng import SplitMix64, derive_seed

# (canonical, synonyms); multi-word names exercise longest-match extraction
BASE_OBJECTS: list[tuple[str, list[str]]] = [
    ("dog", ["puppy"]),
    ("cat", ["kitten", "kitty"]),
    ("person", ["man", "woman"]),
    ("car", ["automobile"]),
    ("chair", []),
    ("table", []),
    ("bird", []),
    ("horse", []),
    ("cow", []),
    ("sheep", []),
    ("boat", []),
    ("train", []),
    ("bus", []),
    ("truck", []),
    ("bicycle", ["bike"]),
    ("motorcycle", []),
    ("airplane", ["plane"]),
    ("bench", []),
    ("couch", ["sofa"]),
    ("bed", []),
    ("tv", ["television"]),
    ("laptop", []),
    ("phone", ["cellphone"]),
    ("book", []),
    ("clock", []),
    ("vase", []),
    ("bottle", []),
    ("cup", ["mug"]),
    ("bowl", []),
    ("fork", []),
    ("knife", []),
    ("spoon", []),
    ("banana", []),
    ("apple", []),
    ("orange", []),
    ("pizza", []),
    ("sandwich", []),
    ("cake", []),
    ("donut", ["doughnut"]),
    ("hot dog", []),
    ("traffic light", ["stoplight"]),
    ("fire hydrant", []),
    ("teddy bear", []),
    ("umbrella", []),
    ("backpack", []),
    ("keyboard", []),
    ("mouse", []),
    ("scissors", []),
]

INSTRUCTION_TEXT = "please describe the image in detail"
QUESTION_WORDS = ["is", "there", "a", "in", "the", "image"]
FILLER_WORDS = ["and", "some", "on", "near", "next", "to", "with", "an", "of"]
EOS_TOKEN = "</s>"


@dataclass
class TokenTable:
    """Toy id<->word table standing in for a tokenizer; its file is the JSON
    object {"tokens": [...], "eos_id": 0}."""

    tokens: list[str]
    eos_id: int = 0

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise DataError("token table contains duplicate entries")
        if not 0 <= self.eos_id < len(self.tokens):
            raise DataError(f"eos_id {self.eos_id} outside token table of size {len(self.tokens)}")
        self._ids = {w: i for i, w in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode_words(self, words) -> list[int]:
        try:
            return [self._ids[w] for w in words]
        except KeyError as e:
            raise DataError(f"word {e.args[0]!r} not in token table") from e

    def encode_text(self, text: str) -> list[int]:
        return self.encode_words(caption_words(text))

    def decode(self, ids) -> str:
        words = []
        for i in ids:
            if not 0 <= i < len(self.tokens):
                raise DataError(f"token id {i} outside token table of size {len(self.tokens)}")
            if i == self.eos_id:
                continue
            words.append(self.tokens[i])
        return " ".join(words)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh)

    @classmethod
    def load(cls, path: str | Path) -> "TokenTable":
        with open(path, encoding="utf-8") as fh:
            return schema.load(cls, fh.read(), str(path), DataError)


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    n_images: int
    span_len: int
    embed_dim: int
    n_objects: int = 24
    objects_per_image: int = 3
    pope_pairs_per_split: int = 1
    zipf_s: float = 1.1
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_images < 1 or self.span_len < 1 or self.embed_dim < 1:
            raise ConfigError("corpus spec counts must be >= 1")
        if self.objects_per_image < 1:
            raise ConfigError("corpus spec objects_per_image must be >= 1")
        if self.pope_pairs_per_split < 1:
            raise ConfigError("corpus spec pope_pairs_per_split must be >= 1")
        if self.n_objects > len(BASE_OBJECTS):
            raise ConfigError(f"corpus spec n_objects capped at {len(BASE_OBJECTS)}")
        if self.n_objects <= self.objects_per_image:
            raise ConfigError(
                "object vocabulary too small for the requested splits: need "
                f"n_objects > objects_per_image ({self.n_objects} <= {self.objects_per_image})"
            )


@dataclass
class CorpusRecord:
    record_id: str
    vision: np.ndarray
    prompt_ids: list[int]
    gt_objects: list[str]
    pope: list[PopeItem]


@dataclass
class PopeEntry:  # one POPE probe of a corpus line
    object: str
    gold: str
    split: str


@dataclass
class CorpusLine:  # one line of a corpus JSONL file
    id: str
    vision_embeddings: list[list[float]]
    prompt_ids: list[int]
    gt_objects: list[str]
    pope: list[PopeEntry] = field(default_factory=list)

    def __post_init__(self):
        rows = self.vision_embeddings
        if not rows or len(set(map(len, rows))) > 1:
            raise DataError("vision_embeddings must be a non-empty 2-D array")


@dataclass
class CorpusPaths:
    corpus: Path
    vocab: Path
    tokens: Path


def build_token_table(object_names: list[str], synonyms: dict[str, str]) -> TokenTable:
    words = [EOS_TOKEN, "yes", "no"] + QUESTION_WORDS + caption_words(INSTRUCTION_TEXT) + FILLER_WORDS
    words += [w for name in list(object_names) + sorted(synonyms) for w in caption_words(name)]
    return TokenTable(list(dict.fromkeys(words)), eos_id=0)


def _unit(rng: SplitMix64, dim: int) -> np.ndarray:
    v = 2.0 * rng.uniforms(dim) - 1.0
    n = np.linalg.norm(v)
    while n < 1e-9:  # vanishing draw; retry deterministically
        v = 2.0 * rng.uniforms(dim) - 1.0
        n = np.linalg.norm(v)
    return v / n


def _weighted_sample_distinct(rng: SplitMix64, weights: np.ndarray, k: int) -> list[int]:
    chosen: list[int] = []
    w = weights.astype(np.float64).copy()
    for _ in range(k):
        w_active = w.copy()
        w_active[chosen] = 0.0
        csum = np.cumsum(w_active)
        u = rng.uniform() * csum[-1]
        idx = int(np.searchsorted(csum, u, side="right"))
        chosen.append(min(idx, len(w) - 1))
    return chosen


def object_direction(seed: int, name: str, dim: int) -> np.ndarray:
    """Fixed unit direction assigned to an object name (key direction)."""
    return _unit(SplitMix64(derive_seed(seed, "objdir", name)), dim)


def generate_synthetic_corpus(spec: SyntheticCorpusSpec, out_dir: str | Path) -> CorpusPaths:
    """Write corpus.jsonl, vocab.tsv, and tokens.json under out_dir.

    Byte-identical output for identical specs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chosen = BASE_OBJECTS[: spec.n_objects]
    names = [c for c, _ in chosen]
    synonyms = {s: c for c, syns in chosen for s in syns}
    vocab = ObjectVocabulary({**{c: c for c in names}, **synonyms})
    table = build_token_table(names, synonyms)

    weights = 1.0 / np.power(np.arange(1, spec.n_objects + 1, dtype=np.float64), spec.zipf_s)

    planted: list[list[int]] = []
    for i in range(spec.n_images):
        rng = SplitMix64(derive_seed(spec.seed, "plant", i))
        planted.append(sorted(_weighted_sample_distinct(rng, weights, spec.objects_per_image)))

    counts = np.zeros(spec.n_objects, dtype=np.int64)
    cooc = np.zeros((spec.n_objects, spec.n_objects), dtype=np.float64)
    for objs in planted:
        for a in objs:
            counts[a] += 1
            for b in objs:
                if a != b:
                    cooc[a, b] += 1

    directions = np.stack([object_direction(spec.seed, n, spec.embed_dim) for n in names])
    instruction_ids = table.encode_text(INSTRUCTION_TEXT)

    corpus_path = out_dir / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i in range(spec.n_images):
            rng = SplitMix64(derive_seed(spec.seed, "record", i))
            objs = planted[i]
            base = directions[objs].mean(axis=0)
            rows = [base + spec.noise * _unit(rng, spec.embed_dim) for _ in range(spec.span_len)]
            vision = np.asarray(rows, dtype=np.float32)

            non_planted = [j for j in range(spec.n_objects) if j not in objs]
            pope = []
            for split in ("random", "popular", "adversarial"):
                for _ in range(spec.pope_pairs_per_split):
                    yes_obj = objs[rng.choice(len(objs))]
                    if split == "random":
                        no_obj = non_planted[rng.choice(len(non_planted))]
                    elif split == "popular":
                        no_obj = max(non_planted, key=lambda j: (counts[j], -j))
                    else:
                        no_obj = max(non_planted, key=lambda j: (cooc[j, objs].sum(), -j))
                    pope += [PopeEntry(names[yes_obj], "yes", split), PopeEntry(names[no_obj], "no", split)]
            line = CorpusLine(f"img{i:04d}", vision.tolist(), instruction_ids, [names[j] for j in objs], pope)
            fh.write(json.dumps(asdict(line)) + "\n")

    vocab_path = out_dir / "vocab.tsv"
    vocab.to_tsv(vocab_path)
    tokens_path = out_dir / "tokens.json"
    table.save(tokens_path)
    return CorpusPaths(corpus=corpus_path, vocab=vocab_path, tokens=tokens_path)


def load_corpus(path: str | Path) -> list[CorpusRecord]:
    """Read a corpus JSONL file, one `CorpusLine` per non-blank line; record
    ids must be unique."""
    records: list[CorpusRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            if text.isspace():
                continue
            line = schema.load(CorpusLine, text, str(path), DataError, lineno)
            if line.id in seen:
                raise DataError(f"{path}:{lineno}: duplicate record id {line.id!r}")
            seen.add(line.id)
            try:  # PopeItem checks split and gold
                pope = [PopeItem(line.id, p.object, p.split, p.gold) for p in line.pope]
            except DataError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
            try:  # a JSON integer beyond float range; NaN and inf fail their record later
                vision = np.asarray(line.vision_embeddings, dtype=np.float32)
            except OverflowError as e:
                raise DataError(f"{path}:{lineno}: vision_embeddings: {e}") from None
            records.append(CorpusRecord(line.id, vision, line.prompt_ids, line.gt_objects, pope))
    if not records:
        raise DataError(f"{path}: empty corpus")
    return records
