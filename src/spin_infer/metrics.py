"""Hallucination and efficiency metrics.

CHAIR counts hallucinated object mentions in generated captions against a
per-image ground-truth set; POPE scores yes/no object-existence probes over
random/popular/adversarial splits; both are backed by exact integer counts
so results can be compared ratio-for-ratio against brute-force recounts.
"""

from __future__ import annotations

import string
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import DataError

POPE_SPLITS = ("random", "popular", "adversarial")
POPE_TEMPLATE = "Is there a {object} in the image?"

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def caption_words(text: str) -> list[str]:
    """Lowercase and strip punctuation, keeping word boundaries."""
    return text.lower().translate(_PUNCT_TABLE).split()


class ObjectVocabulary:
    """Canonical object names plus a flat surface-form -> canonical map."""

    def __init__(self, synonyms: dict[str, str]):
        self.canonical = sorted(set(synonyms.values()))
        canon_set = set(self.canonical)
        for surface, canon in synonyms.items():
            if surface in canon_set and surface != canon:
                raise DataError(
                    f"canonical object {surface!r} may not map to a different canonical {canon!r}"
                )
        self.surface_map: dict[tuple[str, ...], str] = {}
        for surface, canon in synonyms.items():
            words = tuple(caption_words(surface))
            if not words:
                raise DataError(f"empty vocabulary surface form for {canon!r}")
            self.surface_map[words] = canon
        for canon in self.canonical:
            self.surface_map.setdefault(tuple(caption_words(canon)), canon)
        self.max_phrase_len = max(len(w) for w in self.surface_map)

    @classmethod
    def from_tsv(cls, path: str | Path) -> "ObjectVocabulary":
        synonyms: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                    raise DataError(f"{path}:{lineno}: expected 'surface<TAB>canonical', got {line!r}")
                synonyms[parts[0].strip()] = parts[1].strip()
        if not synonyms:
            raise DataError(f"{path}: empty vocabulary")
        return cls(synonyms)

    def to_tsv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for words, canon in sorted(self.surface_map.items()):
                fh.write(f"{' '.join(words)}\t{canon}\n")


@dataclass
class ObjectMentions:
    instances: list[str]  # canonical name per mention, in caption order
    objects: set[str]


def extract_objects(caption: str, vocab: ObjectVocabulary) -> ObjectMentions:
    """Greedy longest-match of vocabulary phrases over the word sequence.

    A matched phrase consumes its words, so "hot dog" never also yields
    "dog". Surface forms map through the synonym table to canonical names.
    """
    words = caption_words(caption)
    instances: list[str] = []
    i = 0
    n = len(words)
    while i < n:
        matched = False
        for span in range(min(vocab.max_phrase_len, n - i), 0, -1):
            canon = vocab.surface_map.get(tuple(words[i : i + span]))
            if canon is not None:
                instances.append(canon)
                i += span
                matched = True
                break
        if not matched:
            i += 1
    return ObjectMentions(instances=instances, objects=set(instances))


@dataclass(frozen=True)
class CaptionRecord:
    image_id: str
    caption: str
    gt_objects: frozenset[str]

    def __post_init__(self):
        if not self.gt_objects:
            raise DataError(f"caption record {self.image_id!r} has an empty ground-truth set")


@dataclass
class ChairResult:
    c_s: float
    c_i: float
    f1: float
    precision: float
    recall: float
    # exact counts backing the ratios above
    n_captions: int
    n_hallucinated_captions: int
    n_instances: int
    n_hallucinated_instances: int
    n_matched: int  # sum over records of |mentioned-set ∩ gt|
    n_mentioned: int  # sum of |mentioned-set|
    n_gt: int  # sum of |gt|

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def f1_score(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def chair_scores(records: list[CaptionRecord], vocab: ObjectVocabulary) -> ChairResult:
    """C_s per caption, C_i per mentioned instance, F1 micro-averaged over
    mentioned-object sets vs ground-truth sets."""
    if not records:
        raise DataError("chair_scores needs at least one record")
    canon = set(vocab.canonical)
    n_inst = n_halluc_inst = n_halluc_cap = 0
    n_matched = n_mentioned = n_gt = 0
    for rec in records:
        unknown = set(rec.gt_objects) - canon
        if unknown:
            raise DataError(f"record {rec.image_id!r}: non-canonical gt objects {sorted(unknown)}")
        mentions = extract_objects(rec.caption, vocab)
        halluc = [m for m in mentions.instances if m not in rec.gt_objects]
        n_inst += len(mentions.instances)
        n_halluc_inst += len(halluc)
        if halluc:
            n_halluc_cap += 1
        n_matched += len(mentions.objects & rec.gt_objects)
        n_mentioned += len(mentions.objects)
        n_gt += len(rec.gt_objects)
    precision = _ratio(n_matched, n_mentioned)
    recall = _ratio(n_matched, n_gt)
    return ChairResult(
        c_s=_ratio(n_halluc_cap, len(records)),
        c_i=_ratio(n_halluc_inst, n_inst),
        f1=f1_score(precision, recall),
        precision=precision,
        recall=recall,
        n_captions=len(records),
        n_hallucinated_captions=n_halluc_cap,
        n_instances=n_inst,
        n_hallucinated_instances=n_halluc_inst,
        n_matched=n_matched,
        n_mentioned=n_mentioned,
        n_gt=n_gt,
    )


@dataclass(frozen=True)
class PopeItem:
    image_id: str
    object_name: str
    split: str
    gold: str
    answer: str = ""

    def __post_init__(self):
        if self.split not in POPE_SPLITS:
            raise DataError(f"pope split must be one of {POPE_SPLITS}, got {self.split!r}")
        if self.gold not in ("yes", "no"):
            raise DataError(f"pope gold must be 'yes' or 'no', got {self.gold!r}")

    def question(self) -> str:
        return POPE_TEMPLATE.format(object=self.object_name)


def parse_pope_answer(text: str) -> str | None:
    """First occurrence of a 'yes'/'no' word in the response, else None."""
    for word in caption_words(text):
        if word in ("yes", "no"):
            return word
    return None


@dataclass
class PopeScores:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    unparsed: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return _ratio(self.tp + self.tn, self.total)

    @property
    def precision(self) -> float:
        return _ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def f1(self) -> float:
        return f1_score(self.precision, self.recall)

    def add(self, other: "PopeScores") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.tn += other.tn
        self.unparsed += other.unparsed

    def to_dict(self) -> dict:
        return {**asdict(self), "accuracy": self.accuracy, "precision": self.precision, "recall": self.recall,
                "f1": self.f1}


@dataclass
class PopeReport:
    splits: dict[str, PopeScores]
    overall: PopeScores

    def to_dict(self) -> dict:
        return {
            "splits": {k: v.to_dict() for k, v in self.splits.items()},
            "overall": self.overall.to_dict(),
        }


def pope_eval(items: list[PopeItem]) -> PopeReport:
    """Score answers per split and pooled. "yes" is the positive class; an
    unparseable answer counts as the wrong class and is tallied."""
    if not items:
        raise DataError("pope_eval needs at least one item")
    splits = {s: PopeScores() for s in POPE_SPLITS}
    for item in items:
        sc = splits[item.split]
        pred = parse_pope_answer(item.answer)
        if pred is None:
            sc.unparsed += 1
            pred = "no" if item.gold == "yes" else "yes"
        if item.gold == "yes":
            if pred == "yes":
                sc.tp += 1
            else:
                sc.fn += 1
        else:
            if pred == "yes":
                sc.fp += 1
            else:
                sc.tn += 1
    overall = PopeScores()
    for sc in splits.values():
        overall.add(sc)
    return PopeReport(splits={k: v for k, v in splits.items() if v.total}, overall=overall)
