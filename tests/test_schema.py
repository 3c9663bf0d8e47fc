"""The JSON input boundary, end to end through `cli.main`.

Every field of every JSON input file (run config, corpus line and POPE
entry, token table, checkpoint header and tensor entry, trace header and
trace record), set to each JSON type it must not take, is an exit 2
(config) or 3 (data) whose message names the field, and no report, trace
or heatmap file is written.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin_infer
from spin_infer import cli

# one strategy per JSON type a field can be set to
WRONG = {
    "string": st.text(max_size=4),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "object": st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
}
# the JSON types each field takes: s string, i int, f float, b bool, n null, l list, o object
RUN_FIELDS = {
    "model": "o", "model.checkpoint": "s",
    "spin": "on", "spin.strategy": "s", "spin.r": "if", "spin.alpha": "if", "spin.layer_range": "l",
    "spin.apply_to": "s",
    "decode": "on", "decode.strategy": "s", "decode.beam_width": "i", "decode.nucleus_p": "if",
    "decode.repetition_penalty": "if", "decode.max_new_tokens": "i", "decode.eos_id": "in", "decode.seed": "i",
    "eval": "on", "eval.corpus": "s", "eval.vocab": "s", "eval.tokens": "s", "eval.chair": "b", "eval.pope": "b",
    "eval.pope_mode": "s", "eval.pope_max_new_tokens": "i", "eval.workers": "i", "eval.max_records": "in",
    "output": "on", "output.report_json": "sn", "output.report_csv": "sn", "output.trace_masks": "sn",
}
CORPUS_FIELDS = {
    "id": "s", "vision_embeddings": "l", "prompt_ids": "l", "gt_objects": "l", "pope": "l",
    "pope[0].object": "s", "pope[0].gold": "s", "pope[0].split": "s",
}
TOKEN_FIELDS = {"tokens": "l", "eos_id": "i"}
HEADER_FIELDS = {"config": "o", "tensors": "l", "tensors[0].name": "s", "tensors[0].shape": "l",
                 "tensors[0].offset": "i"} | {
    f"config.{k}": "i" for k in ("n_layers", "n_heads", "d_model", "d_ffn", "vocab_size", "max_seq_len")
}
TRACE_FIELDS = {"meta": "o", "meta.n_layers": "i", "meta.n_heads": "i", "meta.spin": "on",
                "pos": "i", "layer": "i", "mask": "l"}
KIND_CODES = {"string": "s", "float": "f", "bool": "b", "null": "n", "list": "l", "object": "o"}


def wrong_kinds(takes: str) -> list[str]:
    return [k for k, code in KIND_CODES.items() if code not in takes]


def set_field(doc, dotted: str, value):
    """Set `dotted` ("a.b", "pope[0].object") in a JSON document, in place."""
    steps = [int(s[1:-1]) if s.startswith("[") else s for s in re.findall(r"[^.\[\]]+|\[\d+\]", dotted)]
    node = doc
    for step in steps[:-1]:
        node = node[step]
    node[steps[-1]] = value


def run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def run_config(workspace, out: Path, **sections) -> dict:
    return {
        "model": {"checkpoint": str(workspace.checkpoint)},
        "spin": {"r": 0.5, "alpha": 0.0, "layer_range": [1, 2]},
        "decode": {"strategy": "greedy", "max_new_tokens": 2, "eos_id": 0, "seed": 5},
        "eval": {"corpus": str(workspace.corpus), "vocab": str(workspace.vocab), "tokens": str(workspace.tokens),
                 "max_records": 1},
        "output": {"report_json": str(out / "r.json"), "report_csv": str(out / "r.csv"),
                   "trace_masks": str(out / "m.jsonl")},
        **sections,
    }


def eval_run(workspace, out: Path, **sections) -> tuple[int, str]:
    """`eval` with a run config whose outputs all go to `out`; asserts none was written."""
    (out / "run.json").write_text(json.dumps(run_config(workspace, out, **sections)))
    code, err = run("eval", "--config", out / "run.json")
    assert not any((out / n).exists() for n in ("r.json", "r.csv", "m.jsonl")), err
    return code, err


def header_parts(path: Path) -> tuple[bytes, dict, bytes]:
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[4:8], "little")
    return raw[:4], json.loads(raw[8 : 8 + hlen]), raw[8 + hlen :]


def write_checkpoint(path: Path, magic: bytes, header_text: str, data: bytes) -> None:
    blob = header_text.encode()
    path.write_bytes(magic + len(blob).to_bytes(4, "little") + blob + data)


def corpus_line(workspace) -> dict:
    return json.loads(workspace.corpus.read_text().splitlines()[0])


def trace_lines(n_layers=2, n_heads=2) -> list[dict]:
    return [{"meta": {"n_layers": n_layers, "n_heads": n_heads, "spin": {}}},
            {"pos": 3, "layer": 1, "mask": [1.0, 0.0]}]


def check_field(data, takes: str, probe) -> None:
    """probe(value) -> (exit code, stderr, expected code, expected message
    part), for a value of every JSON type the field does not take."""
    for kind in wrong_kinds(takes):
        value = data.draw(WRONG[kind], label=kind)
        code, err, want_code, want = probe(value)
        assert code == want_code, (kind, value, err)
        assert want in err, (kind, value, err)


SETTINGS = settings(max_examples=2, deadline=None)  # each wrong type of each field, two drawn values


class TestWrongJsonTypes:
    @pytest.mark.parametrize("field", RUN_FIELDS)
    @SETTINGS
    @given(data=st.data())
    def test_run_config_field(self, workspace, field, data):
        takes = RUN_FIELDS[field]

        def probe(value):
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp)
                cfg = run_config(workspace, out)
                set_field(cfg, field, value)
                code, err = eval_run(workspace, out, **cfg)
            return code, err, 2, f"config error: {field}: "

        check_field(data, takes, probe)

    @pytest.mark.parametrize("field", CORPUS_FIELDS)
    @SETTINGS
    @given(data=st.data())
    def test_corpus_field(self, workspace, field, data):
        def probe(value):
            with tempfile.TemporaryDirectory() as tmp:
                line = corpus_line(workspace)
                set_field(line, field, value)
                corpus = Path(tmp) / "corpus.jsonl"
                corpus.write_text(json.dumps(line) + "\n")
                code, err = eval_run(workspace, Path(tmp), eval={**run_config(workspace, Path(tmp))["eval"],
                                                                  "corpus": str(corpus)})
            return code, err, 3, f"data error: {corpus}:1: {field}: "

        check_field(data, CORPUS_FIELDS[field], probe)

    @pytest.mark.parametrize("field", TOKEN_FIELDS)
    @SETTINGS
    @given(data=st.data())
    def test_token_table_field(self, workspace, field, data):
        def probe(value):
            with tempfile.TemporaryDirectory() as tmp:
                table = json.loads(workspace.tokens.read_text())
                table[field] = value
                tokens = Path(tmp) / "tokens.json"
                tokens.write_text(json.dumps(table))
                code, err = eval_run(workspace, Path(tmp), eval={**run_config(workspace, Path(tmp))["eval"],
                                                                  "tokens": str(tokens)})
            return code, err, 3, f"data error: {tokens}: {field}: "

        check_field(data, TOKEN_FIELDS[field], probe)

    @pytest.mark.parametrize("field", HEADER_FIELDS)
    @SETTINGS
    @given(data=st.data())
    def test_checkpoint_header_field(self, workspace, field, data):
        def probe(value):
            with tempfile.TemporaryDirectory() as tmp:
                magic, header, rest = header_parts(workspace.checkpoint)
                set_field(header, field, value)
                ckpt = Path(tmp) / "model.spnm"
                write_checkpoint(ckpt, magic, json.dumps(header), rest)
                code, err = eval_run(workspace, Path(tmp), model={"checkpoint": str(ckpt)})
            return code, err, 3, f"data error: {ckpt}: {field}: "

        check_field(data, HEADER_FIELDS[field], probe)

    @pytest.mark.parametrize("field", TRACE_FIELDS)
    @SETTINGS
    @given(data=st.data())
    def test_trace_field(self, field, data):
        def probe(value):
            with tempfile.TemporaryDirectory() as tmp:
                lines = trace_lines()
                set_field(lines[0] if field.startswith("meta") else lines[1], field, value)
                trace = Path(tmp) / "masks.jsonl"
                trace.write_text("".join(json.dumps(x) + "\n" for x in lines))
                code, err = run("heatmap", "--traces", trace, "--out-prefix", Path(tmp) / "heat")
                assert not (Path(tmp) / "heat.csv").exists() and not (Path(tmp) / "heat.json").exists()
            return code, err, 3, f"data error: {trace}:{1 if field.startswith('meta') else 2}: {field}: "

        check_field(data, TRACE_FIELDS[field], probe)


COERCIONS = [
    ("gt_objects", "cat", "gt_objects: expected list[str]"),
    ("gt_objects", [1, 2], "gt_objects[0]: expected str, got 1"),
    ("id", [1], "id: expected str, got [1]"),
    ("id", 7, "id: expected str, got 7"),
    ("vision_embeddings[0][0]", "0.5", "vision_embeddings[0][0]: expected float, got '0.5'"),
    ("vision_embeddings[0][0]", True, "vision_embeddings[0][0]: expected float, got True"),
    ("pope[0].object", 3, "pope[0].object: expected str, got 3"),
    ("extra", 1, "unknown keys: ['extra']"),
    ("pope[0].extra", 1, "pope[0]: unknown keys: ['extra']"),
    ("pope[0].split", "bogus", "pope split must be one of ('random', 'popular', 'adversarial'), got 'bogus'"),
    ("vision_embeddings[1]", [0.5], "vision_embeddings must be a non-empty 2-D array"),
]


@pytest.mark.parametrize("field, value, message", COERCIONS,
                         ids=["gt_string", "gt_ints", "id_list", "id_int", "vision_string", "vision_bool",
                              "pope_object_int", "record_unknown_key", "pope_unknown_key", "pope_split_bogus",
                              "vision_ragged"])
def test_corpus_coercion_rejected(workspace, tmp_path, field, value, message):
    """Values an earlier loader coerced (or keys it ignored) are data errors, and so are an unknown POPE
    split and ragged vision rows."""
    line = corpus_line(workspace)
    set_field(line, field, value)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(line) + "\n")
    code, err = eval_run(workspace, tmp_path, eval={**run_config(workspace, tmp_path)["eval"], "corpus": str(corpus)})
    assert code == 3
    assert f"data error: {corpus}:1: {message}" in err


class TestNumbersBeyondFloatRange:
    """A JSON integer too large for a float is a JSON number, so it passes
    the type check; turning it into an array is still a data error. A
    trace mask entry must be finite too."""

    def test_corpus_vision_value(self, workspace, tmp_path):
        line = corpus_line(workspace)
        set_field(line, "vision_embeddings[0][0]", 10**400)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(line) + "\n")
        code, err = eval_run(workspace, tmp_path, eval={**run_config(workspace, tmp_path)["eval"], "corpus": str(corpus)})
        assert code == 3, err
        assert f"data error: {corpus}:1: vision_embeddings: " in err

    @pytest.mark.parametrize("value", [10**400, -(10**400), float("nan"), float("inf"), float("-inf")],
                             ids=["huge_int", "huge_negative_int", "nan", "inf", "negative_inf"])
    def test_trace_mask_entry(self, tmp_path, value):
        lines = trace_lines()
        lines[1]["mask"][0] = value
        trace = tmp_path / "masks.jsonl"
        trace.write_text("".join(json.dumps(x) + "\n" for x in lines))
        code, err = run("heatmap", "--traces", trace, "--out-prefix", tmp_path / "heat")
        assert code == 3, err
        assert f"data error: {trace}:2: mask: " in err
        assert not (tmp_path / "heat.csv").exists() and not (tmp_path / "heat.json").exists()


class TestDuplicateKeys:
    def test_run_config(self, workspace, tmp_path):
        text = json.dumps(run_config(workspace, tmp_path)).replace('"decode": {', '"decode": {"seed": 9, ', 1)
        (tmp_path / "run.json").write_text(text)
        code, err = run("eval", "--config", tmp_path / "run.json")
        assert code == 2
        assert f"config error: {tmp_path / 'run.json'}: duplicate key 'seed'" in err
        assert not (tmp_path / "r.json").exists()

    def test_corpus_line(self, workspace, tmp_path):
        lines = workspace.corpus.read_text().splitlines()
        lines[1] = lines[1].replace('{"id": ', '{"id": "other", "id": ', 1)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        code, err = eval_run(workspace, tmp_path, eval={**run_config(workspace, tmp_path)["eval"], "corpus": str(corpus)})
        assert code == 3
        assert f"data error: {corpus}:2: duplicate key 'id'" in err

    def test_token_table(self, workspace, tmp_path):
        tokens = tmp_path / "tokens.json"
        tokens.write_text(workspace.tokens.read_text().replace("{", '{"eos_id": 0, ', 1))
        code, err = eval_run(workspace, tmp_path, eval={**run_config(workspace, tmp_path)["eval"], "tokens": str(tokens)})
        assert code == 3
        assert f"data error: {tokens}: duplicate key 'eos_id'" in err

    def test_checkpoint_header(self, workspace, tmp_path):
        magic, header, rest = header_parts(workspace.checkpoint)
        ckpt = tmp_path / "model.spnm"
        text = json.dumps(header).replace('"config": {', '"config": {"n_layers": 2, ', 1)
        write_checkpoint(ckpt, magic, text, rest)
        code, err = eval_run(workspace, tmp_path, model={"checkpoint": str(ckpt)})
        assert code == 3
        assert f"data error: {ckpt}: duplicate key 'n_layers'" in err

    def test_trace(self, tmp_path):
        trace = tmp_path / "masks.jsonl"
        meta, record = (json.dumps(x) for x in trace_lines())
        trace.write_text(meta + "\n" + record.replace("{", '{"layer": 2, ', 1) + "\n")
        code, err = run("heatmap", "--traces", trace, "--out-prefix", tmp_path / "heat")
        assert code == 3
        assert f"data error: {trace}:2: duplicate key 'layer'" in err
        assert not (tmp_path / "heat.csv").exists()


def test_only_the_schema_module_parses_json():
    """Every JSON input goes through `schema`: no other module of the package
    calls json.load, json.loads or a decoder's raw_decode."""
    package = Path(spin_infer.__file__).parent
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "schema.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(r"\bjson\.loads?\(|raw_decode", line)
    ]
    assert not offenders, offenders


def test_no_module_uses_threads():
    """The package runs in one thread: no module imports `threading` or
    `concurrent`, so per-run state such as the trace writer or a policy's
    counters needs no lock."""
    package = Path(spin_infer.__file__).parent
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.match(r"\s*(import|from)\s+(threading|concurrent)\b", line)
    ]
    assert not offenders, offenders
