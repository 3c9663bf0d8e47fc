import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from spin_infer.errors import ConfigError, DataError
from spin_infer.model import (
    Checkpoint,
    ModelConfig,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
    tensor_shapes,
)

from helpers import mutated, tiny_config, traced_peak


class TestModelConfig:
    def test_valid(self):
        c = tiny_config()
        assert c.d_head * c.n_heads == c.d_model

    @pytest.mark.parametrize("kw", [
        {"d_model": 30},          # not divisible by 4 heads
        {"n_layers": 0},
        {"n_heads": 0},
        {"vocab_size": 0},
        {"max_seq_len": 1},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            tiny_config(**kw)

    def test_from_dict_rejects_unknown_and_missing(self, tmp_path):
        """The checkpoint header's config is read strictly: unknown, missing,
        string and float fields are data errors naming the key. A header
        that is not UTF-8, or a tensor table that does not match the
        config's layout, is a data error too."""
        path = tmp_path / "m.spnm"
        save_checkpoint(init_checkpoint(tiny_config(), 0), path)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        good, table = header["config"], header["tensors"]

        def entry(i, **edit):
            return table[:i] + [{**table[i], **edit}] + table[i + 1 :]

        cases = [
            ({**good, "bogus": 1}, table, "unknown keys"),
            ({k: v for k, v in good.items() if k != "max_seq_len"}, table, "config.max_seq_len: missing"),
            ({**good, "n_layers": str(good["n_layers"])}, table, "config.n_layers: expected int"),
            ({**good, "d_model": good["d_model"] + 0.9}, table, "config.d_model: expected int"),
            (good, table[:-1], "tensor table does not match config-derived layout"),
            (good, entry(0, name="output"), "tensor table entry 'output' where 'embedding' belongs"),
            (good, entry(0, shape=table[0]["shape"][::-1]),
             r"tensor 'embedding' shape \(32, 64\) != expected \(64, 32\)"),
            (good, entry(1, offset=table[1]["offset"] + 4), "tensor 'layers.0.attn_norm' offset .* is not contiguous"),
        ]
        for config, tensors, message in cases:
            blob = json.dumps({**header, "config": config, "tensors": tensors}).encode()
            path.write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + raw[8 + hlen :])
            with pytest.raises(DataError, match=message):
                load_checkpoint(path)
        blob = raw[8 : 8 + hlen].replace(b"{", b"\xff", 1)
        path.write_bytes(raw[:8] + blob + raw[8 + hlen :])
        with pytest.raises(DataError, match="bad checkpoint header: 'utf-8' codec can't decode"):
            load_checkpoint(path)


class TestInitCheckpoint:
    def test_same_seed_bit_identical(self):
        a = init_checkpoint(tiny_config(), 7)
        b = init_checkpoint(tiny_config(), 7)
        for name in a.tensors:
            assert np.array_equal(a[name], b[name]), name

    def test_different_seed_differs(self):
        a = init_checkpoint(tiny_config(), 7)
        b = init_checkpoint(tiny_config(), 8)
        assert any(not np.array_equal(a[n], b[n]) for n in a.tensors)

    def test_shapes_and_finiteness(self):
        # independent shape calculator from the config formulas
        config = ModelConfig(n_layers=4, n_heads=8, d_model=64, d_ffn=96,
                             vocab_size=256, max_seq_len=64)
        ck = init_checkpoint(config, 1)
        d, f, v = 64, 96, 256
        expected = {"embedding": (v, d), "final_norm": (d,), "output": (d, v)}
        for i in range(4):
            expected.update({
                f"layers.{i}.attn_norm": (d,),
                f"layers.{i}.wq": (d, d),
                f"layers.{i}.wk": (d, d),
                f"layers.{i}.wv": (d, d),
                f"layers.{i}.wo": (d, d),
                f"layers.{i}.ffn_norm": (d,),
                f"layers.{i}.w1": (d, f),
                f"layers.{i}.w2": (f, d),
            })
        assert {k: tuple(t.shape) for k, t in ck.tensors.items()} == expected
        for name, t in ck.tensors.items():
            assert np.isfinite(t).all(), name

    def test_weight_range(self):
        c = tiny_config()
        ck = init_checkpoint(c, 3)
        s = 1.0 / np.sqrt(c.d_model)
        w = ck["embedding"]
        assert (np.abs(w) <= s).all()
        assert w.dtype == np.float32

    def test_tensors_are_read_only(self):
        ck = init_checkpoint(tiny_config(), 0)
        with pytest.raises(ValueError):
            ck["embedding"][0, 0] = 1.0


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        ck = init_checkpoint(tiny_config(), 11)
        path = tmp_path / "m.spnm"
        save_checkpoint(ck, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ck.config
        for name in ck.tensors:
            assert np.array_equal(loaded[name], ck[name]), name

    def test_magic_and_header(self, tmp_path):
        ck = init_checkpoint(tiny_config(), 11)
        path = tmp_path / "m.spnm"
        save_checkpoint(ck, path)
        raw = path.read_bytes()
        assert raw[:4] == b"SPNM"
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        assert list(e["name"] for e in header["tensors"]) == list(tensor_shapes(ck.config))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.spnm"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_checkpoint(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        ck = init_checkpoint(tiny_config(), 1)
        p = tmp_path / "m.spnm"
        save_checkpoint(ck, p)
        with open(p, "ab") as fh:
            fh.write(b"extra")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        ck = init_checkpoint(tiny_config(), 1)
        p = tmp_path / "m.spnm"
        save_checkpoint(ck, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(DataError):
            load_checkpoint(p)
        for data in (ck.data[:-2].copy(), ck.data.astype(np.float64)):  # in memory: short, or not float32
            with pytest.raises(DataError, match=r"checkpoint data is .* expected float32"):
                Checkpoint(ck.config, data)

    def test_non_finite_rejected(self, tmp_path):
        ck = init_checkpoint(tiny_config(), 1)
        bad = ck["embedding"].copy()
        bad[0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            mutated(ck, {"embedding": bad})


def _split(path):
    """(header bytes, data bytes) of a checkpoint file."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[4:8], "little")
    return raw[8 : 8 + hlen], raw[8 + hlen :]


class TestLoadOnce:
    """The tensor data is read once into one float32 buffer; the loaded
    tensors are read-only views of it."""

    def test_peak_is_one_copy_of_the_data(self, tmp_path):
        config = ModelConfig(n_layers=4, n_heads=4, d_model=64, d_ffn=128, vocab_size=64, max_seq_len=64)
        path = tmp_path / "m.spnm"
        save_checkpoint(init_checkpoint(config, 2), path)
        header, data = _split(path)
        load_checkpoint(path)  # first-call imports are not the load's
        peak = traced_peak(lambda: load_checkpoint(path))
        assert peak <= 1.1 * len(data) + len(header)

    @pytest.mark.parametrize("pad_to", [0, 1, 2, 3])
    def test_tensors_aligned_contiguous_read_only(self, tmp_path, pad_to):
        ck = init_checkpoint(tiny_config(), 4)
        path = tmp_path / "m.spnm"
        save_checkpoint(ck, path)
        header, data = _split(path)
        header += b" " * ((pad_to - len(header)) % 4)  # JSON allows trailing whitespace
        assert len(header) % 4 == pad_to
        path.write_bytes(b"SPNM" + len(header).to_bytes(4, "little") + header + data)
        loaded = load_checkpoint(path)
        assert len({id(t.base) for t in loaded.tensors.values()}) == 1
        for name, t in loaded.tensors.items():
            assert t.flags.aligned and t.flags.c_contiguous and not t.flags.writeable, name
            assert t.ctypes.data % 4 == 0, name
            assert np.array_equal(t, ck[name]), name
            with pytest.raises(ValueError):
                t.reshape(-1)[0] = 1.0

    @pytest.mark.parametrize("raw", [b"", b"SP", b"SPNM", b"SPNM\x02\x00\x00"])
    def test_shorter_than_preamble_rejected(self, tmp_path, raw):
        path = tmp_path / "m.spnm"
        path.write_bytes(raw)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_header_length_past_end_allocates_nothing(self, tmp_path):
        path = tmp_path / "m.spnm"
        path.write_bytes(b"SPNM" + (2**31).to_bytes(4, "little") + b"{}")

        def load():
            with pytest.raises(DataError, match="truncated header"):
                load_checkpoint(path)

        assert traced_peak(load) < 2**20

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        """A file that shrinks after its size was checked fails as a data
        error, not with a partly filled buffer."""
        path = tmp_path / "m.spnm"
        save_checkpoint(init_checkpoint(tiny_config(), 1), path)
        path.write_bytes(path.read_bytes()[:-8])
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
        with pytest.raises(DataError, match="tensor data bytes"):
            load_checkpoint(path)
