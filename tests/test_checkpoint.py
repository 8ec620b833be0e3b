import json
import struct

import numpy as np
import pytest

from minimt.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    model_from_bytes,
    parameter_payload_bytes,
    save_checkpoint,
)
from minimt.model import ModelConfig, init_model, quantize_fp16
from minimt.rng import Rng
from minimt.vocab import build_vocab


@pytest.fixture(scope="module")
def model():
    vocab = build_vocab("abc ", ["anu_Latn", "bnu_Latn"])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, ffn_dim=16,
                      n_encoder_layers=2, n_decoder_layers=2, max_positions=16)
    m = init_model(cfg, vocab, Rng(5))
    m.metadata["stage"] = "unit-test"
    m.metadata["seed"] = "5"
    return m


def test_roundtrip_bit_exact(model, tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    loaded = load_checkpoint(p)
    assert loaded.config == model.config
    assert loaded.vocab == model.vocab
    assert loaded.metadata == model.metadata
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])
        assert loaded.params[name].dtype == model.params[name].dtype


def test_save_load_save_is_byte_identical(model, tmp_path):
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_fp16_checkpoint_keeps_storage_dtype(model, tmp_path):
    q = quantize_fp16(model)
    p = tmp_path / "q.ckpt"
    save_checkpoint(q, p)
    loaded = load_checkpoint(p)
    assert loaded.precision == "fp16"
    for arr in loaded.params.values():
        assert arr.dtype == np.float16


def test_fp16_payload_is_half(model, tmp_path):
    p32 = tmp_path / "f32.ckpt"
    p16 = tmp_path / "f16.ckpt"
    save_checkpoint(model, p32)
    save_checkpoint(quantize_fp16(model), p16)
    full = parameter_payload_bytes(p32)
    half = parameter_payload_bytes(p16)
    assert half == -(-full // 2)  # ceil(full / 2)


def test_magic_mismatch(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(p)
    assert e.value.byte_offset == 0


@pytest.mark.parametrize("cut", ["3 bytes", "prefix", "header", "bad magic",
                                 "no tensors", "no nbytes"])
def test_payload_size_of_a_damaged_file_is_a_checkpoint_error(model, tmp_path, cut):
    blob = checkpoint_bytes(model)
    header, payload = _header_and_payload(blob)
    del header["tensors"][0]["nbytes"]
    damaged = {"3 bytes": blob[:3], "prefix": blob[:10], "header": blob[:40],
               "bad magic": b"NOPE" + blob[4:],
               "no tensors": _with_header({"vocab": {}}),
               "no nbytes": _with_header(header, payload)}[cut]
    p = tmp_path / "damaged.ckpt"
    p.write_bytes(damaged)
    with pytest.raises(CheckpointError):
        parameter_payload_bytes(p)


def test_unknown_version(model, tmp_path):
    blob = bytearray(checkpoint_bytes(model))
    blob[4:8] = (99).to_bytes(4, "little")
    p = tmp_path / "v99.ckpt"
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(p)


def test_truncation_reports_offset(model, tmp_path):
    blob = checkpoint_bytes(model)
    p = tmp_path / "trunc.ckpt"
    p.write_bytes(blob[: len(blob) - 50])
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(p)
    assert e.value.byte_offset is not None


def _with_header(header: dict, payload: bytes = b"") -> bytes:
    raw = json.dumps(header).encode()
    return MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(raw)) + raw + payload


def _header_and_payload(blob: bytes) -> tuple[dict, bytes]:
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[16:16 + header_len]), blob[16 + header_len:]


@pytest.mark.parametrize("header", [{"vocab": {}}, {"config": 5}],
                         ids=["missing-config", "config-not-an-object"])
def test_malformed_header_is_a_checkpoint_error(header):
    with pytest.raises(CheckpointError) as e:
        model_from_bytes(_with_header(header))
    assert e.value.byte_offset == 16


def test_unknown_dtype_code_is_a_checkpoint_error(model):
    header, payload = _header_and_payload(checkpoint_bytes(model))
    header["tensors"][0]["dtype"] = "f64"
    with pytest.raises(CheckpointError) as e:
        model_from_bytes(_with_header(header, payload))
    assert e.value.byte_offset == 16


def test_every_truncation_is_a_checkpoint_error(model):
    blob = checkpoint_bytes(model)
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    cuts = {*range(0, 17), *range(17, header_end + 1, max(1, header_len // 40)),
            header_end - 1, header_end + 1,
            *range(header_end, len(blob), max(1, (len(blob) - header_end) // 40)),
            len(blob) - 1}
    for cut in sorted(cuts):
        with pytest.raises(CheckpointError):
            model_from_bytes(blob[:cut])


@pytest.mark.parametrize("precision", ["fp32", "fp16"])
def test_non_finite_weights_are_a_checkpoint_error(model, precision):
    """A NaN or an infinity in any tensor fails the load, naming every such
    tensor and pointing at the first one's payload."""
    bad = (model if precision == "fp32" else quantize_fp16(model)).clone()
    bad.params["embedding"][2, 0] = -np.inf
    bad.params["enc.0.attn.wq"][0, 1] = np.nan
    bad.params["dec.1.ffn.b2"][3] = np.inf
    blob = checkpoint_bytes(bad)
    names = "'embedding', 'enc.0.attn.wq', 'dec.1.ffn.b2'"
    with pytest.raises(CheckpointError, match=f"non-finite weights in tensors: \\[{names}\\]") as e:
        model_from_bytes(blob)
    payload = sum(a.nbytes for a in bad.params.values())
    assert e.value.byte_offset == len(blob) - payload
    for name in ("enc.0.attn.wq", "dec.1.ffn.b2"):
        one = (model if precision == "fp32" else quantize_fp16(model)).clone()
        one.params[name].flat[0] = np.nan
        with pytest.raises(CheckpointError, match=f"tensors: \\['{name}'\\]"):
            model_from_bytes(checkpoint_bytes(one))


def test_fingerprint_ignores_metadata(model):
    other = model.clone()
    other.metadata["extra"] = "note"
    assert other.fingerprint() == model.fingerprint()
    mutated = model.clone()
    mutated.params["embedding"][0, 0] += 1.0
    assert mutated.fingerprint() != model.fingerprint()
