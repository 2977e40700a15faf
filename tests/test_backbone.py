import numpy as np
import pytest

from selectmae import numerics as nm
from selectmae.backbone import BackboneConfig, ModelParams, decode, encode
from selectmae.errors import ConfigError, ContractError, ShapeError
from selectmae.layers import LinearParams, apply_layer_norm, linear
from selectmae.masking import MaskSpec, sample_visible
from selectmae.tokenizer import patch_len, positional_encoding

from testkit import check_param_gradients

BB = BackboneConfig(tubelet=(2, 2, 2), enc_depth=2, enc_dim=16, enc_heads=2, dec_depth=2,
                    dec_dim=8, dec_heads=2)


def _model(seed=0):
    return ModelParams(BB, np.random.default_rng(seed))


def _tokens(n=16, seed=1):
    rng = np.random.default_rng(seed)
    return nm.Tensor(rng.standard_normal((n, 16)).astype(np.float32))


def _clip_tokens(n=16, seed=1):
    """One clip's tokens as a batch of one, (1, n, 16)."""
    return nm.reshape(_tokens(n, seed), (1, n, 16))


def _forward(tokens, spec, model):
    """The pretraining forward for one clip: (1, n_masked, patch_len) predictions."""
    visible_ids, masked_ids = spec.visible_ids[None], spec.masked_ids[None]
    latents = encode(nm.gather_rows_batched(tokens, visible_ids), model)
    return decode(latents, visible_ids, masked_ids, model)


def test_encode_output_shape():
    model = _model()
    spec = sample_visible(np.full(16, -np.log(16)), 0.5, np.random.default_rng(2))
    latents = encode(nm.gather_rows_batched(_clip_tokens(), spec.visible_ids[None]), model)
    assert latents.shape == (1, spec.n_visible, 16)


def test_encode_depth_zero_is_final_norm_only():
    cfg = BackboneConfig(tubelet=(2, 2, 2), enc_depth=0, enc_dim=16, enc_heads=2, dec_depth=1,
                         dec_dim=8, dec_heads=2)
    model = ModelParams(cfg, np.random.default_rng(0))
    x = _clip_tokens(4)
    out = encode(x, model)
    expected = nm.layer_norm(x, model.enc_norm.gain, model.enc_norm.bias)
    np.testing.assert_allclose(out.data, expected.data, atol=1e-6)


def test_encode_permutation_equivariance():
    model = _model()
    x = _clip_tokens(10)
    perm = np.random.default_rng(3).permutation(10)
    base = encode(x, model).data
    permuted = encode(nm.Tensor(x.data[:, perm]), model).data
    np.testing.assert_allclose(permuted, base[:, perm], atol=1e-5)


def test_encode_requires_matching_dim():
    model = _model()
    with pytest.raises(ConfigError):
        encode(nm.Tensor(np.zeros((1, 4, 8), dtype=np.float32)), model)
    with pytest.raises(ShapeError, match="stack"):
        encode(_tokens(4), model)  # one clip is a batch of one, not (n, dim)


def test_decode_shapes_and_order():
    model = _model()
    spec = sample_visible(np.full(16, -np.log(16)), 0.75, np.random.default_rng(4))
    preds = _forward(_clip_tokens(), spec, model)
    assert preds.shape == (1, spec.n_masked, patch_len(BB.tubelet))
    # row j predicts masked token j: listing the masked ids in reverse
    # reverses the rows and changes nothing else
    reversed_preds = decode(
        encode(nm.gather_rows_batched(_clip_tokens(), spec.visible_ids[None]), model),
        spec.visible_ids[None], spec.masked_ids[None, ::-1], model,
    )
    np.testing.assert_array_equal(reversed_preds.data[0, ::-1], preds.data[0])


def test_decode_mismatched_spec_rejected():
    model = _model()
    spec_a = MaskSpec(16, 0.5, np.arange(8))
    spec_b = MaskSpec(16, 0.75, np.arange(4))
    latents = nm.Tensor(np.zeros((1, 8, 16), dtype=np.float32))
    with pytest.raises(ContractError):
        decode(latents, spec_b.visible_ids[None], spec_b.masked_ids[None], model)
    with pytest.raises(ContractError):  # zero masked tokens
        decode(latents, spec_a.visible_ids[None], np.empty((1, 0), dtype=np.int64), model)


def test_decode_without_blocks_reads_mask_vector_and_own_position():
    # with no decoder blocks each slot sees only itself, so masked token j
    # must come out as head(norm(mask vector + positional encoding of j))
    cfg = BackboneConfig(tubelet=(2, 2, 2), enc_depth=1, enc_dim=16, enc_heads=2, dec_depth=0,
                         dec_dim=8, dec_heads=2)
    model = ModelParams(cfg, np.random.default_rng(0))
    spec = MaskSpec(16, 0.75, np.array([1, 6, 7, 12]))
    preds = _forward(_clip_tokens(), spec, model).data[0]
    slots = nm.Tensor(model.mask_token.data + positional_encoding(16, 8)[spec.masked_ids])
    expected = linear(apply_layer_norm(slots, model.dec_norm), model.head).data
    np.testing.assert_allclose(preds, expected, atol=1e-6)


def test_masked_positions_receive_distinct_predictions():
    model = _model(7)
    spec = MaskSpec(16, 0.875, np.array([0, 5]))
    preds = _forward(_clip_tokens(16, 8), spec, model).data[0]
    diffs = np.abs(preds[:, None, :] - preds[None, :, :]).max(axis=-1)
    off_diag = diffs[~np.eye(diffs.shape[0], dtype=bool)]
    assert off_diag.min() > 1e-6  # mask token identical, positions differ


def test_mask_token_gradient_flows():
    model = _model()
    spec = MaskSpec(16, 0.75, np.arange(4))
    tokens = _clip_tokens()

    def loss():
        return nm.reduce_mean(_forward(tokens, spec, model))

    with nm.Tape() as tape:
        value = loss()
    nm.backward(value, tape)
    assert model.mask_token.grad is not None
    assert np.abs(model.mask_token.grad).max() > 0

    check_param_gradients(
        loss, {"model.decoder.mask_token": model.mask_token}, rel_tol=1e-3, max_entries=8
    )


def test_every_parameter_reachable_from_reconstruction_loss():
    # coverage assertion: no dead parameters after one backward pass
    from selectmae.data import SynthConfig, generate_clip, patch_normalize_targets
    from selectmae.tokenizer import tokenize, unfold_clip
    from selectmae.training import reconstruction_loss

    cfg = SynthConfig(frames=4, height=8, width=8)
    clip = generate_clip(cfg, 0, 0)
    model = ModelParams(BB, np.random.default_rng(1))
    spec = sample_visible(np.full(32, -np.log(32)), 0.75, np.random.default_rng(2))
    rows = unfold_clip(clip.frames, BB.tubelet)[spec.masked_ids]
    with nm.Tape() as tape:
        tokens = tokenize(clip.frames[None], BB.tubelet, model.proj.weight, model.proj.bias)
        preds = _forward(tokens, spec, model)
        loss, _ = reconstruction_loss(preds, patch_normalize_targets(rows)[None], "mse")
    nm.backward(loss, tape)
    missing = [name for name, t in model.named().items() if t.grad is None]
    assert missing == []


def test_full_visibility_mode_for_downstream():
    model = _model()
    spec = MaskSpec(16, 0.0, np.arange(16))  # the downstream path: nothing masked
    latents = encode(nm.gather_rows_batched(_clip_tokens(), spec.visible_ids[None]), model)
    assert latents.shape == (1, 16, 16)


def test_backbone_config_validation():
    for bad in (
        {"enc_dim": 10, "enc_heads": 4},
        {"enc_dim": 15, "enc_heads": 3},  # odd: no sinusoidal pairs
        {"dec_dim": 9, "dec_heads": 3},
        {"tubelet": (2, 0, 4)},
        {"tubelet": (-1, 4, 4)},
        {"enc_depth": -1},
        {"dec_depth": -2},
        {"enc_heads": 0},
        {"dec_dim": 0},
        {"dec_mlp_ratio": 0.0},
    ):
        with pytest.raises(ConfigError):
            BackboneConfig(**bad)
    assert BackboneConfig(enc_depth=0, dec_depth=0).enc_depth == 0


class _SeparateProjections:
    """Attention parameters as separate q, k, v and o projections, each
    weight drawn in that order: the layout the packed projection replaced."""

    def __init__(self, rng, dim, heads):
        self.parts = {name: LinearParams(rng, dim, dim) for name in "qkvo"}

    def named(self, prefix):
        out = {}
        for name, p in self.parts.items():
            out.update(p.named(f"{prefix}.{name}"))
        return out


def _unpack(named):
    """Arrays by name, with each packed attn.qkv entry split into q, k and v."""
    out = {}
    for name, t in named.items():
        if ".attn.qkv." in name:
            for part, block in zip("qkv", np.split(t.data, 3, axis=-1)):
                out[name.replace(".qkv.", f".{part}.")] = block
        else:
            out[name] = t.data
    return out


def test_packed_qkv_weights_keep_the_draws_of_separate_projections(monkeypatch):
    from selectmae import layers, masking

    def build():
        model = ModelParams(BB, np.random.default_rng(7))
        return {**model.named(), **masking.SelectionParams(np.random.default_rng(8), 16).named()}

    packed = _unpack(build())
    monkeypatch.setattr(layers, "AttentionParams", _SeparateProjections)
    monkeypatch.setattr(masking, "AttentionParams", _SeparateProjections)
    separate = {k: t.data for k, t in build().items()}
    assert packed.keys() == separate.keys()
    for name, arr in separate.items():
        assert np.array_equal(packed[name], arr), name


def test_attention_is_three_nodes_and_two_projections():
    from selectmae.layers import AttentionParams, LayerNormParams, attention

    params = AttentionParams(np.random.default_rng(0), 16, 2)
    assert sorted(params.named("attn")) == [
        "attn.o.bias", "attn.o.weight", "attn.qkv.bias", "attn.qkv.weight"]
    assert params.qkv.weight.shape == (16, 48) and params.qkv.bias.shape == (48,)
    with nm.Tape() as tape:
        out = attention(nm.Tensor(np.ones((2, 5, 16), dtype=np.float32)), LayerNormParams(16),
                        params)
    assert out.shape == (2, 5, 16)
    assert len(tape) == 3  # normalized qkv projection, attend, output projection


def test_parameter_tensor_counts_at_the_default_config():
    from selectmae.downstream import ClassifierHead
    from selectmae.masking import SelectionParams

    bb = BackboneConfig()
    model = ModelParams(bb, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), bb.enc_dim)
    head = ClassifierHead(np.random.default_rng(2), bb.enc_dim, 12)
    assert len(model.named()) + len(selector.named()) == 115  # adaptive pretraining
    assert len(model.encoder_named()) + len(head.named()) == 54  # fine-tuning


def test_named_starts_with_the_encoder_in_order():
    """AdamW lays its flat buffers out, and sums the clipped norm, in
    `named()` order; the encoder's tensors lead it, as `encoder_named()`
    lists them, then come the decoder's."""
    model = _model()
    names, encoder = list(model.named()), list(model.encoder_named())
    assert names[:len(encoder)] == encoder
    assert all(".decoder." in name for name in names[len(encoder):])
    assert all(model.named()[k] is t for k, t in model.encoder_named().items())
