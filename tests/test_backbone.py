import numpy as np
import pytest

from selectmae import numerics as nm
from selectmae.backbone import BackboneConfig, ModelParams, decode, encode
from selectmae.errors import ConfigError, ContractError
from selectmae.layers import apply_layer_norm, linear
from selectmae.masking import MaskSpec, sample_visible
from selectmae.numerics.gradcheck import check_param_gradients
from selectmae.tokenizer import TokenizerConfig, positional_encoding

TOK = TokenizerConfig(tubelet=(2, 2, 2), dim=16)
BB = BackboneConfig(enc_depth=2, enc_dim=16, enc_heads=2, dec_depth=2, dec_dim=8, dec_heads=2)


def _model(seed=0):
    return ModelParams(TOK, BB, np.random.default_rng(seed))


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
    spec = sample_visible(np.full(16, 1 / 16), 0.5, np.random.default_rng(2))
    latents = encode(nm.gather_rows_batched(_clip_tokens(), spec.visible_ids[None]), model)
    assert latents.shape == (1, spec.n_visible, 16)


def test_encode_depth_zero_is_final_norm_only():
    cfg = BackboneConfig(enc_depth=0, enc_dim=16, enc_heads=2, dec_depth=1, dec_dim=8, dec_heads=2)
    model = ModelParams(TOK, cfg, np.random.default_rng(0))
    x = _tokens(4)
    out = encode(x, model)
    expected = nm.layer_norm(x, model.enc_norm.gain, model.enc_norm.bias)
    np.testing.assert_allclose(out.data, expected.data, atol=1e-6)


def test_encode_permutation_equivariance():
    model = _model()
    x = _tokens(10)
    perm = np.random.default_rng(3).permutation(10)
    base = encode(x, model).data
    permuted = encode(nm.Tensor(x.data[perm]), model).data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-5)


def test_encode_requires_matching_dim():
    model = _model()
    with pytest.raises(ConfigError):
        encode(nm.Tensor(np.zeros((4, 8), dtype=np.float32)), model)


def test_decode_shapes_and_order():
    model = _model()
    spec = sample_visible(np.full(16, 1 / 16), 0.75, np.random.default_rng(4))
    preds = _forward(_clip_tokens(), spec, model)
    assert preds.shape == (1, spec.n_masked, TOK.patch_len())
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
    cfg = BackboneConfig(enc_depth=1, enc_dim=16, enc_heads=2, dec_depth=0, dec_dim=8, dec_heads=2)
    model = ModelParams(TOK, cfg, np.random.default_rng(0))
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
    from selectmae.tokenizer import tokenize
    from selectmae.training import reconstruction_loss

    cfg = SynthConfig(frames=4, height=8, width=8)
    clip = generate_clip(cfg, 0, 0)
    tok_cfg = TokenizerConfig(tubelet=(2, 2, 2), dim=16)
    model = ModelParams(tok_cfg, BB, np.random.default_rng(1))
    targets = patch_normalize_targets(clip, tok_cfg)
    spec = sample_visible(np.full(32, 1 / 32), 0.75, np.random.default_rng(2))
    with nm.Tape() as tape:
        grid = tokenize(clip, tok_cfg, model.proj.weight, model.proj.bias)
        preds = _forward(nm.reshape(grid.tokens, (1, 32, 16)), spec, model)
        target_rows = targets.values[spec.masked_ids][None]
        loss, _ = reconstruction_loss(preds, target_rows, "mse")
    nm.backward(loss, tape)
    missing = [name for name, t in model.named().items() if t.grad is None]
    assert missing == []


def test_full_visibility_mode_for_downstream():
    model = _model()
    spec = MaskSpec.full(16)
    latents = encode(nm.gather_rows_batched(_clip_tokens(), spec.visible_ids[None]), model)
    assert latents.shape == (1, 16, 16)


def test_backbone_config_validation():
    with pytest.raises(ConfigError):
        BackboneConfig(enc_dim=10, enc_heads=4)
    with pytest.raises(ConfigError):
        BackboneConfig(dec_dim=9, dec_heads=3)
