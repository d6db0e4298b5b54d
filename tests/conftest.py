"""Shared helpers: tiny models and batches for fast tests."""

import numpy as np
import pytest

from seqlab.data import SynthSpec, encode_example, gen_copy, make_batch
from seqlab.model import ModelConfig
from seqlab.sharing import single_task_params

TINY_SPEC = SynthSpec(content_words=16, oov_pool=5, min_len=4, max_len=6)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(vocab_size=20, emb_dim=8, hidden=8)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_examples(n=4, seed=0, spec=TINY_SPEC, with_oov=True):
    vocab = spec.vocab()
    rng = np.random.default_rng(seed)
    return [encode_example(e, vocab) for e in gen_copy(rng, n, spec, with_oov=with_oov)]


def tiny_batch(n=4, seed=0, spec=TINY_SPEC, with_oov=True):
    return make_batch(tiny_examples(n, seed, spec, with_oov)), spec.vocab()


@pytest.fixture
def tiny_setup():
    cfg = tiny_config()
    batch, vocab = tiny_batch()
    params = single_task_params(cfg, seed=1)
    return cfg, params, batch, vocab
