"""Watch the coverage penalty talk a looping decoder out of repeating itself.

Early in training, sequence decoders love to get stuck: attention returns
to the same source position and the same bigram comes out over and over.
The coverage penalty charges the model for re-attending to positions it
has already used, which breaks the loop.  This demo trains the same small
rewrite model twice — with and without the penalty — stops both while they
are still half-baked, and compares how often their greedy decodes repeat a
bigram.

Run:  python3 demos/03_coverage_repetition.py   (about a minute)
"""

import tempfile
from pathlib import Path

import numpy as np

from seqlab.data import SynthSpec, encode_example, ids_to_tokens, make_task_corpora
from seqlab.decoding import beam_search, greedy_decode
from seqlab.metrics import repetition_rate
from seqlab.model import ModelConfig
from seqlab.sharing import ParamRegistry, SharingPlan
from seqlab.training import TrainConfig, TrainTask, train

STEPS = 200


def fit(corpora, vocab, use_coverage: bool, run_dir: Path):
    cfg = ModelConfig(
        vocab_size=len(vocab), emb_dim=16, hidden=32,
        use_pointer=True, use_coverage=use_coverage,
    )
    tconf = TrainConfig(
        cov_weight=1.0 if use_coverage else 0.0,
        lr=1e-3, batch_size=8, max_steps=STEPS,
        val_every=STEPS, checkpoint_every=STEPS, patience=999, seed=0,
    )
    registry = ParamRegistry(cfg, SharingPlan.solo(), seed=0, init_range=0.1)
    registry.add_task("rw")
    train(cfg, tconf, registry, [TrainTask("rw", corpora, vocab)], run_dir)
    return registry.task("rw"), cfg


def mean_repetition(params, cfg, held_out) -> float:
    pools = beam_search(params, cfg, held_out, beam=1, max_len=20)
    return float(np.mean([repetition_rate([str(i) for i in pool[0].tokens], 2) for pool in pools]))


def main() -> None:
    # Sources draw from only three distinct words, so even the references
    # repeat themselves a little — a decoder that loops repeats far more.
    spec = SynthSpec(
        content_words=20, oov_pool=2, min_len=10, max_len=14,
        oov_rate=0.0, distinct_words=3, keyword_pool=3,
    )
    corpora = make_task_corpora(
        "subset-rewrite", seed=40, sizes=(1500, 150, 500), spec=spec
    )
    vocab = spec.vocab()
    held_out = [encode_example(ex, vocab) for ex in corpora.test]
    reference = float(np.mean(
        [repetition_rate(" ".join(ex.target), 2) for ex in corpora.test]
    ))
    print(f"{len(held_out)} held-out examples; "
          f"references repeat {100 * reference:.1f}% of their bigrams")

    with tempfile.TemporaryDirectory() as tmp:
        covered, cfg_c = fit(corpora, vocab, True, Path(tmp) / "coverage")
        plain, cfg_n = fit(corpora, vocab, False, Path(tmp) / "plain")

    rate_c = mean_repetition(covered, cfg_c, held_out)
    rate_n = mean_repetition(plain, cfg_n, held_out)
    print(f"after {STEPS} steps, repeated-bigram rate on greedy decodes:")
    print(f"      coverage: {100 * rate_c:.1f}%")
    print(f"   no coverage: {100 * rate_n:.1f}%")

    # Show one decode side by side: the uncovered model's loop is visible.
    example = held_out[0]
    print(f"\nsource:      {' '.join(example.example.source)}")
    print(f"reference:   {' '.join(example.example.target)}")
    for name, params, cfg in (("coverage", covered, cfg_c), ("no coverage", plain, cfg_n)):
        ids = greedy_decode(params, cfg, example, max_len=20)
        print(f"{name:>11}: {' '.join(ids_to_tokens(ids, vocab, example.oovs))}")


if __name__ == "__main__":
    main()
