"""Beam search against brute force, then a metric report card.

Trains a toy three-word model, shows that a wide beam agrees with
exhaustively enumerating every candidate sequence, and runs the evaluation
metrics over a tiny batch of hypothesis/reference pairs.

Run:  python3 demos/05_beam_search_and_metrics.py   (about ten seconds)
"""

import itertools
import sys
import tempfile
from pathlib import Path

from seqlab.data import SynthSpec, encode_example, ids_to_tokens, make_task_corpora
from seqlab.decoding import beam_search, greedy_decode, score_sequence
from seqlab.metrics import EvalItem, evaluate_corpus
from seqlab.model import ModelConfig
from seqlab.sharing import ParamRegistry, SharingPlan
from seqlab.training import TrainConfig, TrainTask, train


def main() -> None:
    spec = SynthSpec(content_words=3, oov_pool=1, min_len=1, max_len=3,
                     oov_rate=0.0, keyword_pool=1)
    corpora = make_task_corpora("copy", seed=70, sizes=(400, 60, 10), spec=spec)
    vocab = spec.vocab()
    cfg = ModelConfig(vocab_size=len(vocab), emb_dim=8, hidden=16,
                      use_pointer=True, use_coverage=False)
    tconf = TrainConfig(cov_weight=0.0, lr=3e-3, batch_size=8, max_steps=200,
                        val_every=100, checkpoint_every=200, patience=999,
                        seed=70)
    registry = ParamRegistry(cfg, SharingPlan.solo(), seed=70, init_range=0.1)
    registry.add_task("copy")
    with tempfile.TemporaryDirectory() as tmp:
        train(cfg, tconf, registry, [TrainTask("copy", corpora, vocab)],
              Path(tmp) / "toy")
    params = registry.task("copy")

    # With 3 candidate tokens and the length pinned to 3, a beam of 27
    # holds the entire search space, so it must find the global optimum.
    content_ids = [vocab.id(w) for w in spec.content()]
    example = encode_example(corpora.test[0], vocab)
    best = beam_search(params, cfg, [example], beam=27, max_len=3, min_len=3)[0][0]
    ranked = sorted(
        itertools.product(content_ids, repeat=3),
        key=lambda seq: (-score_sequence(params, cfg, example, seq), seq),
    )
    print(f"source:            {' '.join(example.example.source)}")
    print(f"beam-27 best:      {ids_to_tokens(list(best.tokens), vocab, ())}")
    print(f"enumeration best:  {ids_to_tokens(list(ranked[0]), vocab, ())}")
    print(f"greedy (beam 1):   "
          f"{ids_to_tokens(greedy_decode(params, cfg, example, max_len=3), vocab, ())}")
    if list(best.tokens) != list(ranked[0]):
        sys.exit("beam search missed the optimum!")

    # Metric report over a couple of handwritten pairs.
    items = [
        EvalItem(candidate="the cat sat on the mat",
                 reference="the cat sat on the mat",
                 source="the cat sat on the mat today",
                 keywords=("cat", "mat")),
        EvalItem(candidate="a dog ran ran ran",
                 reference="the dog ran away fast",
                 source="yesterday the dog ran away very fast",
                 keywords=("dog", "away")),
    ]
    report = evaluate_corpus(items)
    print("\nmetric report:")
    print(report.table())


if __name__ == "__main__":
    main()
