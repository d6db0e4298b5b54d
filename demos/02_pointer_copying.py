"""Watch the copy mechanism earn its keep on out-of-vocabulary words.

Trains two small models on a copy task whose sources are sprinkled with
words the vocabulary has never seen: one with the pointer switch, one
without.  The pointer model copies the unknowns through the extended
vocabulary; the plain model is structurally unable to.

Run:  python3 demos/02_pointer_copying.py   (about a minute)
"""

import tempfile
from pathlib import Path

from seqlab.data import SynthSpec, encode_example, ids_to_tokens, make_task_corpora
from seqlab.decoding import greedy_decode
from seqlab.model import ModelConfig
from seqlab.sharing import ParamRegistry, SharingPlan
from seqlab.training import TrainConfig, TrainTask, in_vocab_fraction, token_accuracy, train


def fit(corpora, vocab, use_pointer: bool, steps: int, run_dir: Path):
    cfg = ModelConfig(
        vocab_size=len(vocab), emb_dim=16, hidden=32,
        use_pointer=use_pointer, use_coverage=False,
    )
    tconf = TrainConfig(
        cov_weight=0.0, lr=1e-3, batch_size=8, max_steps=steps,
        val_every=200, checkpoint_every=steps, patience=999, seed=11,
    )
    registry = ParamRegistry(cfg, SharingPlan.solo(), seed=11, init_range=0.1)
    registry.add_task("copy")
    train(cfg, tconf, registry, [TrainTask("copy", corpora, vocab)], run_dir)
    return registry.task("copy"), cfg


def main() -> None:
    spec = SynthSpec()  # vocabulary 50, out-of-vocabulary pool 20
    corpora = make_task_corpora("copy-oov", seed=11, sizes=(2000, 200, 300), spec=spec)
    vocab = spec.vocab()
    held_out = [encode_example(ex, vocab) for ex in corpora.test]
    bound = in_vocab_fraction(held_out, len(vocab))
    print(f"{len(held_out)} held-out examples; "
          f"{100 * (1 - bound):.1f}% of reference tokens are out-of-vocabulary")

    with tempfile.TemporaryDirectory() as tmp:
        pointer, cfg_p = fit(corpora, vocab, True, 800, Path(tmp) / "pointer")
        plain, cfg_n = fit(corpora, vocab, False, 400, Path(tmp) / "plain")

    for name, params, cfg in (("pointer", pointer, cfg_p), ("no pointer", plain, cfg_n)):
        acc = token_accuracy(params, cfg, held_out, batch_size=32)
        print(f"{name:>10}: held-out token accuracy {100 * acc:.1f}%")
    print(f"(the no-pointer model cannot beat {100 * bound:.1f}%, "
          f"the in-vocabulary fraction)")

    # Decode one example and show the copied unknowns.
    example = next(ex for ex in held_out if ex.oovs)
    print(f"\nsource:    {' '.join(example.example.source)}")
    print(f"reference: {' '.join(example.example.target)}")
    for name, params, cfg in (("pointer", pointer, cfg_p), ("no pointer", plain, cfg_n)):
        ids = greedy_decode(params, cfg, example, max_len=20)
        print(f"{name:>10}: {' '.join(ids_to_tokens(ids, vocab, example.oovs))}")


if __name__ == "__main__":
    main()
