"""A tour of the autodiff core: build a graph, differentiate it, verify it.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from seqlab.tensor import (
    Tensor,
    add,
    backward,
    gradient_check,
    matmul,
    multiply,
    no_grad,
    reduce_sum,
    sigmoid,
    tanh,
    tensor,
)


def main() -> None:
    rng = np.random.default_rng(0)

    # Leaves are Tensors; every op records how to push gradients back.
    w = tensor(rng.normal(size=(3, 4)))
    x = tensor(rng.normal(size=(4, 2)))
    b = tensor(np.zeros((3, 1)))

    hidden = tanh(add(matmul(w, x), b))
    gate = sigmoid(reduce_sum(hidden))
    loss = multiply(gate, gate)
    print(f"forward value: {float(loss.values):.6f}")

    grads = backward(loss, wrt=[w, x, b])
    for name, leaf in (("w", w), ("x", x), ("b", b)):
        g = grads[leaf]
        print(f"d loss / d {name}: shape {g.shape}, norm {np.linalg.norm(g):.6f}")

    # The same computation under no_grad() records nothing.
    with no_grad():
        silent = multiply(sigmoid(reduce_sum(tanh(add(matmul(w, x), b)))), gate)
    print(f"no_grad forward matches: {np.allclose(silent.values, loss.values)}")

    # Central finite differences audit the whole graph end to end.
    def build_loss(leaves: dict[str, Tensor]) -> Tensor:
        h = tanh(add(matmul(leaves["w"], leaves["x"]), leaves["b"]))
        g = sigmoid(reduce_sum(h))
        return multiply(g, g)

    report = gradient_check(
        build_loss,
        {"w": w.values, "x": x.values, "b": b.values},
        step=1e-5,
        tolerance=1e-6,
    )
    print(report.summary())


if __name__ == "__main__":
    main()
