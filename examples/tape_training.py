"""Training on the flat-tape autodiff engine: a seeded fit,
``gradcheck``, and the per-op profiler timers.

Every op — ``Tensor`` arithmetic, ``repro.autodiff.functional``, the
fused nn-module ops — dispatches through one registry; inside
``with Tape():`` it records onto the tape, and ``backward`` replays the
records in reverse.  This example fits a VRDAG twice with the same seed
and checks the loss curves are bit-identical, pins a module gradient
against finite differences, and prints the tape's per-op timing report.

Run:  python examples/tape_training.py [--tiny]
"""

import numpy as np

from repro.autodiff import Tape, Tensor, gradcheck
from repro.core import TrainConfig, VRDAG, VRDAGConfig, VRDAGTrainer
from repro.datasets import load_dataset
from repro.nn import GRUCell
from repro.profiling import profiler


def main(tiny: bool = False) -> None:
    scale, epochs = (0.012, 2) if tiny else (0.03, 10)
    graph = load_dataset("email", scale=scale, seed=0)
    print(f"training twin: {graph}")

    # 1. VRDAGTrainer records each epoch on a fresh tape; the same seed
    #    gives the same loss curve, bit for bit.
    histories = []
    for run in range(2):
        cfg = VRDAGConfig(
            num_nodes=graph.num_nodes,
            num_attributes=graph.num_attributes,
            hidden_dim=16, latent_dim=8, encode_dim=16,
            mixture_components=2, seed=7,
        )
        result = VRDAGTrainer(VRDAG(cfg), TrainConfig(epochs=epochs)).fit(graph)
        histories.append(result.loss_history)
        print(
            f"  fit {run}: loss {result.loss_history[0]:.4f}"
            f" -> {result.final_loss:.4f}"
        )
    assert histories[0] == histories[1], "seeded fits diverged"
    print("seeded fits agree bit for bit")

    # 2. gradcheck records the loss on a tape and pins its gradients
    #    against central finite differences.
    rng = np.random.default_rng(3)
    gru = GRUCell(4, 6, rng=rng)
    x, h = rng.normal(size=(5, 4)), rng.normal(size=(5, 6))

    def loss_fn():
        return (gru(Tensor(x), Tensor(h)) ** 2).mean()

    assert gradcheck(loss_fn, gru.parameters(), max_entries=8)
    print("gradcheck OK (GRU cell vs finite differences)")

    # 3. The profiler breaks a step down per tape op: tape.op.* is the
    #    forward record, tape.vjp.* the backward kernel.
    profiler.reset()
    with profiler.enable():
        with Tape():
            loss = loss_fn()
            loss.backward()
    report = profiler.report()
    tape_lines = [
        line for line in report.splitlines()
        if "tape.op." in line or "tape.vjp." in line
    ]
    print("per-op tape timers for one GRU forward/backward:")
    for line in tape_lines:
        print(f"  {line.strip()}")
    profiler.reset()


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-test settings: seconds instead of minutes",
    )
    main(tiny=parser.parse_args().tiny)
