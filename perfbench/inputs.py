"""Write the email dataset twin's store columns to an ``.npz`` file.

Run by the benchmark in a child interpreter (see
``workloads.load_twin``)::

    python3 perfbench/inputs.py --seed 3 --scale 0.5 --timesteps 48 \\
        --out twin.npz
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--timesteps", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from repro.datasets import load_dataset

    store = load_dataset(
        "email", scale=args.scale, seed=args.seed,
        num_timesteps=args.timesteps,
    ).store
    np.savez(
        args.out, num_nodes=store.num_nodes,
        num_timesteps=store.num_timesteps, src=store.src, dst=store.dst,
        t=store.t, attributes=store.attributes,
    )


if __name__ == "__main__":
    main()
