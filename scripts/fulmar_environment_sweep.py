"""Sweep mixtures of the three fulmar condition matrices over the probability
simplex and tabulate two-level occupancy statistics.

At each grid point (p_U_f, p_U_o, p_U_u), named like the CSV columns after
the condition matrices U_f, U_o and U_u, the environment draws one of the
condition matrices independently each year. The script samples environment
sequences, computes the exact breeding-time statistics along each, and
reports the variance decomposition into within-sequence and between-sequence
parts.

The defaults keep the run short; the full-resolution table is
    python3 scripts/fulmar_environment_sweep.py --grid-step 0.05 --samples 2000
which took about 100 s on a 2-core x86_64 host with BLAS on one thread.
"""

import argparse
import sys

import stagedwell as sw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid-step", type=float, default=0.25,
                        help="simplex resolution, must divide 1 (default 0.25)")
    parser.add_argument("--samples", type=int, default=200,
                        help="environment sequences per grid point (default 200)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)

    config = sw.builtin_fulmar_scenario()
    points = sw.simplex_sweep(
        sw.builtin_fulmar().conditions(), args.grid_step,
        config.initial, config.target_set(),
        n_sequences=args.samples, seed=args.seed, sample_length=5000,
    )
    failed = [p for p in points if p.error is not None]
    for p in failed:
        print(f"warning: point {p.probabilities} failed: {p.error}", file=sys.stderr)
    sw.export_results(points, "csv", args.out)
    print(f"{len(points) - len(failed)}/{len(points)} grid points completed",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
