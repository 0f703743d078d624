"""Entry-year dependence of breeding-time statistics under one fixed
environment sequence.

A single illustrative 40-year condition sequence (synthetic, listed below,
not observational data) drives the model; fledglings entering in different
years then face different remaining environments. For each entry year this
prints the mean and coefficient of variation of the lifetime number of
breeding attempts for an individual starting as a pre-breeder that year.

Usage: python3 scripts/fulmar_entry_year.py [--years N]
"""

import argparse
import sys

import stagedwell as sw

# favourable/ordinary/unfavourable labels; rough decadal alternation with a
# harsh stretch in the middle, for illustration only
SEQUENCE = (
    "f o o f o f o o f o "
    "u u o u u f o u u o "
    "f f o f o o f f o f "
    "o f o o f o f o o f"
).split()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--years", type=int, default=20,
                        help="number of entry years to report (default 20)")
    args = parser.parse_args(argv)

    data = sw.builtin_fulmar()
    key = {"f": "U_f", "o": "U_o", "u": "U_u"}
    order = list(data.matrices)
    indices = [order.index(key[s]) for s in SEQUENCE]
    schedule = sw.Schedule.explicit(list(data.matrices.values()), indices)

    target = data.target_set()  # the two breeder stages
    v = data.initial  # a pre-breeder

    if not 0 < args.years <= len(SEQUENCE):
        parser.error(f"--years must be in 1..{len(SEQUENCE)}")
    print(f"{'entry year':>10s} {'condition':>9s} {'E[tau]':>8s} {'CV':>7s}")
    for start in range(args.years):
        m1, m2 = sw.occupancy_moments(schedule, v, target, start=start, order=2)
        stats = sw.summary_stats(m1, m2)
        print(f"{start:10d} {SEQUENCE[start]:>9s} {stats.mean:8.4f} {stats.cv:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
