#!/usr/bin/env python
"""Internet-scale behaviour: power laws and the diameter effect (§5).

1. Generates BRITE-style topologies and verifies they satisfy the
   Faloutsos power laws the paper requires of its simulation setup.
2. Sweeps the network size and shows that sessions-to-consistency
   track the *diameter*, not the node count — the paper's argument for
   why the scheme scales to "the whole Internet with a huge number of
   hosts but a diameter in the order of 20".

Run:  python examples/internet_scale.py
"""

from repro import ReplicationSystem, fast_consistency, weak_consistency
from repro.demand import UniformRandomDemand
from repro.sim import derive_seed
from repro.topology import diameter, internet_like, rank_exponent, verify_internet_like

SIZES = (25, 50, 100, 200)
REPS = 8
SEED = 3


def check_power_laws() -> None:
    topo = internet_like(200, seed=SEED)
    fits = verify_internet_like(topo, min_correlation=0.8)
    print(f"power laws on {topo} (|r| = goodness of fit):")
    for law, fit in fits.items():
        print(
            f"  {law:9s} exponent {fit.exponent:+.3f}   |r| {abs(fit.correlation):.3f}"
        )


def mean_sessions(n: int, config) -> tuple:
    total, total_diameter = 0.0, 0
    for rep in range(REPS):
        topo = internet_like(n, seed=derive_seed(SEED, f"t/{n}/{rep}"))
        system = ReplicationSystem(
            topology=topo,
            demand=UniformRandomDemand(seed=derive_seed(SEED, f"d/{n}/{rep}")),
            config=config,
            seed=derive_seed(SEED, f"s/{n}/{rep}"),
        )
        system.start()
        update = system.inject_write(0)
        done = system.run_until_replicated(update.uid, max_time=120.0)
        total += done if done is not None else 120.0
        total_diameter += diameter(topo)
    return total / REPS, total_diameter / REPS


def main() -> None:
    check_power_laws()
    print(f"\nsize sweep ({REPS} repetitions each):")
    print(f"{'nodes':>6s} {'diameter':>9s} {'weak':>7s} {'fast':>7s}")
    for n in SIZES:
        weak_mean, dia = mean_sessions(n, weak_consistency())
        fast_mean, _ = mean_sessions(n, fast_consistency())
        print(f"{n:>6d} {dia:>9.2f} {weak_mean:>7.2f} {fast_mean:>7.2f}")
    print(
        "\nnodes grow 8x but sessions barely move — they follow the "
        "diameter,\nwhich is why the paper argues this scales to the "
        "whole Internet."
    )


if __name__ == "__main__":
    main()
