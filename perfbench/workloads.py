"""The games each benchmark workload plays.

Every stream, panel and learner seed derives from the workload seed, so one
seed names one set of inputs. ``run_game`` receives only the generated
adversary and expert specs; stream and panel generation therefore happen
inside ``harness.build_adversary`` and ``harness.build_suite`` and count as
set-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from factgame.harness import RunConfig

DEFAULT_SEED = 0  # the seed the golden ledger hashes were recorded at


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one input of a workload, fixed by (seed, tag)."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Game:
    """One ``run_game`` call of a workload."""

    name: str  # unique within its workload
    learner: str
    adversary: str
    experts: str | None
    capacity: int
    seed: int
    backing: str = "auto"
    soundness: bool = False
    pair: str | None = None  # games sharing a pair key must emit identical bytes

    def config(self, csv_path: str, summary_path: str) -> RunConfig:
        return RunConfig(
            learner=self.learner,
            adversary=self.adversary,
            experts=self.experts,
            capacity=self.capacity,
            seed=self.seed,
            oracle_backing=self.backing,
            verify_soundness=self.soundness,
            csv_path=csv_path,
            summary_path=summary_path,
        )


def small_panel(seed: int) -> list[Game]:
    """Per-step Python overhead: a saturated 128-question universe, so
    value-suite offers are re-shows and set-up is only stream generation."""
    stream = f"random:universe=128,T=50000,teach=0.5,seed={derive_seed(seed, 'stream')}"
    panel = f"values:N=64,universe=128,seed={derive_seed(seed, 'panel')}"
    rng_seed = derive_seed(seed, "learner")
    games = [
        Game(f"{learner}/striped", learner, stream, "scripted:striped,N=64", 16, rng_seed)
        for learner in ("mwu", "lazy", "full-sim", "random-evict")
    ]
    # value-lazy needs a value-based panel; full-sim on `values` is left out
    # because its union rebuild would drown every other game.
    games += [
        Game(
            f"{learner}/values", learner, stream, panel, 16, rng_seed,
            backing="threshold", soundness=learner == "value-lazy",
        )
        for learner in ("lazy", "mwu", "value-lazy")
    ]
    return games


def large_panel(seed: int) -> list[Game]:
    """N=1024 experts: numpy kernels over the N x U value table, two table
    builds per value game, and the only adaptive adversary."""
    stream = f"random:universe=1024,T=1000,teach=0.5,seed={derive_seed(seed, 'stream')}"
    panel = f"values:N=1024,universe=1024,seed={derive_seed(seed, 'panel')}"
    lower_bound = "lowerbound:c=2,N=1024,M=64,opt=2"
    rng_seed = derive_seed(seed, "learner")
    games = []
    for adversary, experts, tag in ((stream, panel, "values"), (lower_bound, None, "lowerbound")):
        for learner in ("mwu", "lazy", "value-lazy"):
            games.append(
                Game(
                    f"{learner}/{tag}", learner, adversary, experts, 64, rng_seed,
                    backing="threshold", soundness=learner == "value-lazy",
                )
            )
    return games


def fresh_writes(seed: int) -> list[Game]:
    """Write-heavy experts: a 20000-question universe and 90% teaches make
    most offers first shows. Each learner plays the same stream and panel on
    both backings, which must emit identical bytes."""
    stream = f"random:universe=20000,T=3000,teach=0.9,seed={derive_seed(seed, 'stream')}"
    panel = f"values:N=64,universe=20000,seed={derive_seed(seed, 'panel')}"
    rng_seed = derive_seed(seed, "learner")
    return [
        Game(
            f"{learner}/{backing}", learner, stream, panel, 16, rng_seed,
            backing=backing, soundness=learner == "value-lazy", pair=learner,
        )
        for learner in ("lazy", "value-lazy")
        for backing in ("simulation", "threshold")
    ]


WORKLOADS = {
    "small-panel": small_panel,
    "large-panel": large_panel,
    "fresh-writes": fresh_writes,
}
