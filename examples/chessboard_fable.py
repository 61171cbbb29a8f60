"""The chessboard fable, replayed.

"For the first square of the chess board, he would receive one grain
of wheat, two for the second one, four on the third one, ..." — the
paper's motivation. This demo doubles the ingest every two ticks and
shows what each appetite does to the extent of R, with sparklines.

Run: ``python examples/chessboard_fable.py``
"""

from repro import EGIFungus, FungusDB, NullFungus, RetentionFungus
from repro.experiments.report import sparkline
from repro.workload import ChessboardArrivals, SensorGenerator
from repro.workload.replay import ReplayDriver


def run_arm(name: str, fungus, ticks: int = 20) -> list[int]:
    """One arm of the fable; returns the extent series."""
    db = FungusDB(seed=1)
    generator = SensorGenerator(num_sensors=10, seed=1)
    db.create_table("grains", generator.schema, fungus=fungus)
    driver = ReplayDriver(
        db, "grains", ChessboardArrivals(initial=2, doubling_period=2, cap=5_000), generator
    )
    extents: list[int] = []
    driver.probe_each_tick(lambda tick, db, stats: extents.append(db.extent("grains")))
    stats = driver.run(ticks)
    print(f"{name:>12}: final extent {extents[-1]:>6} of {stats.inserted} grains   {sparkline(extents)}")
    return extents


def main() -> None:
    print("the king fills the board; each arm eats differently\n")
    hoard = run_arm("hoard", NullFungus())
    ttl = run_arm("retention-6", RetentionFungus(max_age=6))
    egi = run_arm("EGI", EGIFungus(seeds_per_cycle=4, decay_rate=0.34))

    print()
    print(f"the hoard kept every grain: {hoard[-1]}")
    print(f"retention kept only the last window: {ttl[-1]} "
          f"({ttl[-1] / hoard[-1]:.0%} of the hoard) — the rest rotted in storage")
    print(f"EGI, with a fixed appetite, fell behind: {egi[-1]}")
    print("\nmoral: don't collect more rice than you can eat —")
    print("and your appetite must grow as fast as your harvest.")


if __name__ == "__main__":
    main()
