"""F7 — owner care: watched data does not rot.

Paper claims operationalised:

* EGI "leads to removing complete insertion ranges when not being
  taking care of by its owner" — so an owner who *does* take care
  (keeps querying a working set) should keep it alive;
* "inspect them once before removal" — access is what earns a tuple
  its stay.

Two identical EGI tables ingest the same Zipf-keyed stream. In the
*cared* arm the fungus is wrapped in
:class:`~repro.fungi.access.AccessRefreshFungus` and a dashboard
queries the hot keys every tick; the *neglected* arm runs bare EGI
with the same queries (which then have no effect on decay). We
measure, per key class (hot = queried, cold = never queried), the
survival rate and mean freshness at the end.
"""

from __future__ import annotations

from repro.core.db import FungusDB
from repro.experiments.common import ExperimentResult, pick, register
from repro.fungi import AccessRefreshFungus, EGIFungus
from repro.storage.schema import ColumnDef, DataType, Schema
from repro.workload.distributions import ZipfInts

CLAIM = (
    "Data whose owner keeps inspecting it survives the fungus; "
    "neglected insertion ranges rot away."
)

HOT_KEYS = ("k1", "k2", "k3")


def _run_arm(cared: bool, ticks: int, rate: int, seed: int = 14) -> FungusDB:
    inner = EGIFungus(seeds_per_cycle=3, decay_rate=0.3)
    fungus = AccessRefreshFungus(inner, boost=0.5) if cared else inner
    db = FungusDB(seed=seed)
    schema = Schema([ColumnDef("key", DataType.STR), ColumnDef("v", DataType.INT)])
    db.create_table("items", schema, fungus=fungus)
    keys = ZipfInts(20, s=1.1, seed=seed)
    for tick in range(ticks):
        rows = [{"key": f"k{keys.sample()}", "v": tick * rate + i} for i in range(rate)]
        db.insert_many("items", rows)
        # the owner's dashboard: touches only the hot keys, every tick
        for key in HOT_KEYS:
            db.query(f"SELECT count(*) FROM items WHERE key = '{key}'")
        db.tick(1)
    return db


def _survival(db: FungusDB, hot: bool) -> tuple[int, float]:
    """(live count, mean freshness) of the hot/cold key class."""
    table = db.table("items")
    count = 0
    freshness_sum = 0.0
    for rid in table.live_rows():
        key = table.attributes_of(rid)["key"]
        if (key in HOT_KEYS) == hot:
            count += 1
            freshness_sum += table.freshness(rid)
    return count, (freshness_sum / count if count else 0.0)


@register("F7")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the owner-care experiment at the given scale."""
    ticks = pick(scale, 60, 200)
    rate = pick(scale, 8, 15)

    arms = {
        "cared (access-refresh)": _run_arm(True, ticks, rate),
        "neglected (bare EGI)": _run_arm(False, ticks, rate),
    }

    headers = ("arm", "hot live", "hot mean f", "cold live", "cold mean f")
    rows = []
    measured: dict[str, dict[str, float]] = {}
    for name, db in arms.items():
        hot_live, hot_f = _survival(db, hot=True)
        cold_live, cold_f = _survival(db, hot=False)
        measured[name] = {
            "hot_live": hot_live,
            "hot_f": hot_f,
            "cold_live": cold_live,
            "cold_f": cold_f,
        }
        rows.append((name, hot_live, round(hot_f, 3), cold_live, round(cold_f, 3)))

    result = ExperimentResult(
        experiment_id="F7",
        title="Owner care: queried working set vs neglected history",
        claim=CLAIM,
        scale=scale,
        headers=headers,
        rows=rows,
    )
    cared = measured["cared (access-refresh)"]
    neglected = measured["neglected (bare EGI)"]
    result.notes.append(
        f"hot keys {HOT_KEYS} are queried every tick in both arms; only the "
        f"cared arm's fungus listens"
    )

    result.check(
        "care keeps at least twice as many hot tuples alive as neglect",
        cared["hot_live"] >= 2 * max(neglected["hot_live"], 1),
    )
    # difference-in-differences: care multiplies HOT survival relative
    # to the neglected arm far more than it multiplies COLD survival
    # (hot keys also get more inserts under Zipf, so comparing across
    # arms — same ingest — is the unbiased test)
    hot_ratio = cared["hot_live"] / max(neglected["hot_live"], 1)
    cold_ratio = cared["cold_live"] / max(neglected["cold_live"], 1)
    result.check(
        "care is selective: hot survival gain dwarfs cold survival gain",
        hot_ratio >= 3 * cold_ratio,
    )
    result.check(
        "neglect is indiscriminate: hot and cold rot alike (within 25%)",
        abs(neglected["hot_f"] - neglected["cold_f"]) <= 0.25,
    )
    return result
