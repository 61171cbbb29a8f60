"""The fungus library: concrete decay organisms.

Coverage of the paper's design space — "rate of decay, what to decay,
how to decay":

* :class:`~repro.fungi.retention.RetentionFungus` — the
  "old-fashioned" retention-time cliff the paper names first.
* :class:`~repro.fungi.linear.LinearDecayFungus` — constant loss/tick.
* :class:`~repro.fungi.exponential.ExponentialDecayFungus` — half-life.
* :class:`~repro.fungi.sigmoid.SigmoidDecayFungus` — logistic
  freshness-vs-age: fresh through youth, collapse at midlife.
* :class:`~repro.fungi.egi.EGIFungus` — the paper's worked example:
  age-biased seeding + bi-directional neighbour spread.
* :class:`~repro.fungi.blue_cheese.BlueCheeseFungus` — bounded,
  accelerating rot spots (the Blue Cheese analogy made literal).
* :class:`~repro.fungi.access.AccessRefreshFungus` — access boosts
  freshness (the "inspect them once" extension).
* :class:`~repro.fungi.wrappers.PredicateFungus` — *what* to decay.
* :class:`~repro.fungi.wrappers.CompositeFungus` — several at once.
* :class:`~repro.fungi.wrappers.NullFungus` — the no-decay control.

:class:`~repro.fungi.spotset.SpotSet` is the one interval class, on
arrays: EGI and Blue Cheese keep their spots in it, and the storage
table its tombstone-run index, so a spread cycle is a fixed number of
array operations over spans.
"""

from repro.fungi.spotset import SpotSet
from repro.fungi.retention import RetentionFungus
from repro.fungi.linear import LinearDecayFungus
from repro.fungi.exponential import ExponentialDecayFungus
from repro.fungi.sigmoid import SigmoidDecayFungus
from repro.fungi.egi import EGIFungus
from repro.fungi.blue_cheese import BlueCheeseFungus
from repro.fungi.access import AccessRefreshFungus
from repro.fungi.wrappers import CompositeFungus, NullFungus, PredicateFungus

__all__ = [
    "AccessRefreshFungus",
    "BlueCheeseFungus",
    "CompositeFungus",
    "EGIFungus",
    "ExponentialDecayFungus",
    "LinearDecayFungus",
    "NullFungus",
    "PredicateFungus",
    "RetentionFungus",
    "SigmoidDecayFungus",
    "SpotSet",
]
