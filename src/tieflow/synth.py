"""Synthetic event logs with planted community structure.

Pair co-visits are Poisson processes over the semester: same-community
pairs at intra_rate and cross pairs at inter_rate (co-visits per pair per
week). Each co-visit emits two spend events at a shared random location,
the second offset by a uniform jitter. Co-visits involving different
communities are kept temporally separated per location, so the planted
structure is exactly the cross-community signal in the log. Spending
amounts get per-community means so variance-reduction metrics are testable
on generated data.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .cooccur import DEFAULT_WINDOW
from .events import TIME_LIMIT, EventLog, TimeRange
from .metrics import LOCATION_CATEGORIES

WEEK_SECONDS = 7 * 86400

DEFAULT_LOCATIONS = {"dining": 33, "bath": 6, "boiler": 6, "shop": 4}

# Most co-visits (the sum of the Poisson means) a configuration may ask for:
# about 24 times the 253k of the 5,000-student scale configuration.
MAX_COVISITS = 6_000_000


@dataclass(frozen=True)
class SyntheticConfig:
    n_students: int
    n_communities: int
    semester: TimeRange
    intra_rate: float  # co-visits per same-community pair per week
    inter_rate: float  # co-visits per cross-community pair per week
    jitter: int = 60  # max seconds between the two paired events
    seed: int = 0
    locations_per_category: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LOCATIONS)
    )
    base_amount: float = 10.0  # community c draws amounts around base + c * step
    amount_step: float = 4.0
    amount_sigma: float = 1.5

    def validate(self) -> None:
        if self.n_students < 1:
            raise ValueError("need at least one student")
        if not 1 <= self.n_communities <= self.n_students:
            raise ValueError("community count must lie in [1, n_students]")
        if min(self.locations_per_category.values(), default=0) < 0:
            raise ValueError("location counts must be non-negative")
        if sum(self.locations_per_category.values()) < 1:
            raise ValueError("need at least one location")
        if not self.intra_rate > self.inter_rate >= 0:
            raise ValueError("rates must satisfy intra_rate > inter_rate >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.semester.span_seconds <= self.jitter:
            raise ValueError("semester too short for the jitter")
        if self.semester.end > TIME_LIMIT:
            raise ValueError("the semester ends after 9999-12-31, the last day of event times")


def _community_blocks(n_students: int, n_communities: int) -> np.ndarray:
    """Contiguous, balanced community assignment (sizes differ by at most 1)."""
    sizes = np.full(n_communities, n_students // n_communities, dtype=np.int64)
    sizes[: n_students % n_communities] += 1
    return np.repeat(np.arange(n_communities, dtype=np.int64), sizes)


def _sample_pairs(
    rng: np.random.Generator,
    count: int,
    community: np.ndarray,
    want_same: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random (a, b) student index pairs, same- or cross-community."""
    n = len(community)
    first = np.empty(count, dtype=np.int64)
    second = np.empty(count, dtype=np.int64)
    remaining = np.arange(count)
    while len(remaining):
        a = rng.integers(0, n, size=len(remaining))
        b = rng.integers(0, n, size=len(remaining))
        same = community[a] == community[b]
        ok = (a != b) & (same if want_same else ~same)
        first[remaining[ok]] = a[ok]
        second[remaining[ok]] = b[ok]
        remaining = remaining[~ok]
    return first, second


_MIXED = -1  # placement tag for co-visits spanning two communities
_PLACEMENT_RETRIES = 200


def _place_covisit_times(
    rng: np.random.Generator,
    location_ids: np.ndarray,
    tags: np.ndarray,
    start: int,
    end: int,
    separation: int,
) -> np.ndarray:
    """Draw a base time per co-visit, keeping different-community co-visits
    at the same location more than `separation` seconds apart.

    This guarantees the only cross-community co-occurrences in the log are
    the planted inter-community co-visits; chance collisions cannot occur.
    Same-community co-visits may coincide freely.
    """
    # Per location, the placed times in ascending order and their tags.
    placed: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    times = np.empty(len(location_ids), dtype=np.int64)
    for k in range(len(location_ids)):
        placed_times, placed_tags = placed[int(location_ids[k])]
        tag = int(tags[k])
        for _ in range(_PLACEMENT_RETRIES):
            t0 = int(rng.integers(start, end))
            window = placed_tags[bisect_left(placed_times, t0 - separation):
                                 bisect_right(placed_times, t0 + separation)]
            # A mixed co-visit needs an empty window, any other only its own tag.
            if all(other == tag != _MIXED for other in window):
                break
        else:
            raise ValueError("could not separate cross-community co-visits; "
                             "the configuration is too dense for the semester")
        at = bisect_right(placed_times, t0)
        placed_times.insert(at, t0)
        placed_tags.insert(at, tag)
        times[k] = t0
    return times


def generate(config: SyntheticConfig) -> tuple[EventLog, dict[str, int]]:
    """Draw the planted-community event log; deterministic for a fixed seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    width = max(4, len(str(config.n_students - 1)))
    students = [f"s{i:0{width}d}" for i in range(config.n_students)]
    community = _community_blocks(config.n_students, config.n_communities)
    ground_truth = {students[i]: int(community[i]) for i in range(config.n_students)}

    locations = list(default_category_map(config))

    weeks = config.semester.span_seconds / WEEK_SECONDS
    community_sizes = Counter(int(c) for c in community)
    intra_pairs = sum(size * (size - 1) // 2 for size in community_sizes.values())
    total_pairs = config.n_students * (config.n_students - 1) // 2
    cross_pairs = total_pairs - intra_pairs

    intra_mean = intra_pairs * config.intra_rate * weeks
    cross_mean = cross_pairs * config.inter_rate * weeks
    if not intra_mean + cross_mean <= MAX_COVISITS:
        raise ValueError(f"the configuration asks for about {intra_mean + cross_mean:.3g} "
                         f"co-visits, more than the {MAX_COVISITS} allowed")
    # A zero mean draws nothing, and neither does sampling zero pairs.
    n_intra, n_cross = int(rng.poisson(intra_mean)), int(rng.poisson(cross_mean))
    intra = _sample_pairs(rng, n_intra, community, want_same=True)
    cross = _sample_pairs(rng, n_cross, community, want_same=False)
    first, second = np.concatenate([intra[0], cross[0]]), np.concatenate([intra[1], cross[1]])

    total = len(first)
    location_ids = rng.integers(0, len(locations), size=total)
    tags = np.where(community[first] == community[second], community[first], _MIXED)
    base_times = _place_covisit_times(
        rng, location_ids, tags, config.semester.start, config.semester.end - config.jitter,
        # Cross-community co-visits at one location stay a co-occurrence
        # window (plus jitter) apart, so chance collisions cannot fake a tie.
        separation=DEFAULT_WINDOW + config.jitter,
    )
    offsets = rng.integers(0, config.jitter + 1, size=total)
    means = config.base_amount + config.amount_step * community
    amount_first = np.maximum(rng.normal(means[first], config.amount_sigma), 0.0)
    amount_second = np.maximum(rng.normal(means[second], config.amount_sigma), 0.0)

    def pairs(x, y):  # co-visit k's first event, then its second
        return np.stack([x, y], axis=1).ravel()

    log = EventLog.from_codes(
        students, pairs(first, second), locations, pairs(location_ids, location_ids),
        pairs(base_times, base_times + offsets), pairs(amount_first, amount_second),
        np.ones(2 * total, dtype=bool),
    )
    return log, ground_truth


def default_category_map(config: SyntheticConfig) -> dict[str, str]:
    """Location -> behavior category for the generated location ids."""
    mapping = {}
    for category in sorted(config.locations_per_category):
        behavior = category if category in LOCATION_CATEGORIES else "other"
        for i in range(config.locations_per_category[category]):
            mapping[f"{category}{i:02d}"] = behavior
    return mapping


def nmi(a: Mapping[str, int], b: Mapping[str, int]) -> float:
    """Normalized mutual information with arithmetic-mean normalization.

    Only nodes labeled in both inputs count. Identical partitions (up to
    relabeling) score 1; independent ones have expectation near 0.
    """
    common = sorted(set(a) & set(b))
    if not common:
        raise ValueError("labelings share no labeled nodes")
    n = len(common)
    joint = Counter((a[node], b[node]) for node in common)
    count_a = Counter(a[node] for node in common)
    count_b = Counter(b[node] for node in common)

    h_a = -sum((c / n) * math.log(c / n) for c in count_a.values())
    h_b = -sum((c / n) * math.log(c / n) for c in count_b.values())
    info = 0.0
    for (label_a, label_b), c in joint.items():
        p = c / n
        info += p * math.log(p * n * n / (count_a[label_a] * count_b[label_b]))
    if h_a == 0.0 and h_b == 0.0:
        return 1.0  # both trivial partitions: identical up to relabeling
    return min(1.0, max(0.0, info / ((h_a + h_b) / 2.0)))
