"""Event-exact simulation of the n-th G/GI/N+GI many-server system.

Under FCFS a customer's fate depends only on the customers ahead of it, so
the simulator is one forward pass over customers in queue order: the
multi-server workload recursion of Kiefer & Wolfowitz (1955), extended to
impatient customers by Baccelli & Hebuterne (1981).  A heap ``V`` holds the
N_n epochs at which the servers next fall free (idle servers at -inf, busy
initial servers at their residual service).  Customer i, arriving at a_i
with patience g_i and service requirement s_i, is offered the start

    start_i = max(a_i, min V)

and enters service iff start_i <= a_i + g_i + TIE_WINDOW, which replaces
min V by start_i + s_i; otherwise it abandons at a_i + g_i and touches no
server.  No time is discretized, and the system is work-conserving by
construction.  The record holds the per-customer times the recursion
computes; the counting paths are built from them, and so is the event log,
on first read.  It also keeps min V as each customer saw it, so offered
and virtual waits are read off the recursion itself, exactly, even where
they end after the horizon.

Tie rules, with TIE_WINDOW = 1e-12 in absolute time:

* patience vs service: a server that falls free within TIE_WINDOW after a
  customer's patience expires still admits that customer;
* no early starts: a service never starts before its server falls free;
* horizon: an event is recorded iff its time is <= horizon;
* log order: events are sorted by time; at equal times completions come
  before arrivals before abandonments, and each service start directly
  follows the completion or arrival that triggered it (the k-th start at a
  completion epoch pairs with the k-th completion there, in id order).

Per-customer service requirements and patience times are drawn in arrival
order from dedicated streams, so runs that differ only in the abandonment
flag consume identical randomness customer by customer (common random
numbers).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property
from hashlib import sha256

import numpy as np

from .distributions import DistributionSpec, check_count, check_keys, check_number, \
    check_service_mean
from .paths import MAX_CELLS, CadlagPath, _coalesced
from .patience import PatienceSpec
from .renewal import equilibrium_distribution
from .streams import BLOCK, draw_blocks, make_rng

TIE_WINDOW = 1e-12

KIND_COMPLETION = 0
KIND_START = 1
KIND_ARRIVAL = 2
KIND_ABANDONMENT = 3
KIND_NAMES = {0: "service-end", 1: "service-start", 2: "arrival", 3: "abandonment"}

OUTCOME_SERVED = 0
OUTCOME_ABANDONED = 1
OUTCOME_WAITING = 2
OUTCOME_IN_SERVICE = 3


def spec_hash(doc: dict) -> str:
    """12-hex digest of a JSON document, independent of key order."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SystemConfig:
    """One fully specified n-th system.

    ``alpha`` selects the regime: N_n = ceil(n^alpha) servers, each working
    at rate mu_n = n^(1-alpha) * mu, fed at rate lambda_n = n mu (1 + beta /
    sqrt(n)), which must be positive: interarrival times are draws of the
    base law ``arrival``, which must have mean 1, over lambda_n.  At every
    alpha the service law must have mean 1/mu (`check_service_mean`); below
    alpha = 1 it must also be exponential (it is sped up to mu_n internally).
    The initial head count is X(0) = N_n + ceil(sqrt(n) * xi), with sqrt(n) * xi
    finite; initial queued customers never abandon.  N_n and X(0) + lambda_n *
    horizon are each at most ``MAX_CELLS``.
    """

    n: int
    alpha: float
    mu: float
    beta: float
    arrival: DistributionSpec
    service: DistributionSpec
    patience: PatienceSpec | None
    horizon: float
    xi: float = 0.0
    abandon: bool = True

    def __post_init__(self):
        """Every construction passes here; it stores an int n and float scalars."""
        object.__setattr__(self, "n", check_count(self.n, "n"))
        for k in ("alpha", "mu", "beta", "horizon", "xi"):
            object.__setattr__(self, k, check_number(getattr(self, k), k))
        if not isinstance(self.abandon, bool):
            raise ValueError(f"abandon must be true or false, got {self.abandon!r}")
        if not (isinstance(self.arrival, DistributionSpec) and isinstance(self.service,
                DistributionSpec) and isinstance(self.patience, (PatienceSpec, type(None)))):
            raise ValueError("arrival and service must be DistributionSpecs, "
                             "and patience a PatienceSpec or None")
        if not abs(self.arrival.mean() - 1.0) <= 1e-8:
            raise ValueError(f"base interarrival law must have mean 1, got {self.arrival.mean()}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.mu <= 0 or self.horizon <= 0:
            raise ValueError(f"mu and horizon must be positive, got {self.mu} and {self.horizon}")
        if self.lambda_n <= 0:
            raise ValueError(f"arrival rate nonpositive at n={self.n}: "
                             f"beta={self.beta} too negative")
        if self.abandon and self.patience is None:
            raise ValueError("abandon=True requires a patience spec")
        if self.alpha < 1.0 and self.service.family != "exponential":
            raise ValueError(f"alpha < 1 requires exponential service (got {self.service.family})")
        check_service_mean(self.service, self.mu, f"alpha = {self.alpha:g}")
        head = math.sqrt(self.n) * self.xi
        if not math.isfinite(head):
            raise ValueError(f"sqrt(n) * xi must be finite, got sqrt({self.n}) * {self.xi}")
        customers = self.servers + head + self.lambda_n * self.horizon
        if not max(self.servers, customers) <= MAX_CELLS:
            raise ValueError(f"n={self.n} gives {self.servers} servers and X(0) + lambda_n * "
                             f"horizon = {customers:.4g}; each must be at most {MAX_CELLS}")
        if self.initial_head_count() < 0:
            raise ValueError(f"xi={self.xi} makes the initial head count negative at n={self.n}")

    @property
    def servers(self) -> int:
        return math.ceil(self.n ** self.alpha - 1e-9)

    @property
    def mu_n(self) -> float:
        return self.n ** (1.0 - self.alpha) * self.mu

    @property
    def lambda_n(self) -> float:
        return self.n * self.mu * (1.0 + self.beta / math.sqrt(self.n))

    def effective_service(self) -> DistributionSpec:
        """Per-server service law actually simulated."""
        if self.alpha < 1.0:
            return DistributionSpec.exponential(self.mu_n)
        return self.service

    def initial_head_count(self) -> int:
        return self.servers + math.ceil(math.sqrt(self.n) * self.xi - 1e-12)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "mu": self.mu,
            "beta": self.beta,
            "arrival": self.arrival.to_dict(),
            "service": self.service.to_dict(),
            "patience": None if self.patience is None else self.patience.to_dict(),
            "horizon": self.horizon,
            "xi": self.xi,
            "abandon": self.abandon,
        }

    def limit_function(self):
        """The abandonment limit f of this system; None with abandonment off."""
        return self.patience.limit_function() if self.abandon else None

    @staticmethod
    def from_dict(d: dict) -> "SystemConfig":
        known = {"n", "alpha", "mu", "beta", "arrival", "service", "patience",
                 "horizon", "xi", "abandon"}
        check_keys(d, known, "config", required=known)
        pat = d["patience"]
        return SystemConfig(**{**d, "arrival": DistributionSpec.from_dict(d["arrival"]),
                               "service": DistributionSpec.from_dict(d["service"]),
                               "patience": None if pat is None else PatienceSpec.from_dict(pat)})

    def hash(self) -> str:
        return spec_hash(self.to_dict())


@dataclass(frozen=True)
class SimRecord:
    """Complete output of one replication: what the FCFS recursion computes.

    Customer ids are assigned in FCFS position order: initial in-service
    customers first, then initial queued, then arrivals in arrival order.
    Per-customer times are NaN where the corresponding event never happened
    within the horizon.  ``server_free[i]`` is the earliest epoch at which a
    server falls free as seen by queue-eligible customer ``n_initial_service
    + i`` (-inf while a server idles), exact even when it lies beyond the
    horizon; its last entry is the one a customer behind the last would see.
    Offered and virtual waits are read off it.  The counting paths E, S, G
    and the head count X are built from the per-customer times; the event
    log (``event_times``, ``event_kinds``, ``event_ids``) is built from them
    on first read.
    """

    config: SystemConfig
    seed: int
    replication: int
    n_initial_service: int
    n_initial_queued: int
    arrival_times: np.ndarray
    patience_times: np.ndarray
    service_times: np.ndarray
    entry_times: np.ndarray
    completion_times: np.ndarray
    abandon_times: np.ndarray
    outcomes: np.ndarray
    server_free: np.ndarray
    X: CadlagPath
    E: CadlagPath
    S: CadlagPath
    G: CadlagPath

    @property
    def customers(self) -> int:
        return self.arrival_times.size

    @property
    def Q(self) -> CadlagPath:
        servers = self.config.servers
        return self.X.map_values(lambda x: np.maximum(x - servers, 0.0))

    @cached_property
    def _log(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _event_log(self)

    @property
    def event_times(self) -> np.ndarray:
        return self._log[0]

    @property
    def event_kinds(self) -> np.ndarray:
        return self._log[1]

    @property
    def event_ids(self) -> np.ndarray:
        return self._log[2]

    def balance_gap(self) -> float:
        """max over X breakpoints of |X - X(0) - E + S + G| (0 when consistent)."""
        t = self.X.times
        x0 = self.X.values[0]
        recon = x0 + self.E.sampled(t) - self.S.sampled(t) - self.G.sampled(t)
        return float(np.max(np.abs(self.X.values - recon)))


def _assemble_record(config, seed, replication, s0, q0, **customers) -> SimRecord:
    """Build the paths from the per-customer times (shared with the heap oracle).

    E, S and G coalesce three sorted runs: the arrivals as the recursion made
    them, and the finite completions and abandonments, each sorted once.
    X = x0 + E - S - G coalesces one stable merge of the same runs, with
    jumps +1, -1 and -1.
    """
    T = config.horizon
    x0 = s0 + q0
    runs = [customers["arrival_times"][x0:]]
    runs += [np.sort(times[np.isfinite(times)])
             for times in (customers["completion_times"], customers["abandon_times"])]
    E, S, G = (_coalesced(run, 1.0, 0.0, T) for run in runs)
    times = np.concatenate(runs)
    order = np.argsort(times, kind="stable")
    X = _coalesced(times[order], np.where(order < runs[0].size, 1.0, -1.0), x0, T)
    return SimRecord(config=config, seed=seed, replication=replication,
                     n_initial_service=s0, n_initial_queued=q0, X=X, E=E, S=S, G=G,
                     **customers)


def _arrival_epochs(rng: np.random.Generator, base, rate: float, horizon: float) -> np.ndarray:
    """Arrival epochs <= horizon: running sums of the interarrivals base / rate."""
    blocks = []
    last = 0.0
    while last <= horizon:
        gaps = base.sample(rng, BLOCK) / rate
        gaps[0] += last
        blocks.append(np.cumsum(gaps))
        last = blocks[-1][-1]
    epochs = np.concatenate(blocks)
    return epochs[: np.searchsorted(epochs, horizon, side="right")]


def _fcfs_starts(free_at: list, arrivals, services, limits) -> tuple[np.ndarray, np.ndarray]:
    """Offered-wait recursion over customers in FCFS order.

    ``free_at`` is the heap of server-free epochs and is updated in place.
    Returns ``(start, server_free)``: each customer's service start, NaN
    for those who abandon, and the earliest server-free epoch each customer
    sees, with one more entry for a customer behind the last.
    """
    replace = heapq.heapreplace
    seen = []
    for a, s, limit in zip(arrivals.tolist(), services.tolist(), limits.tolist()):
        free = free_at[0]
        seen.append(free)
        # an idle server takes the customer at once: a <= limit always
        if free < a:
            replace(free_at, a + s)
        elif free <= limit:
            replace(free_at, free + s)
    seen.append(free_at[0])
    server_free = np.array(seen)
    offered = np.maximum(arrivals, server_free[:-1])
    return np.where(offered <= limits, offered, np.nan), server_free


def _until(times: np.ndarray, horizon: float) -> np.ndarray:
    """The times that fall within the horizon, NaN elsewhere."""
    return np.where(times <= horizon, times, np.nan)


def _rank_among_equal(times: np.ndarray) -> np.ndarray:
    """Position of each entry among the entries with the same time, in index order."""
    order = np.argsort(times, kind="stable")
    ordered = times[order]
    rank = np.empty(times.size, dtype=np.int64)
    rank[order] = np.arange(times.size) - np.searchsorted(ordered, ordered, side="left")
    return rank


def _event_log(rec: SimRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, kinds, ids) of every recorded event, in the documented order."""
    s0 = rec.n_initial_service
    x0 = s0 + rec.n_initial_queued
    arrival_times, entry_times = rec.arrival_times, rec.entry_times
    completion_times, abandon_times = rec.completion_times, rec.abandon_times
    arr = np.arange(x0, arrival_times.size)
    started = s0 + np.flatnonzero(np.isfinite(entry_times[s0:]))
    done = np.flatnonzero(np.isfinite(completion_times))
    left = np.flatnonzero(np.isfinite(abandon_times))
    t_start = entry_times[started]
    # a start at its own arrival epoch follows the arrival; any other start
    # follows the completion that freed its server
    on_arrival = (started >= x0) & (t_start == arrival_times[started])
    start_tie = started.copy()
    start_tie[~on_arrival] = _rank_among_equal(t_start[~on_arrival])

    times = np.concatenate([arrival_times[arr], t_start, completion_times[done],
                            abandon_times[left]])
    kinds = np.concatenate([np.full(arr.size, KIND_ARRIVAL, dtype=np.int8),
                            np.full(started.size, KIND_START, dtype=np.int8),
                            np.full(done.size, KIND_COMPLETION, dtype=np.int8),
                            np.full(left.size, KIND_ABANDONMENT, dtype=np.int8)])
    ids = np.concatenate([arr, started, done, left])
    priority = np.concatenate([np.full(arr.size, KIND_ARRIVAL),
                               np.where(on_arrival, KIND_ARRIVAL, KIND_COMPLETION),
                               np.full(done.size, KIND_COMPLETION),
                               np.full(left.size, KIND_ABANDONMENT)])
    tie = np.concatenate([arr, start_tie, _rank_among_equal(completion_times[done]), left])
    order = np.lexsort((kinds == KIND_START, tie, priority, times))
    return times[order], kinds[order], ids[order]


def simulate(config: SystemConfig, seed: int, replication: int = 0) -> SimRecord:
    """Run one replication on [0, horizon]; same arguments, same record."""
    T = config.horizon
    n_servers = config.servers
    x0 = config.initial_head_count()
    s0 = min(x0, n_servers)
    q0 = x0 - s0

    rng_initial = make_rng(seed, replication, "initial")
    eff_service = config.effective_service()
    remaining = (equilibrium_distribution(eff_service).sample(rng_initial, s0) if s0 > 0
                 else np.empty(0))
    queued_service = eff_service.sample(rng_initial, q0) if q0 > 0 else np.empty(0)

    arrivals = _arrival_epochs(make_rng(seed, replication, "arrivals"), config.arrival,
                               config.lambda_n, T)
    k = arrivals.size
    services = draw_blocks(make_rng(seed, replication, "services"), eff_service.sample, k)
    if config.abandon:
        patience = draw_blocks(make_rng(seed, replication, "patience"),
                               config.patience.sampler_n(config.n), k)
    else:
        patience = np.full(k, math.inf)

    # queue-eligible customers, ids s0.. in FCFS order: initial queued
    # (arrived at 0, never abandon), then arrivals
    a = np.concatenate([np.zeros(q0), arrivals])
    s = np.concatenate([queued_service, services])
    expiry = np.concatenate([np.full(q0, math.inf), arrivals + patience])
    free_at = [-math.inf] * (n_servers - s0) + remaining.tolist()
    heapq.heapify(free_at)
    start, server_free = _fcfs_starts(free_at, a, s, expiry + TIE_WINDOW)

    entry = _until(start, T)
    arrival_times = np.concatenate([np.zeros(s0), a])
    entry_times = np.concatenate([np.zeros(s0), entry])
    completion_times = np.concatenate([_until(remaining, T), _until(entry + s, T)])
    abandon_times = np.concatenate(
        [np.full(s0, np.nan), _until(np.where(np.isnan(start), expiry, np.nan), T)])
    outcomes = np.full(x0 + k, OUTCOME_WAITING, dtype=np.int8)
    outcomes[np.isfinite(entry_times)] = OUTCOME_IN_SERVICE
    outcomes[np.isfinite(completion_times)] = OUTCOME_SERVED
    outcomes[np.isfinite(abandon_times)] = OUTCOME_ABANDONED

    return _assemble_record(
        config=config, seed=seed, replication=replication, s0=s0, q0=q0,
        arrival_times=arrival_times,
        patience_times=np.concatenate([np.full(x0, math.inf), patience]),
        service_times=np.concatenate([np.full(s0, np.nan), s]),
        entry_times=entry_times, completion_times=completion_times,
        abandon_times=abandon_times, outcomes=outcomes, server_free=server_free,
    )


# ---------------------------------------------------------------------------
# waiting times read off the recorded server-free epochs


def virtual_wait_path(record: SimRecord, grid) -> np.ndarray:
    """Vectorized virtual waits on a grid within [0, horizon]."""
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid.min() < 0 or grid.max() > record.config.horizon):
        raise ValueError("grid must lie within [0, horizon]")
    ahead = np.searchsorted(record.arrival_times[record.n_initial_service:], grid, side="right")
    return np.maximum(record.server_free[ahead], grid) - grid
