"""Independent numerical oracles used by the test suite.

Everything here is deliberately written from first principles (direct
Monte Carlo, textbook recursions, brute-force ODE/PDE solves) rather than by
calling the library code under test.  The exceptions are differential
oracles for code that an exact reformulation replaced: `heap_simulate`, the
event-heap simulator that the FCFS recursion replaced, which shares only the
stream addresses, the initial-state draw and the path assembly with the
library; `replay_virtual_wait_path` / `replay_offered_waits`, which
rebuild the waits from a record's event log and head-count path instead of
its recorded server-free epochs; `picard_phi_mg`, the paper's Picard
iteration that the forward phi_Mg solve replaced, which shares only the
trapezoid sum with the library and solves phi_M through
`per_step_phi_m_solve`, the step-by-step phi_M solve that the blocked one
replaced; `endpoint_rule_phi_m`, the two-GEMM form of the trapezoid
convolution that the one-GEMM defect replaced; `per_step_trapezoid_residual`,
the per-grid-point dot products that a renewal table's one convolution
replaced;
`per_step_phi_mg_forward`, the step-by-step forward pass that the blocked
pass replaced, which shares only the trapezoid sum with it; and
`per_replication_limit`, the loop `httq limit` ran before it solved all
replications in one batch, which solves each replication on its own through
the one-path solve `limit_row`; `union_paths`, the head count sampled on the union
of the counting paths' breakpoints that the one-merge build replaced; and
`union_coupling_gap`, the coupling gap evaluated on the union of both
paths' breakpoints.  `path_min_value` and `path_integral` are exact
functionals of a stored `CadlagPath` that only the tests need, and
`openblas_mapped` tells, apart from the CLI's own library scan, whether an
OpenBLAS is loaded into the test process.  `virtual_wait`, `offered_waits`
and `limit_f` are instruments only the tests read: one virtual wait and the
offered waits read off a record's server-free epochs, and a patience law's
scaling limit tabulated as a path.  Two critical-scale service-noise
samplers serve the covariance cross-checks: `sample_gaussian_S`, one path
drawn through the library's dense reference factor, and
`sample_service_noise_finite_n`, the direct finite-n replica built from the
primitive service times, which shares only the dM convolution matrix
`stieltjes_matrix`, the (m + 1)^2 operator A that the library's blocked
solves read only through a window and an in-block slice.
`dense_service_covariance` is the Krichagina-Puhalskii build A C A^T of the
covariance that the library's stationary-renewal identity replaced, each
matrix formed whole (index gathers, min/max index matrices, one chained
product), sharing only the equilibrium law and the dM convolution matrix;
the two discretize one covariance and differ by O(h).  `dense_cholesky` is
the jitter ladder on numpy's whole-matrix factor.  `circulant_S` is the
circulant-embedding draw of the library's case-(ii) noise written out by hand:
its increments' covariance from `covariance_S` entries, a full complex FFT
each way and an explicit Hermitian mode vector, sharing only the layout of
the standard normals.  `noise_row` is one row of
`LimitModel.noise` as paths, from the stream a replication's limit draw reads.
"""

import heapq
import math
from collections import deque
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import solve_ivp

from httq.limits import LimitModel, _covariance_model, covariance_S
from httq.maps import OWN_STEP_MAX_ITER, _ULPS
from httq.paths import _cumtrapz, check_grid, counting_path, linear_path, step_path
from httq.renewal import equilibrium_distribution
from httq.simulator import (
    KIND_ABANDONMENT,
    KIND_ARRIVAL,
    KIND_COMPLETION,
    KIND_NAMES,
    KIND_START,
    OUTCOME_ABANDONED,
    OUTCOME_IN_SERVICE,
    OUTCOME_SERVED,
    OUTCOME_WAITING,
    TIE_WINDOW,
    _assemble_record,
    virtual_wait_path,
)
from httq.streams import make_rng


def mc_renewal_function(sample_fn, eval_times, n_paths, rng):
    """Monte-Carlo renewal counting: mean and SE of #renewals <= t.

    sample_fn(rng, size) draws interrenewal times.  Returns (mean, se) arrays
    over eval_times.
    """
    eval_times = np.asarray(eval_times, dtype=float)
    t_max = float(eval_times.max())
    # Generous draw horizon; extend per-path until every partial sum passes t_max.
    counts = np.zeros((n_paths, eval_times.size))
    batch = 20_000
    done = 0
    while done < n_paths:
        b = min(batch, n_paths - done)
        k = 8
        draws = sample_fn(rng, (b, k)) if _takes_shape(sample_fn) else sample_fn(rng, b * k).reshape(b, k)
        csum = np.cumsum(draws, axis=1)
        while np.any(csum[:, -1] <= t_max):
            extra = sample_fn(rng, (b, k)) if _takes_shape(sample_fn) else sample_fn(rng, b * k).reshape(b, k)
            csum = np.concatenate([csum, csum[:, -1:] + np.cumsum(extra, axis=1)], axis=1)
        counts[done : done + b] = (csum[:, :, None] <= eval_times[None, None, :]).sum(axis=1)
        done += b
    return counts.mean(axis=0), counts.std(axis=0, ddof=1) / math.sqrt(n_paths)


def _takes_shape(fn):
    try:
        fn(np.random.default_rng(0), (2, 2))
        return True
    except Exception:
        return False


def erlang2_renewal_closed_form(mu, t):
    """M(t) for Erlang-2 interrenewals with stage rate 2*mu (mean 1/mu)."""
    t = np.asarray(t, dtype=float)
    r = 2.0 * mu
    return r * t / 2.0 - 0.25 + 0.25 * np.exp(-2.0 * r * t)


def equilibrium_cdf_quadrature(cdf, mean, x):
    """H_e by fine midpoint quadrature of the survival function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        if xi <= 0:
            out[i] = 0.0
            continue
        grid = np.linspace(0.0, xi, 20_001)
        mids = 0.5 * (grid[1:] + grid[:-1])
        out[i] = np.sum((1.0 - np.asarray(cdf(mids))) * np.diff(grid)) / mean
    return np.minimum(out, 1.0)


def lindley_waits(interarrivals, services):
    """FCFS single-server offered waits: w_1 = 0, w_{i+1} = (w_i + v_i - a_{i+1})^+."""
    w = np.zeros(len(interarrivals))
    for i in range(1, len(interarrivals)):
        w[i] = max(0.0, w[i - 1] + services[i - 1] - interarrivals[i])
    return w


def mmn_abandonment_ctmc(lam, mu, servers, theta, horizon, max_states=200,
                         initial_state=0):
    """E[cumulative abandonment count on [0, horizon]] for M/M/s+M via the
    truncated forward equations, plus the terminal state distribution."""

    k = np.arange(max_states + 1)
    up = np.full(max_states + 1, lam)
    down = mu * np.minimum(k, servers) + theta * np.maximum(k - servers, 0)

    def rhs(t, y):
        p = y[:-1]
        dp = np.empty_like(p)
        dp[:] = -(up + down) * p
        dp[1:] += up[:-1] * p[:-1]
        dp[:-1] += down[1:] * p[1:]
        dp[-1] += up[-1] * p[-1]  # reflecting cap keeps mass conserved
        dab = np.sum(theta * np.maximum(k - servers, 0) * p)
        return np.concatenate([dp, [dab]])

    y0 = np.zeros(max_states + 2)
    y0[initial_state] = 1.0
    sol = solve_ivp(rhs, (0.0, horizon), y0, method="LSODA", rtol=1e-10, atol=1e-12, dense_output=False)
    if not sol.success:
        raise RuntimeError(sol.message)
    p_final = sol.y[:-1, -1]
    mass_at_cap = p_final[-1]
    if mass_at_cap > 1e-8:
        raise RuntimeError("state truncation too tight for this load")
    return float(sol.y[-1, -1]), p_final


def reflected_ou_stationary_cdf(drift_intercept, drift_slope, sigma2, x_hi, n_points=400_001):
    """Stationary cdf of dX = (a - b X) dt + sigma dW reflected at 0.

    Zero-flux stationarity gives p(x) proportional to exp(2(ax - b x^2/2)/sigma^2);
    solved by brute-force quadrature on a fine grid.
    """
    a, b = drift_intercept, drift_slope
    xs = np.linspace(0.0, x_hi, n_points)
    logp = (2.0 / sigma2) * (a * xs - 0.5 * b * xs**2)
    logp -= logp.max()
    p = np.exp(logp)
    c = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(xs))))
    if p[-1] > 1e-10 * p.max():
        raise RuntimeError("stationary density not negligible at the right edge; enlarge x_hi")
    c /= c[-1]
    return xs, c


def ks_one_sample(samples, cdf_values_at_sorted_samples):
    """Exact one-sample KS statistic given F evaluated at the sorted sample."""
    n = len(cdf_values_at_sorted_samples)
    i = np.arange(1, n + 1)
    f = np.asarray(cdf_values_at_sorted_samples)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


# ---------------------------------------------------------------------------
# differential oracle: the event-heap simulator

_WAITING = 0
_IN_SERVICE = 1
_SERVED = 2
_ABANDONED = 3


class BlockSampler:
    """Amortized scalar draws from a vectorized sampler.

    ``draw(rng, size) -> ndarray`` is called in blocks of ``block``;
    ``next()`` pops one variate.
    """

    def __init__(self, rng: np.random.Generator, draw, block: int = 4096):
        self._rng = rng
        self._draw = draw
        self._block = int(block)
        self._buf = draw(rng, self._block)
        self._i = 0

    def next(self) -> float:
        if self._i >= self._buf.size:
            self._buf = self._draw(self._rng, self._block)
            self._i = 0
        v = self._buf[self._i]
        self._i += 1
        return float(v)


def _path_window(path, a, b):
    """[a, b] as floats, b defaulting to the horizon, inside [0, horizon]."""
    b = path.horizon if b is None else float(b)
    if not (0.0 <= a <= b <= path.horizon + 1e-9):
        raise ValueError("window must satisfy 0 <= a <= b <= horizon")
    return float(a), min(b, path.horizon)


def path_min_value(path, a=0.0, b=None):
    """min over [a, b] of a CadlagPath, exact for its stored representation."""
    a, b = _path_window(path, a, b)
    lo = np.searchsorted(path.times, a, side="right")
    hi = np.searchsorted(path.times, b, side="right")
    inner = path.values[lo:hi]
    cand = inner.min() if inner.size else np.inf
    return float(min(cand, path(a), path(b)))


def path_integral(path, a=0.0, b=None):
    """int_a^b x(s) ds of a CadlagPath, exact for its stored representation."""
    a, b = _path_window(path, a, b)
    if b <= a:
        return 0.0
    # Breakpoints interior to (a, b), plus the endpoints.
    lo = np.searchsorted(path.times, a, side="right")
    hi = np.searchsorted(path.times, b, side="left")
    knots = np.concatenate(([a], path.times[lo:hi], [b]))
    if path.kind == "step":
        vals = path(knots[:-1])
        return float(np.sum(np.atleast_1d(vals) * np.diff(knots)))
    return float(np.trapezoid(path(knots), knots))


def heap_simulate(config, seed, replication=0):
    """The event-heap simulator the FCFS recursion replaced, kept verbatim.

    A binary heap orders events by (time, priority, sequence) with priorities
    0 service completion, 2 arrival, 3 patience expiry; events within
    TIE_WINDOW of the earliest are drained as a batch and replayed in
    priority order, and service starts happen inline.  The record's paths
    are built from the heap's per-customer times by the library's own
    `_assemble_record`, so records of the two simulators compare field by
    field; its event log is the one the heap wrote as it ran, stored in the
    record's cache, so the log comparison is against the heap and not
    against the library's rebuild.  The heap does not see server-free
    epochs per customer, so its record's `server_free` is all NaN.
    """
    T = config.horizon
    n_servers = config.servers
    x0 = config.initial_head_count()
    s0 = min(x0, n_servers)
    q0 = x0 - s0

    rng_initial = make_rng(seed, replication, "initial")
    eff_service = config.effective_service()
    arrivals = BlockSampler(make_rng(seed, replication, "arrivals"),
                            lambda rng, size: config.arrival.sample(rng, size)
                            / config.lambda_n)
    services = BlockSampler(make_rng(seed, replication, "services"),
                            lambda rng, size: eff_service.sample(rng, size))
    patience_draw = None
    if config.abandon:
        patience_draw = BlockSampler(make_rng(seed, replication, "patience"),
                                     config.patience.sampler_n(config.n))

    # per-customer storage (ids: 0..s0-1 initial in service, s0..s0+q0-1
    # initial queued, then arrivals)
    arr_t = [0.0] * x0
    pat_t = [math.inf] * x0
    svc_t: list[float] = [math.nan] * s0
    ent_t = [0.0] * s0 + [math.nan] * q0
    comp_t = [math.nan] * x0
    abn_t = [math.nan] * x0
    status = [_IN_SERVICE] * s0 + [_WAITING] * q0

    if s0 > 0:
        if config.alpha == 1.0:
            remaining = equilibrium_distribution(config.service).sample(rng_initial, s0)
        else:
            remaining = rng_initial.exponential(1.0 / config.mu_n, s0)
    else:
        remaining = np.empty(0)
    if q0 > 0:
        svc_t.extend(eff_service.sample(rng_initial, q0))

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for cid in range(s0):
        heap.append((float(remaining[cid]), KIND_COMPLETION, seq, cid))
        seq += 1
    heapq.heapify(heap)
    first = arrivals.next()
    if first <= T:
        heapq.heappush(heap, (first, KIND_ARRIVAL, seq, -1))
        seq += 1

    queue: deque[int] = deque(range(s0, s0 + q0))
    free = n_servers - s0

    ev_t: list[float] = []
    ev_k: list[int] = []
    ev_c: list[int] = []
    last_log = 0.0

    def log(t: float, kind: int, cid: int) -> None:
        # tie-window batches replay in priority order, which can step back
        # in time by <= 1e-12; clamp so the logged clock never decreases
        nonlocal last_log
        if t < last_log:
            t = last_log
        else:
            last_log = t
        ev_t.append(t)
        ev_k.append(kind)
        ev_c.append(cid)

    def dump_tail() -> str:
        tail = [
            f"{t:.15g} {KIND_NAMES[k]} customer {c}"
            for t, k, c in zip(ev_t[-20:], ev_k[-20:], ev_c[-20:])
        ]
        return "\n".join(tail)

    push = heapq.heappush
    pop = heapq.heappop

    def start_service(t: float, cid: int) -> None:
        nonlocal free, seq
        free -= 1
        status[cid] = _IN_SERVICE
        ent_t[cid] = t
        push(heap, (t + svc_t[cid], KIND_COMPLETION, seq, cid))
        seq += 1
        log(t, KIND_START, cid)

    while heap:
        t0 = heap[0][0]
        if t0 > T:
            break
        batch = [pop(heap)]
        while heap and heap[0][0] <= t0 + TIE_WINDOW:
            batch.append(pop(heap))
        if len(batch) > 1:
            batch.sort(key=lambda e: (e[1], e[0], e[2]))
        for t, kind, _, cid in batch:
            if kind == KIND_ARRIVAL:
                cid = len(arr_t)
                arr_t.append(t)
                svc_t.append(services.next())
                gamma = patience_draw.next() if patience_draw is not None else math.inf
                pat_t.append(gamma)
                comp_t.append(math.nan)
                abn_t.append(math.nan)
                ent_t.append(math.nan)
                status.append(_WAITING)
                log(t, KIND_ARRIVAL, cid)
                nxt = t + arrivals.next()
                if nxt <= T:
                    push(heap, (nxt, KIND_ARRIVAL, seq, -1))
                    seq += 1
                while queue and status[queue[0]] != _WAITING:
                    queue.popleft()
                if free > 0 and not queue:
                    start_service(t, cid)
                else:
                    queue.append(cid)
                    if gamma < math.inf:
                        push(heap, (t + gamma, KIND_ABANDONMENT, seq, cid))
                        seq += 1
            elif kind == KIND_COMPLETION:
                if status[cid] != _IN_SERVICE:
                    raise RuntimeError(
                        f"event-queue corruption: completion at t={t:.15g} for "
                        f"customer {cid} in state {status[cid]}; last events:\n"
                        + dump_tail()
                    )
                status[cid] = _SERVED
                comp_t[cid] = t
                free += 1
                log(t, KIND_COMPLETION, cid)
                while queue and status[queue[0]] != _WAITING:
                    queue.popleft()
                if queue:
                    start_service(t, queue.popleft())
            else:  # patience expiry; ignored unless the customer still waits
                if status[cid] != _WAITING:
                    continue
                status[cid] = _ABANDONED
                abn_t[cid] = t
                log(t, KIND_ABANDONMENT, cid)

    outcomes = np.full(len(arr_t), OUTCOME_WAITING, dtype=np.int8)
    st = np.asarray(status, dtype=np.int8)
    outcomes[st == _SERVED] = OUTCOME_SERVED
    outcomes[st == _ABANDONED] = OUTCOME_ABANDONED
    outcomes[st == _IN_SERVICE] = OUTCOME_IN_SERVICE

    record = _assemble_record(
        config=config, seed=seed, replication=replication, s0=s0, q0=q0,
        arrival_times=np.asarray(arr_t), patience_times=np.asarray(pat_t),
        service_times=np.asarray(svc_t), entry_times=np.asarray(ent_t),
        completion_times=np.asarray(comp_t), abandon_times=np.asarray(abn_t),
        outcomes=outcomes, server_free=np.full(len(arr_t) - s0 + 1, np.nan),
    )
    # the record's event log is the heap's own, not one rebuilt from the
    # per-customer times
    vars(record)["_log"] = (np.asarray(ev_t), np.asarray(ev_k, dtype=np.int8),
                            np.asarray(ev_c, dtype=np.int64))
    return record


def head_count_from_log(record):
    """(times, values) of X replayed from the record's event log.

    x0 plus a running sum of +1 per arrival and -1 per completion or
    abandonment, keeping the last value at each event time.
    """
    kinds = record.event_kinds
    delta = (kinds == KIND_ARRIVAL).astype(int) - np.isin(kinds, (KIND_COMPLETION,
                                                                 KIND_ABANDONMENT))
    moves = delta != 0
    tx = np.concatenate([[0.0], record.event_times[moves]])
    x0 = record.n_initial_service + record.n_initial_queued
    vx = x0 + np.concatenate([[0], np.cumsum(delta[moves])])
    keep = np.concatenate([np.diff(tx) > 0, [True]])
    return tx[keep], vx[keep].astype(float)


def union_paths(record):
    """(X, E, S, G) assembled as the library did before its one-merge build.

    E, S and G count the record's arrivals and its finite completions and
    abandonments, and X is x0 + E - S - G sampled on the sorted union of
    their breakpoints.
    """
    T = record.config.horizon
    x0 = record.n_initial_service + record.n_initial_queued
    E = counting_path(record.arrival_times[x0:], horizon=T)
    S, G = (counting_path(times[np.isfinite(times)], horizon=T)
            for times in (record.completion_times, record.abandon_times))
    t = np.unique(np.concatenate([E.times, S.times, G.times]))
    X = step_path(t, x0 + E.sampled(t) - S.sampled(t) - G.sampled(t), horizon=T)
    return X, E, S, G


def union_coupling_gap(bundle):
    """sup |Gt - compensator| evaluated on the sorted union of both paths' breakpoints.

    The form `validation.coupling_gap` took before it split the sup into
    one over the compensator's knots and one over Gt's breakpoints.
    """
    comp, g = bundle.compensator, bundle.G
    ts = np.union1d(g.times, comp.times)
    c = comp.sampled(ts)
    post = np.abs(g.sampled(ts) - c)
    pre = np.abs(np.asarray(g.left_limit(ts)) - c)
    return float(max(post.max(), pre.max()))


# ---------------------------------------------------------------------------
# differential oracle: waiting times replayed from the event log


def _entry_arrays(record):
    """(ids, entry times) of queue members who entered service, FCFS order."""
    s0 = record.n_initial_service
    mask = (record.event_kinds == KIND_START) & (record.event_ids >= s0)
    return record.event_ids[mask], record.event_times[mask]


def _next_idle_times(record):
    """For each X breakpoint, the first time >= it at which X < N_n."""
    tx = record.X.times
    below = record.X.values < record.config.servers
    cand = np.where(below, tx, np.inf)
    nxt = np.minimum.accumulate(cand[::-1])[::-1]
    return tx, nxt


def replay_virtual_wait_path(record, grid):
    """Virtual waits on a grid replayed from the log; NaN marks truncated queries.

    The hypothetical infinitely patient arrival at t enters service at the
    earlier of (a) the first epoch >= t with an idle server and (b) the
    first recorded service entry of a customer who arrived after t (whose
    slot it would have taken under FCFS).  Returns (values, truncated_count).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid.min() < 0 or grid.max() > record.config.horizon):
        raise ValueError("grid must lie within [0, horizon]")
    tx, nxt = _next_idle_times(record)
    idx = np.searchsorted(tx, grid, side="right") - 1
    idle_at = nxt[np.maximum(idx, 0)]

    ids, entries = _entry_arrays(record)
    ent_pad = np.append(entries, np.inf)
    pos = np.searchsorted(record.arrival_times[ids], grid, side="right")
    slot_at = ent_pad[pos]

    # idle_at below grid time means X < N_n on the segment containing t:
    # the hypothetical customer enters immediately
    enter = np.maximum(np.minimum(idle_at, slot_at), grid)
    waits = enter - grid
    truncated = ~np.isfinite(enter)
    waits[truncated] = np.nan
    return waits, int(np.count_nonzero(truncated))


def replay_offered_waits(record):
    """Offered wait per queue-eligible customer, replayed from the log.

    Served customers: recorded wait.  Abandoned customers: the wait they
    would have faced had they stayed, replayed against the others' recorded
    behavior: the earlier of the next idle-server epoch and the recorded
    entry of the next customer behind them.  NaN marks horizon truncation;
    the truncated count is returned alongside.
    """
    s0 = record.n_initial_service
    cids = np.arange(s0, record.customers)
    waits = record.entry_times[cids] - record.arrival_times[cids]

    ids, entries = _entry_arrays(record)
    tx, nxt = _next_idle_times(record)

    abandoned = np.flatnonzero(record.outcomes[cids] == OUTCOME_ABANDONED)
    if abandoned.size:
        ab_ids = cids[abandoned]
        a = record.arrival_times[ab_ids]
        ent_pad = np.append(entries, np.inf)
        slot = ent_pad[np.searchsorted(ids, ab_ids, side="right")]
        idle = nxt[np.maximum(np.searchsorted(tx, a, side="right") - 1, 0)]
        enter = np.minimum(slot, idle)
        waits[abandoned] = np.where(np.isfinite(enter), enter - a, np.nan)
    return waits, int(np.count_nonzero(np.isnan(waits)))


def virtual_wait(record, t):
    """Wait of a hypothetical infinitely patient arrival at time t.

    The hypothetical customer queues behind every customer who arrived by
    t and enters service at the first server-free epoch it sees, or at t
    when a server is free.  That epoch is exact even when it lies beyond
    the horizon.
    """
    return float(virtual_wait_path(record, np.asarray([float(t)]))[0])


def offered_waits(record):
    """Offered wait per queue-eligible customer (initial queued + arrivals).

    The wait from arrival to the first server-free epoch the customer sees:
    the recorded wait for those who entered service, and the wait they
    would have faced had they stayed for those who abandoned.  Waits that
    end beyond the horizon are exact too.
    """
    a = record.arrival_times[record.n_initial_service:]
    return np.maximum(a, record.server_free[:-1]) - a


def per_step_phi_m_solve(Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Forward solve of x = y + sum_j (x(t_k - t_j))^- dM_j, one step at a time.

    dM has no atom at 0, so x(t_k) never feeds its own convolution term:
    each step is one matvec of the history x^- at t_0..t_{k-1} against the
    reversed increments.
    """
    m = w.size
    X = np.empty_like(Y)
    neg = np.empty_like(Y)
    X[:, 0] = Y[:, 0]
    neg[:, 0] = np.maximum(-Y[:, 0], 0.0)
    wrev = w[::-1].copy()  # contiguous, so each matvec takes numpy's fast path
    for k in range(1, m + 1):
        X[:, k] = Y[:, k] + neg[:, :k] @ wrev[m - k:]
        neg[:, k] = np.maximum(-X[:, k], 0.0)
    return X


def per_step_trapezoid_residual(table) -> float:
    """sup over a trapezoid renewal table's grid of |M - H - H * dM|, with the
    Stieltjes sum at each grid point taken as its own dot product."""
    m = table.times.size - 1
    dM = np.diff(table.values)
    Hg = np.asarray(table.H.cdf(table.times), dtype=float)
    b = 0.5 * (Hg[:-1] + Hg[1:])  # b[i] = (H(t_i) + H(t_{i+1})) / 2
    r = 0.0
    for k in range(1, m + 1):
        conv = float(np.dot(dM[:k], b[k - 1 :: -1]))
        r = max(r, abs(table.values[k] - Hg[k] - conv))
    return float(r)


def stieltjes_matrix(w: np.ndarray) -> np.ndarray:
    """A = I + lower Toeplitz of dM: (A z)_k = z_k + sum_{j>=1} w_j z_{k-j}.

    The one causal dM convolution: (A - I) z is the right-endpoint rule for
    int z(t-s) dM(s) on the grid, with w_j = M(t_j) - M(t_{j-1}).  A is a
    read-only view of one (2m+1)-vector, not an (m+1)^2 buffer.
    """
    col = np.concatenate(([1.0], w))
    # window k of [0]*m + col is row k reversed: (col_k, ..., col_0) after m - k zeros
    return sliding_window_view(np.concatenate((np.zeros(w.size), col)), col.size)[:, ::-1]


def endpoint_rule_phi_m(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Mean of the right- and left-endpoint rules for int (x(t-s))^- dM(s),
    each applied through its own GEMM against A."""
    neg = np.maximum(-X, 0.0)
    ahead = np.zeros_like(neg)
    ahead[:, :-1] = neg[:, 1:]
    right = neg @ A.T - neg
    left = ahead @ A.T - ahead
    return 0.5 * (right + left)


def picard_phi_mg(Y, w, gv, h, sign, tol, init, max_iter=10_000):
    """Picard iteration u <- y + sign * int g((phi_M(u))^+) ds from ``init``.

    ``init`` is "y" or "zero".  Returns (X, U, sweeps, the sup-norm change
    of each sweep); stops once a sweep changes U by less than tol and the
    discrete equation closes within 10 * tol.
    """
    if init == "y":
        U = Y.copy()
    elif init == "zero":
        U = np.zeros_like(Y)
    else:
        raise ValueError(f"unknown initial guess {init!r}; use 'y' or 'zero'")
    changes = []
    for it in range(1, max_iter + 1):
        X = per_step_phi_m_solve(U, w)
        U_new = Y + sign * _cumtrapz(gv(np.maximum(X, 0.0)), h)
        change = float(np.max(np.abs(U_new - U)))
        changes.append(change)
        U = U_new
        if change < tol:
            X = per_step_phi_m_solve(U, w)
            closure = X - Y - (X - U) - sign * _cumtrapz(gv(np.maximum(X, 0.0)), h)
            if float(np.max(np.abs(closure))) < 10.0 * tol:
                return X, U, it, changes
    tail = changes[-5:]
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1) if tail[i] > 0]
    raise RuntimeError(
        f"Picard iteration did not converge within {max_iter} iterations: "
        f"last sup-change {changes[-1]:.3e}, recent decay ratios {ratios}"
    )


def per_step_phi_mg_forward(Y: np.ndarray, w: np.ndarray, gv: Callable, h: float, sign: float,
                            tol: float, max_iter: int = OWN_STEP_MAX_ITER) -> np.ndarray:
    """One forward pass through the discrete phi_Mg equation; returns U.

    The discrete fixed point satisfies x_k = R_k + sign * h/2 * g(x_k^+),
    where R_k holds y_k, the right-endpoint dM convolution of x^- at
    t_0..t_{k-1} and the trapezoid sum of g(x^+) through t_{k-1}: all
    known at step k.  The own-step equation is solved for every row at
    once by fixed-point iteration, a contraction with factor h/2 * lambda_g,
    until the update is below 1e-3 * tol.  An update that fails to shrink
    means the map does not contract, and raises.  The result is
    U = y + sign * int g(x^+) ds, whose phi_M image is x.
    """
    m = w.size
    wrev = w[::-1].copy()  # contiguous, so each matvec takes numpy's fast path
    own = 0.5 * sign * h  # weight of g(x_k^+) in the trapezoid sum at t_k
    stop = 1e-3 * tol
    neg = np.empty_like(Y)
    G = np.empty_like(Y)
    neg[:, 0] = np.maximum(-Y[:, 0], 0.0)
    gk = G[:, 0] = gv(np.maximum(Y[:, 0], 0.0))
    # sign * (trapezoid sum of G through t_{k-1}) + own * G_{k-1}
    carried = own * gk
    for k in range(1, m + 1):
        known = Y[:, k] + carried + neg[:, :k] @ wrev[m - k:]
        x = known + own * gk
        last = np.inf
        for _ in range(max_iter):
            gk = gv(np.maximum(x, 0.0))
            x_new = known + own * gk
            change = abs(x_new - x).max()
            x = x_new
            if change < stop:
                break
            if not change < last:
                if change <= _ULPS * abs(x).max():
                    break
                raise RuntimeError(
                    f"phi_Mg forward step did not converge at t_{k}: own-step update "
                    f"{change:.3e} after {last:.3e}; h/2 * lambda_g must be below 1"
                )
            last = change
        else:
            raise RuntimeError(
                f"phi_Mg forward step did not converge within {max_iter} iterations "
                f"at t_{k}: last update {change:.3e}"
            )
        G[:, k] = gk
        neg[:, k] = np.maximum(-x, 0.0)
        carried += 2.0 * own * gk
    return Y + sign * _cumtrapz(G, h)


def limit_row(model, E, S, grid):
    """The one-path limit solve: `model.drive` of the noise paths E and S sampled
    on the grid, then row 0 of `model.solve(..., defects=True)`, as (x, the
    regulator or None, the row's diagnostics)."""
    Y = model.drive(E.sampled(grid)[None, :], S.sampled(grid)[None, :], grid)
    X, L, diag = model.solve(Y, grid, defects=True)
    return X[0], None if L is None else L[0], \
        {k: v[0] if isinstance(v, np.ndarray) else v for k, v in diag.items()}


def noise_row(model, grid, seed, replication=0):
    """(E, S, jitter): `model.noise` of one row from the stream (seed,
    replication, "limit"), with E and S as linear paths on the grid."""
    E, S, jitter = model.noise(grid, [make_rng(seed, replication, "limit")], 1)
    end = float(grid[-1])
    return linear_path(grid, E[0], end), linear_path(grid, S[0], end), jitter


def per_replication_limit(case, xi, beta, mu, ca2, f, grid, seed, reps, table, tol):
    """`httq limit`'s replications solved one by one: (paths, summary).

    One `noise_row` draw and one one-path solve (`limit_row`) per
    replication; the summary holds each replication's residual and jitter.
    """
    model = LimitModel(case, mu, ca2, xi, beta, f, table, tol)
    paths, summary = [], []
    for r in range(reps):
        E, S, jitter = noise_row(model, grid, seed, r)
        x, _, diag = limit_row(model, E, S, grid)
        paths.append(x)
        summary.append({"replication": r, "residual": float(diag["residual"]),
                        "jitter": float(jitter)})
    return paths, summary


# ---------------------------------------------------------------------------
# critical-scale service noise


def sample_gaussian_S(M, H, grid, stream):
    """One sample path of the critical-scale service noise on the grid, drawn
    through the dense reference factor `ServiceCovariance.cholesky`."""
    grid = check_grid(grid)
    if H != M.H:
        raise ValueError("renewal table was built from a different service law")
    L, _ = _covariance_model(M).cholesky(grid)
    draws = np.zeros(grid.size)
    draws[1:] = (stream.standard_normal((1, grid.size - 1)) @ L.T)[0]
    return linear_path(grid, draws, float(grid[-1]))


def circulant_S(M, grid, stream):
    """One sample path of the service noise on a uniform grid by circulant
    embedding, from the covariance entries `covariance_S` and one full complex
    FFT each way.

    The increments x_j = s((j + 1) h) - s(j h) have autocovariance
    gamma(j) = Cov[s(h), s((j + 1) h)] - Cov[s(h), s(j h)].  The circulant has
    length N = 2(n - 1), or the span p = v / h of a deterministic law when
    p <= N, and first row gamma(min(j, N - j)).  Its N standard normals are
    the real parts of modes 0 .. N // 2, then the imaginary parts of modes
    1 .. (N - 1) // 2, each interior mode scaled by sqrt(1/2); mode N - m is
    the conjugate of mode m, and x is sqrt(N) times the inverse FFT of
    sqrt(lambda) W, read modulo N."""
    t = check_grid(grid)
    n, h = t.size - 1, float(t[1])
    gamma = np.array([covariance_S(h, (j + 1) * h, M) - (covariance_S(h, j * h, M) if j else 0.0)
                      for j in range(n)])
    N = max(2 * (n - 1), 1)
    if M.H.family == "deterministic":
        N = min(N, round(M.H["value"] / h))
    lam = np.maximum(np.fft.fft(gamma[[min(j, N - j) for j in range(N)]]).real, 0.0)
    z = stream.standard_normal(N)
    W = np.zeros(N, dtype=complex)
    W[:N // 2 + 1] = z[:N // 2 + 1]
    for m in range(1, (N + 1) // 2):
        W[m] = (W[m].real + 1j * z[N // 2 + m]) * math.sqrt(0.5)
        W[N - m] = np.conj(W[m])
    x = math.sqrt(N) * np.fft.ifft(np.sqrt(lam) * W).real
    return linear_path(t, np.concatenate([[0.0], np.cumsum(x[np.arange(n) % N])]), float(t[-1]))


def dense_service_covariance(table):
    """The service-noise covariance on the table's lattice, every matrix formed whole."""
    H, t, h = table.H, table.times, table.step
    m = t.size - 1
    mu = table.rate()
    he = np.asarray(equilibrium_distribution(H).cdf(t), dtype=float)
    hec = 1.0 - he
    mids = (np.arange(2 * m, dtype=float) + 0.5) * h
    h_mid = np.asarray(H.cdf(mids[:m]), dtype=float)
    hc_mid = 1.0 - np.asarray(H.cdf(mids), dtype=float)
    ks = np.arange(m)[:, None]
    ds = np.arange(m + 1)[None, :]
    prod = h_mid[:, None] * hc_mid[ks + ds]
    J = h * np.vstack([np.zeros(m + 1), np.cumsum(prod, axis=0)])
    ii = np.arange(m + 1)[:, None]
    jj = np.arange(m + 1)[None, :]
    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    C = he[lo] * hec[hi] + mu * J[lo, hi - lo]
    A = stieltjes_matrix(np.diff(table.values))
    cov = A @ C @ A.T
    return 0.5 * (cov + cov.T)


def dense_cholesky(sub, jitters):
    """(Fortran-ordered lower factor of sub + jit * I, jit) at the first rung that factors."""
    for jit in jitters:
        try:
            return np.asfortranarray(np.linalg.cholesky(sub + jit * np.eye(sub.shape[0]))), jit
        except np.linalg.LinAlgError:
            pass
    raise AssertionError("no rung of the jitter ladder factors the covariance")


def sample_service_noise_finite_n(M, H, n, grid, rng, reps):
    """Direct finite-n replica of the service noise, (reps, len(grid)).

    Each replication builds the two centered indicator fields from n
    equilibrium residual draws and floor(mu n T) fresh services entering
    at the fluid pace, then applies the same discrete dM convolution as
    the covariance model.
    """
    if H != M.H:
        raise ValueError("renewal table was built from a different service law")
    grid = check_grid(grid)
    t = M.times[M.times <= grid[-1] + 1e-12]
    idx = M._indices_on(grid)
    mu = M.rate()
    sqn = math.sqrt(n)
    eq = equilibrium_distribution(H)

    n_ent = int(math.floor(mu * n * t[-1] + 1e-9))
    tau = np.arange(1, n_ent + 1) / (mu * n)
    m_at = np.floor(mu * n * t + 1e-9).astype(int)
    # deterministic centerings, shared by every replication
    w_center = n * (1.0 - np.asarray(eq.cdf(t), dtype=float))
    hc_tail = np.zeros(t.size)
    for k in range(t.size):
        hc_tail[k] = float(np.sum(1.0 - np.asarray(H.cdf(t[k] - tau[: m_at[k]]), dtype=float)))

    A = stieltjes_matrix(np.diff(M.values_on(t)))
    out = np.empty((reps, t.size))
    for r in range(reps):
        u = np.sort(eq.sample(rng, n))
        w_part = (n - np.searchsorted(u, t, side="right")) - w_center
        d = np.sort(tau + H.sample(rng, n_ent))
        m_part = (m_at - np.searchsorted(d, t, side="right")) - hc_tail
        z = (w_part + m_part) / sqn
        out[r] = -(A @ z)
    return out[:, idx]


def openblas_mapped():
    """Whether /proc/self/maps lists a library named like an OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            return any("openblas" in line.lower() for line in fh)
    except OSError:
        return False


def limit_f(spec, grid):
    """Tabulate a patience spec's scaling limit f on a grid as a linear path."""
    grid = np.asarray(grid, dtype=float)
    f = spec.limit_function()
    return linear_path(grid, np.asarray(f(grid), dtype=float), horizon=float(grid[-1]))
